"""The dual-model training algorithm: fixed-ratio mixup of source and target
samples, confidence-gated mutual teaching, self-penalization of low-confidence
predictions, and consistency regularization on the half-half mixup domain.

Loss conventions
----------------
All four objectives are non-negative losses to be minimized:

* ``loss_fm``  - cross-entropy of the model's prediction on a mixed sample
  against the convex label mixture.
* ``loss_bim`` - cross-entropy of the student on target samples against the
  teacher's argmax, only where the teacher's confidence strictly exceeds the
  adaptive threshold; teacher predictions are constants.
* ``loss_sp``  - negative log of (1 - p) at the model's own top-1 class,
  only where its confidence is strictly below the threshold. The penalized
  probability is computed with the model's learnable temperature; the
  gate and the argmax use the plain T = 1 confidences so that the matching
  and penalization index sets partition cleanly around the threshold.
* ``loss_cr``  - mean squared L2 distance between the two models'
  predictions on the half-half mixup batch.

Logs inside the losses are clamped at 1e-12.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MetricsRow, TrainConfig
from .data import Dataset, one_hot, paired_minibatches
from .models import (LOG_TEMPERATURE, ClassifierModel, DualState, accuracy,
                     ensemble_labels, forward_logits, predict_probs,
                     stack_models, unstack_models)
from .numerics import (Array, Tensor, backward, log_loss, lr_schedule,
                       sgd_step, softmax, softmax_t, take)
from .numerics import LOG_CLAMP  # re-exported: the floor under every loss's log

_RATIO_STREAM = 3  # rng namespace for the per-iteration ratio draws
_MODELS = ("sd", "td")  # the model axis of the stacked pair, in order
_LOSS_TERMS = ("fm_sd", "fm_td", "sp_sd", "sp_td", "bim_sd", "bim_td", "cr")


class NonFiniteLossError(RuntimeError):
    """A loss term left the finite range; names the term and iteration.

    ``rows`` carries the metrics of the epochs completed before the abort so
    callers can preserve partial results.
    """

    def __init__(self, term: str, epoch: int, iteration: int, value: float):
        super().__init__(
            f"non-finite loss {term}={value!r} at epoch {epoch} iteration {iteration}")
        self.term = term
        self.epoch = epoch
        self.iteration = iteration
        self.rows: list[MetricsRow] = []


@dataclass
class MixupBatch:
    """Convex blend of a source and a target batch (features and labels)."""

    x_mix: Array          # (B, d)
    y_mix: Array          # (B, C), rows on the probability simplex


def _check_simplex(rows: Array, what: str) -> None:
    if rows.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {rows.shape}")
    if (rows < 0).any():
        raise ValueError(f"{what} rows must be non-negative")
    # np.allclose's own test at atol 1e-9 and its default rtol 1e-5;
    # NaN and inf fail it
    if not (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9 + 1e-5).all():
        raise ValueError(f"{what} rows must sum to 1")


def mixup(xs: Array, ys_onehot: Array, xt: Array, yt_onehot: Array,
          lam: float) -> MixupBatch:
    """Per-sample convex combination ``lam * source + (1 - lam) * target``.

    ``lam`` of exactly 0 or 1 returns bit-exact copies of the corresponding
    side.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixup ratio must be in [0, 1], got {lam}")
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    ys_onehot = np.asarray(ys_onehot, dtype=np.float64)
    yt_onehot = np.asarray(yt_onehot, dtype=np.float64)
    if xs.shape != xt.shape:
        raise ValueError(f"feature shapes differ: {xs.shape} vs {xt.shape}")
    if ys_onehot.shape != yt_onehot.shape or ys_onehot.shape[0] != xs.shape[0]:
        raise ValueError("label shapes must match and align with features")
    _check_simplex(ys_onehot, "source labels")
    _check_simplex(yt_onehot, "target labels")
    return MixupBatch(_blend(xs, xt, lam), _blend(ys_onehot, yt_onehot, lam))


def _blend(a: Array, b: Array, lam: float) -> Array:
    """``lam * a + (1 - lam) * b``; a copy of ``a`` or ``b`` at 1 or 0."""
    if lam == 1.0:
        return a.copy()
    if lam == 0.0:
        return b.copy()
    return lam * a + (1.0 - lam) * b


def pseudo_labels(model: ClassifierModel, xt: Array) -> tuple[Array, Array]:
    """Argmax labels and top-1 confidences of the model's T = 1 predictions."""
    probs = predict_probs(model, xt)
    return np.argmax(probs, axis=1), probs.max(axis=1)


@dataclass
class ThresholdStats:
    """Adaptive confidence threshold of one mini-batch: mean - 2 * std."""

    tau: float
    batch_mean: float
    batch_std: float
    num_above: int     # confidences strictly above tau
    num_below: int     # the rest (confidence <= tau)


def adaptive_threshold(confidences) -> ThresholdStats:
    """Threshold ``mean - 2 * population std``, clamped to [0, 1]."""
    conf = np.asarray(confidences, dtype=np.float64).reshape(-1)
    if conf.size == 0:
        raise ValueError("adaptive_threshold needs a non-empty confidence batch")
    lo, hi = conf.min(), conf.max()  # NaN propagates into both
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    if lo == hi:
        # constant batch: the statistics are exact; summing would otherwise
        # put tau an ulp below the value and break the strict gate counts
        mean, std = float(conf[0]), 0.0
    else:
        mean = float(conf.mean())
        std = float(conf.std())  # population (divide by B)
    tau = min(1.0, max(0.0, mean - 2.0 * std))
    num_above = int((conf > tau).sum())
    return ThresholdStats(tau, mean, std, num_above, conf.size - num_above)


def loss_fm(probs: Tensor, y_mix: Array) -> Tensor:
    """Cross-entropy of a model's T = 1 probabilities on a mixed batch
    against the mixed labels (rows on the simplex, as :func:`mixup` builds
    them), averaged over the batch."""
    return log_loss(probs, y_mix, probs.data.shape[0])


def loss_bim(teacher_probs: Array, student_probs: Tensor, tau: float) -> Tensor:
    """Teach the student the teacher's confident argmax labels.

    Both arguments are T = 1 probabilities on the same target batch.
    Samples whose teacher confidence is not strictly above ``tau``
    contribute zero. Teacher probabilities are plain arrays, so no gradient
    reaches the teacher.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
    b, c = teacher_probs.shape
    conf = teacher_probs.max(axis=1)
    labels = np.argmax(teacher_probs, axis=1)
    mask = np.zeros((b, c))
    selected = conf > tau
    mask[np.arange(b)[selected], labels[selected]] = 1.0
    return log_loss(student_probs, mask, b)


def loss_sp(logits: Tensor, log_temperature: Tensor, tau: float) -> Tensor:
    """Push the probability of low-confidence top-1 predictions toward zero.

    The gate compares the confidence of the T = 1 probabilities of
    ``logits`` strictly against ``tau``; the penalized probability is a
    softmax of ``logits`` at the learnable temperature
    ``exp(log_temperature)``, so its gradient also trains that parameter.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    probs = softmax(logits.data)
    b = probs.shape[0]
    conf = probs.max(axis=1)
    labels = np.argmax(probs, axis=1)
    mask = np.zeros_like(probs)
    selected = conf < tau
    mask[np.arange(b)[selected], labels[selected]] = 1.0

    tempered = softmax_t(logits, log_temperature.exp())
    return log_loss(1.0 - tempered, mask, b)


def loss_cr(p: Tensor, q: Tensor) -> Tensor:
    """Squared-L2 disagreement of the two models' T = 1 probabilities on the
    half-half mixup batch; gradients flow into both models."""
    b = p.data.shape[0]
    d = p - q
    return (d * d).sum() * (1.0 / b)


def ratio_rule_sample(rule: str, alpha: float, lambda_fixed_pair: tuple[float, float],
                      rng: np.random.Generator) -> tuple[float, float]:
    """Draw the (source-dominant, target-dominant) mixup ratios for one step.

    fixed:  the configured pair, verbatim.
    random: two independent Beta(alpha, alpha) draws, one per model.
    range:  lam ~ Beta(alpha, alpha), lam' = max(lam, 1 - lam),
            returning (lam', 1 - lam').
    """
    if rule == "fixed":
        return lambda_fixed_pair
    if rule not in ("random", "range"):
        raise ValueError(f"unknown ratio rule {rule!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if rule == "random":
        return float(rng.beta(alpha, alpha)), float(rng.beta(alpha, alpha))
    lam = float(rng.beta(alpha, alpha))
    lam_prime = max(lam, 1.0 - lam)
    return lam_prime, 1.0 - lam_prime


def _evaluate(pair: ClassifierModel, source: Dataset,
              target: Dataset) -> dict[str, float]:
    # one stacked pass per set gives both models' probabilities, which
    # serve the single-model accuracies and the ensemble rule
    p_src = predict_probs(pair, source.features)
    p_tgt = predict_probs(pair, target.features)
    ys = source.eval_labels()
    yt = target.eval_labels()
    return {
        "acc_src_sd": accuracy(np.argmax(p_src[0], axis=1), ys),
        "acc_src_td": accuracy(np.argmax(p_src[1], axis=1), ys),
        "acc_tgt_sd": accuracy(np.argmax(p_tgt[0], axis=1), yt),
        "acc_tgt_td": accuracy(np.argmax(p_tgt[1], axis=1), yt),
        "acc_tgt_ens": accuracy(ensemble_labels(p_tgt[0], p_tgt[1]), yt),
    }


def train_fixbi(cfg: TrainConfig, source: Dataset, target: Dataset,
                init_weights: ClassifierModel) -> tuple[DualState, list[MetricsRow]]:
    """Run the full dual-model procedure from pretrained baseline weights.

    Both models start as copies of ``init_weights`` and train as one
    stacked pair (see :func:`models.stack_models`). Every iteration builds
    each model's mixup batch from its own current pseudo-labels (or the
    frozen baseline's, per ``cfg.pseudo_label_source``) and updates it with
    the mixup loss plus self-penalization. After ``cfg.warmup_epochs``,
    bidirectional matching and consistency regularization join in. All
    losses of one iteration are evaluated on the pre-update weights, then
    the pair takes a single SGD step.

    Returns the final dual state and one metrics row per epoch.
    """
    frozen = init_weights if cfg.pseudo_label_source == "frozen-baseline" else None
    pair = stack_models([init_weights, init_weights])
    trace: list[tuple[int, int, float, float, int, int]] = []
    rows: list[MetricsRow] = []
    try:
        _run_epochs(cfg, source, target, pair, trace, rows, frozen)
    except NonFiniteLossError as exc:
        exc.rows = rows
        raise
    sdm, tdm = unstack_models(pair)
    return DualState(sdm, tdm, epoch=len(rows), threshold_trace=trace), rows


def _run_epochs(cfg: TrainConfig, source: Dataset, target: Dataset,
                pair: ClassifierModel, trace: list, rows: list[MetricsRow],
                frozen: ClassifierModel | None) -> None:
    num_classes = pair.num_classes
    log_temperature = pair.params[LOG_TEMPERATURE]
    n_batches = max(source.n, target.n) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    ratio_rng = np.random.default_rng([cfg.seed, _RATIO_STREAM])
    step = 0

    for epoch in range(1, cfg.epochs + 1):
        matching_open = epoch > cfg.warmup_epochs
        with_bim = matching_open and cfg.loss_bim
        with_cr = matching_open and cfg.loss_cr
        # per-epoch sums keyed by metrics.csv column: loss terms and
        # thresholds are averaged over the batches, gate counts are totals
        ledger = dict.fromkeys(_LOSS_TERMS + ("tau_sd", "tau_td"), 0.0)
        ledger.update(n_above_sd=0, n_above_td=0)

        for it, batch in enumerate(
                paired_minibatches(source, target, cfg.batch_size, epoch, cfg.seed), start=1):
            lr = lr_schedule(cfg.lr0, step / total_steps if total_steps else 0.0)
            lams = ratio_rule_sample(
                cfg.ratio_rule, cfg.alpha, (cfg.lambda_sd, cfg.lambda_td), ratio_rng)

            # one stacked input: model k's rows are the target batch, then
            # its mixup batch (the mixed features do not depend on the
            # pseudo-labels, only the mixed labels do), then the half-half
            # batch once consistency regularization is on
            b = batch.xt.shape[0]
            blocks = [(batch.xt, batch.xt)]
            if cfg.loss_fm:
                blocks.append(tuple(_blend(batch.xs, batch.xt, lam) for lam in lams))
            if with_cr:
                x_half = 0.5 * batch.xs + 0.5 * batch.xt  # half-half mixup
                blocks.append((x_half, x_half))
            x = np.stack([np.concatenate(rows_k) for rows_k in zip(*blocks)])
            t_rows, mix_rows, half_rows = slice(0, b), slice(b, 2 * b), slice(-b, None)

            # one graph forward of both models from the pre-update weights:
            # the T = 1 probabilities of the target rows give the gates and
            # pseudo-labels as data and are the student input of matching;
            # the target rows' logits feed self-penalization
            _, logits = forward_logits(pair, x)
            probs = softmax_t(logits, 1.0)
            target_probs = probs.data[:, t_rows]
            for k, m in enumerate(_MODELS):
                if not np.isfinite(target_probs[k]).all():
                    raise NonFiniteLossError(f"target_probs_{m}", epoch, it, float("nan"))
            stats = [adaptive_threshold(p.max(axis=1)) for p in target_probs]
            if frozen is not None:
                labels = [pseudo_labels(frozen, batch.xt)[0]] * 2
            else:
                labels = [np.argmax(p, axis=1) for p in target_probs]

            ys_hot = one_hot(batch.ys, num_classes)
            terms: dict[str, Tensor] = {}
            for k, m in enumerate(_MODELS):
                if cfg.loss_fm:
                    y_mix = _blend(ys_hot, one_hot(labels[k], num_classes), lams[k])
                    terms[f"fm_{m}"] = loss_fm(take(probs, (k, mix_rows)), y_mix)
                if cfg.loss_sp:
                    terms[f"sp_{m}"] = loss_sp(take(logits, (k, t_rows)),
                                               take(log_temperature, k), stats[k].tau)
                if with_bim:
                    # the partner teaches, gated by its own threshold
                    terms[f"bim_{m}"] = loss_bim(target_probs[1 - k],
                                                 take(probs, (k, t_rows)),
                                                 stats[1 - k].tau)
            if with_cr:
                terms["cr"] = loss_cr(take(probs, (0, half_rows)),
                                      take(probs, (1, half_rows)))

            total = None
            for name in _LOSS_TERMS:
                term = terms.get(name)
                if term is not None:
                    value = term.item()
                    if not np.isfinite(value):
                        raise NonFiniteLossError(name, epoch, it, value)
                    ledger[name] += value + 0.0  # + 0.0: -0.0 from empty gates
                    total = term if total is None else total + term

            # the models' slices of the stacked parameters are disjoint and
            # teacher probabilities are constants, so one walk gives each
            # model exactly its own gradients
            if total is None:
                grads = {n: np.zeros_like(t.data) for n, t in pair.params.items()}
            else:
                grads = backward(total, pair.params)
            sgd_step(pair.params, grads, lr, cfg.momentum, cfg.weight_decay)
            step += 1

            for k, m in enumerate(_MODELS):
                ledger[f"tau_{m}"] += stats[k].tau
                ledger[f"n_above_{m}"] += stats[k].num_above
            trace.append((epoch, it, stats[0].tau, stats[1].tau,
                          stats[0].num_above, stats[1].num_above))

        nb = max(1, n_batches)
        logged = {k: v if k.startswith("n_above") else v / nb for k, v in ledger.items()}
        rows.append(MetricsRow(epoch=epoch, **logged,
                               **_evaluate(pair, source, target)))
