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
  argmax uses the plain T = 1 probabilities.
* ``loss_cr``  - mean squared L2 distance between the two models'
  predictions on the half-half mixup batch.

Both gates come from one :func:`adaptive_threshold` call on the T = 1
confidences, so the matching and penalization index sets never overlap.

Logs inside the losses are clamped at 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import MetricsRow, TrainConfig, validate_config
from .data import Dataset, batches_per_epoch, one_hot, one_hot_table, paired_minibatches
from .models import (LOG_TEMPERATURE, ClassifierModel, DualState, ThresholdRow,
                     accuracy, ensemble_labels, forward_logits, predict_probs,
                     stack_models, unstack_models)
from .numerics import (Array, ParamSet, backward, log_loss, lr_schedule,
                       sgd_step, softmax_vjp, step_node, temperature)

_RATIO_STREAM = 3  # rng namespace for the per-iteration ratio draws
_MODELS = ("sd", "td")  # the model axis of the stacked pair, in order


class NonFiniteLossError(RuntimeError):
    """A loss term left the finite range; names the term and iteration.

    ``rows`` carries the rows of the phase's epochs completed before the
    abort so callers can preserve partial results.
    """

    def __init__(self, term: str, epoch: int, iteration: int, value: float, rows: list):
        super().__init__(
            f"non-finite loss {term}={value!r} at epoch {epoch} iteration {iteration}")
        self.term = term
        self.epoch = epoch
        self.iteration = iteration
        self.rows = rows


def train_epochs(cfg: TrainConfig, epochs: int, params: ParamSet, n_batches: int,
                 batches: Callable, step: Callable, epoch_row: Callable) -> list:
    """The SGD loop of every trainer: each batch of ``batches(epoch)`` gives
    ``step(batch, epoch, it) -> (node, {column: loss})``, whose losses are
    checked and summed before one ``backward`` and one step at the decayed
    rate. A non-finite loss, or no node, raises :class:`NonFiniteLossError`
    with the rows so far; each epoch ends with ``epoch_row(epoch, means)``."""
    rows: list = []
    for epoch in range(1, epochs + 1):
        ledger: dict[str, float] = {}  # per-epoch loss sums, keyed by column
        for it, batch in enumerate(batches(epoch), start=1):
            node, values = step(batch, epoch, it)
            for col, v in values.items():
                if node is None or not math.isfinite(v):
                    raise NonFiniteLossError(col, epoch, it, v, rows)
                ledger[col] = ledger.get(col, 0.0) + v
            lr = lr_schedule(cfg.lr0, ((epoch - 1) * n_batches + it - 1) / (epochs * n_batches))
            sgd_step(params, backward(node, params), lr, cfg.momentum, cfg.weight_decay)
        rows.append(epoch_row(epoch, {col: v / n_batches for col, v in ledger.items()}))
    return rows


def mixup(a: Array, b: Array, lam: float) -> Array:
    """The fixed-ratio blend ``lam * a + (1 - lam) * b`` of two equally
    shaped arrays (source and target features, or their label rows); a
    bit-exact copy of ``a`` or ``b`` at ``lam`` 1 or 0."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixup ratio must be in [0, 1], got {lam}")
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
    """The adaptive confidence gate of one iteration, one row per model.

    ``above`` selects the samples that teach the partner in bidirectional
    matching and ``below`` those its own self-penalization acts on; both
    are strict, so the two sets never overlap and samples at ``tau`` join
    neither.
    """

    tau: Array        # [K] per-model threshold
    above: Array      # [K x B] confidence > tau
    below: Array      # [K x B] confidence < tau
    num_above: int    # entries of ``above``, over the whole stack
    num_below: int    # the rest (confidence <= tau)


def adaptive_threshold(confidences: Array) -> ThresholdStats:
    """Per-row threshold ``mean - 2 * population std``, clamped to [0, 1],
    of a ``[K x B]`` stack of confidences in [0, 1], one row per model."""
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.ndim != 2 or conf.size == 0:
        raise ValueError("adaptive_threshold needs a non-empty [K x B] confidence "
                         f"stack, got shape {conf.shape}")
    lo, hi = conf.min(axis=1), conf.max(axis=1)  # NaN propagates into both
    if not (lo.min() >= 0.0 and hi.max() <= 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    mean = np.add.reduce(conf, axis=1) / conf.shape[1]  # conf.mean(axis=1), unwrapped
    std = np.sqrt(np.square(conf - mean[:, None]).sum(axis=1) / conf.shape[1])  # population
    const = lo == hi
    if const.any():
        # a constant row's statistics are exact; summing would otherwise
        # put tau an ulp below the value and break the strict gates
        mean[const], std[const] = lo[const], 0.0
    tau = np.minimum(1.0, np.maximum(0.0, mean - 2.0 * std))
    above = conf > tau[:, None]
    num_above = int(above.sum())
    return ThresholdStats(tau, above, conf < tau[:, None], num_above,
                          conf.size - num_above)


def loss_fm(probs: Array, y_mix: Array) -> tuple[Array, Array]:
    """Cross-entropy of a model's T = 1 probabilities on a mixed batch
    against the mixed labels (rows on the simplex, as :func:`mixup` of two
    one-hot rows builds them), averaged over the batch.

    Each loss returns its value and its gradient for each array it trains.
    A ``[K x B x C]`` stack of models gives one loss per model, each
    bit-identical to the 2-D call on its slice; so do :func:`loss_bim` and
    :func:`loss_sp`.
    """
    return log_loss(probs, y_mix, probs.shape[-2])


def loss_bim(student_probs: Array, teacher_hot: Array) -> tuple[Array, Array]:
    """Teach the student the teacher's top-1 labels: ``teacher_hot`` holds
    one-hot rows at the teacher's argmax on the samples its ``above`` gate
    selects and zero rows elsewhere, which contribute zero.

    Both come from T = 1 probabilities on the same target batch. The labels
    are constants, so no gradient reaches the teacher. A stack of
    students takes a stack of label tables.
    """
    return log_loss(student_probs, teacher_hot, teacher_hot.shape[-2])


def loss_sp(logits: Array, temperature: Array, own_hot: Array) -> tuple[Array, Array, Array]:
    """Push the probability of the model's own top-1 predictions toward
    zero on the rows of ``own_hot`` that are one-hot (the model's ``below``
    gate); zero rows contribute zero.

    The argmax behind ``own_hot`` uses the T = 1 probabilities. The
    penalized probability is a softmax of ``logits`` at the learnable
    temperature (``temperature`` holds T = exp(log_temperature)), so the
    second gradient trains the log-temperature. A stack of models takes the
    ``[K x 1]`` temperatures and one label table per model.
    """
    tempered, vjp_z, vjp_log_t = softmax_vjp(logits, temperature)
    value, g = log_loss(1.0 - tempered, own_hot, own_hot.shape[-2])
    g = -g
    return value, vjp_z(g), vjp_log_t(g)


def loss_cr(p: Array, q: Array) -> tuple[float, Array]:
    """Squared-L2 disagreement of the two models' T = 1 probabilities on the
    half-half mixup batch; the gradient is ``p``'s, and ``q``'s its negation."""
    b = p.shape[0]
    d = p - q
    g = (1.0 / b) * d
    return float((d * d).sum() * (1.0 / b)), g + g


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
    validate_config(cfg)
    eye = one_hot_table(source, init_weights.num_classes)
    frozen = (one_hot(np.tile(pseudo_labels(init_weights, target.features)[0], (2, 1)),
                      init_weights.num_classes)
              if cfg.pseudo_label_source == "frozen-baseline" else None)
    pair = stack_models([init_weights, init_weights])
    trace: list[ThresholdRow] = []
    log_temperature = pair.params[LOG_TEMPERATURE]
    n_batches = batches_per_epoch(source, target, cfg.batch_size)
    ratio_rng = np.random.default_rng([cfg.seed, _RATIO_STREAM])

    def step(batch, epoch, it):
        with_bim = epoch > cfg.warmup_epochs and cfg.loss_bim
        with_cr = epoch > cfg.warmup_epochs and cfg.loss_cr
        lams = ratio_rule_sample(
            cfg.ratio_rule, cfg.alpha, (cfg.lambda_sd, cfg.lambda_td), ratio_rng)

        # one stacked input: model k's rows are the target batch, then
        # its mixup batch (the mixed features do not depend on the
        # pseudo-labels, only the mixed labels do), then the half-half
        # batch once consistency regularization is on; one concatenate
        # of the row blocks in memory order, model 0's first
        b, d = batch.xt.shape
        mixes = [mixup(batch.xs, batch.xt, lam) for lam in lams]
        half = [mixup(batch.xs, batch.xt, 0.5)] if with_cr else []
        x = np.concatenate([rows for mix in mixes
                            for rows in (batch.xt, mix, *half)]).reshape(2, -1, d)
        t_rows, mix_rows, half_rows = slice(0, b), slice(b, 2 * b), slice(2 * b, 3 * b)

        # one forward of both models from the pre-update weights: the
        # T = 1 probabilities of the target rows give the gates and
        # pseudo-labels as data and are the student input of matching;
        # the target rows' logits feed self-penalization
        _, z, reverse = forward_logits(pair, x)
        probs, probs_vjp, _ = softmax_vjp(z)
        target_probs = probs[:, t_rows]
        if not np.isfinite(target_probs).all():
            k = int(np.argmin(np.isfinite(target_probs).all(axis=(1, 2))))
            return None, {f"target_probs_{_MODELS[k]}": np.nan}
        stats = adaptive_threshold(target_probs.max(axis=-1))
        # each model's top-1 labels, taken once: the live pseudo-labels,
        # split by the gate into the matching and penalization tables
        hot = eye[np.argmax(target_probs, axis=-1)]
        labels_hot = hot if frozen is None else frozen[:, batch.target_rows]

        # one call per loss kind for both models, entry k of its value
        # model k's; the rows the losses read are disjoint, so each
        # gradient is added into zeros, as zero-padded slices would sum
        ys_hot = eye[batch.ys]
        y_mix = np.stack([mixup(ys_hot, labels_k, lam)
                          for labels_k, lam in zip(labels_hot, lams)])
        g_probs, g_logits = np.zeros(z.shape), np.zeros(z.shape)
        g_log_t = np.zeros(log_temperature.data.shape)
        terms = {}
        terms["fm"], g = loss_fm(probs[:, mix_rows], y_mix)
        g_probs[:, mix_rows] += g
        if cfg.loss_sp:
            temps, usable = temperature(log_temperature.data)
            if not usable.all():
                k = int(np.argmin(usable))
                return None, {f"temp_{_MODELS[k]}": temps.item(k)}
            terms["sp"], g_logits[:, t_rows], g_log_t = loss_sp(
                z[:, t_rows], temps, hot * stats.below[..., None])
        if with_bim:
            # the partner teaches, through its own gate
            terms["bim"], g = loss_bim(probs[:, t_rows],
                                       (hot * stats.above[..., None])[::-1])
            g_probs[:, t_rows] += g

        values = {f"{kind}_{m}": v for kind, value in terms.items()
                  for m, v in zip(_MODELS, value.tolist())}
        total = sum(list(terms.values())[1:], terms["fm"]).sum()
        if with_cr:  # one scalar, the "cr" column
            values["cr"], g = loss_cr(probs[0, half_rows], probs[1, half_rows])
            total += values["cr"]
            g_probs[0, half_rows] += g
            g_probs[1, half_rows] -= g

        # the step is one node, its reverse run once: the models'
        # parameter slices are disjoint and the teachers' probabilities
        # constants, so each gets its own gradients
        g_logits += probs_vjp(g_probs)

        def step_reverse():
            np.positive(g_log_t, out=log_temperature.grad)
            reverse(g_logits)

        trace.append(ThresholdRow(epoch, it, *stats.tau.tolist(),
                                  *stats.above.sum(axis=1).tolist()))
        return step_node(total, x, step_reverse), values

    def epoch_row(epoch, means):
        # losses and thresholds are averaged over the epoch's batches (every
        # epoch has n_batches of them), gate counts are totals; both gate
        # columns are summed off this epoch's rows of the trace
        gates = {col: sum(getattr(r, col) for r in trace[-n_batches:])
                 for col in ThresholdRow._fields[2:]}
        return MetricsRow(
            epoch=epoch, **means,
            tau_sd=gates["tau_sd"] / n_batches, tau_td=gates["tau_td"] / n_batches,
            n_above_sd=gates["n_above_sd"], n_above_td=gates["n_above_td"],
            **_evaluate(pair, source, target))

    # fetched here, as the benchmark's tracer names an iteration by its caller
    rows = train_epochs(cfg, cfg.epochs, pair.params, n_batches, lambda epoch:
                        paired_minibatches(source, target, cfg.batch_size, epoch, cfg.seed),
                        step, epoch_row)
    sdm, tdm = unstack_models(pair)
    return DualState(sdm, tdm, threshold_trace=trace), rows
