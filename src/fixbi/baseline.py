"""Pretraining baselines: plain source-only cross-entropy and a small
domain-adversarial network (gradient reversal into a domain discriminator).

Either one supplies the pretrained weights the dual-model procedure starts
from, and their target accuracies anchor the adaptation comparisons.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import MetricsRow, TrainConfig
from .core import NonFiniteLossError
from .data import Dataset, one_hot, paired_minibatches
from .models import (ClassifierModel, DomainDiscriminator, accuracy,
                     discriminator_logits, forward, forward_logits,
                     init_discriminator, init_model, predict_labels)
from .numerics import (Tensor, backward, grl, log_loss, lr_schedule, sgd_step,
                       softmax_t)

_DISC_STREAM = 1  # rng namespace for discriminator init
_DISC_HIDDEN = 32


@dataclass
class BaselineResult:
    model: ClassifierModel
    source_acc: float
    target_acc: float
    history: list[MetricsRow] = field(default_factory=list)


def _accuracies(model: ClassifierModel, source: Dataset,
                target: Dataset) -> tuple[float, float]:
    """(source accuracy, target accuracy) on the full sets."""
    return (accuracy(predict_labels(model, source.features), source.eval_labels()),
            accuracy(predict_labels(model, target.features), target.eval_labels()))


def _eval_row(epoch: int, loss: float, model: ClassifierModel,
              source: Dataset, target_eval: Dataset, t0: float) -> MetricsRow:
    src_acc, tgt_acc = _accuracies(model, source, target_eval)
    return MetricsRow(epoch=epoch, fm_sd=loss,
                      acc_src_sd=src_acc, acc_tgt_sd=tgt_acc, acc_tgt_ens=tgt_acc,
                      wall_ms=(time.perf_counter() - t0) * 1e3)


def _result(model: ClassifierModel, history: list[MetricsRow], source: Dataset,
            target_eval: Dataset) -> BaselineResult:
    return BaselineResult(model, *_accuracies(model, source, target_eval), history)


def train_source_only(cfg: TrainConfig, source: Dataset,
                      target_eval: Dataset) -> BaselineResult:
    """Cross-entropy on labeled source only; the lower anchor for adaptation.

    Consumes the same paired batch stream as :func:`train_dann` (ignoring the
    target half) so the two trainers are step-for-step comparable.
    """
    model = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
    history: list[MetricsRow] = []
    n_batches = max(source.n, target_eval.n) // cfg.batch_size
    total_steps = cfg.baseline_epochs * n_batches
    step = 0
    for epoch in range(1, cfg.baseline_epochs + 1):
        t0 = time.perf_counter()
        loss_sum = 0.0
        for it, batch in enumerate(
                paired_minibatches(source, target_eval, cfg.batch_size, epoch, cfg.seed),
                start=1):
            lr = lr_schedule(cfg.lr0, step / total_steps if total_steps else 0.0)
            _, probs = forward(model, batch.xs)
            loss = log_loss(probs, one_hot(batch.ys, model.num_classes),
                            batch.xs.shape[0])
            value = loss.item()
            if not np.isfinite(value):
                err = NonFiniteLossError("source_ce", epoch, it, value)
                err.rows = history
                raise err
            sgd_step(model.params, backward(loss, model.params),
                     lr, cfg.momentum, cfg.weight_decay)
            step += 1
            loss_sum += value
        history.append(_eval_row(epoch, loss_sum / max(1, n_batches), model,
                                 source, target_eval, t0))

    return _result(model, history, source, target_eval)


def dann_losses(model: ClassifierModel, disc: DomainDiscriminator,
                xs, ys_onehot, xt) -> tuple[Tensor, Tensor]:
    """(source classification loss, domain classification loss).

    Domain labels: source = 0, target = 1, averaged over all 2B samples.
    The reversal layer scales the domain gradient into the extractor by
    ``-disc.grl_lambda``; the discriminator itself trains normally, so the
    extractor effectively descends class_loss - lambda * domain_loss while
    the discriminator descends domain_loss.
    """
    xs = np.asarray(xs, dtype=np.float64)
    b_s = xs.shape[0]
    x = np.concatenate([xs, np.asarray(xt, dtype=np.float64)])
    b = x.shape[0]
    # one extractor and one discriminator pass over the stacked [xs; xt]
    # rows; target rows carry zero class labels, so the class loss sees
    # only the source rows
    feats, logits = forward_logits(model, x)
    class_onehot = np.zeros((b, model.num_classes))
    class_onehot[:b_s] = ys_onehot
    class_loss = log_loss(softmax_t(logits, 1.0), class_onehot, b_s)

    dom = softmax_t(discriminator_logits(disc, grl(feats, disc.grl_lambda)), 1.0)
    dom_onehot = np.zeros((b, 2))
    dom_onehot[:b_s, 0] = 1.0
    dom_onehot[b_s:, 1] = 1.0
    domain_loss = log_loss(dom, dom_onehot, b)
    return class_loss, domain_loss


def dann_objective(model: ClassifierModel, disc: DomainDiscriminator,
                   xs, ys_onehot, xt) -> Tensor:
    """Combined scalar whose reverse-mode gradients drive both updates."""
    class_loss, domain_loss = dann_losses(model, disc, xs, ys_onehot, xt)
    return class_loss + domain_loss


def train_dann(cfg: TrainConfig, source: Dataset, target: Dataset) -> BaselineResult:
    """Adversarial baseline: one simultaneous SGD step per iteration over the
    extractor, classifier head and domain discriminator."""
    model = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
    disc = init_discriminator(model.feature_dim, _DISC_HIDDEN,
                              [cfg.seed, _DISC_STREAM], cfg.grl_lambda)
    history: list[MetricsRow] = []
    n_batches = max(source.n, target.n) // cfg.batch_size
    total_steps = cfg.baseline_epochs * n_batches
    step = 0
    for epoch in range(1, cfg.baseline_epochs + 1):
        t0 = time.perf_counter()
        loss_sum = 0.0
        for it, batch in enumerate(
                paired_minibatches(source, target, cfg.batch_size, epoch, cfg.seed),
                start=1):
            lr = lr_schedule(cfg.lr0, step / total_steps if total_steps else 0.0)
            loss = dann_objective(model, disc, batch.xs,
                                  one_hot(batch.ys, model.num_classes), batch.xt)
            value = loss.item()
            if not np.isfinite(value):
                err = NonFiniteLossError("dann", epoch, it, value)
                err.rows = history
                raise err
            grads_model, grads_disc = backward(loss, (model.params, disc.params))
            sgd_step(model.params, grads_model, lr, cfg.momentum, cfg.weight_decay)
            sgd_step(disc.params, grads_disc, lr, cfg.momentum, cfg.weight_decay)
            step += 1
            loss_sum += value
        history.append(_eval_row(epoch, loss_sum / max(1, n_batches), model,
                                 source, target, t0))

    return _result(model, history, source, target)


def train_baseline(cfg: TrainConfig, source: Dataset, target: Dataset) -> BaselineResult:
    """Dispatch on ``cfg.baseline``."""
    if cfg.baseline == "dann":
        return train_dann(cfg, source, target)
    if cfg.baseline == "source-only":
        return train_source_only(cfg, source, target)
    raise ValueError(f"unknown baseline {cfg.baseline!r}")
