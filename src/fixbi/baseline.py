"""Pretraining baselines: plain source-only cross-entropy and a small
domain-adversarial network (gradient reversal into a domain discriminator).

Either one supplies the pretrained weights the dual-model procedure starts
from, and their target accuracies anchor the adaptation comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .config import TrainConfig, validate_config
from .core import train_epochs
from .data import (Dataset, PairedBatch, batches_per_epoch, one_hot, one_hot_table,
                   paired_minibatches)
from .models import (ClassifierModel, DomainDiscriminator, accuracy,
                     discriminator_logits, forward, forward_logits,
                     init_discriminator, init_model, predict_labels)
from .numerics import ParamSet, Tensor, log_loss, softmax_vjp, step_node

_DISC_STREAM = 1  # rng namespace for discriminator init
_DISC_HIDDEN = 32


class BaselineRow(NamedTuple):
    """One completed pretraining epoch; the fields are baseline.csv's columns."""

    epoch: int
    loss: float      # mean over the epoch's batches
    acc_src: float
    acc_tgt: float


@dataclass
class BaselineResult:
    model: ClassifierModel
    source_acc: float
    target_acc: float
    history: list[BaselineRow] = field(default_factory=list)


def _accuracies(model: ClassifierModel, source: Dataset,
                target: Dataset) -> tuple[float, float]:
    """(source accuracy, target accuracy) on the full sets."""
    return (accuracy(predict_labels(model, source.features), source.eval_labels()),
            accuracy(predict_labels(model, target.features), target.eval_labels()))


def _train(cfg: TrainConfig, source: Dataset, target: Dataset, model: ClassifierModel,
           step: Callable[..., tuple[Tensor, dict[str, float]]]) -> BaselineResult:
    """Both baselines' :func:`core.train_epochs` run, one history row per epoch."""
    def epoch_row(epoch, means):
        return BaselineRow(epoch, *means.values(), *_accuracies(model, source, target))

    # fetched here, as the benchmark's tracer names an iteration by its caller
    history = train_epochs(
        cfg, cfg.baseline_epochs, model.params, batches_per_epoch(source, target, cfg.batch_size),
        lambda epoch: paired_minibatches(source, target, cfg.batch_size, epoch, cfg.seed),
        step, epoch_row)
    # the last epoch's row already holds the returned model's accuracies
    accs = ((history[-1].acc_src, history[-1].acc_tgt) if history
            else _accuracies(model, source, target))
    return BaselineResult(model, *accs, history)


def train_source_only(cfg: TrainConfig, source: Dataset,
                      target_eval: Dataset) -> BaselineResult:
    """Cross-entropy on labeled source only; the lower anchor for adaptation.

    Consumes the same paired batch stream as :func:`train_dann` (ignoring the
    target half) so the two trainers are step-for-step comparable.
    """
    validate_config(cfg)
    model = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
    eye = one_hot_table(source, model.num_classes)

    def step(batch: PairedBatch, *_) -> tuple[Tensor, dict[str, float]]:
        _, probs, reverse = forward(model, batch.xs)
        value, g = log_loss(probs, eye[batch.ys], batch.xs.shape[0])
        return step_node(value, batch.xs, lambda: reverse(g)), {"source_ce": float(value)}

    return _train(cfg, source, target_eval, model, step)


@lru_cache(maxsize=8)
def _domain_labels(b: int, b_s: int) -> np.ndarray:
    """A DANN step's read-only domain one-hot table, built once per shape."""
    table = one_hot(np.arange(b) >= b_s, 2)
    table.flags.writeable = False
    return table


def dann_objective(model: ClassifierModel, disc: DomainDiscriminator,
                   xs, ys_onehot, xt) -> tuple[Tensor, float, float]:
    """(objective, class loss, domain loss) of one DANN step: the objective
    is the sum of the losses as one node over the stacked input, whose
    gradients drive both updates. Domain labels: source = 0, target = 1,
    averaged over all 2B samples. The reversal layer scales the domain
    gradient into the extractor by ``-disc.grl_lambda``, so the extractor
    effectively descends class_loss - lambda * domain_loss while the
    discriminator descends domain_loss.
    """
    xs = np.asarray(xs, dtype=np.float64)
    b_s = xs.shape[0]
    x = np.concatenate([xs, np.asarray(xt, dtype=np.float64)])
    b = x.shape[0]
    # one extractor and one discriminator pass over the stacked [xs; xt]
    # rows; target rows carry zero class labels, so the class loss sees
    # only the source rows
    feats, logits, reverse = forward_logits(model, x)
    d_logits, d_reverse = discriminator_logits(disc, feats)
    class_onehot = np.zeros((b, model.num_classes))
    class_onehot[:b_s] = ys_onehot
    losses, grads = [], []
    for z, labels, n in ((logits, class_onehot, b_s),
                         (d_logits, _domain_labels(b, b_s), b)):
        probs, vjp_z, _ = softmax_vjp(z)
        value, g = log_loss(probs, labels, n)
        losses.append(value)
        grads.append(vjp_z(g))
    g_class, g_domain = grads
    return step_node(losses[0] + losses[1], x, lambda: reverse(
        g_class, d_reverse(g_domain) * (-disc.grl_lambda))), *losses


def train_dann(cfg: TrainConfig, source: Dataset, target: Dataset) -> BaselineResult:
    """Adversarial baseline: one simultaneous SGD step per iteration over the
    extractor, classifier head and domain discriminator.

    The classifier and the discriminator train as one parameter set (their
    names are disjoint); the returned model holds a copy of the classifier's
    own tensors, with fresh optimizer state.
    """
    validate_config(cfg)
    model = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
    eye = one_hot_table(source, model.num_classes)
    disc = init_discriminator(model.feature_dim, _DISC_HIDDEN,
                              [cfg.seed, _DISC_STREAM], cfg.grl_lambda)
    names = model.params.names()
    model.params = disc.params = ParamSet(
        {name: t.data for ps in (model.params, disc.params) for name, t in ps.items()})

    def step(batch: PairedBatch, *_) -> tuple[Tensor, dict[str, float]]:
        loss = dann_objective(model, disc, batch.xs, eye[batch.ys], batch.xt)[0]
        return loss, {"dann": loss.item()}

    result = _train(cfg, source, target, model, step)
    result.model = replace(model, params=ParamSet(
        {name: model.params[name].data for name in names}))
    return result


def train_baseline(cfg: TrainConfig, source: Dataset, target: Dataset) -> BaselineResult:
    """Dispatch on ``cfg.baseline``."""
    if cfg.baseline == "dann":
        return train_dann(cfg, source, target)
    if cfg.baseline == "source-only":
        return train_source_only(cfg, source, target)
    raise ValueError(f"unknown baseline {cfg.baseline!r}")
