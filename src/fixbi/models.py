"""Small classifier networks, the domain discriminator and the dual-model
ensemble rule, plus bit-exact text checkpoints.

A classifier is a ReLU MLP feature extractor, an affine head and a learnable
softmax temperature parameterized as ``T = exp(theta)`` so it stays positive.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import _read_text
from .numerics import Array, ParamSet, Tensor, _dense, mlp, softmax_vjp

LOG_TEMPERATURE = "log_temperature"

_INFER_ROWS = 64
"""Rows per block in inference. 64 rows is the stacked DANN
batch, and at the default widths a 64 x 64 @ 64 x 64 block stays on
OpenBLAS's single-thread path
(M*N*K <= 262,144). A whole-set product past that limit wakes a second BLAS
thread, which then spin-waits through the Python work that follows and
doubles the CPU time billed for a desk run."""


@dataclass
class ClassifierModel:
    """Feature extractor + classifier head + learnable temperature.

    ``widths`` are the extractor layer sizes (last entry is the feature
    dimension); an empty tuple means the extractor is the identity.
    """

    input_dim: int
    widths: tuple[int, ...]
    num_classes: int
    params: ParamSet

    @property
    def feature_dim(self) -> int:
        return self.widths[-1] if self.widths else self.input_dim


def _init_params(layout: dict[str, tuple[int, ...]], seed) -> ParamSet:
    """Fresh tensors of an ordered name -> shape layout, drawn in its order from ``seed``:
    each weight (2-D) uniform in +-1/sqrt(fan_in), every other tensor zeros."""
    rng = np.random.default_rng(seed)
    return ParamSet({name: rng.uniform(-(bound := 1.0 / np.sqrt(shape[0])), bound, size=shape)
                     if len(shape) == 2 else np.zeros(shape)
                     for name, shape in layout.items()})


def _layout(input_dim: int, widths: tuple[int, ...],
            num_classes: int) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map of a model's tensors: each extractor layer's weight
    and bias, input side first, then the head's, then the log-temperature. A
    width below 1 or fewer than 2 classes is a ``ValueError`` naming the weight."""
    layout: dict[str, tuple[int, ...]] = {}
    fan_in = input_dim
    for i, w in enumerate(widths):
        if w < 1:
            raise ValueError(f"'ext.w{i}': widths must be positive, got {w}")
        layout[f"ext.w{i}"], layout[f"ext.b{i}"] = (fan_in, w), (w,)
        fan_in = w
    if num_classes < 2:
        raise ValueError(f"'head.w': num_classes must be >= 2, got {num_classes}")
    return {**layout, "head.w": (fan_in, num_classes), "head.b": (num_classes,),
            LOG_TEMPERATURE: (1,)}


def init_model(input_dim: int, widths, num_classes: int, seed) -> ClassifierModel:
    """Fresh model: weights uniform in +-1/sqrt(fan_in), zero biases, T = 1."""
    widths = tuple(int(w) for w in widths)
    if not widths:
        raise ValueError("widths must be non-empty")
    return ClassifierModel(input_dim, widths, num_classes,
                           _init_params(_layout(input_dim, widths, num_classes), seed))


def stack_models(models) -> ClassifierModel:
    """One model holding the parameters of ``models`` (one architecture) on
    a leading model axis: ``ext.w{i}`` becomes ``[K x in x out]``, every
    other tensor ``[K x ...]`` of its per-model shape. The training forward
    takes a ``[K x B x in]`` input, one row block per model; inference takes
    ``[B x in]`` rows and returns ``[K x B x ...]``."""
    first = models[0]
    params = ParamSet({name: np.stack([m.params[name].data for m in models])
                       for name in first.params.names()})
    return ClassifierModel(first.input_dim, first.widths, first.num_classes, params)


def unstack_models(stacked: ClassifierModel) -> list[ClassifierModel]:
    """The models of :func:`stack_models`, each a copy of its slice with
    fresh optimizer state."""
    return [ClassifierModel(stacked.input_dim, stacked.widths, stacked.num_classes,
                            ParamSet({name: t.data[k] for name, t in stacked.params.items()}))
            for k in range(_model_axes(stacked)[0])]


def _model_axes(model: ClassifierModel) -> tuple[int, ...]:
    """Leading model axes of the parameters: () for one model, (K,) for a
    stack of K."""
    return model.params["head.w"].data.shape[:-2]


def _check_input(model: ClassifierModel, x: Array, lead: tuple[int, ...] = ()) -> None:
    if x.shape[:-2] != lead or x.ndim != len(lead) + 2 or x.shape[-1] != model.input_dim:
        want = " x ".join([*map(str, lead), "B", str(model.input_dim)])
        raise ValueError(f"expected input of shape [{want}], got {x.shape}")


def _layers(params: ParamSet, net: str, depth: int = 1) -> list[tuple[Tensor, Tensor]]:
    """``(net.w{i}, net.b{i})`` for i < ``depth``, input side first (the
    head's one layer is ``head.w``/``head.b``); built once per set."""
    if net not in params.lists:
        ids = [""] if net == "head" else range(depth)
        params.lists[net] = [(params[f"{net}.w{i}"], params[f"{net}.b{i}"]) for i in ids]
    return params.lists[net]


def extract_features(model: ClassifierModel, x) -> tuple[Array, Callable]:
    """(features, reverse) of the ReLU extractor stack (:func:`numerics.mlp`
    over a constant input); the identity when there are no layers.

    A stacked model (see :func:`stack_models`) takes one row block per model
    and runs every layer as one batched product."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(model, x, _model_axes(model))
    return mlp(x, _layers(model.params, "ext", len(model.widths)), relu_last=True,
               input_grad=False)


def forward_logits(model: ClassifierModel, x) -> tuple[Array, Array, Callable]:
    """(features, head logits, reverse). ``reverse(g_logits, g_features=None)``
    writes the head's and the extractor's gradients; ``g_features``, a
    gradient the features receive from elsewhere, is added to the head's."""
    feats, ext_reverse = extract_features(model, x)
    logits, head_reverse = mlp(feats, _layers(model.params, "head"))

    def reverse(g_logits: Array, g_features: Array | None = None) -> None:
        g = head_reverse(g_logits)
        ext_reverse(g if g_features is None else g + g_features)

    return feats, logits, reverse


def forward(model: ClassifierModel, x) -> tuple[Array, Array, Callable]:
    """(features, class probabilities at T = 1, reverse): ``reverse(g_probs)``
    runs the softmax's VJP, then :func:`forward_logits`'.

    The learnable temperature is applied only inside self-penalization,
    which computes its own tempered softmax from the logits.
    """
    feats, logits, reverse = forward_logits(model, x)
    probs, vjp_z, _ = softmax_vjp(logits)
    return feats, probs, lambda g_probs: reverse(vjp_z(g_probs))


def _infer(model: ClassifierModel, x, probs: bool) -> Array:
    """Features, or T = 1 probabilities when ``probs`` is set, of the rows
    of ``x`` in plain numpy, ``_INFER_ROWS`` rows at a time.

    Each layer is the :func:`numerics._dense` call that :func:`forward`
    runs, and the softmax is the one it takes at T = 1, so the values
    equal its output bit for bit; being row-wise, it runs once, on all
    blocks' logits. A stacked model runs every block through all its models
    in one batched product and returns ``[K x n x ...]``. A lone last row
    joins the block before it, because numpy sends a one-row product to
    gemv, which rounds differently from the gemm a batch of rows gets.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(model, x)
    layers = [(w.data, b.data, True) for w, b in _layers(model.params, "ext", len(model.widths))]
    if probs:
        layers += [(w.data, b.data, False) for w, b in _layers(model.params, "head")]
    n = x.shape[0]
    out = np.empty(_model_axes(model)
                   + (n, model.num_classes if probs else model.feature_dim))
    lo = 0
    while lo < n:
        hi = lo + _INFER_ROWS
        if n - hi <= 1:
            hi = n
        h = x[lo:hi]
        for w, b, relu in layers:
            h = _dense(h, w, b, relu)
        out[..., lo:hi, :] = h
        lo = hi
    return softmax_vjp(out)[0] if probs else out


def predict_probs(model: ClassifierModel, x) -> Array:
    """Probabilities at T = 1, computed without a reverse pass."""
    return _infer(model, x, probs=True)


def predict_features(model: ClassifierModel, x) -> Array:
    """Extractor features, computed without a reverse pass."""
    return _infer(model, x, probs=False)


def predict_labels(model: ClassifierModel, x) -> Array:
    """Argmax labels; ties break toward the lower class index."""
    return np.argmax(predict_probs(model, x), axis=1)


def ensemble_predict(sdm: ClassifierModel, tdm: ClassifierModel, x) -> Array:
    """Argmax of the summed softmax outputs of both models (low-index ties)."""
    if sdm.num_classes != tdm.num_classes:
        raise ValueError(
            f"models disagree on class count: {sdm.num_classes} vs {tdm.num_classes}")
    return ensemble_labels(predict_probs(sdm, x), predict_probs(tdm, x))


def ensemble_labels(p_sd: Array, p_td: Array) -> Array:
    """The ensemble rule on precomputed probabilities: argmax of their sum."""
    return np.argmax(p_sd + p_td, axis=1)


def accuracy(pred: Array, truth: Array) -> float:
    """Share of ``pred`` equal to ``truth``; 0.0 for an empty set."""
    return float(np.mean(pred == truth)) if truth.size else 0.0


@dataclass
class DomainDiscriminator:
    """Features -> 2 domain logits (source vs target) behind a reversal
    layer, which scales the features' gradient by ``-grl_lambda``."""

    params: ParamSet
    grl_lambda: float = 1.0

    def __post_init__(self):
        if not self.grl_lambda >= 0.0:
            raise ValueError(f"grl_lambda must be >= 0, got {self.grl_lambda}")


def init_discriminator(feature_dim: int, hidden: int, seed,
                       grl_lambda: float = 1.0) -> DomainDiscriminator:
    layout = {"disc.w0": (feature_dim, hidden), "disc.b0": (hidden,),
              "disc.w1": (hidden, 2), "disc.b1": (2,)}
    return DomainDiscriminator(_init_params(layout, seed), grl_lambda)


def discriminator_logits(disc: DomainDiscriminator, features: Array) -> tuple[Array, Callable]:
    """(logits, reverse) of the hidden ReLU layer and the logit layer;
    ``reverse`` returns the features' gradient, before the reversal."""
    return mlp(features, _layers(disc.params, "disc", 2))


class ThresholdRow(NamedTuple):
    """One dual iteration's adaptive gates, a ``threshold.csv`` row whose fields are the
    file's columns: each model's threshold and its count of target samples above it."""

    epoch: int
    iteration: int
    tau_sd: float
    tau_td: float
    n_above_sd: int
    n_above_td: int


@dataclass
class DualState:
    """The trained pair of models plus bookkeeping from the run:
    ``threshold_trace`` holds one :class:`ThresholdRow` per training
    iteration."""

    sdm: ClassifierModel
    tdm: ClassifierModel
    threshold_trace: list[ThresholdRow] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Checkpoint format (bit-exact text):
#   line 1: "FIXBI-CKPT v1"
#   per tensor: "name <name> shape <s1,s2,...>" then one line of
#   space-separated shortest round-trip decimals.
# ---------------------------------------------------------------------------

CKPT_MAGIC = "FIXBI-CKPT v1"
_CKPT_BLOCK = 16_384
"""Values of a tensor's line that :func:`save_checkpoint` formats at once:
the memory it holds is one block's strings, not the largest tensor's."""


def save_checkpoint(model: ClassifierModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CKPT_MAGIC + "\n")
        for name, t in model.params.items():
            dims = ",".join(str(s) for s in t.data.shape)
            fh.write(f"name {name} shape {dims}\n")
            values = t.data.reshape(-1)
            for lo in range(0, values.size, _CKPT_BLOCK):
                if lo:
                    fh.write(" ")
                fh.write(" ".join(map(repr, values[lo:lo + _CKPT_BLOCK].tolist())))
            fh.write("\n")


def load_checkpoint(path) -> ClassifierModel:
    """Read a checkpoint; every error is a ``ValueError`` that starts with
    ``path`` and names the line or the tensor at fault."""
    lines = _read_text(path, ValueError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a {CKPT_MAGIC} checkpoint")

    tensors: dict[str, Array] = {}
    i = 1
    while i < len(lines):
        head = lines[i].split()
        if len(head) != 4 or head[0] != "name" or head[2] != "shape":
            raise ValueError(f"{path}: bad tensor header at line {i + 1}: {lines[i]!r}")
        name = head[1]
        if i + 1 >= len(lines):
            raise ValueError(f"{path}: missing values for tensor {name!r}")
        try:
            shape = tuple(int(s) for s in head[3].split(","))
            values = np.array([float(v) for v in lines[i + 1].split()])
        except ValueError:
            raise ValueError(f"{path}: non-numeric shape or value for tensor "
                             f"{name!r} at line {i + 1}") from None
        if min(shape) < 0:
            raise ValueError(f"{path}: negative dimension in the shape at line {i + 1}")
        expected = int(np.prod(shape)) if shape else 1
        if values.size != expected:
            raise ValueError(
                f"{path}: tensor {name!r}: expected {expected} values, got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
        if name in tensors:
            raise ValueError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = values.reshape(shape)
        i += 2

    # the widths and class count are read off the 2-D weights; the rest must be the layout
    for name in [n for n in tensors if n == "head.w" or n.startswith("ext.w")]:
        if tensors[name].ndim != 2:
            raise ValueError(f"{path}: tensor {name!r} has rank {tensors[name].ndim}, not 2")
    widths: list[int] = []
    while f"ext.w{len(widths)}" in tensors:
        widths.append(tensors[f"ext.w{len(widths)}"].shape[-1])
    if "head.w" not in tensors:
        raise ValueError(f"{path}: checkpoint missing tensor 'head.w'")
    head_w = tensors["head.w"]
    input_dim = tensors["ext.w0"].shape[0] if widths else head_w.shape[0]
    try:  # init_model's rules: every width >= 1, at least 2 classes
        layout = _layout(input_dim, tuple(widths), head_w.shape[-1])
    except ValueError as exc:
        raise ValueError(f"{path}: tensor {exc}") from None
    for name in tensors:
        if name not in layout:
            raise ValueError(f"{path}: unexpected tensor {name!r}, not in the model's layout")
    for name, shape in layout.items():
        if name not in tensors:
            raise ValueError(f"{path}: checkpoint missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{tensors[name].shape}, expected {shape}")
    return ClassifierModel(input_dim, tuple(widths), head_w.shape[-1],
                           ParamSet({name: tensors[name] for name in layout}))
