"""Dense float64 tensors with hand-written reverse passes, momentum SGD and LR decay.

A network (:func:`mlp`) runs its forward on plain arrays and returns its
output and its reverse pass, which writes each layer's gradients into the
layer's :class:`ParamSet` gradient vector with ``out=``. A loss returns its
value and gradient on plain arrays (:func:`log_loss`; :func:`softmax_vjp` its
VJPs). A training step chains them in straight-line code and enters
:func:`backward` as one graph node (:func:`step_node`) whose VJP runs the
whole reverse, writing each gradient once.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

Array = np.ndarray

LOG_CLAMP = 1e-12
"""Floor applied to probabilities before every log inside a loss."""

_SGD_BLOCK = 32_768
"""Values per block of :func:`sgd_step`: 256 KB of each of the four vectors
it streams, so that a block's six passes stay in the core's cache."""


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


def _as_array(values) -> Array:
    return np.asarray(values, dtype=np.float64)


def check_size(*shape: int) -> None:
    """``MemoryError`` (numpy raises a ``ValueError``) when a float64 array of ``shape``
    passes numpy's limit of ``sys.maxsize`` bytes; counted in Python ints, allocating nothing."""
    if math.prod(map(int, shape)) * 8 > sys.maxsize:
        raise MemoryError(f"a {' x '.join(map(str, shape))} float64 array passes "
                          f"numpy's limit of {sys.maxsize} bytes")


class Tensor:
    """A float64 array: a parameter of a :class:`ParamSet` or a training
    step's node (:func:`step_node`).

    ``data`` is stored row-major (C order). A parameter has
    ``requires_grad`` set and ``grad``, its view of the set's gradient
    vector. A step's node records one ``(input, vjp)`` pair.
    """

    __slots__ = ("data", "requires_grad", "grad", "_vjps")

    def __init__(self, values, requires_grad: bool = False,
                 _vjps: Iterable[tuple["Tensor", Callable[[Array], Array]]] = ()):
        self.data = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._vjps = tuple(_vjps)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


def relu_inplace(a: Array) -> Array:
    """``max(a, 0)`` written into ``a``, which it returns: bit-identical to
    ``np.where(a > 0.0, a, 0.0)`` for every float64 input, at a fraction of
    its cost (no new array, no three-operand broadcast).

    ``fmax`` returns the non-NaN operand, so NaN gives +0.0 as ``where`` does;
    IEEE leaves the sign of ``fmax(-0.0, +0.0)`` open (numpy's vector and
    scalar loops differ), and adding +0.0 turns a -0.0 into +0.0 while
    leaving every other value as it is. ``np.maximum`` would pass NaN on.
    """
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a


def _dense(h: Array, w: Array, b: Array, relu: bool) -> Array:
    """``h @ w + b`` on plain arrays, then :func:`relu_inplace` if ``relu``:
    the layer step of both :func:`mlp` and inference, whose
    values are therefore equal bit for bit."""
    out = h @ w
    out += b[..., None, :]
    return relu_inplace(out) if relu else out


def mlp(x: Array, layers: Sequence[tuple[Tensor, Tensor]], relu_last: bool = False,
        input_grad: bool = True) -> tuple[Array, Callable[[Array], Array | None]]:
    """Dense layers (:func:`_dense`), ``max(., 0)`` after each but the last
    (and the last too if ``relu_last``): ``(out, reverse)``.

    ``layers`` holds (weight, bias) tensors of a :class:`ParamSet`, input
    side first. ``x`` is ``[..., B, in]``, each weight ``[..., in, out]`` and
    each bias ``[..., out]``, with the same leading axes on all (a stack of
    networks). ``reverse(g)`` takes the gradient of ``out`` and writes each
    layer's gradients into its ``grad`` views with ``out=``; it returns the
    gradient of ``x``, or None without ``input_grad`` (no layers: the
    identity, whose input gradient is ``g``). Its ReLU mask is ``out > 0.0``
    on the ReLU output, the bools of the product before it. Each layer runs the numpy
    operations of ``relu(affine(x, w, b))`` in ``tests/helpers.py``, so
    values and gradients are bit-identical to it.
    """
    h = x
    saved = []  # per layer, last first: input, ReLU mask or None, wd, w, b, grad_in
    for i, (w, b) in enumerate(layers):
        wd, bd = w.data, b.data
        if (h.ndim < 2 or h.shape[:-2] + h.shape[-1:] != wd.shape[:-1]
                or bd.shape != wd.shape[:-2] + wd.shape[-1:]):
            raise ShapeError(f"mlp layer {i}: {h.shape} @ {wd.shape} + {bd.shape} do not chain")
        relu = relu_last or i < len(layers) - 1
        out = _dense(h, wd, bd, relu)
        saved.insert(0, (h, out > 0.0 if relu else None, wd, w, b, i > 0 or input_grad))
        h = out

    def reverse(g: Array) -> Array | None:
        for h_in, mask, wd, w, b, grad_in in saved:
            if mask is not None:
                g = g * mask
            np.matmul(h_in.swapaxes(-1, -2), g, out=w.grad)
            np.add.reduce(g, axis=-2, out=b.grad)
            g = g @ wd.swapaxes(-1, -2) if grad_in else None
        return g

    return h, reverse


def log_loss(probs: Array, weights, n: int) -> tuple[Array, Array]:
    """``-(1/n) * sum(weights * log(max(probs, LOG_CLAMP)))`` on plain arrays
    and its gradient with respect to ``probs``.

    ``weights`` is a constant array of ``probs``' shape (one-hot targets,
    label mixtures or gate masks). ``probs`` ``[B x C]`` gives a scalar; a
    stack ``[..., B x C]`` one loss per leading index, each bit-identical in
    value and gradient to the 2-D call on its block. The arithmetic runs in
    the order of the ``clamp_min -> log -> mul -> sum -> mul`` chain of
    ``tests/helpers.py``, so both are bit-identical to it too.
    """
    weights = _as_array(weights)
    if weights.shape != probs.shape:
        raise ShapeError(f"log_loss weights {weights.shape} != probs {probs.shape}")
    if probs.ndim < 2:
        raise ShapeError(f"log_loss needs [..., B, C] probabilities, got {probs.shape}")
    scale = -1.0 / n
    clamped = np.maximum(probs, LOG_CLAMP)
    # each block summed as one flat run, the order of the 2-D call's .sum()
    total = (weights * np.log(clamped)).reshape(probs.shape[:-2] + (-1,)).sum(axis=-1) * scale
    return total, ((scale * weights) / clamped) * (probs >= LOG_CLAMP)


def temperature(log_temperature: Array) -> tuple[Array, Array]:
    """``T = exp(log_temperature)`` and where it is usable: positive and
    finite (not NaN, nor an exp that under- or overflows)."""
    with np.errstate(over="ignore"):  # an overflow to inf is flagged instead
        t = np.exp(log_temperature)
    return t, (t > 0.0) & (t < np.inf)


def softmax_vjp(z: Array, t: Array | None = None):
    """``(y, vjp_z, vjp_log_t)``: the row softmax of ``z / T`` with
    max-subtraction, on plain arrays, and the gradients an upstream ``g`` on
    ``y`` gives ``z`` and ``log T``.

    ``z`` is ``[B x C]`` or a stack ``[..., B, C]``, one block per model; ``t``
    holds a usable temperature per block, shape ``[..., 1]``. Without it
    T = 1 (no division: ``x / 1.0`` is ``x``) and ``vjp_log_t`` is None.
    Each block is bit-identical to the 2-D call on it.
    """
    zc = z - z.max(axis=-1, keepdims=True)  # vjp_log_t reuses it
    e = np.exp(zc if t is None else zc / t[..., None])
    y = e / np.add.reduce(e, axis=-1, keepdims=True)  # e.sum(...), unwrapped

    def vjp_z(g: Array) -> Array:
        inner = np.add.reduce(g * y, axis=-1, keepdims=True)
        return y * (g - inner) if t is None else y * (g - inner) / t[..., None]

    def vjp_log_t(g: Array) -> Array:
        # dy/dT = -y * (zc - sum_k y_k zc_k) / T^2 (shift-invariant in z), dT/dtheta = T
        m = (y * zc).sum(axis=-1, keepdims=True)
        terms = g * y * (zc - m)
        return -terms.reshape(z.shape[:-2] + (-1,)).sum(axis=-1, keepdims=True) / (t * t) * t

    return y, vjp_z, None if t is None else vjp_log_t


def step_node(value, x: Array, reverse: Callable[[], object]) -> Tensor:
    """A training step's scalar objective ``value`` as one graph node over
    its input batch ``x``, for :func:`backward`. ``reverse()`` runs the
    step's whole reverse pass, writing each gradient it trains once; the
    node is the root of its graph, so its VJP is ``reverse`` at the unit
    upstream."""
    return Tensor(value, _vjps=[(Tensor(x), lambda g: reverse())])


class ParamSet:
    """Named trainable tensors over one flat float64 value vector, plus a
    gradient and an SGD momentum vector of the same layout and one
    :func:`sgd_step` block of scratch space.

    ``ParamSet(tensors)`` copies a name -> values mapping into the vectors in
    one allocation each. Each tensor's ``data`` is a view into the value
    vector and its ``grad`` into the gradient vector, so :func:`backward`
    writes each tensor's gradient in place and :func:`sgd_step` updates the
    whole vectors block by block. Code that changes a parameter writes into
    its ``data`` (``t.data[...] = x``); rebinding ``t.data`` detaches the
    tensor from the vector, and ``sgd_step`` rejects it. Iteration order is
    the mapping's order, which is also the layout of the vectors and keeps
    training and checkpointing deterministic.
    """

    def __init__(self, tensors: Mapping[str, object]):
        arrays = [_as_array(v) for v in tensors.values()]
        size = sum(a.size for a in arrays)
        self._values = np.empty(size)
        self._grad = np.zeros(size)
        self._momentum = np.zeros(size)
        scratch = np.empty(min(size, _SGD_BLOCK))
        # sgd_step's blocks: a slice of the layout, its views of the value and
        # momentum vectors, and the scratch space it works in
        self._blocks = [(slice(lo, lo + _SGD_BLOCK), self._values[lo:lo + _SGD_BLOCK],
                         self._momentum[lo:lo + _SGD_BLOCK],
                         scratch[:min(_SGD_BLOCK, size - lo)])
                        for lo in range(0, size, _SGD_BLOCK)]
        self._params: dict[str, Tensor] = {}
        self._momenta: dict[str, Array] = {}    # each tensor's view of _momentum
        self.lists: dict[str, list] = {}  # network name -> its (weight, bias) list
        lo = 0
        for name, a in zip(tensors, arrays):
            hi = lo + a.size
            t = Tensor(self._values[lo:hi].reshape(a.shape), requires_grad=True)
            t.data[...] = a
            t.grad = self._grad[lo:hi].reshape(a.shape)
            self._params[name] = t
            self._momenta[name] = self._momentum[lo:hi].reshape(a.shape)
            lo = hi

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def momentum(self, name: str) -> Array:
        """The momentum of ``name``: a view into the set's momentum vector."""
        return self._momenta[name]


def backward(loss: Tensor, params: ParamSet) -> Array:
    """Run the reverse of a step's scalar ``loss`` (a :func:`step_node`),
    which writes each gradient of the set it trains once, with ``out=``; a
    VJP that returns its input's gradient is a :class:`ShapeError`. Returns
    ``params``' own gradient vector, not a copy. A tensor the reverse never
    writes keeps its contents: in every trainer only the baselines'
    ``log_temperature``, which keeps the zeros :class:`ParamSet` starts with.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    for _, vjp in loss._vjps:
        if vjp(1.0) is not None:
            raise ShapeError("backward: the loss's VJP returned its input's gradient; "
                             "a step_node's reverse writes every gradient itself")
    return params._grad


def sgd_step(params: ParamSet, grads: Array, lr: float,
             momentum: float = 0.0, weight_decay: float = 0.0) -> ParamSet:
    """Momentum SGD with coupled weight decay, applied in place.

    For each parameter: ``v <- momentum*v + (g + weight_decay*w)`` then
    ``w <- w - lr*v``, run as six in-place operations on the set's vectors,
    one block of ``_SGD_BLOCK`` values after another; ``grads`` is a vector
    of their layout, as :func:`backward` returns it. Each element goes
    through the per-tensor arithmetic in its order (``g + tmp`` commutes),
    so the result is bit-identical to a loop over the tensors. Every check
    runs before the first write. Returns the set.
    """
    if not lr > 0.0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
    w = params._values
    if grads.shape != w.shape:
        raise ShapeError(f"gradient vector shape {grads.shape} != the set's {w.shape}")
    for name, t in params.items():
        if t.data.base is not w:
            raise ValueError(f"parameter {name!r} no longer views its set's value "
                             "vector: its .data was rebound instead of written in place")
    for block, wb, vb, tb in params._blocks:
        vb *= momentum
        np.multiply(weight_decay, wb, out=tb)
        tb += grads[block]
        vb += tb
        np.multiply(lr, vb, out=tb)
        wb -= tb
    return params


def lr_schedule(lr0: float, progress: float) -> float:
    """Inverse-decay learning rate ``lr0 / (1 + 10 p)^0.75`` for ``p`` in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return lr0 / (1.0 + 10.0 * progress) ** 0.75
