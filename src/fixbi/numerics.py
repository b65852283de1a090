"""Dense float64 tensors with reverse-mode autodiff, momentum SGD and LR decay.

Graphs are built dynamically: each node is a :class:`Tensor` carrying
vector-Jacobian closures back to its inputs, and :func:`backward` replays
those closures in reverse topological order, writing parameter gradients
into their :class:`ParamSet`'s gradient vector (the first contribution to a
tensor is written, later ones are added). A network is one node
(:func:`mlp`); a loss is computed on plain arrays by value-and-VJP pieces
(:func:`log_loss_vjp`, :func:`softmax_vjp`) and enters the graph as one
node (:func:`loss_node`, or the :func:`log_loss` and :func:`softmax_t`
nodes that wrap the pieces).
"""
from __future__ import annotations

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


class Tensor:
    """A float64 array node in a dynamically built computation graph.

    ``data`` is stored row-major (C order). Leaves created with
    ``requires_grad=True`` are trainable; operation results record
    ``(parent, vjp)`` pairs consumed by :func:`backward`. A tensor of a
    :class:`ParamSet` has ``grad``, its view of the set's gradient vector;
    ``_fresh`` is set on it while a :func:`backward` walk over its set has
    not yet written it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_vjps", "_fresh")

    def __init__(self, values, requires_grad: bool = False,
                 _vjps: Iterable[tuple["Tensor", Callable[[Array], Array]]] = ()):
        self.data = _as_array(values)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._vjps = tuple(_vjps)
        self._fresh = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    @staticmethod
    def _make(data: Array, vjps) -> "Tensor":
        vjps = [(p, fn) for p, fn in vjps if p.requires_grad]
        return Tensor(data, requires_grad=bool(vjps), _vjps=vjps)


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


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
    the layer step of both :func:`mlp` and graph-free inference, whose
    values are therefore equal bit for bit."""
    out = h @ w
    out += b[..., None, :]
    return relu_inplace(out) if relu else out


def mlp(x, layers: Sequence[tuple[Tensor, Tensor]], relu_last: bool = False) -> Tensor:
    """Dense layers (:func:`_dense`) as one graph node, ``max(., 0)`` after
    each but the last (and the last too if ``relu_last``).

    ``layers`` holds (weight, bias) tensors of a :class:`ParamSet`, input
    side first. ``x`` is ``[..., B, in]``, each weight ``[..., in, out]`` and
    each bias ``[..., out]``, with the same leading axes on all (a stack of
    networks). Weights and biases are not graph parents: the reverse pass
    writes their gradients into their ``grad`` views (with ``out=`` while the
    walk has not yet reached them, else added), and computes an input
    gradient only when ``x`` requires one. Its ReLU mask is ``out > 0.0`` on
    the ReLU output, the bools of the product before it. Each layer runs the
    numpy operations of ``relu(affine(x, w, b))`` in ``tests/helpers.py``,
    so values and gradients are bit-identical to it.
    """
    x = as_tensor(x)
    h = x.data
    saved = []  # per layer: input, ReLU mask or None, weight values, w and b
    for i, (w, b) in enumerate(layers):
        wd, bd = w.data, b.data
        if (h.ndim < 2 or h.shape[:-2] + h.shape[-1:] != wd.shape[:-1]
                or bd.shape != wd.shape[:-2] + wd.shape[-1:]):
            raise ShapeError(f"mlp layer {i}: {h.shape} @ {wd.shape} + {bd.shape} do not chain")
        relu = relu_last or i < len(layers) - 1
        out = _dense(h, wd, bd, relu)
        saved.append((h, out > 0.0 if relu else None, wd, w, b))
        h = out

    def reverse(g: Array) -> Array | None:
        for i, (h_in, mask, wd, w, b) in reversed(list(enumerate(saved))):
            if mask is not None:
                g = g * mask
            _grad_into(w, np.matmul, h_in.swapaxes(-1, -2), g)
            _grad_into(b, np.add.reduce, g, axis=-2)
            g = g @ wd.swapaxes(-1, -2) if i or x.requires_grad else None
        return g

    return Tensor(h, requires_grad=True, _vjps=[(x, reverse)])


def _grad_into(t: Tensor, op, *args, **kwargs) -> None:
    """``op(*args, **kwargs)`` written into ``t.grad`` with ``out=`` while
    ``t`` is fresh (see :func:`backward`), else added into it."""
    if t._fresh:
        op(*args, out=t.grad, **kwargs)
        t._fresh = False
    else:
        t.grad += op(*args, **kwargs)


def log_loss_vjp(probs: Array, weights, n: int) -> tuple[Array, Callable[[Array], Array]]:
    """``-(1/n) * sum(weights * log(max(probs, LOG_CLAMP)))`` on plain arrays
    and its VJP, ``vjp(g)``: the gradient an upstream ``g`` gives ``probs``.

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
    mask = probs >= LOG_CLAMP
    clamped = np.maximum(probs, LOG_CLAMP)
    # each block summed as one flat run, the order of the 2-D call's .sum()
    total = (weights * np.log(clamped)).reshape(probs.shape[:-2] + (-1,)).sum(axis=-1) * scale
    return total, lambda g: ((np.multiply(g, scale)[..., None, None] * weights)
                             / clamped) * mask


def log_loss(probs: Tensor, weights, n: int) -> Tensor:
    """:func:`log_loss_vjp` as one graph node over ``probs``."""
    total, vjp = log_loss_vjp(probs.data, weights, n)
    return Tensor._make(np.asarray(total), [(probs, vjp)])


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
    T = 1 and ``vjp_log_t`` is None. Each block is bit-identical to the 2-D
    call on it.
    """
    tb = 1.0 if t is None else t[..., None]
    zc = z - z.max(axis=-1, keepdims=True)  # vjp_log_t reuses it
    e = np.exp(zc / tb)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp_z(g: Array) -> Array:
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - inner) / tb

    def vjp_log_t(g: Array) -> Array:
        # dy/dT = -y * (zc - sum_k y_k zc_k) / T^2 (shift-invariant in z), dT/dtheta = T
        m = (y * zc).sum(axis=-1, keepdims=True)
        terms = g * y * (zc - m)
        return -terms.reshape(z.shape[:-2] + (-1,)).sum(axis=-1, keepdims=True) / (t * t) * t

    return y, vjp_z, None if t is None else vjp_log_t


def softmax_t(logits, log_temperature: Tensor | None = None) -> Tensor:
    """:func:`softmax_vjp` as one graph node over ``logits`` and, if given,
    ``log_temperature``: a Tensor of shape ``[..., 1]`` (else a
    :class:`ShapeError`) whose T must be usable (else a ``ValueError``)."""
    z = as_tensor(logits)
    if z.data.ndim < 2 or z.data.shape[-1] < 2:
        raise ShapeError(f"softmax_t expects a [B x C] tensor with C >= 2, got {z.shape}")
    t = None
    if log_temperature is not None:
        lead = z.data.shape[:-2]
        if log_temperature.data.shape != lead + (1,):
            raise ShapeError(f"log-temperature tensor must have shape {lead + (1,)} "
                             f"for logits {z.shape}, got {log_temperature.shape}")
        t, usable = temperature(log_temperature.data)
        if not usable.all():
            raise ValueError(f"temperature must be positive and finite, got {t.ravel()}")
    y, vjp_z, vjp_log_t = softmax_vjp(z.data, t)
    return Tensor._make(y, [(z, vjp_z)] + ([(log_temperature, vjp_log_t)] if vjp_log_t else []))


def loss_node(value, grads: Sequence[tuple[Tensor, Array]]) -> Tensor:
    """A loss computed on plain arrays as one graph node: ``grads`` pairs
    each tensor it read with the gradient a unit upstream gives it, which the
    VJP scales by the upstream. ``value`` is a scalar, or one loss per
    leading index of every gradient (a per-model loss of a stack)."""
    return Tensor._make(np.asarray(value), [
        (p, lambda g, d=d: np.reshape(g, np.shape(g) + (1,) * (d.ndim - np.ndim(g))) * d)
        for p, d in grads])


def grl(x: Tensor, grl_lambda: float) -> Tensor:
    """Gradient reversal: identity forward, upstream gradient scaled by -lambda."""
    if grl_lambda < 0.0:
        raise ValueError(f"grl_lambda must be >= 0, got {grl_lambda}")
    x = as_tensor(x)
    return Tensor._make(x.data.copy(), [(x, lambda g: g * (-grl_lambda))])


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
    """Exact reverse-mode gradients of a scalar ``loss`` for every parameter
    of ``params``: the set's gradient vector, as the walk writes it.

    The walk first marks every tensor of ``params`` fresh. A network node
    (:func:`mlp`) writes a fresh weight's or bias's gradient into its
    ``grad`` view and adds into one it already wrote, so two applications
    of one network sum; a parameter reached as a graph leaf gets its leaf
    gradient the same way. After the walk the tensors it never reached are
    zeroed, and no tensor stays marked. The walk is a deterministic reverse
    topological order, so identical graphs give identical bits. The values
    are those of zeroing the vector and adding every contribution, except
    that a first-written -0.0 stays -0.0; :func:`sgd_step` forms
    ``weight_decay * w`` before adding the gradient, so the weights it
    computes do not depend on the sign of a zero gradient (see README).

    The result is the set's own buffer, not a copy: the next ``backward``
    over ``params`` overwrites it. A graph that also reaches another set's
    tensors adds into that set's vector, which only its own walk rewrites.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    tensors = params._params.values()
    for t in tensors:
        t._fresh = True
    try:
        _walk(loss)
    finally:
        for t in tensors:
            if t._fresh:
                t.grad.fill(0.0)
                t._fresh = False
    return params._grad


def _walk(loss: Tensor) -> None:
    """Replay the VJPs of ``loss``'s graph, handing each parameter its
    gradient as :func:`backward` describes."""

    # iterative post-order DFS over the loss's ancestry; every parent requires
    # gradients but a network's constant input, for which its reverse pass
    # returns None. Tensors key the visited set and gradient map by identity
    topo: list[Tensor] = []
    visited: set[Tensor] = {loss}
    stack: list[tuple[Tensor, int]] = [(loss, 0)]
    while stack:
        node, i = stack.pop()
        while i < len(node._vjps):
            parent = node._vjps[i][0]
            i += 1
            if parent not in visited:
                visited.add(parent)
                stack.append((node, i))
                stack.append((parent, 0))
                break
        else:
            topo.append(node)

    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:  # a network's constant input
            continue
        if node.grad is not None:
            _grad_into(node, np.positive, g)  # a parameter reached as a leaf
        for parent, vjp in node._vjps:
            contrib = vjp(g)
            if contrib is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + contrib
            else:
                grads[parent] = contrib


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
