"""Shared test utilities: the composed autodiff reference with its own
graph walk, the networks and loss functions as graph nodes, a
finite-difference gradient oracle, the serial features.csv writer, hooks
into the split one, and small randomized model/batch factories."""
from __future__ import annotations

import os
from functools import reduce

import numpy as np
import pytest

from fixbi import harness, numerics
from fixbi.core import adaptive_threshold, loss_bim, loss_cr, loss_fm, loss_sp, mixup
from fixbi.data import Dataset, one_hot
from fixbi.models import (ClassifierModel, DualState, _layers, discriminator_logits,
                          extract_features, init_model, predict_features)
from fixbi.numerics import (LOG_CLAMP, Array, ParamSet, ShapeError, Tensor, backward, mlp,
                            softmax_vjp, temperature)

# -- the composed reference --------------------------------------------------
# A general graph of Tensor nodes, each carrying VJP closures back to its
# parents, and a walk that replays them in reverse topological order. Each
# layer of ``numerics.mlp`` must match ``relu(affine(x, w, b))``,
# ``numerics.log_loss`` the ``clamp_min -> log -> mul -> sum -> mul``
# chain and each trainer's step node the graph of networks, slices, sums and
# products below (:func:`composed_dual_loss`) bit for bit, in values and
# gradients; they run the same numpy operations as these.
#
# Only this reference applies one network twice or reaches two sets under one
# loss, so accumulation lives here: a walk writes the first contribution to
# each tensor of the set it computes (as a production step writes every
# gradient once, -0.0 included) and adds every later one, and every
# contribution to another set's tensors.

_unwritten: set[Tensor] = set()
"""The tensors the current walk writes on their next contribution."""


def _contribute(tensors, write):
    """``write()``, which writes the gradients of ``tensors`` with ``out=``,
    as one contribution to each: kept as written for a tensor the walk has
    not written yet (see :func:`walk`), else added to what it held before.
    Returns what ``write`` returns."""
    added = [(t, t.grad.copy()) for t in tensors if t not in _unwritten]
    _unwritten.difference_update(tensors)
    result = write()
    for t, before in added:
        t.grad += before
    return result


def make(data: Array, vjps) -> Tensor:
    """A graph node over those parents of ``vjps`` that need gradients."""
    vjps = [(p, fn) for p, fn in vjps if p.requires_grad]
    return Tensor(data, requires_grad=bool(vjps), _vjps=vjps)


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def walk(loss: Tensor, unwritten=()) -> None:
    """Replay the VJPs of ``loss``'s graph from a unit upstream, writing the
    first contribution to each tensor of ``unwritten`` and adding the rest
    (:func:`_contribute`)."""
    _unwritten.clear()
    _unwritten.update(unwritten)

    # iterative post-order DFS over the loss's ancestry; every parent requires
    # gradients but a network's or a step's constant input, for which its
    # reverse pass returns None. Tensors key the visited set and gradient map
    # by identity
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
        if g is None:  # a network's or a step's constant input
            continue
        if node.grad is not None:  # a parameter reached as a leaf
            _contribute([node], lambda: np.positive(g, out=node.grad))
        for parent, vjp in node._vjps:
            contrib = vjp(g)
            if contrib is None:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + contrib
            else:
                grads[parent] = contrib


def graph_backward(loss: Tensor, params: ParamSet) -> Array:
    """``numerics.backward`` over a composed graph, which enters it as one
    node whose VJP zero-fills ``params``' gradient vector and walks the graph
    (:func:`walk`), writing each tensor of the set first; a step node's graph
    is that node alone. A tensor the walk never reaches reads zero."""
    def vjp(g):
        params._grad.fill(0.0)
        walk(loss, [t for _, t in params.items()])

    return backward(Tensor(loss.data, _vjps=[(loss, vjp)]), params)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    """``a + b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    return make(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def sub(a, b) -> Tensor:
    """``a - b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    return make(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    """``a * b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data  # capture forward-time values
    return make(ad * bd, [
        (a, lambda g: _unbroadcast(g * bd, ad.shape)),
        (b, lambda g: _unbroadcast(g * ad, bd.shape)),
    ])


def total(x) -> Tensor:
    """The sum of every entry, a scalar."""
    x = as_tensor(x)
    shape = x.data.shape
    return make(np.asarray(x.data.sum()), [(x, lambda g: np.full(shape, g))])


def dot(x, w) -> Tensor:
    """``sum(x * w)``: a linear functional of ``x``, the usual test loss."""
    return total(mul(x, w))


def take(x, index) -> Tensor:
    """``x[index]`` for a basic index (integers and slices); its VJP writes
    the upstream gradient into zeros of ``x``'s shape."""
    x = as_tensor(x)
    xd = x.data

    def vjp(g: Array) -> Array:
        out = np.zeros(xd.shape)
        out[index] = g
        return out

    return make(xd[index], [(x, vjp)])


def matmul(a, b) -> Tensor:
    """``a @ b`` of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    return make(ad @ bd, [
        (a, lambda g: g @ bd.T),
        (b, lambda g: ad.T @ g),
    ])


def affine(x, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` with the bias broadcast over rows."""
    return add(matmul(x, w), b)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return make(np.where(mask, x.data, 0.0), [(x, lambda g: g * mask)])


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise ``max(x, lo)``; gradient passes where ``x >= lo``."""
    mask = x.data >= lo
    return make(np.maximum(x.data, lo), [(x, lambda g: g * mask)])


def log(x: Tensor) -> Tensor:
    """Raw elementwise log; callers guard the domain with :func:`clamp_min`."""
    xd = x.data
    return make(np.log(xd), [(x, lambda g: g / xd)])


def mean(x: Tensor) -> Tensor:
    return mul(total(x), 1.0 / x.data.size)


def squared_l2(x) -> Tensor:
    """Sum of squared entries."""
    x = as_tensor(x)
    return total(mul(x, x))


def composed_cr(p: Tensor, q: Tensor) -> Tensor:
    """Consistency regularization as the composed graph builds it."""
    d = sub(p, q)
    return mul(total(mul(d, d)), 1.0 / p.data.shape[0])


def grl(x: Tensor, grl_lambda: float) -> Tensor:
    """Gradient reversal: identity forward, upstream gradient scaled by -lambda."""
    if grl_lambda < 0.0:
        raise ValueError(f"grl_lambda must be >= 0, got {grl_lambda}")
    x = as_tensor(x)
    return make(x.data.copy(), [(x, lambda g: g * (-grl_lambda))])


def softmax_t(logits, log_temperature: Tensor | None = None) -> Tensor:
    """``numerics.softmax_vjp`` as one graph node over ``logits`` and, if
    given, ``log_temperature``: a Tensor of shape ``[..., 1]`` (else a
    ``ShapeError``) whose T must be usable (else a ``ValueError``)."""
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
    return make(y, [(z, vjp_z)] + ([(log_temperature, vjp_log_t)] if vjp_log_t else []))


def log_loss(probs: Tensor, weights, n: int) -> Tensor:
    """``numerics.log_loss``'s value as one graph node over ``probs``, whose
    VJP takes any upstream ``g``, one per loss of a stack; at ``g = 1`` it
    runs the numpy operations of ``numerics.log_loss``' gradient."""
    value, _ = numerics.log_loss(probs.data, weights, n)
    weights, scale = np.asarray(weights, dtype=np.float64), -1.0 / n
    clamped, mask = np.maximum(probs.data, LOG_CLAMP), probs.data >= LOG_CLAMP
    return make(np.asarray(value), [(probs, lambda g: (
        (np.multiply(g, scale)[..., None, None] * weights) / clamped) * mask)])


def loss_node(value, grads) -> Tensor:
    """A loss computed on plain arrays as one graph node: ``grads`` pairs
    each tensor it read with the gradient a unit upstream gives it, which the
    VJP scales by the upstream. ``value`` is a scalar, or one loss per
    leading index of every gradient (a per-model loss of a stack)."""
    return make(np.asarray(value), [
        (p, lambda g, d=d: np.reshape(g, np.shape(g) + (1,) * (d.ndim - np.ndim(g))) * d)
        for p, d in grads])


# -- the networks as graph nodes ---------------------------------------------
# Each network returns its output and its reverse pass; these put one in a
# graph as one node over its input. Its weights are not graph parents: the
# reverse pass writes their gradients itself, as one contribution to each
# (:func:`_contribute`).


def network_node(out: Array, reverse, x: Tensor, layers) -> Tensor:
    """A network's output as one node over ``x``, whose VJP runs
    ``reverse`` over ``layers``' (weight, bias) tensors."""
    tensors = [t for layer in layers for t in layer]
    return Tensor(out, requires_grad=True,
                  _vjps=[(x, lambda g: _contribute(tensors, lambda: reverse(g)))])


def mlp_node(x, layers, relu_last: bool = False) -> Tensor:
    """``numerics.mlp`` as one node; it returns an input gradient only when
    ``x`` requires one."""
    x = as_tensor(x)
    out, reverse = mlp(x.data, layers, relu_last, input_grad=x.requires_grad)
    return network_node(out, reverse, x, layers)


def features_node(model: ClassifierModel, x) -> Tensor:
    """``models.extract_features`` on a constant input as one node."""
    x = as_tensor(x)
    feats, reverse = extract_features(model, x.data)
    return network_node(feats, reverse, x, _layers(model.params, "ext", len(model.widths)))


def network(model: ClassifierModel, x) -> tuple[Tensor, Tensor]:
    """(features, logits) of ``model`` on ``x``: one node for the extractor,
    one for the head."""
    feats = features_node(model, x)
    return feats, mlp_node(feats, [(model.params["head.w"], model.params["head.b"])])


def disc_node(disc, features: Tensor) -> Tensor:
    """``models.discriminator_logits`` as one node over ``features``."""
    logits, reverse = discriminator_logits(disc, features.data)
    return network_node(logits, reverse, features, _layers(disc.params, "disc", 2))


def composed_dual_loss(cfg, pair: ClassifierModel, x: Array, batch, matching: bool,
                       frozen=None):
    """``(objective, gate)`` of one dual step on the stacked input ``x`` of
    ``batch``, built as a composed graph: one ``take`` per slice a loss
    reads, one log-loss node per loss kind, ``1 - p`` for self-penalization,
    the per-model terms added and summed, then ``cr`` added; ``bim`` and
    ``cr`` join only when ``matching``. ``frozen`` is the frozen baseline's
    one-hot table of the whole target set, tiled over both models."""
    b = batch.xt.shape[0]
    t_rows, mix_rows, half_rows = slice(0, b), slice(b, 2 * b), slice(2 * b, 3 * b)
    both = slice(None)
    logits = network(pair, x)[1]
    probs = softmax_t(logits)
    target_probs = probs.data[:, t_rows]
    stats = adaptive_threshold(target_probs.max(axis=-1))
    hot = one_hot(np.argmax(target_probs, axis=-1), pair.num_classes)
    labels_hot = hot if frozen is None else frozen[:, batch.target_rows]
    ys_hot = one_hot(batch.ys, pair.num_classes)
    y_mix = np.stack([mixup(ys_hot, labels_k, lam)
                      for labels_k, lam in zip(labels_hot, (cfg.lambda_sd, cfg.lambda_td))])
    terms = [log_loss(take(probs, (both, mix_rows)), y_mix, b)]
    if cfg.loss_sp:
        tempered = softmax_t(take(logits, (both, t_rows)), pair.params["log_temperature"])
        terms.append(log_loss(sub(1.0, tempered), hot * stats.below[..., None], b))
    if cfg.loss_bim and matching:
        terms.append(log_loss(take(probs, (both, t_rows)),
                              (hot * stats.above[..., None])[::-1], b))
    loss = total(reduce(add, terms))
    if cfg.loss_cr and matching:
        loss = add(loss, composed_cr(take(probs, (0, half_rows)), take(probs, (1, half_rows))))
    return loss, stats


def composed_dann_loss(model: ClassifierModel, disc, xs: Array, ys_hot: Array,
                       xt: Array) -> Tensor:
    """One DANN step's objective on the stacked ``[xs; xt]`` rows as a
    composed graph: the extractor and head nodes, a reversal node into the
    discriminator node, and a log-loss node per softmax, added."""
    b_s, x = xs.shape[0], np.concatenate([xs, xt])
    feats, logits = network(model, x)
    class_hot = np.zeros((x.shape[0], model.num_classes))
    class_hot[:b_s] = ys_hot
    domain = disc_node(disc, grl(feats, disc.grl_lambda))
    return add(log_loss(softmax_t(logits), class_hot, b_s),
               log_loss(softmax_t(domain), one_hot(np.arange(x.shape[0]) >= b_s, 2),
                        x.shape[0]))


# -- the loss functions as graph nodes ---------------------------------------
# ``core.loss_*`` return values and gradients; these put each call in a
# graph as one node over the tensors it reads, for gradient checks.


def fm_node(probs: Tensor, y_mix) -> Tensor:
    value, grad = loss_fm(probs.data, y_mix)
    return loss_node(value, [(probs, grad)])


def bim_node(student_probs: Tensor, teacher_hot) -> Tensor:
    value, grad = loss_bim(student_probs.data, teacher_hot)
    return loss_node(value, [(student_probs, grad)])


def sp_node(logits: Tensor, log_temperature: Tensor, own_hot) -> Tensor:
    value, g_z, g_log_t = loss_sp(logits.data, temperature(log_temperature.data)[0],
                                  own_hot)
    return loss_node(value, [(logits, g_z), (log_temperature, g_log_t)])


def cr_node(p: Tensor, q: Tensor) -> Tensor:
    value, grad = loss_cr(p.data, q.data)
    return loss_node(value, [(p, grad), (q, -grad)])


# -- parameter sets ----------------------------------------------------------

def value_bytes(params: ParamSet) -> bytes:
    """Concatenated raw bytes of all parameter values, for bit-exact compares."""
    return b"".join(t.data.tobytes() for _, t in params.items())


def clone_model(model: ClassifierModel) -> ClassifierModel:
    """Deep copy with fresh optimizer state."""
    return ClassifierModel(model.input_dim, model.widths, model.num_classes,
                           ParamSet({n: t.data for n, t in model.params.items()}))


def named_grads(loss, params: ParamSet) -> dict[str, Array]:
    """``graph_backward(loss, params)`` as a name -> gradient map of copies:
    it returns the set's own gradient buffer, which the next call
    overwrites."""
    graph_backward(loss, params)
    return {name: t.grad.copy() for name, t in params.items()}


def zero_fill_grads(loss, params: ParamSet) -> dict[str, Array]:
    """The zero-fill-and-add reference of :func:`named_grads`: the set's
    gradient vector zeroed, then every contribution of the walk added into
    it: the walk writes no tensor first."""
    params._grad.fill(0.0)
    walk(loss)
    return {name: t.grad.copy() for name, t in params.items()}


def flat_grads(params: ParamSet, grads: dict[str, Array]) -> Array:
    """A name -> gradient map as a gradient vector of the set's layout."""
    return np.concatenate([np.ravel(grads[name]) for name in params.names()])


# -- gradient oracle ---------------------------------------------------------


def finite_diff_grads(loss_fn, params: ParamSet, eps: float = 1e-5) -> dict[str, Array]:
    """Central finite differences of ``loss_fn()`` w.r.t. every parameter.

    ``loss_fn`` must rebuild its graph from the current parameter values on
    every call; parameters are perturbed in place and restored.
    """
    grads: dict[str, Array] = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = g.reshape(t.data.shape)
    return grads


def max_rel_error(analytic: dict[str, Array], numeric: dict[str, Array],
                  floor: float = 1e-5) -> float:
    """Worst elementwise relative error across all parameters.

    Denominators are floored so finite-difference noise on near-zero
    gradient entries does not dominate; a genuinely wrong formula still
    shows an error at the gradient's own scale.
    """
    worst = 0.0
    for name, a in analytic.items():
        b = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def check_grads(loss_builder, params: ParamSet, eps: float = 1e-5,
                tol: float = 1e-4) -> float:
    """Compare reverse-mode gradients of ``loss_builder()`` against central
    finite differences; returns the observed worst relative error."""
    analytic = named_grads(loss_builder(), params)
    numeric = finite_diff_grads(lambda: loss_builder().item(), params, eps)
    err = max_rel_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: max rel error {err} >= {tol}"
    return err


def probs_of(model: ClassifierModel, x):
    """The model's T = 1 probabilities as a graph tensor."""
    return softmax_t(network(model, x)[1])


def gated_top1(probs, selected) -> Array:
    """The gated top-1 label table of the dual losses: a one-hot row at each
    row's argmax of ``probs`` where ``selected``, a zero row elsewhere."""
    probs = np.asarray(probs)
    hot = np.argmax(probs, axis=-1)[..., None] == np.arange(probs.shape[-1])
    return (hot & np.asarray(selected)[..., None]).astype(np.float64)


def sp_of(model: ClassifierModel, x, selected):
    """Self-penalization of the ``selected`` rows from one forward, as the
    training loop builds it."""
    logits = network(model, x)[1]
    return sp_node(logits, model.params["log_temperature"],
                   gated_top1(softmax_t(logits).data, selected))


def cr_of(a: ClassifierModel, b: ClassifierModel, xs, xt):
    """Consistency regularization on the half-half mixup of ``xs`` and ``xt``."""
    x_half = 0.5 * xs + 0.5 * xt
    return cr_node(probs_of(a, x_half), probs_of(b, x_half))


def manual_model(w, b, theta: float = 0.0) -> ClassifierModel:
    """1-layer model (identity extractor) with hand-chosen weights."""
    w = np.asarray(w, dtype=np.float64)
    params = ParamSet({"head.w": w, "head.b": np.asarray(b, dtype=np.float64),
                       "log_temperature": np.array([float(theta)])})
    return ClassifierModel(w.shape[0], (), w.shape[1], params)


def random_model(rng: np.random.Generator, input_dim: int = 3,
                 widths=(5, 4), num_classes: int = 3) -> ClassifierModel:
    """Small random model; weights re-randomized (non-zero biases, theta too)
    so gradient checks exercise every parameter."""
    model = init_model(input_dim, widths, num_classes, seed=int(rng.integers(2**31)))
    for _, t in model.params.items():
        t.data[...] = rng.normal(0.0, 0.6, size=t.data.shape)
    return model


def random_batch(rng: np.random.Generator, b: int, d: int, c: int):
    """Random features plus one-hot-able labels for both domains."""
    xs = rng.normal(0.0, 1.0, size=(b, d))
    xt = rng.normal(0.0, 1.0, size=(b, d))
    ys = rng.integers(0, c, size=b)
    yt = rng.integers(0, c, size=b)
    return xs, ys, xt, yt


class ExactOracleCheck:
    """Full training iterations on a 2-sample, 2-class, 1-layer model,
    hand-unrolled in straight-line numpy and compared against the training
    loop at 1e-10 absolute.

    With one epoch the two models still share the pretrained weights; with
    two, the second iteration exercises matching between genuinely diverged
    teacher and student plus the momentum-buffer carry-over. In
    frozen-baseline mode the mixup labels come from the initial weights all
    run while gates and thresholds stay live.
    """

    W0 = np.array([[0.3, -0.1], [0.2, 0.4]])
    B0 = np.array([0.05, -0.05])
    THETA0 = 0.1
    XS = np.array([[1.0, 0.5], [-0.5, 1.0]])
    YS = np.array([0, 1])
    XT = np.array([[0.8, -0.2], [-0.3, 0.6]])
    LR = 0.01
    MOMENTUM = 0.9
    WD = 0.005
    SEED = 3

    def __init__(self, epochs: int = 1, pseudo: str = "live",
                 with_matching: bool = True):
        self.epochs = epochs
        self.pseudo = pseudo
        self.with_matching = with_matching

    def config(self):
        from fixbi.config import DatasetSpec, TrainConfig
        return TrainConfig(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=2),
                           arch=(4,), batch_size=2, epochs=self.epochs,
                           warmup_epochs=0, lr0=self.LR, momentum=self.MOMENTUM,
                           weight_decay=self.WD, lambda_sd=0.7, lambda_td=0.3,
                           loss_bim=self.with_matching, loss_cr=False,
                           pseudo_label_source=self.pseudo,
                           baseline_epochs=0, seed=self.SEED)

    def datasets(self):
        from fixbi.data import Dataset
        source = Dataset(self.XS, self.YS, 2, "source")
        target = Dataset(self.XT, np.array([-1, -1]), 2, "target",
                         hidden_labels=np.array([0, 1]))
        return source, target

    @staticmethod
    def _softmax_rows(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def hand_unrolled(self):
        """Straight-line recomputation of every iteration, no package calls."""
        import math

        b = 2
        lams = {"sd": 0.7, "td": 0.3}
        weights = {m: [self.W0.copy(), self.B0.copy(), self.THETA0]
                   for m in ("sd", "td")}
        velocity = {m: [np.zeros_like(self.W0), np.zeros_like(self.B0), 0.0]
                    for m in ("sd", "td")}

        for epoch in range(1, self.epochs + 1):
            # batch order: permutations drawn from default_rng([seed, epoch]),
            # source stream first; one batch per epoch at this size
            rng = np.random.default_rng([self.SEED, epoch])
            si = rng.permutation(2)
            ti = rng.permutation(2)
            xs, ys = self.XS[si], self.YS[si]
            xt = self.XT[ti]
            progress = (epoch - 1) / self.epochs
            lr = self.LR / (1.0 + 10.0 * progress) ** 0.75

            # pre-update views of the target batch for both models
            view = {}
            for m, (w, bias, _) in weights.items():
                z_t = xt @ w + bias
                p1 = self._softmax_rows(z_t)
                conf = p1.max(axis=1)
                view[m] = {
                    "z_t": z_t, "p1": p1, "conf": conf,
                    "yhat": np.argmax(p1, axis=1),
                    "tau": min(1.0, max(0.0, conf.mean() - 2.0 * conf.std())),
                }

            grads = {}
            for m, (w, bias, theta) in weights.items():
                v = view[m]
                gw = np.zeros_like(w)
                gb = np.zeros_like(bias)
                gtheta = 0.0

                # mixup label source: the model's own live argmax, or the
                # initial weights' argmax when frozen
                if self.pseudo == "frozen-baseline":
                    z0 = xt @ self.W0 + self.B0
                    pl = np.argmax(self._softmax_rows(z0), axis=1)
                else:
                    pl = v["yhat"]
                lam = lams[m]
                x_mix = lam * xs + (1.0 - lam) * xt
                y_mix = lam * np.eye(2)[ys] + (1.0 - lam) * np.eye(2)[pl]
                p_mix = self._softmax_rows(x_mix @ w + bias)
                dz = (p_mix - y_mix) / b
                gw += x_mix.T @ dz
                gb += dz.sum(axis=0)

                # self-penalization (tempered), gated strictly below own tau
                t = math.exp(theta)
                pt = self._softmax_rows(v["z_t"] / t)
                for i in range(b):
                    if v["conf"][i] < v["tau"]:
                        k = v["yhat"][i]
                        a = pt[i, k]
                        dl_da = (1.0 / b) / (1.0 - a)
                        dz_sp = dl_da * pt[i, k] * (np.eye(2)[k] - pt[i]) / t
                        gw += np.outer(xt[i], dz_sp)
                        gb += dz_sp
                        da_dt = -a * (v["z_t"][i, k]
                                      - float((pt[i] * v["z_t"][i]).sum())) / (t * t)
                        gtheta += dl_da * da_dt * t

                # matching: the partner teaches, gated by the partner's
                # confidence against the partner's threshold
                if self.with_matching:
                    o = view["td" if m == "sd" else "sd"]
                    q = self._softmax_rows(v["z_t"])  # student's own T=1 probs
                    for i in range(b):
                        if o["conf"][i] > o["tau"]:
                            dz_bim = (q[i] - np.eye(2)[o["yhat"][i]]) / b
                            gw += np.outer(xt[i], dz_bim)
                            gb += dz_bim
                grads[m] = (gw, gb, gtheta)

            for m, (gw, gb, gtheta) in grads.items():
                w, bias, theta = weights[m]
                vel = velocity[m]
                vel[0] = self.MOMENTUM * vel[0] + gw + self.WD * w
                vel[1] = self.MOMENTUM * vel[1] + gb + self.WD * bias
                vel[2] = self.MOMENTUM * vel[2] + gtheta + self.WD * theta
                weights[m] = [w - lr * vel[0], bias - lr * vel[1],
                              theta - lr * vel[2]]
        return {m: tuple(w) for m, w in weights.items()}

    def run(self) -> float:
        """Execute both paths; returns the worst absolute deviation."""
        from fixbi.core import train_fixbi

        cfg = self.config()
        source, target = self.datasets()
        init = manual_model(self.W0, self.B0, theta=self.THETA0)
        state, rows = train_fixbi(cfg, source, target, init)
        assert len(rows) == self.epochs
        want = self.hand_unrolled()

        worst = 0.0
        for name, model in (("sd", state.sdm), ("td", state.tdm)):
            w, bias, theta = want[name]
            worst = max(worst,
                        float(np.abs(model.params["head.w"].data - w).max()),
                        float(np.abs(model.params["head.b"].data - bias).max()),
                        abs(float(model.params["log_temperature"].data[0]) - theta))
        assert worst < 1e-10, f"oracle deviation {worst} >= 1e-10"
        return worst


def split_gate(confidences) -> tuple[Array, Array]:
    """The ``(above, below)`` masks of a threshold in the middle of the
    widest gap between sorted confidences: both sets are non-empty, so a
    gated loss sees selected and unselected samples alike."""
    conf = np.asarray(confidences, dtype=np.float64)
    c = np.sort(conf)
    i = int(np.argmax(c[1:] - c[:-1]))
    tau = (c[i] + c[i + 1]) / 2.0
    return conf > tau, conf < tau


def serial_features_csv(dual: DualState, source: Dataset, target: Dataset) -> bytes:
    """The bytes of features.csv as one process formats them, every line in
    turn and the file joined once: the oracle of the split writer."""
    k_sd = dual.sdm.feature_dim
    k_td = dual.tdm.feature_dim
    header = (["domain", "label"]
              + [f"sd_{i}" for i in range(k_sd)]
              + [f"td_{i}" for i in range(k_td)])
    lines = [",".join(header)]
    for ds in (source, target):
        # + 0.0 turns -0.0 into 0.0, as _fmt does
        feats = np.hstack([predict_features(dual.sdm, ds.features),
                           predict_features(dual.tdm, ds.features)]) + 0.0
        labels = ds.eval_labels().astype(np.int64).tolist()
        for label, row in zip(labels, feats.tolist()):
            lines.append(f"{ds.domain_tag},{label}," + ",".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode("utf-8")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def force_feature_workers(monkeypatch, n: int) -> None:
    """Make ``_write_features`` split its rows across ``n`` workers: ``n``
    CPUs in the affinity mask, one formatted value per worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(harness, "_FORMAT_VALUES", 1)


def count_forks(monkeypatch) -> list:
    """``os.fork`` that records each call in the returned list."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def fail_in_children(monkeypatch) -> None:
    """``_format_rows`` that raises in any process but this one."""
    parent, real = os.getpid(), harness._format_rows

    def format_rows(*chunk):
        if os.getpid() != parent:
            raise RuntimeError("worker fault")
        return real(*chunk)

    monkeypatch.setattr(harness, "_format_rows", format_rows)


def open_fds() -> set[str]:
    """This process's open file descriptors, where ``/proc`` lists them."""
    fd_dir = "/proc/self/fd"
    return set(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else set()


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
