"""Numerics contracts: networks and their reverse passes against the composed
reference, softmax, the step node's backward, SGD, LR decay."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fixbi import numerics
from fixbi.numerics import (_SGD_BLOCK, LOG_CLAMP, ParamSet, ShapeError, Tensor, backward,
                            lr_schedule, mlp, relu_inplace, sgd_step, softmax_vjp, step_node)
from helpers import (add, affine, as_tensor, check_grads, clamp_min, dot,
                     finite_diff_grads, flat_grads, graph_backward, grl, log, log_loss,
                     loss_node, matmul, max_rel_error, mean, mlp_node, mul, named_grads,
                     relu, softmax_t, squared_l2, sub, take, total, zero_fill_grads)


class TestSoftmaxT:
    def test_symmetric_row_is_uniform(self):
        out = softmax_t([[0.0, 0.0, 0.0]])
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_hand_evaluated_row(self):
        out = softmax_t([[math.log(2.0), 0.0]])
        assert np.allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_large_temperature_flattens(self):
        out = softmax_t([[5.0, 1.0]], Tensor([math.log(1000.0)]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-3)

    def test_rows_sum_to_one_under_huge_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-1e3, 1e3, size=(4, 6))
            rows = softmax_t(z).data.sum(axis=1)
            assert np.abs(rows - 1.0).max() < 1e-12

    def test_nonpositive_temperature_rejected(self):
        # exp of these log-temperatures underflows to T = 0
        for theta in (-800.0, -math.inf):
            with pytest.raises(ValueError, match="positive"):
                softmax_t([[1.0, 2.0]], Tensor([theta]))

    def test_nan_log_temperature_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            softmax_t([[1.0, 2.0]], Tensor([math.nan]))

    def test_overflowing_temperature_rejected(self):
        # exp(710) overflows to T = inf: a uniform softmax and a NaN
        # temperature gradient, were it let through
        for theta in (710.0, math.inf):
            with pytest.raises(ValueError, match="finite"):
                softmax_t([[1.0, 2.0, 0.5]], Tensor([theta]))
        with pytest.raises(ValueError, match="finite"):
            softmax_t(np.zeros((2, 3, 2)), Tensor([[0.0], [710.0]]))

    def test_single_class_rejected(self):
        with pytest.raises(ShapeError):
            softmax_t([[1.0]])

    def test_empty_batch(self):
        out = softmax_t(np.zeros((0, 3)))
        assert out.data.shape == (0, 3)

    def test_gradient_wrt_logits_and_temperature(self):
        rng = np.random.default_rng(1)
        params = ParamSet({"z": rng.normal(size=(3, 4)), "theta": [0.3]})
        z, theta = params["z"], params["theta"]
        weights = rng.normal(size=(3, 4))  # random linear functional of softmax

        def build():
            return dot(softmax_t(z, theta), weights)

        check_grads(build, params, tol=1e-6)

    def test_determinism(self):
        z = np.linspace(-2, 2, 12).reshape(3, 4)
        a = softmax_t(z, Tensor([math.log(0.7)])).data
        b = softmax_t(z, Tensor([math.log(0.7)])).data
        assert a.tobytes() == b.tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        params = ParamSet({"w": np.arange(6.0).reshape(2, 3)})
        w = params["w"]
        g = named_grads(total(w), params)
        assert np.array_equal(g["w"], np.ones((2, 3)))

    def test_half_squared_norm_gradient_is_w(self):
        params = ParamSet({"w": [[1.0, -2.0], [0.5, 3.0]]})
        w = params["w"]
        g = named_grads(mul(squared_l2(w), 0.5), params)
        assert np.allclose(g["w"], w.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        params = ParamSet({"w": [1.0, 2.0]})
        w = params["w"]
        with pytest.raises(ShapeError):
            backward(mul(w, 2.0), params)

    def test_unreachable_parameter_gets_zeros(self):
        params = ParamSet({"w": [1.0], "unused": [(5.0)]})
        w = params["w"]
        g = named_grads(dot(w, w), params)
        assert np.array_equal(g["unused"], np.zeros(1))

    def test_step_node_runs_its_reverse_once(self):
        # the node's one VJP is the step's reverse; a written -0.0 stays
        # -0.0, and a tensor it never writes keeps its contents
        params = ParamSet({"w": [1.0, 2.0], "unused": [5.0]})
        params["unused"].grad[...] = 3.0
        calls = []

        def reverse():
            calls.append(None)
            np.positive(np.array([0.5, -0.0]), out=params["w"].grad)

        node = step_node(1.5, np.ones((2, 3)), reverse)
        assert [p.requires_grad for p, _ in node._vjps] == [False]
        assert backward(node, params).tobytes() == np.array([0.5, -0.0, 3.0]).tobytes()
        assert len(calls) == 1

    def test_vjp_that_returns_a_gradient_is_rejected(self):
        # a loss node whose VJP hands its input a gradient (a network node
        # under a dot, not a step node) would have it dropped: backward
        # raises
        rng = np.random.default_rng(9)
        params = ParamSet({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)})
        layers = [(params["w"], params["b"])]
        loss = dot(mlp_node(rng.normal(size=(2, 3)), layers), rng.normal(size=(2, 4)))
        with pytest.raises(ShapeError, match="step_node"):
            backward(loss, params)

    def test_three_layer_mlp_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        sizes = [(4, 6), (6, 5), (5, 3)]
        tensors = {}
        for i, (a, b) in enumerate(sizes):
            tensors[f"w{i}"] = rng.normal(0, 0.7, size=(a, b))
            tensors[f"b{i}"] = rng.normal(0, 0.3, size=b)
        params = ParamSet(tensors)
        x = rng.normal(size=(5, 4))
        y = np.zeros((5, 3))
        y[np.arange(5), rng.integers(0, 3, size=5)] = 1.0

        def build():
            h = as_tensor(x)
            for i in range(3):
                h = affine(h, params[f"w{i}"], params[f"b{i}"])
                if i < 2:
                    h = relu(h)
            p = softmax_t(h)
            return mul(dot(y, log(clamp_min(p, 1e-12))), -1.0 / 5)

        analytic = named_grads(build(), params)
        numeric = finite_diff_grads(lambda: build().item(), params, eps=1e-5)
        assert max_rel_error(analytic, numeric, floor=1e-4) < 1e-6

    def test_primitive_gradients_randomized(self):
        # every primitive composed into one scalar, 100 random trials
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = ParamSet({"a": rng.normal(size=(3, 4)),
                               "b": rng.normal(size=(3, 4)),
                               "w": rng.normal(size=(4, 2))})
            a, b, w = params["a"], params["b"], params["w"]

            def build():
                mixed = add(relu(sub(add(mul(a, b), a), b)), 0.5)
                z = matmul(mixed, w)
                p = softmax_t(z)
                return add(add(mul(dot(p, p), 0.25), mean(log(clamp_min(mixed, 0.1)))),
                           mul(squared_l2(z), 0.01))

            check_grads(build, params, tol=1e-4)

    def test_shared_subexpression_accumulates(self):
        params = ParamSet({"w": [2.0]})
        w = params["w"]
        y = mul(w, w)           # used twice below
        g = named_grads(total(add(y, y)), params)
        assert np.allclose(g["w"], [8.0])

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(3)
        params = ParamSet({"w": rng.normal(size=(4, 4))})
        w = params["w"]
        x = rng.normal(size=(2, 4))

        def run():
            loss = squared_l2(softmax_t(matmul(as_tensor(x), w)))
            return named_grads(loss, params)["w"].tobytes()

        assert run() == run()


def _assert_same_bits(got, want):
    assert got.data.tobytes() == want.data.tobytes()


def _assert_same_grads(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


_RELU_SPECIALS = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                  np.finfo(np.float64).max, -np.finfo(np.float64).max]


class TestReluInplace:
    """The in-place ReLU against ``np.where``, the reference's formula."""

    @pytest.mark.parametrize("shape", [(1,), (3,), (7,), (37,), (5, 13), (64, 64),
                                       (2, 96, 64), (3, 1, 9)])
    def test_same_bytes_as_where_on_special_values(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape).reshape(-1)
        n = a.size
        # the specials at the head, at the tail (numpy's scalar loops) and
        # at random places (its vector loops)
        for at in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
            a[at[:len(_RELU_SPECIALS)]] = _RELU_SPECIALS[:n]
        a = a.reshape(shape)
        want = np.where(a > 0.0, a, 0.0)
        got = a.copy()
        assert relu_inplace(got) is got
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, 100])
    def test_negative_zero_becomes_positive_zero(self, n):
        a = np.full(n, -0.0)
        assert relu_inplace(a).tobytes() == np.zeros(n).tobytes()


_WIDTHS = (4, 5, 3, 6)  # input, then up to three layer widths


def _network(seed, depth, lead=(), extra=False):
    """Input ``x``, ``depth`` layers ``w{i}``/``b{i}`` (on the leading axes
    ``lead``) and, with ``extra``, one more layer that no network uses, as a
    set; plus a non-uniform upstream gradient of the output."""
    rng = np.random.default_rng(seed)
    tensors = {"x": rng.normal(size=lead + (6, _WIDTHS[0]))}
    for i in range(depth + extra):
        tensors[f"w{i}"] = rng.normal(size=lead + _WIDTHS[i:i + 2])
        tensors[f"b{i}"] = rng.normal(size=lead + (_WIDTHS[i + 1],))
    return ParamSet(tensors), rng.normal(size=lead + (6, _WIDTHS[depth]))


def _layers(params, depth):
    return [(params[f"w{i}"], params[f"b{i}"]) for i in range(depth)]


def _chain(x, params, depth, relu_last):
    """The composed reference of ``mlp(x, _layers(params, depth), relu_last)``."""
    h = x
    for i in range(depth):
        h = affine(h, params[f"w{i}"], params[f"b{i}"])
        if relu_last or i < depth - 1:
            h = relu(h)
    return h


class TestDense:
    """The network node ``mlp``, a stack of dense layers, against the
    relu(affine(...)) chain of helpers at depths 1 to 3."""

    @pytest.mark.parametrize("relu_last", [False, True])
    def test_bit_identical_to_composed_chain(self, relu_last):
        for depth in (1, 2, 3):
            params, upstream = _network(21 + depth, depth)
            # an input that needs its gradient, as the discriminator's
            # does, and a constant one, as the extractor's is
            for x in (params["x"], Tensor(params["x"].data)):
                fused = mlp_node(x, _layers(params, depth), relu_last)
                chain = _chain(x, params, depth, relu_last)
                _assert_same_bits(fused, chain)
                # the reverse pass returns an input gradient only when asked
                assert (fused._vjps[0][1](upstream) is None) == (not x.requires_grad)
                if relu_last:
                    assert (fused.data == 0.0).any() and (fused.data > 0.0).any()
                want = named_grads(dot(chain, upstream), params)
                _assert_same_grads(named_grads(dot(fused, upstream), params), want)
                # a second walk over the same node sees a fresh upstream array
                _assert_same_grads(named_grads(dot(fused, upstream), params), want)

    @pytest.mark.parametrize("relu_last", [False, True])
    def test_gradients_match_finite_differences(self, relu_last):
        for depth in (1, 2, 3):
            params, upstream = _network(22 + depth, depth)
            check_grads(lambda: dot(mlp_node(params["x"], _layers(params, depth), relu_last),
                                    upstream), params)

    def test_network_applied_twice_accumulates(self):
        # one set of weights reached by two nodes: each adds its share into
        # the same gradient views
        params, upstream = _network(23, 3)
        x2 = np.random.default_rng(24).normal(size=(6, _WIDTHS[0]))

        def twice(net):
            return add(dot(net(params["x"]), upstream),
                       dot(net(Tensor(x2)), upstream[::-1]))

        fused = twice(lambda x: mlp_node(x, _layers(params, 3)))
        chain = twice(lambda x: _chain(x, params, 3, False))
        _assert_same_bits(fused, chain)
        _assert_same_grads(named_grads(fused, params), named_grads(chain, params))
        check_grads(lambda: twice(lambda x: mlp_node(x, _layers(params, 3))), params)

    def test_successive_walks_leave_no_stale_gradient(self):
        # the second walk's graph reaches only the first layer: the other
        # layers' views must read 0, not what the first walk left there
        params, upstream = _network(25, 3)
        g = graph_backward(dot(mlp_node(params["x"], _layers(params, 3)), upstream), params)
        assert np.shares_memory(g, params["w2"].grad) and g.any()
        part = dot(mlp_node(params["x"], _layers(params, 1)), 0.5)
        got = named_grads(part, params)
        assert not any(got[n].any() for n in ("w1", "b1", "w2", "b2"))
        fresh = ParamSet({name: t.data for name, t in params.items()})
        _assert_same_grads(got, named_grads(dot(mlp_node(fresh["x"], _layers(fresh, 1)), 0.5),
                                            fresh))

    def test_unreachable_parameter_reads_zero(self):
        params, upstream = _network(26, 2, extra=True)
        got = named_grads(dot(mlp_node(params["x"], _layers(params, 2)), upstream), params)
        assert got["w2"].tobytes() == np.zeros((3, 6)).tobytes()
        assert got["b2"].tobytes() == np.zeros(6).tobytes()
        assert got["w1"].any()

    def test_a_network_reverse_run_twice_leaves_the_second_write(self):
        # numerics writes each gradient with out=: a second reverse over one
        # set replaces the first one's gradients, it does not add to them
        params, upstream = _network(37, 2)
        _, reverse = mlp(params["x"].data, _layers(params, 2), input_grad=False)
        reverse(upstream)
        first = params._grad.copy()
        reverse(upstream[::-1])
        fresh = ParamSet({name: t.data for name, t in params.items()})
        mlp(fresh["x"].data, _layers(fresh, 2), input_grad=False)[1](upstream[::-1])
        assert first.any() and params._grad.tobytes() == fresh._grad.tobytes()
        assert not np.array_equal(params._grad, first + fresh._grad)

    def test_inner_dim_mismatch_rejected(self):
        params = ParamSet({"w": np.ones((4, 2)), "b": np.ones(2),
                           "v": np.ones((3, 2)), "c": np.ones(2)})
        with pytest.raises(ShapeError):
            mlp(np.ones((2, 3)), [(params["w"], params["b"])])
        with pytest.raises(ShapeError, match="layer 1"):
            mlp(np.ones((2, 4)), [(params["w"], params["b"]), (params["v"], params["c"])])


class TestFirstWriteGradients:
    """The composed reference (``helpers.graph_backward``) writes each
    tensor's first contribution and adds the rest; each case runs two
    consecutive walks over one set, and compares with the zero-fill-and-add
    reference only after both."""

    @staticmethod
    def _pair_loss(params, upstream, scale, depth=3):
        """A stacked pair's network, a per-model log-temperature leaf reached
        through ``softmax_t`` and the input reached through the network."""
        out = mlp_node(params["x"], _layers(params, depth), relu_last=True)
        return add(mul(dot(out, upstream), scale),
                   dot(softmax_t(out, params["theta"]), upstream))

    @staticmethod
    def _pair(seed, depth=3, extra=False):
        params, upstream = _network(seed, depth, lead=(2,), extra=extra)
        tensors = {name: t.data for name, t in params.items()}
        tensors["theta"] = np.array([[0.1], [-0.2]])
        return ParamSet(tensors), upstream

    def test_equal_to_zero_fill_and_add(self):
        params, upstream = self._pair(31)
        losses = [self._pair_loss(params, upstream, s) for s in (0.5, -1.5)]
        got = [named_grads(loss, params) for loss in losses]
        for loss, g in zip(losses, got):
            want = zero_fill_grads(loss, params)
            assert all(np.array_equal(g[n], want[n]) for n in want)
            assert all(g[n].any() for n in want)

    def test_unreached_parameter_reads_zero_after_a_walk_that_reached_it(self):
        # the first walk reaches the third layer but not theta, the second
        # theta but not the third layer
        params, upstream = self._pair(32, depth=2, extra=True)
        first = named_grads(total(mlp_node(params["x"], _layers(params, 3))), params)
        assert first["w2"].any() and first["b2"].any()
        assert first["theta"].tobytes() == np.zeros((2, 1)).tobytes()
        second = named_grads(self._pair_loss(params, upstream, 1.0, depth=2), params)
        for name in ("w2", "b2"):
            assert second[name].tobytes() == np.zeros_like(second[name]).tobytes()
        assert second["theta"].all()

    def test_two_applications_of_one_network_sum(self):
        params, upstream = _network(33, 3)
        x2 = Tensor(np.random.default_rng(34).normal(size=(6, _WIDTHS[0])))
        one = dot(mlp_node(params["x"], _layers(params, 3)), upstream)
        other = dot(mlp_node(x2, _layers(params, 3)), upstream[::-1])
        parts = [named_grads(part, params) for part in (one, other)]
        for _ in range(2):
            got = named_grads(add(one, other), params)
            want = zero_fill_grads(add(one, other), params)
            for n in want:
                assert np.array_equal(got[n], want[n]), n
                assert np.array_equal(got[n], parts[0][n] + parts[1][n]), n

    def test_another_sets_tensors_keep_adding(self):
        # set a's walk reaches set b's network and, as a leaf, b's w0: b's
        # vector is only added into
        a, upstream = _network(35, 1)
        b, _ = _network(36, 2)
        b_layers = [(b["w1"], b["b1"])]

        def loss():
            return add(dot(mlp_node(mlp_node(a["x"], _layers(a, 1), relu_last=True), b_layers),
                           upstream[:, :_WIDTHS[2]]), dot(b["w0"], 0.75))

        contrib = named_grads(loss(), b)  # b's walk writes b's tensors
        b._grad.fill(0.0)
        for k in (1, 2):
            graph_backward(loss(), a)
            for name in ("w0", "w1", "b1"):
                assert np.array_equal(b[name].grad, contrib[name] * k), (k, name)
            assert not b["b0"].grad.any()


def _model_slice(params: ParamSet, k: int) -> ParamSet:
    """Model ``k``'s slice of every stacked parameter, as its own set."""
    return ParamSet({name: t.data[k] for name, t in params.items()})


class TestStackedDense:
    """``mlp`` with a leading model axis against one 2-D call per model."""

    @pytest.mark.parametrize("relu_last", [False, True])
    def test_slices_bit_identical_to_2d_calls(self, relu_last):
        for depth in (1, 2, 3):
            params, upstream = _network(31 + depth, depth, lead=(2,))
            stacked = mlp_node(params["x"], _layers(params, depth), relu_last)
            grads = named_grads(dot(stacked, upstream), params)
            for k in range(2):
                single = _model_slice(params, k)
                out = mlp_node(single["x"], _layers(single, depth), relu_last)
                assert stacked.data[k].tobytes() == out.data.tobytes()
                want = named_grads(dot(out, upstream[k]), single)
                for name in want:
                    assert grads[name][k].tobytes() == want[name].tobytes(), (k, name)

    @pytest.mark.parametrize("relu_last", [False, True])
    def test_gradients_match_finite_differences(self, relu_last):
        for depth in (1, 2, 3):
            params, upstream = _network(32 + depth, depth, lead=(2,))
            check_grads(lambda: dot(mlp_node(params["x"], _layers(params, depth), relu_last),
                                    upstream), params)

    @pytest.mark.parametrize("x,w,b", [
        ((2, 3, 4), (3, 4, 2), (3, 2)),   # leading axes differ
        ((3, 4), (2, 4, 2), (2, 2)),      # 2-D input, stacked weight
        ((2, 3, 4), (2, 4, 2), (2,)),     # bias without the model axis
    ])
    def test_mismatched_stacks_rejected(self, x, w, b):
        params = ParamSet({"w": np.ones(w), "b": np.ones(b)})
        with pytest.raises(ShapeError):
            mlp(np.ones(x), [(params["w"], params["b"])])


class TestTake:
    def test_value_and_scattered_gradient(self):
        rng = np.random.default_rng(33)
        params = ParamSet({"z": rng.normal(size=(2, 5, 3))})
        z = params["z"]
        upstream = rng.normal(size=(2, 3))
        part = take(z, (1, slice(1, 3)))
        assert part.data.tobytes() == z.data[1, 1:3].tobytes()
        want = np.zeros((2, 5, 3))
        want[1, 1:3] = upstream
        assert np.array_equal(named_grads(dot(part, upstream), params)["z"], want)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(34)
        params = ParamSet({"z": rng.normal(size=(2, 5, 3))})
        z = params["z"]
        up_a, up_b = rng.normal(size=(2, 3)), rng.normal(size=(5, 3))
        # overlapping slices: their gradients add up in the parent
        check_grads(lambda: add(dot(take(z, (0, slice(0, 2))), up_a),
                                dot(take(z, 0), up_b)), params)


class TestSoftmaxAtUnitTemperature:
    """Without a temperature the divisions by T = 1 are skipped; ``x / 1.0``
    is ``x`` for every float64, so the bytes are those of the formula with
    them, signed zeros and subnormals included."""

    @staticmethod
    def _with_divisions(z, g):
        zc = z - z.max(axis=-1, keepdims=True)
        e = np.exp(zc / 1.0)
        y = e / e.sum(axis=-1, keepdims=True)
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y, y * (g - inner) / 1.0

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 3), (3, 31)])
    def test_bit_identical_to_the_explicit_division(self, shape):
        rng = np.random.default_rng(shape[-1])
        tiny = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-320])
        z = rng.normal(0.0, 3.0, size=shape)
        z.reshape(-1)[:tiny.size] = tiny
        z[..., -1, :] = -0.0  # a row whose max is -0.0
        g = rng.normal(size=shape)
        g.reshape(-1)[-tiny.size:] = tiny
        y, vjp_z, vjp_log_t = softmax_vjp(z)
        want_y, want_gz = self._with_divisions(z, g)
        assert vjp_log_t is None
        assert y.tobytes() == want_y.tobytes()
        assert vjp_z(g).tobytes() == want_gz.tobytes()


class TestStackedSoftmaxT:
    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        params = ParamSet({"z": rng.normal(0.0, 2.0, size=(2, 5, 3)),
                           "log_t": np.array([[0.3], [-0.4]])})
        return params, rng.normal(size=(2, 5, 3))

    def test_slices_bit_identical_to_2d_calls(self):
        params, upstream = self._stack(35)
        stacked = softmax_t(params["z"])
        grads = named_grads(dot(stacked, upstream), params)
        for k in range(2):
            single = _model_slice(params, k)
            out = softmax_t(single["z"])
            assert stacked.data[k].tobytes() == out.data.tobytes()
            want = named_grads(dot(out, upstream[k]), single)
            assert grads["z"][k].tobytes() == want["z"].tobytes()

    def test_per_model_temperature_gradients_match_finite_differences(self):
        # each model's rows meet that model's own temperature, taken from a
        # stacked [2 x 1] log-temperature, as self-penalization receives it
        params, upstream = self._stack(36)

        def term(k):
            y = softmax_t(take(params["z"], k), take(params["log_t"], k))
            return dot(y, upstream[k])

        check_grads(lambda: add(term(0), term(1)), params)
        # and each temperature's gradient comes from its own model's rows only
        grads = named_grads(add(term(0), term(1)), params)
        for k in range(2):
            single = _model_slice(params, k)
            y = softmax_t(single["z"], single["log_t"])
            want = named_grads(dot(y, upstream[k]), single)
            assert grads["log_t"][k].tobytes() == want["log_t"].tobytes()


    def test_per_model_temperature_tensor(self):
        # a [2 x 1] temperature tensor: each model's rows meet its own
        # temperature, with no slicing node in between
        params, upstream = self._stack(37)

        def objective():
            return dot(softmax_t(params["z"], params["log_t"]), upstream)

        check_grads(objective, params)
        y = softmax_t(params["z"], params["log_t"])
        grads = named_grads(dot(y, upstream), params)
        for k in range(2):
            single = _model_slice(params, k)
            out = softmax_t(single["z"], single["log_t"])
            assert y.data[k].tobytes() == out.data.tobytes()
            want = named_grads(dot(out, upstream[k]), single)
            for name in want:
                assert grads[name][k].tobytes() == want[name].tobytes(), (k, name)

    def test_temperature_tensor_shape_and_sign_checked(self):
        z = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ShapeError):
            softmax_t(z, Tensor(np.zeros((3, 1))))
        with pytest.raises(ShapeError):  # one log-temperature per block, no scalar
            softmax_t(z, Tensor(np.array(0.0)))
        with pytest.raises(ValueError, match="positive"):  # exp(-800) is 0.0
            softmax_t(z, Tensor(np.array([[0.0], [-800.0]])))
        with pytest.raises(ValueError, match="positive"):
            softmax_t(z, Tensor(np.array([[math.nan], [0.0]])))

    def test_log_temperature_gradient_far_from_one_matches_finite_differences(self):
        # T = exp(+-2.5), about 12.2 and 0.08, on a (2, B, C) stack: the
        # chain through T = exp(theta) is computed inside the node
        params, upstream = self._stack(38)
        params["log_t"].data[...] = [[2.5], [-2.5]]
        check_grads(lambda: dot(softmax_t(params["z"], params["log_t"]), upstream),
                    params)


class TestLogLoss:
    """The one-node log-loss against the clamp_min -> log -> mul -> sum ->
    mul chain of helpers."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(5, 3))
        z[0] = [0.0, -40.0, 5.0]  # one probability below the clamp
        params = ParamSet({"z": z})
        weights = rng.uniform(size=(5, 3)) * (rng.uniform(size=(5, 3)) > 0.3)
        return params, weights

    def test_bit_identical_to_composed_chain(self):
        params, weights = self._case(23)
        probs = softmax_t(params["z"])
        assert (probs.data < LOG_CLAMP).any()
        fused = log_loss(probs, weights, 5)
        chain = mul(dot(weights, log(clamp_min(probs, LOG_CLAMP))), -1.0 / 5)
        _assert_same_bits(fused, chain)
        _assert_same_grads(named_grads(fused, params), named_grads(chain, params))

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)], ids=["2d", "stack"])
    def test_numerics_gradient_bit_identical_to_composed_chain(self, shape):
        # numerics.log_loss's own gradient, not the oracle node's VJP: the
        # 2-D call, and each block of a stack, against the chain's gradient
        # of the probabilities
        rng = np.random.default_rng(28)
        z = rng.normal(size=shape)
        z[..., 0, :] = [0.0, -40.0, 5.0]  # one probability below the clamp
        probs = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        weights = rng.uniform(size=shape) * (rng.uniform(size=shape) > 0.3)
        value, grad = numerics.log_loss(probs, weights, 5)
        blocks = zip(probs, weights, value, grad) if len(shape) == 3 else \
            [(probs, weights, value, grad)]
        for p, w, v, g in blocks:
            assert (p < LOG_CLAMP).any()
            params = ParamSet({"p": p})
            chain = mul(dot(w, log(clamp_min(params["p"], LOG_CLAMP))), -1.0 / 5)
            assert np.asarray(v).tobytes() == chain.data.tobytes()
            assert g.tobytes() == named_grads(chain, params)["p"].tobytes()

    def test_gradients_match_finite_differences(self):
        params, weights = self._case(24)
        check_grads(lambda: log_loss(softmax_t(params["z"]), weights, 5),
                    params)

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            log_loss(Tensor(np.full((2, 3), 0.5)), np.ones((2, 1)), 2)


class TestStackedLogLoss:
    """log_loss on a [2 x B x C] stack against one 2-D call per model."""

    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2, 5, 3))
        z[1, 0] = [0.0, -40.0, 5.0]  # one probability below the clamp
        params = ParamSet({"z": z})
        weights = rng.uniform(size=(2, 5, 3)) * (rng.uniform(size=(2, 5, 3)) > 0.3)
        return params, weights

    def test_entries_bit_identical_to_2d_calls(self):
        params, weights = self._stack(25)
        upstream = np.array([0.7, -1.3])  # a different upstream per entry
        stacked = log_loss(softmax_t(params["z"]), weights, 5)
        assert stacked.shape == (2,)
        grads = named_grads(dot(stacked, upstream), params)
        for k in range(2):
            single = _model_slice(params, k)
            probs = softmax_t(single["z"])
            out = log_loss(probs, weights[k], 5)
            chain = mul(dot(weights[k], log(clamp_min(probs, LOG_CLAMP))), -1.0 / 5)
            for want in (out, chain):
                assert stacked.data[k].tobytes() == want.data.tobytes()
                want_grads = named_grads(mul(want, upstream[k]), single)
                assert grads["z"][k].tobytes() == want_grads["z"].tobytes()

    def test_gradients_match_finite_differences(self):
        params, weights = self._stack(26)
        check_grads(lambda: dot(log_loss(softmax_t(params["z"]), weights, 5),
                                np.array([0.7, -1.3])), params)


class TestLossNode:
    def test_vjp_scales_each_gradient_by_the_upstream(self):
        # a scalar loss, and one loss per leading index whose upstream
        # scales that block of each gradient
        rng = np.random.default_rng(27)
        params = ParamSet({"z": rng.normal(size=(2, 4, 3)), "t": rng.normal(size=(2, 1))})
        gz, gt = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 1))
        scalar = loss_node(1.5, [(params["z"], gz), (params["t"], gt)])
        g = named_grads(mul(scalar, -2.0), params)
        assert np.array_equal(g["z"], -2.0 * gz) and np.array_equal(g["t"], -2.0 * gt)
        upstream = np.array([0.7, -1.3])
        per_model = loss_node(np.array([1.0, 2.0]), [(params["z"], gz), (params["t"], gt)])
        g = named_grads(dot(per_model, upstream), params)
        assert np.array_equal(g["z"], upstream[:, None, None] * gz)
        assert np.array_equal(g["t"], upstream[:, None] * gt)


class TestGradientReversal:
    def test_forward_identity(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        assert np.array_equal(grl(x, 0.7).data, x.data)

    def test_zero_lambda_kills_gradient(self):
        params = ParamSet({"w": [3.0]})
        w = params["w"]
        g = named_grads(dot(grl(w, 0.0), 2.0), params)
        assert np.array_equal(g["w"], [0.0])

    def test_scalar_chain_scales_by_minus_lambda(self):
        params = ParamSet({"w": [1.5]})
        w = params["w"]
        c = 4.0
        g = named_grads(dot(grl(w, 0.9), c), params)
        assert np.allclose(g["w"], [-0.9 * c])

    def test_double_reversal_restores_gradient(self):
        params = ParamSet({"w": [2.0]})
        w = params["w"]
        g = named_grads(dot(grl(grl(w, 1.0), 1.0), 3.0), params)
        assert np.allclose(g["w"], [3.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            grl(Tensor([1.0]), -0.1)


class TestSgdStep:
    def test_plain_descent(self):
        params = ParamSet({"w": [1.0]})
        sgd_step(params, np.array([2.0]), lr=0.1)
        assert np.allclose(params["w"].data, [0.8])

    def test_weight_decay_only(self):
        params = ParamSet({"w": [1.0]})
        sgd_step(params, np.array([0.0]), lr=0.001, weight_decay=0.005)
        assert np.allclose(params["w"].data, [0.999995], atol=1e-15)

    def test_momentum_two_steps_unrolled(self):
        params = ParamSet({"w": [0.0]})
        g = np.array([1.0])
        sgd_step(params, g, lr=1.0, momentum=0.9)
        sgd_step(params, g, lr=1.0, momentum=0.9)
        assert np.allclose(params["w"].data, [-2.9])

    def test_zero_momentum_equals_plain_descent_exactly(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=(3, 3))
        params = ParamSet({"w": w0.copy()})
        g = rng.normal(size=(3, 3))
        sgd_step(params, g.reshape(-1), lr=0.05, momentum=0.0, weight_decay=0.0)
        assert np.array_equal(params["w"].data, w0 - 0.05 * g)

    def test_shape_mismatch_rejected(self):
        # a vector that does not cover the whole set, or one that numpy
        # would broadcast over it
        params = ParamSet({"w": [1.0, 2.0], "v": [3.0]})
        for g in (np.array([1.0, 1.0]), np.array([1.0]), np.ones((3, 1))):
            with pytest.raises(ShapeError):
                sgd_step(params, g, lr=0.1)
        assert params["w"].data.tolist() == [1.0, 2.0]

    def test_hyperparameter_validation(self):
        params = ParamSet({"w": [1.0]})
        g = np.array([1.0])
        with pytest.raises(ValueError):
            sgd_step(params, g, lr=0.0)
        with pytest.raises(ValueError):
            sgd_step(params, g, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            sgd_step(params, g, lr=0.1, weight_decay=-1.0)


class TestLrSchedule:
    def test_progress_zero_returns_lr0(self):
        assert lr_schedule(0.001, 0.0) == 0.001

    def test_progress_one_hand_value(self):
        assert lr_schedule(0.001, 1.0) == pytest.approx(0.001 / 11 ** 0.75, rel=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 23)
        values = [lr_schedule(0.01, p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_progress_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0.001, -0.01)
        with pytest.raises(ValueError):
            lr_schedule(0.001, 1.01)


class TestParamSet:
    def test_clone_copies_values_and_resets_momentum(self):
        # a set built from a trained set's tensors, as unstack_models builds
        # each model's
        params = ParamSet({"w": [1.0]})
        sgd_step(params, np.array([1.0]), lr=0.1, momentum=0.9)
        assert params.momentum("w")[0] != 0.0
        fresh = ParamSet({name: t.data for name, t in params.items()})
        assert np.array_equal(fresh["w"].data, params["w"].data)
        assert np.array_equal(fresh.momentum("w"), [0.0])
        fresh["w"].data[0] = 99.0
        assert params["w"].data[0] != 99.0


class TestFlatParamSet:
    """One value vector and one momentum vector per set, and the in-place
    update over them."""

    def test_tensors_and_momenta_view_one_vector_each(self):
        a0 = np.arange(6.0).reshape(2, 3)
        params = ParamSet({"a": a0, "b": [7.0], "c": np.zeros((2, 2))})
        a, c = params["a"], params["c"]
        assert not np.shares_memory(a.data, a0)  # the set holds copies
        sgd_step(params, flat_grads(params, {"a": np.ones((2, 3)), "b": np.ones(1),
                                             "c": np.zeros((2, 2))}),
                 lr=0.5, momentum=0.9)
        values = a.data.base
        assert values.shape == (11,)
        assert all(params[n].data.base is values for n in ("a", "b", "c"))
        assert values.tolist() == (np.arange(6.0) - 0.5).tolist() + [6.5, 0, 0, 0, 0]
        moms = params.momentum("a").base
        assert all(params.momentum(n).base is moms for n in ("a", "b", "c"))
        assert moms.tolist() == [1.0] * 7 + [0.0] * 4
        c.data[...] = 2.0  # an in-place write is a write into the vector
        assert values[-4:].tolist() == [2.0] * 4

    @staticmethod
    def _per_tensor_steps(params, steps, lr, momentum, weight_decay):
        """The per-tensor update, run on copies."""
        w = {n: t.data.copy() for n, t in params.items()}
        v = {n: np.zeros_like(x) for n, x in w.items()}
        for grads in steps:
            for n in w:
                v[n] *= momentum
                v[n] += grads[n] + weight_decay * w[n]
                w[n] = w[n] - lr * v[n]
        return w, v

    def _check_three_steps(self, param_sets, seed):
        rng = np.random.default_rng(seed)
        for params in param_sets:
            steps = [{n: rng.normal(size=t.data.shape) for n, t in params.items()}
                     for _ in range(3)]
            want_w, want_v = self._per_tensor_steps(params, steps, 0.03, 0.9, 0.005)
            for grads in steps:
                sgd_step(params, flat_grads(params, grads), 0.03, 0.9, 0.005)
            for n, t in params.items():
                assert t.data.tobytes() == want_w[n].tobytes(), n
                assert params.momentum(n).tobytes() == want_v[n].tobytes(), n

    def test_three_steps_bit_identical_on_a_stacked_pair(self):
        from fixbi.models import init_model, stack_models
        pair = stack_models([init_model(2, (6, 5), 3, seed=s) for s in (1, 2)])
        self._check_three_steps([pair.params], 27)

    def test_three_steps_bit_identical_on_dann_model_and_discriminator(self):
        from fixbi.models import init_discriminator, init_model
        model = init_model(2, (6, 5), 3, seed=3)
        disc = init_discriminator(model.feature_dim, 4, seed=4)
        self._check_three_steps([model.params, disc.params], 28)

    @staticmethod
    def _blocked_set(seed):
        """A set of about 2.5 sgd_step blocks, its last tensor ragged."""
        rng = np.random.default_rng(seed)
        return ParamSet({"w": rng.normal(size=(200, 400)), "b": rng.normal(size=2_000),
                         "t": rng.normal(size=(1, 1))})

    def test_blocked_update_equals_the_flat_formula(self):
        params = self._blocked_set(29)
        w, v = params["w"].data.base, params.momentum("w").base
        assert 2 * _SGD_BLOCK < w.size < 3 * _SGD_BLOCK
        rng = np.random.default_rng(30)
        want_w, want_v = w.copy(), v.copy()
        for lr, m, wd in ((0.03, 0.9, 0.005), (0.02, 0.9, 0.005), (0.01, 0.5, 0.0),
                          (0.005, 0.0, 0.01)):
            g = rng.normal(size=w.size)
            g[::7] = -0.0
            # the flat six-operation formula, each a whole-vector pass
            want_v *= m
            tmp = wd * want_w
            tmp += g
            want_v += tmp
            tmp = lr * want_v
            want_w -= tmp
            sgd_step(params, g, lr, m, wd)
            assert np.array_equal(w, want_w) and w.tobytes() == want_w.tobytes()
            assert np.array_equal(v, want_v) and v.tobytes() == want_v.tobytes()

    def test_rebound_tensor_rejected_before_any_block_is_written(self):
        params = self._blocked_set(31)
        w, v = params["w"].data.base, params.momentum("w").base
        sgd_step(params, np.ones(w.size), lr=0.1, momentum=0.9)
        before = w.tobytes(), v.tobytes()
        params["t"].data = np.zeros((1, 1))  # the last tensor, in the last block
        with pytest.raises(ValueError, match="'t'.*rebound"):
            sgd_step(params, np.ones(w.size), lr=0.1, momentum=0.9)
        assert (w.tobytes(), v.tobytes()) == before

    def test_rebound_tensor_rejected(self):
        params = ParamSet({"w": [1.0, 2.0], "b": [0.0]})
        grads = np.ones(3)
        params["w"].data[...] = [3.0, 4.0]  # in place: still trained
        sgd_step(params, grads, lr=0.5)
        assert params["w"].data.tolist() == [2.5, 3.5]
        params["w"].data = np.array([3.0, 4.0])
        with pytest.raises(ValueError, match="'w'.*rebound"):
            sgd_step(params, grads, lr=0.5)
        assert params["b"].data.tolist() == [-0.5]  # nothing moved
