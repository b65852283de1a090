"""The dual-model algorithm: mixup, thresholds, the four losses, ratio rules
and the training loop contracts (including a fully hand-unrolled iteration)."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from fixbi.baseline import train_dann, train_source_only
from fixbi.config import ConfigError, DatasetSpec, TrainConfig
from fixbi.core import (NonFiniteLossError, adaptive_threshold, mixup,
                        pseudo_labels, ratio_rule_sample, train_fixbi)
from fixbi.data import Dataset, one_hot, paired_minibatches
from fixbi.models import init_model, stack_models
from fixbi.numerics import ParamSet, lr_schedule, sgd_step
from helpers import (add, bim_node, check_grads, clone_model, composed_dual_loss,
                     cr_node, cr_of, dot, fm_node, gated_top1, graph_backward, manual_model,
                     mul, named_grads, network, probs_of, random_batch, random_model,
                     softmax_t, sp_node, sp_of,
                     split_gate, value_bytes)

LN2 = math.log(2.0)


def _np_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestMixup:
    def test_lambda_one_is_bit_exact_source(self):
        rng = np.random.default_rng(0)
        xs, xt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        ys, yt = one_hot(np.array([0, 1, 2, 0]), 3), one_hot(np.array([2, 2, 1, 0]), 3)
        assert mixup(xs, xt, 1.0).tobytes() == xs.tobytes()
        assert mixup(ys, yt, 1.0).tobytes() == ys.tobytes()

    def test_lambda_zero_is_bit_exact_target(self):
        rng = np.random.default_rng(1)
        xs, xt = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        ys, yt = one_hot(np.array([0, 1, 0]), 2), one_hot(np.array([1, 1, 0]), 2)
        assert mixup(xs, xt, 0.0).tobytes() == xt.tobytes()
        assert mixup(ys, yt, 0.0).tobytes() == yt.tobytes()

    def test_midpoint_hand_case(self):
        assert np.array_equal(mixup(np.array([[0.0, 2.0]]), np.array([[2.0, 0.0]]), 0.5),
                              [[1.0, 1.0]])
        assert np.array_equal(mixup(one_hot(np.array([0]), 2), one_hot(np.array([1]), 2),
                                    0.5), [[0.5, 0.5]])

    def test_dominant_ratio_three_classes(self):
        # lam=0.7, source class 2, target class 0 -> [0.3, 0, 0.7]
        y_mix = mixup(one_hot(np.array([2]), 3), one_hot(np.array([0]), 3), 0.7)
        assert np.allclose(y_mix, [[0.3, 0.0, 0.7]], atol=1e-15)

    def test_out_of_range_lambda_rejected(self):
        xs = np.zeros((1, 2))
        for lam in (-0.01, 1.01):
            with pytest.raises(ValueError):
                mixup(xs, xs, lam)

    def test_convexity_and_simplex_invariants_randomized(self):
        # acceptance criterion 3 at module scale; the full 1e4 sweep is in
        # the acceptance suite
        rng = np.random.default_rng(2)
        for _ in range(500):
            b, d, c = rng.integers(1, 5), rng.integers(1, 4), rng.integers(2, 5)
            xs, ys, xt, yt = random_batch(rng, int(b), int(d), int(c))
            lam = float(rng.uniform())
            x_mix = mixup(xs, xt, lam)
            y_mix = mixup(one_hot(ys, int(c)), one_hot(yt, int(c)), lam)
            lo = np.minimum(xs, xt)
            hi = np.maximum(xs, xt)
            assert (x_mix >= lo).all() and (x_mix <= hi).all()
            assert (y_mix >= 0).all()
            assert np.abs(y_mix.sum(axis=1) - 1.0).max() <= 1e-12


class TestPseudoLabels:
    def test_hand_rows(self):
        model = manual_model([[math.log(0.1), math.log(0.7), math.log(0.2)]],
                             [0.0, 0.0, 0.0])
        labels, conf = pseudo_labels(model, np.array([[1.0]]))
        assert labels[0] == 1
        assert conf[0] == pytest.approx(0.7, abs=1e-12)

    def test_uniform_tie_breaks_low(self):
        model = manual_model([[0.0, 0.0, 0.0, 0.0]], [0.0] * 4)
        labels, conf = pseudo_labels(model, np.array([[3.0]]))
        assert labels[0] == 0
        assert conf[0] == pytest.approx(0.25, abs=1e-15)

    def test_batch_order_preserved(self):
        model = manual_model([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels, conf = pseudo_labels(model, x)
        assert labels.tolist() == [0, 1, 0]
        assert conf.shape == (3,)


class TestAdaptiveThreshold:
    def test_two_point_hand_case(self):
        # mean 0.7, population std 0.2
        stats = adaptive_threshold([[0.5, 0.9]])
        assert stats.tau[0] == pytest.approx(0.3, abs=1e-12)
        assert stats.above.tolist() == [[True, True]]
        assert (stats.num_above, stats.num_below) == (2, 0)

    def test_constant_batch(self):
        stats = adaptive_threshold([[0.6, 0.6, 0.6]])
        assert stats.tau[0] == pytest.approx(0.6, abs=1e-15)
        assert stats.num_above == 0        # strict inequality
        assert stats.num_below == 3
        assert not stats.below.any()       # at tau: in neither gate

    def test_clamp_to_zero(self):
        # mean 0.3, std sqrt(0.12): mean - 2 std < 0
        stats = adaptive_threshold([[0.1, 0.1, 0.1, 0.9]])
        assert stats.tau[0] == 0.0
        assert stats.num_above == 4

    def test_validation(self):
        for bad in ([], [[0.5, 1.2]], [[-0.1]], [0.5, 0.9], np.zeros((1, 2, 2))):
            with pytest.raises(ValueError):
                adaptive_threshold(bad)

    def test_gating_partition_random_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            conf = rng.uniform(size=(2, rng.integers(1, 40)))
            stats = adaptive_threshold(conf)
            assert np.array_equal(stats.above, conf > stats.tau[:, None])
            assert np.array_equal(stats.below, conf < stats.tau[:, None])
            assert not (stats.above & stats.below).any()
            assert stats.num_above == int(stats.above.sum())
            assert isinstance(stats.num_above, int) and isinstance(stats.num_below, int)

    def test_stacked_rows_equal_single_row_calls(self):
        # rows of a [2 x B] stack against [1 x B] calls and against the
        # formula on numpy's own 1-D mean and std, constant rows included
        rng = np.random.default_rng(13)
        for trial in range(300):
            conf = rng.uniform(size=(2, rng.integers(1, 40)))
            if trial % 3 == 0:
                conf[trial % 2] = conf[0, 0]
            stack = adaptive_threshold(conf)
            for k, row in enumerate(conf):
                one = adaptive_threshold(row[None])
                assert stack.tau[k] == one.tau[0]
                assert np.array_equal(stack.above[k], one.above[0])
                assert np.array_equal(stack.below[k], one.below[0])
                if row.min() < row.max():
                    mean, std = float(np.mean(row)), float(np.std(row))
                    assert stack.tau[k] == min(1.0, max(0.0, mean - 2.0 * std))
            assert stack.num_above + stack.num_below == conf.size

    def test_tau_bit_identical_to_numpy_std(self):
        # confidences near 1 keep mean - 2 std inside (0, 1), so the clamp
        # cannot hide a changed last bit of the std
        rng = np.random.default_rng(29)
        unclamped = 0
        for trial in range(2000):
            k, b = int(rng.integers(1, 4)), int(rng.integers(1, 200))
            conf = rng.uniform(rng.uniform(0.5, 0.99), 1.0, size=(k, b))
            if trial % 4 == 0:
                conf[trial % k] = conf[0, 0]  # a constant row
            elif trial % 4 == 1:
                conf[:, : b // 2] = conf[:, :1]  # repeated values
            mean, std = conf.mean(axis=1), conf.std(axis=1)
            const = conf.min(axis=1) == conf.max(axis=1)
            mean[const], std[const] = conf[const, 0], 0.0
            want = np.minimum(1.0, np.maximum(0.0, mean - 2.0 * std))
            tau = adaptive_threshold(conf).tau
            assert tau.tobytes() == want.tobytes(), (k, b)
            unclamped += int(((tau > 0.0) & (tau < 1.0)).sum())
        assert unclamped > 2000

    def test_stacked_constant_row_is_exact(self):
        # summed, three 0.7s give a mean an ulp low and a non-zero std
        stack = adaptive_threshold([[0.5, 0.9, 0.2], [0.7, 0.7, 0.7]])
        assert stack.tau[1] == 0.7
        assert not stack.above[1].any() and not stack.below[1].any()

    @pytest.mark.parametrize("bad", [[[0.5, 0.6], [np.nan, 0.5]],
                                     [[0.5, 0.6], [0.5, 1.2]],
                                     [[-0.1, 0.6], [0.5, 0.5]],
                                     np.zeros((2, 0))])
    def test_stacked_validation_holds_per_row(self, bad):
        with pytest.raises(ValueError):
            adaptive_threshold(bad)


class TestStackedLosses:
    """loss_fm, loss_bim and loss_sp on a [2 x B x C] stack against one 2-D
    call per model, bit for bit in values and gradients."""

    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        params = ParamSet({"z": rng.normal(0.0, 2.0, size=(2, 6, 3)),
                           "log_t": np.array([[0.3], [-0.4]])})
        return rng, params

    @staticmethod
    def _sp(params, selected):
        """loss_sp of the ``selected`` rows of ``params["z"]``."""
        z = params["z"]
        return sp_node(z, params["log_t"], gated_top1(softmax_t(z).data, selected))

    @staticmethod
    def _check(params, stacked, single):
        """``stacked(params)`` against ``single(model_k_params, k)``."""
        out = stacked(params)
        assert out.shape == (2,)
        upstream = np.array([0.7, -1.3])
        grads = named_grads(dot(out, upstream), params)
        for k in range(2):
            mine = ParamSet({name: t.data[k] for name, t in params.items()})
            want = single(mine, k)
            assert out.data[k].tobytes() == want.data.tobytes(), k
            want_grads = named_grads(mul(want, upstream[k]), mine)
            for name, g in want_grads.items():
                assert grads[name][k].tobytes() == g.tobytes(), (k, name)

    def test_loss_fm(self):
        rng, params = self._stack(14)
        y_mix = rng.dirichlet(np.ones(3), size=(2, 6))
        self._check(params, lambda p: fm_node(softmax_t(p["z"]), y_mix),
                    lambda p, k: fm_node(softmax_t(p["z"]), y_mix[k]))

    def test_loss_bim(self):
        rng, params = self._stack(15)
        teacher = rng.dirichlet(np.ones(3) * 0.5, size=(2, 6))
        above = np.array([split_gate(t.max(axis=1))[0] for t in teacher])
        hot = gated_top1(teacher, above)
        self._check(params, lambda p: bim_node(softmax_t(p["z"]), hot),
                    lambda p, k: bim_node(softmax_t(p["z"]), hot[k]))

    def test_loss_sp(self):
        rng, params = self._stack(16)
        conf = _np_softmax(params["z"].data.reshape(-1, 3)).max(axis=1).reshape(2, 6)
        below = np.array([split_gate(c)[1] for c in conf])
        self._check(params, lambda p: self._sp(p, below),
                    lambda p, k: self._sp(p, below[k]))
        out = self._sp(params, below)
        assert (out.data > 0.0).all()  # both gates let something through
        check_grads(lambda: dot(self._sp(params, below), np.array([0.7, -1.3])),
                    params)


class TestLossFm:
    def test_perfect_prediction_is_zero(self):
        # huge logit margin: predicted probability is 1.0 in float64
        model = manual_model([[60.0, 0.0]], [0.0, 0.0])
        x_mix = mixup(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        y_mix = mixup(one_hot(np.array([0]), 2), one_hot(np.array([0]), 2), 1.0)
        assert fm_node(probs_of(model, x_mix), y_mix).item() == 0.0

    def test_uniform_prediction_gives_ln2(self):
        model = manual_model([[0.0, 0.0]], [0.0, 0.0])
        x_mix = mixup(np.array([[1.0]]), np.array([[0.5]]), 1.0)
        y_mix = mixup(one_hot(np.array([0]), 2), one_hot(np.array([1]), 2), 1.0)
        assert fm_node(probs_of(model, x_mix), y_mix).item() == \
            pytest.approx(LN2, abs=1e-12)

    def test_lambda_one_reduces_to_source_cross_entropy(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, input_dim=2, widths=(4,), num_classes=3)
        xs, ys, xt, yt = random_batch(rng, 5, 2, 3)
        x_mix, y_mix = mixup(xs, xt, 1.0), mixup(one_hot(ys, 3), one_hot(yt, 3), 1.0)
        got = fm_node(probs_of(model, x_mix), y_mix).item()
        from fixbi.models import predict_probs
        p = predict_probs(model, xs)
        want = -np.mean(np.log(p[np.arange(5), ys]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        xs, ys, xt, yt = random_batch(rng, 4, 3, 3)
        x_mix, y_mix = mixup(xs, xt, 0.7), mixup(one_hot(ys, 3), one_hot(yt, 3), 0.7)
        check_grads(lambda: fm_node(probs_of(model, x_mix), y_mix), model.params)


class TestLossBim:
    def test_nothing_above_threshold_is_exact_zero(self):
        rng = np.random.default_rng(6)
        student = random_model(rng, input_dim=2, num_classes=2, widths=(3,))
        teacher_probs = np.array([[0.6, 0.4], [0.55, 0.45]])
        out = bim_node(probs_of(student, rng.normal(size=(2, 2))),
                       gated_top1(teacher_probs, np.array([False, False])))
        assert out.item() == 0.0
        grads = named_grads(out, student.params)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_confident_teacher_uniform_student_gives_ln2(self):
        student = manual_model([[0.0, 0.0]], [0.0, 0.0])
        out = bim_node(probs_of(student, np.array([[1.0]])),
                       gated_top1(np.array([[0.99, 0.01]]), np.array([True])))
        assert out.item() == pytest.approx(LN2, abs=1e-12)

    def test_student_matching_teacher_is_near_zero(self):
        student = manual_model([[60.0, 0.0]], [0.0, 0.0])
        out = bim_node(probs_of(student, np.array([[1.0]])),
                       gated_top1(np.array([[0.99, 0.01]]), np.array([True])))
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        student = random_model(rng)
        teacher = random_model(rng)
        xs, ys, xt, yt = random_batch(rng, 5, 3, 3)
        from fixbi.models import predict_probs
        teacher_probs = predict_probs(teacher, xt)
        above, _ = split_gate(teacher_probs.max(axis=1))  # some selected, some not
        check_grads(lambda: bim_node(probs_of(student, xt), gated_top1(teacher_probs, above)),
                    student.params)


class TestLossSp:
    def test_all_confident_is_exact_zero(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, input_dim=2, widths=(3,), num_classes=2)
        out = sp_of(model, rng.normal(size=(3, 2)), np.zeros(3, dtype=bool))
        assert out.item() == 0.0

    def test_uniform_low_confidence_closed_form(self):
        c = 4
        model = manual_model([[0.0] * c], [0.0] * c)
        out = sp_of(model, np.array([[1.0]]), np.array([True]))
        assert out.item() == pytest.approx(-math.log(1.0 - 1.0 / c), abs=1e-12)

    def test_gradient_including_temperature(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        xt = rng.normal(size=(6, 3))
        conf = pseudo_labels(model, xt)[1]
        check_grads(lambda: sp_of(model, xt, split_gate(conf)[1]), model.params)

    def test_temperature_gradient_hand_formula(self):
        # single selected sample: dL/dtheta from the closed form
        theta = 0.4
        model = manual_model([[1.0, -0.5, 0.2]], [0.0, 0.0, 0.0], theta=theta)
        xt = np.array([[0.8]])
        t = math.exp(theta)
        z = xt @ model.params["head.w"].data
        y = _np_softmax(z / t)[0]
        top = int(np.argmax(y))
        a = y[top]
        da_dt = -a * (z[0, top] - float((y * z[0]).sum())) / (t * t)
        want = (1.0 / (1.0 - a)) * da_dt * t  # chain through T = exp(theta)
        got = named_grads(sp_of(model, xt, np.array([True])),
                          model.params)["log_temperature"]
        assert got[0] == pytest.approx(want, rel=1e-10)


class TestLossCr:
    def test_identical_models_zero(self):
        rng = np.random.default_rng(10)
        model = random_model(rng)
        twin = clone_model(model)
        xs, ys, xt, yt = random_batch(rng, 4, 3, 3)
        assert cr_of(model, twin, xs, xt).item() == 0.0

    def test_opposite_onehot_predictions_give_two(self):
        a = manual_model([[60.0, 0.0]], [0.0, 0.0])
        b = manual_model([[0.0, 60.0]], [0.0, 0.0])
        xs = np.array([[1.0]])
        xt = np.array([[1.0]])
        out = cr_of(a, b, xs, xt)
        assert out.item() == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_under_model_swap(self):
        rng = np.random.default_rng(11)
        a, b = random_model(rng), random_model(rng)
        xs, ys, xt, yt = random_batch(rng, 5, 3, 3)
        assert cr_of(a, b, xs, xt).item() == \
            pytest.approx(cr_of(b, a, xs, xt).item(), rel=1e-15)

    def test_gradients_flow_into_both_models(self):
        rng = np.random.default_rng(12)
        a, b = random_model(rng), random_model(rng)
        xs, ys, xt, yt = random_batch(rng, 4, 3, 3)
        check_grads(lambda: cr_of(a, b, xs, xt), a.params)
        check_grads(lambda: cr_of(a, b, xs, xt), b.params)


class TestRatioRuleSample:
    def test_fixed_is_verbatim(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            lam_sd, lam_td = ratio_rule_sample("fixed", 1.0, (0.7, 0.3), rng)
            assert (lam_sd, lam_td) == (0.7, 0.3)
            assert lam_sd + lam_td == 1.0  # exact for the default pair

    def test_range_constraints(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            lam_sd, lam_td = ratio_rule_sample("range", 1.0, (0.7, 0.3), rng)
            assert lam_sd >= 0.5
            assert lam_sd + lam_td == 1.0

    def test_random_alpha_one_is_uniform(self):
        rng = np.random.default_rng(15)
        draws = np.array([ratio_rule_sample("random", 1.0, (0.7, 0.3), rng)
                          for _ in range(50_000)]).ravel()  # 1e5 draws
        assert abs(draws.mean() - 0.5) < 0.01

    def test_validation(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            ratio_rule_sample("banana", 1.0, (0.7, 0.3), rng)
        with pytest.raises(ValueError):
            ratio_rule_sample("random", 0.0, (0.7, 0.3), rng)


# ---------------------------------------------------------------------------
# training-loop contracts
# ---------------------------------------------------------------------------

def tiny_pair(seed=0, n=16, d=2, c=2):
    rng = np.random.default_rng(seed)
    source = Dataset(rng.normal(size=(n, d)), rng.integers(0, c, size=n), c, "source")
    target = Dataset(rng.normal(size=(n, d)), np.full(n, -1), c, "target",
                     hidden_labels=rng.integers(0, c, size=n))
    return source, target


def tiny_config(**overrides) -> TrainConfig:
    base = dict(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=8),
                arch=(4,), batch_size=4, epochs=4, warmup_epochs=2,
                baseline_epochs=2, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainFixbi:
    def test_warmup_only_run_has_zero_matching_columns(self):
        source, target = tiny_pair()
        cfg = tiny_config(epochs=3, warmup_epochs=3)
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        _, rows = train_fixbi(cfg, source, target, init)
        assert len(rows) == 3
        for r in rows:
            assert r.bim_sd == 0.0 and r.bim_td == 0.0 and r.cr == 0.0

    def test_warmup_only_weights_match_deleted_loss_paths(self):
        source, target = tiny_pair()
        init = init_model(source.dim, (4,), source.num_classes, 1)
        cfg_gated = tiny_config(epochs=3, warmup_epochs=3)
        cfg_disabled = tiny_config(epochs=3, warmup_epochs=3,
                                   loss_bim=False, loss_cr=False)
        state_a, _ = train_fixbi(cfg_gated, source, target, init)
        state_b, _ = train_fixbi(cfg_disabled, source, target, init)
        assert value_bytes(state_a.sdm.params) == value_bytes(state_b.sdm.params)
        assert value_bytes(state_a.tdm.params) == value_bytes(state_b.tdm.params)

    def test_determinism_bitwise(self):
        source, target = tiny_pair()
        cfg = tiny_config()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        state_a, rows_a = train_fixbi(cfg, source, target, init)
        state_b, rows_b = train_fixbi(cfg, source, target, init)
        assert value_bytes(state_a.sdm.params) == value_bytes(state_b.sdm.params)
        assert rows_a == rows_b

    def test_threshold_trace_covers_every_iteration(self):
        source, target = tiny_pair()
        cfg = tiny_config()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        state, _ = train_fixbi(cfg, source, target, init)
        n_batches = source.n // cfg.batch_size
        assert len(state.threshold_trace) == cfg.epochs * n_batches
        for _, _, tau_sd, tau_td, _, _ in state.threshold_trace:
            assert 0.0 <= tau_sd <= 1.0 and 0.0 <= tau_td <= 1.0

    def test_gate_columns_are_the_epoch_sums_of_the_trace(self):
        # metrics.csv and threshold.csv agree bit for bit: each epoch's
        # tau_* is the in-order sum of its trace rows over the batch count
        source, target = tiny_pair(n=48)
        cfg = tiny_config(batch_size=4, epochs=3, warmup_epochs=1)
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        state, rows = train_fixbi(cfg, source, target, init)
        n_batches = source.n // cfg.batch_size
        for row in rows:
            trace = [t for t in state.threshold_trace if t[0] == row.epoch]
            assert len(trace) == n_batches
            sums = [0.0, 0.0, 0, 0]
            for t in trace:
                sums = [a + b for a, b in zip(sums, t[2:])]
            assert (row.tau_sd, row.tau_td) == (sums[0] / n_batches, sums[1] / n_batches)
            assert (row.n_above_sd, row.n_above_td) == (sums[2], sums[3])

    def test_frozen_baseline_pseudo_label_source_runs(self):
        source, target = tiny_pair()
        cfg = tiny_config(pseudo_label_source="frozen-baseline")
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        state, rows = train_fixbi(cfg, source, target, init)
        assert len(rows) == cfg.epochs

    def test_invalid_config_raises_before_training(self):
        # the trainer validates its own config: zero epochs is a
        # ConfigError, not a run that returns no rows
        source, target = tiny_pair()
        init = init_model(source.dim, (4,), source.num_classes, 1)
        with pytest.raises(ConfigError, match="^epochs:"):
            train_fixbi(tiny_config(epochs=0), source, target, init)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        source, target = tiny_pair()
        cfg = tiny_config()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        init.params["head.w"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError,
                           match=r"target_probs_sd.*epoch 1 iteration 1"):
            train_fixbi(cfg, source, target, init)

    @pytest.mark.parametrize("theta", [710.0, -800.0, math.nan])
    def test_unusable_temperature_aborts_before_the_step(self, monkeypatch, theta):
        # exp(710) overflows to T = inf (a uniform tempered softmax and a NaN
        # temperature gradient, were it let through), exp(-800) underflows
        # to 0: the run stops with the model's term, not a bare ValueError
        import fixbi.core as core

        steps = []
        monkeypatch.setattr(core, "sgd_step", lambda *args: steps.append(args))
        source, target = tiny_pair()
        cfg = tiny_config()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        init.params["log_temperature"].data[...] = theta
        with pytest.raises(NonFiniteLossError, match=r"temp_sd=.* epoch 1 iteration 1") as info:
            train_fixbi(cfg, source, target, init)
        assert (info.value.term, info.value.rows, steps) == ("temp_sd", [], [])

    def test_unusable_temperature_names_its_model_and_carries_rows(self, monkeypatch):
        # model td's temperature overflows after the first epoch: the abort
        # names it, carries epoch 1's row and takes no step in epoch 2
        import fixbi.core as core

        steps, real_step, real_evaluate = [], core.sgd_step, core._evaluate

        def step(*args):
            steps.append(args)
            return real_step(*args)

        def evaluate(pair, source, target):
            pair.params["log_temperature"].data[1] = 710.0
            return real_evaluate(pair, source, target)

        monkeypatch.setattr(core, "sgd_step", step)
        monkeypatch.setattr(core, "_evaluate", evaluate)
        source, target = tiny_pair()
        cfg = tiny_config()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        with pytest.raises(NonFiniteLossError,
                           match=r"temp_td=inf at epoch 2 iteration 1") as info:
            train_fixbi(cfg, source, target, init)
        assert [r.epoch for r in info.value.rows] == [1]
        assert len(steps) == 16 // cfg.batch_size

    def test_abort_carries_completed_epoch_rows(self):
        # an absurd learning rate blows the weights up after a few steps;
        # the error must carry the epochs that finished before the abort
        source, target = tiny_pair(n=8)
        cfg = tiny_config(batch_size=8, epochs=8, warmup_epochs=8, lr0=1e150)
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError) as excinfo:
                train_fixbi(cfg, source, target, init)
        err = excinfo.value
        assert err.epoch >= 2
        assert len(err.rows) == err.epoch - 1
        assert all(r.epoch == i + 1 for i, r in enumerate(err.rows))

    def test_each_model_is_taught_by_its_partner_through_the_partners_gate(
            self, monkeypatch):
        # model k's matching labels are its partner's gated top-1 rows. The
        # models start equal, so the check only bites once their tables
        # differ; at lr0 = 0.5 they do in some iterations
        import fixbi.core as core

        stats, calls = [], []
        real_threshold, real_bim = core.adaptive_threshold, core.loss_bim

        def threshold(conf):
            stats.append(real_threshold(conf))
            return stats[-1]

        def bim(student_probs, teacher_hot):
            own = gated_top1(student_probs, stats[-1].above)
            calls.append((own, teacher_hot))
            return real_bim(student_probs, teacher_hot)

        monkeypatch.setattr(core, "adaptive_threshold", threshold)
        monkeypatch.setattr(core, "loss_bim", bim)
        source, target = tiny_pair()
        cfg = tiny_config(lr0=0.5, lambda_sd=0.9, lambda_td=0.1)
        train_fixbi(cfg, source, target, init_model(source.dim, cfg.arch, 2, cfg.seed))
        assert len(calls) == 8  # two matching epochs of four batches
        for own, teacher_hot in calls:
            assert teacher_hot.tobytes() == own[::-1].tobytes()
        assert any(not np.array_equal(own[0], own[1]) for own, _ in calls)


class TestLoopShape:
    """One stacked graph forward, one reverse walk and one SGD step per
    iteration for both models."""

    @staticmethod
    def _per_iteration_counts(monkeypatch, cfg):
        import fixbi.core as core
        import fixbi.models as models

        events: list[tuple] = []
        batches, walk, step, extract, infer = (
            core.paired_minibatches, core.backward, core.sgd_step,
            models.extract_features, core.predict_probs)

        def counted_batches(*args):
            for batch in batches(*args):
                events.append(("iter", args[3]))
                yield batch

        def counted_walk(loss, params):
            events.append(("walk",))
            return walk(loss, params)

        def counted_step(*args, **kwargs):
            events.append(("step",))
            return step(*args, **kwargs)

        def counted_extract(model, x):
            events.append(("fwd",))
            return extract(model, x)

        def counted_infer(model, x):
            events.append(("infer",))
            return infer(model, x)

        monkeypatch.setattr(core, "paired_minibatches", counted_batches)
        monkeypatch.setattr(core, "backward", counted_walk)
        monkeypatch.setattr(core, "sgd_step", counted_step)
        monkeypatch.setattr(models, "extract_features", counted_extract)
        monkeypatch.setattr(core, "predict_probs", counted_infer)
        source, target = tiny_pair()
        init = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        train_fixbi(cfg, source, target, init)

        # (epoch, walks, steps, graph forwards, graph-free forwards) per
        # iteration, forwards counted up to the walk; forwards after the
        # walk are the end-of-epoch evaluation
        out = []
        for e in events:
            if e[0] == "iter":
                out.append([e[1], 0, 0, 0, 0])
            elif out and e[0] == "walk":
                out[-1][1] += 1
            elif out and e[0] == "step":
                out[-1][2] += 1
            elif out and out[-1][1] == 0:
                out[-1][3 if e[0] == "fwd" else 4] += 1
        return out

    @pytest.mark.parametrize("pseudo,extra", [("live", 0), ("frozen-baseline", 0)])
    def test_one_forward_one_walk_one_step(self, monkeypatch, pseudo, extra):
        # both models run in one stacked forward in warm-up and matching
        # alike; the frozen teacher labels the whole target set once per
        # run, before the first iteration, so no iteration pays a
        # graph-free forward
        cfg = tiny_config(pseudo_label_source=pseudo)
        counts = self._per_iteration_counts(monkeypatch, cfg)
        assert len(counts) == cfg.epochs * (16 // cfg.batch_size)
        for epoch, walks, steps, forwards, inferred in counts:
            assert (walks, steps, forwards, inferred) == (1, 1, 1, extra), epoch


@pytest.mark.parametrize("trainer", [
    train_source_only, train_dann,
    lambda cfg, source, target: train_fixbi(
        cfg, source, target, init_model(source.dim, cfg.arch, 2, cfg.seed))],
    ids=["source-only", "dann", "fixbi"])
def test_schedule_covers_every_step_on_domains_of_different_sizes(monkeypatch, trainer):
    # 20 source rows and 12 target rows in batches of 4: the larger domain
    # sets the epoch at 5 batches, so S = epochs * 5 steps run at k / S; all
    # three trainers take their steps in core's loop
    import fixbi.core as core

    progress: list[float] = []

    def recorded(lr0, p):
        progress.append(p)
        return lr_schedule(lr0, p)

    monkeypatch.setattr(core, "lr_schedule", recorded)
    (source, _), (_, target) = tiny_pair(n=20), tiny_pair(n=12)
    cfg = tiny_config(epochs=3, warmup_epochs=1, baseline_epochs=3)
    trainer(cfg, source, target)
    steps = 3 * 5
    assert progress == [k / steps for k in range(steps)]


_TRAINERS = {
    "source-only": train_source_only, "dann": train_dann,
    "fixbi": lambda cfg, source, target: train_fixbi(
        cfg, source, target, init_model(source.dim, cfg.arch, 2, cfg.seed))}


@pytest.mark.parametrize("name,pseudo,calls", [
    ("source-only", "live", 0), ("dann", "live", 1),
    ("fixbi", "live", 0), ("fixbi", "frozen-baseline", 1)])
def test_one_hot_runs_a_fixed_number_of_times_per_run(monkeypatch, name, pseudo, calls):
    # label rows come from each run's identity table: one_hot builds only
    # the DANN domain table (once per batch shape) and the frozen labels
    import fixbi.baseline as baseline
    import fixbi.core as core

    counted: list[tuple] = []

    def counted_one_hot(labels, num_classes):
        counted.append(np.shape(labels))
        return one_hot(labels, num_classes)

    monkeypatch.setattr(baseline, "one_hot", counted_one_hot)
    monkeypatch.setattr(core, "one_hot", counted_one_hot)
    source, target = tiny_pair()
    for epochs in (2, 4):
        baseline._domain_labels.cache_clear()
        counted.clear()
        _TRAINERS[name](tiny_config(epochs=epochs, warmup_epochs=1, baseline_epochs=epochs,
                                    pseudo_label_source=pseudo), source, target)
        assert len(counted) == calls, (epochs, counted)


@pytest.mark.parametrize("name", sorted(_TRAINERS))
@pytest.mark.parametrize("label", [-1, 2])
def test_trainer_checks_every_source_label_on_entry(monkeypatch, name, label):
    # the label-row gather trusts the labels, so an unlabeled row (or one
    # past the class count) stops the run before its first step
    import fixbi.baseline as baseline
    import fixbi.core as core

    monkeypatch.setattr(baseline, "paired_minibatches", None)
    monkeypatch.setattr(core, "paired_minibatches", None)
    source, target = tiny_pair()
    source.labels[5] = label
    source.labels[9] = -1
    with pytest.raises(ValueError) as exc:
        _TRAINERS[name](tiny_config(), source, target)
    assert str(exc.value) == (f"source row 5: label {label}, but training needs "
                              "every row's class in [0, 2)")


class TestStackedMatchesTwoModels:
    """The stacked loop against the two-model composition of the public
    losses: a separate forward per model and input, then one walk and one
    SGD step per model."""

    @staticmethod
    def _two_model_run(cfg, source, target, init):
        sdm, tdm = clone_model(init), clone_model(init)
        n_batches = source.n // cfg.batch_size
        total_steps = cfg.epochs * n_batches
        step, losses = 0, []
        for epoch in range(1, cfg.epochs + 1):
            matching = epoch > cfg.warmup_epochs
            for batch in paired_minibatches(source, target, cfg.batch_size,
                                            epoch, cfg.seed):
                lr = lr_schedule(cfg.lr0, step / total_steps)
                ys_hot = one_hot(batch.ys, init.num_classes)
                logits = {m: network(model, batch.xt)[1]
                          for m, model in (("sd", sdm), ("td", tdm))}
                q = {m: softmax_t(z) for m, z in logits.items()}
                gate = {m: adaptive_threshold(p.data.max(axis=1)[None])
                        for m, p in q.items()}
                terms = {}
                for m, model, lam in (("sd", sdm, cfg.lambda_sd),
                                      ("td", tdm, cfg.lambda_td)):
                    pl = one_hot(np.argmax(q[m].data, axis=1), init.num_classes)
                    x_mix = mixup(batch.xs, batch.xt, lam)
                    probs = probs_of(model, x_mix)
                    terms[f"fm_{m}"] = fm_node(probs, mixup(ys_hot, pl, lam))
                    terms[f"sp_{m}"] = sp_node(logits[m], model.params["log_temperature"],
                                               gated_top1(q[m].data, gate[m].below[0]))
                if matching:
                    terms["bim_sd"] = bim_node(q["sd"], gated_top1(q["td"].data,
                                                                   gate["td"].above[0]))
                    terms["bim_td"] = bim_node(q["td"], gated_top1(q["sd"].data,
                                                                   gate["sd"].above[0]))
                    x_half = 0.5 * batch.xs + 0.5 * batch.xt
                    terms["cr"] = cr_node(probs_of(sdm, x_half), probs_of(tdm, x_half))
                losses.append({name: t.item() for name, t in terms.items()})
                total = None
                for t in terms.values():
                    total = t if total is None else add(total, t)
                # a copy: the second walk reaches sdm's networks too and
                # adds into sdm's gradient buffer again
                g_sd = graph_backward(total, sdm.params).copy()
                g_td = graph_backward(total, tdm.params)
                sgd_step(sdm.params, g_sd, lr, cfg.momentum, cfg.weight_decay)
                sgd_step(tdm.params, g_td, lr, cfg.momentum, cfg.weight_decay)
                step += 1
        return sdm, tdm, losses

    def test_weights_and_losses_agree_to_1e_12(self):
        # two target points near the origin sit below the confidence gate,
        # so self-penalization runs in every iteration; two warm-up epochs,
        # then two matching epochs between diverged models
        rng = np.random.default_rng(5)
        xt = rng.normal(size=(16, 3)) * 3.0
        xt[:2] *= 0.01
        source = Dataset(rng.normal(size=(16, 3)), rng.integers(0, 3, size=16), 3,
                         "source")
        target = Dataset(xt, np.full(16, -1), 3, "target",
                         hidden_labels=rng.integers(0, 3, size=16))
        init = random_model(rng, 3, (6, 5), 3)
        cfg = tiny_config(arch=(6, 5), batch_size=16, epochs=4, warmup_epochs=2,
                          dataset=DatasetSpec(kind="blobs", num_classes=3,
                                              per_class=8))
        state, rows = train_fixbi(cfg, source, target, init)
        sdm, tdm, losses = self._two_model_run(cfg, source, target, init)
        for got, want in ((state.sdm, sdm), (state.tdm, tdm)):
            for name, t in want.params.items():
                assert np.abs(got.params[name].data - t.data).max() < 1e-12, name
        # one iteration per epoch: each row holds that iteration's losses
        for row, want in zip(rows, losses, strict=True):
            assert row.sp_sd > 0.0 and row.sp_td > 0.0
            assert (row.cr > 0.0) == (row.epoch > cfg.warmup_epochs)
            for name, value in want.items():
                assert abs(getattr(row, name) - value) < 1e-12, (row.epoch, name)


class TestOneObjectiveNode:
    """Each dual step's gradient and update against the composed graph of
    ``helpers.composed_dual_loss``: a ``take`` per slice, a log-loss node per
    loss kind and the terms added, bit for bit."""

    @pytest.mark.parametrize("pseudo", ["live", "frozen-baseline"])
    @pytest.mark.parametrize("losses", ["fm", "fm+bim", "fm+bim+sp", "fm+sp+cr",
                                        "fm+bim+sp+cr"])
    def test_steps_bit_identical_to_composed_graph(self, monkeypatch, losses, pseudo):
        # a warm-up step, then a matching step between the models it made
        # differ, so that cr and bim see two different models
        import fixbi.core as core

        steps = []
        real_forward, real_step = core.forward_logits, core.sgd_step

        def forward(model, x):
            steps.append({"x": x})
            return real_forward(model, x)

        def step(params, grads, *args):
            steps[-1].update(grads=grads.copy(), args=args)
            return real_step(params, grads, *args)

        monkeypatch.setattr(core, "forward_logits", forward)
        monkeypatch.setattr(core, "sgd_step", step)
        # one batch of the whole set; two target points near the origin sit
        # below the gate, the rest above it
        rng = np.random.default_rng(5)
        xt = rng.normal(size=(16, 3)) * 3.0
        xt[:2] *= 0.01
        source = Dataset(rng.normal(size=(16, 3)), rng.integers(0, 3, size=16), 3,
                         "source")
        target = Dataset(xt, np.full(16, -1), 3, "target",
                         hidden_labels=rng.integers(0, 3, size=16))
        init = random_model(rng, 3, (6, 5), 3)
        on = losses.split("+")
        cfg = tiny_config(arch=(6, 5), batch_size=16, epochs=2, warmup_epochs=1,
                          loss_bim="bim" in on, loss_sp="sp" in on, loss_cr="cr" in on,
                          pseudo_label_source=pseudo,
                          dataset=DatasetSpec(kind="blobs", num_classes=3, per_class=8))
        state, _ = train_fixbi(cfg, source, target, init)

        pair = stack_models([init, init])
        frozen = (one_hot(np.tile(pseudo_labels(init, xt)[0], (2, 1)), 3)
                  if pseudo == "frozen-baseline" else None)
        steps = [s for s in steps if "grads" in s]  # the evaluation's forwards aside
        assert len(steps) == 2
        for epoch, seen in enumerate(steps, start=1):
            batch = next(iter(paired_minibatches(source, target, 16, epoch, cfg.seed)))
            loss, stats = composed_dual_loss(cfg, pair, seen["x"], batch, epoch > 1, frozen)
            assert stats.above.any(axis=1).all() and stats.below.any(axis=1).all()
            want = graph_backward(loss, pair.params)
            assert np.array_equal(seen["grads"], want), epoch
            sgd_step(pair.params, want, *seen["args"])
        assert not np.array_equal(pair.params["head.w"].data[0], pair.params["head.w"].data[1])
        for k, model in enumerate((state.sdm, state.tdm)):
            for name, t in model.params.items():
                assert t.data.tobytes() == pair.params[name].data[k].tobytes(), (k, name)


class TestExactOracleIteration:
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    def test_matches_training_loop_to_1e_10(self, epochs):
        # epochs >= 2 exercises matching between diverged models and the
        # momentum carry-over; epoch 1 starts from the shared pretrained copy
        from helpers import ExactOracleCheck
        worst = ExactOracleCheck(epochs=epochs).run()
        assert worst < 1e-10

    @staticmethod
    def _label_flipping_check(pseudo):
        # matching off and a class-0-biased init: the mislabeled target
        # sample flips under the source pull around epoch 18, so the live
        # and frozen label sources produce different trajectories
        from helpers import ExactOracleCheck
        check = ExactOracleCheck(epochs=20, pseudo=pseudo, with_matching=False)
        check.LR = 0.1
        check.B0 = np.array([0.2, -0.2])
        return check

    @pytest.mark.parametrize("pseudo", ["live", "frozen-baseline"])
    def test_label_source_modes_match_their_oracles(self, pseudo):
        worst = self._label_flipping_check(pseudo).run()
        assert worst < 1e-10

    def test_frozen_and_live_modes_diverge(self):
        w_live = self._label_flipping_check("live").hand_unrolled()["sd"][0]
        w_frozen = self._label_flipping_check(
            "frozen-baseline").hand_unrolled()["sd"][0]
        assert np.abs(w_live - w_frozen).max() > 1e-6
