"""Source-only and adversarial baselines: convergence, determinism, the
zero-lambda degeneration, and the discriminator oracle."""
from __future__ import annotations

import numpy as np
import pytest

from fixbi.baseline import dann_objective, train_dann, train_source_only
from fixbi.config import ConfigError, DatasetSpec, TrainConfig
from fixbi.core import NonFiniteLossError
from fixbi.data import gen_blobs_shift, one_hot
from fixbi.models import init_discriminator, init_model
from fixbi.numerics import ParamSet, Tensor, sgd_step
from helpers import (add, affine, clamp_min, composed_dann_loss, disc_node, dot,
                     features_node, graph_backward, grl, log, log_loss, mul, named_grads,
                     probs_of, random_batch, random_model, softmax_t, value_bytes)


def blob_config(**overrides) -> TrainConfig:
    base = dict(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=50),
                arch=(16, 8), batch_size=16, baseline_epochs=30, lr0=0.01, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def separable_pair(seed=0):
    # widely separated 2-class blobs: trivially learnable
    source, target = gen_blobs_shift(2, 50, 2, rotation_deg=0.0,
                                     translation=(), noise_sigma=0.05, seed=seed)
    return source, target


@pytest.mark.parametrize("trainer", [train_source_only, train_dann])
def test_trainer_validates_its_config(trainer):
    source, target = separable_pair()
    with pytest.raises(ConfigError, match="^lr0:"):
        trainer(blob_config(lr0=-1.0), source, target)


def test_dann_domain_table_is_built_once_per_shape_and_read_only():
    import fixbi.baseline as baseline

    baseline._domain_labels.cache_clear()
    table = baseline._domain_labels(6, 4)
    assert table.tobytes() == one_hot(np.arange(6) >= 4, 2).tobytes()
    assert baseline._domain_labels(6, 4) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    assert baseline._domain_labels(8, 4) is not table


class TestSourceOnly:
    def test_separable_source_reaches_full_accuracy(self):
        source, target = separable_pair()
        result = train_source_only(blob_config(), source, target)
        assert result.source_acc == 1.0
        assert len(result.history) == 30
        assert result.history[-1].acc_src == 1.0

    def test_zero_epochs_is_chance_level(self):
        # clusters drowned in noise: any random decision boundary scores
        # chance on the balanced labels
        source, target = gen_blobs_shift(2, 100, 2, noise_sigma=5.0, seed=3)
        result = train_source_only(blob_config(baseline_epochs=0), source, target)
        assert result.source_acc == pytest.approx(0.5, abs=0.2)
        assert result.history == []

    def test_fixed_seed_deterministic(self):
        source, target = separable_pair()
        a = train_source_only(blob_config(baseline_epochs=5), source, target)
        b = train_source_only(blob_config(baseline_epochs=5), source, target)
        assert value_bytes(a.model.params) == value_bytes(b.model.params)
        assert a.source_acc == b.source_acc and a.target_acc == b.target_acc

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_final_accuracies_reuse_the_last_epochs_evaluation(self, monkeypatch,
                                                               epochs):
        import fixbi.baseline as baseline

        calls = []
        accuracies = baseline._accuracies

        def counted(*args):
            calls.append(args)
            return accuracies(*args)

        monkeypatch.setattr(baseline, "_accuracies", counted)
        source, target = separable_pair()
        result = train_source_only(blob_config(baseline_epochs=epochs), source, target)
        # one evaluation per epoch; with no epoch, one for the result
        assert len(calls) == max(epochs, 1)
        assert (result.source_acc, result.target_acc) == accuracies(
            result.model, source, target)

    def test_accuracies_in_unit_interval(self):
        source, target = separable_pair()
        result = train_source_only(blob_config(baseline_epochs=3), source, target)
        assert 0.0 <= result.source_acc <= 1.0
        assert 0.0 <= result.target_acc <= 1.0


class TestDann:
    def test_zero_lambda_matches_source_only_classifier_trajectory(self):
        source, target = separable_pair(seed=1)
        cfg = blob_config(baseline_epochs=8, grl_lambda=0.0, seed=1)
        so = train_source_only(cfg, source, target)
        da = train_dann(cfg, source, target)
        # same seed, same batch stream, zero adversarial gradient: the
        # classifier path is step-for-step identical
        assert value_bytes(so.model.params) == value_bytes(da.model.params)
        for ra, rb in zip(so.history, da.history):
            assert ra.acc_src == rb.acc_src
            assert ra.acc_tgt == rb.acc_tgt

    def test_nonzero_lambda_changes_classifier(self):
        source, target = separable_pair(seed=2)
        cfg0 = blob_config(baseline_epochs=8, grl_lambda=1.0, seed=2)
        so = train_source_only(cfg0, source, target)
        da = train_dann(cfg0, source, target)
        assert value_bytes(so.model.params) != value_bytes(da.model.params)

    def test_returned_model_holds_only_classifier_tensors(self):
        # the discriminator trains in the classifier's set, but must not
        # reach the dual pair or its checkpoints
        source, target = separable_pair()
        cfg = blob_config(baseline_epochs=1)
        model = train_dann(cfg, source, target).model
        fresh = init_model(source.dim, cfg.arch, source.num_classes, cfg.seed)
        assert model.params.names() == fresh.params.names()
        assert not any(model.params.momentum(n).any() for n in model.params.names())

    def test_objective_gradient_matches_finite_differences(self):
        # the reversal layer makes the combined scalar a min-max objective:
        # classifier params descend class - lambda*domain, the discriminator
        # descends class + domain; each group gets its own FD target
        rng = np.random.default_rng(20)
        lam = 0.8
        model = random_model(rng)
        disc = init_discriminator(model.feature_dim, 4, seed=21, grl_lambda=lam)
        for _, t in disc.params.items():
            t.data[...] = rng.normal(0.0, 0.5, size=t.data.shape)
        xs, ys, xt, _ = random_batch(rng, 4, 3, 3)
        ys_hot = np.eye(3)[ys]

        analytic_clf = named_grads(dann_objective(model, disc, xs, ys_hot, xt)[0],
                                   model.params)
        analytic_disc = named_grads(dann_objective(model, disc, xs, ys_hot, xt)[0],
                                    disc.params)

        def clf_target():
            _, c, d = dann_objective(model, disc, xs, ys_hot, xt)
            return c.item() - lam * d.item()

        def disc_target():
            _, c, d = dann_objective(model, disc, xs, ys_hot, xt)
            return c.item() + d.item()

        from helpers import finite_diff_grads, max_rel_error
        assert max_rel_error(analytic_clf,
                             finite_diff_grads(clf_target, model.params)) < 1e-4
        assert max_rel_error(analytic_disc,
                             finite_diff_grads(disc_target, disc.params)) < 1e-4

    @staticmethod
    def _two_pass_losses(model, disc, xs, ys_hot, xt):
        """Reference: separate extractor and discriminator passes for the
        source and the target batch."""
        def log_probs(z):
            return log(clamp_min(softmax_t(z), 1e-12))

        feat_s = features_node(model, xs)
        feat_t = features_node(model, xt)
        logits = affine(feat_s, model.params["head.w"], model.params["head.b"])
        class_loss = mul(dot(ys_hot, log_probs(logits)), -1.0 / len(xs))
        log_s = log_probs(disc_node(disc, grl(feat_s, disc.grl_lambda)))
        log_t = log_probs(disc_node(disc, grl(feat_t, disc.grl_lambda)))
        domain_loss = add(dot(log_s, np.array([1.0, 0.0])), dot(log_t, np.array([0.0, 1.0])))
        return class_loss, mul(domain_loss, -1.0 / (len(xs) + len(xt)))

    def test_stacked_losses_match_two_pass_reference(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            model = random_model(rng)
            disc = init_discriminator(model.feature_dim, 4, seed=trial,
                                      grl_lambda=float(rng.uniform(0.1, 1.5)))
            for _, t in disc.params.items():
                t.data[...] = rng.normal(0.0, 0.5, size=t.data.shape)
            xs, ys, xt, _ = random_batch(rng, int(rng.integers(1, 6)), 3, 3)
            ys_hot = np.eye(3)[ys]
            got = dann_objective(model, disc, xs, ys_hot, xt)[1:]
            want = self._two_pass_losses(model, disc, xs, ys_hot, xt)
            for g, w in zip(got, want):
                assert abs(g.item() - w.item()) <= 1e-12
            for params in (model.params, disc.params):
                got_grads = named_grads(dann_objective(model, disc, xs, ys_hot, xt)[0], params)
                want_grads = named_grads(add(want[0], want[1]), params)
                for name in want_grads:
                    assert np.abs(got_grads[name] - want_grads[name]).max() <= 1e-12, name

    def test_dann_beats_source_only_on_rotated_blobs(self, ordering_battery):
        cells = ordering_battery["seeds"].values()
        dann_accs = [r["dann"].target_acc for r in cells]
        src_accs = [r["source_only"].target_acc for r in cells]
        assert np.mean(dann_accs) >= np.mean(src_accs)


class TestStepsMatchComposedGraph:
    """Each baseline step's gradient vector and update against the helpers'
    composed graph, bit for bit: DANN at a zero and a non-unit reversal
    weight, and source-only."""

    @staticmethod
    def _check(monkeypatch, trainer, cfg, params, composed):
        """Run ``trainer`` for ``cfg`` (two steps), then replay each step on
        ``params`` from the gradient of ``composed(batch)``."""
        import fixbi.baseline as baseline
        import fixbi.core as core

        steps = []
        batches, real_step = baseline.paired_minibatches, core.sgd_step

        def recorded_batches(*args):
            for batch in batches(*args):
                steps.append({"batch": batch})
                yield batch

        def step(ps, grads, *args):
            steps[-1].update(before=value_bytes(ps), grads=grads.copy(), args=args)
            real_step(ps, grads, *args)
            steps[-1]["after"] = value_bytes(ps)
            return ps

        monkeypatch.setattr(baseline, "paired_minibatches", recorded_batches)
        monkeypatch.setattr(core, "sgd_step", step)
        source, target = separable_pair(seed=cfg.seed)
        trainer(cfg, source, target)
        assert len(steps) == 2
        for seen in steps:
            assert value_bytes(params) == seen["before"]
            want = graph_backward(composed(seen["batch"]), params)
            assert want.any() and np.array_equal(seen["grads"], want)
            sgd_step(params, want, *seen["args"])
            assert value_bytes(params) == seen["after"]

    @pytest.mark.parametrize("grl_lambda", [0.0, 0.6])
    def test_dann(self, monkeypatch, grl_lambda):
        import fixbi.baseline as baseline

        cfg = blob_config(baseline_epochs=1, batch_size=50, grl_lambda=grl_lambda, seed=4)
        model = init_model(2, cfg.arch, 2, cfg.seed)
        disc = init_discriminator(model.feature_dim, baseline._DISC_HIDDEN,
                                  [cfg.seed, baseline._DISC_STREAM], grl_lambda)
        model.params = disc.params = ParamSet(
            {name: t.data for ps in (model.params, disc.params) for name, t in ps.items()})
        self._check(monkeypatch, train_dann, cfg, model.params, lambda b: composed_dann_loss(
            model, disc, b.xs, one_hot(b.ys, 2), b.xt))

    def test_source_only(self, monkeypatch):
        cfg = blob_config(baseline_epochs=1, batch_size=50, seed=5)
        model = init_model(2, cfg.arch, 2, cfg.seed)
        self._check(monkeypatch, train_source_only, cfg, model.params, lambda b: log_loss(
            probs_of(model, b.xs), one_hot(b.ys, 2), b.xs.shape[0]))


@pytest.mark.parametrize("trainer", [train_dann, train_source_only])
def test_one_walk_and_one_forward_per_iteration(monkeypatch, trainer):
    # and one SGD step: DANN's classifier and discriminator are one set
    # (the walk and the step run in core's training loop)
    import fixbi.baseline as baseline
    import fixbi.core as core
    import fixbi.models as models

    counts: list[list[int]] = []  # [walks, forwards up to the walk, steps]
    batches, walk, extract, step = (baseline.paired_minibatches, core.backward,
                                    models.extract_features, core.sgd_step)

    def counted_batches(*args):
        for batch in batches(*args):
            counts.append([0, 0, 0])
            yield batch

    def counted_walk(loss, params):
        counts[-1][0] += 1
        return walk(loss, params)

    def counted_extract(model, x):
        if counts and counts[-1][0] == 0:
            counts[-1][1] += 1
        return extract(model, x)

    def counted_step(*args, **kwargs):
        counts[-1][2] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(baseline, "paired_minibatches", counted_batches)
    monkeypatch.setattr(core, "backward", counted_walk)
    monkeypatch.setattr(models, "extract_features", counted_extract)
    monkeypatch.setattr(core, "sgd_step", counted_step)
    source, target = separable_pair()
    trainer(blob_config(baseline_epochs=2), source, target)
    assert len(counts) == 2 * (100 // 16)
    assert all(c == [1, 1, 1] for c in counts), counts


@pytest.mark.parametrize("trainer, term", [(train_dann, "dann"),
                                           (train_source_only, "source_ce")])
def test_abort_names_term_and_carries_completed_epochs(trainer, term):
    # a huge step size drives the weights to inf within a few epochs
    source, target = separable_pair()
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLossError) as info:
        trainer(blob_config(baseline_epochs=5, lr0=1e10), source, target)
    err = info.value
    assert err.term == term
    assert err.epoch > 1  # at least one completed epoch to carry
    assert len(err.rows) == err.epoch - 1
    assert [r.epoch for r in err.rows] == list(range(1, err.epoch))


class TestDiscriminatorOracle:
    def test_disjoint_domains_reach_high_domain_accuracy(self):
        # frozen identity extractor: train the discriminator alone on two
        # well-separated clouds and check it tells them apart
        rng = np.random.default_rng(30)
        feat_s = rng.normal(0.0, 0.3, size=(80, 2)) + np.array([-3.0, 0.0])
        feat_t = rng.normal(0.0, 0.3, size=(80, 2)) + np.array([3.0, 0.0])
        disc = init_discriminator(2, 8, seed=31)
        onehot = np.zeros((160, 2))
        onehot[:80, 0] = 1.0
        onehot[80:, 1] = 1.0
        feats = np.concatenate([feat_s, feat_t], axis=0)
        for _ in range(120):
            probs = softmax_t(disc_node(disc, Tensor(feats)))
            loss = mul(dot(onehot, log(clamp_min(probs, 1e-12))), -1.0 / 160)
            sgd_step(disc.params, graph_backward(loss, disc.params), lr=0.1, momentum=0.9)
        probs = softmax_t(disc_node(disc, Tensor(feats))).data
        pred = np.argmax(probs, axis=1)
        truth = np.concatenate([np.zeros(80), np.ones(80)])
        assert (pred == truth).mean() > 0.95
