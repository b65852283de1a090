"""Exit criteria for the whole artifact, one test per criterion.

Each test carries an ``acceptance`` marker whose label is echoed with
PASS/FAIL after it runs (see conftest). Stated tolerances and runtime
budgets are asserted, not just eyeballed.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fixbi.baseline import dann_objective
from fixbi.config import DatasetSpec, TrainConfig
from fixbi.core import adaptive_threshold, mixup, ratio_rule_sample, train_fixbi
from fixbi.data import one_hot
from fixbi.harness import execute, load_metrics_csv
from fixbi.models import (ensemble_predict, init_discriminator, init_model,
                          predict_probs)
from helpers import (ExactOracleCheck, bim_node, cr_of, finite_diff_grads, fm_node,
                     gated_top1, manual_model, max_rel_error, named_grads, probs_of,
                     random_batch, random_model, sp_of, split_gate)

GRAD_TOL = 1e-4
FD_EPS = 1e-5


@pytest.fixture(scope="module")
def default_run_pair(tmp_path_factory):
    """The default desk-scale experiment executed twice with one config+seed;
    per-run wall times ride along for the runtime budget check."""
    cfg = TrainConfig()  # blobs 3x100 rotated 50deg, E=60, k=30, B=32
    outs, times = [], []
    for name in ("run_a", "run_b"):
        out = tmp_path_factory.mktemp("determinism") / name
        t0 = time.perf_counter()
        execute(cfg, out)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def _grad_trial_ok(build, params) -> float:
    analytic = named_grads(build(), params)
    numeric = finite_diff_grads(lambda: build().item(), params, eps=FD_EPS)
    return max_rel_error(analytic, numeric)


@pytest.mark.acceptance("criterion 1: gradient suite (fm/bim/sp/cr/dann vs FD)")
def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_trials = 100

    def small_model():
        return random_model(rng, input_dim=2, widths=(4,),
                            num_classes=int(rng.integers(2, 4)))

    worst = {"fm": 0.0, "bim": 0.0, "sp": 0.0, "cr": 0.0, "dann": 0.0}

    # mixup loss
    for _ in range(n_trials):
        model = small_model()
        c = model.num_classes
        xs, ys, xt, yt = random_batch(rng, 4, 2, c)
        lam = float(rng.uniform())
        x_mix, y_mix = mixup(xs, xt, lam), mixup(one_hot(ys, c), one_hot(yt, c), lam)
        err = _grad_trial_ok(lambda: fm_node(probs_of(model, x_mix), y_mix),
                             model.params)
        worst["fm"] = max(worst["fm"], err)

    # bidirectional matching (teacher constant, student trained)
    for _ in range(n_trials):
        student = small_model()
        teacher = random_model(rng, input_dim=2, widths=(4,),
                               num_classes=student.num_classes)
        xt = rng.normal(size=(5, 2))
        teacher_probs = predict_probs(teacher, xt)
        above, _ = split_gate(teacher_probs.max(axis=1))
        err = _grad_trial_ok(
            lambda: bim_node(probs_of(student, xt), gated_top1(teacher_probs, above)),
            student.params)
        worst["bim"] = max(worst["bim"], err)

    # self-penalization, including the temperature parameter
    done = 0
    theta_grad_seen = False
    while done < n_trials:
        model = small_model()
        xt = rng.normal(size=(6, 2))
        conf = predict_probs(model, xt).max(axis=1)
        c_sorted = np.sort(conf)
        if (c_sorted[1:] - c_sorted[:-1]).max() < 2e-3:
            continue  # confidences too bunched to split cleanly
        _, below = split_gate(conf)
        err = _grad_trial_ok(lambda: sp_of(model, xt, below), model.params)
        worst["sp"] = max(worst["sp"], err)
        g_theta = named_grads(sp_of(model, xt, below), model.params)["log_temperature"]
        theta_grad_seen = theta_grad_seen or abs(float(g_theta[0])) > 1e-8
        done += 1
    assert theta_grad_seen, "temperature gradient path never exercised"

    # consistency regularization, both models
    for _ in range(n_trials):
        a = small_model()
        b = random_model(rng, input_dim=2, widths=(4,), num_classes=a.num_classes)
        xs, ys, xt, yt = random_batch(rng, 4, 2, a.num_classes)
        worst["cr"] = max(
            worst["cr"],
            _grad_trial_ok(lambda: cr_of(a, b, xs, xt), a.params),
            _grad_trial_ok(lambda: cr_of(a, b, xs, xt), b.params))

    # adversarial objective: classifier params descend class - lambda*domain
    # (the reversal layer's effective objective), discriminator class + domain
    for _ in range(n_trials):
        lam = float(rng.uniform(0.2, 1.5))
        model = small_model()
        disc = init_discriminator(model.feature_dim, 3,
                                  seed=int(rng.integers(2**31)), grl_lambda=lam)
        for _, t in disc.params.items():
            t.data[...] = rng.normal(0.0, 0.5, size=t.data.shape)
        xs, ys, xt, _ = random_batch(rng, 3, 2, model.num_classes)
        ys_hot = one_hot(ys, model.num_classes)

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

        worst["dann"] = max(
            worst["dann"],
            max_rel_error(analytic_clf, finite_diff_grads(clf_target, model.params)),
            max_rel_error(analytic_disc, finite_diff_grads(disc_target, disc.params)))

    elapsed = time.perf_counter() - t0
    print(f"\n  gradient suite worst rel errors: " +
          ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) +
          f" ({elapsed:.1f}s)")
    assert all(v < GRAD_TOL for v in worst.values()), worst
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s >= 60s"


@pytest.mark.acceptance("criterion 2: exact-oracle full iteration at 1e-10")
def test_criterion_02_exact_oracle_step():
    worst = ExactOracleCheck().run()
    print(f"\n  hand-unrolled iteration deviation: {worst:.3e}")
    assert worst < 1e-10


@pytest.mark.acceptance("criterion 3: mixup convexity + simplex invariants")
def test_criterion_03_mixup_invariants():
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        b = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(2, 5))
        xs, ys, xt, yt = random_batch(rng, b, d, c)
        lam = float(rng.uniform())
        x_mix, y_mix = mixup(xs, xt, lam), mixup(one_hot(ys, c), one_hot(yt, c), lam)
        assert (x_mix >= np.minimum(xs, xt)).all()
        assert (x_mix <= np.maximum(xs, xt)).all()
        assert (y_mix >= 0.0).all()
        assert np.abs(y_mix.sum(axis=1) - 1.0).max() <= 1e-12

    xs, ys, xt, yt = random_batch(rng, 8, 3, 3)
    ys_h, yt_h = one_hot(ys, 3), one_hot(yt, 3)
    assert mixup(xs, xt, 1.0).tobytes() == xs.tobytes()
    assert mixup(ys_h, yt_h, 1.0).tobytes() == ys_h.tobytes()
    assert mixup(xs, xt, 0.0).tobytes() == xt.tobytes()
    assert mixup(ys_h, yt_h, 0.0).tobytes() == yt_h.tobytes()


@pytest.mark.acceptance("criterion 4: adaptive threshold unit + gating partition")
def test_criterion_04_threshold_unit():
    stats = adaptive_threshold([[0.5, 0.9]])
    assert stats.tau[0] == pytest.approx(0.3, abs=1e-12)

    const = adaptive_threshold([[0.7, 0.7, 0.7]])
    assert const.tau[0] == pytest.approx(0.7, abs=1e-15)
    assert const.num_above == 0

    clamped = adaptive_threshold([[0.1, 0.1, 0.1, 0.9]])
    assert clamped.tau[0] == 0.0

    rng = np.random.default_rng(104)
    for _ in range(1000):
        conf = rng.uniform(size=(1, int(rng.integers(1, 64))))
        s = adaptive_threshold(conf)
        assert np.array_equal(s.above, conf > s.tau[:, None])
        assert np.array_equal(s.below, conf < s.tau[:, None])
        assert not (s.above & s.below).any()
        assert 0.0 <= s.tau[0] <= 1.0


@pytest.mark.acceptance("criterion 5: warm-up contract (E=k gates bim/cr off)")
def test_criterion_05_warmup_contract(tmp_path):
    cfg = TrainConfig(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=16,
                                          noise_sigma=0.2),
                      arch=(8, 4), batch_size=8, epochs=6, warmup_epochs=6,
                      baseline_epochs=3, seed=7)
    execute(cfg, tmp_path / "gated")
    execute(replace(cfg, loss_bim=False, loss_cr=False), tmp_path / "deleted")

    rows = load_metrics_csv(tmp_path / "gated" / "metrics.csv")
    assert all(r.bim_sd == 0.0 and r.bim_td == 0.0 and r.cr == 0.0 for r in rows)
    for ckpt in ("sdm.ckpt", "tdm.ckpt"):
        gated = (tmp_path / "gated" / ckpt).read_bytes()
        deleted = (tmp_path / "deleted" / ckpt).read_bytes()
        assert gated == deleted, f"{ckpt} differs with loss paths deleted"


@pytest.mark.acceptance("criterion 6: byte-identical reruns, < 2 min each")
def test_criterion_06_determinism(default_run_pair):
    (run_a, run_b), times = default_run_pair
    # the gate: metrics and checkpoints; the other artifacts are equally
    # deterministic (summary.json alone carries real wall time)
    for name in ("metrics.csv", "sdm.ckpt", "tdm.ckpt",
                 "threshold.csv", "threshold.svg", "classwise.csv",
                 "features.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    print(f"\n  default run wall times: {times[0]:.1f}s, {times[1]:.1f}s")
    assert max(times) < 120.0


@pytest.mark.acceptance("criterion 7: adaptation ordering over 5 seeds, < 10 min")
def test_criterion_07_adaptation_ordering(ordering_battery):
    cells = ordering_battery["seeds"]
    src = np.mean([c["source_only"].target_acc for c in cells.values()])
    dann = np.mean([c["dann"].target_acc for c in cells.values()])
    rungs = {name: np.mean([c["ladder"][name].acc_tgt_ens for c in cells.values()])
             for name in ("fm", "fm+bim", "fm+bim+sp", "full")}

    print("\n  ablation ladder, mean ensemble target accuracy over 5 seeds:")
    print(f"    source-only baseline : {src:.4f}")
    print(f"    adversarial baseline : {dann:.4f}")
    for name, acc in rungs.items():
        print(f"    {name:<21}: {acc:.4f}")
    print(f"  battery wall time: {ordering_battery['elapsed_s']:.1f}s")

    assert rungs["full"] >= src + 0.05, (rungs["full"], src)
    assert rungs["full"] >= dann, (rungs["full"], dann)
    assert ordering_battery["elapsed_s"] < 600.0


@pytest.mark.acceptance("criterion 8: ratio rules + three-rule comparison")
def test_criterion_08_ratio_rules(tmp_path):
    rng = np.random.default_rng(108)
    for _ in range(10_000):
        lam_sd, lam_td = ratio_rule_sample("range", 1.0, (0.7, 0.3), rng)
        assert lam_sd >= 0.5
        assert lam_sd + lam_td == 1.0
    assert all(ratio_rule_sample("fixed", 1.0, (0.7, 0.3), rng) == (0.7, 0.3)
               for _ in range(100))
    draws = np.array([ratio_rule_sample("random", 1.0, (0.7, 0.3), rng)
                      for _ in range(50_000)]).ravel()
    assert abs(draws.mean() - 0.5) < 0.01

    # end-to-end three-rule comparison at reduced desk scale; the accuracy
    # table is reported, not asserted
    print("\n  mixup-ratio rule comparison (target accuracy, 1 seed):")
    print(f"    {'rule':<8} {'no-matching':>22} {'with-matching':>22}")
    for rule in ("random", "range", "fixed"):
        row = []
        for bim_on in (False, True):
            cfg = TrainConfig(
                dataset=DatasetSpec(kind="blobs", num_classes=3, per_class=40,
                                    rotation_deg=50.0, noise_sigma=0.15),
                epochs=20, warmup_epochs=10, batch_size=20,
                ratio_rule=rule, alpha=1.0, loss_bim=bim_on,
                loss_sp=False, loss_cr=False, baseline_epochs=60, seed=0)
            result = execute(cfg, tmp_path / f"{rule}_{'bim' if bim_on else 'nobim'}")
            last = result.metrics[-1]
            row.append(f"sd={last.acc_tgt_sd:.3f} td={last.acc_tgt_td:.3f}")
        print(f"    {rule:<8} {row[0]:>22} {row[1]:>22}")


@pytest.mark.acceptance("criterion 9: ensemble rule vs brute-force oracle")
def test_criterion_09_ensemble_oracle():
    rng = np.random.default_rng(109)

    def brute_force(p, q):
        out = []
        for row in p + q:
            best, best_v = 0, row[0]
            for c in range(1, row.size):
                if row[c] > best_v:  # strictly greater: first max wins
                    best, best_v = c, row[c]
            out.append(best)
        return np.array(out)

    checked = 0
    while checked < 1000:
        c = int(rng.integers(2, 6))
        b = int(rng.integers(1, 8))
        p = rng.uniform(0.05, 1.0, size=(b, c))
        p /= p.sum(axis=1, keepdims=True)
        q = rng.uniform(0.05, 1.0, size=(b, c))
        q /= q.sum(axis=1, keepdims=True)
        if rng.uniform() < 0.3:
            q[0] = p[0][::-1].copy()   # reversed rows force summed ties
        # realize the distributions as 1-layer models on one-hot inputs:
        # logits row i = log(p[i]), so the softmax reproduces p exactly
        sdm = manual_model(np.log(p), np.zeros(c))
        tdm = manual_model(np.log(q), np.zeros(c))
        x = np.eye(b, dtype=np.float64)
        got = ensemble_predict(sdm, tdm, x)
        want = brute_force(predict_probs(sdm, x), predict_probs(tdm, x))
        assert np.array_equal(got, want)
        checked += b

    # exact-tie batch: both uniform, every class sums equal -> class 0
    c = 4
    uni = manual_model(np.zeros((2, c)), np.zeros(c))
    assert (ensemble_predict(uni, uni, np.eye(2)) == 0).all()


@pytest.mark.acceptance("criterion 10: tau trajectory logged every iteration")
def test_criterion_10_threshold_trajectory(default_run_pair):
    (run_a, _), _ = default_run_pair
    lines = (run_a / "threshold.csv").read_text().strip().split("\n")
    header, rows = lines[0], lines[1:]
    assert header == "epoch,iteration,tau_sd,tau_td,n_above_sd,n_above_td"

    cfg = TrainConfig()
    n_batches = 300 // cfg.batch_size
    assert len(rows) == cfg.epochs * n_batches

    seen = set()
    for row in rows:
        cells = row.split(",")
        epoch, it = int(cells[0]), int(cells[1])
        tau_sd, tau_td = float(cells[2]), float(cells[3])
        assert 0.0 <= tau_sd <= 1.0 and 0.0 <= tau_td <= 1.0
        seen.add((epoch, it))
    post_warmup = {(e, i) for e in range(cfg.warmup_epochs + 1, cfg.epochs + 1)
                   for i in range(1, n_batches + 1)}
    assert post_warmup <= seen, "missing post-warm-up iterations in the trace"
