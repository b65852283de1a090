"""Golden bytes: three reduced runs at seed 1 against committed results.

The determinism tests compare a run with its own rerun, so a change that
reorders a float sum passes them. This suite compares against results
committed under ``tests/golden/``:

* in the environment the digests came from (same numpy version, BLAS build,
  CPU features and machine), the sha256 of every artifact must equal its
  committed digest;
* anywhere else, every ``metrics.csv`` value must match the committed file
  within ``RTOL``/``ATOL`` (integer columns exactly), since another BLAS or
  instruction set may round differently.

A change that moves bits on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden_bytes.py`` and reports the drift.
"""
from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from fixbi.config import DatasetSpec, TrainConfig
from fixbi.harness import ARTIFACTS as RUN_FILES, execute, load_metrics_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
# summary.json holds the run's wall time, so it is the one file left out
ARTIFACTS = tuple(name for name in RUN_FILES if name != "summary.json")
RTOL, ATOL = 1e-9, 1e-12

RUNS = {
    # the desk shape (9 batches per epoch, enough for a reordered sum to
    # round differently) with the fixed rule, live labels and DANN; warm-up
    # ends so that matching and consistency run, and at lr0 = 0.03 every
    # loss term is non-zero by the last epoch
    "desk": TrainConfig(
        dataset=DatasetSpec(kind="blobs", num_classes=3, per_class=100, dim=2,
                            rotation_deg=50.0, noise_sigma=0.15),
        epochs=4, warmup_epochs=2, lr0=0.03, baseline="dann", baseline_epochs=10,
        seed=1),
    # the branches the desk path skips: moons, the range rule, frozen
    # baseline pseudo-labels and the source-only baseline
    "variants": TrainConfig(
        dataset=DatasetSpec(kind="moons", per_class=150, rotation_deg=30.0,
                            noise_sigma=0.1),
        epochs=4, warmup_epochs=2, lr0=0.03, ratio_rule="range",
        pseudo_label_source="frozen-baseline", baseline="source-only",
        baseline_epochs=5, seed=1),
    # the wide workload's widths: 16-dim blobs through 256,256,128, so the
    # pair's vectors (206,856 values) and the DANN set's span several
    # sgd_step blocks; 15 DANN epochs give a baseline confident enough that
    # every dual loss term is non-zero by the last epoch
    "wide": TrainConfig(
        dataset=DatasetSpec(kind="blobs", num_classes=3, per_class=100, dim=16,
                            rotation_deg=50.0, noise_sigma=0.15),
        arch=(256, 256, 128), epochs=3, warmup_epochs=1, lr0=0.03, baseline="dann",
        baseline_epochs=15, seed=1),
}


def environment() -> dict:
    """What decides the float bits besides the code: numpy, its BLAS and
    the CPU features it dispatches on."""
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        features = sorted(info["SIMD Extensions"]["found"])
    except (AttributeError, KeyError, TypeError):  # older numpy: compare values
        blas, features = "unknown", []
    return {"numpy": np.__version__, "blas": blas, "cpu_features": features,
            "machine": platform.machine()}


def _digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, tmp_path):
    execute(RUNS[name], tmp_path)
    golden = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    if golden["environment"] == environment():
        assert _digests(tmp_path) == golden["runs"][name]
        return
    got = load_metrics_csv(tmp_path / "metrics.csv")
    want = load_metrics_csv(GOLDEN / f"{name}_metrics.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col, value in vars(w).items():
            if isinstance(value, int):
                assert getattr(g, col) == value, (g.epoch, col)
            else:
                assert getattr(g, col) == pytest.approx(value, rel=RTOL, abs=ATOL), \
                    (g.epoch, col)


if __name__ == "__main__":
    import tempfile
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in RUNS.items():
            out = Path(tmp) / name
            execute(cfg, out)
            runs[name] = _digests(out)
            (GOLDEN / f"{name}_metrics.csv").write_bytes((out / "metrics.csv").read_bytes())
    (GOLDEN / "digests.json").write_text(json.dumps(
        {"environment": environment(), "runs": runs}, indent=2) + "\n", encoding="utf-8")
