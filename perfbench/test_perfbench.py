"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import pytest

import hostspeed
import run
import spans

sys.path.insert(0, str(run.SRC))

# small enough for a test, large enough that each workload's dual phase
# still beats chance accuracy (a benchmark correctness check)
SMALL = {
    "desk": {"epochs": "2", "warmup_epochs": "1", "baseline_epochs": "20"},
    "wide": {"dataset.per_class": "100", "epochs": "2", "warmup_epochs": "1",
             "baseline_epochs": "20"},
    "variants": {"epochs": "2", "warmup_epochs": "1", "baseline_epochs": "10"},
}


def small(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    moons = None if wl.moons is None else (200,) + wl.moons[1:]
    return replace(wl, settings={**wl.settings, **SMALL[name]}, moons=moons)


def test_self_times_subtract_child_coverage():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    tracer.end(root)
    assert spans.self_times(tracer.spans) == [10.0 - 4.0, 4.0 - 2.0, 2.0]


def test_wrappers_restore_original_functions():
    fx = run.import_program()
    modules = [m for n, m in sys.modules.items() if n == "fixbi" or n.startswith("fixbi.")]
    before = [dict(m.__dict__) for m in modules]
    tracer = spans.Tracer()
    tracer.install(fx)
    try:
        # the by-name imports are wrapped, not just the defining module
        assert fx.core.backward is not before[modules.index(fx.numerics)]["backward"]
        assert fx.baseline.forward is not before[modules.index(fx.models)]["forward"]
    finally:
        tracer.restore()
    for m, saved in zip(modules, before):
        for key, value in saved.items():
            assert m.__dict__[key] is value, f"{m.__name__}.{key} not restored"


def test_scale_maps_calibration_to_reference_speed():
    assert hostspeed.scale(0.1, 0.3) == pytest.approx(hostspeed.REFERENCE_S / 0.2)
    before = set(sys.modules)
    assert hostspeed.calibrate() > 0.0
    assert not any(n.startswith("fixbi") for n in set(sys.modules) - before)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_completes_at_reduced_size(name, tmp_path):
    wl = small(name)
    bench = run.Bench(wl, 3, tmp_path)
    plain, traced, attempted, failed = run.run(bench, run.import_program(), 0.0, True)
    assert (attempted, failed) == (3, 0)
    assert len(plain) == 1 and len(traced) == 1
    assert plain[0].scale > 0.0 and traced[0].scale > 0.0
    layers = traced[0].layers
    assert set(layers) == set(spans.UNITS)
    assert layers["numerics.backward_calls_per_iter.dual"] == 2.0

    own = spans.self_times(bench.last_spans)
    root = bench.last_spans[0]
    assert root.name == "bench.repeat"
    assert min(own) >= 0.0
    assert sum(own) <= (root.end - root.start) * (1 + 1e-9)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {"desk": small("desk")})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", "desk", "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)])
    assert status == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
