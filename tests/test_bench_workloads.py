"""The benchmark (perfbench/run.py) writes a config file for each of its
workloads; a renamed or removed config key, or a new rule about which keys
go together, would make its runs fail. This writes each workload's inputs
the way the benchmark does and parses the config it wrote."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import fixbi
from fixbi.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    # executed from its file, with its directory on the path for its own
    # imports; sys.path and the benchmark's modules are taken out after
    own = {"perfbench_run", "hostspeed", "spans"} - set(sys.modules)
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # dataclasses look their module up
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path[:] = saved_path
        for name in own:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["desk", "wide", "variants"])
def test_workload_config_parses(bench_run, tmp_path, name):
    assert set(bench_run.WORKLOADS) == {"desk", "wide", "variants"}
    bench = bench_run.Bench(bench_run.WORKLOADS[name], 1, tmp_path)
    config, _ = bench.prepare(fixbi, tmp_path / name)
    cfg = parse_config(config.read_text(encoding="utf-8"))
    assert cfg.seed == 1
    assert cfg.dataset.kind == ("csv" if name == "variants" else "blobs")
