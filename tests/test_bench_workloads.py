"""The benchmark (perfbench/run.py) writes a config file for each of its
workloads; a renamed or removed config key, or a new rule about which keys
go together, would make its runs fail. This writes each workload's inputs
the way the benchmark does, parses the config it wrote and checks that
``fixbi gen`` on that config writes the same dataset CSVs."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import fixbi
from fixbi.cli import main as cli_main
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


@pytest.mark.parametrize("name", ["desk", "wide", "variants"])
def test_gen_writes_the_pair_prepare_wrote(bench_run, tmp_path, capsys, name):
    # the benchmark's input step is the same as ``fixbi gen`` on its config
    config, target_csv = bench_run.Bench(bench_run.WORKLOADS[name], 1, tmp_path).prepare(
        fixbi, tmp_path / name)
    out = tmp_path / "gen" / "source.csv"
    assert cli_main(["gen", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.with_name("source_target.csv").read_bytes() == target_csv.read_bytes()
    if name == "variants":  # the one workload whose source is a file
        assert out.read_bytes() == (config.parent / "source.csv").read_bytes()
