"""fixbi benchmark: one workload, timed end to end, or traced layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Each repeat does what a user does: write the inputs (config text and dataset
CSVs, all derived from ``--seed``), set up (import ``fixbi``, ``load_config``,
``load_dataset_pair``), ``harness.execute`` the run, then the
``fixbi eval --ensemble-with`` step (load both checkpoints and the target CSV,
predict with the ensemble). One untimed warm-up repeat comes first; timed
repeats follow until ``--seconds`` is used up. Every repeat is checked: its
artifacts must match the warm-up's byte for byte, and the eval step's
accuracy must equal ``summary.json``'s ``acc_tgt_ens``.

Each repeat is bracketed by a fixed calibration (``hostspeed.py``); its
timings are scaled to the calibration's reference speed, which cancels the
slow stretches of a shared host.

``--trace 0`` reports the end-to-end metrics (medians over the timed
repeats). ``--trace 1`` alternates untraced and traced repeats and reports
the per-layer metrics of the traced ones. The last line of standard output
is one JSON object; README.md defines every metric. The benchmark leaves
the BLAS and OpenMP thread settings as it finds them.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# artifacts that must be byte-identical across repeats of one seed
ARTIFACTS = ("metrics.csv", "threshold.csv", "features.csv", "sdm.ckpt", "tdm.ckpt")
SETUPS_PER_REPEAT = 5  # set-up and eval are short, so each repeat times several
EVALS_PER_REPEAT = 3
MIN_REPEATS = 3
# metrics with a bound in BENCHMARK.json; eval_s and acc_gain are printed
# with them but reported only by the traced run (see README.md)
END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mb", "acc_tgt_ens")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Workload:
    """Config keys in file order; ``moons`` = (per_class, rotation_deg,
    noise_sigma) of a moons pair written to CSV as the training input."""

    name: str
    settings: dict[str, str]
    moons: tuple[int, float, float] | None = None


DESK = {  # configs/default.cfg as shipped
    "dataset.kind": "blobs", "dataset.num_classes": "3", "dataset.per_class": "100",
    "dataset.dim": "2", "dataset.rotation_deg": "50", "dataset.noise_sigma": "0.15",
    "arch": "64,64,32", "batch_size": "32", "epochs": "60", "warmup_epochs": "30",
    "lr0": "0.01", "momentum": "0.9", "weight_decay": "0.005",
    "lambda_sd": "0.7", "lambda_td": "0.3", "lambda_cr": "0.5", "ratio_rule": "fixed",
    "baseline": "dann", "baseline_epochs": "100",
}
# The scaled point: epochs are cut to fit a ~7 s run. lr0 = 0.03 with three
# DANN epochs gives a confident baseline; at lr0 = 0.01 and few epochs the
# diffuse baseline collapses the dual phase to chance accuracy.
WIDE = {
    **DESK, "dataset.per_class": "1000", "dataset.dim": "16", "arch": "256,256,128",
    "epochs": "2", "warmup_epochs": "1", "lr0": "0.03", "baseline_epochs": "3",
}
VARIANTS = {
    "epochs": "8", "warmup_epochs": "4", "ratio_rule": "range",
    "pseudo_label_source": "frozen-baseline",
    "baseline": "source-only", "baseline_epochs": "10",
}
WORKLOADS = {
    "desk": Workload("desk", DESK),
    "wide": Workload("wide", WIDE),
    "variants": Workload("variants", VARIANTS, moons=(1000, 30.0, 0.1)),
}


@dataclass
class Sample:
    """Measurements of one successful repeat."""

    setup_s: list[float]
    run_s: float
    cpu_s: float
    eval_s: list[float]
    acc_tgt_ens: float
    baseline_target_acc: float
    layers: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0  # hostspeed.scale of the calibrations around the repeat
    calibration_s: float = 0.0

    def scaled(self, seconds: float) -> float:
        return seconds * self.scale


class CheckFailed(RuntimeError):
    """A repeat's outputs are wrong; the message names the check."""


def import_program():
    """Import ``fixbi`` afresh from the checkout's ``src`` (set-up work)."""
    for name in [m for m in sys.modules if m == "fixbi" or m.startswith("fixbi.")]:
        del sys.modules[name]
    fx = importlib.import_module("fixbi")
    if Path(fx.__file__).resolve().parent != SRC / "fixbi":
        raise ImportError(f"fixbi was imported from {fx.__file__}, not from {SRC}")
    return fx


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "calibration_reference_s": hostspeed.REFERENCE_S,
    }


def _digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


class Bench:
    """Runs the repeats of one workload and seed inside ``work``."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference: dict[str, str] | None = None
        self.count = 0
        self.last_spans: list[spans.Span] = []

    # -- the steps of one repeat -------------------------------------------

    def prepare(self, fx, rdir: Path) -> tuple[Path, Path]:
        """Write this repeat's inputs; returns (config path, target CSV)."""
        rdir.mkdir(parents=True)
        settings = dict(self.workload.settings)
        target_csv = rdir / "target.csv"
        if self.workload.moons is not None:
            per_class, rotation, noise = self.workload.moons
            source, target = fx.data.gen_moons_shift(per_class, rotation, noise, self.seed)
            fx.data.save_csv(source, rdir / "source.csv")
            fx.data.save_csv(target, target_csv, with_eval_labels=True)
            settings = {"dataset.kind": "csv", "dataset.source": str(rdir / "source.csv"),
                        "dataset.target": str(target_csv), **settings}
        settings["seed"] = str(self.seed)
        config = rdir / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                          encoding="utf-8")
        if self.workload.moons is None:
            _, target = fx.harness.load_dataset_pair(fx.config.load_config(config))
            fx.data.save_csv(target, target_csv, with_eval_labels=True)
        return config, target_csv

    @staticmethod
    def setup(config: Path):
        """Import fixbi, load the config and the dataset pair; timed."""
        gc.collect()
        t0 = time.perf_counter()
        fx = import_program()
        cfg = fx.config.load_config(config)
        fx.harness.load_dataset_pair(cfg)
        return fx, cfg, time.perf_counter() - t0

    @staticmethod
    def evaluate(fx, out_dir: Path, target_csv: Path) -> tuple[float, float, int]:
        """The ``fixbi eval sdm.ckpt target.csv --ensemble-with tdm.ckpt`` step."""
        gc.collect()
        t0 = time.perf_counter()
        sdm = fx.models.load_checkpoint(out_dir / "sdm.ckpt")
        tdm = fx.models.load_checkpoint(out_dir / "tdm.ckpt")
        ds = fx.data.load_csv(target_csv)
        pred = fx.models.ensemble_predict(sdm, tdm, ds.features)
        acc = float(np.mean(pred == ds.eval_labels()))
        return time.perf_counter() - t0, acc, ds.num_classes

    def check(self, out_dir: Path, eval_accs: list[float], num_classes: int) -> dict:
        """Apply the correctness gates; returns the run's summary.json."""
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        digests = _digests(out_dir)
        if self.reference is None:
            self.reference = digests
        for name, digest in digests.items():
            if digest != self.reference[name]:
                raise CheckFailed(f"{name} differs from the first repeat's")
        for acc in eval_accs:
            if acc != summary["acc_tgt_ens"]:
                raise CheckFailed(f"eval accuracy {acc!r} != summary.json "
                                  f"acc_tgt_ens {summary['acc_tgt_ens']!r}")
        if not summary["acc_tgt_ens"] > 1.0 / num_classes:
            raise CheckFailed(f"acc_tgt_ens {summary['acc_tgt_ens']!r} is not "
                              "above chance")
        return summary

    # -- repeats -------------------------------------------------------------

    def repeat(self, fx, traced: bool) -> tuple[object, Sample]:
        """One checked repeat; returns the fixbi instance to prepare the next."""
        self.count += 1
        rdir = self.work / f"r{self.count}"
        out_dir = rdir / "out"
        try:
            before = hostspeed.calibrate()
            fx, sample = (self._traced if traced else self._plain)(fx, rdir, out_dir)
            after = hostspeed.calibrate()
            sample.scale = hostspeed.scale(before, after)
            sample.calibration_s = (before + after) / 2
            return fx, sample
        finally:
            shutil.rmtree(rdir, ignore_errors=True)

    def _plain(self, fx, rdir: Path, out_dir: Path) -> tuple[object, Sample]:
        config, target_csv = self.prepare(fx, rdir)
        setups = [self.setup(config) for _ in range(SETUPS_PER_REPEAT)]
        fx, cfg, _ = setups[-1]
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        fx.harness.execute(cfg, out_dir)
        run_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
        evals = [self.evaluate(fx, out_dir, target_csv)
                 for _ in range(EVALS_PER_REPEAT)]
        summary = self.check(out_dir, [e[1] for e in evals], evals[0][2])
        return fx, Sample([s[2] for s in setups], run_s, cpu_s, [e[0] for e in evals],
                          summary["acc_tgt_ens"], summary["baseline_target_acc"])

    def _traced(self, _fx, rdir: Path, out_dir: Path) -> tuple[object, Sample]:
        fx = import_program()
        tracer = spans.Tracer()
        tracer.install(fx)
        try:
            root = tracer.begin("bench.repeat")
            step = tracer.begin("bench.prep")
            config, target_csv = self.prepare(fx, rdir)
            tracer.end(step)
            step = tracer.begin("bench.setup")
            cfg = fx.config.load_config(config)
            fx.harness.load_dataset_pair(cfg)
            tracer.end(step)
            gc.collect()
            w0, c0 = time.perf_counter(), time.process_time()
            fx.harness.execute(cfg, out_dir)
            run_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
            step = tracer.begin("bench.eval")
            eval_s, acc, classes = self.evaluate(fx, out_dir, target_csv)
            tracer.end(step)
            tracer.end(root)
        finally:
            tracer.restore()
        summary = self.check(out_dir, [acc], classes)
        self.last_spans = tracer.spans
        layers = spans.layer_metrics(tracer.spans, cfg.warmup_epochs)
        return fx, Sample([], run_s, cpu_s, [eval_s], summary["acc_tgt_ens"],
                          summary["baseline_target_acc"], layers)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _attempt(bench: Bench, fx, traced: bool):
    try:
        return bench.repeat(fx, traced)
    except Exception:  # a failed repeat counts against the run, which goes on
        traceback.print_exc(file=sys.stderr)
        return fx, None


def run(bench: Bench, fx, seconds: float,
        trace: bool) -> tuple[list[Sample], list[Sample], int, int]:
    """Warm-up, then timed repeats until ``seconds`` is used up.

    Returns (untraced samples, traced samples, attempted, failed); the
    warm-up counts as attempted but gives no sample.
    """
    fx, sample = _attempt(bench, fx, False)
    failed = int(sample is None)
    deadline = time.perf_counter() + seconds
    kinds = [False, True] if trace else [False]
    samples: dict[bool, list[Sample]] = {False: [], True: []}
    durations: dict[bool, list[float]] = {False: [], True: []}
    timed = 0
    while True:
        kind = kinds[timed % len(kinds)]
        t0 = time.perf_counter()
        fx, sample = _attempt(bench, fx, kind)
        durations[kind].append(time.perf_counter() - t0)
        timed += 1
        if sample is None:
            failed += 1
        else:
            samples[kind].append(sample)
        expected = statistics.median(durations[kinds[timed % len(kinds)]]
                                     or durations[kind])
        if (timed >= (2 if trace else MIN_REPEATS)
                and time.perf_counter() + expected > deadline):
            return samples[False], samples[True], timed + 1, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.path.insert(0, str(SRC))
    try:
        fx = import_program()
    except ImportError as exc:
        print(f"error: cannot import fixbi from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(workload.name, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work = WORK / "work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    bench = Bench(workload, args.seed, work)
    try:
        plain, traced, attempted, failed = run(bench, fx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print(f"error: no repeat of {workload.name} succeeded "
              f"({failed} of {attempted} failed)", file=sys.stderr)
        return 1

    acc = plain[0].acc_tgt_ens
    rows = {  # name -> (unit, samples); the JSON carries each row's median
        "eval_s": ("s", [s.scaled(t) for s in plain for t in s.eval_s]),
        "acc_gain": ("fraction", [acc - plain[0].baseline_target_acc]),
    }
    if args.trace:
        for name, unit in spans.UNITS.items():
            rows[name] = (unit, [statistics.median(s.layers[name] for s in traced)])
        rows["trace_overhead_s"] = ("s", [
            statistics.median(s.scaled(s.run_s) for s in traced)
            - statistics.median(s.scaled(s.run_s) for s in plain)])
        reported = list(rows)
    else:
        rows.update({
            "run_s": ("s", [s.scaled(s.run_s) for s in plain]),
            "cpu_s": ("s", [s.scaled(s.cpu_s) for s in plain]),
            "setup_s": ("s", [s.scaled(t) for s in plain for t in s.setup_s]),
            "peak_rss_mb": ("MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024]),
            "acc_tgt_ens": ("fraction", [acc]),
            # as measured, before scaling; printed, not reported
            "wall.run_s": ("s", [s.run_s for s in plain]),
            "wall.setup_s": ("s", [t for s in plain for t in s.setup_s]),
            "calibration_s": ("s", [s.calibration_s for s in plain]),
        })
        reported = list(END_TO_END)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{attempted} repeats attempted (1 warm-up), {failed} failed")
    print(f"  {'error_rate':44s} {failed / attempted:.4f} fraction")
    result = {}
    for name, (unit, values) in rows.items():
        q1, med, q3 = _quartiles(values)
        spread = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})" if len(values) > 1 else ""
        print(f"  {name:44s} {med:.6g} {unit}{spread}")
        if name in reported:
            result[name] = {"value": med, "unit": unit}
    if args.trace:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload.name}-seed{args.seed}.json").write_text(
            json.dumps({"env": env, "metrics": result,
                        "spans": spans.records(bench.last_spans)}),
            encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
