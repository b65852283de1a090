"""Config-driven experiment runner: baseline pretrain, dual-model training,
final evaluation, and all on-disk artifacts (baseline and dual-phase
metrics, thresholds, class-wise table, feature export, checkpoints, summary).

Every run is reproducible from (config, seed): re-running a config writes
every artifact byte-identical except summary.json, the only file that holds
timing.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .baseline import BaselineResult, BaselineRow, train_baseline
from .config import (ConfigError, METRICS_COLUMNS, MetricsRow, TrainConfig,
                     _read_text, load_config, validate_config)
from .core import NonFiniteLossError, train_fixbi
from .data import (Array, CsvFormatError, Dataset, as_target_view,
                   gen_blobs_shift, gen_moons_shift, load_labeled_csv)
from .models import (DualState, ThresholdRow, ensemble_labels, predict_features,
                     predict_probs, save_checkpoint)

METRICS_VERSION = "v2"
BASELINE_VERSION = "v1"
UNDEFINED = "NA"  # class-wise accuracy marker for classes absent from the eval set
# every file a run writes; a rerun into the same directory removes them first
ARTIFACTS = ("metrics.csv", "baseline.csv", "threshold.csv", "threshold.svg",
             "classwise.csv", "features.csv", "sdm.ckpt", "tdm.ckpt", "summary.json")


def _fmt(v) -> str:
    if v is None:
        return UNDEFINED
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v) + 0.0)


def _write_table(path: Path, header: str, rows) -> None:
    """The header line, then one line of comma-separated ``_fmt`` cells per row."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset_pair(cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    """Validate ``cfg`` and materialize the configured source/target pair; a
    ``ConfigError`` names the bad field, or ``batch_size`` if it exceeds
    either domain, which only the loaded data tells."""
    validate_config(cfg)
    source, target = _materialize(cfg)
    smaller = min(source.n, target.n)
    if cfg.batch_size > smaller:
        raise ConfigError(f"batch_size: {cfg.batch_size} exceeds the smaller "
                          f"domain's {smaller} samples")
    return source, target


def _materialize(cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    ds = cfg.dataset
    if ds.kind == "csv":  # training reads every source label and evaluation every target one
        source = load_labeled_csv(ds.source, "training")
        target = as_target_view(load_labeled_csv(ds.target, "evaluation"))
        if source.num_classes != target.num_classes:
            raise ConfigError("dataset.source/target: class counts differ")
        if source.dim != target.dim:
            raise ConfigError("dataset.source/target: feature dims differ")
        return source, target
    seed = cfg.dataset_seed()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing draw is rejected below
        if ds.kind == "blobs":
            pair = gen_blobs_shift(ds.num_classes, ds.per_class, ds.dim,
                                   ds.rotation_deg, ds.translation, ds.noise_sigma, seed)
        else:  # moons (validate_config admits no other kind)
            pair = gen_moons_shift(ds.per_class, ds.rotation_deg, ds.noise_sigma, seed)
    keys = "noise_sigma/translation" if ds.kind == "blobs" else "noise_sigma"
    for d in pair:
        if not np.isfinite(d.features).all():
            raise ConfigError(f"dataset.{keys}: the generated {d.domain_tag} domain "
                              "holds a non-finite feature")
    return pair


# -- metrics.csv -------------------------------------------------------------

def emit_report(rows: list[MetricsRow], out_dir) -> Path:
    """Write metrics.csv: one versioned header line, then one row per epoch."""
    if not rows:
        raise ValueError("emit_report needs at least one metrics row")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "metrics.csv"
    _write_table(path, f"# {METRICS_VERSION} " + ",".join(METRICS_COLUMNS), map(astuple, rows))
    return path


def load_metrics_csv(path) -> list[MetricsRow]:
    """Parse metrics.csv; every error is a ``ValueError`` that starts with
    ``path``, and a bad row's names its line."""
    text = _read_text(path, ValueError)
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln]
    if not lines:
        raise ValueError(f"{path}: empty metrics file")
    header = lines[0][1]
    prefix = f"# {METRICS_VERSION} "
    if not header.startswith(prefix):
        raise ValueError(f"{path}: unrecognized metrics header: {header!r}")
    columns = header[len(prefix):].split(",")
    if columns != METRICS_COLUMNS:
        raise ValueError(f"{path}: metrics.csv column mismatch")
    parse = get_type_hints(MetricsRow)  # int or float, per column
    rows = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{path}: line {lineno}: expected {len(columns)} cells, "
                             f"got {len(cells)}")
        try:
            rows.append(MetricsRow(**{col: parse[col](cell)
                                      for col, cell in zip(columns, cells)}))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


# -- baseline.csv ------------------------------------------------------------

def _write_baseline(history: list[BaselineRow], path: Path) -> None:
    """baseline.csv: one versioned header line, then one row per completed
    pretraining epoch (mean loss, source and target accuracy)."""
    _write_table(path, f"# {BASELINE_VERSION} " + ",".join(BaselineRow._fields), history)


# -- class-wise accuracy -----------------------------------------------------

def classwise_accuracy(pred: Array, truth: Array, num_classes: int) -> list[float | None]:
    """Per-class accuracy; ``None`` where a class is absent from the eval set."""
    out: list[float | None] = []
    for c in range(num_classes):
        sel = truth == c
        n = int(sel.sum())
        out.append(None if n == 0 else float((pred[sel] == c).mean()))
    return out


class ClasswiseRow(NamedTuple):
    """One class of the eval set; the fields are classwise.csv's columns,
    ``label`` its ``class`` column."""

    label: int
    n: int
    acc_sd: float | None
    acc_td: float | None
    acc_ens: float | None
    gap: float | None  # |acc_sd - acc_td|, None where either is


def classwise_report(dual: DualState, eval_ds: Dataset) -> list[ClasswiseRow]:
    """One row per class of ``eval_ds``, for both models and their ensemble."""
    truth = eval_ds.eval_labels()
    # one forward per model serves its own labels and the ensemble rule
    p_sd = predict_probs(dual.sdm, eval_ds.features)
    p_td = predict_probs(dual.tdm, eval_ds.features)
    c = eval_ds.num_classes
    accs = [classwise_accuracy(pred, truth, c) for pred in (
        np.argmax(p_sd, axis=1), np.argmax(p_td, axis=1), ensemble_labels(p_sd, p_td))]
    return [ClasswiseRow(k, int((truth == k).sum()), a, b, e,
                         None if a is None or b is None else abs(a - b))
            for k, (a, b, e) in enumerate(zip(*accs))]


def rank_class_gaps(rows: list[ClasswiseRow], top_n: int = 10) -> list[ClasswiseRow]:
    """The rows ranked by their gap, largest first; rows without one are
    skipped, and ties keep the lower class first."""
    ranked = sorted((r for r in rows if r.gap is not None), key=lambda r: (-r.gap, r.label))
    return ranked[:top_n]


def _write_classwise(rows: list[ClasswiseRow], path: Path) -> None:
    _write_table(path, "class,n,acc_sd,acc_td,acc_ens,gap", rows)


def _write_threshold_trace(dual: DualState, path: Path) -> None:
    _write_table(path, ",".join(ThresholdRow._fields), dual.threshold_trace)


def _write_threshold_chart(dual: DualState, warmup_epochs: int, path: Path) -> None:
    """Self-contained SVG line chart of both models' adaptive thresholds over
    training, with the warm-up boundary marked."""
    trace = dual.threshold_trace
    width, height, margin = 640, 320, 45
    n_epochs = trace[-1].epoch
    per_epoch = max(row.iteration for row in trace)

    def x_pos(epoch: int, it: int) -> float:
        frac = (epoch - 1 + it / per_epoch) / n_epochs
        return margin + frac * (width - 2 * margin)

    def y_pos(tau: float) -> float:
        return height - margin - tau * (height - 2 * margin)

    def polyline(tau: str, color: str, label: str, label_y: int) -> list[str]:
        pts = " ".join(f"{x_pos(row.epoch, row.iteration):.1f},{y_pos(getattr(row, tau)):.1f}"
                       for row in trace)
        return [f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                f'points="{pts}"/>',
                f'<text x="{width - margin - 150}" y="{label_y}" fill="{color}" '
                f'font-size="12">{label}</text>']

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">epoch (1..{n_epochs})</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">confidence threshold</text>',
    ]
    for tau_tick in (0.0, 0.5, 1.0):
        y = y_pos(tau_tick)
        parts.append(f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{y + 4:.1f}" font-size="10" '
                     f'text-anchor="end">{tau_tick:g}</text>')
    if 0 < warmup_epochs < n_epochs:
        x = x_pos(warmup_epochs, per_epoch)
        parts.append(f'<line x1="{x:.1f}" y1="{margin}" x2="{x:.1f}" '
                     f'y2="{height - margin}" stroke="gray" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{x + 4:.1f}" y="{margin + 12}" font-size="10" '
                     f'fill="gray">warm-up ends</text>')
    parts += polyline("tau_sd", "#1f77b4", "source-dominant model", margin + 14)
    parts += polyline("tau_td", "#d62728", "target-dominant model", margin + 30)
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


_FORMAT_VALUES = 16_384  # values per features.csv worker: ~1 us of repr each, ~4 ms a fork
_BLOCK_VALUES = 16_384  # values a features.csv process formats before it writes them


def _format_rows(heads: list[str], values: Array) -> bytes:
    return "".join([h + ",".join(map(repr, v)) + "\n"
                    for h, v in zip(heads, values.tolist())]).encode()


def _write_rows(f, heads: list[str], values: Array) -> None:
    """``_format_rows`` of whole rows, ``_BLOCK_VALUES`` values at a time (one
    row at least), each block written to ``f`` as soon as it is made."""
    step = max(1, _BLOCK_VALUES // values.shape[1])
    for lo in range(0, len(heads), step):
        f.write(_format_rows(heads[lo:lo + step], values[lo:lo + step]))


def _write_in_workers(path: Path, header: str, heads: list[str], values: Array,
                      workers: int) -> None:
    """The header line, then one line per row, cut into ``workers`` chunks at
    ``len(heads) * k // workers``. Each chunk but the first is written by a forked
    child, which runs only tolist, repr, join and encode, into an unnamed temporary
    file in ``path``'s directory; the parent writes the header and the first chunk
    into ``path``, reaps every child and appends their files in order. A failed
    child is an ``OSError`` naming ``path``; on any error no ``path`` is left."""
    cuts = [len(heads) * k // workers for k in range(workers + 1)]
    pids, parts = [], []
    try:
        try:
            for lo, hi in zip(cuts[1:], cuts[2:]):
                parts.append(part := tempfile.TemporaryFile(dir=path.parent))
                if (pid := os.fork()) == 0:  # no BLAS, no thread, no return
                    try:
                        _write_rows(part, heads[lo:hi], values[lo:hi])
                        part.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
            with open(path, "wb") as f:
                f.write((header + "\n").encode())
                _write_rows(f, heads[:cuts[1]], values[:cuts[1]])
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        if any(statuses):
            raise OSError(f"{path}: a formatting worker failed (exit statuses {statuses})")
        with open(path, "ab") as f:
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, f)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    finally:
        for part in parts:
            part.close()


def _write_features(dual: DualState, source: Dataset, target: Dataset,
                    path: Path) -> None:
    """Final-epoch feature vectors of both models with domain tag and label, written
    by one worker per CPU in ``os.sched_getaffinity`` at most (one if it is missing)."""
    k_sd, k_td = dual.sdm.feature_dim, dual.tdm.feature_dim
    header = ",".join(["domain", "label"] + [f"sd_{i}" for i in range(k_sd)]
                      + [f"td_{i}" for i in range(k_td)])
    values = np.empty((source.n + target.n, k_sd + k_td))
    for rows, ds in ((values[:source.n], source), (values[source.n:], target)):
        # + 0.0 turns -0.0 into 0.0, as _fmt does
        np.add(predict_features(dual.sdm, ds.features), 0.0, out=rows[:, :k_sd])
        np.add(predict_features(dual.tdm, ds.features), 0.0, out=rows[:, k_sd:])
    heads = [f"{ds.domain_tag},{label}," for ds in (source, target)
             for label in ds.eval_labels().tolist()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, values.size // _FORMAT_VALUES))
    _write_in_workers(path, header, heads, values, workers)


# -- the experiment ----------------------------------------------------------

@dataclass
class ExperimentResult:
    config: TrainConfig
    baseline: BaselineResult
    dual: DualState
    metrics: list[MetricsRow]
    summary: dict


def execute(cfg: TrainConfig, out_dir) -> ExperimentResult:
    """Baseline pretrain, dual-model train, final eval; writes all artifacts."""
    out_dir = Path(out_dir)
    t0 = time.perf_counter()

    source, target = load_dataset_pair(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:  # a rerun leaves none of the previous run's files
        (out_dir / name).unlink(missing_ok=True)
    # each phase's completed epochs survive an abort, in that phase's file
    try:
        base = train_baseline(cfg, source, target)
    except NonFiniteLossError as exc:
        _write_baseline(exc.rows, out_dir / "baseline.csv")
        raise
    _write_baseline(base.history, out_dir / "baseline.csv")
    try:
        dual, rows = train_fixbi(cfg, source, target, base.model)
    except NonFiniteLossError as exc:
        if exc.rows:
            emit_report(exc.rows, out_dir)
        raise

    emit_report(rows, out_dir)
    _write_threshold_trace(dual, out_dir / "threshold.csv")
    _write_threshold_chart(dual, cfg.warmup_epochs, out_dir / "threshold.svg")
    classwise = classwise_report(dual, target)
    _write_classwise(classwise, out_dir / "classwise.csv")
    _write_features(dual, source, target, out_dir / "features.csv")
    save_checkpoint(dual.sdm, out_dir / "sdm.ckpt")
    save_checkpoint(dual.tdm, out_dir / "tdm.ckpt")

    last = rows[-1]
    summary = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "warmup_epochs": cfg.warmup_epochs,
        "baseline": cfg.baseline,
        "baseline_source_acc": base.source_acc,
        "baseline_target_acc": base.target_acc,
        "acc_src_sd": last.acc_src_sd,
        "acc_src_td": last.acc_src_td,
        "acc_tgt_sd": last.acc_tgt_sd,
        "acc_tgt_td": last.acc_tgt_td,
        "acc_tgt_ens": last.acc_tgt_ens,
        "top_gap_classes": [[r.label, r.gap] for r in rank_class_gaps(classwise)],
        "total_wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return ExperimentResult(cfg, base, dual, rows, summary)


def exit_status(config_path, work, tag: str = "") -> int:
    """The exit status ``work()`` returns, or that of the error it raises, printed as one
    ``<tag>error:`` line: 2 for a bad config, CSV or size, 1 for a failed write."""
    try:
        return work()
    except (ConfigError, CsvFormatError) as exc:
        message, status = exc, 2
    except MemoryError as exc:  # a size, in the config or a CSV header, past this host
        message, status = f"{config_path}: out of memory: {exc}", 2
    except OSError as exc:
        message, status = exc, 1
    print(f"{tag}error: {message}", file=sys.stderr)
    return status


def run_experiment(config_path, out_dir, seed: int | None = None) -> int:
    """CLI-facing wrapper: returns a process exit status instead of raising.

    ``seed`` overrides the config's seed and prefixes every message line.
    """
    tag = "" if seed is None else f"seed {seed}: "

    def run() -> int:
        cfg = load_config(config_path)
        if seed is not None:
            cfg.seed = seed
        try:
            result = execute(cfg, out_dir)
        except NonFiniteLossError as exc:
            print(f"{tag}error: {exc} (partial results preserved in {out_dir})",
                  file=sys.stderr)
            return 1
        print(f"{tag}ensemble target accuracy: {result.summary['acc_tgt_ens']:.4f} "
              f"(baseline {cfg.baseline}: {result.summary['baseline_target_acc']:.4f})")
        return 0
    return exit_status(config_path, run, tag)
