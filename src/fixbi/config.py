"""Experiment configuration: flat ``key = value`` text files and the typed
records shared by the trainers and the harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import get_type_hints

RATIO_RULES = ("fixed", "random", "range")
PSEUDO_LABEL_SOURCES = ("live", "frozen-baseline")
BASELINES = ("dann", "source-only")
# the DatasetSpec fields each dataset kind reads, besides ``kind`` itself
DATASET_KEYS = {
    "blobs": ("num_classes", "per_class", "dim", "rotation_deg", "translation",
              "noise_sigma", "seed"),
    "moons": ("per_class", "rotation_deg", "noise_sigma", "seed"),
    "csv": ("source", "target"),
}
DATASET_KINDS = tuple(DATASET_KEYS)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class DatasetSpec:
    kind: str = "blobs"
    num_classes: int = 3
    per_class: int = 100
    dim: int = 2
    rotation_deg: float = 50.0
    translation: tuple[float, ...] = ()
    noise_sigma: float = 0.15
    seed: int = -1              # -1: fall back to the run seed
    source: str = ""            # csv paths, kind == "csv" only
    target: str = ""


@dataclass
class TrainConfig:
    """Everything needed to reproduce one experiment end to end."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: tuple[int, ...] = (64, 64, 32)
    batch_size: int = 32
    epochs: int = 60
    warmup_epochs: int = 30
    # at desk scale lr0 = 0.001 leaves the pretrained baseline too diffuse
    # (near-uniform confidences) and the mutual-teaching phase collapses;
    # 0.01 converges cleanly on the synthetic pairs
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.005
    lambda_sd: float = 0.7
    lambda_td: float = 0.3
    lambda_cr: float = 0.5
    ratio_rule: str = "fixed"
    alpha: float = 1.0
    pseudo_label_source: str = "live"
    loss_bim: bool = True
    loss_sp: bool = True
    loss_cr: bool = True
    allow_unnormalized_ratios: bool = False
    grl_lambda: float = 1.0
    baseline: str = "dann"
    baseline_epochs: int = 100
    seed: int = 0

    def dataset_seed(self) -> int:
        return self.seed if self.dataset.seed < 0 else self.dataset.seed


def _check_values(record, prefix: str) -> None:
    """Each float of ``record``'s fields finite, each int an integer (not a bool)."""
    for f in fields(record):
        key, value = prefix + f.name, getattr(record, f.name)
        parse = _KEY_PARSERS.get(key)  # None for TrainConfig.dataset
        values = tuple(value) if isinstance(value, (tuple, list)) else (value,)
        if parse in (_TYPE_PARSERS[float], _TYPE_PARSERS[tuple[float, ...]]):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        elif parse in (_TYPE_PARSERS[int], _TYPE_PARSERS[tuple[int, ...]]):
            if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in values):
                raise ConfigError(f"{key}: must be an integer, got {value!r}")


def validate_dataset(ds: DatasetSpec) -> None:
    """:func:`validate_config`'s checks of one pair, which the generators run too. A
    field that the kind does not read (:data:`DATASET_KEYS`) must keep its default."""
    _check_values(ds, "dataset.")
    if ds.kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind: must be one of {DATASET_KINDS}, got {ds.kind!r}")
    for f in fields(DatasetSpec):
        value = getattr(ds, f.name)
        if f.name not in ("kind",) + DATASET_KEYS[ds.kind] and value != f.default:
            raise ConfigError(f"dataset.{f.name}: does not apply to kind = {ds.kind}, "
                              f"got {value!r}")
    if ds.kind == "csv":
        if not ds.source or not ds.target:
            raise ConfigError("dataset.source / dataset.target: required for kind=csv")
    else:
        if ds.per_class < 1:
            raise ConfigError(f"dataset.per_class: must be >= 1, got {ds.per_class}")
        if ds.noise_sigma < 0:
            raise ConfigError(f"dataset.noise_sigma: must be >= 0, got {ds.noise_sigma}")
    if ds.kind == "blobs":
        if ds.num_classes < 2:
            raise ConfigError(f"dataset.num_classes: must be >= 2, got {ds.num_classes}")
        if ds.dim < 2:
            raise ConfigError(f"dataset.dim: must be >= 2, got {ds.dim}")
        if len(ds.translation) > ds.dim:
            raise ConfigError(f"dataset.translation: {len(ds.translation)} components "
                              f"for dim {ds.dim}")
    if ds.seed < -1:
        raise ConfigError(f"dataset.seed: must be >= 0 (or -1 for run seed), got {ds.seed}")


def validate_config(cfg: TrainConfig) -> TrainConfig:
    """Check every field, the dataset's by :func:`validate_dataset`; raises
    :class:`ConfigError` naming the bad field."""
    validate_dataset(cfg.dataset)
    _check_values(cfg, "")
    if not cfg.arch or any(w < 1 for w in cfg.arch):
        raise ConfigError(f"arch: needs positive layer widths, got {cfg.arch}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch_size: must be >= 1, got {cfg.batch_size}")
    if cfg.epochs < 1:
        raise ConfigError(f"epochs: must be >= 1, got {cfg.epochs}")
    # warm-up may equal epochs: that is a warm-up-only run with the
    # matching/consistency phase never opening
    if not 0 <= cfg.warmup_epochs <= cfg.epochs:
        raise ConfigError(
            f"warmup_epochs: must be in [0, epochs], got {cfg.warmup_epochs} with "
            f"epochs={cfg.epochs}")
    if not cfg.lr0 > 0:
        raise ConfigError(f"lr0: must be positive, got {cfg.lr0}")
    if not 0 <= cfg.momentum < 1:
        raise ConfigError(f"momentum: must be in [0, 1), got {cfg.momentum}")
    if cfg.weight_decay < 0:
        raise ConfigError(f"weight_decay: must be >= 0, got {cfg.weight_decay}")
    if cfg.ratio_rule not in RATIO_RULES:
        raise ConfigError(f"ratio_rule: must be one of {RATIO_RULES}, got {cfg.ratio_rule!r}")
    for name, lam in (("lambda_sd", cfg.lambda_sd), ("lambda_td", cfg.lambda_td)):
        if not 0 <= lam <= 1:
            raise ConfigError(f"{name}: must be in [0, 1], got {lam}")
    if (cfg.ratio_rule == "fixed" and not cfg.allow_unnormalized_ratios
            and abs(cfg.lambda_sd + cfg.lambda_td - 1.0) > 1e-12):
        raise ConfigError(
            "lambda_sd/lambda_td: must sum to 1 under the fixed rule "
            f"(got {cfg.lambda_sd} + {cfg.lambda_td}); set "
            "allow_unnormalized_ratios = true for single-perspective ablations")
    if cfg.lambda_cr != 0.5:
        raise ConfigError(f"lambda_cr: fixed at 0.5, got {cfg.lambda_cr}")
    if cfg.ratio_rule != "fixed" and not cfg.alpha > 0:
        raise ConfigError(f"alpha: must be positive for stochastic rules, got {cfg.alpha}")
    if cfg.pseudo_label_source not in PSEUDO_LABEL_SOURCES:
        raise ConfigError(
            f"pseudo_label_source: must be one of {PSEUDO_LABEL_SOURCES}, "
            f"got {cfg.pseudo_label_source!r}")
    if cfg.grl_lambda < 0:
        raise ConfigError(f"grl_lambda: must be >= 0, got {cfg.grl_lambda}")
    if cfg.baseline not in BASELINES:
        raise ConfigError(f"baseline: must be one of {BASELINES}, got {cfg.baseline!r}")
    if cfg.baseline_epochs < 0:
        raise ConfigError(f"baseline_epochs: must be >= 0, got {cfg.baseline_epochs}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    return cfg


# -- parsing ---------------------------------------------------------------

def _parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _tuple_of(parse):
    def parse_tuple(value: str, key: str) -> tuple:
        # commas alone separate: "64 32" is one part, which fails to parse
        return tuple(parse(p.strip(), key) for p in value.split(",")) if value.strip() else ()
    return parse_tuple


# each key takes the parser of its field's type, so the fields of the two
# records, the dataset's prefixed by "dataset.", are the only list of keys
_TYPE_PARSERS = {int: _parse_int, float: _parse_float, bool: _parse_bool,
                 str: lambda value, key: value.strip(),
                 tuple[int, ...]: _tuple_of(_parse_int),
                 tuple[float, ...]: _tuple_of(_parse_float)}
_KEY_PARSERS = {prefix + name: _TYPE_PARSERS[hint]
                for cls, prefix in ((DatasetSpec, "dataset."), (TrainConfig, ""))
                for name, hint in get_type_hints(cls).items() if name != "dataset"}


def parse_config(text: str) -> TrainConfig:
    """Parse ``key = value`` lines ('#' comments allowed) and validate.

    A ``dataset.*`` key that the configured kind does not read (see
    :data:`DATASET_KEYS`) is rejected, naming its line, even when it sets
    the default.
    """
    cfg = TrainConfig()
    seen: dict[str, int] = {}  # key -> line number
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen[key] = lineno
        owner, _, name = key.rpartition(".")
        setattr(cfg.dataset if owner else cfg, name, _KEY_PARSERS[key](value, key))
    kind = cfg.dataset.kind
    if kind in DATASET_KEYS:  # an unknown kind fails validation instead
        for key, lineno in seen.items():
            owner, _, name = key.rpartition(".")
            if owner and name not in ("kind",) + DATASET_KEYS[kind]:
                raise ConfigError(f"line {lineno}: {key} does not apply to kind = {kind}")
    return validate_config(cfg)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: TrainConfig) -> str:
    """Canonical text form; ``parse(serialize(cfg))`` round-trips exactly.
    Of the dataset's fields, only ``kind`` and those its kind reads are
    written."""
    ds = cfg.dataset
    reads = ("kind",) + DATASET_KEYS.get(ds.kind, ())
    lines = [f"dataset.{f.name} = {_fmt_value(getattr(ds, f.name))}"
             for f in fields(DatasetSpec) if f.name in reads]
    for f in fields(TrainConfig):
        if f.name == "dataset":
            continue
        lines.append(f"{f.name} = {_fmt_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _read_text(path, error: type[ValueError]) -> str:
    """The UTF-8 text of ``path``, decoded in one call (a bad byte's offset is
    the file's); an unreadable file or bad byte is ``error``, naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: byte {exc.object[exc.start]:#04x} "
                    "is not UTF-8") from None


def load_config(path) -> TrainConfig:
    return parse_config(_read_text(path, ConfigError))


@dataclass
class MetricsRow:
    """One epoch of logged measurements, mirroring the metrics.csv columns."""

    epoch: int
    fm_sd: float = 0.0
    fm_td: float = 0.0
    bim_sd: float = 0.0
    bim_td: float = 0.0
    sp_sd: float = 0.0
    sp_td: float = 0.0
    cr: float = 0.0
    tau_sd: float = 0.0
    tau_td: float = 0.0
    n_above_sd: int = 0
    n_above_td: int = 0
    acc_src_sd: float = 0.0
    acc_src_td: float = 0.0
    acc_tgt_sd: float = 0.0
    acc_tgt_td: float = 0.0
    acc_tgt_ens: float = 0.0


METRICS_COLUMNS = [f.name for f in fields(MetricsRow)]
