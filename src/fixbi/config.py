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


def _rule(default, test, phrase: str):
    """A field whose value must pass ``test``; else the message is
    ``<key>: <phrase>, got <value>``."""
    return field(default=default, metadata={"rule": (test, phrase)})


def _at_least(default, n, phrase: str = ""):
    return _rule(default, lambda v: v >= n, phrase or f"must be >= {n}")


def _within(default, lo, hi, closed: bool = True):
    return _rule(default, lambda v: lo <= v <= hi and (closed or v < hi),
                 f"must be in [{lo}, {hi}{']' if closed else ')'}")


def _one_of(default, choices: tuple):
    return _rule(default, lambda v: v in choices, f"must be one of {choices}")


@dataclass
class DatasetSpec:
    kind: str = _one_of("blobs", DATASET_KINDS)
    num_classes: int = _at_least(3, 2)
    per_class: int = _at_least(100, 1)
    dim: int = _at_least(2, 2)
    rotation_deg: float = 50.0
    translation: tuple[float, ...] = ()
    noise_sigma: float = _at_least(0.15, 0)
    seed: int = _at_least(-1, -1, "must be >= 0 (or -1 for run seed)")
    source: str = ""            # csv paths, kind == "csv" only
    target: str = ""


@dataclass
class TrainConfig:
    """Everything needed to reproduce one experiment end to end."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    arch: tuple[int, ...] = _rule((64, 64, 32), lambda w: len(w) > 0 and min(w) >= 1,
                                  "needs positive layer widths")
    batch_size: int = _at_least(32, 1)
    epochs: int = _at_least(60, 1)
    warmup_epochs: int = 30
    # at desk scale lr0 = 0.001 leaves the pretrained baseline too diffuse
    # (near-uniform confidences) and the mutual-teaching phase collapses;
    # 0.01 converges cleanly on the synthetic pairs
    lr0: float = _rule(0.01, lambda v: v > 0, "must be positive")
    momentum: float = _within(0.9, 0, 1, closed=False)
    weight_decay: float = _at_least(0.005, 0)
    lambda_sd: float = _within(0.7, 0, 1)
    lambda_td: float = _within(0.3, 0, 1)
    lambda_cr: float = _rule(0.5, lambda v: v == 0.5, "fixed at 0.5")
    ratio_rule: str = _one_of("fixed", RATIO_RULES)
    alpha: float = 1.0
    pseudo_label_source: str = _one_of("live", PSEUDO_LABEL_SOURCES)
    loss_bim: bool = True
    loss_sp: bool = True
    loss_cr: bool = True
    allow_unnormalized_ratios: bool = False
    grl_lambda: float = _at_least(1.0, 0)
    baseline: str = _one_of("dann", BASELINES)
    baseline_epochs: int = _at_least(100, 0)
    seed: int = _at_least(0, 0)

    def dataset_seed(self) -> int:
        return self.seed if self.dataset.seed < 0 else self.dataset.seed


_HINTS = {cls: get_type_hints(cls) for cls in (DatasetSpec, TrainConfig)}
# the type rule each field's type hint picks, applied to each item of a tuple
_TYPE_RULES = {float: ("must be finite", math.isfinite),
               int: ("must be an integer",
                     lambda v: isinstance(v, Integral) and not isinstance(v, bool))}
_TYPE_RULES.update({tuple[t, ...]: rule for t, rule in _TYPE_RULES.items()})


def _check_fields(record, prefix: str, reads=lambda name: True) -> None:
    """Each field of ``record`` in order: its type rule, then that it keeps its default
    if ``reads(name)`` is false, then its declared value rule (:func:`_rule`)."""
    for f in fields(record):
        key, value = prefix + f.name, getattr(record, f.name)
        phrase, test = _TYPE_RULES.get(_HINTS[type(record)][f.name], ("", None))
        if test and not all(map(test, value if isinstance(value, (tuple, list)) else (value,))):
            raise ConfigError(f"{key}: {phrase}, got {value!r}")
        if not reads(f.name) and value != f.default:
            raise ConfigError(f"{key}: does not apply to kind = {record.kind}, got {value!r}")
        test, phrase = f.metadata.get("rule", (None, ""))
        if test and not test(value):
            raise ConfigError(f"{key}: {phrase}, got "
                              f"{repr(value) if isinstance(value, str) else value}")


def validate_dataset(ds: DatasetSpec) -> None:
    """:func:`validate_config`'s checks of one pair, which the generators run too. A
    field that the kind does not read (:data:`DATASET_KEYS`) must keep its default."""
    # kind, the first field, passes its rule before any other field asks what it reads
    _check_fields(ds, "dataset.", lambda name: name == "kind" or name in DATASET_KEYS[ds.kind])
    if ds.kind == "csv" and not (ds.source and ds.target):
        raise ConfigError("dataset.source / dataset.target: required for kind=csv")
    if len(ds.translation) > ds.dim:
        raise ConfigError(f"dataset.translation: {len(ds.translation)} components "
                          f"for dim {ds.dim}")


def validate_config(cfg: TrainConfig) -> TrainConfig:
    """Check every field, the dataset's by :func:`validate_dataset`, then the rules
    that relate fields; raises :class:`ConfigError` naming the bad field."""
    validate_dataset(cfg.dataset)
    _check_fields(cfg, "")
    # warm-up may equal epochs: that is a warm-up-only run with the
    # matching/consistency phase never opening
    if not 0 <= cfg.warmup_epochs <= cfg.epochs:
        raise ConfigError(
            f"warmup_epochs: must be in [0, epochs], got {cfg.warmup_epochs} with "
            f"epochs={cfg.epochs}")
    if (cfg.ratio_rule == "fixed" and not cfg.allow_unnormalized_ratios
            and abs(cfg.lambda_sd + cfg.lambda_td - 1.0) > 1e-12):
        raise ConfigError(
            "lambda_sd/lambda_td: must sum to 1 under the fixed rule "
            f"(got {cfg.lambda_sd} + {cfg.lambda_td}); set "
            "allow_unnormalized_ratios = true for single-perspective ablations")
    if cfg.ratio_rule != "fixed" and not cfg.alpha > 0:
        raise ConfigError(f"alpha: must be positive for stochastic rules, got {cfg.alpha}")
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
                for name, hint in _HINTS[cls].items() if name != "dataset"}


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
