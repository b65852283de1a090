"""Synthetic source/target domain pairs, CSV ingestion and paired batching.

The generators are desk-scale stand-ins for image benchmarks: a labeled source
distribution plus a target distribution produced by rotating / translating
fresh draws from the same clusters. Target ground truth is carried for
evaluation but quarantined out of the training view (labels show as -1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import _read_text
from .numerics import Array

SOURCE = "source"
TARGET = "target"


class CsvFormatError(ValueError):
    """Malformed dataset CSV; the message names the file and the offending
    line number."""


@dataclass
class Dataset:
    """Feature matrix with labels; -1 marks an unlabeled sample.

    ``hidden_labels`` holds quarantined ground truth for target datasets; it
    is only reachable through :meth:`eval_labels`.
    """

    features: Array            # (N, d) float64
    labels: Array              # (N,) int64, -1 = unlabeled
    num_classes: int
    domain_tag: str            # "source" | "target"
    hidden_labels: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        bad = (self.labels < -1) | (self.labels >= self.num_classes)
        if bad.any():
            raise ValueError(f"label out of range at row {int(np.argmax(bad))}")
        if self.domain_tag not in (SOURCE, TARGET):
            raise ValueError(f"domain_tag must be 'source' or 'target', got {self.domain_tag!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def eval_labels(self) -> Array:
        """Ground-truth labels for evaluation; never exposed to training code."""
        labels = self.hidden_labels if self.hidden_labels is not None else self.labels
        if (labels < 0).any():
            raise ValueError("dataset has no ground-truth labels for evaluation")
        return labels


def as_target_view(ds: Dataset) -> Dataset:
    """Re-tag a labeled dataset as an unlabeled target, quarantining its labels."""
    return Dataset(
        features=ds.features.copy(),
        labels=np.full(ds.n, -1, dtype=np.int64),
        num_classes=ds.num_classes,
        domain_tag=TARGET,
        hidden_labels=ds.eval_labels().copy(),
    )


def _rotate_first_two(x: Array, degrees: float, center: tuple[float, float] = (0.0, 0.0)) -> Array:
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    out = x.copy()
    u = x[:, 0] - center[0]
    v = x[:, 1] - center[1]
    out[:, 0] = c * u - s * v + center[0]
    out[:, 1] = s * u + c * v + center[1]
    return out


def _apply_translation(x: Array, translation) -> Array:
    t = np.zeros(x.shape[1])
    vals = np.atleast_1d(np.asarray(translation, dtype=np.float64))
    if vals.size > x.shape[1]:
        raise ValueError("translation has more components than feature dims")
    t[: vals.size] = vals
    return x + t


def _check_finite(**values) -> None:
    """Reject a generator argument holding NaN or inf, naming it: such a
    value would run through the draws into every row."""
    for name, value in values.items():
        if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def gen_blobs_shift(num_classes: int, per_class: int, dim: int,
                    rotation_deg: float = 0.0, translation=(),
                    noise_sigma: float = 0.15, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Gaussian clusters with unit-separated means plus a shifted target copy.

    Class means sit on a circle in the first two dimensions with adjacent
    means exactly one unit apart. The target is a fresh draw from the same
    clusters, rotated (first two dims) about the origin and translated.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    _check_finite(noise_sigma=noise_sigma, rotation_deg=rotation_deg,
                  translation=translation)
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")

    radius = 0.5 / math.sin(math.pi / num_classes)
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        angle = 2.0 * math.pi * c / num_classes
        means[c, 0] = radius * math.cos(angle)
        means[c, 1] = radius * math.sin(angle)

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    n = labels.size
    src = means[labels] + rng.normal(0.0, noise_sigma, size=(n, dim))
    tgt_draw = means[labels] + rng.normal(0.0, noise_sigma, size=(n, dim))
    tgt = _apply_translation(_rotate_first_two(tgt_draw, rotation_deg), translation)

    source = Dataset(src, labels.copy(), num_classes, SOURCE)
    target = Dataset(tgt, np.full(n, -1, dtype=np.int64), num_classes, TARGET,
                     hidden_labels=labels.copy())
    return source, target


_MOONS_CENTER = (0.5, 0.25)  # midpoint of the two interleaved half-circles


def gen_moons_shift(per_class: int, rotation_deg: float = 0.0,
                    noise_sigma: float = 0.1, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Two interleaved half-circles plus a rotated fresh-draw target (2 classes).

    Rotation is about the moons' midpoint so the shifted target stays in
    place while its class structure slides against the source's.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    _check_finite(noise_sigma=noise_sigma, rotation_deg=rotation_deg)
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")

    rng = np.random.default_rng(seed)

    def draw() -> Array:
        t0 = rng.uniform(0.0, math.pi, per_class)
        t1 = rng.uniform(0.0, math.pi, per_class)
        outer = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        inner = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        pts = np.concatenate([outer, inner], axis=0)
        return pts + rng.normal(0.0, noise_sigma, size=pts.shape)

    labels = np.concatenate([np.zeros(per_class, dtype=np.int64),
                             np.ones(per_class, dtype=np.int64)])
    src = draw()
    tgt = _rotate_first_two(draw(), rotation_deg, center=_MOONS_CENTER)

    source = Dataset(src, labels.copy(), 2, SOURCE)
    target = Dataset(tgt, np.full(labels.size, -1, dtype=np.int64), 2, TARGET,
                     hidden_labels=labels.copy())
    return source, target


# ---------------------------------------------------------------------------
# CSV interchange format: header "# classes=<K> dim=<d>", then
# "<f1>,...,<fd>,<label>" rows with label in [-1, K). LF endings, UTF-8,
# floats in shortest round-trip decimal.
# ---------------------------------------------------------------------------

def save_csv(ds: Dataset, path, with_eval_labels: bool = False) -> None:
    """Write a dataset in the interchange format; row order preserved."""
    labels = ds.eval_labels() if with_eval_labels else ds.labels
    lines = [f"# classes={ds.num_classes} dim={ds.dim}"]
    for row, label in zip(ds.features.tolist(), labels.astype(np.int64).tolist()):
        lines.append(",".join(map(repr, row)) + f",{label}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> Dataset:
    """Parse the interchange format; errors start with ``path`` and carry
    1-based line numbers (``<path>: line 3: ...``)."""
    raw = _read_text(path, CsvFormatError).split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise CsvFormatError(f"{path}: line 1: empty file")
    header = raw[0]
    parts = header.split()
    if (len(parts) != 3 or parts[0] != "#"
            or not parts[1].startswith("classes=") or not parts[2].startswith("dim=")):
        raise CsvFormatError(
            f"{path}: line 1: expected '# classes=<K> dim=<d>', got {header!r}")
    try:
        num_classes = int(parts[1][len("classes="):])
        dim = int(parts[2][len("dim="):])
    except ValueError:
        raise CsvFormatError(
            f"{path}: line 1: non-integer classes/dim in {header!r}") from None
    if num_classes < 1 or dim < 1:
        raise CsvFormatError(f"{path}: line 1: classes and dim must be positive")
    if len(raw) == 1:
        raise CsvFormatError(f"{path}: line 2: no samples after the header")

    feats: list[list[float]] = []
    labels: list[int] = []
    for lineno, line in enumerate(raw[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {dim + 1} fields, got {len(cells)}")
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno}: non-numeric feature value") from None
        try:
            label = int(cells[-1])
        except ValueError:
            raise CsvFormatError(
                f"{path}: line {lineno}: non-integer label {cells[-1]!r}") from None
        if label < -1 or label >= num_classes:
            raise CsvFormatError(
                f"{path}: line {lineno}: label {label} outside [-1, {num_classes})")
        feats.append(row)
        labels.append(label)

    features = np.asarray(feats, dtype=np.float64).reshape(len(labels), dim)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise CsvFormatError(
            f"{path}: line {int(np.argmin(finite)) + 2}: non-finite feature value")
    labels_arr = np.asarray(labels, dtype=np.int64)
    tag = TARGET if (labels_arr == -1).all() else SOURCE
    return Dataset(features, labels_arr, num_classes, tag)


@dataclass
class PairedBatch:
    """One training step's worth of source and target samples (equal size)."""

    xs: Array   # (B, d)
    ys: Array   # (B,) int64 source labels
    xt: Array   # (B, d)
    target_rows: Array  # (B,) the rows of the target set that xt holds


def _index_stream(n: int, needed: int, rng: np.random.Generator) -> Array:
    """Concatenated fresh permutations of range(n), truncated to ``needed``."""
    chunks = []
    total = 0
    while total < needed:
        chunks.append(rng.permutation(n))
        total += n
    return np.concatenate(chunks)[:needed]


def batches_per_epoch(source: Dataset, target: Dataset, batch_size: int) -> int:
    """Batches in one epoch of :func:`paired_minibatches`: the larger set's
    size over ``batch_size``, rounded down."""
    return max(source.n, target.n) // batch_size


def paired_minibatches(source: Dataset, target: Dataset, batch_size: int,
                       epoch: int, seed: int) -> list[PairedBatch]:
    """Deterministic equal-size source/target batches for one epoch.

    Both datasets are shuffled with a stream derived from ``(seed, epoch)``;
    the shorter one cycles with a fresh shuffle at each wraparound. Trailing
    partial batches are dropped, leaving :func:`batches_per_epoch` of them.
    The source stream is drawn before the target stream.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if batch_size > min(source.n, target.n):
        raise ValueError(
            f"batch_size {batch_size} exceeds smaller dataset size "
            f"{min(source.n, target.n)}")
    rng = np.random.default_rng([seed, epoch])
    n_batches = batches_per_epoch(source, target, batch_size)
    needed = n_batches * batch_size
    src_idx = _index_stream(source.n, needed, rng)
    tgt_idx = _index_stream(target.n, needed, rng)
    batches = []
    for b in range(n_batches):
        sl = slice(b * batch_size, (b + 1) * batch_size)
        si, ti = src_idx[sl], tgt_idx[sl]
        batches.append(PairedBatch(xs=source.features[si],
                                   ys=source.labels[si],
                                   xt=target.features[ti], target_rows=ti))
    return batches


def one_hot_table(source: Dataset, num_classes: int) -> Array:
    """``np.eye(num_classes)``, whose row y is ``one_hot(y)``, after checking every label
    of ``source`` once: a ``ValueError`` names the first row out of range."""
    bad = (source.labels < 0) | (source.labels >= num_classes)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{source.domain_tag} row {row}: label {source.labels[row]}, but "
                         f"training needs every row's class in [0, {num_classes})")
    return np.eye(num_classes)


def one_hot(labels: Array, num_classes: int) -> Array:
    """One-hot rows as float64: labels of shape ``S`` give ``S + (C,)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes) cannot be one-hot encoded")
    return (labels[..., None] == np.arange(num_classes)).astype(np.float64)
