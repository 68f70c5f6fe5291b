"""Dataset model, loaders, generators, and contamination utilities.

Two on-disk formats are supported:

* benchmark text: one point per line, columns separated by runs of
  spaces/tabs.  Lines that do not parse as numbers (headers, comments)
  are skipped.  Ground truth may live in a separate partition file with
  one integer per line, headers skipped likewise.
* labelled CSV: comma separated, optional header row (auto-detected when
  a feature cell of the first row is not numeric), label column given by
  index or ``"last"``.  String class labels are mapped to dense ids in
  order of first occurrence.

Every stochastic operation takes an explicit seed and draws from numpy's
PCG64 generator, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import as_int, check_positive, check_seed
from .errors import DomainError, FormatError

__all__ = [
    "Dataset",
    "ContaminationSpec",
    "load_benchmark_text",
    "load_csv_labeled",
    "standardize",
    "generate_gaussian_blobs",
    "contaminate",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix with optional ground-truth labels.

    ``samples`` is an (N, p) float matrix of finite values; ``labels``,
    when present, holds one dense cluster id in [0, C) per sample.
    """

    samples: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 1:
            raise DomainError(f"samples must be a non-empty 2-D matrix, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise DomainError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
                raise DomainError(
                    f"labels must be a length-{samples.shape[0]} vector, got shape {labels.shape}"
                )
            if labels.size and labels.min() < 0:
                raise DomainError("labels must be non-negative cluster ids")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    @property
    def n_classes(self) -> int | None:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class ContaminationSpec:
    """How to sprinkle box-uniform outliers over a dataset."""

    outlier_fraction: float
    box_expansion: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if check_positive("outlier_fraction", self.outlier_fraction, floor=0.0) >= 1.0:
            raise DomainError(f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}")
        check_positive("box_expansion", self.box_expansion, floor=1.0)
        check_seed(self.seed)


def _dense_remap(raw) -> np.ndarray:
    """Map values to 0-based ids in order of first occurrence."""
    seen: dict = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, v in enumerate(raw):
        out[i] = seen.setdefault(v, len(seen))
    return out


def _numeric_lines(path):
    """Yield (line number, values) for each non-blank line of ``path`` whose tokens all parse as numbers."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                values = [float(t) for t in line.split()]
            except ValueError:
                continue
            if values:
                yield lineno, values


def load_benchmark_text(path, label_path=None, name: str | None = None) -> Dataset:
    """Load a whitespace-delimited coordinate file, optionally with a partition file.

    Rows whose tokens all parse as numbers become samples; any other line
    is treated as a header or comment and skipped.  A partition file
    contributes one label per numeric line; labels are remapped to a dense
    0-based range in order of first occurrence.
    """
    path = Path(path)
    rows: list[list[float]] = []
    for lineno, values in _numeric_lines(path):
        if rows and len(values) != len(rows[0]):
            raise FormatError(f"{path}: row {lineno}: expected {len(rows[0])} columns, got {len(values)}")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no numeric rows found")
    labels = None
    if label_path is not None:
        raw = [values[0] for _, values in _numeric_lines(label_path) if len(values) == 1]
        if len(raw) != len(rows):
            raise FormatError(f"{label_path}: {len(raw)} labels for {len(rows)} samples")
        labels = _dense_remap(raw)
    return Dataset(np.asarray(rows), labels, name or path.stem)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv_labeled(path, label_column="last", name: str | None = None) -> Dataset:
    """Load a comma-separated file whose rows end (or contain) a class label.

    The header row, if any, is auto-detected: a first row with a
    non-numeric feature cell is skipped.  Class labels (strings or
    numbers) are mapped to dense ids by first occurrence.
    """
    import csv

    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        raw_rows = [(i, row) for i, row in enumerate(csv.reader(fh), start=1) if any(c.strip() for c in row)]
    if not raw_rows:
        raise FormatError(f"{path}: no rows found")
    width = len(raw_rows[0][1])
    if width < 2:
        raise FormatError(f"{path}: need at least one feature column plus the label column")
    if label_column == "last":
        col = width - 1
    else:
        try:  # through its text, so a bool or a float is refused where int() would truncate it
            col = int(str(label_column))
        except ValueError:
            raise DomainError(f"label_column must be an index or 'last', got {label_column!r}") from None
    if not 0 <= col < width:
        raise DomainError(f"label column {label_column} out of range for {width} columns")

    first_row = raw_rows[0][1]
    header = all(not _is_number(first_row[c].strip()) for c in range(width) if c != col)
    data_rows = raw_rows[1:] if header else raw_rows

    features: list[list[float]] = []
    raw_labels: list[str] = []
    for rowno, row in data_rows:
        if len(row) != width:
            raise FormatError(f"{path}: row {rowno}: expected {width} columns, got {len(row)}")
        feat = []
        for c in range(width):
            cell = row[c].strip()
            if c == col:
                raw_labels.append(cell)
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise FormatError(
                    f"{path}: row {rowno}, column {c + 1}: not numeric: {cell!r}"
                ) from None
        features.append(feat)
    if not features:
        raise FormatError(f"{path}: no data rows found")
    return Dataset(np.asarray(features), _dense_remap(raw_labels), name or path.stem)


def standardize(d: Dataset):
    """Center each column and scale it to unit sample standard deviation.

    Returns ``(dataset, mean, std)``.  The std uses the N-1 convention;
    constant columns are centered only, reported with std 0, and divided
    by 1 instead.
    """
    if d.n < 2:
        raise DomainError("standardize needs at least 2 samples")
    mean = d.samples.mean(axis=0)
    std = d.samples.std(axis=0, ddof=1)
    divisor = np.where(std == 0.0, 1.0, std)
    out = Dataset((d.samples - mean) / divisor, d.labels, d.name)
    return out, mean, std


def generate_gaussian_blobs(
    n_clusters: int,
    per_cluster: int,
    n_features: int = 2,
    center_box: float = 10.0,
    cluster_std: float = 1.0,
    seed: int = 0,
    name: str | None = None,
) -> Dataset:
    """Sample isotropic Gaussian blobs around uniformly drawn centers.

    Centers are uniform over [-center_box, center_box]^p; each center then
    receives ``per_cluster`` points with the given standard deviation.
    Labels record the generating component.  Counts must be integers >= 1,
    ``seed`` an integer >= 0, ``cluster_std`` finite and > 0 and
    ``center_box`` >= 0 with ``2 * center_box`` finite; anything else
    raises ``DomainError``, as does a sample that overflows float64.
    """
    n_clusters, per_cluster, n_features = (
        as_int("n_clusters", n_clusters), as_int("per_cluster", per_cluster), as_int("n_features", n_features)
    )
    if min(n_clusters, per_cluster, n_features) < 1:
        raise DomainError("n_clusters, per_cluster and n_features must all be >= 1")
    check_positive("cluster_std", cluster_std)
    if 2.0 * check_positive("center_box", center_box, floor=0.0) == math.inf:
        raise DomainError(f"center_box must be finite and >= 0, and 2 * center_box finite, got {center_box}")
    rng = np.random.default_rng(check_seed(seed))
    centers = rng.uniform(-center_box, center_box, size=(n_clusters, n_features))
    with np.errstate(over="ignore"):  # an infinite sample is a DomainError from Dataset
        samples = np.concatenate(
            [c + cluster_std * rng.standard_normal((per_cluster, n_features)) for c in centers]
        )
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    return Dataset(samples, labels, name or f"blobs{n_clusters}x{per_cluster}")


def contaminate(d: Dataset, spec: ContaminationSpec) -> Dataset:
    """Append box-uniform outliers carrying a fresh label class.

    ``round(outlier_fraction * N)`` points are drawn uniformly from the
    data bounding box expanded by ``box_expansion`` about its center and
    appended after the original samples, which are preserved verbatim.
    The appended points share one new label id so that evaluation can
    include or exclude them explicitly.  A box whose width overflows
    float64 raises ``DomainError``.
    """
    m = int(round(spec.outlier_fraction * d.n))
    if m == 0:
        return d
    if d.labels is None:
        raise DomainError("contaminate needs ground-truth labels so outliers can carry their own class")
    rng = np.random.default_rng(spec.seed)
    lo = d.samples.min(axis=0)
    hi = d.samples.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * spec.box_expansion
        low, high = center - half, center + half
        if not np.isfinite(high - low).all():
            raise DomainError("the outlier box overflows float64; lower box_expansion or rescale the data")
    outliers = rng.uniform(low, high, size=(m, d.p))
    samples = np.concatenate([d.samples, outliers])
    labels = np.concatenate([d.labels, np.full(m, d.n_classes, dtype=np.int64)])
    return Dataset(samples, labels, d.name)
