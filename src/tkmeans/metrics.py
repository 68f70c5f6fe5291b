"""Clustering evaluation: adjusted Rand index, clustering MSE, and the W/B ratio."""

from __future__ import annotations

import numpy as np

from .datasets import Dataset
from .errors import DegenerateMetricError, DomainError

__all__ = ["adjusted_rand_index", "clustering_mse", "wb_ratio", "MetricReport"]

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricReport:
    """Scores of one clustering run; ``ari`` is None without ground truth."""

    ari: float | None
    mse: float
    wb: float


def _comb2(v: int) -> int:
    return v * (v - 1) // 2


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected partition agreement in [-1, 1].

    Computed from the contingency table with exact integer arithmetic:
    with T = C(N,2), sa = sum_i C(a_i,2), sb = sum_j C(b_j,2) and
    s = sum_ij C(n_ij,2), the index is
    (T*s - sa*sb) / (T*(sa+sb)/2 - sa*sb).  Both trivial partitions make
    the denominator vanish, in which case the partitions are identical and
    1.0 is returned.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.ndim != 1 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DomainError(f"label vectors must share one length, got {a.shape} and {b.shape}")
    n = a.shape[0]
    if n < 2:
        raise DomainError("adjusted_rand_index needs at least 2 samples")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na = int(ai.max()) + 1
    nb = int(bi.max()) + 1
    table = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    s_cells = int(sum(_comb2(int(v)) for v in table.ravel()))
    sa = int(sum(_comb2(int(v)) for v in table.sum(axis=1)))
    sb = int(sum(_comb2(int(v)) for v in table.sum(axis=0)))
    total = _comb2(n)
    # doubled numerator/denominator keep everything integral
    num = 2 * (total * s_cells - sa * sb)
    den = total * (sa + sb) - 2 * sa * sb
    if den == 0:
        return 1.0
    return num / den


def _assigned_sq_dists(data: Dataset, centers, labels) -> np.ndarray:
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
    if centers.ndim != 2 or centers.shape[1] != data.p:
        raise DomainError(f"centers must be (K, {data.p}), got {centers.shape}")
    if labels.shape != (data.n,):
        raise DomainError(f"labels must have length {data.n}, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= centers.shape[0]:
        raise DomainError(f"labels must lie in [0, {centers.shape[0]})")
    diff = data.samples - centers[labels]
    return (diff * diff).sum(axis=1)


def clustering_mse(data: Dataset, centers, labels) -> float:
    """Mean squared distance of each point to its assigned center."""
    return float(_assigned_sq_dists(data, centers, labels).mean())


def wb_ratio(data: Dataset, centers, labels) -> float:
    """Within-cluster sum of squares over between-cluster sum of squares.

    W sums squared distances to assigned centers; B sums cluster sizes
    times squared distances of centers to the global data mean.  B = 0 (all
    populated centers at the global mean) or one populated cluster is degenerate.
    """
    w = float(_assigned_sq_dists(data, centers, labels).sum())
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=centers.shape[0])
    global_mean = data.samples.mean(axis=0)
    b = float((counts * ((centers - global_mean) ** 2).sum(axis=1)).sum())
    if np.count_nonzero(counts) < 2 or b == 0.0:
        raise DegenerateMetricError("W/B needs two populated clusters and a non-zero between-cluster sum of squares")
    return w / b
