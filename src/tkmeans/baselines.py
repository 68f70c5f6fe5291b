"""Classic clustering baselines: Lloyd's k-means, k-means++ seeding, k-medoids, k-medians.

All fits are deterministic for a fixed seed, break assignment ties toward
the lowest center index, and re-seed empty clusters to the point farthest
from its assigned center.  k-means and k-means++ work in squared
Euclidean distance; k-medoids and k-medians work in Manhattan (L1)
distance, with the alternating Voronoi update rather than full PAM swaps.
These fits and ``core.fit_fast`` share one sweep loop,
``_util.hard_assignment_loop``.  k-means and k-medians stop when the
assignment repeats, before updating; k-medoids when the medoid indices
repeat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _util
from .datasets import Dataset
from .errors import DomainError
from .results import ClusteringResult

__all__ = ["BaselineConfig", "kmeans_fit", "kmeanspp_seed", "kmedoids_fit", "kmedians_fit"]


@dataclass(frozen=True)
class BaselineConfig:
    """Knobs shared by every fit; their defaults are the run defaults of the harness too."""

    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 0
    init: object = "random"  # "random" | "kmeanspp" | explicit (K, p) array

    def __post_init__(self):
        if _util.as_int("max_iter", self.max_iter) < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        _util.check_seed(self.seed)
        _util.check_positive("tol", self.tol)


def kmeanspp_seed(data: Dataset, k: int, seed: int = 0) -> np.ndarray:
    """Sample K initial centers with D^2 weighting; returns a (K, p) array.

    The first center is uniform over the points; each next one is drawn
    with probability proportional to its squared distance to the nearest
    chosen center.  When all remaining mass is zero (duplicate points) the
    choice falls back to uniform over the unchosen indices.  A negative or
    non-integer ``seed`` raises ``DomainError``.
    """
    k = _util.check_k(k, data.n)
    rng = np.random.default_rng(_util.check_seed(seed))
    idx = _util.kmeanspp_indices(data.samples, k, rng)
    return data.samples[idx].copy()


def _loop(x, centers, k, cfg, update, metric) -> ClusteringResult:
    """Run the shared hard-assignment loop from ``centers`` under ``metric``; the wall time covers the loop alone."""
    start = time.perf_counter()
    dists = _util.dists_to(x, k, metric)
    labels, centers, trace = _util.hard_assignment_loop(x, centers, k, cfg.max_iter, dists, update, metric)
    return ClusteringResult(labels, centers, np.asarray(trace), len(trace), time.perf_counter() - start)


def _alternate(data, k, cfg, metric, next_centers) -> ClusteringResult:
    """Seed, then alternate assignment and ``next_centers(x, assign, k)``, stopping on a repeated assignment."""
    cfg = cfg or BaselineConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    centers, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)

    def update(assign, dist, moved, repeated, centers):
        return (centers if repeated else next_centers(x, assign, k)), repeated

    return _loop(x, centers, k, cfg, update, metric)


def kmeans_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Lloyd iterations: nearest-center assignment, mean update.

    Stops when the assignment repeats or ``max_iter`` is hit.  The loss
    trace records the sum of squared distances to the assigned centers at
    each assignment step and is exactly non-increasing.
    """
    return _alternate(data, k, cfg, "sq", _util.cluster_means)


def _medoid_of(x: np.ndarray, members: np.ndarray) -> int:
    """Member index minimizing total L1 distance to the cluster; lowest index on ties.

    The L1 total separates by coordinate, so one sort per coordinate gives
    every member's exact total in O(p n log n) time and O(p n) memory, with
    no n x n matrix.  With the n sorted values' gaps ``g_k = v_(k+1) -
    v_k``, the member of rank r totals ``sum_(k<r) (k+1) g_k + sum_(k>=r)
    (n-1-k) g_k``, a forward and a reverse cumulative sum.  Gaps, not
    prefix sums of the values, make coincident members' totals equal bit
    for bit (a zero gap adds exactly 0), so the lowest index of a tie
    wins, and a two-member cluster ties exactly.  The coordinates' totals
    are added in order.  Members whose true totals tie, or nearly tie,
    resolve by rounding, as any floating-point sum does.
    """
    n = members.shape[0]
    pts = x[members].T
    coords = np.arange(pts.shape[0])[:, None]
    order = pts.argsort(axis=1, kind="stable")
    ranked = pts[coords, order]
    gaps = ranked[:, 1:] - ranked[:, :-1]
    # the gap after rank k is crossed by the k+1 members at or below it and the n-1-k above it
    counts = np.arange(1.0, n)
    np.multiply(gaps, counts, out=ranked[:, 1:]).cumsum(axis=1, out=ranked[:, 1:])
    ranked[:, 0] = 0.0
    gaps *= counts[::-1]
    ranked[:, :-1] += gaps[:, ::-1].cumsum(axis=1)[:, ::-1]
    per_coord = np.empty_like(ranked)
    per_coord[coords, order] = ranked
    # a sum over the first axis adds the coordinates in order
    totals = per_coord.sum(axis=0)
    return int(members[int(np.argmin(totals))])


def kmedoids_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Alternating (Voronoi) k-medoids under L1 distance.

    Assign each point to the nearest medoid, then make each cluster's
    medoid the member minimizing the total L1 distance to its cluster
    (``_medoid_of``: O(p n_j log n_j) time, no n_j x n_j matrix).  Stops
    when the medoid indices, not just their coordinates, repeat.
    """
    cfg = cfg or BaselineConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    centers, idx = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)
    if idx is None:
        # explicit coordinates: snap to distinct nearest members
        idx = np.empty(k, dtype=np.int64)
        taken: set[int] = set()
        for j in range(k):
            order = np.argsort(np.abs(x - centers[j]).sum(axis=1), kind="stable")
            idx[j] = next(int(i) for i in order if int(i) not in taken)
            taken.add(int(idx[j]))

    def update(assign, dist, moved, repeated, centers):
        for j, cand in moved:
            idx[j] = cand
        new_idx = np.array([_medoid_of(x, np.flatnonzero(assign == j)) for j in range(k)])
        # a re-seed invalidates the assignment, so force another sweep unless this one repeated the last
        stop = (not moved or repeated) and np.array_equal(new_idx, idx)
        idx[:] = new_idx
        return x[idx], stop

    return _loop(x, x[idx], k, cfg, update, "l1")


def _medians(x: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Coordinate-wise median of each cluster."""
    return np.stack([np.median(x[assign == j], axis=0) for j in range(k)])


def kmedians_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Alternating k-medians: L1 assignment, coordinate-wise median update.

    An even-sized cluster takes the midpoint of the two middle values.
    Stops when the assignment repeats.
    """
    return _alternate(data, k, cfg, "l1", _medians)
