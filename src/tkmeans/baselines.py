"""Classic clustering baselines: Lloyd's k-means, k-means++ seeding, k-medoids, k-medians.

All fits are deterministic for a fixed seed, break assignment ties toward
the lowest center index, and re-seed empty clusters to the point farthest
from its assigned center.  k-means and k-means++ work in squared
Euclidean distance; k-medoids and k-medians work in Manhattan (L1)
distance, with the alternating Voronoi update rather than full PAM swaps.
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
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0:
            raise DomainError(f"tol must be > 0, got {self.tol}")


def kmeanspp_seed(data: Dataset, k: int, seed: int = 0) -> np.ndarray:
    """Sample K initial centers with D^2 weighting; returns a (K, p) array.

    The first center is uniform over the points; each next one is drawn
    with probability proportional to its squared distance to the nearest
    chosen center.  When all remaining mass is zero (duplicate points) the
    choice falls back to uniform over the unchosen indices.
    """
    k = _util.check_k(k, data.n)
    rng = np.random.default_rng(seed)
    idx = _util.kmeanspp_indices(data.samples, k, rng)
    return data.samples[idx].copy()


def kmeans_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Lloyd iterations: nearest-center assignment, mean update.

    Stops when the assignment repeats or ``max_iter`` is hit.  The loss
    trace records the sum of squared distances to the assigned centers at
    each assignment step and is exactly non-increasing.
    """
    cfg = cfg or BaselineConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    rng = np.random.default_rng(cfg.seed)
    centers, _ = _util.init_centers(x, k, rng, cfg.init)

    start = time.perf_counter()
    trace: list[float] = []
    prev = None
    assign = None
    for _ in range(cfg.max_iter):
        d2 = _util.pairwise_sq_dists(x, centers)
        assign = d2.argmin(axis=1)
        dist = d2[np.arange(x.shape[0]), assign]
        assign, centers, dist, moved = _util.reseed_empty_clusters(x, assign, centers, dist, k)
        trace.append(float(dist.sum()))
        if prev is not None and not moved and np.array_equal(assign, prev):
            break
        centers = _util.cluster_means(x, assign, k)
        prev = assign
    wall = time.perf_counter() - start
    return ClusteringResult(assign, centers, np.asarray(trace), len(trace), wall)


def _medoid_of(x: np.ndarray, members: np.ndarray) -> int:
    """Member index minimizing total L1 distance to the cluster; lowest index on ties.

    The n_j x n_j L1 matrix is accumulated one coordinate at a time, so
    two n_j x n_j buffers are the only temporaries, whatever p is.
    """
    pts = x[members]
    n = pts.shape[0]
    d1 = np.zeros((n, n))
    buf = np.empty((n, n))
    for col in pts.T:
        np.subtract(col[:, None], col[None, :], out=buf)
        d1 += np.abs(buf, out=buf)
    return int(members[int(np.argmin(d1.sum(axis=1)))])


def kmedoids_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Alternating (Voronoi) k-medoids under L1 distance.

    Assign each point to the nearest medoid, then make each cluster's
    medoid the member minimizing the total L1 distance to its cluster.
    Stops when the medoid indices repeat.
    """
    cfg = cfg or BaselineConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    rng = np.random.default_rng(cfg.seed)
    centers, idx = _util.init_centers(x, k, rng, cfg.init)
    if idx is None:
        # explicit coordinates: snap to distinct nearest members
        idx = np.empty(k, dtype=np.int64)
        taken: set[int] = set()
        for j in range(k):
            order = np.argsort(np.abs(x - centers[j]).sum(axis=1), kind="stable")
            idx[j] = next(int(i) for i in order if int(i) not in taken)
            taken.add(int(idx[j]))

    start = time.perf_counter()
    trace: list[float] = []
    assign = None
    for _ in range(cfg.max_iter):
        d1 = _util.pairwise_l1_dists(x, x[idx])
        assign = d1.argmin(axis=1)
        dist = d1[np.arange(x.shape[0]), assign]
        assign, _, dist, moved = _util.reseed_empty_clusters(x, assign, x[idx].copy(), dist, k, metric="l1")
        for j, cand in moved:
            idx[j] = cand
        trace.append(float(dist.sum()))
        new_idx = np.array([_medoid_of(x, np.flatnonzero(assign == j)) for j in range(k)])
        # a re-seed invalidates the assignment, so force another sweep
        if not moved and np.array_equal(new_idx, idx):
            break
        idx = new_idx
    wall = time.perf_counter() - start
    return ClusteringResult(assign, x[idx].copy(), np.asarray(trace), len(trace), wall)


def kmedians_fit(data: Dataset, k: int, cfg: BaselineConfig | None = None) -> ClusteringResult:
    """Alternating k-medians: L1 assignment, coordinate-wise median update.

    An even-sized cluster takes the midpoint of the two middle values.
    Stops when the assignment repeats.
    """
    cfg = cfg or BaselineConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    rng = np.random.default_rng(cfg.seed)
    centers, _ = _util.init_centers(x, k, rng, cfg.init)

    start = time.perf_counter()
    trace: list[float] = []
    prev = None
    assign = None
    for _ in range(cfg.max_iter):
        d1 = _util.pairwise_l1_dists(x, centers)
        assign = d1.argmin(axis=1)
        dist = d1[np.arange(x.shape[0]), assign]
        assign, centers, dist, moved = _util.reseed_empty_clusters(x, assign, centers, dist, k, metric="l1")
        trace.append(float(dist.sum()))
        if prev is not None and not moved and np.array_equal(assign, prev):
            break
        centers = np.stack([np.median(x[assign == j], axis=0) for j in range(k)])
        prev = assign
    wall = time.perf_counter() - start
    return ClusteringResult(assign, centers, np.asarray(trace), len(trace), wall)
