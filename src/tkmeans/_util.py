"""Internal helpers shared by the fitting routines."""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, NumericalError
from .specialfn import digamma, log_gamma

# All stochastic code paths go through numpy's PCG64 via default_rng.


def as_int(name: str, value) -> int:
    """``value`` as an int when it is a Python or numpy integer; anything else raises ``DomainError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def check_k(k: int, n: int) -> int:
    k = as_int("K", k)
    if k < 1:
        raise DomainError(f"K must be >= 1, got {k}")
    if k > n:
        raise DomainError(f"K={k} exceeds the number of samples N={n}")
    return k


def distance_block(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C-ordered (p+2, N) distance block of ``points`` and the mean ``m`` it is centered at.

    Rows 0..p-1 hold ``(points - m)^T``, row p holds ``|points - m|^2`` and
    row p+1 holds ones.  A caller that measures many sets of centers
    against the same points builds it once and passes column blocks of it
    to ``pairwise_sq_dists``; the product of weights with a column block's
    transpose gives their weighted sums of ``points - m``, of ``|points -
    m|^2`` and of 1 in one GEMM.  An overflow here leaves a non-finite
    entry, which the distances built on the block then report.
    """
    n, p = points.shape
    block = np.empty((p + 2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = points.mean(axis=0)
        np.subtract(points, mean, out=block[:p].T)
        np.einsum("pn,pn->n", block[:p], block[:p], out=block[p])
    block[p + 1] = 1.0
    return block, mean


# (centers, points) stay the two positional arguments: perfbench's tracer reads both shapes for temp_mb.
def pairwise_sq_dists(centers: np.ndarray, points: np.ndarray, *, block, out=None) -> np.ndarray:
    """Squared Euclidean distances of ``centers`` to ``points``, shape (K, B), as one GEMM.

    ``block = (rows, m)``: ``rows`` are the columns of the data's
    ``distance_block`` that belong to ``points`` (not read itself), centered
    at ``m``.  ``|x-m|^2 - 2 (c-m)(x-m)^T + |c-m|^2`` is the product of the
    (K, p+2) operand ``[-2(c-m) | 1 | |c-m|^2]`` with ``rows``: no (N, K, p)
    temporary, and a cancellation error near eps * (|x-m|^2 + |c-m|^2)
    however far the data sit from the origin.  The result, into ``out``
    when given, is clamped at 0.  Raises ``NumericalError`` when a distance
    overflows (or is NaN), tested on the maximum, where a NaN or +inf shows
    after the clamp, so no mask of the result is built.
    """
    rows, shift = block
    k, p = centers.shape
    with np.errstate(over="ignore", invalid="ignore"):
        operand = np.empty((k, p + 2))
        cs = np.subtract(centers, shift, out=operand[:, :p])
        # the data's norm row meets a 1 and the ones row meets the center's norm
        operand[:, p] = 1.0
        np.einsum("kp,kp->k", cs, cs, out=operand[:, p + 1])
        cs *= -2.0
        d2 = np.matmul(operand, rows, out=out)
        np.maximum(d2, 0.0, out=d2)
    if not np.isfinite(d2.max()):
        raise NumericalError("squared distances overflow float64; rescale the data")
    return d2


def dists_to(points: np.ndarray, metric: str = "sq"):
    """The (N, K) distances of ``points`` to given centers; "sq" calls the kernel over one distance block."""
    if metric == "l1":
        return lambda centers: pairwise_l1_dists(points, centers)
    block = distance_block(points)
    return lambda centers: pairwise_sq_dists(centers, points, block=block).T


def converged(loss: float, prev: float | None, tol: float) -> bool:
    """The EM stop test: ``loss`` moved from ``prev`` by less than ``tol`` relative to ``prev``."""
    return prev is not None and abs(loss - prev) < tol * max(abs(prev), 1e-12)


NU_START = 3.0  # where a free-nu EM starts
NU_BOUNDS = (1.0, 200.0)  # the clamp of nu_from_sums in tmm_fit, and FitConfig.nu_bounds' default


def log_t_const(p: int, alpha: float, nu: float) -> float:
    """The distance-free part of ln t at scale ``alpha * I``; ``tmm_fit`` adds each log-determinant to ``alpha = 1``'s."""
    return (
        log_gamma((nu + p) / 2.0)
        - log_gamma(nu / 2.0)
        - 0.5 * p * math.log(nu * math.pi)
        - 0.5 * p * math.log(alpha)
    )


def log_u_offset(nu: float, p: int) -> float:
    """``E ln u + log1p(maha / nu)``: ln((nu+p)/nu) + digamma((nu+p)/2) - ln((nu+p)/2)."""
    half = (nu + p) / 2.0
    return math.log((nu + p) / nu) + digamma(half) - math.log(half)


def nu_from_sums(tau_diff: np.ndarray, tau_mass: np.ndarray, nu_bounds, healthy: np.ndarray) -> float:
    """Closed-form degrees-of-freedom update shared by the t-model fits, from per-component sums.

    ``tau_diff[j] = sum_i tau_ij (E ln u_ij - u_ij)`` and ``tau_mass[j] =
    sum_i tau_ij``.  ``eta = 1 + mean_j tau_diff[j] / tau_mass[j]`` over
    the ``healthy`` components, and ``nu = -1/eta`` clamped to
    ``nu_bounds``; a non-negative eta would give a non-positive nu and
    clamps to the upper bound.
    """
    terms = tau_diff[healthy] / tau_mass[healthy]
    eta = 1.0 + float(terms.mean())
    lo, hi = nu_bounds
    return hi if eta >= 0.0 else min(max(-1.0 / eta, lo), hi)


def pairwise_l1_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Manhattan distances, shape (N, K).

    Accumulated one coordinate at a time, so one (N, K) buffer is the only
    temporary, whatever p is.  The coordinates are added in order, which
    matches numpy's row sum bit for bit for p < 8.
    """
    d1 = np.zeros((x.shape[0], centers.shape[0]))
    buf = np.empty_like(d1)
    for col, c in zip(x.T, centers.T):
        np.subtract(col[:, None], c, out=buf)
        d1 += np.abs(buf, out=buf)
    return d1


def kmeanspp_indices(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; returns k distinct row indices.

    Raises ``NumericalError`` when the squared distances to the first
    center, or their sum, overflow; later distances only shrink ``d2``, so
    one that overflows to +inf is harmless there.
    """
    n = x.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
        # a non-finite distance makes the sum non-finite too
        if not np.isfinite(d2.sum()):
            raise NumericalError("k-means++ seeding distances overflow float64; rescale the data")
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining mass vanished (duplicate points): uniform fallback
            remaining = np.setdiff1d(np.arange(n), chosen[:j])
            nxt = int(rng.choice(remaining))
        chosen[j] = nxt
        with np.errstate(over="ignore"):
            d2 = np.minimum(d2, ((x - x[nxt]) ** 2).sum(axis=1))
    return chosen


def random_indices(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct row indices drawn uniformly, whose rows are distinct points.

    The draw is ``rng.choice(n, k, replace=False)``; only when it picks
    coincident points (duplicate rows) is each repeat replaced, in order,
    by a further draw among the unpicked rows equal to no point chosen so
    far.  With fewer than k distinct points the repeats are kept.
    """
    n = x.shape[0]
    idx = rng.choice(n, size=k, replace=False).astype(np.int64)
    if len(set(map(tuple, x[idx].tolist()))) == k:
        return idx
    fresh = np.ones(n, dtype=bool)  # rows equal to no chosen point
    unpicked = np.ones(n, dtype=bool)
    unpicked[idx] = False
    for j in range(k):
        if not fresh[idx[j]]:
            pool = np.flatnonzero(fresh & unpicked)
            if pool.size:
                idx[j] = int(rng.choice(pool))
        fresh &= (x != x[idx[j]]).any(axis=1)
    return idx


def init_centers(x: np.ndarray, k: int, rng: np.random.Generator, init):
    """Resolve an init request to (centers, indices-or-None).

    ``init`` is "random" (k distinct data points), "kmeanspp", or an
    explicit (k, p) array of coordinates.
    """
    if isinstance(init, str):
        if init == "random":
            idx = random_indices(x, k, rng)
        elif init == "kmeanspp":
            idx = kmeanspp_indices(x, k, rng)
        else:
            raise DomainError(f"unknown init {init!r}; expected 'random', 'kmeanspp' or an array")
        return x[idx].copy(), idx
    centers = np.array(init, dtype=np.float64)
    if centers.shape != (k, x.shape[1]):
        raise DomainError(f"explicit centers must have shape ({k}, {x.shape[1]}), got {centers.shape}")
    if not np.isfinite(centers).all():
        raise DomainError("explicit centers must be finite")
    return centers, None


def reseed_empty_clusters(x, assign, centers, dist_assigned, k, metric="sq"):
    """Re-seed each empty cluster to the point farthest from its assigned center.

    After a re-seed the selection distances are refreshed against the new
    center, so coincident duplicates of an already-used point cannot be
    picked for the next empty cluster.  Returns (assign, centers,
    dist_assigned, moved) with copies only when a re-seed happened;
    ``moved`` lists (cluster, point_index) pairs.
    """
    counts = np.bincount(assign, minlength=k)
    if (counts > 0).all():
        return assign, centers, dist_assigned, []
    assign = assign.copy()
    centers = centers.copy()
    dist = dist_assigned.copy()
    selection = dist.copy()
    moved: list[tuple[int, int]] = []
    while True:
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            break
        k_empty = int(empties[0])
        # only points from clusters with >1 members are eligible to move
        eligible = counts[assign] > 1
        cand = int(np.argmax(np.where(eligible, selection, -1.0)))
        counts[assign[cand]] -= 1
        counts[k_empty] += 1
        centers[k_empty] = x[cand]
        assign[cand] = k_empty
        dist[cand] = 0.0
        if metric == "sq":
            to_new = ((x - x[cand]) ** 2).sum(axis=1)
        else:
            to_new = np.abs(x - x[cand]).sum(axis=1)
        selection = np.minimum(selection, to_new)
        moved.append((k_empty, cand))
    return assign, centers, dist, moved


def hard_assignment_loop(x, centers, k, max_iter, dists, update, metric="sq", loss=None):
    """The sweeps of k-means, k-medians, k-medoids and ``core.fit_fast``; returns (labels, centers, trace).

    A sweep assigns each point to its nearest center under ``dists(centers)``
    (the fit's ``dists_to(x, metric)``), re-seeds empty clusters under
    ``metric``, traces the assigned distances' sum (or ``loss``) and calls
    ``update(assign, dist, moved, repeated, centers)``, ``repeated`` meaning
    the previous sweep's assignment and re-seeds.  The update returns the
    next centers, kept either way, and whether to stop.
    """
    trace: list[float] = []
    prev = prev_moved = None
    for _ in range(max_iter):
        d = dists(centers)
        assign = d.argmin(axis=1)
        dist = d[np.arange(x.shape[0]), assign]
        assign, centers, dist, moved = reseed_empty_clusters(x, assign, centers, dist, k, metric)
        trace.append(float(dist.sum() if loss is None else loss(dist)))
        repeated = prev is not None and moved == prev_moved and np.array_equal(assign, prev)
        centers, stop = update(assign, dist, moved, repeated, centers)
        if stop:
            break
        prev, prev_moved = assign, moved
    return assign, centers, trace


def cluster_means(x: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means of the rows of ``x``, shape (k, p).

    Each coordinate's cluster sums come from one ``bincount``, which adds
    the members in row order as ``x[assign == j].mean(axis=0)`` does for
    p >= 2, so the two agree bit for bit there; for p = 1 numpy's mean
    sums pairwise and they differ by rounding.
    """
    means = np.empty((k, x.shape[1]), dtype=np.float64)
    for a, col in enumerate(x.T):
        means[:, a] = np.bincount(assign, weights=col, minlength=k)
    means /= np.bincount(assign, minlength=k)[:, None]
    return means
