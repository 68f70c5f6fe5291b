"""Internal helpers shared by the fitting routines."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import DomainError, NumericalError
from .specialfn import _log_normalize, digamma, log_gamma
from .specialfn import check_positive  # noqa: F401 - the other modules' check_positive

# All stochastic code paths go through numpy's PCG64 via default_rng.


def as_int(name: str, value) -> int:
    """``value`` as an int when it is a Python or numpy integer but not a bool; else ``DomainError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def check_seed(seed) -> int:
    """``seed`` as a non-negative int; anything else raises ``DomainError``."""
    seed = as_int("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


def finite(what: str, compute) -> np.ndarray:
    """``compute()`` with overflow silenced; a non-finite result raises ``NumericalError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(compute())
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} overflows float64; rescale the data")
    return value


def check_k(k: int, n: int) -> int:
    k = as_int("K", k)
    if k < 1:
        raise DomainError(f"K must be >= 1, got {k}")
    if k > n:
        raise DomainError(f"K={k} exceeds the number of samples N={n}")
    return k


# Points per block of a pass over the data: the EM passes of ``core`` and ``mixtures`` and the
# hard-assignment sweeps.  A (K, B) buffer of a pass holds B*K floats, 512 KB at K=16, and every
# block reuses it; data of up to BLOCK points run as one block.  A t E-step holds two such buffers,
# the Gaussian mixture's one, a sweep one (two for L1).
BLOCK = 4096


def blocks(n: int, size: int):
    """(start, stop) of each block of ``size`` consecutive points among ``n``, the last one short."""
    return ((start, min(start + size, n)) for start in range(0, n, size))


def block_view(buf: np.ndarray, rows: int, b: int) -> np.ndarray:
    """The first rows*b floats of a flat buffer as a C-ordered (rows, b) matrix."""
    return buf[: rows * b].reshape(rows, b)


def distance_block(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C-ordered (p+2, N) distance block of ``points`` and the mean ``m`` it is centered at.

    Rows 0..p-1 hold ``(points - m)^T``, row p ``|points - m|^2`` and row
    p+1 ones, so weights times a column block's transpose give their
    weighted sums of ``points - m``, of ``|points - m|^2`` and of 1.  An
    overflow leaves a non-finite entry, which ``pairwise_sq_dists`` reports.
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
def pairwise_sq_dists(centers: np.ndarray, points: np.ndarray, *, block, out=None, scale=None) -> np.ndarray:
    """Squared Euclidean distances of ``centers`` to ``points``, shape (K, B), as one GEMM.

    ``block = (rows, m)``: ``rows`` are the columns of the data's
    ``distance_block`` that belong to ``points`` (not read itself), centered
    at ``m``.  ``|x-m|^2 - 2 (c-m)(x-m)^T + |c-m|^2`` is the product of the
    (K, p+2) operand ``[-2(c-m) | 1 | |c-m|^2]`` with ``rows``: no (N, K, p)
    temporary, and a cancellation error near eps * (|x-m|^2 + |c-m|^2)
    however far the data sit from the origin.  With ``scale``, the operand
    is multiplied by it, so the GEMM gives ``scale`` times the distances
    (``core``'s ``d2/(nu*alpha)``) with no pass over the (K, B) result;
    without it the operand is left as is.  The result, into ``out`` when
    given, is clamped at 0.  Raises ``NumericalError`` when a distance
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
        if scale is not None:
            operand *= scale
        d2 = np.matmul(operand, rows, out=out)
        np.maximum(d2, 0.0, out=d2)
    if not np.isfinite(d2.max()):
        raise NumericalError("squared distances overflow float64; rescale the data")
    return d2


def dists_to(points: np.ndarray, k: int, metric: str = "sq"):
    """The per-block distance kernel of a hard-assignment fit on ``points`` with ``k`` centers.

    Returns ``dists(centers, start, stop)``, the (K, stop-start) distances
    of ``centers`` to ``points[start:stop]``, squared Euclidean ("sq") or
    Manhattan ("l1"), written into one flat buffer of K * min(N, BLOCK)
    floats that every call reuses, so a result lives until the next call.
    "sq" takes its columns of the one distance block built here; "l1"
    reuses a second buffer of the same size for ``pairwise_l1_dists``.
    """
    size = k * min(points.shape[0], BLOCK)
    buf = np.empty(size)
    if metric == "l1":
        work = np.empty(size)
        return lambda centers, start, stop: pairwise_l1_dists(
            centers, points[start:stop], out=block_view(buf, k, stop - start),
            work=block_view(work, k, stop - start))
    rows, mean = distance_block(points)
    return lambda centers, start, stop: pairwise_sq_dists(
        centers, points[start:stop], block=(rows[:, start:stop], mean), out=block_view(buf, k, stop - start))


def arg_extreme(a: np.ndarray, largest: bool = False, index=None, value=None):
    """For each column of the (K, B) ``a``, the first row index of its minimum (``largest``: maximum) and the value.

    The extreme of each column comes from one ufunc reduction over the
    rows, and a walk over the rows from last to first marks where each row
    attains it, so the lowest such row wins and only B-vectors are held:
    numpy's ``argmin(axis=0)`` of a C-ordered matrix first copies all of it
    into the other layout.  The value is then gathered at the index, as the
    reduction may return either sign where -0.0 and 0.0 tie.  On finite
    input the result is bit-identical to ``argmin``/``argmax`` and the
    gathered value.  Returns ``(index, value)``, written into the given
    B-vectors when passed.
    """
    k, b = a.shape
    extreme = (np.maximum if largest else np.minimum).reduce(a, axis=0)
    index = np.empty(b, dtype=np.intp) if index is None else index
    index.fill(k - 1)
    hit = np.empty(b, dtype=bool)
    for j in range(k - 2, -1, -1):
        np.equal(a[j], extreme, out=hit)
        np.putmask(index, hit, j)
    value = extreme if value is None else value
    value[...] = a[index, np.arange(b)]
    return index, value


def nearest(dists, centers: np.ndarray, n: int):
    """Each of the ``n`` points' nearest center under the kernel ``dists`` (``dists_to``) and its distance.

    One call of the kernel per block of ``BLOCK`` points, each reduced by
    ``arg_extreme`` into N-vectors made here, so ties go to the lowest
    center index and no (N, K) array is built.
    """
    assign = np.empty(n, dtype=np.intp)
    dist = np.empty(n)
    for start, stop in blocks(n, BLOCK):
        arg_extreme(dists(centers, start, stop), index=assign[start:stop], value=dist[start:stop])
    return assign, dist


def em_steps(trace: list[float], budget: int, tol: float, prev: float | None = None):
    """The EM loop of ``core.fit`` and the mixture fits: yields once per step, at most ``budget`` times.

    A step runs the caller's M-step and pass and appends the new loss to
    ``trace``; the loop stops once that moved from the loss before it
    (``prev`` before the first step) by less than ``tol`` relative to it.
    """
    for _ in range(budget):
        yield
        loss = trace[-1]
        if prev is not None and abs(loss - prev) < tol * max(abs(prev), 1e-12):
            return
        prev = loss


NU_START = 3.0  # where a free-nu EM starts
NU_BOUNDS = (1.0, 200.0)  # the clamp of nu_from_sums; fit's warm stage holds nu at the upper bound


@functools.lru_cache(maxsize=64)
def _log_t_nu_part(p: int, nu: float) -> float:
    """The ``nu``-only part of ``log_t_const``, once per (p, nu): an EM stage holds ``nu`` for many E-steps."""
    return log_gamma((nu + p) / 2.0) - log_gamma(nu / 2.0) - 0.5 * p * math.log(nu * math.pi)


def log_t_const(p: int, alpha: float, nu: float) -> float:
    """The distance-free part of ln t at scale ``alpha * I``; ``tmm_fit`` adds each log-determinant to ``alpha = 1``'s."""
    return _log_t_nu_part(p, nu) - 0.5 * p * math.log(alpha)


@functools.lru_cache(maxsize=4)  # a block reads both, and a fixed-nu stage repeats them; a free nu moves every pass
def log_u_consts(nu: float, p: int) -> tuple[float, float]:
    """``E ln u + log1p(maha / nu)`` and ``kappa`` of one (nu, p).

    The first is ln((nu+p)/nu) + digamma((nu+p)/2) - ln((nu+p)/2) and
    ``kappa`` is digamma((nu+p)/2) - ln((nu+p)/2), so ``exp(E ln u -
    kappa)`` is the precision weight ``u = ((nu+p)/nu) / (1 + maha/nu)``.
    """
    half = (nu + p) / 2.0
    psi, log_half = digamma(half), math.log(half)
    return math.log((nu + p) / nu) + psi - log_half, psi - log_half


def precision_weights(log_u: np.ndarray, nu: float, p: int, out=None) -> np.ndarray:
    """The precision weights ``u = exp(E ln u - kappa)`` of ``log_u`` (``E ln u``), into ``out`` when given."""
    u = np.subtract(log_u, log_u_consts(nu, p)[1], out=out)
    return np.exp(u, out=u)


# A point's total of exp(ln t - bound) below this is normalized again with its own max shift: its
# nearest component then lies beyond e^-645 of the bound, near where exp's terms turn subnormal.
LOW_TOTAL = 1e-280


def t_normalize(lp: np.ndarray, scale: float, bias, out: np.ndarray):
    """Row log-likelihoods (B,) and responsibilities (K, B) of a t E-step, against a bound known in advance.

    ``lp`` (K, B) holds ``log1p(maha/nu)`` >= 0 and ``scale`` is
    -(nu+p)/2 < 0, so every unnormalized log responsibility ``scale * lp +
    bias`` is at most the bound: 0 without ``bias`` (``core``, whose equal
    weights and distance-free constant are left out), else the largest
    entry of the (K, 1) ``bias``, which is subtracted from that column.
    ``out`` receives ``e = exp(scale * lp + bias - bound)`` <= 1, each
    point's total is one ``np.add.reduce`` over the K rows, ``r = e * (1 /
    total)`` is formed in place and the row log-likelihoods are ``log(total)
    + bound``: no per-point max, no broadcast subtract and no divide of a
    (K, B) matrix.  ``lp`` is only read.

    A total of at least ``LOW_TOTAL`` keeps ``1 / total`` below 1e280, and
    its largest term normal, so every ``r`` whose term is normal has full
    relative precision and one lost to a subnormal or 0 is below about
    2e-28.  A point whose total falls below it (or is NaN) is redone from
    ``lp`` with its own max shift, ``specialfn._log_normalize``, whose
    ``DomainError`` a NaN raises.
    """
    bound = 0.0 if bias is None else float(bias.max())
    np.multiply(lp, scale, out=out)
    if bias is not None:
        out += bias - bound
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=0)
    low = np.flatnonzero(~(total >= LOW_TOTAL))
    if low.size:
        logt = np.multiply(lp[:, low], scale)
        if bias is not None:
            logt += bias
        low_ll, low_r = _log_normalize(logt.T)
        total[low] = 1.0  # their columns are overwritten below
    row_ll = np.log(total)
    row_ll += bound
    out *= np.reciprocal(total, out=total)
    if low.size:
        row_ll[low] = low_ll
        out[:, low] = low_r.T
    return row_ll, out


def nu_from_sums(tau_diff: np.ndarray, tau_mass: np.ndarray, healthy: np.ndarray | None = None) -> float:
    """Closed-form degrees-of-freedom update shared by the t-model fits, from per-component sums.

    ``tau_diff[j] = sum_i tau_ij (E ln u_ij - u_ij)`` and ``tau_mass[j] =
    sum_i tau_ij``.  ``eta = 1 + mean_j tau_diff[j] / tau_mass[j]`` over
    the ``healthy`` components (all of them when None), and ``nu =
    -1/eta`` clamped to ``NU_BOUNDS``; a non-negative eta would give a
    non-positive nu and clamps to the upper bound.
    """
    if healthy is not None and not healthy.all():
        tau_diff, tau_mass = tau_diff[healthy], tau_mass[healthy]
    terms = tau_diff / tau_mass
    eta = 1.0 + float(terms.sum()) / terms.size
    lo, hi = NU_BOUNDS
    return hi if eta >= 0.0 else min(max(-1.0 / eta, lo), hi)


def pairwise_l1_dists(centers: np.ndarray, points: np.ndarray, *, out=None, work=None) -> np.ndarray:
    """Manhattan distances of ``centers`` to ``points``, shape (K, B), into ``out`` when given.

    Accumulated one coordinate at a time, so one (K, B) buffer, ``work``
    when given, is the only temporary, whatever p is.  The coordinates are
    added in order, which matches numpy's row sum bit for bit for p < 8.
    """
    shape = (centers.shape[0], points.shape[0])
    d1 = np.empty(shape) if out is None else out
    work = np.empty(shape) if work is None else work
    cols, cs = points.T, centers.T
    np.abs(np.subtract(cs[0][:, None], cols[0], out=d1), out=d1)
    for col, c in zip(cols[1:], cs[1:]):
        d1 += np.abs(np.subtract(c[:, None], col, out=work), out=work)
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

    A sweep assigns each point to its nearest center (``nearest`` under the
    fit's kernel ``dists``, from ``dists_to(x, k, metric)``), re-seeds empty
    clusters under ``metric``, traces the assigned distances' sum (or
    ``loss``) and calls ``update(assign, dist, moved, repeated, centers)``,
    ``repeated`` meaning the previous sweep's assignment and re-seeds.  The
    update returns the next centers, kept either way, and whether to stop.
    No (N, K) array is held.
    """
    trace: list[float] = []
    prev = prev_moved = None
    for _ in range(max_iter):
        # fresh N-vectors each sweep: ``prev`` keeps the last sweep's assignment, not an alias of this one
        assign, dist = nearest(dists, centers, x.shape[0])
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
