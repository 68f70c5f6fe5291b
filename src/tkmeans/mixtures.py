"""Full-covariance Gaussian and t mixture models fit by EM.

These are the classical model-based baselines: free mixing weights, one
full covariance matrix per component (stabilized by a ridge), and for the
t mixture a shared degrees-of-freedom parameter that starts at 3 and is
estimated by the closed-form approximation the core algorithm uses,
clamped to [1, 200].  Means default to k-means++ seeding, covariances to
the global data scatter, and weights to uniform.  Both fits run one EM
loop (``_em``); the t fit adds the precision weights and the ``nu`` update.

As in ``core.fit``, an EM iteration is one blocked pass over the data
(``_pass``), here over a moment block built once per fit (``_row_moments``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _util
from .baselines import BaselineConfig
from .datasets import Dataset
from .errors import DomainError, NumericalError
from .results import ClusteringResult
from .specialfn import _log_normalize

__all__ = ["MixtureModel", "gmm_fit", "tmm_fit"]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_TINY = math.log(np.finfo(np.float64).tiny)  # exp of anything lower is subnormal or 0


@dataclass(frozen=True)
class MixtureModel:
    """Mixture parameters; ``nu`` is None for the Gaussian case."""

    weights: np.ndarray  # (K,), on the simplex
    means: np.ndarray  # (K, p)
    covariances: np.ndarray  # (K, p, p), symmetric positive definite
    nu: float | None = None


def _default_ridge(x: np.ndarray, ridge: float | None) -> float:
    if ridge is not None:
        return _util.check_positive("ridge", ridge, floor=0.0)
    value = 1e-6 * float(_util.finite("the feature variance", lambda: x.var(axis=0, ddof=1).mean()))
    # data that are not constant need a positive ridge; at tiny scales the variance or 1e-6 of it rounds to 0
    if value == 0.0 and np.ptp(x, axis=0).any():
        raise NumericalError("the default ridge underflows float64; rescale the data or pass ridge")
    return value


def _maha_logdet(means: np.ndarray, covs: np.ndarray, c: np.ndarray, quad=None):
    """The Mahalanobis operator of every component about ``c``, and the log-determinants.

    With ``L_j`` the Cholesky factor of component j and ``W_j`` its
    inverse, the squared Mahalanobis distance of x is ``|W_j (x - mu_j)|^2
    = |W_j (x - c) + v_j|^2`` with ``v_j = W_j (c - mu_j)``.  Without
    ``quad`` returns the (p*K, p+1) whitening operator whose row a*K + j is
    row a of ``[W_j | v_j]``, so one GEMM with the rows ``[x - c; 1]`` of
    the moment block whitens a block of points for all K components,
    coordinate-major: the squared distances are the sum of p contiguous
    (K, B) slabs of the squared output.  With ``quad``, the moment block's
    ``(at, wt)`` when it holds ``phi`` (p < 2K), returns instead the (K,
    p+1+q) operand of the expanded quadratic form, row j ``[2 W_j^T v_j |
    |v_j|^2 | P_j]`` with ``P_j = W_j^T W_j`` packed as ``phi`` and its
    off-diagonal entries doubled: entry ``at`` of the Gram matrix ``[W_j |
    v_j]^T [W_j | v_j]`` times ``wt``.  One GEMM of it with all rows ``[x -
    c; 1; phi]`` of the block gives the (K, B) squared distances, as
    ``_util.pairwise_sq_dists`` does for Euclidean ones.  Also returns the
    (K,) covariance log-determinants.
    With ``c`` the data mean, the cancellation error of a distance stays
    near eps * (|W_j (x - c)|^2 + |v_j|^2) however far the data sit from
    the origin, on either operator; the quadratic form can fall that far
    below 0, so its caller clamps it at 0.  A quadratic form that
    overflows, which ``W_j^T W_j`` does for a covariance below about 1 /
    the largest float where ``W_j (x - c)`` need not, gives way to the
    whitening operator.  A covariance whose Cholesky fails raises
    ``NumericalError`` naming the first such component.
    """
    k, p = means.shape
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        # the stacked factorization fails as a whole; find the component
        for j in range(k):
            try:
                np.linalg.cholesky(covs[j])
            except np.linalg.LinAlgError as exc_j:
                raise NumericalError(f"component {j}: covariance is singular") from exc_j
        raise NumericalError("covariance stack is singular") from exc
    whiten = np.linalg.inv(chol)
    op = np.empty((p, k, p + 1))
    op[:, :, :p] = whiten.transpose(1, 0, 2)
    op[:, :, p] = (whiten @ (c - means)[:, :, None])[:, :, 0].T
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    if quad is None:
        return op.reshape(p * k, p + 1), logdet
    at, wt = quad
    wv = op.transpose(1, 0, 2)  # [W_j | v_j]
    with np.errstate(over="ignore", invalid="ignore"):
        form = np.matmul(wv.transpose(0, 2, 1), wv).reshape(k, -1)[:, at] * wt
    return (form if np.isfinite(form).all() else op.reshape(p * k, p + 1)), logdet


@dataclass(frozen=True)
class _Moments:
    """The per-fit moment block of the data, built by ``_row_moments``."""

    c: np.ndarray  # (p,), the data mean
    cols: np.ndarray  # C-ordered (p+1+q, N): (x - c)^T, a row of ones, then q packed products when ``packed``
    iu: np.ndarray  # row and column of each packed entry
    ju: np.ndarray
    diag: np.ndarray  # the packed entries on the diagonal
    sym: np.ndarray  # the packed entry of each (a, b) of a p x p matrix, row by row
    # when packed: the Gram entry (flat, of a (p+1, p+1) matrix) and weight of each row of cols in _maha_logdet
    quad: tuple[np.ndarray, np.ndarray] | None

    @property
    def packed(self) -> bool:
        """Whether cols holds the q = p(p+1)/2 packed upper triangles of (x_i - c)(x_i - c)^T."""
        return self.quad is not None


def _row_moments(x: np.ndarray, k: int) -> _Moments:
    """The data's moment block, once per fit: ``[x - c | 1 | phi]`` as C-ordered rows.

    ``phi`` holds N p(p+1)/2 floats, so its memory grows as p^2; it is
    built only when p < 2K, where it is no larger than one (p*K, N)
    whitening of the data, and the E-step then takes its distances from
    all rows of the block (``_maha_logdet``).  Each row is a product ``z_a
    z_b`` of ``z = [x - c; 1]``; ``quad`` holds each row's (a, b) as a flat
    index of a (p+1, p+1) matrix, and its weight in a quadratic form in
    ``z``: 2 off the diagonal, 1 on it.  A squared entry that overflows
    raises ``NumericalError``; every product in ``phi`` is bounded by the
    larger of two such squares.
    """
    n, p = x.shape
    iu, ju = np.triu_indices(p)
    packed = p < 2 * k
    cols = np.empty((p + 1 + (iu.size if packed else 0), n))
    with np.errstate(over="ignore", invalid="ignore"):
        c = x.mean(axis=0)
        np.subtract(x, c, out=cols[:p].T)
    _util.finite("the data's second moments", lambda: np.abs(cols[:p]).max() ** 2)
    cols[p] = 1.0
    quad = None
    if packed:
        for row, (a, b) in enumerate(zip(iu, ju), p + 1):
            np.multiply(cols[a], cols[b], out=cols[row])
        za, zb = np.concatenate([np.arange(p + 1), iu]), np.concatenate([np.full(p + 1, p), ju])
        quad = (za * (p + 1) + zb, np.where(za == zb, 1.0, 2.0))
    sym = np.empty((p, p), dtype=np.intp)
    sym[iu, ju] = sym[ju, iu] = np.arange(iu.size)
    return _Moments(c, cols, iu, ju, np.flatnonzero(iu == ju), sym.ravel(), quad)


def _add_moments(sums: np.ndarray, outer, w: np.ndarray, cols: np.ndarray, wx: np.ndarray) -> None:
    """Add one block's weighted moments to ``sums`` (K, >= p+1+q) and, without ``phi``, to ``outer``.

    ``w`` is the block's (K, B) weights and ``cols`` its columns of the
    moment block.  The first p+1+q columns of ``sums`` gain ``w @ cols.T``:
    ``sum w (x - c)``, the mass ``sum w`` and the packed ``sum w phi``.
    ``outer``, the (K*p, p) ``sum w (x - c)(x - c)^T`` when the block holds
    no ``phi`` (p >= 2K), gains the product of the weighted copy ``w_j (x -
    c)``, written into the flat buffer ``wx`` of at least K*p*B floats, with
    ``x - c``.
    """
    sums[:, : cols.shape[0]] += w @ cols.T
    if outer is not None:
        (k, b), p = w.shape, outer.shape[1]
        copy = np.multiply(w[:, None, :], cols[None, :p], out=wx[: k * p * b].reshape(k, p, b))
        outer += copy.reshape(k * p, b) @ cols[:p].T


def _e_step(weights: np.ndarray, means: np.ndarray, covs: np.ndarray, nu, c: np.ndarray, quad=None):
    """One E-step's constants: the distance operator, the scale and the (K, 1) bias of ``log r``, ``nu`` and p.

    The unnormalized log responsibility is ``scale * g + bias`` with ``g``
    the Mahalanobis distance for the Gaussian fit (scale -1/2) and
    ``log1p(maha / nu)`` for the t fit (scale -(nu+p)/2).  Calls
    ``_maha_logdet`` once: the fit passes its moment block's ``quad``, so a
    packed block gets the quadratic-form operand.
    """
    op, logdet = _maha_logdet(means, covs, c, quad)
    p = means.shape[1]
    if nu is None:
        return op, -0.5, (np.log(weights) - 0.5 * (p * _LOG_2PI + logdet))[:, None], None, p
    return op, -0.5 * (nu + p), (np.log(weights) + _util.log_t_const(p, 1.0, nu) - 0.5 * logdet)[:, None], nu, p


def _sum_slabs(y: np.ndarray, p: int, out: np.ndarray) -> None:
    """Sum the p (K, B) slabs of ``y`` into ``out`` in order, as ``np.sum(axis=0)`` does, bit for bit."""
    k = out.shape[0]
    if p == 1:
        np.copyto(out, y)
    else:
        np.add(y[:k], y[k : 2 * k], out=out)
    for a in range(2, p):
        out += y[a * k : (a + 1) * k]


def _e_block(cols: np.ndarray, e, bufs, log_u_sums=None):
    """E-step of one block; returns its row log-likelihoods, ``r`` and the weights ``w``, each (K, B).

    ``cols`` are the block's columns of the moment block and ``e`` is
    ``_e_step``'s tuple.  The (K, B) squared Mahalanobis distances go
    straight into ``bufs[1]`` for the Gaussian fit and ``bufs[2]`` for the
    t fit, from ``_maha_logdet``'s operator: one GEMM of the quadratic form
    with all the block's rows, clamped at 0, or the squares of the
    whitened coordinates in the (p*K, B) ``bufs[0]`` (a temporary when it
    is None), summed over p.  ``log r`` is
    formed and normalized in place in ``bufs[1]`` (one ``exp`` pass, on
    its transposed view), so ``r`` is (K, B).  The Gaussian fit first sets
    to -inf each ``log r`` more than -ln(tiny) below its point's largest,
    and weights by ``r``.  The t fit holds two (K, B) matrices: its
    distances become ``log1p(maha/nu)`` in place, from which ``log r`` is
    formed, then ``E ln u = ln((nu+p)/nu) + kappa - log1p(maha/nu)``
    (``_util.log_u_consts``), whose ``r``-weighted sum is added to the K
    entries of ``log_u_sums`` when given, then ``u = exp(E ln u - kappa) =
    (nu+p)/(nu+maha)`` and ``w = r * u``.
    """
    op, scale, bias, nu, p = e
    k, b = bias.shape[0], cols.shape[1]
    log_r = _util.block_view(bufs[1], k, b)
    maha = log_r if nu is None else _util.block_view(bufs[2], k, b)
    if op.shape[1] > p + 1:  # the quadratic-form operand, over [x - c; 1; phi]
        np.maximum(np.matmul(op, cols, out=maha), 0.0, out=maha)
    else:
        y = np.empty((p * k, b)) if bufs[0] is None else _util.block_view(bufs[0], p * k, b)
        np.matmul(op, cols[: p + 1], out=y)
        y *= y
        _sum_slabs(y, p, maha)
    if nu is None:
        log_r *= scale
        log_r += bias
        # a Gaussian's log density falls quadratically, so far components land below ln(tiny) under their
        # point's largest, where exp returns a subnormal two orders of magnitude slower; such an r is 0
        floor = log_r.max(axis=0)
        floor += _LOG_TINY
        np.copyto(log_r, -np.inf, where=log_r < floor)
        row_ll, _ = _log_normalize(log_r.T, out=log_r.T)
        return row_ll, log_r, log_r
    lp = np.log1p(np.divide(maha, nu, out=maha), out=maha)
    np.multiply(lp, scale, out=log_r)
    log_r += bias
    row_ll, _ = _log_normalize(log_r.T, out=log_r.T)
    log_u = np.subtract(_util.log_u_consts(nu, p)[0], lp, out=lp)
    if log_u_sums is not None:
        log_u_sums += np.einsum("kb,kb->k", log_r, log_u)
    u = _util.precision_weights(log_u, nu, p, out=log_u)
    return row_ll, log_r, np.multiply(log_r, u, out=u)


def _e_blocks(mom: _Moments, e, bufs, log_u_sums=None):
    """Run the E-step ``e`` block by block; yields ``(start, stop, cols)`` and ``_e_block``'s results."""
    for start, stop in _util.blocks(mom.cols.shape[1], _util.BLOCK):
        cols = mom.cols[:, start:stop]
        yield (start, stop, cols, *_e_block(cols, e, bufs, log_u_sums))


def _pass(mom: _Moments, e, bufs, sums: np.ndarray, outer=None, free_nu: bool = False) -> float:
    """Score the E-step ``e`` over the data and gather the next M-step's sums; returns the log likelihood.

    ``sums`` (K, p+3+q) receives ``_add_moments``'s sums of the weights in
    its first p+1+q columns and, for the t fit, ``sum r`` and (when
    ``free_nu``) ``sum r E ln u`` in the last two, the latter taken in
    ``_e_block``; ``outer`` is zeroed and refilled.
    """
    nu = e[3]
    p, rows = mom.c.shape[0], mom.cols.shape[0]
    sums.fill(0.0)
    if outer is not None:
        outer.fill(0.0)
    ll = 0.0
    for _, _, cols, row_ll, r, w in _e_blocks(mom, e, bufs, sums[:, rows + 1] if free_nu else None):
        ll += float(row_ll.sum())
        _add_moments(sums, outer, w, cols, bufs[0])
        if nu is not None:
            sums[:, rows] += r @ cols[p]
    return ll


def _scatter(mom: _Moments, sums: np.ndarray, outer, nk: np.ndarray, ridge: float, rerun):
    """Weighted means and scatters of all K components from a pass's moment sums.

    Returns ``(means, covs)``: ``mu_j = sum_i w_ij x_i / mass_j`` and
    ``sum_i w_ij (x_i - mu_j)(x_i - mu_j)^T / nk_j + ridge * I``, with the
    weights ``w = r`` (``mass = nk``) for the Gaussian fit and ``w = r *
    u`` for the t fit.  ``sums`` and ``outer`` are ``_add_moments``'s over
    all points.  The scatters are the second moments about ``c`` minus
    ``mass_j (mu_j - c)(mu_j - c)^T``; that subtraction gives the centered
    sum only because ``mu_j`` is the ``w``-weighted mean with ``mass_j =
    sum_i w_ij``, which is why the means are computed here.  Each packed
    entry fills both (a, b) and (b, a) (``sym``), so every scatter is
    exactly symmetric.

    Precision: the subtraction cancels when a component sits far from
    ``c`` relative to its spread, so its absolute error is about eps *
    sum_i w_ij |x_i - c|^2 / nk_j, the contract of
    ``_util.pairwise_sq_dists``.  A component with a variance below 1e-6
    of that spread (a tight cluster far from ``c``, or one that collapsed)
    is recomputed as the weighted sum of outer products centered at its
    own mean, over the blocks of ``rerun()``, which yields ``(start, stop,
    w)`` with the block's (K, B) weights, so no variance loses more than
    about 1e-9 of itself to the cancellation, also with ``ridge = 0``.
    """
    p, k = mom.c.shape[0], sums.shape[0]
    mass = sums[:, p]
    dm = sums[:, :p] / mass[:, None]
    second = sums[:, p + 1 : mom.cols.shape[0]] if outer is None else outer.reshape(k, p, p)[:, mom.iu, mom.ju]
    spread = second.take(mom.diag, axis=1).sum(axis=1)
    v = second - mass[:, None] * (dm.take(mom.iu, axis=1) * dm.take(mom.ju, axis=1))
    near = (v.take(mom.diag, axis=1) < 1e-6 * spread[:, None]).any(axis=1)
    if near.any():
        v[near] = 0.0
        for start, stop, w in rerun():
            d = mom.cols[:p, start:stop].T - dm[near, None, :]
            v[near] += ((d * w[near, :, None]).transpose(0, 2, 1) @ d)[:, mom.iu, mom.ju]
    v /= nk[:, None]
    covs = v.take(mom.sym, axis=1)
    covs[:, :: p + 1] += ridge
    return mom.c + dm, covs.reshape(k, p, p)


def _em(data: Dataset, k: int, cfg, ridge, constrained_alpha=None, nu=None, free_nu=False):
    """The EM loop of ``gmm_fit`` (``nu`` None) and ``tmm_fit``; returns (ClusteringResult, MixtureModel).

    A first pass scores the initial parameters, gathers their M-step sums
    and starts the trace; each step of ``_util.em_steps`` runs the M-step
    from the sums and the next pass, which traces its log likelihood, so I
    M-steps take I+1 passes and one ``_maha_logdet`` call each; at
    ``max_iter`` the last is cut from the trace.  Labels are the argmax
    responsibilities of the last pass: from its buffer when one block
    covers the data, else from one more pass of the same E-step.  A sum
    that overflows float64 raises ``NumericalError``.
    """
    cfg = cfg if cfg is not None else BaselineConfig(init="kmeanspp")
    k = _util.check_k(k, data.n)
    if data.n < 2:
        raise DomainError("mixture fits need at least 2 samples")
    x, n, p = data.samples, data.n, data.p
    ridge_v = _default_ridge(x, ridge)
    nu = None if nu is None else _util.check_positive("nu", nu)
    start = time.perf_counter()
    weights = np.full(k, 1.0 / k)
    means, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)
    cov = _util.finite("the data scatter", lambda: np.cov(x, rowvar=False, ddof=0)).reshape(p, p) + ridge_v * np.eye(p)
    if constrained_alpha is not None:
        cov = _util.check_positive("constrained_alpha", constrained_alpha) * np.eye(p)
    covs = np.repeat(cov[None, :, :], k, axis=0)

    mom = _row_moments(x, k)
    rows, b = mom.cols.shape[0], min(n, _util.BLOCK)
    bufs = [None if mom.packed else np.empty(k * p * b)] + [np.empty(k * b) for _ in range(1 if nu is None else 2)]
    sums = np.empty((k, rows + 2))
    outer = None if mom.packed or constrained_alpha is not None else np.empty((k * p, p))
    e = _e_step(weights, means, covs, nu, mom.c, mom.quad)
    trace = [_pass(mom, e, bufs, sums, outer, free_nu)]
    for _ in _util.em_steps(trace, cfg.max_iter, cfg.tol, prev=trace[0]):
        if not np.isfinite(sums).all() or (outer is not None and not np.isfinite(outer).all()):
            raise NumericalError("the M-step's weighted sums overflow float64; rescale the data")
        mass = sums[:, p]
        nk = mass if nu is None else sums[:, rows]
        if constrained_alpha is not None:
            # a component with no mass keeps its mean
            live = nk > 0.0
            means[live] = mom.c + sums[live, :p] / nk[live, None]
        else:
            if (nk <= 0.0).any() or (mass <= 0.0).any():
                raise NumericalError(f"component {int(np.argmin(nk))} collapsed (zero responsibility mass)")
            weights = nk / n
            means, covs = _scatter(mom, sums, outer, nk, ridge_v,
                                   lambda: ((s, t, w) for s, t, _, _, _, w in _e_blocks(mom, e, bufs)))
            if free_nu:
                nu = _util.nu_from_sums(sums[:, rows + 1] - mass, nk)
        e = _e_step(weights, means, covs, nu, mom.c, mom.quad)
        trace.append(_pass(mom, e, bufs, sums, outer, free_nu))
    del trace[cfg.max_iter :]
    if n <= _util.BLOCK:
        labels, _ = _util.arg_extreme(_util.block_view(bufs[1], k, n), largest=True)
    else:
        labels = np.empty(n, dtype=np.intp)
        for s, t, _, _, r, _ in _e_blocks(mom, e, bufs):
            _util.arg_extreme(r, largest=True, index=labels[s:t])
    wall = time.perf_counter() - start
    model = MixtureModel(weights.copy(), means.copy(), covs.copy(), nu=nu)
    result = ClusteringResult(labels, means.copy(), np.asarray(trace), len(trace), wall, model=model)
    return result, model


def gmm_fit(
    data: Dataset,
    k: int,
    cfg: BaselineConfig | None = None,
    *,
    ridge: float | None = None,
    constrained_alpha: float | None = None,
):
    """EM for a Gaussian mixture; returns (ClusteringResult, MixtureModel).

    Responsibilities are normalized in log space; each M-step covariance
    gains ``ridge`` times the identity (default 1e-6 of the mean feature
    variance).  The loss trace carries the observed-data log likelihood,
    which is non-decreasing; it starts at the initial parameters' and, at
    ``max_iter``, leaves out the returned model's.

    ``constrained_alpha`` switches on a reduced mode used for equivalence
    testing: weights stay uniform and every covariance is pinned to
    ``alpha * I``, so only the means are re-estimated.
    """
    return _em(data, k, cfg, ridge, constrained_alpha=constrained_alpha)


def tmm_fit(
    data: Dataset,
    k: int,
    cfg: BaselineConfig | None = None,
    *,
    ridge: float | None = None,
    fixed_nu: float | None = None,
):
    """EM for a t mixture with full covariances and one shared nu.

    The precision weights u = (nu+p)/(nu + maha^2) discount far points in
    the mean and scatter updates.  Unless ``fixed_nu`` pins it, ``nu``
    starts at 3 and is re-estimated each iteration through the closed-form
    approximation ``core.fit`` uses, clamped to [1, 200].  Runs the EM loop
    of ``gmm_fit``, with its trace.  Returns (ClusteringResult, MixtureModel).
    """
    nu = _util.NU_START if fixed_nu is None else fixed_nu
    return _em(data, k, cfg, ridge, nu=nu, free_nu=fixed_nu is None)
