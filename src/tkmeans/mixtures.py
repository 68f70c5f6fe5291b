"""Full-covariance Gaussian and t mixture models fit by EM.

These are the classical model-based baselines: free mixing weights, one
full covariance matrix per component (stabilized by a ridge), and for the
t mixture a shared degrees-of-freedom parameter that starts at 3 and is
estimated by the closed-form approximation the core algorithm uses,
clamped to [1, 200].  Means default to k-means++ seeding, covariances to
the global data scatter, and weights to uniform.  Both fits run one EM
loop (``_em``); the t fit adds the precision weights and the ``nu`` update.

Each E-step evaluates all K components in one batched computation (see
``_maha_logdet``): one Cholesky of the (K, p, p) covariance stack, one
inverse of the factors and one whitening GEMM over the data; one ``exp``
pass then gives both the row log-likelihoods and the responsibilities.
The M-step works from sufficient statistics built once per fit
(``_row_moments``): the data centered at their mean ``c`` and, when
p < 2K, the packed upper triangle of each centered row's outer product.
The K means are one GEMM of the weights with the centered data and the K
scatters one GEMM with the packed block, or with a weighted copy of the
data when p >= 2K (``_scatter``), so the Python cost of an iteration does
not grow with K.
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


@dataclass(frozen=True)
class MixtureModel:
    """Mixture parameters; ``nu`` is None for the Gaussian case."""

    weights: np.ndarray  # (K,), on the simplex
    means: np.ndarray  # (K, p)
    covariances: np.ndarray  # (K, p, p), symmetric positive definite
    nu: float | None = None


def _finite(what: str, compute) -> np.ndarray:
    """``compute()`` with overflow silenced; a non-finite result raises ``NumericalError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(compute())
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} overflows float64; rescale the data")
    return value


def _default_ridge(x: np.ndarray, ridge: float | None) -> float:
    if ridge is not None:
        if not 0 <= ridge < math.inf:
            raise DomainError(f"ridge must be finite and >= 0, got {ridge}")
        return float(ridge)
    value = 1e-6 * float(_finite("the feature variance", lambda: x.var(axis=0, ddof=1).mean()))
    # data that are not constant need a positive ridge; at tiny scales the variance or 1e-6 of it rounds to 0
    if value == 0.0 and np.ptp(x, axis=0).any():
        raise NumericalError("the default ridge underflows float64; rescale the data or pass ridge")
    return value


def _maha_logdet(x: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """Squared Mahalanobis distances to every component, and the log-determinants.

    Returns the (N, K) distance matrix and the (K,) covariance
    log-determinants.  With ``L_j`` the Cholesky factor of component j and
    ``W_j`` its inverse, the distance is ``|W_j (x - mu_j)|^2``; all K
    whitenings run as one GEMM, ``W.reshape(K*p, p) @ (x - s).T`` minus
    ``W (mu - s)``, with ``s`` the mean of the means (as in
    ``_util.pairwise_sq_dists``, the shift keeps cancellation small when
    the data sit far from the origin).  The GEMM's (K*p, N) output is the
    one temporary beyond the (N, K) result: 0.36 MB at N=1500, p=2, K=15.
    A covariance whose Cholesky fails raises ``NumericalError`` naming the
    first such component.
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
    shift = means.mean(axis=0)
    y = whiten.reshape(k * p, p) @ (x - shift).T
    y -= (whiten @ (means - shift)[:, :, None]).reshape(k * p, 1)
    y *= y
    maha = y.reshape(k, p, x.shape[0]).sum(axis=1).T
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return maha, logdet


@dataclass(frozen=True)
class _Moments:
    """Per-fit sufficient statistics of the data, built by ``_row_moments``."""

    c: np.ndarray  # (p,), the data mean
    xc: np.ndarray  # (N, p), the data centered at c
    phi: np.ndarray | None  # (N, p(p+1)/2), packed upper triangles of xc_i xc_i^T; None when p >= 2K
    iu: np.ndarray  # row and column of each packed entry
    ju: np.ndarray
    diag: np.ndarray  # the packed entries on the diagonal


def _row_moments(x: np.ndarray, k: int) -> _Moments:
    """Center the data and, when p < 2K, pack each row's outer product, once per fit.

    ``phi`` holds N p(p+1)/2 floats, so its memory grows as p^2.  It is
    built only when p < 2K, where it is no larger than the (K*p, N) block
    of ``_maha_logdet``; wider data get their second moments from an
    (N, K*p) weighted copy of the data in each ``_scatter`` instead.  A
    squared entry that overflows raises ``NumericalError``; every product
    in ``phi`` is bounded by the larger of two such squares.
    """
    c = x.mean(axis=0)
    xc = x - c
    _finite("the data's second moments", lambda: xc * xc)
    iu, ju = np.triu_indices(x.shape[1])
    phi = xc[:, iu] * xc[:, ju] if x.shape[1] < 2 * k else None
    return _Moments(c, xc, phi, iu, ju, np.flatnonzero(iu == ju))


def _second_moments(mom: _Moments, w: np.ndarray) -> np.ndarray:
    """Packed ``sum_i w_ij xc_i xc_i^T`` for every column j of ``w``, as a (K, p(p+1)/2) array.

    One GEMM, ``w.T @ phi``; without ``phi`` (p >= 2K) the (N, K*p) block
    of ``w_ij xc_i`` times ``xc``.
    """
    if mom.phi is not None:
        return w.T @ mom.phi
    k, p = w.shape[1], mom.xc.shape[1]
    wx = (w[:, :, None] * mom.xc[:, None, :]).reshape(-1, k * p)
    return (wx.T @ mom.xc).reshape(k, p, p)[:, mom.iu, mom.ju]


def _scatter(mom: _Moments, w: np.ndarray, mass: np.ndarray, nk: np.ndarray, ridge: float):
    """Weighted means and scatters of all K components from the row moments.

    Returns ``(means, covs)``: ``mu_j = sum_i w_ij x_i / mass_j`` and
    ``sum_i w_ij (x_i - mu_j)(x_i - mu_j)^T / nk_j + ridge * I``.  The
    Gaussian fit passes ``w = r`` and ``mass = nk``; the t fit passes ``w =
    r * u`` and ``mass = sum_i r_ij u_ij``.  The means are one GEMM with
    the centered data; the scatters are the second moments about ``c``
    (``_second_moments``) minus ``mass_j (mu_j - c)(mu_j - c)^T``.  That
    subtraction gives the centered sum only because ``mu_j`` is the
    ``w``-weighted mean with ``mass_j = sum_i w_ij``, which is why the
    means are computed here.  Each packed entry fills both (a, b) and
    (b, a), so every scatter is exactly symmetric.

    Precision: the subtraction cancels when a component sits far from
    ``c`` relative to its spread, so its absolute error is about eps *
    sum_i w_ij |x_i - c|^2 / nk_j, the contract of
    ``_util.pairwise_sq_dists``.  A component with a variance below 1e-6
    of that spread (a tight cluster far from ``c``, or one that collapsed)
    is recomputed as the weighted sum of outer products centered at its
    own mean, so no variance loses more than about 1e-9 of itself to the
    cancellation, also with ``ridge = 0``.
    """
    dm = (w.T @ mom.xc) / mass[:, None]
    k, p = dm.shape
    v = _second_moments(mom, w)
    spread = v[:, mom.diag].sum(axis=1)
    v -= mass[:, None] * (dm[:, mom.iu] * dm[:, mom.ju])
    near = (v[:, mom.diag] < 1e-6 * spread[:, None]).any(axis=1)
    if near.any():
        d = mom.xc - dm[near, None, :]
        v[near] = ((d * w.T[near, :, None]).transpose(0, 2, 1) @ d)[:, mom.iu, mom.ju]
    v /= nk[:, None]
    covs = np.empty((k, p, p))
    covs[:, mom.iu, mom.ju] = v
    covs[:, mom.ju, mom.iu] = v
    diag = np.arange(p)
    covs[:, diag, diag] += ridge
    return mom.c + dm, covs


def _em(data: Dataset, k: int, cfg, ridge, constrained_alpha=None, nu=None, free_nu=False):
    """The EM loop of ``gmm_fit`` (``nu`` None) and ``tmm_fit``; returns (ClusteringResult, MixtureModel).

    An iteration traces the log likelihood of the current E-step, stops on
    ``_util.converged``, then runs the M-step and the next E-step, so the
    labels come from the last parameters.  The t M-step weights by ``r * u``
    instead of ``r`` and moves ``nu`` when ``free_nu``.
    """
    cfg = cfg if cfg is not None else BaselineConfig(init="kmeanspp")
    k = _util.check_k(k, data.n)
    if data.n < 2:
        raise DomainError("mixture fits need at least 2 samples")
    x, p = data.samples, data.p
    ridge_v = _default_ridge(x, ridge)
    if nu is not None and not 0 < nu < math.inf:
        raise DomainError(f"nu must be finite and > 0, got {nu}")
    start = time.perf_counter()
    weights = np.full(k, 1.0 / k)
    means, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)
    cov = _finite("the data scatter", lambda: np.cov(x, rowvar=False, ddof=0)).reshape(p, p) + ridge_v * np.eye(p)
    if constrained_alpha is not None:
        if not 0 < constrained_alpha < math.inf:
            raise DomainError(f"constrained_alpha must be finite and > 0, got {constrained_alpha}")
        cov = constrained_alpha * np.eye(p)
    covs = np.repeat(cov[None, :, :], k, axis=0)

    def e_step(weights, means, covs, nu):
        """Log responsibilities (unnormalized), the distances and, for the t fit, ``log1p(maha / nu)``."""
        maha, logdet = _maha_logdet(x, means, covs)
        if nu is None:
            return np.log(weights) - 0.5 * (p * _LOG_2PI + logdet + maha), maha, None
        lp = np.log1p(maha / nu)
        return np.log(weights) + _util.log_t_const(p, 1.0, nu) - 0.5 * logdet - 0.5 * (nu + p) * lp, maha, lp

    mom = _row_moments(x, k)
    trace: list[float] = []
    prev_ll = None
    log_r, maha, lp = e_step(weights, means, covs, nu)
    for _ in range(cfg.max_iter):
        row_ll, r = _log_normalize(log_r)
        ll = float(row_ll.sum())
        trace.append(ll)
        if _util.converged(ll, prev_ll, cfg.tol):
            break
        prev_ll = ll
        nk = r.sum(axis=0)
        if constrained_alpha is not None:
            # a component with no mass keeps its mean
            live = nk > 0.0
            means[live] = mom.c + (r.T @ mom.xc)[live] / nk[live, None]
        else:
            if nu is None:
                w, mass = r, nk
            else:
                u = (nu + p) / (nu + maha)
                w = r * u
                mass = w.sum(axis=0)
            if (nk <= 0.0).any() or (mass <= 0.0).any():
                raise NumericalError(f"component {int(np.argmin(nk))} collapsed (zero responsibility mass)")
            weights = nk / data.n
            means, covs = _scatter(mom, w, mass, nk, ridge_v)
            if free_nu:
                log_u_expect = _util.log_u_offset(nu, p) - lp
                nu = _util.nu_update(r, log_u_expect, u, _util.NU_BOUNDS, np.ones(k, dtype=bool))
        log_r, maha, lp = e_step(weights, means, covs, nu)
    labels = log_r.argmax(axis=1)
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
    which is non-decreasing.

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
    of ``gmm_fit``.  Returns (ClusteringResult, MixtureModel).
    """
    nu = _util.NU_START if fixed_nu is None else float(fixed_nu)
    return _em(data, k, cfg, ridge, nu=nu, free_nu=fixed_nu is None)
