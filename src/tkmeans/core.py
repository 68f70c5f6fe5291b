"""Heavy-tailed k-means clustering via EM on a constrained t mixture.

The model keeps K isotropic t components with equal mixing weights, one
shared scale ``alpha`` and one shared degrees-of-freedom ``nu``.  The
E-step produces three matrices per sample/component pair: the
responsibility ``tau``, the latent precision weight ``u`` that discounts
far points, and the posterior expectation of ``ln u`` needed by the ``nu``
update.  The M-step moves every center to its tau*u-weighted mean over
*all* samples, re-estimates ``alpha`` against the new centers, and updates
``nu`` through a closed-form approximation.  Each iteration of ``fit``
computes one (N, K) squared-distance matrix, to the new centers, and that
one matrix serves the ``alpha`` update, the iteration's negative log
likelihood and the next E-step.

``fit_fast`` is the alpha->0, fixed-nu limit: hard nearest-center
assignment with inverse-squared-distance weights inside each cluster.  It
costs about as much as Lloyd's algorithm while keeping the outlier
discount.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _util
from .baselines import BaselineConfig
from .datasets import Dataset
from .errors import DomainError
from .results import ClusteringResult
from .specialfn import digamma, log_gamma, log_sum_exp

__all__ = [
    "TkModel",
    "EStepResult",
    "FitConfig",
    "log_t_density",
    "e_step",
    "m_step",
    "log_l2_loss",
    "negative_log_likelihood",
    "fit",
    "fit_fast",
]


@dataclass(frozen=True)
class TkModel:
    """Cluster centers plus the shared scale and degrees of freedom."""

    centers: np.ndarray  # (K, p)
    alpha: float
    nu: float

    def __post_init__(self):
        centers = np.array(self.centers, dtype=np.float64)
        if centers.ndim != 2:
            raise DomainError(f"centers must be a (K, p) matrix, got shape {centers.shape}")
        if not np.isfinite(centers).all():
            raise DomainError("centers must be finite")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise DomainError(f"nu must be finite and > 0, got {self.nu}")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def p(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class EStepResult:
    """Per sample/component expectations produced by one E-step."""

    tau: np.ndarray  # responsibilities, rows sum to 1
    u: np.ndarray  # latent precision weights, in (0, (nu+p)/nu]
    log_u_expect: np.ndarray  # E(ln u), carried for the nu update


@dataclass(frozen=True)
class FitConfig(BaselineConfig):
    """Knobs for ``fit`` and ``fit_fast``: the shared ``BaselineConfig`` ones plus these.

    ``init`` is "random" (distinct data points), "kmeanspp", or an
    explicit (K, p) array.  ``fixed_nu`` freezes the degrees of freedom
    (the fast variant defaults it to 1).  ``fast_alpha`` is the small
    constant guarding the d^2 = 0 singularity of the fast weights; large
    values make the fast update degenerate to the plain mean on purpose.
    """

    fixed_nu: float | None = None
    alpha_floor: float = 1e-12
    nu_bounds: tuple[float, float] = (1.0, 200.0)
    fast_alpha: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        if self.fixed_nu is not None and self.fixed_nu <= 0:
            raise DomainError(f"fixed_nu must be > 0, got {self.fixed_nu}")
        if self.alpha_floor <= 0:
            raise DomainError(f"alpha_floor must be > 0, got {self.alpha_floor}")
        if self.fast_alpha <= 0:
            raise DomainError(f"fast_alpha must be > 0, got {self.fast_alpha}")
        lo, hi = self.nu_bounds
        if not (1.0 <= lo <= hi):
            raise DomainError(f"nu_bounds must satisfy 1 <= lo <= hi, got {self.nu_bounds}")


def log_t_density(x, center, alpha: float, nu: float) -> float:
    """Log density of an isotropic t component at one point.

    ln t(x | nu, mu, alpha*I) =
        lnG((nu+p)/2) - lnG(nu/2) - (p/2) ln(nu*pi) - (p/2) ln(alpha)
        - ((nu+p)/2) ln(1 + d^2/(nu*alpha))
    with d^2 the squared Euclidean distance of x to the center.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    cv = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if xv.shape != cv.shape or xv.ndim != 1:
        raise DomainError(f"x and center must be vectors of one shape, got {xv.shape} and {cv.shape}")
    if not (np.isfinite(xv).all() and np.isfinite(cv).all()):
        raise DomainError("x and center must be finite")
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be finite and > 0, got {alpha}")
    if not (math.isfinite(nu) and nu > 0):
        raise DomainError(f"nu must be finite and > 0, got {nu}")
    p = xv.shape[0]
    d2 = float(((xv - cv) ** 2).sum())
    return (
        log_gamma((nu + p) / 2.0)
        - log_gamma(nu / 2.0)
        - 0.5 * p * math.log(nu * math.pi)
        - 0.5 * p * math.log(alpha)
        - 0.5 * (nu + p) * math.log1p(d2 / (nu * alpha))
    )


def _sq_dists_to(data: Dataset, centers: np.ndarray) -> np.ndarray:
    if data.p != centers.shape[1]:
        raise DomainError(f"data has p={data.p} but centers have p={centers.shape[1]}")
    return _util.pairwise_sq_dists(data.samples, centers)


def _log_t_matrix(d2: np.ndarray, p: int, alpha: float, nu: float) -> np.ndarray:
    const = (
        log_gamma((nu + p) / 2.0)
        - log_gamma(nu / 2.0)
        - 0.5 * p * math.log(nu * math.pi)
        - 0.5 * p * math.log(alpha)
    )
    logt = np.log1p(d2 / (nu * alpha))
    logt *= -0.5 * (nu + p)
    logt += const
    return logt


def _e_step(d2: np.ndarray, model: TkModel) -> tuple[EStepResult, np.ndarray]:
    """E-step from the (N, K) squared distances; also returns the row log-sum-exp of ln t."""
    p, nu, alpha = model.p, model.nu, model.alpha
    logt = _log_t_matrix(d2, p, alpha, nu)
    lse = log_sum_exp(logt, axis=1)
    # in place: every (N, K) temporary is one more live matrix at the peak
    logt -= lse[:, None]
    tau = np.exp(logt, out=logt)
    u = d2 / alpha
    u += nu
    np.divide(nu + p, u, out=u)
    half = (nu + p) / 2.0
    log_u_expect = np.log(u)
    log_u_expect += digamma(half)
    log_u_expect -= math.log(half)
    return EStepResult(tau, u, log_u_expect), lse


def e_step(data: Dataset, model: TkModel) -> EStepResult:
    """Responsibilities, precision weights, and E(ln u) for every pair.

    tau is normalized in log space (the equal mixing weights cancel), so
    far points cannot underflow a whole row.
    """
    return _e_step(_sq_dists_to(data, model.centers), model)[0]


def _m_step(data: Dataset, e: EStepResult, model: TkModel, cfg: FitConfig) -> tuple[TkModel, np.ndarray]:
    """M-step; also returns the (N, K) squared distances to the new centers."""
    x = data.samples
    k, p = model.k, model.p
    if e.tau.shape != (data.n, k):
        raise DomainError(f"E-step result shape {e.tau.shape} does not match (N, K)=({data.n}, {k})")
    w = e.tau * e.u
    mass = w.sum(axis=0)
    healthy = mass > 0.0

    centers = np.empty((k, p), dtype=np.float64)
    if healthy.all():
        centers = (w.T @ x) / mass[:, None]
    else:
        worst = np.argsort(e.tau.max(axis=1), kind="stable")
        used = 0
        for j in range(k):
            if healthy[j]:
                centers[j] = (w[:, j] @ x) / mass[j]
            else:
                centers[j] = x[worst[used]]
                used += 1

    d2_new = _util.pairwise_sq_dists(x, centers)
    tau_total = float(e.tau.sum())
    alpha = float((w * d2_new).sum() / (p * tau_total))
    alpha = max(alpha, cfg.alpha_floor)

    if cfg.fixed_nu is not None:
        nu = model.nu
    else:
        nu = _util.nu_update(e.tau, e.log_u_expect, e.u, cfg.nu_bounds, healthy)
    return TkModel(centers, alpha, nu), d2_new


def m_step(data: Dataset, e: EStepResult, model: TkModel, cfg: FitConfig) -> TkModel:
    """One coordinate sweep of the M-step updates.

    Centers move to their tau*u weighted means; a component whose weight
    mass vanished is re-seeded to the sample with the lowest maximum
    responsibility.  ``alpha`` is re-estimated against the new centers and
    floored; ``nu`` stays fixed when requested, otherwise it follows the
    closed-form approximation, clamped to ``nu_bounds`` (a non-negative
    eta would produce a non-positive nu and clamps to the upper bound).
    """
    return _m_step(data, e, model, cfg)[0]


def log_l2_loss(data: Dataset, model: TkModel, tau: np.ndarray) -> float:
    """Responsibility-weighted sum of ln(1 + d^2/(nu*alpha)) over all pairs.

    This is the data-dependent part of the model's negative log
    likelihood; it grows logarithmically with squared distance, which is
    what blunts the influence of outliers.
    """
    tau = np.asarray(tau, dtype=np.float64)
    d2 = _sq_dists_to(data, model.centers)
    if tau.shape != d2.shape:
        raise DomainError(f"tau shape {tau.shape} does not match (N, K)={d2.shape}")
    rows = tau.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-6):
        raise DomainError("tau rows must sum to 1")
    return float((tau * np.log1p(d2 / (model.nu * model.alpha))).sum())


def _nll(lse: np.ndarray, k: int) -> float:
    return float(-(lse - math.log(k)).sum())


def negative_log_likelihood(data: Dataset, model: TkModel) -> float:
    """Observed-data negative log likelihood under equal mixing weights.

    This is the fit's convergence monitor: plain EM theory makes it
    non-increasing across iterations while ``nu`` is held fixed, which the
    raw weighted log-distance sum of :func:`log_l2_loss` is not once the
    shared scale is re-estimated each step.
    """
    d2 = _sq_dists_to(data, model.centers)
    logt = _log_t_matrix(d2, model.p, model.alpha, model.nu)
    return _nll(log_sum_exp(logt, axis=1), model.k)


def _initial_model(data: Dataset, k: int, cfg: FitConfig, nu0: float) -> TkModel:
    rng = np.random.default_rng(cfg.seed)
    centers, _ = _util.init_centers(data.samples, k, rng, cfg.init)
    d2 = _util.pairwise_sq_dists(data.samples, centers)
    alpha0 = float(d2.min(axis=1).mean()) / data.p
    return TkModel(centers, max(alpha0, cfg.alpha_floor), nu0)


_NU_START = 3.0  # where the free-nu EM starts


def _run_em(data: Dataset, model: TkModel, d2: np.ndarray, cfg: FitConfig, budget: int, trace: list[float]):
    """Iterate M- and E-steps until the NLL meets ``tol`` or ``budget`` runs out, appending to ``trace``.

    ``d2`` holds the squared distances to ``model``'s centers.  Each
    iteration computes one distance matrix, to the new centers, and it
    serves ``alpha``, the NLL and the next E-step.  Returns the last
    model, its distances and its argmax-responsibility labels.
    """
    e, _ = _e_step(d2, model)
    prev_loss = None
    for _ in range(budget):
        model, d2 = _m_step(data, e, model, cfg)
        e, lse = _e_step(d2, model)
        loss = _nll(lse, model.k)
        trace.append(loss)
        if prev_loss is not None and abs(loss - prev_loss) < cfg.tol * max(abs(prev_loss), 1e-12):
            break
        prev_loss = loss
    return model, d2, e.tau.argmax(axis=1)


def fit(data: Dataset, k: int, cfg: FitConfig | None = None) -> ClusteringResult:
    """Full EM fit of the heavy-tailed clustering model.

    Starts from random points, k-means++ seeding, or explicit centers;
    ``alpha`` starts at the mean squared nearest-center distance divided
    by p.  With ``fixed_nu`` set, E- and M-steps iterate at that ``nu``
    until the relative change of the loss trace drops below ``tol`` or
    ``max_iter`` is reached.  Otherwise the fit runs in two stages: a warm
    stage holds ``nu`` at ``nu_bounds[1]`` (near-Gaussian tails) until
    the loss meets ``tol``; then ``nu`` restarts at 3 from the warm
    centers and ``alpha`` and is re-estimated every iteration until the
    loss meets ``tol`` again.  Heavy tails fitted from the first step let
    one component absorb two true clusters while two others split a
    third, a genuine EM fixed point; the warm stage settles the centers
    first.  Both stages share one ``max_iter`` budget and one loss trace,
    so a budget spent in the warm stage returns ``nu = nu_bounds[1]``.
    The trace carries the observed-data negative log likelihood of each
    iteration's model, which is non-increasing while ``nu`` is fixed.
    Hard labels are the argmax responsibilities under the final model.
    Deterministic for a fixed seed.
    """
    cfg = cfg or FitConfig()
    k = _util.check_k(k, data.n)

    start = time.perf_counter()
    nu0 = cfg.nu_bounds[1] if cfg.fixed_nu is None else cfg.fixed_nu
    trace: list[float] = []
    model = _initial_model(data, k, cfg, nu0)
    d2 = _sq_dists_to(data, model.centers)
    model, d2, labels = _run_em(data, model, d2, replace(cfg, fixed_nu=nu0), cfg.max_iter, trace)
    if cfg.fixed_nu is None and len(trace) < cfg.max_iter:
        model = TkModel(model.centers, model.alpha, _NU_START)
        model, d2, labels = _run_em(data, model, d2, cfg, cfg.max_iter - len(trace), trace)
    wall = time.perf_counter() - start
    return ClusteringResult(labels, model.centers.copy(), np.asarray(trace), len(trace), wall, model=model)


def fit_fast(data: Dataset, k: int, cfg: FitConfig | None = None) -> ClusteringResult:
    """Fast variant: hard assignment plus inverse-squared-distance weights.

    Each point joins its nearest center (ties go to the lowest index) with
    weight 1/(c + d^2), c = nu * fast_alpha; centers move to the weighted
    mean of their members, and neither alpha nor nu is re-estimated.
    Stops when the largest center shift falls below ``tol``.  Empty
    clusters re-seed to the point farthest from its assigned center.
    """
    cfg = cfg or FitConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    nu = cfg.fixed_nu if cfg.fixed_nu is not None else 1.0
    c = nu * cfg.fast_alpha

    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    centers, _ = _util.init_centers(x, k, rng, cfg.init)
    trace: list[float] = []
    for _ in range(cfg.max_iter):
        d2 = _util.pairwise_sq_dists(x, centers)
        assign = d2.argmin(axis=1)
        dist = d2[np.arange(x.shape[0]), assign]
        assign, centers, dist, _ = _util.reseed_empty_clusters(x, assign, centers, dist, k)
        trace.append(float(np.log1p(dist / c).sum()))
        weights = 1.0 / (c + dist)
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = assign == j
            wj = weights[members]
            new_centers[j] = wj @ x[members] / wj.sum()
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < cfg.tol:
            break
    labels = _util.pairwise_sq_dists(x, centers).argmin(axis=1)
    wall = time.perf_counter() - start
    model = TkModel(centers, cfg.fast_alpha, nu)
    return ClusteringResult(labels, centers.copy(), np.asarray(trace), len(trace), wall, model=model)
