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
likelihood and the next E-step.  The iteration is component-major: that
matrix, and every (N, K) matrix derived from it, is a view of C-ordered
(K, N) memory, so the reductions over K run along contiguous rows, and
one ``exp`` pass per E-step gives both the log likelihood and ``tau``.
The distances come from a (p+1, N) block of the data, centered at their
mean and stacked over their squared norms (``_util.distance_block``), so
one distance matrix is one GEMM with the (K, p+1) centers operand plus a
per-row add.  Those matrices and the block live in one workspace that
``fit`` allocates once and every iteration overwrites, so an iteration
allocates no (N, K) or (N, p) array; the public ``e_step``,
``m_step``, ``log_l2_loss`` and ``negative_log_likelihood`` build the
same block per call and run the same steps into fresh arrays.  A distance or scaled distance that
overflows float64 raises ``NumericalError``.

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
from .errors import DomainError, NumericalError
from .results import ClusteringResult
from .specialfn import _log_normalize, log_sum_exp

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
    nu_bounds: tuple[float, float] = _util.NU_BOUNDS
    fast_alpha: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        if self.fixed_nu is not None and not 0 < self.fixed_nu < math.inf:
            raise DomainError(f"fixed_nu must be finite and > 0, got {self.fixed_nu}")
        if not 0 < self.alpha_floor < math.inf:
            raise DomainError(f"alpha_floor must be finite and > 0, got {self.alpha_floor}")
        if not 0 < self.fast_alpha < math.inf:
            raise DomainError(f"fast_alpha must be finite and > 0, got {self.fast_alpha}")
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
    return _util.log_t_const(p, alpha, nu) - 0.5 * (nu + p) * math.log1p(d2 / (nu * alpha))


@dataclass(frozen=True)
class _Workspace:
    """The buffers of one fit's EM iteration, allocated once and reused by every iteration.

    ``d2`` (squared distances), ``lp`` (``log1p(d2/(nu*alpha))``, then
    ``E ln u``), ``logt`` (ln t, then ``tau``), ``u`` (``d2/(nu*alpha)``,
    then ``u``) and ``w`` (the tau*u weights, then scratch for the ``nu``
    update) are (N, K) views of C-ordered (K, N) memory; ``block`` is the
    data's ``_util.distance_block``, the (p+1, N) block and the mean it is
    centered at, built once here since the data do not change during a
    fit.  A field left at ``None``, as in ``_FRESH``, makes its step
    allocate a new array (or build a new block), as the public
    ``e_step``/``m_step`` need.
    """

    d2: np.ndarray | None = None
    lp: np.ndarray | None = None
    logt: np.ndarray | None = None
    u: np.ndarray | None = None
    w: np.ndarray | None = None
    block: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def allocate(cls, x: np.ndarray, k: int) -> _Workspace:
        def matrix():
            return np.empty((k, x.shape[0])).T

        return cls(matrix(), matrix(), matrix(), matrix(), matrix(), _util.distance_block(x))


_FRESH = _Workspace()


def _sq_dists_to(data: Dataset, centers: np.ndarray, ws: _Workspace = _FRESH) -> np.ndarray:
    """(N, K) squared distances as a view of C-ordered (K, N) memory, into ``ws.d2`` when it is there.

    One GEMM of the centers with the data's distance block: the block of
    ``ws``, or one built here when ``ws`` has none, so both paths run the
    same operations.
    """
    if data.p != centers.shape[1]:
        raise DomainError(f"data has p={data.p} but centers have p={centers.shape[1]}")
    block = _util.distance_block(data.samples) if ws.block is None else ws.block
    out = None if ws.d2 is None else ws.d2.T
    return _util.pairwise_sq_dists(centers, data.samples, block=block, out=out).T


def _divide(d2: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """``d2 / scale``; raises ``NumericalError`` where a quotient overflows float64."""
    try:
        with np.errstate(over="raise"):
            return np.divide(d2, scale, out=out)
    except FloatingPointError:
        raise NumericalError("scaled squared distances overflow float64; rescale the data") from None


def _log1p_scaled(d2: np.ndarray, model: TkModel, out: np.ndarray | None = None) -> np.ndarray:
    lp = _divide(d2, model.nu * model.alpha, out=out)
    return np.log1p(lp, out=lp)


def _log_t_matrix(lp: np.ndarray, model: TkModel, out: np.ndarray | None = None) -> np.ndarray:
    """ln t of every pair from ``lp = log1p(d2 / (nu*alpha))``, in the layout of ``lp``."""
    logt = np.multiply(lp, -0.5 * (model.nu + model.p), out=out)
    logt += _util.log_t_const(model.p, model.alpha, model.nu)
    return logt


def _e_step(d2: np.ndarray, model: TkModel, ws: _Workspace = _FRESH) -> tuple[EStepResult, np.ndarray]:
    """E-step from the (N, K) squared distances; also returns the row log-sum-exp of ln t.

    Component-major: ``d2`` comes from ``_sq_dists_to`` as a view of (K, N)
    memory, and every (N, K) matrix made here keeps that layout, so the
    reductions over K here and in the M-step run along contiguous rows.
    One ``exp`` pass gives both the row log-sum-exps and ``tau``, normalized
    in place.  The scaled distances ``s = d2/(nu*alpha)`` serve both ln t
    and ``u = ((nu+p)/nu) / (1 + s)``, and ``E ln u`` reuses the ``log1p``
    of ln t: ``ln u = ln((nu+p)/nu) - log1p(s)``.  The three matrices are
    written into ``ws.lp``, ``ws.logt`` and ``ws.u`` when they are there.
    Raises ``NumericalError`` when ``s`` overflows.
    """
    p, nu, alpha = model.p, model.nu, model.alpha
    scaled = _divide(d2, nu * alpha, out=ws.u)
    lp = np.log1p(scaled, out=ws.lp)
    logt = _log_t_matrix(lp, model, out=ws.logt)
    # in place: every (N, K) temporary is one more live matrix at the peak
    lse, tau = _log_normalize(logt, out=logt)
    u = np.add(scaled, 1.0, out=scaled)
    np.divide((nu + p) / nu, u, out=u)
    log_u_expect = np.subtract(_util.log_u_offset(nu, p), lp, out=lp)
    return EStepResult(tau, u, log_u_expect), lse


def e_step(data: Dataset, model: TkModel) -> EStepResult:
    """Responsibilities, precision weights, and E(ln u) for every pair.

    tau is normalized in log space (the equal mixing weights cancel), so
    far points cannot underflow a whole row.
    """
    return _e_step(_sq_dists_to(data, model.centers), model)[0]


def _m_step(
    data: Dataset, e: EStepResult, model: TkModel, cfg: FitConfig, ws: _Workspace = _FRESH
) -> tuple[TkModel, np.ndarray]:
    """M-step; also returns the (N, K) squared distances to the new centers, in ``ws.d2`` when it is there.

    The weights ``w`` go into ``ws.w``, which then holds the product of
    the ``nu`` update; ``alpha`` takes one dot product of ``w`` with the
    new distances.
    """
    x = data.samples
    k, p = model.k, model.p
    if e.tau.shape != (data.n, k):
        raise DomainError(f"E-step result shape {e.tau.shape} does not match (N, K)=({data.n}, {k})")
    w = np.multiply(e.tau, e.u, out=ws.w)
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

    d2_new = _sq_dists_to(data, centers, ws)
    tau_total = float(e.tau.sum())
    # one dot product of the (K, N) memory, with no (N, K) product
    alpha = float(np.vdot(w.T, d2_new.T) / (p * tau_total))
    alpha = max(alpha, cfg.alpha_floor)

    if cfg.fixed_nu is not None:
        nu = model.nu
    else:
        nu = _util.nu_update(e.tau, e.log_u_expect, e.u, cfg.nu_bounds, healthy, scratch=w)
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
    return float((tau * _log1p_scaled(d2, model)).sum())


def _nll(lse: np.ndarray, k: int) -> float:
    return float(-(lse - math.log(k)).sum())


def negative_log_likelihood(data: Dataset, model: TkModel) -> float:
    """Observed-data negative log likelihood under equal mixing weights.

    This is the fit's convergence monitor: plain EM theory makes it
    non-increasing across iterations while ``nu`` is held fixed, which the
    raw weighted log-distance sum of :func:`log_l2_loss` is not once the
    shared scale is re-estimated each step.
    """
    lp = _log1p_scaled(_sq_dists_to(data, model.centers), model)
    return _nll(log_sum_exp(_log_t_matrix(lp, model), axis=1), model.k)


def _initial_model(data: Dataset, k: int, cfg: FitConfig, nu0: float, ws: _Workspace = _FRESH) -> TkModel:
    """The seeded centers, ``alpha`` from their nearest-center distances, and ``nu0``.

    The distances to the initial centers are left in ``ws.d2`` when it is
    there, for the first E-step.
    """
    rng = np.random.default_rng(cfg.seed)
    centers, _ = _util.init_centers(data.samples, k, rng, cfg.init)
    d2 = _sq_dists_to(data, centers, ws)
    alpha0 = float(d2.min(axis=1).mean()) / data.p
    return TkModel(centers, max(alpha0, cfg.alpha_floor), nu0)


def _run_em(data: Dataset, model: TkModel, ws: _Workspace, cfg: FitConfig, budget: int, trace: list[float]):
    """Iterate M- and E-steps until the NLL meets ``tol`` or ``budget`` runs out, appending to ``trace``.

    ``ws.d2`` holds the squared distances to ``model``'s centers.  Each
    iteration computes one distance matrix, to the new centers, into
    ``ws.d2``, and it serves ``alpha``, the NLL and the next E-step.
    Every (N, K) matrix of the iteration lives in ``ws``, so an iteration
    allocates only vectors and (K, p) arrays.  Returns the last model,
    whose distances ``ws.d2`` then holds, and its argmax-responsibility
    labels.
    """
    e, _ = _e_step(ws.d2, model, ws)
    prev_loss = None
    for _ in range(budget):
        model, d2 = _m_step(data, e, model, cfg, ws)
        e, lse = _e_step(d2, model, ws)
        loss = _nll(lse, model.k)
        trace.append(loss)
        if _util.converged(loss, prev_loss, cfg.tol):
            break
        prev_loss = loss
    return model, e.tau.argmax(axis=1)


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
    ws = _Workspace.allocate(data.samples, k)
    model = _initial_model(data, k, cfg, nu0, ws)
    model, labels = _run_em(data, model, ws, replace(cfg, fixed_nu=nu0), cfg.max_iter, trace)
    if cfg.fixed_nu is None and len(trace) < cfg.max_iter:
        model = TkModel(model.centers, model.alpha, _util.NU_START)
        model, labels = _run_em(data, model, ws, cfg, cfg.max_iter - len(trace), trace)
    wall = time.perf_counter() - start
    return ClusteringResult(labels, model.centers.copy(), np.asarray(trace), len(trace), wall, model=model)


def fit_fast(data: Dataset, k: int, cfg: FitConfig | None = None) -> ClusteringResult:
    """Fast variant: hard assignment plus inverse-squared-distance weights.

    Each point joins its nearest center (ties go to the lowest index) with
    weight 1/(c + d^2), c = nu * fast_alpha; centers move to the weighted
    mean of their members, and neither alpha nor nu is re-estimated.  The
    sweeps are ``_util.hard_assignment_loop``'s, so empty clusters re-seed
    as in k-means.  Stops when the largest center shift falls below ``tol``,
    keeping the moved centers; the labels are the nearest final centers.
    """
    cfg = cfg or FitConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    nu = cfg.fixed_nu if cfg.fixed_nu is not None else 1.0
    c = nu * cfg.fast_alpha

    start = time.perf_counter()
    centers, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)

    def update(assign, dist, moved, repeated, centers):
        weights = 1.0 / (c + dist)
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = assign == j
            wj = weights[members]
            new_centers[j] = wj @ x[members] / wj.sum()
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        return new_centers, shift < cfg.tol

    _, centers, trace = _util.hard_assignment_loop(x, centers, k, cfg.max_iter, _util.pairwise_sq_dists, update,
                                                   loss=lambda d: np.log1p(_divide(d, c)).sum())
    labels = _util.pairwise_sq_dists(x, centers).argmin(axis=1)
    wall = time.perf_counter() - start
    model = TkModel(centers, cfg.fast_alpha, nu)
    return ClusteringResult(labels, centers.copy(), np.asarray(trace), len(trace), wall, model=model)
