"""Heavy-tailed k-means clustering via EM on a constrained t mixture.

The model keeps K isotropic t components with equal mixing weights, one
shared scale ``alpha`` and one shared degrees-of-freedom ``nu``.  The
E-step produces three matrices per sample/component pair: the
responsibility ``tau``, the latent precision weight ``u`` that discounts
far points, and the posterior expectation of ``ln u`` needed by the ``nu``
update.  The M-step moves every center to its tau*u-weighted mean over
*all* samples, re-estimates ``alpha`` against the new centers, and updates
``nu`` through a closed-form approximation.

``fit`` runs one pass over the data per EM iteration, in blocks of
``_BLOCK`` points (data of up to that many points run as one block).  A
block takes its (K, B) squared distances from one GEMM of the centers
with its columns of a (p+2, N) block of the data (centered at their mean,
over their squared norms and a row of ones, ``_util.distance_block``),
runs the E-step in (K, B) buffers that every block reuses, adds its
share of the negative log likelihood, and adds to the M-step's
sufficient statistics (Neal & Hinton's view of EM): ``sum w (x-m)``,
``sum w |x-m|^2`` and the mass ``sum w`` from one more GEMM of the
weights ``w = tau*u`` with the same rows, ``sum tau`` and, when ``nu`` is
free, ``sum tau E ln u``.  The M-step reads the centers, ``alpha`` and
``nu`` off those sums, so a pass scores one model and gathers the next
one's update, and I iterations take I+1 passes.  A fit allocates no (N,
K) array: at 50,000 x 2, K=50 its buffers hold 5 MB.  The public
``e_step``, ``m_step``, ``log_l2_loss`` and ``negative_log_likelihood``
run the same block functions with the whole data as one block, into
fresh (K, N) arrays returned as (N, K) views.  A distance or scaled
distance that overflows float64, or a sum of the M-step that does,
raises ``NumericalError``.

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
        if not (1.0 <= lo <= hi < math.inf):
            raise DomainError(f"nu_bounds must satisfy 1 <= lo <= hi < inf, got {self.nu_bounds}")


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


# Points per block of an EM pass.  Each of the pass's three (K, B) buffers holds B*K
# floats, about 2**16 (512 KB) at K=16, and data of up to B points run as one block.
_BLOCK = 4096


def _blocks(n: int):
    """(start, stop) of each block of ``_BLOCK`` points, the constant read at call time."""
    return ((start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _view(buf: np.ndarray, k: int, b: int) -> np.ndarray:
    """The first K*b floats of a flat buffer as a C-ordered (K, b) matrix."""
    return buf[: k * b].reshape(k, b)


def _log_t_block(points, rows, mean, model: TkModel, d2, lp, logt):
    """``1 + s`` with ``s = d2/(nu*alpha)``, its log and ln t for one block of points, each (K, B).

    ``rows`` are the block's columns of the data's ``_util.distance_block``,
    centered at ``mean``.  ``d2`` receives the squared distances and then,
    in place, ``1 + s``, with ``s`` the product of ``d2`` and ``1/(nu*alpha)``;
    ``lp`` receives ``ln(1 + s)`` and ``logt`` ln t less its distance-free
    part, ``_util.log_t_const``, which ``_nll`` adds to the row
    log-sum-exps instead (it cancels in ``tau``).  Raises
    ``NumericalError`` when a distance or ``s`` overflows.
    """
    d2 = _util.pairwise_sq_dists(model.centers, points, block=(rows, mean), out=d2)
    try:
        with np.errstate(over="raise", divide="raise"):
            np.multiply(d2, np.float64(1.0) / (np.float64(model.nu) * model.alpha), out=d2)
    except FloatingPointError:
        raise NumericalError("scaled squared distances overflow float64; rescale the data") from None
    one_s = np.add(d2, 1.0, out=d2)
    lp = np.log(one_s, out=lp)
    return one_s, lp, np.multiply(lp, -0.5 * (model.nu + model.p), out=logt)


def _e_block(points, rows, mean, model: TkModel, d2, lp, logt, total=None):
    """E-step of one block; returns its row log-sum-exps, ``tau`` (B, K), ``u`` and ``ln(1 + s)`` (K, B).

    One ``exp`` pass gives both the row log-sum-exps and ``tau``,
    normalized in place in ``logt``.  ``u = ((nu+p)/nu) / (1 + s)``
    overwrites ``1 + s`` in ``d2``, and ``E ln u = log_u_offset - ln(1 +
    s)`` reuses the log of ln t.  ``total`` receives the rows' sums of
    exponentials, whose reciprocals are the rows' largest ``tau``.
    """
    one_s, lp, logt = _log_t_block(points, rows, mean, model, d2, lp, logt)
    lse, tau = _log_normalize(logt.T, out=logt.T, total=total)
    u = np.divide((model.nu + model.p) / model.nu, one_s, out=one_s)
    return lse, tau, u, lp


def _add_sums(sums: np.ndarray, tau: np.ndarray, w: np.ndarray, rows: np.ndarray, log_u=None) -> None:
    """Add one block's M-step sums to the (K, p+4) ``sums``.

    ``tau``, the weights ``w = tau*u`` and ``log_u`` (``E ln u``, given
    when ``nu`` is free) are (K, B).  Columns 0..p+1 gain ``w`` times the
    transposed rows, one GEMM: ``sum w (x-m)``, ``sum w |x-m|^2`` and the
    mass ``sum w``.  Column p+2 gains ``sum tau``, ``tau`` times the ones
    row, and column p+3 ``sum tau E ln u``.  An overflow leaves a
    non-finite sum for the M-step to report.
    """
    p = rows.shape[0] - 2
    with np.errstate(over="ignore", invalid="ignore"):
        sums[:, : p + 2] += w @ rows.T
    sums[:, p + 2] += tau @ rows[p + 1]
    if log_u is not None:
        sums[:, p + 3] += np.einsum("kb,kb->k", tau, log_u)


def _m_step_from_sums(sums: np.ndarray, mean, model: TkModel, cfg: FitConfig, points, max_tau) -> TkModel:
    """The M-step from a model's ``_add_sums`` over all points, centered at their ``mean``.

    With ``S1``, ``S2``, ``mass`` the first sums of component j, its center
    moves to ``mean + S1/mass``, and ``S2 - |S1|^2/mass`` is its w-weighted
    sum of squared distances to that center, so ``alpha`` needs no second
    distance pass.  That subtraction cancels when a component sits far
    from ``mean`` relative to its spread; its absolute error is then about
    eps * sum w (|x-m|^2 + |c-m|^2), the sum of the distance kernel's own
    errors, and a negative result is clamped to 0.  A component whose mass
    vanished is re-seeded to a point in the stable order of lowest largest
    responsibility, ``max_tau()``, called only then.  ``sum tau (E ln u -
    u)`` for the ``nu`` update is ``sum tau E ln u - mass``.  Raises
    ``NumericalError`` when a sum, a center or ``alpha`` overflows.
    """
    p = model.p
    s1, s2, mass, tau_mass, tau_log_u = sums[:, :p], sums[:, p], sums[:, p + 1], sums[:, p + 2], sums[:, p + 3]
    healthy = mass > 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        offsets = s1 / mass[:, None]
        within = s2 - np.einsum("kp,kp->k", offsets, s1)
        centers = mean + offsets
        if not healthy.all():
            worst = np.argsort(max_tau(), kind="stable")
            centers[~healthy] = points[worst[: np.count_nonzero(~healthy)]]
            within[~healthy] = 0.0
        alpha = float(np.maximum(within, 0.0).sum() / (p * tau_mass.sum()))
    if not (np.isfinite(centers).all() and math.isfinite(alpha)):
        raise NumericalError("the M-step's weighted sums overflow float64; rescale the data")
    alpha = max(alpha, cfg.alpha_floor)
    if cfg.fixed_nu is not None:
        nu = model.nu
    else:
        nu = _util.nu_from_sums(tau_log_u - mass, tau_mass, cfg.nu_bounds, healthy)
    return TkModel(centers, alpha, nu)


def _whole(data: Dataset, model: TkModel):
    """The points, their distance block and its mean, as one block for the public one-call steps."""
    if data.p != model.p:
        raise DomainError(f"data has p={data.p} but centers have p={model.p}")
    rows, mean = _util.distance_block(data.samples)
    return data.samples, rows, mean


def _matrices(model: TkModel, n: int):
    return [np.empty((model.k, n)) for _ in range(3)]


def e_step(data: Dataset, model: TkModel) -> EStepResult:
    """Responsibilities, precision weights, and E(ln u) for every pair.

    tau is normalized in log space (the equal mixing weights cancel), so
    far points cannot underflow a whole row.  The (N, K) results are views
    of C-ordered (K, N) memory: the whole data as one block of a pass.
    """
    x, rows, mean = _whole(data, model)
    _, tau, u, lp = _e_block(x, rows, mean, model, *_matrices(model, data.n))
    log_u_expect = np.subtract(_util.log_u_offset(model.nu, model.p), lp, out=lp)
    return EStepResult(tau, u.T, log_u_expect.T)


def m_step(data: Dataset, e: EStepResult, model: TkModel, cfg: FitConfig) -> TkModel:
    """One coordinate sweep of the M-step updates.

    Centers move to their tau*u weighted means; a component whose weight
    mass vanished is re-seeded to the sample with the lowest maximum
    responsibility.  ``alpha`` is re-estimated against the new centers and
    floored; ``nu`` stays fixed when requested, otherwise it follows the
    closed-form approximation, clamped to ``nu_bounds`` (a non-negative
    eta would produce a non-positive nu and clamps to the upper bound).
    The sums are those of a pass with the whole data as one block.
    """
    k, p = model.k, model.p
    if e.tau.shape != (data.n, k):
        raise DomainError(f"E-step result shape {e.tau.shape} does not match (N, K)=({data.n}, {k})")
    x, rows, mean = _whole(data, model)
    tau = e.tau.T
    sums = np.zeros((k, p + 4))
    _add_sums(sums, tau, np.multiply(tau, e.u.T), rows, e.log_u_expect.T if cfg.fixed_nu is None else None)
    return _m_step_from_sums(sums, mean, model, cfg, x, lambda: e.tau.max(axis=1))


def log_l2_loss(data: Dataset, model: TkModel, tau: np.ndarray) -> float:
    """Responsibility-weighted sum of ln(1 + d^2/(nu*alpha)) over all pairs.

    This is the data-dependent part of the model's negative log
    likelihood; it grows logarithmically with squared distance, which is
    what blunts the influence of outliers.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (data.n, model.k):
        raise DomainError(f"tau shape {tau.shape} does not match (N, K)=({data.n}, {model.k})")
    rows = tau.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-6):
        raise DomainError("tau rows must sum to 1")
    _, lp, _ = _log_t_block(*_whole(data, model), model, *_matrices(model, data.n))
    return float((tau * lp.T).sum())


def _nll(lse: np.ndarray, model: TkModel) -> float:
    """The negative log likelihood from the row log-sum-exps of ``_log_t_block``'s ``logt``."""
    return float(-(lse - (math.log(model.k) - _util.log_t_const(model.p, model.alpha, model.nu))).sum())


def negative_log_likelihood(data: Dataset, model: TkModel) -> float:
    """Observed-data negative log likelihood under equal mixing weights.

    This is the fit's convergence monitor: plain EM theory makes it
    non-increasing across iterations while ``nu`` is held fixed, which the
    raw weighted log-distance sum of :func:`log_l2_loss` is not once the
    shared scale is re-estimated each step.
    """
    _, _, logt = _log_t_block(*_whole(data, model), model, *_matrices(model, data.n))
    return _nll(log_sum_exp(logt.T, axis=1), model)


def _initial_model(data: Dataset, k: int, cfg: FitConfig, nu0: float, block=None, scratch=None) -> TkModel:
    """The seeded centers, ``alpha`` from their nearest-center distances, and ``nu0``.

    The distances come block by block, into ``scratch`` (a flat buffer of
    at least K*B floats) when given, from ``block``, the data's distance
    block and mean, or from one built here.
    """
    x, n = data.samples, data.n
    centers, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)
    rows, mean = _util.distance_block(x) if block is None else block
    scratch = np.empty(k * min(n, _BLOCK)) if scratch is None else scratch
    total = 0.0
    for start, stop in _blocks(n):
        d2 = _util.pairwise_sq_dists(centers, x[start:stop], block=(rows[:, start:stop], mean),
                                     out=_view(scratch, k, stop - start))
        with np.errstate(over="ignore"):
            total += float(d2.min(axis=0).sum())
    alpha0 = total / n / data.p
    if not math.isfinite(alpha0):
        raise NumericalError("squared distances to the initial centers overflow float64; rescale the data")
    return TkModel(centers, max(alpha0, cfg.alpha_floor), nu0)


def _pass(x, rows, mean, model: TkModel, bufs, totals, sums=None, free_nu=False, labels=None) -> float:
    """Score ``model`` over the data block by block; returns its negative log likelihood.

    Every block reuses the three flat ``bufs`` (at least K*B floats each)
    as its (K, B) matrices, and ``totals`` (N,) receives the rows' sums of
    exponentials.  With ``sums``, the E-step's M-step sums are added to
    it, ``sum tau E ln u`` only when ``free_nu``; with ``labels``, the
    argmax responsibilities are written into it.
    """
    k = model.k
    loss = 0.0
    for start, stop in _blocks(x.shape[0]):
        rows_b = rows[:, start:stop]
        d2, lp, logt = (_view(buf, k, stop - start) for buf in bufs)
        lse, tau, u, lp = _e_block(x[start:stop], rows_b, mean, model, d2, lp, logt, totals[start:stop, None])
        loss += _nll(lse, model)
        if sums is not None:
            log_u = np.subtract(_util.log_u_offset(model.nu, model.p), lp, out=lp) if free_nu else None
            _add_sums(sums, tau.T, np.multiply(tau.T, u, out=u), rows_b, log_u)
        if labels is not None:
            labels[start:stop] = tau.argmax(axis=1)
    return loss


def _run_em(x, rows, mean, model: TkModel, cfg: FitConfig, budget: int, trace: list[float], bufs, totals):
    """Iterate M-steps and passes until the NLL meets ``tol`` or ``budget`` runs out, appending to ``trace``.

    A first pass scores ``model`` and gathers its M-step sums; each
    iteration then runs the M-step from the sums and one pass of the new
    model, which gives its NLL and the next sums, so I iterations take I+1
    passes.  Returns the last model; the last pass's buffers hold its E-step.
    """
    free_nu = cfg.fixed_nu is None
    sums = np.zeros((model.k, model.p + 4))
    _pass(x, rows, mean, model, bufs, totals, sums, free_nu)
    prev_loss = None
    for _ in range(budget):
        model = _m_step_from_sums(sums, mean, model, cfg, x, lambda: 1.0 / totals)
        sums.fill(0.0)
        loss = _pass(x, rows, mean, model, bufs, totals, sums, free_nu)
        trace.append(loss)
        if _util.converged(loss, prev_loss, cfg.tol):
            break
        prev_loss = loss
    return model


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
    Hard labels are the argmax responsibilities under the final model:
    from the last pass when one block covers the data, else from one more.
    Deterministic for a fixed seed.
    """
    cfg = cfg or FitConfig()
    k = _util.check_k(k, data.n)

    start = time.perf_counter()
    x, n = data.samples, data.n
    nu0 = cfg.nu_bounds[1] if cfg.fixed_nu is None else cfg.fixed_nu
    trace: list[float] = []
    rows, mean = block = _util.distance_block(x)
    bufs = [np.empty(k * min(n, _BLOCK)) for _ in range(3)]
    totals = np.empty(n)
    model = _initial_model(data, k, cfg, nu0, block, bufs[0])
    model = _run_em(x, rows, mean, model, replace(cfg, fixed_nu=nu0), cfg.max_iter, trace, bufs, totals)
    if cfg.fixed_nu is None and len(trace) < cfg.max_iter:
        model = TkModel(model.centers, model.alpha, _util.NU_START)
        model = _run_em(x, rows, mean, model, cfg, cfg.max_iter - len(trace), trace, bufs, totals)
    if n <= _BLOCK:
        labels = _view(bufs[2], k, n).T.argmax(axis=1)
    else:
        labels = np.empty(n, dtype=np.intp)
        _pass(x, rows, mean, model, bufs, totals, labels=labels)
    wall = time.perf_counter() - start
    return ClusteringResult(labels, model.centers.copy(), np.asarray(trace), len(trace), wall, model=model)


def _divide(d2: np.ndarray, scale: float) -> np.ndarray:
    """``d2 / scale``; raises ``NumericalError`` where a quotient overflows float64."""
    try:
        with np.errstate(over="raise"):
            return np.divide(d2, scale)
    except FloatingPointError:
        raise NumericalError("scaled squared distances overflow float64; rescale the data") from None


def fit_fast(data: Dataset, k: int, cfg: FitConfig | None = None) -> ClusteringResult:
    """Fast variant: hard assignment plus inverse-squared-distance weights.

    Each point joins its nearest center (ties go to the lowest index) with
    weight 1/(c + d^2), c = nu * fast_alpha; centers move to the weighted
    mean of their members, and neither alpha nor nu is re-estimated.  The
    sweeps are ``_util.hard_assignment_loop``'s, so empty clusters re-seed
    as in k-means.  Stops when the largest center shift falls below ``tol``,
    keeping the moved centers; the labels are the nearest final centers,
    from the sweeps' distance block.
    """
    cfg = cfg or FitConfig()
    k = _util.check_k(k, data.n)
    x = data.samples
    nu = cfg.fixed_nu if cfg.fixed_nu is not None else 1.0
    c = nu * cfg.fast_alpha

    start = time.perf_counter()
    centers, _ = _util.init_centers(x, k, np.random.default_rng(cfg.seed), cfg.init)
    dists = _util.dists_to(x)

    def update(assign, dist, moved, repeated, centers):
        weights = 1.0 / (c + dist)
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = assign == j
            wj = weights[members]
            new_centers[j] = wj @ x[members] / wj.sum()
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        return new_centers, shift < cfg.tol

    _, centers, trace = _util.hard_assignment_loop(x, centers, k, cfg.max_iter, dists, update,
                                                   loss=lambda d: np.log1p(_divide(d, c)).sum())
    labels = dists(centers).argmin(axis=1)
    wall = time.perf_counter() - start
    model = TkModel(centers, cfg.fast_alpha, nu)
    return ClusteringResult(labels, centers.copy(), np.asarray(trace), len(trace), wall, model=model)
