import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from tkmeans.baselines import BaselineConfig, kmeans_fit, kmeanspp_seed
from tkmeans.datasets import Dataset, generate_gaussian_blobs, standardize
from tkmeans import _util, mixtures
from tkmeans.errors import DomainError, NumericalError
from tkmeans.metrics import adjusted_rand_index
from tkmeans.mixtures import MixtureModel, _add_moments, _maha_logdet, _row_moments, _scatter, gmm_fit, tmm_fit
from tkmeans.specialfn import _log_normalize, log_sum_exp


def _solve_maha_logdet(x, mean, cov):
    """Per-component reference: Cholesky plus a triangular-system solve."""
    chol = np.linalg.cholesky(cov)
    y = np.linalg.solve(chol, (x - mean).T)
    return (y * y).sum(axis=0), 2.0 * float(np.log(np.diag(chol)).sum())


def _per_component_log_resp(x, model):
    """Unnormalized log responsibilities under ``model``, one component at a time."""
    k, p = model.means.shape
    log_r = np.empty((x.shape[0], k))
    for j in range(k):
        maha, logdet = _solve_maha_logdet(x, model.means[j], model.covariances[j])
        if model.nu is None:
            log_r[:, j] = math.log(model.weights[j]) - 0.5 * (p * math.log(2.0 * math.pi) + logdet + maha)
        else:
            nu = model.nu
            const = math.lgamma((nu + p) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * p * math.log(nu * math.pi)
            log_r[:, j] = math.log(model.weights[j]) + const - 0.5 * logdet - 0.5 * (nu + p) * np.log1p(maha / nu)
    return log_r


def _random_spd(rng, k, p):
    a = rng.normal(0, 1, (k, p, p))
    return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(p)


def _whitened_sq(x, means, covs):
    """Squared Mahalanobis distances (N, K) from ``_maha_logdet``'s operator about the data mean."""
    k, p = means.shape
    mom = _row_moments(x, k)
    op, logdet = _maha_logdet(means, covs, mom.c)
    y = op @ mom.cols[: p + 1]
    return (y * y).reshape(p, k, x.shape[0]).sum(axis=0).T, logdet, mom.c


def _quad_form_sq(x, means, covs):
    """Squared Mahalanobis distances (N, K) from one GEMM of the quadratic-form operand with the packed moment block."""
    k = means.shape[0]
    mom = _row_moments(x, k)
    op, logdet = _maha_logdet(means, covs, mom.c, mom.quad)
    assert op.shape == (k, mom.cols.shape[0])
    return np.maximum(op @ mom.cols, 0.0).T, logdet, mom.c


def _whitened_norms(x, means, covs, c):
    """(N, K) ``|W_j (x - c)|^2 + |W_j (mu_j - c)|^2``, the scale of the distances' cancellation error."""
    return np.stack([_solve_maha_logdet(x, c, covs[j])[0] + _solve_maha_logdet(means[j : j + 1], c, covs[j])[0]
                     for j in range(means.shape[0])], axis=1)


def _check_maha_logdet(p, k, distances):
    rng = np.random.default_rng(10 * p + k)
    covs = _random_spd(rng, k, p)
    for offset in (0.0, 1e6):
        x = offset + rng.normal(0, 3, (200, p))
        means = offset + rng.normal(0, 3, (k, p))
        maha, logdet, c = distances(x, means, covs)
        assert maha.shape == (200, k) and logdet.shape == (k,)
        # relative to the whitened norms about the data mean, as for pairwise_sq_dists
        scale = _whitened_norms(x, means, covs, c)
        for j in range(k):
            ref, ref_logdet = _solve_maha_logdet(x, means[j], covs[j])
            assert (np.abs(maha[:, j] - ref) <= 1e-12 * scale[:, j]).all()
            assert abs(logdet[j] - ref_logdet) <= 1e-12 * max(1.0, abs(ref_logdet))


class TestMahaLogdet:
    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_matches_per_component_solve(self, p, k):
        _check_maha_logdet(p, k, _whitened_sq)

    @pytest.mark.parametrize("p, k", [(p, k) for p in (1, 2, 4, 16) for k in (1, 3, 15) if p < 2 * k])
    def test_packed_operand_matches_per_component_solve(self, p, k):
        _check_maha_logdet(p, k, _quad_form_sq)

    def test_names_the_singular_component(self):
        rng = np.random.default_rng(0)
        covs = _random_spd(rng, 4, 3)
        covs[2] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # rank 1
        with pytest.raises(NumericalError, match="component 2: covariance is singular"):
            _maha_logdet(rng.normal(0, 1, (4, 3)), covs, np.zeros(3))


def _centered_scatter(x, w, mass, nk, ridge):
    """Per-component reference: the weighted mean, then the weighted sum of centered outer products."""
    k, p = w.shape[1], x.shape[1]
    means = np.empty((k, p))
    covs = np.empty((k, p, p))
    for j in range(k):
        means[j] = (w[:, j] @ x) / mass[j]
        diff = x - means[j]
        covs[j] = ((w[:, j, None] * diff).T @ diff) / nk[j] + ridge * np.eye(p)
    return means, covs


def _moment_sums(x, w, size=None):
    """The moment block of ``x`` and ``_add_moments``'s sums of the (N, K) weights ``w`` over blocks of ``size`` points.

    Returns ``(mom, sums, outer, rerun)``, with ``rerun`` yielding the same blocks' weights as ``_scatter`` takes them.
    """
    (n, k), p = w.shape, x.shape[1]
    mom = _row_moments(x, k)
    sums = np.zeros((k, mom.cols.shape[0]))
    outer = None if mom.packed else np.zeros((k * p, p))
    blocks = [(s, min(s + (size or n), n)) for s in range(0, n, size or n)]
    wx = np.empty(k * p * n)
    for s, t in blocks:
        _add_moments(sums, outer, np.ascontiguousarray(w[s:t].T), mom.cols[:, s:t], wx)
    return mom, sums, outer, lambda: [(s, t, w[s:t].T) for s, t in blocks]


def _block_scatter(x, w, nk, ridge, size=None):
    mom, sums, outer, rerun = _moment_sums(x, w, size)
    return _scatter(mom, sums, outer, nk, ridge, rerun)


def _check_scatter(x, r, u, ridge=1e-3):
    w = r * u
    mass, nk = w.sum(axis=0), r.sum(axis=0)
    ref_means, ref_covs = _centered_scatter(x, w, mass, nk, ridge)
    c = x.mean(axis=0)
    # the contract: eps-level error relative to each component's weighted spread about c
    scale = (w * ((x - c) ** 2).sum(axis=1)[:, None]).sum(axis=0) / nk
    for size in (None, 7):  # one block, and blocks of 7 points
        means, covs = _block_scatter(x, w, nk, ridge, size)
        assert np.array_equal(covs, covs.transpose(0, 2, 1))
        assert (np.abs(covs - ref_covs) <= 1e-12 * scale[:, None, None]).all()
        assert (np.abs(means - ref_means) <= 1e-12 * (np.abs(c).max() + np.sqrt(scale))[:, None]).all()


class TestScatter:
    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_matches_per_component_centered_sum(self, p, k):
        rng = np.random.default_rng(100 * p + k)
        for offset in (0.0, 1e6):
            x = offset + rng.normal(0, 3, (300, p)) + rng.normal(0, 5, (1, p))
            r = rng.dirichlet(np.ones(k), 300)
            _check_scatter(x, r, np.ones((300, k)))  # Gaussian weights: mass == nk
            _check_scatter(x, r, rng.uniform(0.05, 3.0, (300, k)))  # t weights: mass != nk

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_second_moments_match_the_weighted_outer_products(self, p, k):
        # p < 2K reads the packed block, p >= 2K the weighted copy of the data
        rng = np.random.default_rng(200 * p + k)
        x = rng.normal(0, 3, (300, p)) + 1e6
        w = rng.dirichlet(np.ones(k), 300) * rng.uniform(0.05, 3.0, (300, k))
        xc = x - x.mean(axis=0)
        ref = np.einsum("nk,na,nb->kab", w, xc, xc)
        iu, ju = np.triu_indices(p)
        scale = (w * (xc**2).sum(axis=1)[:, None]).sum(axis=0)
        for size in (None, 7):
            mom, sums, outer, _ = _moment_sums(x, w, size)
            assert mom.packed == (p < 2 * k)
            second = sums[:, p + 1 :] if mom.packed else outer.reshape(k, p, p)[:, iu, ju]
            assert (np.abs(second - ref[:, iu, ju]) <= 1e-13 * scale[:, None]).all()
            assert np.abs(sums[:, :p] - w.T @ xc).max() <= 1e-13 * scale.max()
            assert np.abs(sums[:, p] - w.sum(axis=0)).max() <= 1e-13 * w.sum()

    def test_tight_far_clusters(self):
        rng = np.random.default_rng(3)
        centers = np.array([[-1e3, 0.0], [1e3, 5.0], [0.0, 1e3]])
        x = np.repeat(centers, 100, axis=0) + rng.normal(0, 1e-3, (300, 2))
        r = np.full((300, 3), 1e-9)
        r[np.arange(300), np.repeat(np.arange(3), 100)] = 1.0
        r /= r.sum(axis=1, keepdims=True)
        _check_scatter(x, r, np.ones((300, 3)), ridge=0.0)
        _check_scatter(x, r, rng.uniform(0.5, 2.0, (300, 3)), ridge=0.0)

    def test_tightest_far_clusters_without_ridge(self):
        # spread 1e-6 at distance 1e3: the moment subtraction alone would err by more than the scatter itself
        rng = np.random.default_rng(5)
        centers = np.array([[-1e3, 0.0], [1e3, 5.0], [0.0, 1e3]])
        labels = np.repeat(np.arange(3), 100)
        x = centers[labels] + rng.normal(0, 1e-6, (300, 2))
        r = np.zeros((300, 3))
        r[np.arange(300), labels] = 1.0
        for k in (2, 3):  # p < 2K packs the moments; p >= 2K forms them from the weighted data
            rk = r[:, :k]
            rows = labels < k
            for u in (np.ones((300, 3)), rng.uniform(0.5, 2.0, (300, 3))):
                w = rk[rows] * u[rows, :k]
                mass, nk = w.sum(axis=0), rk[rows].sum(axis=0)
                _, ref = _centered_scatter(x[rows], w, mass, nk, 0.0)
                variance = np.diagonal(ref, axis1=1, axis2=2).max(axis=1)
                for size in (None, 7):  # the centered recompute runs over the blocks again
                    _, covs = _block_scatter(x[rows], w, nk, 0.0, size)
                    # centering rounds each entry by about eps * 1e3, 1e-7 of the spread; cancellation would cost 1e2
                    assert (np.abs(covs - ref) <= 1e-6 * variance[:, None, None]).all()

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_moments_are_typed(self, k):
        with pytest.raises(NumericalError, match="rescale the data"):
            _row_moments(np.array([[0.0, 1e200], [0.0, -1e200]]), k)


class TestLogNormalize:
    def test_row_ll_is_log_sum_exp_and_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for n, k, spread in [(200, 1, 1.0), (200, 3, 10.0), (500, 15, 300.0), (100, 40, 1e4)]:
            log_r = rng.normal(0, spread, (n, k)) - 1e3 * rng.random((n, 1))
            log_r[rng.random((n, k)) < 0.1] = -np.inf
            log_r[:, 0] = rng.normal(0, spread, n)  # keep one finite entry per row
            before = log_r.copy()
            row_ll, r = _log_normalize(log_r)
            assert np.array_equal(log_r, before)
            assert np.array_equal(row_ll, log_sum_exp(log_r, axis=1))
            assert np.abs(r.sum(axis=1) - 1.0).max() <= 1e-15
            # the two-pass form loses about eps * |log_r - row_ll| relative in its exp; subnormals lose more
            assert np.allclose(r, np.exp(log_r - row_ll[:, None]), rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize(
        "bad_row", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, -np.inf]], ids=["nan", "posinf", "all-neginf"]
    )
    def test_domain_errors_match_log_sum_exp(self, bad_row):
        m = np.zeros((3, 2))
        m[1] = bad_row
        with pytest.raises(DomainError) as expected:
            log_sum_exp(m, axis=1)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            _log_normalize(m)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            _log_normalize(m, out=m)

    def test_out_receives_the_normalized_rows(self):
        rng = np.random.default_rng(9)
        log_r = rng.normal(0, 20, (300, 7))
        row_ll, r = _log_normalize(log_r)
        for a in (log_r.copy(), np.asfortranarray(log_r)):
            row_ll_out, r_out = _log_normalize(a, out=a)
            assert r_out is a
            assert np.array_equal(row_ll_out, row_ll)
            assert np.allclose(r_out, r, rtol=1e-15, atol=0.0)


class TestEStepCount:
    """One E-step per iteration; the final labels reuse the last one unless max_iter moved the parameters."""

    @pytest.mark.parametrize("fit", [gmm_fit, tmm_fit])
    @pytest.mark.parametrize("max_iter, stops_on_tol", [(300, True), (4, False)])
    def test_calls_per_fit(self, monkeypatch, fit, max_iter, stops_on_tol):
        calls = []

        def counting(*args):
            calls.append(1)
            return _maha_logdet(*args)

        monkeypatch.setattr(mixtures, "_maha_logdet", counting)
        d = generate_gaussian_blobs(3, 40, 2, center_box=20.0, cluster_std=1.0, seed=4)
        result, _ = fit(d, 3, BaselineConfig(seed=1, max_iter=max_iter))
        assert (result.iterations < max_iter) == stops_on_tol
        assert len(calls) == result.iterations + (0 if stops_on_tol else 1)


class TestBlockedPass:
    """The pass over blocks of ``_util.BLOCK`` points: its seams, its recompute, its memory and its E-step count."""

    def test_slab_sums_match_numpys_sum_over_the_first_axis(self):
        rng = np.random.default_rng(12)
        for p in range(1, 65):
            for k, b in ((3, 150), (15, 37)):
                y = rng.random((p * k, b)) * 10.0 ** rng.integers(-6, 6, (p * k, 1))
                out = np.empty((k, b))
                mixtures._sum_slabs(y, p, out)
                assert np.array_equal(out, y.reshape(p, k, b).sum(axis=0))

    @pytest.mark.parametrize("fit, kwargs", [(gmm_fit, {}), (tmm_fit, {}), (tmm_fit, {"fixed_nu": 5.0})],
                             ids=["gmm", "tmm", "tmm-fixed-nu"])
    @pytest.mark.parametrize("p", [3, 8], ids=["packed", "weighted-copy"])  # K=4: p < 2K and p >= 2K
    def test_block_seams_keep_the_one_block_fit(self, monkeypatch, fit, kwargs, p):
        # blocks of 7 cut the 120 points into 18 blocks, the last one short, and the labels take one more pass
        d = generate_gaussian_blobs(4, 30, p, cluster_std=1.2, seed=8)
        cfg = BaselineConfig(seed=4, init="kmeanspp", max_iter=80)
        whole, whole_model = fit(d, 4, cfg, **kwargs)
        calls = []

        def counting(*args):
            calls.append(1)
            return _maha_logdet(*args)

        monkeypatch.setattr(_util, "BLOCK", 7)
        monkeypatch.setattr(mixtures, "_maha_logdet", counting)
        blocked, model = fit(d, 4, cfg, **kwargs)
        # one E-step per pass; the labels pass reuses the last one
        assert blocked.iterations == whole.iterations == len(calls) - (whole.iterations == cfg.max_iter)
        assert np.array_equal(blocked.labels, whole.labels)
        scale = np.abs(d.samples).max()
        assert np.abs(blocked.centers - whole.centers).max() <= 1e-10 * scale
        assert np.abs(model.covariances - whole_model.covariances).max() <= 1e-10 * scale**2
        assert model.weights == pytest.approx(whole_model.weights, rel=1e-10)
        assert (model.nu is None) == (fit is gmm_fit) and model.nu == pytest.approx(whole_model.nu, rel=1e-10)

    def test_only_flagged_components_are_recomputed(self):
        # three tight clusters far from the mean and one wide cluster at it: only the tight ones cancel
        rng = np.random.default_rng(7)
        centers = np.array([[-1e3, 0.0], [1e3, 5.0], [0.0, 1e3], [0.0, 0.0]])
        labels = np.repeat(np.arange(4), 50)
        x = centers[labels] + rng.normal(0, 1e-6, (200, 2)) * np.where(labels == 3, 1e7, 1.0)[:, None]
        r = np.zeros((200, 4))
        r[np.arange(200), labels] = 1.0
        mom, sums, outer, rerun = _moment_sums(x, r, 7)
        seen = []

        def recording():
            for s, t, w in rerun():
                seen.append(t - s)
                yield s, t, w

        _, covs = _scatter(mom, sums, outer, r.sum(axis=0), 0.0, recording)
        _, plain = _scatter(mom, sums, outer, r.sum(axis=0), 0.0, lambda: iter(()))
        assert sum(seen) == 200  # one more pass over every block
        _, ref = _centered_scatter(x, r, r.sum(axis=0), r.sum(axis=0), 0.0)
        # the wide component keeps its moment form; the tight ones are recomputed centered
        assert np.array_equal(covs[3], plain[3])
        variance = np.diagonal(ref, axis1=1, axis2=2).max(axis=1)
        assert (np.abs(covs - ref) <= 1e-6 * variance[:, None, None]).all()
        assert (np.abs(plain[:3] - ref[:3]) > 1e-3 * variance[:3, None, None]).any()

    def test_gaussian_responsibilities_below_the_normal_range_are_zero(self):
        # two far components: at a point near one, the other's exp(log_r - max) would be a subnormal
        x = np.concatenate([np.linspace(-0.5, 0.5, 40), 38.0 + np.linspace(-0.5, 0.5, 40)])[:, None]
        means, covs = np.array([[0.0], [38.0]]), np.ones((2, 1, 1))
        mom = _row_moments(x, 2)
        e = mixtures._e_step(np.full(2, 0.5), means, covs, None, mom.c)
        bufs = [np.empty(2 * 80), np.empty(2 * 80)]
        row_ll, r, w = mixtures._e_block(mom.cols, e, bufs)
        log_r = _per_component_log_resp(x, MixtureModel(np.full(2, 0.5), means, covs)).T
        z = log_r - log_r.max(axis=0)
        band = (z < math.log(np.finfo(float).tiny)) & (np.exp(z) > 0.0)
        assert band.any() and (r[band] == 0.0).all() and w is r
        assert np.allclose(row_ll, log_sum_exp(log_r.T, axis=1), rtol=1e-14, atol=0.0)
        assert np.allclose(r[~band], np.exp(log_r - row_ll)[~band], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("nu", [None, 3.0], ids=["gmm", "tmm"])
    def test_packed_e_block_needs_no_whitening_buffer(self, nu):
        # p < 2K: one GEMM of the quadratic-form operand fills the (K, B) buffers; the first K points sit on the means
        rng = np.random.default_rng(13)
        k, p = 3, 4
        means = 1e6 + rng.normal(0, 3, (k, p))
        covs = _random_spd(rng, k, p)
        x = np.concatenate([means, 1e6 + rng.normal(0, 3, (100, p))])
        model = MixtureModel(np.array([0.2, 0.3, 0.5]), means, covs, nu)
        mom = _row_moments(x, k)
        e = mixtures._e_step(model.weights, means, covs, nu, mom.c, mom.quad)
        bufs = [None] + [np.empty(k * x.shape[0]) for _ in range(1 if nu is None else 2)]
        row_ll, r, w = mixtures._e_block(mom.cols, e, bufs)
        log_r = _per_component_log_resp(x, model)
        ref_ll = log_sum_exp(log_r, axis=1)
        # log r moves by at most (nu+p)/(2 nu) per unit of distance (1/2 for the Gaussian)
        tol = 1e-12 * _whitened_norms(x, means, covs, mom.c).max(axis=1) * (1.0 if nu is None else (nu + p) / nu)
        assert (np.abs(row_ll - ref_ll) <= tol).all()
        assert (np.abs(r - np.exp(log_r - ref_ll[:, None]).T) <= 2.0 * tol).all()
        assert (w is r) == (nu is None)
        if nu is not None:
            # the distances are clamped at 0, so no u = (nu+p)/(nu+maha) exceeds (nu+p)/nu beyond its rounding
            assert (w <= r * ((nu + p) / nu) * (1.0 + 8.0 * np.finfo(float).eps)).all()

    # 4.9 and 6.5 MB; the t fit peaked at 8.1 MB with three (K, B) buffers per pass
    @pytest.mark.parametrize("fit, bound", [(gmm_fit, 7e6), (tmm_fit, 7.5e6)], ids=["gmm", "tmm"])
    def test_a_packed_fit_holds_no_whitening_buffer(self, fit, bound):
        # 50,000 x 2, K=50 is packed (p < 2K); the (p*K, B) whitening buffer alone is 3.3 MB
        d = generate_gaussian_blobs(50, 1000, 2, seed=0)
        tracemalloc.start()
        try:
            fit(d, 50, BaselineConfig(seed=0, max_iter=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("fit, kwargs, count", [(gmm_fit, {}, 1), (tmm_fit, {}, 2), (tmm_fit, {"fixed_nu": 3.0}, 2)],
                             ids=["gmm", "tmm", "tmm-fixed-nu"])
    def test_a_pass_holds_its_k_by_b_buffers_and_allocates_no_more(self, monkeypatch, fit, kwargs, count):
        # the t fit's distances, log1p(maha/nu), E ln u, u and w share one buffer, log r and r the other
        k, n = 40, 4000  # one block, packed (p < 2K): no whitening buffer
        seen = []
        inner = mixtures._pass

        def recording(mom, e, bufs, *args, **kw):
            tracemalloc.start()
            try:
                ll = inner(mom, e, bufs, *args, **kw)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            seen.append((bufs[0], [buf.size for buf in bufs[1:]], peak))
            return ll

        monkeypatch.setattr(mixtures, "_pass", recording)
        fit(generate_gaussian_blobs(k, n // k, 2, seed=0), k, BaselineConfig(seed=0, max_iter=3), **kwargs)
        assert seen
        for whitening, sizes, peak in seen:
            assert whitening is None and sizes == [k * n] * count
            assert peak < k * n * 8 / 2  # one more (K, B) matrix would take K*B*8 bytes

    @pytest.mark.parametrize("fit", [gmm_fit, tmm_fit])
    def test_peak_memory_holds_no_n_by_k_matrix(self, fit):
        # 50,000 x 2, K=50: one (N, K) matrix is 20 MB, and the whole-data E- and M-steps peaked at 122-202 MB
        d = generate_gaussian_blobs(50, 1000, 2, seed=0)
        tracemalloc.start()
        try:
            fit(d, 50, BaselineConfig(seed=0, max_iter=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestLoopPaths:
    """The EM loop's collapse check, its constrained mode and the scoring of a fit stopped by ``max_iter``."""

    FAR_INIT = BaselineConfig(init=[[0.0, 0.0], [1e4, 1e4]])

    def test_a_massless_component_raises(self):
        with pytest.raises(NumericalError, match="component 1 collapsed"):
            gmm_fit(generate_gaussian_blobs(2, 30, 2, seed=0), 2, self.FAR_INIT)

    def test_the_constrained_mode_keeps_a_massless_mean(self):
        _, model = gmm_fit(generate_gaussian_blobs(2, 30, 2, seed=0), 2, self.FAR_INIT, constrained_alpha=1.0)
        assert model.means[1].tolist() == [1e4, 1e4]

    @pytest.mark.parametrize("fit, kwargs", [(gmm_fit, {}), (tmm_fit, {}), (tmm_fit, {"fixed_nu": 5.0})])
    @pytest.mark.parametrize("m", [1, 4])
    def test_a_capped_fit_returns_its_last_parameters(self, fit, kwargs, m):
        # tol so small that only an exactly repeated log likelihood would stop a fit early
        d = generate_gaussian_blobs(3, 30, 2, cluster_std=1.2, seed=3)
        capped, model = fit(d, 3, BaselineConfig(seed=3, max_iter=m, tol=1e-300), **kwargs)
        longer, _ = fit(d, 3, BaselineConfig(seed=3, max_iter=m + 1, tol=1e-300), **kwargs)
        assert capped.iterations == m and longer.iterations == m + 1
        log_r = _per_component_log_resp(d.samples, model)
        assert float(log_sum_exp(log_r, axis=1).sum()) == pytest.approx(longer.loss_trace[m], rel=1e-12)
        assert np.array_equal(capped.labels, log_r.argmax(axis=1))


    @pytest.mark.parametrize("fit, kwargs, nu", [(gmm_fit, {}, None), (tmm_fit, {}, 3.0),
                                                  (tmm_fit, {"fixed_nu": 5.0}, 5.0)])
    def test_the_trace_starts_at_the_initial_parameters(self, fit, kwargs, nu):
        # uniform weights, the given means and the data scatter plus the ridge for every covariance
        d = generate_gaussian_blobs(3, 30, 2, cluster_std=1.2, seed=3)
        means = d.samples[[0, 30, 60]]
        result, _ = fit(d, 3, BaselineConfig(init=means), ridge=1e-3, **kwargs)
        cov = np.cov(d.samples, rowvar=False, ddof=0) + 1e-3 * np.eye(2)
        initial = MixtureModel(np.full(3, 1 / 3), means, np.repeat(cov[None], 3, axis=0), nu=nu)
        log_r = _per_component_log_resp(d.samples, initial)
        assert result.loss_trace[0] == pytest.approx(float(log_sum_exp(log_r, axis=1).sum()), rel=1e-12)
        assert result.iterations > 1 and result.loss_trace[1] > result.loss_trace[0]


def test_default_ridge_underflow_is_named():
    d = generate_gaussian_blobs(3, 20, 2, seed=0)
    tiny = Dataset(d.samples * 1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mixture_fit in (gmm_fit, tmm_fit):
            with pytest.raises(NumericalError, match="default ridge underflows"):
                mixture_fit(tiny, 3)
            # constant data keep ridge 0 and report the singular covariance itself
            with pytest.raises(NumericalError, match="covariance is singular"):
                mixture_fit(Dataset(np.full((10, 2), 1e-170)), 1)


def test_small_scale_with_a_subnormal_default_ridge_still_fits():
    # at scale 1e-152 the variance (~1e-304) is normal and 1e-6 of it a subnormal that still adds to it
    d = generate_gaussian_blobs(3, 20, 2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mixture_fit in (gmm_fit, tmm_fit):
            reference, _ = mixture_fit(d, 3)
            result, _ = mixture_fit(Dataset(d.samples * 1e-152), 3)
            assert adjusted_rand_index(reference.labels, result.labels) == 1.0


def test_covariances_below_the_normal_range_fall_back_to_the_whitening_operator(monkeypatch):
    # at scale 1e-152 a component on repeated points collapses to ridge * I ~ 3e-311, where W^T W overflows
    rng = np.random.default_rng(0)
    points = rng.standard_normal((6, 2))
    x = np.vstack([points, points[[0, 0, 0, 1, 1, 1]]])
    shapes = set()

    def recording(*args):
        op, logdet = _maha_logdet(*args)
        shapes.add(op.shape)
        return op, logdet

    monkeypatch.setattr(mixtures, "_maha_logdet", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mixture_fit in (gmm_fit, tmm_fit):
            reference, _ = mixture_fit(Dataset(x), 4, BaselineConfig(seed=1))
            result, _ = mixture_fit(Dataset(x * 1e-152), 4, BaselineConfig(seed=1))
            assert adjusted_rand_index(reference.labels, result.labels) == 1.0
    assert shapes == {(4, 6), (8, 3)}  # the quadratic form (K, p+1+q) and the whitening operator (p*K, p+1)


class TestGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2, 1.5, (50, 3))
        d = Dataset(x)
        ridge = 1e-6
        result, model = gmm_fit(d, 1, BaselineConfig(seed=0, max_iter=5), ridge=ridge)
        assert model.means[0] == pytest.approx(x.mean(axis=0), abs=1e-12)
        scatter = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / 50.0
        assert model.covariances[0] == pytest.approx(scatter + ridge * np.eye(3), abs=1e-12)
        assert model.weights[0] == 1.0

    def test_two_blobs_hard_responsibilities(self):
        d = generate_gaussian_blobs(2, 40, 2, center_box=20.0, cluster_std=0.4, seed=8)
        result, model = gmm_fit(d, 2, BaselineConfig(seed=1))
        assert adjusted_rand_index(d.labels, result.labels) == 1.0

    def test_log_likelihood_non_decreasing(self):
        for seed in range(6):
            d = generate_gaussian_blobs(3, 30, 2, cluster_std=1.0, seed=seed)
            result, _ = gmm_fit(d, 3, BaselineConfig(seed=seed))
            assert (np.diff(result.loss_trace) >= -1e-8).all()

    def test_simplex_and_spd_invariants(self):
        d = generate_gaussian_blobs(3, 40, 2, seed=4)
        result, model = gmm_fit(d, 3, BaselineConfig(seed=2))
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (model.weights >= 0).all()
        for cov in model.covariances:
            assert np.abs(cov - cov.T).max() < 1e-12
            assert np.linalg.eigvalsh(cov).min() > 0

    def test_singular_covariance_reported(self):
        # N < p with a zero ridge cannot produce a full-rank covariance
        d = Dataset(np.random.default_rng(0).normal(0, 1, (2, 5)))
        with pytest.raises(NumericalError, match="component"):
            gmm_fit(d, 1, BaselineConfig(seed=0), ridge=0.0)

    def test_deterministic(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=2)
        a, ma = gmm_fit(d, 3, BaselineConfig(seed=6))
        b, mb = gmm_fit(d, 3, BaselineConfig(seed=6))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(ma.means, mb.means)
        assert np.array_equal(ma.covariances, mb.covariances)

    def test_constrained_mode_reproduces_kmeans(self):
        d = generate_gaussian_blobs(3, 40, 2, cluster_std=0.8, seed=2)
        init = kmeanspp_seed(d, 3, seed=9)
        rk = kmeans_fit(d, 3, BaselineConfig(init=init))
        rg, _ = gmm_fit(d, 3, BaselineConfig(init=init, max_iter=500), constrained_alpha=1e-10)
        assert np.array_equal(rg.labels, rk.labels)


class TestTmm:
    def test_huge_nu_matches_gmm_first_iteration(self):
        d = standardize(generate_gaussian_blobs(3, 50, 2, center_box=6.0, cluster_std=0.9, seed=4))[0]
        rg, mg = gmm_fit(d, 3, BaselineConfig(seed=5, max_iter=1))
        rt, mt = tmm_fit(d, 3, BaselineConfig(seed=5, max_iter=1), fixed_nu=1e6)
        assert np.abs(mg.means - mt.means).max() < 1e-4
        assert np.abs(mg.weights - mt.weights).max() < 1e-4
        assert np.abs(mg.covariances - mt.covariances).max() < 1e-4

    def test_robust_mean_under_gross_outlier(self):
        rng = np.random.default_rng(1)
        clean = rng.normal(0, 1, (20, 2))
        x = np.vstack([clean, [[40.0, 40.0]]])
        d = Dataset(x)
        clean_mean = clean.mean(axis=0)
        _, gm = gmm_fit(d, 1, BaselineConfig(seed=0))
        _, tm = tmm_fit(d, 1, BaselineConfig(seed=0), fixed_nu=1.0)
        gmm_err = np.linalg.norm(gm.means[0] - clean_mean)
        tmm_err = np.linalg.norm(tm.means[0] - clean_mean)
        assert tmm_err < gmm_err

    def test_responsibility_rows_sum_to_one(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=3)
        result, model = tmm_fit(d, 3, BaselineConfig(seed=3))
        # recompute responsibilities under the final model
        log_r = _per_component_log_resp(d.samples, model)
        r = np.exp(log_r - log_sum_exp(log_r, axis=1)[:, None])
        assert np.abs(r.sum(axis=1) - 1.0).max() < 1e-9

    def test_fixed_nu_log_likelihood_non_decreasing(self):
        for seed in range(6):
            d = generate_gaussian_blobs(3, 30, 2, cluster_std=1.2, seed=seed)
            result, _ = tmm_fit(d, 3, BaselineConfig(seed=seed), fixed_nu=5.0)
            assert (np.diff(result.loss_trace) >= -1e-8).all()

    def test_free_nu_stays_in_bounds(self):
        d = generate_gaussian_blobs(2, 50, 2, seed=9)
        _, model = tmm_fit(d, 2, BaselineConfig(seed=1))
        assert 1.0 <= model.nu <= 200.0

    def test_deterministic(self):
        d = generate_gaussian_blobs(3, 25, 2, seed=7)
        a, ma = tmm_fit(d, 3, BaselineConfig(seed=4))
        b, mb = tmm_fit(d, 3, BaselineConfig(seed=4))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(ma.means, mb.means)
        assert ma.nu == mb.nu
