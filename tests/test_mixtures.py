import math

import numpy as np
import pytest

from tkmeans.baselines import BaselineConfig, kmeans_fit, kmeanspp_seed
from tkmeans.datasets import Dataset, generate_gaussian_blobs, standardize
from tkmeans.errors import NumericalError
from tkmeans.metrics import adjusted_rand_index
from tkmeans.mixtures import _maha_logdet, gmm_fit, tmm_fit
from tkmeans.specialfn import log_sum_exp


def _solve_maha_logdet(x, mean, cov):
    """Per-component reference: Cholesky plus a triangular-system solve."""
    chol = np.linalg.cholesky(cov)
    y = np.linalg.solve(chol, (x - mean).T)
    return (y * y).sum(axis=0), 2.0 * float(np.log(np.diag(chol)).sum())


def _random_spd(rng, k, p):
    a = rng.normal(0, 1, (k, p, p))
    return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(p)


class TestMahaLogdet:
    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_matches_per_component_solve(self, p, k):
        rng = np.random.default_rng(10 * p + k)
        covs = _random_spd(rng, k, p)
        for offset in (0.0, 1e6):
            x = offset + rng.normal(0, 3, (200, p))
            means = offset + rng.normal(0, 3, (k, p))
            maha, logdet = _maha_logdet(x, means, covs)
            assert maha.shape == (200, k) and logdet.shape == (k,)
            s = means.mean(axis=0)
            for j in range(k):
                ref, ref_logdet = _solve_maha_logdet(x, means[j], covs[j])
                # relative to the whitened norms of the shifted operands, as for pairwise_sq_dists
                scale = _solve_maha_logdet(x, s, covs[j])[0] + _solve_maha_logdet(means[j : j + 1], s, covs[j])[0]
                assert (np.abs(maha[:, j] - ref) <= 1e-12 * scale).all()
                assert abs(logdet[j] - ref_logdet) <= 1e-12 * max(1.0, abs(ref_logdet))

    def test_names_the_singular_component(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (20, 3))
        covs = _random_spd(rng, 4, 3)
        covs[2] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # rank 1
        with pytest.raises(NumericalError, match="component 2: covariance is singular"):
            _maha_logdet(x, rng.normal(0, 1, (4, 3)), covs)


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
        x = d.samples
        nu, p, k = model.nu, d.p, 3
        log_r = np.empty((d.n, k))
        for j in range(k):
            maha, logdet = _solve_maha_logdet(x, model.means[j], model.covariances[j])
            log_r[:, j] = (
                math.log(model.weights[j])
                - 0.5 * logdet
                - 0.5 * (nu + p) * np.log1p(maha / nu)
            )
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
