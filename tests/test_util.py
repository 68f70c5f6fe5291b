import tracemalloc
import warnings

import numpy as np
import pytest

from tkmeans import _util
from tkmeans.baselines import BaselineConfig, kmeans_fit, kmedoids_fit
from tkmeans.core import FitConfig, fit, fit_fast
from tkmeans.datasets import Dataset, generate_gaussian_blobs, load_csv_labeled, standardize
from tkmeans.errors import NumericalError
from tkmeans.metrics import clustering_mse
from tkmeans.mixtures import gmm_fit, tmm_fit


def _broadcast_sq_dists(x, centers):
    diff = x[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def _block_sq_dists(x, centers):
    """The (K, N) squared distances of ``centers`` to ``x`` over a distance block built for this call."""
    return _util.pairwise_sq_dists(centers, x, block=_util.distance_block(x))


class TestPairwiseSqDists:
    def test_non_negative_at_coincident_points(self):
        rng = np.random.default_rng(0)
        for offset in (0.0, 1e3, 1e6):
            x = offset + rng.normal(0, 1, (200, 5))
            d2 = _block_sq_dists(x, x[:7])
            assert (d2 >= 0.0).all()
            assert d2.shape == (7, 200)

    def test_matches_broadcast_form_relative_to_shifted_norms(self):
        rng = np.random.default_rng(1)
        for n, k, p in [(50, 1, 1), (300, 4, 2), (200, 15, 16), (100, 20, 32)]:
            for offset in (0.0, 1e6):
                x = offset + rng.normal(0, 3, (n, p))
                centers = offset + rng.normal(0, 3, (k, p))
                m = x.mean(axis=0)
                scale = ((x - m) ** 2).sum(axis=1)[:, None] + ((centers - m) ** 2).sum(axis=1)[None, :]
                err = np.abs(_block_sq_dists(x, centers).T - _broadcast_sq_dists(x, centers))
                assert (err <= 1e-12 * scale).all()

    def test_memory_stays_below_the_broadcast_temporary(self):
        # the block is built inside the measurement
        n, k, p = 4000, 20, 32
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (n, p))
        centers = rng.normal(0, 1, (k, p))
        tracemalloc.start()
        try:
            _block_sq_dists(x, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * p * 8 / 4

    def test_peak_on_a_prebuilt_block_is_the_result_and_the_operand(self):
        # no (N, K) finiteness mask, no shifted copy of the data and no norm vector: one (K, N) result
        # and the (K, p+2) operand, plus the small-object overhead of the call
        n, k, p = 20_000, 50, 2
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (n, p))
        centers = rng.normal(0, 1, (k, p))
        block = _util.distance_block(x)
        tracemalloc.start()
        try:
            _util.pairwise_sq_dists(centers, x, block=block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (k * n + k * (p + 2)) * 8 + 4 * 1024

    def test_overflow_raises_typed_error_through_every_caller(self):
        d = generate_gaussian_blobs(3, 20, 2, seed=0)
        huge = Dataset(d.samples * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                _block_sq_dists(huge.samples, huge.samples[:3])
            with pytest.raises(NumericalError):
                fit(huge, 3, FitConfig(seed=0))
            # with N = K alpha falls to its floor, and d2 / (nu * alpha) overflows in the E-step
            tiny = Dataset(np.random.default_rng(0).standard_normal((3, 1)) * 1e150)
            with pytest.raises(NumericalError, match="rescale the data"):
                fit(tiny, 3)
            with pytest.raises(NumericalError):
                fit_fast(huge, 3, FitConfig(seed=0))
            # finite squared distances, but dist / (nu * fast_alpha) overflows in fit_fast's loss
            with pytest.raises(NumericalError, match="rescale the data"):
                fit_fast(Dataset(np.random.default_rng(0).standard_normal((10, 3)) * 1e150), 2)
            with pytest.raises(NumericalError):
                kmeans_fit(huge, 3, BaselineConfig(seed=0))
            # k-means++ seeding squares the raw differences
            with pytest.raises(NumericalError, match="rescale the data"):
                kmeans_fit(huge, 3, BaselineConfig(seed=0, init="kmeanspp"))
            with pytest.raises(NumericalError, match="rescale the data"):
                fit_fast(huge, 3, FitConfig(seed=0, init="kmeanspp"))
            for mixture_fit in (gmm_fit, tmm_fit):
                # the default ridge overflows first; a given ridge leaves the initial scatter
                with pytest.raises(NumericalError, match="rescale the data"):
                    mixture_fit(huge, 3)
                with pytest.raises(NumericalError, match="rescale the data"):
                    mixture_fit(huge, 3, BaselineConfig(seed=0), ridge=1.0)
                # the default config seeds with k-means++
                with pytest.raises(NumericalError, match="rescale the data"):
                    mixture_fit(huge, 3, ridge=1.0)


class TestPairwiseL1Dists:
    @staticmethod
    def _data(n, k, p, seed=7):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 3, (n, p))
        return x, x[rng.choice(n, k, replace=False)] + rng.normal(0, 0.1, (k, p))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_bit_identical_to_the_broadcast_sum_below_eight_coordinates(self, p):
        for n, k in [(300, 4), (1500, 15), (20, 20)]:
            x, centers = self._data(n, k, p)
            expected = np.abs(x[:, None, :] - centers[None, :, :]).sum(axis=2)
            assert np.array_equal(_util.pairwise_l1_dists(x, centers), expected)

    @pytest.mark.parametrize("p", [8, 16])
    def test_wide_data_within_rounding_of_the_row_sum(self, p):
        x, centers = self._data(3000, 15, p)
        expected = np.abs(x[:, None, :] - centers[None, :, :]).sum(axis=2)
        assert (np.abs(_util.pairwise_l1_dists(x, centers) - expected) <= 1e-15 * expected).all()

    def test_memory_stays_below_the_broadcast_temporary(self):
        n, k, p = 4000, 20, 32
        x, centers = self._data(n, k, p)
        tracemalloc.start()
        try:
            _util.pairwise_l1_dists(x, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * p * 8 / 3


class TestClusterMeans:
    @pytest.mark.parametrize("n, k, p", [(1500, 15, 2), (150, 3, 4), (3000, 15, 16), (100_000, 50, 2)])
    def test_bit_identical_to_the_per_cluster_mean(self, n, k, p):
        rng = np.random.default_rng(n + p)
        x = 5.0 + rng.normal(0, 3, (n, p))
        assign = rng.integers(0, k, n)
        assign[:k] = np.arange(k)  # no empty cluster
        expected = np.stack([x[assign == j].mean(axis=0) for j in range(k)])
        assert np.array_equal(_util.cluster_means(x, assign, k), expected)



class TestTModelPieces:
    def test_nu_from_sums_averages_the_healthy_components(self):
        rng = np.random.default_rng(9)
        mass = 0.5 + rng.random(5)
        diff = -mass * (1.05 + 0.9 * rng.random(5))  # E ln u - u <= -1, and nu in (1, 200) needs a mean above -2
        every = _util.nu_from_sums(diff, mass)
        assert every == -1.0 / (1.0 + float((diff / mass).mean()))
        assert _util.nu_from_sums(diff, mass, np.ones(5, dtype=bool)) == every
        healthy = np.array([True, False, True, True, False])
        terms = diff[healthy] / mass[healthy]
        assert _util.nu_from_sums(diff, mass, healthy) == -1.0 / (1.0 + float(terms.mean()))
        # nu clamps to NU_BOUNDS; a non-negative eta clamps to the upper bound
        assert _util.nu_from_sums(-3.0 * mass, mass) == _util.NU_BOUNDS[0] == 1.0
        assert _util.nu_from_sums(np.ones(2), np.ones(2)) == _util.NU_BOUNDS[1] == 200.0

    @pytest.mark.parametrize("p", [1, 2, 16])
    def test_log_t_const_keeps_its_left_to_right_bits(self, p):
        from math import log, pi

        from tkmeans.specialfn import log_gamma

        for nu in (1.0, 3.0, 7.25, 200.0):
            for alpha in (1.0, 0.3, 4e-7):
                expected = log_gamma((nu + p) / 2.0) - log_gamma(nu / 2.0) - 0.5 * p * log(nu * pi)
                expected -= 0.5 * p * log(alpha)
                assert _util.log_t_const(p, alpha, nu) == expected

def _iris(iris_path):
    return standardize(load_csv_labeled(iris_path))[0]


class TestRandomInit:
    def test_distinct_points_keep_the_plain_draw(self, iris_path):
        iris = _iris(iris_path)
        for seed in range(50):
            idx = _util.random_indices(iris.samples, 3, np.random.default_rng(seed))
            plain = np.random.default_rng(seed).choice(iris.n, 3, replace=False)
            assert np.array_equal(idx, plain)
            centers, cidx = _util.init_centers(iris.samples, 3, np.random.default_rng(seed), "random")
            assert np.array_equal(cidx, plain) and np.array_equal(centers, iris.samples[plain])

    def test_iris_duplicate_rows_are_not_both_picked(self, iris_path):
        # rows 101 and 142 of Iris coincide; seed 399's plain draw picks both
        iris = _iris(iris_path)
        plain = np.random.default_rng(399).choice(iris.n, 3, replace=False)
        assert {101, 142} <= set(plain.tolist())
        r = fit(iris, 3, FitConfig(seed=399, init="random"))
        assert (np.bincount(r.labels, minlength=3) > 0).all()
        assert clustering_mse(iris, r.centers, r.labels) == pytest.approx(0.9411, abs=1e-3)

    def test_coincident_picks_are_redrawn(self):
        x = np.repeat(np.arange(5.0), 4)[:, None]  # 5 distinct points, 4 copies each
        for seed in range(30):
            centers, idx = _util.init_centers(x, 5, np.random.default_rng(seed), "random")
            assert len(set(idx.tolist())) == 5
            assert sorted(centers[:, 0].tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]
            assert np.array_equal(centers, x[idx])

    def test_fewer_distinct_points_than_k_keeps_distinct_indices(self):
        x = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 3, axis=0)
        for seed in range(10):
            centers, idx = _util.init_centers(x, 4, np.random.default_rng(seed), "random")
            assert len(set(idx.tolist())) == 4
            assert {tuple(c) for c in centers.tolist()} == {(0.0, 0.0), (1.0, 1.0)}

    def test_kmedoids_medoids_are_distinct_rows_under_duplicates(self):
        x = np.repeat(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [9.0, 0.0]]), 6, axis=0)
        d = Dataset(x)
        for seed in range(10):
            r = kmedoids_fit(d, 5, BaselineConfig(seed=seed))
            assert len({tuple(c) for c in r.centers.tolist()}) == 5
