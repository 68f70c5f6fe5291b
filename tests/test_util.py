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


class TestPairwiseSqDists:
    def test_non_negative_at_coincident_points(self):
        rng = np.random.default_rng(0)
        for offset in (0.0, 1e3, 1e6):
            x = offset + rng.normal(0, 1, (200, 5))
            d2 = _util.pairwise_sq_dists(x, x[:7])
            assert (d2 >= 0.0).all()
            assert d2.shape == (200, 7)

    def test_matches_broadcast_form_relative_to_shifted_norms(self):
        rng = np.random.default_rng(1)
        for n, k, p in [(50, 1, 1), (300, 4, 2), (200, 15, 16), (100, 20, 32)]:
            for offset in (0.0, 1e6):
                x = offset + rng.normal(0, 3, (n, p))
                centers = offset + rng.normal(0, 3, (k, p))
                m = centers.mean(axis=0)
                scale = ((x - m) ** 2).sum(axis=1)[:, None] + ((centers - m) ** 2).sum(axis=1)[None, :]
                err = np.abs(_util.pairwise_sq_dists(x, centers) - _broadcast_sq_dists(x, centers))
                assert (err <= 1e-12 * scale).all()

    def test_x_centers_call_keeps_the_centers_shift(self):
        # the reference: shift by the centers' mean, in the kernel's order of operations
        def centers_shifted(x, centers):
            shift = centers.mean(axis=0)
            xs, cs = x - shift, centers - shift
            d2 = xs @ (-2.0 * cs.T)
            d2 += np.einsum("np,np->n", xs, xs)[:, None]
            d2 += np.einsum("kp,kp->k", cs, cs)
            return np.maximum(d2, 0.0)

        rng = np.random.default_rng(5)
        for n, k, p in [(50, 1, 1), (300, 4, 2), (200, 15, 16), (40, 40, 3)]:
            for offset in (0.0, 1e6):
                x = offset + rng.normal(0, 3, (n, p))
                centers = offset + rng.normal(0, 3, (k, p))
                assert np.array_equal(_util.pairwise_sq_dists(x, centers), centers_shifted(x, centers))

    def test_memory_stays_below_the_broadcast_temporary(self):
        n, k, p = 4000, 20, 32
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (n, p))
        centers = rng.normal(0, 1, (k, p))
        tracemalloc.start()
        try:
            _util.pairwise_sq_dists(x, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * p * 8 / 4

    def test_peak_is_the_result_the_shifted_data_and_one_norm_vector(self):
        # no (N, K) finiteness mask and no second norm vector: at 100k x 2, K=50 they are 5 and 0.8 MB
        n, k, p = 20_000, 50, 2
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (n, p))
        centers = rng.normal(0, 1, (k, p))
        tracemalloc.start()
        try:
            _util.pairwise_sq_dists(x, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * (p + k + 1) * 8 + 96 * 1024

    def test_overflow_raises_typed_error_through_every_caller(self):
        d = generate_gaussian_blobs(3, 20, 2, seed=0)
        huge = Dataset(d.samples * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                _util.pairwise_sq_dists(huge.samples, huge.samples[:3])
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
