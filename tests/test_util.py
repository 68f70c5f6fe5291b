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

    def test_overflow_raises_typed_error_through_every_caller(self):
        d = generate_gaussian_blobs(3, 20, 2, seed=0)
        huge = Dataset(d.samples * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                _util.pairwise_sq_dists(huge.samples, huge.samples[:3])
            with pytest.raises(NumericalError):
                fit(huge, 3, FitConfig(seed=0))
            with pytest.raises(NumericalError):
                fit_fast(huge, 3, FitConfig(seed=0))
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
