import tracemalloc
import warnings

import numpy as np
import pytest

from tkmeans import _util
from tkmeans.baselines import BaselineConfig, kmeans_fit, kmedians_fit, kmedoids_fit
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
            assert np.array_equal(_util.pairwise_l1_dists(centers, x), expected.T)

    @pytest.mark.parametrize("p", [8, 16])
    def test_wide_data_within_rounding_of_the_row_sum(self, p):
        x, centers = self._data(3000, 15, p)
        expected = np.abs(x[:, None, :] - centers[None, :, :]).sum(axis=2).T
        assert (np.abs(_util.pairwise_l1_dists(centers, x) - expected) <= 1e-15 * expected).all()

    def test_memory_stays_below_the_broadcast_temporary(self):
        n, k, p = 4000, 20, 32
        x, centers = self._data(n, k, p)
        tracemalloc.start()
        try:
            _util.pairwise_l1_dists(centers, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * p * 8 / 3


    def test_into_given_buffers(self):
        x, centers = self._data(50, 4, 3)
        out, work = np.full((4, 50), np.nan), np.full((4, 50), np.nan)
        got = _util.pairwise_l1_dists(centers, x, out=out, work=work)
        assert got is out and np.array_equal(got, _util.pairwise_l1_dists(centers, x))


def _numpy_extreme(a, largest):
    index = a.argmax(axis=0) if largest else a.argmin(axis=0)
    return index, a[index, np.arange(a.shape[1])]


class TestArgExtreme:
    @staticmethod
    def _same(got, expected):
        (index, value), (ref_index, ref_value) = got, expected
        assert index.dtype == ref_index.dtype and np.array_equal(index, ref_index)
        assert value.tobytes() == ref_value.tobytes()

    @pytest.mark.parametrize("largest", [False, True], ids=["argmin", "argmax"])
    @pytest.mark.parametrize("k, b", [(1, 1), (1, 300), (7, 1), (15, 1500), (50, 4096)])
    def test_bit_identical_to_numpy_on_random_data(self, k, b, largest):
        a = np.random.default_rng(k * b).normal(0, 3, (k, b))
        self._same(_util.arg_extreme(a, largest), _numpy_extreme(a, largest))

    @pytest.mark.parametrize("largest", [False, True], ids=["argmin", "argmax"])
    @pytest.mark.parametrize("k, b", [(1, 1), (2, 1), (3, 500), (40, 2000)])
    def test_ties_on_an_integer_grid_go_to_the_first_index(self, k, b, largest):
        a = np.random.default_rng(k + b).integers(0, 3, (k, b)).astype(float)
        self._same(_util.arg_extreme(a, largest), _numpy_extreme(a, largest))
        flat = np.zeros((k, b))
        assert (_util.arg_extreme(flat, largest)[0] == 0).all()

    def test_signed_zeros_tie_and_keep_the_first_rows_bits(self):
        a = np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [2.0, -0.0, 0.0, -1.0]])
        for largest in (False, True):
            self._same(_util.arg_extreme(a, largest), _numpy_extreme(a, largest))

    def test_writes_into_given_vectors(self):
        a = np.random.default_rng(1).normal(0, 1, (5, 40))
        index, value = np.full(100, -1, dtype=np.intp), np.full(100, np.nan)
        got = _util.arg_extreme(a, index=index[10:50], value=value[10:50])
        assert np.shares_memory(got[0], index) and np.shares_memory(got[1], value)
        self._same((index[10:50], value[10:50]), _numpy_extreme(a, False))
        assert (index[:10] == -1).all() and np.isnan(value[50:]).all()

    def test_peak_holds_a_few_b_vectors(self):
        # numpy's argmin over the rows of a C-ordered (50, 100000) matrix copies all 40 MB of it first
        k, b = 50, 100_000
        a = np.random.default_rng(2).random((k, b))
        for largest in (False, True):
            tracemalloc.start()
            try:
                _util.arg_extreme(a, largest)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 5 * b * 8


class TestNearest:
    @pytest.mark.parametrize("metric", ["sq", "l1"])
    def test_blocks_match_the_whole_matrix(self, monkeypatch, metric):
        # blocks of 7 cut the 200 points into 29 blocks, the last one short
        rng = np.random.default_rng(4)
        x = rng.integers(-3, 4, (200, 2)).astype(float)  # grid points: many exact ties
        centers = rng.integers(-3, 4, (6, 2)).astype(float)
        if metric == "sq":
            whole = _util.pairwise_sq_dists(centers, x, block=_util.distance_block(x))
        else:
            whole = _util.pairwise_l1_dists(centers, x)
        monkeypatch.setattr(_util, "BLOCK", 7)
        assign, dist = _util.nearest(_util.dists_to(x, 6, metric), centers, 200)
        assert np.array_equal(assign, whole.argmin(axis=0))
        assert dist.tobytes() == whole[assign, np.arange(200)].tobytes()

    def test_one_buffer_per_kernel(self, monkeypatch):
        monkeypatch.setattr(_util, "BLOCK", 16)
        x = np.random.default_rng(5).normal(0, 1, (40, 3))
        for metric in ("sq", "l1"):
            dists = _util.dists_to(x, 4, metric)
            first, last = dists(x[:4], 0, 16), dists(x[:4], 32, 40)
            assert first.shape == (4, 16) and last.shape == (4, 8)
            assert np.shares_memory(first, last)


class TestBlockedSweeps:
    @pytest.mark.parametrize("fit_fn, cfg", [
        (kmeans_fit, BaselineConfig(seed=2)), (kmeans_fit, BaselineConfig(seed=2, init="kmeanspp")),
        (kmedians_fit, BaselineConfig(seed=2)), (kmedoids_fit, BaselineConfig(seed=2)),
        (fit_fast, FitConfig(seed=2, fast_alpha=0.1)),
    ], ids=["kmeans", "kmeans++", "kmedians", "kmedoids", "fit_fast"])
    def test_blocks_of_seven_points_give_the_one_block_fit_bit_for_bit(self, monkeypatch, fit_fn, cfg):
        d = generate_gaussian_blobs(5, 40, 2, cluster_std=1.5, seed=6)
        whole = fit_fn(d, 5, cfg)
        monkeypatch.setattr(_util, "BLOCK", 7)
        blocked = fit_fn(d, 5, cfg)
        assert whole.iterations > 1 and blocked.iterations == whole.iterations
        assert np.array_equal(blocked.labels, whole.labels)
        assert blocked.centers.tobytes() == whole.centers.tobytes()
        assert blocked.loss_trace.tobytes() == whole.loss_trace.tobytes()


class TestClusterMeans:
    @pytest.mark.parametrize("n, k, p", [(1500, 15, 2), (150, 3, 4), (3000, 15, 16), (100_000, 50, 2)])
    def test_bit_identical_to_the_per_cluster_mean(self, n, k, p):
        rng = np.random.default_rng(n + p)
        x = 5.0 + rng.normal(0, 3, (n, p))
        assign = rng.integers(0, k, n)
        assign[:k] = np.arange(k)  # no empty cluster
        expected = np.stack([x[assign == j].mean(axis=0) for j in range(k)])
        assert np.array_equal(_util.cluster_means(x, assign, k), expected)



def _run_em_steps(losses, budget, tol, prev=None):
    """Drive ``_util.em_steps`` with ``losses`` as the steps' losses; returns the trace."""
    trace, steps = [], iter(losses)
    for _ in _util.em_steps(trace, budget, tol, prev):
        trace.append(next(steps))
    return trace


class TestEmSteps:
    def test_the_budget_runs_out(self):
        assert _run_em_steps([10.0, 5.0, 2.0, 1.0], 3, 1e-3) == [10.0, 5.0, 2.0]
        assert _run_em_steps([10.0], 0, 1e-3) == []

    def test_the_stop_comes_after_the_step_whose_loss_meets_tol(self):
        # 8.995 moved 0.005 from 9.0, below tol * 9.0 = 0.009; 9.0 moved 1.0 from 10.0
        assert _run_em_steps([10.0, 9.0, 8.995, 7.0], 4, 1e-3) == [10.0, 9.0, 8.995]
        # the bound is strict and relative to the earlier loss: 3.0 moved exactly 0.25 * 4.0 from 4.0
        assert _run_em_steps([4.0, 3.0, 2.0], 3, 0.25) == [4.0, 3.0, 2.0]
        assert _run_em_steps([-4.0, -3.5, -3.0], 3, 0.25) == [-4.0, -3.5]

    def test_without_prev_the_first_step_never_stops(self):
        assert _run_em_steps([3.0, 3.0], 5, 0.5) == [3.0, 3.0]

    def test_with_prev_the_first_step_can_stop(self):
        assert _run_em_steps([3.0, 3.0], 5, 0.5, prev=3.0) == [3.0]
        assert _run_em_steps([3.0, 1.0, 1.0], 5, 0.5, prev=10.0) == [3.0, 1.0, 1.0]


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
