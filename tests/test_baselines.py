import itertools
import tracemalloc

import numpy as np
import pytest

from tkmeans.baselines import BaselineConfig, _medoid_of, kmeans_fit, kmeanspp_seed, kmedians_fit, kmedoids_fit
from tkmeans.datasets import Dataset, generate_gaussian_blobs
from tkmeans.errors import DomainError


def line(*values):
    return Dataset(np.asarray(values, dtype=float)[:, None])


class TestKmeans:
    def test_hand_run_example(self):
        d = line(0, 1, 9, 10)
        r = kmeans_fit(d, 2, BaselineConfig(init=np.array([[0.0], [9.0]])))
        assert np.array_equal(r.labels, [0, 0, 1, 1])
        assert r.centers[:, 0] == pytest.approx([0.5, 9.5])
        assert r.iterations == 2

    def test_k_equals_n(self):
        d = line(0, 1, 2, 5)
        r = kmeans_fit(d, 4, BaselineConfig(seed=3))
        assert r.loss_trace[-1] == 0.0
        assert len(set(r.labels.tolist())) == 4

    def test_deterministic(self):
        d = generate_gaussian_blobs(3, 30, 2, seed=1)
        a = kmeans_fit(d, 3, BaselineConfig(seed=5))
        b = kmeans_fit(d, 3, BaselineConfig(seed=5))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_trace_strictly_non_increasing(self):
        for seed in range(10):
            x = np.random.default_rng(seed).normal(0, 1, (80, 3))
            r = kmeans_fit(Dataset(x), 4, BaselineConfig(seed=seed))
            assert (np.diff(r.loss_trace) <= 0.0).all()

    def test_k_validation(self):
        d = line(0, 1)
        with pytest.raises(DomainError):
            kmeans_fit(d, 3)
        with pytest.raises(DomainError):
            kmeans_fit(d, 0)


class TestBaselineConfig:
    def test_a_negative_or_non_integer_seed_or_max_iter_is_rejected(self):
        # a negative seed used to reach numpy's default_rng, and max_iter=2.5 a bare TypeError in range
        for kwargs, match in (({"seed": -1}, "seed must be >= 0"), ({"seed": 1.5}, "seed must be an integer"),
                              ({"max_iter": 2.5}, "max_iter must be an integer"),
                              ({"max_iter": "3"}, "max_iter must be an integer")):
            with pytest.raises(DomainError, match=match):
                BaselineConfig(**kwargs)
        cfg = BaselineConfig(max_iter=np.int64(3), seed=np.uint32(7))
        assert kmeans_fit(line(0, 1, 9, 10), 2, cfg).iterations <= 3


class TestKmeansppSeed:
    def test_k_one_uniform(self):
        d = line(0, 1, 9, 10)
        seen = {float(kmeanspp_seed(d, 1, seed=s)[0, 0]) for s in range(200)}
        assert seen == {0.0, 1.0, 9.0, 10.0}

    def test_d2_weighting_frequency(self):
        # P(next = 10 | first = 0) = 100/(1+81+100) over 100k seeded draws
        d = line(0, 1, 9, 10)
        hits = total = 0
        for s in range(100_000):
            centers = kmeanspp_seed(d, 2, seed=s)
            if centers[0, 0] == 0.0:
                total += 1
                hits += centers[1, 0] == 10.0
        assert hits / total == pytest.approx(100.0 / 182.0, abs=0.01)

    def test_identical_points_fallback(self):
        d = Dataset(np.ones((6, 2)))
        centers = kmeanspp_seed(d, 2, seed=0)
        assert centers.shape == (2, 2)
        assert np.array_equal(centers, np.ones((2, 2)))

    def test_deterministic(self):
        d = generate_gaussian_blobs(4, 20, 2, seed=0)
        assert np.array_equal(kmeanspp_seed(d, 4, seed=9), kmeanspp_seed(d, 4, seed=9))


class TestMedoidOf:
    @staticmethod
    def _full_matrix_medoid(x, members):
        pts = x[members]
        return int(members[int(np.argmin(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).sum(axis=1)))])

    def test_blocks_of_rows_give_the_full_matrix_medoid(self, monkeypatch):
        from tkmeans import baselines

        rng = np.random.default_rng(5)
        cases = [(rng.normal(0, 2, (400, p)), np.flatnonzero(rng.random(400) < 0.6)) for p in (1, 2, 4)]
        # a tie between the two middle points goes to the lower index
        cases.append((np.array([[0.0], [1.0], [2.0], [3.0]]), np.arange(4)))
        for block in (1, 7, 100, 1000, baselines._MEDOID_BLOCK):
            monkeypatch.setattr(baselines, "_MEDOID_BLOCK", block)
            for x, members in cases:
                assert _medoid_of(x, members) == self._full_matrix_medoid(x, members)
        assert _medoid_of(*cases[-1]) == 1

    def test_memory_is_bounded_by_the_row_blocks(self):
        from tkmeans import baselines

        # one 3000-point cluster: two full 3000 x 3000 buffers would take 144 MB
        n = 3000
        x = np.random.default_rng(6).normal(0, 1, (n, 2))
        tracemalloc.start()
        try:
            _medoid_of(x, np.arange(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * baselines._MEDOID_BLOCK * 8 + 4 * n * 8 + 64 * 1024


class TestKmedoids:
    def test_tie_goes_to_lowest_index(self):
        r = kmedoids_fit(line(0, 1), 1, BaselineConfig(init=np.array([[0.5]])))
        assert r.centers[0, 0] == 0.0

    def test_exhaustive_sums(self):
        r = kmedoids_fit(line(0, 1, 5), 1, BaselineConfig(init=np.array([[0.0]])))
        # candidate sums of L1 distances: 6, 5, 9
        assert r.centers[0, 0] == 1.0

    def test_k_equals_n_zero_cost(self):
        r = kmedoids_fit(line(0, 2, 7), 3, BaselineConfig(seed=1))
        assert r.loss_trace[-1] == 0.0

    def test_medoids_are_dataset_members(self):
        d = generate_gaussian_blobs(3, 25, 2, seed=2)
        r = kmedoids_fit(d, 3, BaselineConfig(seed=4))
        for c in r.centers:
            assert (np.abs(d.samples - c).sum(axis=1) == 0.0).any()

    def test_deterministic(self):
        d = generate_gaussian_blobs(3, 25, 2, seed=2)
        a = kmedoids_fit(d, 3, BaselineConfig(seed=7))
        b = kmedoids_fit(d, 3, BaselineConfig(seed=7))
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.centers, b.centers)

    def test_explicit_init_snaps_to_distinct_members(self):
        d = line(0, 1, 9, 10)
        r = kmedoids_fit(d, 2, BaselineConfig(init=np.array([[0.4], [0.6]])))
        assert np.array_equal(r.labels, [0, 0, 1, 1]) or np.array_equal(r.labels, [1, 1, 0, 0])

    def test_medoid_matches_broadcast_sums(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 4, 8):
            x = rng.normal(0, 1, (60, p))
            members = np.flatnonzero(rng.random(60) < 0.5)
            pts = x[members]
            sums = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).sum(axis=1)
            assert _medoid_of(x, members) == members[int(np.argmin(sums))]

    def test_medoid_memory_stays_below_the_broadcast_temporary(self):
        n, p = 2000, 8
        x = np.random.default_rng(4).normal(0, 1, (n, p))
        tracemalloc.start()
        try:
            _medoid_of(x, np.arange(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * p * 8 / 3


class TestKmedians:
    def test_median_ignores_outlier(self):
        r = kmedians_fit(line(0, 1, 100), 1, BaselineConfig(init=np.array([[0.0]])))
        assert r.centers[0, 0] == 1.0

    def test_even_cardinality_midpoint(self):
        r = kmedians_fit(line(0, 1), 1, BaselineConfig(init=np.array([[0.0]])))
        assert r.centers[0, 0] == 0.5

    def test_coordinatewise_median(self):
        d = Dataset(np.array([[0.0, 9.0], [1.0, 0.0], [2.0, 1.0]]))
        r = kmedians_fit(d, 1, BaselineConfig(init=np.array([[0.0, 0.0]])))
        assert np.array_equal(r.centers, [[1.0, 1.0]])

    def test_l1_cost_non_increasing(self):
        for seed in range(8):
            x = np.random.default_rng(seed).normal(0, 2, (60, 2))
            r = kmedians_fit(Dataset(x), 3, BaselineConfig(seed=seed))
            assert (np.diff(r.loss_trace) <= 1e-12).all()



class TestStopRules:
    @pytest.mark.parametrize("fit", [kmeans_fit, kmedians_fit])
    def test_a_repeated_assignment_stops_the_fit(self, fit):
        # the seeds are their clusters' means and medians: the centers repeat after one sweep,
        # but the repeat of the assignment is seen only in a second sweep
        d = line(-1, 0, 1, 9, 10, 11)
        r = fit(d, 2, BaselineConfig(init=np.array([[0.0], [10.0]])))
        assert r.iterations == 2 and r.loss_trace.tolist() == [4.0, 4.0]
        assert r.centers[:, 0].tolist() == [0.0, 10.0]

    def test_kmedoids_stops_on_repeated_medoid_indices(self):
        # seeds rows 1 and 2; the first sweep moves medoid 0 to the coincident row 0,
        # so the medoid coordinates repeat but their indices do not
        r = kmedoids_fit(Dataset([[0.0], [0.0], [10.0], [10.0], [11.0]]), 2, BaselineConfig(seed=1))
        assert r.iterations == 2 and r.loss_trace.tolist() == [1.0, 1.0]
        assert r.labels.tolist() == [0, 0, 1, 1, 1]

    @pytest.mark.parametrize("fit", [kmeans_fit, kmedians_fit, kmedoids_fit])
    def test_a_repeated_re_seed_stops_the_fit(self, fit):
        # two distinct points for three clusters: every sweep re-seeds the empty cluster 1 at row 0, and the
        # second sweep repeats the first, re-seed included; 300 sweeps end at the same labels and centers
        r = fit(Dataset([[0.0], [0.0], [1.0]]), 3)
        assert r.iterations == 2
        assert r.labels.tolist() == [2, 1, 0] and r.centers[:, 0].tolist() == [1.0, 0.0, 0.0]

def _exhaustive_best_partition(x, k):
    """Minimal k-means cost partition by enumerating all assignments."""
    n = x.shape[0]
    best, best_cost = None, np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        if len(set(assign.tolist())) != k:
            continue
        cost = 0.0
        for j in range(k):
            pts = x[assign == j]
            cost += ((pts - pts.mean(axis=0)) ** 2).sum()
        if cost < best_cost:
            best, best_cost = assign, cost
    return best, best_cost


class TestExactRecoveryOnCoincidentPoints:
    def test_all_methods_recover_distinct_locations(self):
        from tkmeans.core import FitConfig, fit_fast
        from tkmeans.metrics import adjusted_rand_index

        locations = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 4.0]])
        counts = [4, 3, 3]
        x = np.repeat(locations, counts, axis=0)
        truth = np.repeat([0, 1, 2], counts)
        d = Dataset(x)

        best, best_cost = _exhaustive_best_partition(x, 3)
        assert best_cost == 0.0
        assert adjusted_rand_index(best, truth) == 1.0

        for seed in range(6):
            cfg = BaselineConfig(seed=seed)
            for fitter in (kmeans_fit, kmedoids_fit, kmedians_fit):
                r = fitter(d, 3, cfg)
                assert adjusted_rand_index(r.labels, truth) == 1.0, fitter.__name__
            rf = fit_fast(d, 3, FitConfig(seed=seed))
            assert adjusted_rand_index(rf.labels, truth) == 1.0
