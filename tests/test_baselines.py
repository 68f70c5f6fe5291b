import itertools
import tracemalloc

import numpy as np
import pytest

from tkmeans.baselines import BaselineConfig, _medoid_of, kmeans_fit, kmeanspp_seed, kmedians_fit, kmedoids_fit
from tkmeans.core import FitConfig, fit_fast
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

    @pytest.mark.parametrize("seed, match", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer")])
    def test_a_negative_or_non_integer_seed_is_rejected(self, seed, match):
        # these used to reach numpy's default_rng and raise its ValueError or TypeError
        d = line(0, 1, 9, 10)
        with pytest.raises(DomainError, match=match):
            kmeanspp_seed(d, 2, seed=seed)
        assert np.array_equal(kmeanspp_seed(d, 2, seed=np.uint32(7)), kmeanspp_seed(d, 2, seed=7))


class TestMedoidOf:
    @staticmethod
    def _full_matrix_medoid(x, members):
        pts = x[members]
        return int(members[int(np.argmin(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).sum(axis=1)))])

    def test_sorted_gaps_give_the_full_matrix_medoid(self):
        rng = np.random.default_rng(5)
        cases = [(rng.normal(0, 2, (400, p)), np.flatnonzero(rng.random(400) < 0.6)) for p in (1, 2, 4)]
        # far from the origin: the gaps between sorted neighbours stay exact where raw sums would not
        cases += [(1e6 + rng.normal(0, 1, (300, p)), np.arange(0, 300, 2)) for p in (2, 3)]
        # a tie between the two middle points goes to the lower index
        cases.append((np.array([[0.0], [1.0], [2.0], [3.0]]), np.arange(4)))
        for x, members in cases:
            assert _medoid_of(x, members) == self._full_matrix_medoid(x, members)
        assert _medoid_of(*cases[-1]) == 1

    def test_coincident_members_tie_exactly_and_the_first_listed_wins(self):
        rng = np.random.default_rng(8)
        for p in (1, 2, 5):
            pts = rng.normal(0, 1, (9, p))
            best = self._full_matrix_medoid(pts, np.arange(9))
            # two more copies of the medoid keep it the medoid, and all three copies total the same
            x = np.vstack([pts, pts[[best, best]]])
            members = np.array([10, 9, *range(9)])
            assert _medoid_of(x, members) == 10 == self._full_matrix_medoid(x, members)
            assert _medoid_of(x, np.arange(11)) == best
        # every member the same point: all totals are 0
        assert _medoid_of(np.ones((6, 3)), np.array([4, 2, 5])) == 4

    def test_a_two_member_cluster_ties_exactly(self):
        for x in (np.array([[0.1, 7.3], [0.7, -2.9]]), 1e6 + np.array([[0.1], [0.3]])):
            assert _medoid_of(x, np.arange(2)) == 0
            assert _medoid_of(x, np.array([1, 0])) == 1

    def test_memory_is_linear_in_the_cluster_size(self):
        # one 3000-point cluster: an n x n buffer alone would take 72 MB
        n, p = 3000, 2
        x = np.random.default_rng(6).normal(0, 1, (n, p))
        tracemalloc.start()
        try:
            _medoid_of(x, np.arange(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * p * 8 + 64 * 1024

    def test_one_20000_point_cluster_peaks_below_4_mb(self):
        # an n x n matrix of float64 would take 3.2 GB; the sorted form holds a few (p, n) arrays
        n = 20_000
        x = np.random.default_rng(7).normal(0, 1, (n, 2))
        members = np.arange(n)
        tracemalloc.start()
        try:
            best = _medoid_of(x, members)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # no member of a sample, the coordinate-wise median's nearest included, totals less
        near = int(np.argmin(np.abs(x - np.median(x, axis=0)).sum(axis=1)))
        sample = np.append(np.random.default_rng(8).choice(n, 300, replace=False), near)
        totals = [np.abs(x - x[i]).sum() for i in (best, *sample)]
        assert totals[0] <= min(totals[1:])


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


@pytest.mark.parametrize("fit_fn, cfg", [
    (kmeans_fit, BaselineConfig(seed=0, max_iter=3)), (fit_fast, FitConfig(seed=0, max_iter=3)),
    (kmedians_fit, BaselineConfig(seed=0, max_iter=3)), (kmedoids_fit, BaselineConfig(seed=0, max_iter=3)),
], ids=["kmeans", "fit_fast", "kmedians", "kmedoids"])
def test_peak_memory_of_a_hard_fit_holds_no_n_by_k_matrix(fit_fn, cfg):
    # 50,000 x 2, K=50: one (N, K) matrix is 20 MB.  Whole-data sweeps peaked at 42.8 MB (k-means,
    # fit_fast) and 62.1 / 61.3 MB (k-medians / k-medoids); the blocked sweeps at 5.0-6.2 MB.
    d = generate_gaussian_blobs(50, 1000, 2, seed=0)
    tracemalloc.start()
    try:
        fit_fn(d, 50, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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
