import numpy as np
import pytest

from tkmeans.datasets import Dataset
from tkmeans.errors import DegenerateMetricError, DomainError
from tkmeans.metrics import adjusted_rand_index, clustering_mse, wb_ratio


def ari_pair_counting(a, b):
    """O(N^2) oracle: count co-membership over all pairs, then the exact formula."""
    n = len(a)
    total = n * (n - 1) // 2
    s_cells = sa = sb = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            sa += same_a
            sb += same_b
            s_cells += same_a and same_b
    num = 2 * (total * s_cells - sa * sb)
    den = total * (sa + sb) - 2 * sa * sb
    return 1.0 if den == 0 else num / den


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_crossed_partition_is_minus_half(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 201))
            a = rng.integers(0, rng.integers(1, 8), n)
            b = rng.integers(0, rng.integers(1, 8), n)
            assert adjusted_rand_index(a, b) == ari_pair_counting(a.tolist(), b.tolist())

    def test_symmetric_and_relabel_invariant(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 3, 60)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)
        remap = np.array([7, 2, 9, 4])
        assert adjusted_rand_index(remap[a], b) == adjusted_rand_index(a, b)

    def test_random_partition_mean_near_zero(self):
        rng = np.random.default_rng(2)
        fixed = rng.integers(0, 4, 100)
        vals = [adjusted_rand_index(fixed, rng.integers(0, 4, 100)) for _ in range(10_000)]
        assert abs(float(np.mean(vals))) < 0.02

    def test_trivial_partitions(self):
        assert adjusted_rand_index([0, 0, 0], [0, 0, 0]) == 1.0
        assert adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0

    def test_errors(self):
        with pytest.raises(DomainError):
            adjusted_rand_index([0, 1], [0, 1, 2])
        with pytest.raises(DomainError):
            adjusted_rand_index([0], [0])


class TestClusteringMse:
    def test_perfect_fit(self):
        d = Dataset([[0.0], [2.0]])
        assert clustering_mse(d, [[0.0], [2.0]], [0, 1]) == 0.0

    def test_single_center(self):
        d = Dataset([[0.0], [2.0]])
        assert clustering_mse(d, [[1.0]], [0, 0]) == pytest.approx(1.0)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (30, 2))
        c = rng.normal(0, 1, (3, 2))
        lab = rng.integers(0, 3, 30)
        base = clustering_mse(Dataset(x), c, lab)
        assert clustering_mse(Dataset(4.0 * x), 4.0 * c, lab) == pytest.approx(16.0 * base)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            clustering_mse(Dataset([[0.0], [1.0]]), [[0.5]], [0, 1])


class TestWbRatio:
    def test_perfect_two_cluster(self):
        d = Dataset([[0.0], [2.0]])
        assert wb_ratio(d, [[0.0], [2.0]], [0, 1]) == 0.0

    def test_hand_computed(self):
        d = Dataset([[0.0], [1.0], [9.0], [10.0]])
        # W = 4 * 0.25 = 1; global mean 5; B = 2*(4.5)^2 * 2 = 81
        assert wb_ratio(d, [[0.5], [9.5]], [0, 0, 1, 1]) == pytest.approx(1.0 / 81.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (40, 3))
        c = rng.normal(0, 1, (4, 3))
        lab = rng.integers(0, 4, 40)
        a = wb_ratio(Dataset(x), c, lab)
        b = wb_ratio(Dataset(x + 13.25), c + 13.25, lab)
        assert b == pytest.approx(a, abs=1e-12)

    def test_degenerate(self):
        d = Dataset([[0.0], [2.0]])
        with pytest.raises(DegenerateMetricError):
            wb_ratio(d, [[1.0], [1.0]], [0, 1])

    def test_mse_equals_w_over_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 2, (25, 2))
        lab = rng.integers(0, 3, 25)
        centers = np.stack([x[lab == j].mean(axis=0) for j in range(3)])
        d = Dataset(x)
        w = sum(((x[lab == j] - centers[j]) ** 2).sum() for j in range(3))
        assert clustering_mse(d, centers, lab) == pytest.approx(w / 25.0)


@pytest.mark.parametrize("metric", [clustering_mse, wb_ratio])
@pytest.mark.parametrize("labels", [[0.0, 1.0], [False, True]], ids=["float", "bool"])
def test_labels_that_are_not_integers_are_a_domain_error(metric, labels):
    # numpy would index with bools as a mask and refuse floats with a bare IndexError
    with pytest.raises(DomainError, match="^labels must be integers, got dtype "):
        metric(Dataset([[0.0], [2.0]]), [[0.0], [2.0]], labels)
