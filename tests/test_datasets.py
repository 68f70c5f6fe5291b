import math
import warnings

import numpy as np
import pytest

from tkmeans.datasets import (
    ContaminationSpec,
    Dataset,
    contaminate,
    generate_gaussian_blobs,
    load_benchmark_text,
    load_csv_labeled,
    standardize,
)
from tkmeans.errors import DomainError, FormatError


class TestDataset:
    def test_basic_invariants(self):
        d = Dataset([[1.0, 2.0], [3.0, 4.0]], labels=[0, 1], name="toy")
        assert d.n == 2 and d.p == 2 and d.n_classes == 2
        assert not d.samples.flags.writeable

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Dataset([[np.nan, 1.0]])

    def test_rejects_bad_labels(self):
        with pytest.raises(DomainError):
            Dataset([[1.0], [2.0]], labels=[0])
        with pytest.raises(DomainError):
            Dataset([[1.0], [2.0]], labels=[-1, 0])


class TestBenchmarkTextLoader:
    def test_plain_rows(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 2\n3 4\n")
        d = load_benchmark_text(f)
        assert d.n == 2 and d.p == 2
        assert np.array_equal(d.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_lines_skipped(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("benchmark points\nversion 2d\n5 6\n")
        d = load_benchmark_text(f)
        assert d.n == 1 and d.p == 2

    def test_blank_lines_and_tabs(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("\n1\t2\n\n  3   4 \n")
        assert load_benchmark_text(f).n == 2

    def test_ragged_rows_error_with_row_number(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 2\n3 4 5\n")
        with pytest.raises(FormatError, match="row 2"):
            load_benchmark_text(f)

    def test_label_file_dense_remap(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 1\n2 2\n3 3\n")
        lf = tmp_path / "pts.pa"
        lf.write_text("2\n2\n7\n")
        d = load_benchmark_text(f, label_path=lf)
        assert np.array_equal(d.labels, [0, 0, 1])

    def test_label_file_header_skipped_and_count_checked(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 1\n2 2\n")
        lf = tmp_path / "pts.pa"
        lf.write_text("partition file\n1\n")
        with pytest.raises(FormatError, match="1 labels for 2 samples"):
            load_benchmark_text(f, label_path=lf)

    def test_label_file_keeps_only_lines_of_one_number(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1 1\n2 2\n")
        lf = tmp_path / "pts.pa"
        lf.write_text("labels\n5 6\nx\n\n 9\t\n4\n")
        assert np.array_equal(load_benchmark_text(f, label_path=lf).labels, [0, 1])

    def test_reload_identical(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1.5 -2\n0 4\n")
        a, b = load_benchmark_text(f), load_benchmark_text(f)
        assert np.array_equal(a.samples, b.samples)


class TestCsvLoader:
    def test_label_last(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,2.0,A\n1.1,2.1,B\n")
        d = load_csv_labeled(f)
        assert d.n == 2 and d.p == 2
        assert np.array_equal(d.labels, [0, 1])

    def test_iris_facts(self, iris_path):
        d = load_csv_labeled(iris_path)
        assert d.n == 150 and d.p == 4 and d.n_classes == 3
        assert np.array_equal(np.bincount(d.labels), [50, 50, 50])

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,x,A\n")
        with pytest.raises(FormatError, match="row 1, column 2"):
            load_csv_labeled(f)

    def test_header_auto_detected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,species\n1.0,2.0,x\n3.0,4.0,y\n")
        d = load_csv_labeled(f)
        assert d.n == 2
        assert np.array_equal(d.labels, [0, 1])

    def test_label_column_index(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("A,1.0,2.0\nB,1.5,2.5\n")
        d = load_csv_labeled(f, label_column=0)
        assert d.p == 2 and np.array_equal(d.labels, [0, 1])

    @pytest.mark.parametrize("column", [1, "1", np.int64(1), np.uint8(1)], ids=["int", "text", "int64", "uint8"])
    def test_label_column_as_an_integer_or_its_text(self, tmp_path, column):
        f = tmp_path / "d.csv"
        f.write_text("1.0,A,2.0\n1.5,B,2.5\n1.5,A,2.5\n")
        d = load_csv_labeled(f, label_column=column)
        assert np.array_equal(d.samples, [[1.0, 2.0], [1.5, 2.5], [1.5, 2.5]])
        assert np.array_equal(d.labels, [0, 1, 0])

    @pytest.mark.parametrize("column", [1.7, 1.0, True, np.True_, np.float64(1.0), "1.7", "one", None],
                             ids=["1.7", "1.0", "True", "np.True_", "float64", "text-1.7", "one", "None"])
    def test_label_column_refuses_what_int_would_truncate(self, tmp_path, column):
        # int() reads 1.7 and True as column 1
        f = tmp_path / "d.csv"
        f.write_text("1.0,A,2.0\n1.5,B,2.5\n")
        with pytest.raises(DomainError, match="label_column must be an index or 'last'"):
            load_csv_labeled(f, label_column=column)


class TestStandardize:
    def test_two_point_column(self):
        d, mean, std = standardize(Dataset([[0.0], [2.0]]))
        assert mean[0] == 1.0 and std[0] == pytest.approx(np.sqrt(2.0))
        assert d.samples[:, 0] == pytest.approx([-0.70710678, 0.70710678])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(3, 5, (40, 3)))
        once = standardize(d)[0]
        twice = standardize(once)[0]
        assert np.abs(once.samples - twice.samples).max() < 1e-12

    def test_constant_column(self):
        d, mean, std = standardize(Dataset([[5.0], [5.0], [5.0]]))
        assert np.array_equal(d.samples, [[0.0], [0.0], [0.0]])
        assert std[0] == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            standardize(Dataset([[1.0]]))


class TestBlobs:
    def test_single_cluster(self):
        d = generate_gaussian_blobs(1, 3, 2, seed=0)
        assert d.n == 3 and set(d.labels.tolist()) == {0}

    def test_deterministic(self):
        a = generate_gaussian_blobs(4, 10, 3, seed=7)
        b = generate_gaussian_blobs(4, 10, 3, seed=7)
        assert np.array_equal(a.samples, b.samples) and np.array_equal(a.labels, b.labels)

    def test_s_set_scale(self):
        d = generate_gaussian_blobs(15, 300, 2, seed=1)
        assert d.n == 4500 and d.n_classes == 15

    def test_bad_std(self):
        with pytest.raises(DomainError):
            generate_gaussian_blobs(2, 5, 2, cluster_std=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"center_box": math.inf}, "center_box must be finite"),
            ({"center_box": math.nan}, "center_box must be finite"),
            ({"center_box": -1.0}, "center_box must be finite and >= 0"),
            ({"center_box": 1e308}, "2 \\* center_box finite"),  # numpy's uniform needs the box width finite
            ({"cluster_std": math.inf}, "cluster_std must be finite"),
            ({"cluster_std": math.nan}, "cluster_std must be finite"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"n_clusters": 2.5}, "n_clusters must be an integer"),
            ({"per_cluster": 5.0}, "per_cluster must be an integer"),
            ({"n_features": "2"}, "n_features must be an integer"),
            ({"cluster_std": 1e308}, "samples must be finite"),  # overflowed in numpy's multiply
        ],
    )
    def test_bad_inputs_are_domain_errors(self, kwargs, message):
        # they used to escape as OverflowError, ValueError, TypeError or a RuntimeWarning from numpy
        with warnings.catch_warnings(), pytest.raises(DomainError, match=message):
            warnings.simplefilter("error")
            generate_gaussian_blobs(**{"n_clusters": 2, "per_cluster": 5, **kwargs})

    def test_numpy_integer_counts_and_seed(self):
        a = generate_gaussian_blobs(np.int64(2), np.int32(5), np.int64(3), seed=np.int64(4))
        b = generate_gaussian_blobs(2, 5, 3, seed=4)
        assert np.array_equal(a.samples, b.samples)


class TestContaminate:
    def test_zero_fraction_identity(self):
        d = generate_gaussian_blobs(2, 10, 2, seed=0)
        assert contaminate(d, ContaminationSpec(0.0, 2.0, seed=1)) is d

    def test_counts_and_new_class(self):
        d = generate_gaussian_blobs(4, 25, 2, seed=0)
        out = contaminate(d, ContaminationSpec(0.1, 2.0, seed=3))
        assert out.n == 110
        assert out.n_classes == 5
        assert np.array_equal(out.labels[100:], np.full(10, 4))

    def test_prefix_preserved_verbatim(self):
        d = generate_gaussian_blobs(3, 20, 2, seed=5)
        out = contaminate(d, ContaminationSpec(0.25, 3.0, seed=9))
        assert np.array_equal(out.samples[: d.n], d.samples)
        assert np.array_equal(out.labels[: d.n], d.labels)

    def test_expanded_box_bounds(self):
        d = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), labels=[0, 1])
        out = contaminate(d, ContaminationSpec(0.9, 2.0, seed=0))
        pts = out.samples[2:]
        assert pts.min() >= -0.5 and pts.max() <= 1.5

    def test_deterministic(self):
        d = generate_gaussian_blobs(2, 30, 2, seed=0)
        spec = ContaminationSpec(0.2, 2.0, seed=42)
        assert np.array_equal(contaminate(d, spec).samples, contaminate(d, spec).samples)

    def test_unlabeled_rejected(self):
        d = Dataset(np.zeros((10, 2)) + np.arange(10)[:, None])
        with pytest.raises(DomainError):
            contaminate(d, ContaminationSpec(0.5, 2.0, seed=0))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ContaminationSpec(1.0)
        with pytest.raises(DomainError):
            ContaminationSpec(0.1, box_expansion=0.5)
        for value in (math.inf, math.nan):
            with pytest.raises(DomainError, match="box_expansion must be finite"):
                ContaminationSpec(0.1, box_expansion=value)
        with pytest.raises(DomainError, match="seed must be an integer"):
            ContaminationSpec(0.1, seed=1.5)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            ContaminationSpec(0.1, seed=-1)

    def test_an_overflowing_outlier_box_is_a_domain_error(self):
        # numpy's uniform raised a bare OverflowError on a box wider than float64 holds
        with pytest.raises(DomainError, match="outlier box overflows"):
            contaminate(generate_gaussian_blobs(2, 5, seed=0), ContaminationSpec(0.5, 1e308))
        with pytest.raises(DomainError, match="outlier box overflows"):
            contaminate(Dataset([[-1e308], [1e308]], [0, 1]), ContaminationSpec(0.5))
