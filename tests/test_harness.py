import json
from dataclasses import fields

import numpy as np
import pytest

from tkmeans.datasets import generate_gaussian_blobs
from tkmeans.errors import NumericalError, UsageError
from tkmeans.harness import (
    ALGORITHMS,
    RunSpec,
    load_config,
    parse_generator_spec,
    run_bench,
    run_once,
    run_robustness,
)

TWO_BLOBS = "blobs:k=2,n=30,p=2,std=0.3,box=15,seed=5"


class TestRunSpec:
    def test_nine_algorithms(self):
        assert len(ALGORITHMS) == 9

    def test_unknown_algorithm_is_usage_error(self):
        with pytest.raises(UsageError):
            RunSpec(algorithm="dbscan", data=TWO_BLOBS, k=2)

    def test_repeats_validated(self):
        with pytest.raises(UsageError):
            RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2, repeats=0)


class TestGeneratorSpec:
    def test_parse(self):
        d = parse_generator_spec("blobs:k=4,n=10,p=3,std=0.5,seed=2")
        assert d.n == 40 and d.p == 3 and d.n_classes == 4

    def test_bad_key(self):
        with pytest.raises(UsageError):
            parse_generator_spec("blobs:q=1")

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            parse_generator_spec("rings:k=2")


class TestRunOnce:
    def test_fast_tkmeanspp_on_separated_blobs(self):
        spec = RunSpec(algorithm="fast-tkmeans++", data=TWO_BLOBS, k=2)
        result, report = run_once(spec, seed=0)
        assert report.ari == 1.0
        assert report.mse > 0 and report.wb >= 0

    def test_same_seed_identical(self):
        spec = RunSpec(algorithm="tkmeans", data=TWO_BLOBS, k=2)
        r1, m1 = run_once(spec, seed=3)
        r2, m2 = run_once(spec, seed=3)
        assert m1.ari == m2.ari and m1.mse == m2.mse and m1.wb == m2.wb
        assert np.array_equal(r1.labels, r2.labels)

    def test_gmm_numerical_error_surfaces(self):
        spec = RunSpec(algorithm="gmm", data="blobs:k=1,n=2,p=5,std=1,seed=0", k=1, ridge=0.0)
        with pytest.raises(NumericalError):
            run_once(spec, seed=0)

    def test_every_algorithm_runs(self):
        for algo in ALGORITHMS:
            spec = RunSpec(algorithm=algo, data=TWO_BLOBS, k=2)
            result, report = run_once(spec, seed=1)
            assert result.iterations >= 1
            assert report.mse >= 0


class TestRunBench:
    def test_single_repeat_zero_std(self):
        report = run_bench([RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2, repeats=1)])
        row = report.rows[0]
        assert row.ari_std == 0.0 and row.mse_std == 0.0 and row.time_std == 0.0

    def test_two_rows_shape(self):
        specs = [
            RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2, repeats=3),
            RunSpec(algorithm="fast-tkmeans", data=TWO_BLOBS, k=2, repeats=3),
        ]
        report = run_bench(specs)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.ari_mean is not None
            assert row.iters_mean is not None and row.time_mean is not None
            assert len(row.runs) == 3

    def test_metric_numbers_reproducible(self):
        specs = [RunSpec(algorithm="tkmeans", data=TWO_BLOBS, k=2, repeats=4, base_seed=10)]
        a = run_bench(specs).rows[0]
        b = run_bench(specs).rows[0]
        assert a.ari_mean == b.ari_mean and a.ari_std == b.ari_std
        assert a.mse_mean == b.mse_mean and a.iters_mean == b.iters_mean

    def test_failed_cell_isolated(self):
        specs = [
            RunSpec(algorithm="gmm", data="blobs:k=1,n=2,p=5,std=1,seed=0", k=1, ridge=0.0),
            RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2),
        ]
        report = run_bench(specs)
        assert report.failed
        assert report.rows[0].error is not None
        assert report.rows[1].error is None and report.rows[1].ari_mean == 1.0

    def test_renders_all_formats(self):
        report = run_bench([RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2, repeats=2)])
        csv_text = report.to_csv()
        assert "ari_mean" in csv_text and "(n-1)" in csv_text
        md = report.to_markdown()
        assert md.startswith("|") and "**" in md
        payload = json.loads(report.to_json())
        assert payload["rows"][0]["runs"][0]["loss_trace"]
        with pytest.raises(UsageError):
            report.render("xml")


class TestUnlabeledData:
    def test_ari_absent_but_other_metrics_present(self, tmp_path):
        f = tmp_path / "pts.txt"
        rng = np.random.default_rng(0)
        f.write_text("\n".join(f"{a} {b}" for a, b in rng.normal(0, 1, (30, 2))))
        report = run_bench([RunSpec(algorithm="kmeans", data=str(f), k=3, repeats=2)])
        row = report.rows[0]
        assert row.ari_mean is None and row.mse_mean is not None
        assert "-" in report.to_markdown()
        assert json.loads(report.to_json())["rows"][0]["ari"]["mean"] is None


class TestRunRobustness:
    def test_zero_fraction_matches_clean_bench(self):
        base = generate_gaussian_blobs(3, 25, 2, center_box=12.0, cluster_std=0.4, seed=2)
        rob = run_robustness(base, [0.0], ["kmeans"], repeats=3, base_seed=0)
        bench = run_bench([RunSpec(algorithm="kmeans", data=base, k=3, repeats=3, base_seed=0)])
        assert rob.rows[0].ari_mean == bench.rows[0].ari_mean

    def test_row_per_algorithm_fraction_pair(self):
        base = generate_gaussian_blobs(3, 20, 2, seed=3)
        report = run_robustness(base, [0.0, 0.1], ["kmeans", "fast-tkmeans"], repeats=2)
        assert len(report.rows) == 4
        assert {(r.algorithm, r.fraction) for r in report.rows} == {
            ("kmeans", 0.0), ("kmeans", 0.1), ("fast-tkmeans", 0.0), ("fast-tkmeans", 0.1),
        }

    def test_ari_scored_on_original_points_only(self):
        base = generate_gaussian_blobs(2, 30, 2, center_box=15.0, cluster_std=0.3, seed=5)
        report = run_robustness(base, [0.2], ["fast-tkmeans++"], repeats=5, base_seed=1)
        assert report.rows[0].ari_mean == 1.0

    def test_failed_cell_isolated(self):
        # two points in five dimensions: gmm's covariance is singular, kmeans is fine
        report = run_robustness(
            "blobs:k=1,n=2,p=5,std=1,seed=0", [0.0], ["gmm", "kmeans"], repeats=1, k=2, ridge=0.0
        )
        gmm, km = report.rows
        assert report.failed
        assert gmm.name == "gmm/blobs:k=1,n=2,p=5,std=1,seed=0" and gmm.fraction == 0.0
        assert gmm.dataset == km.dataset and gmm.error.startswith("NumericalError")
        assert km.name == "kmeans/blobs:k=1,n=2,p=5,std=1,seed=0" and km.fraction == 0.0
        assert km.error is None and km.mse_mean is not None and len(km.runs) == 1

    def test_unlabeled_rejected(self):
        from tkmeans.datasets import Dataset

        d = Dataset(np.random.default_rng(0).normal(0, 1, (20, 2)))
        with pytest.raises(UsageError):
            run_robustness(d, [0.1], ["kmeans"], repeats=1)

    def test_degradation_ordering_through_harness(self):
        base = generate_gaussian_blobs(4, 75, 2, center_box=8.0, cluster_std=0.5, seed=11)
        report = run_robustness(base, [0.0, 0.1], ["kmeans", "tkmeans"], repeats=20, base_seed=0)
        ari = {(r.algorithm, r.fraction): r.ari_mean for r in report.rows}
        deg_tk = ari[("tkmeans", 0.0)] - ari[("tkmeans", 0.1)]
        deg_km = ari[("kmeans", 0.0)] - ari[("kmeans", 0.1)]
        assert deg_tk <= deg_km


class TestTableOrderingThroughHarness:
    def test_fast_tkmeanspp_beats_kmeans_on_s1_like(self):
        data = "blobs:k=15,n=100,p=2,std=0.45,box=10,seed=43"
        report = run_bench(
            [
                RunSpec(algorithm="fast-tkmeans++", data=data, k=15, repeats=20, base_seed=0),
                RunSpec(algorithm="kmeans", data=data, k=15, repeats=20, base_seed=0),
            ]
        )
        fast, km = report.rows
        assert fast.ari_mean >= km.ari_mean
        assert fast.ari_std <= km.ari_std


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "[s1-kmeans]\n"
            f"algo = kmeans\ndata = {TWO_BLOBS}\nk = 2\nrepeats = 2\nbase_seed = 7\n"
            "\n[s1-fast]\n"
            f"algo = fast-tkmeans++\ndata = {TWO_BLOBS}\nk = 2\nrepeats = 2\nnu = 1.0\n"
        )
        specs = load_config(cfg)
        assert [s.name for s in specs] == ["s1-kmeans", "s1-fast"]
        assert specs[0].base_seed == 7
        assert specs[1].nu == 1.0
        report = run_bench(specs)
        assert not report.failed

    def test_missing_required_keys(self, tmp_path):
        from tkmeans.errors import FormatError

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[row]\nalgo = kmeans\n")
        with pytest.raises(FormatError):
            load_config(cfg)

    def test_unknown_key(self, tmp_path):
        from tkmeans.errors import FormatError

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[row]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\nbogus = 1\n")
        with pytest.raises(FormatError):
            load_config(cfg)

    def test_every_field_set(self, tmp_path):
        expected = RunSpec(
            algorithm="tmm", data="pts.txt", k=4, repeats=3, base_seed=9, name="all",
            label_path="parts.txt", label_column="0", standardize=True, max_iter=17, tol=1e-3,
            nu=2.5, init="kmeanspp", ridge=0.25, fast_alpha=0.125,
        )
        defaults = RunSpec(algorithm="kmeans", data="x", k=1)
        for f in fields(RunSpec):
            if f.name not in ("algorithm", "data", "k", "name"):
                assert getattr(expected, f.name) != getattr(defaults, f.name), f.name
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "[all]\nalgo = tmm\ndata = pts.txt\nk = 4\nrepeats = 3\nbase_seed = 9\n"
            "labels = parts.txt\nlabel_column = 0\nstandardize = yes\nmax_iter = 17\ntol = 1e-3\n"
            "nu = 2.5\ninit = kmeanspp\nridge = 0.25\nfast_alpha = 0.125\n"
        )
        assert load_config(cfg) == [expected]

    def test_required_keys_only_keep_the_defaults(self, tmp_path):
        cfg = tmp_path / "min.cfg"
        cfg.write_text(f"[only]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\n")
        assert load_config(cfg) == [RunSpec("kmeans", TWO_BLOBS, 2, name="only")]

    @pytest.mark.parametrize(
        "text",
        [
            f"algo = kmeans\ndata = {TWO_BLOBS}\nk = 2\n",  # no section header
            f"[row]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\n[row]\nk = 3\n",  # duplicate section
            f"[row]\nalgo = kmeans\ndata = {TWO_BLOBS}\nk = 2\nk = 3\n",  # duplicate key
        ],
        ids=["no-section", "duplicate-section", "duplicate-key"],
    )
    def test_malformed_file_is_format_error(self, tmp_path, text):
        from tkmeans.errors import FormatError

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(FormatError, match="bad.cfg"):
            load_config(cfg)

    def test_percent_in_a_path_is_literal(self, tmp_path):
        data = tmp_path / "50%.csv"
        data.write_text("".join(f"{x},{x % 2},{x % 2}\n" for x in range(8)))
        cfg = tmp_path / "pct.cfg"
        cfg.write_text(f"[pct]\nalgo = kmeans\ndata = {data}\nk = 2\n")
        specs = load_config(cfg)
        assert specs[0].data == str(data)
        row = run_bench(specs).rows[0]
        assert row.error is None and row.ari_mean is not None

