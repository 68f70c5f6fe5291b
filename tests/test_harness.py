import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmeans import harness
from tkmeans.baselines import BaselineConfig, kmeans_fit, kmedians_fit, kmedoids_fit
from tkmeans.core import FitConfig, TkModel, fit, fit_fast, log_t_density
from tkmeans.datasets import ContaminationSpec, Dataset, generate_gaussian_blobs
from tkmeans.errors import DegenerateMetricError, DomainError, NumericalError, TkmeansError, UsageError
from tkmeans.harness import (
    ALGORITHMS,
    BenchReport,
    BenchRow,
    RunSpec,
    load_config,
    parse_generator_spec,
    run_bench,
    run_once,
    run_robustness,
)
from tkmeans.metrics import clustering_mse
from tkmeans.mixtures import gmm_fit, tmm_fit

TWO_BLOBS = "blobs:k=2,n=30,p=2,std=0.3,box=15,seed=5"


class TestRunSpec:
    def test_nine_algorithms(self):
        # the report order
        assert ALGORITHMS == ("kmeans", "kmeans++", "kmedoids", "kmedians", "gmm", "tmm", "tkmeans", "fast-tkmeans",
                              "fast-tkmeans++")

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


def _reference_dispatch(spec, data, seed):
    """Each algorithm's fit and config, written out one branch per algorithm as the harness once did."""
    a, k = spec.algorithm, spec.k
    base = (spec.max_iter, spec.tol, seed)
    if a in ("kmeans", "kmeans++", "kmedoids", "kmedians"):
        cfg = BaselineConfig(*base, spec.init or ("kmeanspp" if a == "kmeans++" else "random"))
        fn = {"kmeans": kmeans_fit, "kmeans++": kmeans_fit, "kmedoids": kmedoids_fit, "kmedians": kmedians_fit}[a]
        return fn(data, k, cfg)
    if a == "gmm":
        return gmm_fit(data, k, BaselineConfig(*base, spec.init or "kmeanspp"), ridge=spec.ridge)[0]
    if a == "tmm":
        return tmm_fit(data, k, BaselineConfig(*base, spec.init or "kmeanspp"), ridge=spec.ridge, fixed_nu=spec.nu)[0]
    if a == "tkmeans":
        return fit(data, k, FitConfig(*base, spec.init or "random", fixed_nu=spec.nu))
    init = spec.init or ("kmeanspp" if a == "fast-tkmeans++" else "random")
    return fit_fast(data, k, FitConfig(*base, init, fixed_nu=spec.nu, fast_alpha=spec.fast_alpha))


# the RunSpec fields each algorithm reads besides max_iter, tol and init
READS = {"kmeans": (), "kmeans++": (), "kmedoids": (), "kmedians": (), "gmm": ("ridge",), "tmm": ("ridge", "nu"),
         "tkmeans": ("nu",), "fast-tkmeans": ("nu", "fast_alpha"), "fast-tkmeans++": ("nu", "fast_alpha")}
THREE_BLOBS = "blobs:k=3,n=20,p=2,std=1.5,box=5,seed=3"


def _same_fit(a, b):
    return (a.labels.tobytes(), a.centers.tobytes(), a.loss_trace.tobytes(), a.iterations) == \
        (b.labels.tobytes(), b.centers.tobytes(), b.loss_trace.tobytes(), b.iterations)


class TestDispatch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"init": "random"}, {"init": "kmeanspp"}, {"nu": 5.0}, {"ridge": 1e-3}, {"fast_alpha": 1e-3},
         {"init": "kmeanspp", "nu": 2.0, "ridge": 1e-2, "fast_alpha": 0.5}],
        ids=["defaults", "random", "kmeanspp", "nu", "ridge", "fast_alpha", "all"],
    )
    def test_each_algorithm_gets_its_fit_and_config(self, algorithm, overrides):
        data = parse_generator_spec(THREE_BLOBS)
        spec = RunSpec(algorithm, data, 3, max_iter=40, **overrides)
        assert _same_fit(harness._dispatch(spec, data, 11), _reference_dispatch(spec, data, 11))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_field_the_algorithm_does_not_read_stays_unvalidated(self, algorithm):
        data = parse_generator_spec(THREE_BLOBS)
        bad = {"nu": -1.0, "ridge": -1.0, "fast_alpha": math.nan}
        unread = {name: value for name, value in bad.items() if name not in READS[algorithm]}
        result = harness._dispatch(RunSpec(algorithm, data, 3, max_iter=40, **unread), data, 11)
        assert _same_fit(result, harness._dispatch(RunSpec(algorithm, data, 3, max_iter=40), data, 11))
        for name in READS[algorithm]:
            with pytest.raises(DomainError, match=f"^{name}|^fixed_{name}"):
                harness._dispatch(RunSpec(algorithm, data, 3, **{name: bad[name]}), data, 11)


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


    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_cluster_has_no_wb_ratio(self, algorithm):
        data = Dataset(np.random.default_rng(0).normal(0, 1, (40, 3)))
        with pytest.raises(DegenerateMetricError):
            run_once(RunSpec(algorithm, data, 1), seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field, build",
    [
        pytest.param("tol", lambda v: BaselineConfig(tol=v), id="tol"),
        pytest.param("fixed_nu", lambda v: FitConfig(fixed_nu=v), id="fixed_nu"),
        pytest.param("fast_alpha", lambda v: FitConfig(fast_alpha=v), id="fast_alpha"),
        pytest.param("box_expansion", lambda v: ContaminationSpec(0.1, v), id="box_expansion"),
        pytest.param("ridge", lambda v: gmm_fit(parse_generator_spec(TWO_BLOBS), 2, ridge=v), id="ridge"),
        pytest.param("constrained_alpha", lambda v: gmm_fit(parse_generator_spec(TWO_BLOBS), 2, constrained_alpha=v),
                     id="constrained_alpha"),
        pytest.param("nu", lambda v: tmm_fit(parse_generator_spec(TWO_BLOBS), 2, fixed_nu=v), id="nu"),
    ],
)
def test_non_finite_fit_settings_are_rejected_up_front(field, build, value):
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        build(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0, -1.0, "1"])
@pytest.mark.parametrize(
    "field, build",
    [
        pytest.param("tol", lambda v: BaselineConfig(tol=v), id="tol"),
        pytest.param("fixed_nu", lambda v: FitConfig(fixed_nu=v), id="fixed_nu"),
        pytest.param("fast_alpha", lambda v: FitConfig(fast_alpha=v), id="fast_alpha"),
        pytest.param("alpha", lambda v: TkModel([[0.0]], v, 1.0), id="TkModel.alpha"),
        pytest.param("nu", lambda v: TkModel([[0.0]], 1.0, v), id="TkModel.nu"),
        pytest.param("alpha", lambda v: log_t_density([0.0], [1.0], v, 1.0), id="log_t_density.alpha"),
        pytest.param("nu", lambda v: log_t_density([0.0], [1.0], 1.0, v), id="log_t_density.nu"),
        pytest.param("cluster_std", lambda v: generate_gaussian_blobs(2, 3, cluster_std=v), id="cluster_std"),
        pytest.param("constrained_alpha", lambda v: gmm_fit(parse_generator_spec(TWO_BLOBS), 2, constrained_alpha=v),
                     id="constrained_alpha"),
        pytest.param("nu", lambda v: tmm_fit(parse_generator_spec(TWO_BLOBS), 2, fixed_nu=v), id="nu"),
    ],
)
def test_a_knob_that_is_not_a_finite_number_above_0_is_a_domain_error(field, build, value):
    with pytest.raises(DomainError, match=f"^{field} must be finite and > 0, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("value", ["1", None])
@pytest.mark.parametrize(
    "field, build, error",
    [
        pytest.param("outlier_fraction", lambda v: ContaminationSpec(v), DomainError, id="outlier_fraction"),
        pytest.param("box_expansion", lambda v: ContaminationSpec(0.1, v), DomainError, id="box_expansion"),
        pytest.param("repeats", lambda v: RunSpec("kmeans", TWO_BLOBS, 2, repeats=v), UsageError, id="repeats"),
        pytest.param("center_box", lambda v: generate_gaussian_blobs(2, 3, center_box=v), DomainError, id="center_box"),
    ],
)
def test_a_knob_that_is_not_a_number_is_a_typed_error(field, build, error, value):
    with pytest.raises(error, match=f"^{field} must be .*, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("fit", [gmm_fit, tmm_fit])
def test_a_ridge_that_is_not_a_number_is_a_domain_error(fit):
    data = parse_generator_spec(TWO_BLOBS)
    with pytest.raises(DomainError, match="^ridge must be finite and >= 0, got '1'$"):
        fit(data, 2, ridge="1")
    # None is not a bad ridge but the default one
    assert np.array_equal(fit(data, 2, ridge=None)[0].centers, fit(data, 2)[0].centers)


def test_repeats_may_be_a_numpy_integer():
    assert RunSpec("kmeans", TWO_BLOBS, 2, repeats=np.int64(2)).repeats == 2
    with pytest.raises(UsageError, match="^repeats must be an integer >= 1, got 2.0$"):
        RunSpec("kmeans", TWO_BLOBS, 2, repeats=2.0)

def _points(distinct, duplicates, p, offset, log_scale, seed):
    rng = np.random.default_rng(seed)
    points = offset + 10.0**log_scale * rng.standard_normal((distinct, p))
    return Dataset(np.vstack([points, points[rng.integers(0, distinct, duplicates)]]))


def _assert_finite_or_a_typed_error(spec, data, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = harness._dispatch(spec, data, seed % 1000)
            mse = clustering_mse(data, result.centers, result.labels)
        except TkmeansError:
            return
    assert result.labels.shape == (data.n,) and result.centers.shape == (spec.k, data.p)
    assert np.isfinite(result.centers).all() and np.isfinite(result.loss_trace).all()
    assert np.isfinite(mse)


class TestEveryAlgorithm:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        distinct=st.integers(1, 12),
        duplicates=st.integers(0, 12),
        p=st.integers(1, 4),
        k_is_n=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_result_is_finite_or_a_typed_error(
        self, algorithm, distinct, duplicates, p, k_is_n, k_share, log_scale, offset, seed
    ):
        data = _points(distinct, duplicates, p, offset, log_scale, seed)
        k = data.n if k_is_n else 1 + int(k_share * (data.n - 1))
        _assert_finite_or_a_typed_error(RunSpec(algorithm=algorithm, data=data, k=k, max_iter=50), data, seed)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        init=st.sampled_from(("random", "kmeanspp")),
        nu=st.sampled_from((None, 1.0, 3.0)),
        distinct=st.integers(1, 12),
        duplicates=st.integers(0, 12),
        p=st.integers(1, 4),
        k_is_n=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-150.0, 150.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tkmeans_out_to_the_float64_limits(
        self, init, nu, distinct, duplicates, p, k_is_n, k_share, log_scale, offset, seed
    ):
        # squared distances and their sums reach 1e+-300 and beyond; the offset is in units of the spread
        data = _points(distinct, duplicates, p, offset * 10.0**log_scale, log_scale, seed)
        k = data.n if k_is_n else 1 + int(k_share * (data.n - 1))
        spec = RunSpec(algorithm="tkmeans", data=data, k=k, max_iter=50, init=init, nu=nu)
        _assert_finite_or_a_typed_error(spec, data, seed)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        algorithm=st.sampled_from(("gmm", "tmm")),
        init=st.sampled_from(("random", "kmeanspp")),
        nu=st.sampled_from((None, 1.0, 3.0)),
        distinct=st.integers(1, 12),
        duplicates=st.integers(0, 12),
        p=st.integers(1, 4),
        k_is_n=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-150.0, 150.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixtures_out_to_the_float64_limits(
        self, algorithm, init, nu, distinct, duplicates, p, k_is_n, k_share, log_scale, offset, seed
    ):
        # the whitened distances, the log-determinants and the moment sums reach 1e+-300; nu is tmm's fixed_nu
        data = _points(distinct, duplicates, p, offset * 10.0**log_scale, log_scale, seed)
        k = data.n if k_is_n else 1 + int(k_share * (data.n - 1))
        nu = nu if algorithm == "tmm" else None
        spec = RunSpec(algorithm=algorithm, data=data, k=k, max_iter=50, init=init, nu=nu)
        _assert_finite_or_a_typed_error(spec, data, seed)


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        algorithm=st.sampled_from(("kmedoids", "kmedians")),
        init=st.sampled_from(("random", "kmeanspp")),
        distinct=st.integers(1, 12),
        duplicates=st.integers(0, 12),
        p=st.integers(1, 4),
        k_is_n=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-150.0, 150.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_l1_baselines_out_to_the_float64_limits(
        self, algorithm, init, distinct, duplicates, p, k_is_n, k_share, log_scale, offset, seed
    ):
        # the medoid totals multiply sorted gaps by member counts; k-means++ seeding squares the distances
        data = _points(distinct, duplicates, p, offset * 10.0**log_scale, log_scale, seed)
        k = data.n if k_is_n else 1 + int(k_share * (data.n - 1))
        spec = RunSpec(algorithm=algorithm, data=data, k=k, max_iter=50, init=init)
        _assert_finite_or_a_typed_error(spec, data, seed)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        algorithm=st.sampled_from(("kmeans", "kmeans++", "fast-tkmeans", "fast-tkmeans++")),
        distinct=st.integers(1, 12),
        duplicates=st.integers(0, 12),
        p=st.integers(1, 4),
        k_is_n=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-150.0, 150.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_squared_distance_fits_out_to_the_float64_limits(
        self, algorithm, distinct, duplicates, p, k_is_n, k_share, log_scale, offset, seed
    ):
        # the squared distances, the fast variant's weights and k-means++'s draw probabilities reach 1e+-300
        data = _points(distinct, duplicates, p, offset * 10.0**log_scale, log_scale, seed)
        k = data.n if k_is_n else 1 + int(k_share * (data.n - 1))
        _assert_finite_or_a_typed_error(RunSpec(algorithm=algorithm, data=data, k=k, max_iter=50), data, seed)


class TestRunBench:
    def test_each_string_source_resolves_once_into_read_only_data(self, monkeypatch):
        other = "blobs:k=3,n=20,p=2,std=0.5,box=10,seed=8"
        specs = [
            RunSpec(algorithm="kmeans", data=TWO_BLOBS, k=2, repeats=2),
            RunSpec(algorithm="tkmeans", data=TWO_BLOBS, k=2, repeats=2),
            RunSpec(algorithm="gmm", data=TWO_BLOBS, k=2, standardize=True),
            RunSpec(algorithm="kmedoids", data=TWO_BLOBS, k=2, standardize=True),
            RunSpec(algorithm="kmeans++", data=other, k=3),
            RunSpec(algorithm="fast-tkmeans", data=TWO_BLOBS, k=3),
            RunSpec(algorithm="kmeans", data=generate_gaussian_blobs(2, 10, 2, seed=1), k=2),
        ]
        uncached = [run_bench([spec]).rows[0] for spec in specs]
        loads, fitted = [], []
        resolve, dispatch = harness.resolve_dataset, harness._dispatch

        def counting(spec):
            loads.append(spec)
            return resolve(spec)

        def writing(spec, data, seed):
            fitted.append(data)
            with pytest.raises(ValueError, match="read-only"):
                data.samples[0, 0] = 0.0
            return dispatch(spec, data, seed)

        monkeypatch.setattr(harness, "resolve_dataset", counting)
        monkeypatch.setattr(harness, "_dispatch", writing)
        rows = run_bench(specs).rows
        # TWO_BLOBS raw and standardized, the other string, and the Dataset object
        assert [specs.index(spec) for spec in loads] == [0, 2, 4, 6]
        # one fit per repeat: specs 0 and 1 run twice each
        assert len({id(data) for data in fitted}) == 4 and fitted[0] is fitted[7] and fitted[4] is fitted[5]

        def untimed(row):
            fields = asdict(row)
            fields["runs"] = [{k: v for k, v in run.items() if k != "time_sec"} for run in row.runs]
            return {k: v for k, v in fields.items() if not k.startswith("time_")}

        assert [untimed(r) for r in rows] == [untimed(r) for r in uncached]

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


class TestReportBytes:
    """The exact CSV, Markdown and JSON of fixed rows: a tie for best, no ARI, an error row and fractions."""

    RUN = {"seed": 7, "ari": 0.5, "mse": 1.25, "wb": 0.125, "iterations": 3, "time_sec": 0.0625,
           "loss_trace": [2.5, 1.75]}
    REPORT = BenchReport((
        BenchRow("kmeans/iris", "kmeans", "iris", 3, 2, None, ari_mean=0.7302382722834697, ari_std=0.012345678,
                 mse_mean=0.5231, mse_std=0.001, wb_mean=0.123456789, wb_std=1e-07, iters_mean=4.5,
                 iters_std=0.7071067811865476, time_mean=0.0012345, time_std=0.00021, runs=(RUN,)),
        BenchRow("tkmeans/iris", "tkmeans", "iris", 3, 2, None, ari_mean=0.7302382722834697, ari_std=0.0,
                 mse_mean=0.6, mse_std=0.25, wb_mean=0.123456789, wb_std=0.5, iters_mean=12.0, iters_std=3.0,
                 time_mean=0.25, time_std=0.125),
        BenchRow("gmm/points", "gmm", "points", 2, 1, None, mse_mean=12345.678, mse_std=0.0, wb_mean=0.25,
                 wb_std=0.0, iters_mean=7.0, iters_std=0.0, time_mean=0.5, time_std=0.0),
        BenchRow("kmeans/iris", "kmeans", "iris", 3, 4, 0.05, error="NumericalError: covariance, singular"),
        BenchRow("tmm/iris", "tmm", "iris", 3, 4, 0.05, ari_mean=0.5, ari_std=0.1, mse_mean=2.0, mse_std=0.5,
                 wb_mean=0.3, wb_std=0.05, iters_mean=300.0, iters_std=0.0, time_mean=1.5, time_std=0.25),
        BenchRow("tmm/iris", "tmm", "iris", 3, 4, 0.1, ari_mean=0.25, ari_std=0.125, mse_mean=3.0, mse_std=1.0,
                 wb_mean=0.4, wb_std=0.0625, iters_mean=150.5, iters_std=20.25, time_mean=0.75, time_std=0.0),
    ))

    def test_csv(self):
        assert self.REPORT.to_csv() == (
            "name,algorithm,dataset,k,fraction,repeats,ari_mean,ari_std(n-1),mse_mean,mse_std(n-1),"
            "wb_mean,wb_std(n-1),iters_mean,iters_std(n-1),time_mean_sec,time_std(n-1),error\r\n"
            "kmeans/iris,kmeans,iris,3,,2,0.730238,0.0123457,0.5231,0.001,0.123457,1e-07,4.5,0.707107,"
            "0.0012345,0.00021,\r\n"
            "tkmeans/iris,tkmeans,iris,3,,2,0.730238,0,0.6,0.25,0.123457,0.5,12,3,0.25,0.125,\r\n"
            "gmm/points,gmm,points,2,,1,,,12345.7,0,0.25,0,7,0,0.5,0,\r\n"
            'kmeans/iris,kmeans,iris,3,0.05,4,,,,,,,,,,,"NumericalError: covariance, singular"\r\n'
            "tmm/iris,tmm,iris,3,0.05,4,0.5,0.1,2,0.5,0.3,0.05,300,0,1.5,0.25,\r\n"
            "tmm/iris,tmm,iris,3,0.1,4,0.25,0.125,3,1,0.4,0.0625,150.5,20.25,0.75,0,\r\n"
        )

    def test_markdown(self):
        assert self.REPORT.to_markdown() == (
            "| name | algorithm | dataset | K | fraction | ARI (mean±std, n-1) | MSE | W/B | iters | time (s) |\n"
            "|---|---|---|---|---|---|---|---|---|---|\n"
            "| kmeans/iris | kmeans | iris | 3 | - | **0.730±0.012** | **0.523±0.001** | **0.123±0.000** "
            "| 4.50±0.71 | 0.0012±0.0002 |\n"
            "| tkmeans/iris | tkmeans | iris | 3 | - | **0.730±0.000** | 0.600±0.250 | **0.123±0.500** "
            "| 12.00±3.00 | 0.2500±0.1250 |\n"
            "| gmm/points | gmm | points | 2 | - | - | **12345.678±0.000** | **0.250±0.000** "
            "| 7.00±0.00 | 0.5000±0.0000 |\n"
            "| kmeans/iris | kmeans | iris | 3 | 0.05 | FAILED: NumericalError: covariance, singular | | | | |\n"
            "| tmm/iris | tmm | iris | 3 | 0.05 | **0.500±0.100** | **2.000±0.500** | **0.300±0.050** "
            "| 300.00±0.00 | 1.5000±0.2500 |\n"
            "| tmm/iris | tmm | iris | 3 | 0.1 | **0.250±0.125** | **3.000±1.000** | **0.400±0.062** "
            "| 150.50±20.25 | 0.7500±0.0000 |\n"
        )

    def test_json(self):
        def row(name, algorithm, dataset, k, fraction, repeats, ari, mse, wb, iterations, time_sec,
                error=None, runs=()):
            pairs = zip(("ari", "mse", "wb", "iterations", "time_sec"), (ari, mse, wb, iterations, time_sec))
            return {"name": name, "algorithm": algorithm, "dataset": dataset, "k": k, "fraction": fraction,
                    "repeats": repeats, **{key: dict(zip(("mean", "std"), v)) for key, v in pairs},
                    "error": error, "runs": list(runs)}

        none = (None, None)
        rows = [
            row("kmeans/iris", "kmeans", "iris", 3, None, 2, (0.7302382722834697, 0.012345678), (0.5231, 0.001),
                (0.123456789, 1e-07), (4.5, 0.7071067811865476), (0.0012345, 0.00021), runs=[self.RUN]),
            row("tkmeans/iris", "tkmeans", "iris", 3, None, 2, (0.7302382722834697, 0.0), (0.6, 0.25),
                (0.123456789, 0.5), (12.0, 3.0), (0.25, 0.125)),
            row("gmm/points", "gmm", "points", 2, None, 1, none, (12345.678, 0.0), (0.25, 0.0), (7.0, 0.0),
                (0.5, 0.0)),
            row("kmeans/iris", "kmeans", "iris", 3, 0.05, 4, none, none, none, none, none,
                error="NumericalError: covariance, singular"),
            row("tmm/iris", "tmm", "iris", 3, 0.05, 4, (0.5, 0.1), (2.0, 0.5), (0.3, 0.05), (300.0, 0.0),
                (1.5, 0.25)),
            row("tmm/iris", "tmm", "iris", 3, 0.1, 4, (0.25, 0.125), (3.0, 1.0), (0.4, 0.0625), (150.5, 20.25),
                (0.75, 0.0)),
        ]
        text = self.REPORT.to_json()
        assert text == json.dumps({"rows": rows}, indent=2) + "\n"
        assert text.startswith('{\n  "rows": [\n    {\n      "name": "kmeans/iris",\n')
        assert '"ari": {\n        "mean": 0.7302382722834697,\n        "std": 0.012345678\n      },' in text


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

