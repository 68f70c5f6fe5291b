"""Benchmark harness: run algorithms over datasets with seeded repeats.

A run spec names one algorithm, one dataset (a path, a ``blobs:...``
generator string, or an in-memory :class:`~tkmeans.datasets.Dataset`),
the cluster count, the repeat protocol and the fit knobs; its fields are
also the config keys and the CLI flags.  Repeat ``r`` always uses seed
``base_seed + r``, so any single cell can be reproduced in isolation.
Reports aggregate mean and sample (N-1) standard deviation per metric and
can be rendered as CSV, Markdown, or JSON (the JSON form keeps full
per-run detail including loss traces).
"""

from __future__ import annotations

import configparser
import json
import numbers
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, kmeans_fit, kmedians_fit, kmedoids_fit
from .core import FitConfig, fit, fit_fast
from .datasets import (
    ContaminationSpec,
    Dataset,
    contaminate,
    generate_gaussian_blobs,
    load_benchmark_text,
    load_csv_labeled,
    standardize,
)
from .errors import FormatError, UsageError
from .metrics import MetricReport, adjusted_rand_index, clustering_mse, wb_ratio
from .mixtures import gmm_fit, tmm_fit
from .results import ClusteringResult

__all__ = [
    "ALGORITHMS",
    "RunSpec",
    "BenchRow",
    "BenchReport",
    "run_once",
    "run_bench",
    "run_robustness",
    "load_config",
]

# Each algorithm's default init and its fit of (data, spec, (max_iter, tol, seed, init)), in report
# order; a fit reads only the spec fields its algorithm uses.  The fit functions are looked up in
# this module's globals at call time, so perfbench's tracer sees them through its rebinding.
_FITS = {
    "kmeans": ("random", lambda d, s, a: kmeans_fit(d, s.k, BaselineConfig(*a))),
    "kmeans++": ("kmeanspp", lambda d, s, a: kmeans_fit(d, s.k, BaselineConfig(*a))),
    "kmedoids": ("random", lambda d, s, a: kmedoids_fit(d, s.k, BaselineConfig(*a))),
    "kmedians": ("random", lambda d, s, a: kmedians_fit(d, s.k, BaselineConfig(*a))),
    "gmm": ("kmeanspp", lambda d, s, a: gmm_fit(d, s.k, BaselineConfig(*a), ridge=s.ridge)[0]),
    "tmm": ("kmeanspp", lambda d, s, a: tmm_fit(d, s.k, BaselineConfig(*a), ridge=s.ridge, fixed_nu=s.nu)[0]),
    "tkmeans": ("random", lambda d, s, a: fit(d, s.k, FitConfig(*a, fixed_nu=s.nu))),
    # nu defaults to 1 inside fit_fast
    "fast-tkmeans": ("random", lambda d, s, a: fit_fast(d, s.k, FitConfig(*a, fixed_nu=s.nu, fast_alpha=s.fast_alpha))),
    "fast-tkmeans++": ("kmeanspp", lambda d, s, a: fit_fast(d, s.k, FitConfig(*a, fixed_nu=s.nu, fast_alpha=s.fast_alpha))),
}
ALGORITHMS = tuple(_FITS)


@dataclass(frozen=True)
class RunSpec:
    """One benchmark cell: an algorithm on a dataset with a repeat protocol.

    The one run schema.  ``load_config`` reads these fields as INI keys
    and the CLI parses its flags into them; a key or flag left out keeps
    the default written here, and the fit defaults come from
    ``BaselineConfig`` and ``FitConfig``.  ``init`` None means the
    algorithm's own seeding, ``nu`` None an estimated (or, for the fast
    variants, unit) ``nu`` and ``ridge`` None the mixtures' default ridge.
    """

    algorithm: str
    data: object
    k: int
    repeats: int = 1
    base_seed: int = 0
    name: str | None = None
    label_path: str | None = None
    label_column: object = "last"
    standardize: bool = False
    max_iter: int = BaselineConfig.max_iter
    tol: float = BaselineConfig.tol
    nu: float | None = None
    init: str | None = None
    ridge: float | None = None
    fast_alpha: float = FitConfig.fast_alpha

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise UsageError(
                f"unknown algorithm {self.algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if isinstance(self.repeats, bool) or not (isinstance(self.repeats, numbers.Integral) and self.repeats >= 1):
            raise UsageError(f"repeats must be an integer >= 1, got {self.repeats!r}")


def parse_generator_spec(text: str) -> Dataset:
    """Build a dataset from a ``blobs:key=value,...`` string.

    Keys: ``k`` clusters, ``n`` points per cluster, ``p`` dimensions,
    ``std`` cluster spread, ``box`` center box half-width, ``seed``.
    """
    kind, _, body = text.partition(":")
    if kind != "blobs":
        raise UsageError(f"unknown generator {kind!r}; only 'blobs:...' is supported")
    params = {"k": 3, "n": 100, "p": 2, "std": 1.0, "box": 10.0, "seed": 0}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip().lower()
            if not sep or key not in params:
                raise UsageError(f"bad generator parameter {item!r}")
            try:
                params[key] = float(value) if key in ("std", "box") else int(value)
            except ValueError:
                raise UsageError(f"bad generator value {item!r}") from None
    return generate_gaussian_blobs(
        n_clusters=params["k"],
        per_cluster=params["n"],
        n_features=params["p"],
        center_box=params["box"],
        cluster_std=params["std"],
        seed=params["seed"],
        name=text,
    )


def resolve_dataset(spec: RunSpec) -> Dataset:
    """Materialize the spec's dataset, applying standardization if asked."""
    data = spec.data
    if isinstance(data, str):
        if data.startswith("blobs:"):
            data = parse_generator_spec(data)
        elif Path(data).suffix.lower() == ".csv":
            data = load_csv_labeled(data, label_column=spec.label_column)
        else:
            data = load_benchmark_text(data, label_path=spec.label_path)
    if not isinstance(data, Dataset):
        raise UsageError(f"cannot interpret data source {spec.data!r}")
    if spec.standardize:
        data = standardize(data)[0]
    return data


def _dispatch(spec: RunSpec, data: Dataset, seed: int) -> ClusteringResult:
    init, fit_spec = _FITS[spec.algorithm]
    return fit_spec(data, spec, (spec.max_iter, spec.tol, seed, spec.init or init))


def run_once(spec: RunSpec, seed: int, data: Dataset | None = None):
    """Run one seeded fit and score it; returns (ClusteringResult, MetricReport).

    ARI is computed when the dataset carries ground truth; MSE and W/B
    always.  Wall time covers the fit call only.
    """
    if data is None:
        data = resolve_dataset(spec)
    result = _dispatch(spec, data, seed)
    return result, _score(data, result, data.labels)


def _score(data: Dataset, result: ClusteringResult, truth) -> MetricReport:
    """ARI of the first ``len(truth)`` labels against ``truth`` (None without it), MSE and W/B on ``data``."""
    ari = None if truth is None else adjusted_rand_index(truth, result.labels[: len(truth)])
    mse = clustering_mse(data, result.centers, result.labels)
    return MetricReport(ari, mse, wb_ratio(data, result.centers, result.labels))


# The report's metrics in column order, read by every output format: the key of the run
# records and the JSON, the prefix of BenchRow's ``_mean``/``_std`` fields, the CSV header
# of the mean, the Markdown header and number format, and the pick of the best mean of a
# dataset, bolded in Markdown (None: never bolded).
_Metric = namedtuple("_Metric", "key field csv md fmt best")
_METRICS = (
    _Metric("ari", "ari", "ari_mean", "ARI (mean±std, n-1)", ".3f", max),
    _Metric("mse", "mse", "mse_mean", "MSE", ".3f", min),
    _Metric("wb", "wb", "wb_mean", "W/B", ".3f", min),
    _Metric("iterations", "iters", "iters_mean", "iters", ".2f", None),
    _Metric("time_sec", "time", "time_mean_sec", "time (s)", ".4f", None),
)


@dataclass(frozen=True)
class BenchRow:
    """Aggregated scores of one (algorithm, dataset) cell; the metric fields follow ``_METRICS``."""

    name: str
    algorithm: str
    dataset: str
    k: int
    repeats: int
    fraction: float | None = None
    ari_mean: float | None = None
    ari_std: float | None = None
    mse_mean: float | None = None
    mse_std: float | None = None
    wb_mean: float | None = None
    wb_std: float | None = None
    iters_mean: float | None = None
    iters_std: float | None = None
    time_mean: float | None = None
    time_std: float | None = None
    error: str | None = None
    runs: tuple = field(default_factory=tuple)


def _stats(row: BenchRow, m) -> tuple:
    """The row's (mean, std) of metric ``m``."""
    return getattr(row, f"{m.field}_mean"), getattr(row, f"{m.field}_std")


def _fraction(row: BenchRow, blank: str) -> str:
    return blank if row.fraction is None else f"{row.fraction:g}"


@dataclass(frozen=True)
class BenchReport:
    """A list of aggregated rows plus renderers for the output formats."""

    rows: tuple

    @property
    def failed(self) -> bool:
        return any(row.error is not None for row in self.rows)

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["name", "algorithm", "dataset", "k", "fraction", "repeats"]
            + [h for m in _METRICS for h in (m.csv, f"{m.field}_std(n-1)")]
            + ["error"]
        )
        for r in self.rows:
            stats = ["" if v is None else f"{v:.6g}" for m in _METRICS for v in _stats(r, m)]
            writer.writerow([r.name, r.algorithm, r.dataset, r.k, _fraction(r, ""), r.repeats, *stats, r.error or ""])
        return buf.getvalue()

    def to_markdown(self) -> str:
        """Tables grouped like the published benchmark layout.

        The best mean per dataset is bolded: highest ARI, lowest MSE and
        W/B.  Stds carry the sample (N-1) convention.
        """
        best = {}  # (metric key, dataset, fraction) -> the best mean among the rows without an error
        for r in self.rows:
            for m in _METRICS:
                mean, key = _stats(r, m)[0], (m.key, r.dataset, _fraction(r, ""))
                if r.error is None and m.best is not None and mean is not None:
                    best[key] = mean if key not in best else m.best(best[key], mean)

        def cell(r, m):
            mean, std = _stats(r, m)
            if mean is None:
                return "-"
            text = f"{mean:{m.fmt}}±{std:{m.fmt}}"
            return f"**{text}**" if best.get((m.key, r.dataset, _fraction(r, ""))) == mean else text

        lines = [
            "| name | algorithm | dataset | K | fraction | " + " | ".join(m.md for m in _METRICS) + " |",
            "|---" * (5 + len(_METRICS)) + "|",
        ]
        for r in self.rows:
            head = f"| {r.name} | {r.algorithm} | {r.dataset} | {r.k} | {_fraction(r, '-')} |"
            if r.error is not None:
                lines.append(f"{head} FAILED: {r.error} |" + " |" * (len(_METRICS) - 1))
            else:
                lines.append(f"{head} " + " | ".join(cell(r, m) for m in _METRICS) + " |")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [
            {
                "name": r.name, "algorithm": r.algorithm, "dataset": r.dataset,
                "k": r.k, "fraction": r.fraction, "repeats": r.repeats,
                **{m.key: dict(zip(("mean", "std"), _stats(r, m))) for m in _METRICS},
                "error": r.error,
                "runs": list(r.runs),
            }
            for r in self.rows
        ]
        return json.dumps({"rows": payload}, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        renderers = {"csv": self.to_csv, "md": self.to_markdown, "json": self.to_json}
        if fmt not in renderers:
            raise UsageError(f"unknown format {fmt!r}; expected csv, md or json")
        return renderers[fmt]()


def _row(spec: RunSpec, dataset: str, fraction, **cells) -> BenchRow:
    """A row of ``spec``'s cell, named alike whether it holds scores or an error."""
    name = spec.name or f"{spec.algorithm}/{dataset}"
    return BenchRow(name, spec.algorithm, dataset, spec.k, spec.repeats, fraction, **cells)


def _run_cell(spec: RunSpec, dataset: str, fit_and_score, fraction=None) -> BenchRow:
    """One report row: ``fit_and_score(seed)`` for every repeat seed, aggregated.

    ``fit_and_score`` returns (ClusteringResult, MetricReport).  Any
    exception turns the row into an error row, named like a successful
    one, without touching the other cells.
    """
    records = []
    try:
        for seed in range(spec.base_seed, spec.base_seed + spec.repeats):
            result, report = fit_and_score(seed)
            records.append({"seed": seed, **asdict(report), "iterations": result.iterations,
                            "time_sec": result.wall_time, "loss_trace": [float(v) for v in result.loss_trace]})
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _row(spec, dataset, fraction, error=f"{type(exc).__name__}: {exc}")
    stats = {}  # mean and sample (N-1) std per metric; ARI is absent without ground truth
    for m in _METRICS:
        values = np.array([rec[m.key] for rec in records if rec[m.key] is not None], dtype=np.float64)
        if values.size:
            stats[f"{m.field}_mean"] = float(values.mean())
            stats[f"{m.field}_std"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return _row(spec, dataset, fraction, runs=tuple(records), **stats)


def run_bench(specs) -> BenchReport:
    """Execute every spec for its full repeat protocol and aggregate.

    A failing run marks its own cell as failed without touching the other
    cells; the report's ``failed`` flag then drives the nonzero exit of
    the CLI.  Each distinct string data source is resolved once per call,
    keyed by the spec fields that shape its dataset, and its cells share
    the one read-only ``Dataset``.
    """
    specs = list(specs)
    if not specs:
        raise UsageError("run_bench needs at least one spec")
    rows = []
    resolved = {}
    for spec in specs:
        try:
            if isinstance(spec.data, str):
                key = (spec.data, spec.standardize, spec.label_column, spec.label_path)
                if key not in resolved:
                    resolved[key] = resolve_dataset(spec)
                data = resolved[key]
            else:
                data = resolve_dataset(spec)
        except Exception as exc:  # noqa: BLE001 - a dataset that cannot load fails its own cell
            dataset = str(getattr(spec.data, "name", spec.data))
            rows.append(_row(spec, dataset, None, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(_run_cell(spec, data.name, lambda seed: run_once(spec, seed, data=data)))
    return BenchReport(tuple(rows))


def run_robustness(
    data,
    fractions,
    algorithms,
    repeats: int = 20,
    base_seed: int = 0,
    k: int | None = None,
    box_expansion: float = 2.0,
    **overrides,
) -> BenchReport:
    """Contamination sweep: one row per (algorithm, outlier fraction).

    Each repeat contaminates the base dataset with seed ``base_seed + r``
    and fits with the same seed.  ARI is scored on the original points
    only; the appended outliers keep their own label class and never enter
    the ground truth.  ``overrides`` are further ``RunSpec`` fields.  A
    fraction or ``box_expansion`` that ``ContaminationSpec`` rejects raises
    its ``DomainError`` before any cell runs.
    """
    contaminations = [ContaminationSpec(fraction, box_expansion) for fraction in fractions]
    base_spec = RunSpec(algorithm="kmeans", data=data, k=1, **overrides)
    base = resolve_dataset(base_spec)
    if base.labels is None:
        raise UsageError("robustness runs need a labelled dataset")
    k = k if k is not None else base.n_classes
    rows = []
    for algo in algorithms:
        spec = replace(base_spec, algorithm=algo, k=k, repeats=repeats, base_seed=base_seed)
        for contamination in contaminations:

            def fit_and_score(seed):
                noisy = contaminate(base, replace(contamination, seed=seed))
                result = _dispatch(spec, noisy, seed)
                return result, _score(noisy, result, base.labels)

            rows.append(_run_cell(spec, base.name, fit_and_score, contamination.outlier_fraction))
    return BenchReport(tuple(rows))


# INI spellings of the RunSpec fields whose key differs from the field name;
# the section header gives ``name``.
_INI_KEYS = {"algorithm": "algo", "label_path": "labels"}
# ConfigParser getters by field annotation; any other type is kept as text
_INI_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean"}


def load_config(path) -> list[RunSpec]:
    """Parse a plain-text bench config into run specs.

    INI sections, one per spec, named by the section header::

        [s1-kmeans]
        algo = kmeans
        data = blobs:k=15,n=300,p=2,std=0.6,seed=7
        k = 15
        repeats = 20
        base_seed = 0

    The keys are the fields of :class:`RunSpec`, spelled as the field
    except ``algo`` (``algorithm``) and ``labels`` (``label_path``).
    ``algo``, ``data`` and ``k`` are required; a key left out keeps the
    field's default.  Each value is parsed by its field's type, and
    ``standardize`` takes ``getboolean``'s words (true/false, yes/no,
    on/off, 1/0).  ``%`` is an ordinary character.  A file that cannot be
    read or parsed raises ``FormatError``.
    """
    keys = {_INI_KEYS.get(f.name, f.name): f for f in fields(RunSpec) if f.name != "name"}
    required = [key for key, f in keys.items() if f.default is MISSING]
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not read:
        raise FormatError(f"{path}: cannot read config file")
    specs = []
    for section in parser.sections():
        body = parser[section]
        unknown = set(body) - set(keys)
        if unknown:
            raise FormatError(f"{path}: [{section}]: unknown keys {sorted(unknown)}")
        if not set(required) <= set(body):
            listed = ", ".join(map(repr, required[:-1])) + f" and {required[-1]!r}"
            raise FormatError(f"{path}: [{section}]: {listed} are required")
        try:
            values = {
                f.name: getattr(body, _INI_GETTERS.get(f.type.removesuffix(" | None"), "get"))(key)
                for key, f in keys.items()
                if key in body
            }
            specs.append(RunSpec(name=section, **values))
        except ValueError as exc:
            raise FormatError(f"{path}: [{section}]: {exc}") from exc
    if not specs:
        raise FormatError(f"{path}: config defines no run specs")
    return specs
