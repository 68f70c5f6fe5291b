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
from dataclasses import MISSING, dataclass, field, fields, replace
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

ALGORITHMS = (
    "kmeans",
    "kmeans++",
    "kmedoids",
    "kmedians",
    "gmm",
    "tmm",
    "tkmeans",
    "fast-tkmeans",
    "fast-tkmeans++",
)


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
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")


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
    a = spec.algorithm
    if a in ("kmeans", "kmeans++", "kmedoids", "kmedians"):
        default_init = "kmeanspp" if a == "kmeans++" else "random"
        cfg = BaselineConfig(spec.max_iter, spec.tol, seed, spec.init or default_init)
        fn = {"kmeans": kmeans_fit, "kmeans++": kmeans_fit, "kmedoids": kmedoids_fit, "kmedians": kmedians_fit}[a]
        return fn(data, spec.k, cfg)
    if a in ("gmm", "tmm"):
        cfg = BaselineConfig(spec.max_iter, spec.tol, seed, spec.init or "kmeanspp")
        if a == "gmm":
            return gmm_fit(data, spec.k, cfg, ridge=spec.ridge)[0]
        return tmm_fit(data, spec.k, cfg, ridge=spec.ridge, fixed_nu=spec.nu)[0]
    if a == "tkmeans":
        cfg = FitConfig(spec.max_iter, spec.tol, seed, spec.init or "random", fixed_nu=spec.nu)
        return fit(data, spec.k, cfg)
    # fast variants: nu defaults to 1 inside fit_fast
    default_init = "kmeanspp" if a == "fast-tkmeans++" else "random"
    cfg = FitConfig(
        spec.max_iter, spec.tol, seed, spec.init or default_init,
        fixed_nu=spec.nu, fast_alpha=spec.fast_alpha,
    )
    return fit_fast(data, spec.k, cfg)


def run_once(spec: RunSpec, seed: int, data: Dataset | None = None):
    """Run one seeded fit and score it; returns (ClusteringResult, MetricReport).

    ARI is computed when the dataset carries ground truth; MSE and W/B
    always.  Wall time covers the fit call only.
    """
    if data is None:
        data = resolve_dataset(spec)
    result = _dispatch(spec, data, seed)
    ari = None
    if data.labels is not None:
        ari = adjusted_rand_index(data.labels, result.labels)
    mse = clustering_mse(data, result.centers, result.labels)
    wb = wb_ratio(data, result.centers, result.labels)
    return result, MetricReport(ari, mse, wb)


@dataclass(frozen=True)
class BenchRow:
    """Aggregated scores of one (algorithm, dataset) cell."""

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
            [
                "name", "algorithm", "dataset", "k", "fraction", "repeats",
                "ari_mean", "ari_std(n-1)", "mse_mean", "mse_std(n-1)",
                "wb_mean", "wb_std(n-1)", "iters_mean", "iters_std(n-1)",
                "time_mean_sec", "time_std(n-1)", "error",
            ]
        )
        for r in self.rows:
            cells = [
                r.name, r.algorithm, r.dataset, r.k,
                "" if r.fraction is None else f"{r.fraction:g}",
                r.repeats,
            ]
            for v in (r.ari_mean, r.ari_std, r.mse_mean, r.mse_std, r.wb_mean, r.wb_std,
                      r.iters_mean, r.iters_std, r.time_mean, r.time_std):
                cells.append("" if v is None else f"{v:.6g}")
            cells.append(r.error or "")
            writer.writerow(cells)
        return buf.getvalue()

    def to_markdown(self) -> str:
        """Tables grouped like the published benchmark layout.

        The best mean per dataset is bolded: highest ARI, lowest MSE and
        W/B.  Stds carry the sample (N-1) convention.
        """
        def fmt(mean, std, best):
            if mean is None:
                return "-"
            cell = f"{mean:.3f}±{std:.3f}"
            return f"**{cell}**" if best else cell

        best: dict[tuple[str, str], float | None] = {}
        for r in self.rows:
            if r.error is not None:
                continue
            key_d = (r.dataset, "" if r.fraction is None else f"{r.fraction:g}")
            for metric, value, better in (
                ("ari", r.ari_mean, max), ("mse", r.mse_mean, min), ("wb", r.wb_mean, min),
            ):
                if value is None:
                    continue
                cur = best.get((metric, *key_d))
                best[(metric, *key_d)] = value if cur is None else better(cur, value)

        lines = [
            "| name | algorithm | dataset | K | fraction | ARI (mean±std, n-1) | MSE | W/B | iters | time (s) |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            if r.error is not None:
                lines.append(
                    f"| {r.name} | {r.algorithm} | {r.dataset} | {r.k} | "
                    f"{'-' if r.fraction is None else f'{r.fraction:g}'} | FAILED: {r.error} | | | | |"
                )
                continue
            key_d = (r.dataset, "" if r.fraction is None else f"{r.fraction:g}")
            cells = [
                r.name, r.algorithm, r.dataset, str(r.k),
                "-" if r.fraction is None else f"{r.fraction:g}",
                fmt(r.ari_mean, r.ari_std, r.ari_mean is not None and r.ari_mean == best.get(("ari", *key_d))),
                fmt(r.mse_mean, r.mse_std, r.mse_mean == best.get(("mse", *key_d))),
                fmt(r.wb_mean, r.wb_std, r.wb_mean == best.get(("wb", *key_d))),
                f"{r.iters_mean:.2f}±{r.iters_std:.2f}",
                f"{r.time_mean:.4f}±{r.time_std:.4f}",
            ]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = []
        for r in self.rows:
            row = {
                "name": r.name, "algorithm": r.algorithm, "dataset": r.dataset,
                "k": r.k, "fraction": r.fraction, "repeats": r.repeats,
                "ari": {"mean": r.ari_mean, "std": r.ari_std},
                "mse": {"mean": r.mse_mean, "std": r.mse_std},
                "wb": {"mean": r.wb_mean, "std": r.wb_std},
                "iterations": {"mean": r.iters_mean, "std": r.iters_std},
                "time_sec": {"mean": r.time_mean, "std": r.time_std},
                "error": r.error,
                "runs": list(r.runs),
            }
            payload.append(row)
        return json.dumps({"rows": payload}, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "md":
            return self.to_markdown()
        if fmt == "json":
            return self.to_json()
        raise UsageError(f"unknown format {fmt!r}; expected csv, md or json")


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
            records.append(
                {
                    "seed": seed,
                    "ari": report.ari,
                    "mse": report.mse,
                    "wb": report.wb,
                    "iterations": result.iterations,
                    "time_sec": result.wall_time,
                    "loss_trace": [float(v) for v in result.loss_trace],
                }
            )
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return _row(spec, dataset, fraction, error=f"{type(exc).__name__}: {exc}")
    stats = {}  # mean and sample (N-1) std per metric; ARI is absent without ground truth
    for key, column in (("ari", "ari"), ("mse", "mse"), ("wb", "wb"), ("iterations", "iters"), ("time_sec", "time")):
        values = np.array([rec[key] for rec in records if rec[key] is not None], dtype=np.float64)
        if values.size:
            stats[f"{column}_mean"] = float(values.mean())
            stats[f"{column}_std"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
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
    the ground truth.  ``overrides`` are further ``RunSpec`` fields.
    """
    base_spec = RunSpec(algorithm="kmeans", data=data, k=1, **overrides)
    base = resolve_dataset(base_spec)
    if base.labels is None:
        raise UsageError("robustness runs need a labelled dataset")
    k = k if k is not None else base.n_classes
    rows = []
    for algo in algorithms:
        spec = replace(base_spec, algorithm=algo, k=k, repeats=repeats, base_seed=base_seed)
        for fraction in fractions:

            def fit_and_score(seed):
                noisy = contaminate(base, ContaminationSpec(fraction, box_expansion, seed=seed))
                result = _dispatch(spec, noisy, seed)
                ari = adjusted_rand_index(base.labels, result.labels[: base.n])
                mse = clustering_mse(noisy, result.centers, result.labels)
                return result, MetricReport(ari, mse, wb_ratio(noisy, result.centers, result.labels))

            rows.append(_run_cell(spec, base.name, fit_and_score, fraction))
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
