"""Per-layer spans recorded by wrapping tkmeans module attributes.

The fit loops call their layers through module attributes
(``_util.pairwise_sq_dists``, ``core.e_step``, ...) or through names
imported from another module (``core.log_sum_exp``,
``harness.fit_fast``).  :class:`Tracer` replaces every such binding of a
boundary function with a timing wrapper while it is installed, and puts
the original objects back when it is removed, so no file of the library
changes and untraced runs pay nothing.

A span's self time is its duration minus the durations of the spans it
called.  The root span is the job itself, so the self times of all
boundaries plus the root's self time add up to the traced job time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "tkmeans"

# (module, function) pairs, named as in the tkmeans package.
BOUNDARIES = (
    ("_util", "pairwise_sq_dists"),
    ("_util", "cluster_means"),
    ("_util", "kmeanspp_indices"),
    ("_util", "reseed_empty_clusters"),
    ("core", "fit"),
    ("core", "fit_fast"),
    ("core", "e_step"),
    ("core", "m_step"),
    ("core", "negative_log_likelihood"),
    ("specialfn", "log_sum_exp"),
    ("baselines", "kmeans_fit"),
    ("baselines", "kmedoids_fit"),
    ("baselines", "_medoid_of"),
    ("baselines", "kmedians_fit"),
    ("mixtures", "gmm_fit"),
    ("mixtures", "tmm_fit"),
    ("mixtures", "_maha_logdet"),
    ("metrics", "adjusted_rand_index"),
    ("metrics", "clustering_mse"),
    ("metrics", "wb_ratio"),
    ("harness", "run_once"),
    ("harness", "run_bench"),
    ("harness", "run_robustness"),
    ("harness", "resolve_dataset"),
    ("harness", "_dispatch"),
    ("cli", "main"),
    ("datasets", "generate_gaussian_blobs"),
    ("datasets", "load_csv_labeled"),
    ("datasets", "standardize"),
    ("datasets", "contaminate"),
)


def algo_key(algorithm: str) -> str:
    """Algorithm name usable inside a metric name ('+' is not allowed there)."""
    return algorithm.replace("++", "pp")


def _pairwise_temp_mb(args, kwargs, result):
    x, centers = args[0], args[1]
    return x.shape[0] * centers.shape[0] * x.shape[1] * 8 / 1e6


def _medoid_temp_mb(args, kwargs, result):
    x, members = args[0], args[1]
    return members.shape[0] ** 2 * x.shape[1] * 8 / 1e6


# Extra per-boundary counters: name -> (suffix, unit, fold, value of one call).
# "max" keeps the largest value of any call; "sum" adds them up and is reported per job.
EXTRAS = {
    "_util.pairwise_sq_dists": ("temp_mb", "MB", "max", _pairwise_temp_mb),
    "_util.reseed_empty_clusters": ("moved", "count", "sum", lambda a, k, r: len(r[3])),
    "baselines._medoid_of": ("temp_mb", "MB", "max", _medoid_temp_mb),
}


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if m is not None and n.split(".")[0] == PACKAGE]


def bindings() -> dict:
    """{(module, attribute): object} over every loaded module of the package."""
    return {(m.__name__, attr): value for m in package_modules() for attr, value in vars(m).items()}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    extra: float = 0.0


@dataclass
class SolverStats:
    fits: int = 0
    iterations: int = 0
    converged: int = 0


@dataclass
class Tracer:
    """Installs the wrappers, keeps the span stack and the per-layer totals."""

    layers: dict = field(default_factory=lambda: {f"{m}.{f}": LayerStats() for m, f in BOUNDARIES})
    solvers: dict = field(default_factory=lambda: defaultdict(SolverStats))
    root_self_s: float = 0.0
    job_s: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for mod_name, fn_name in BOUNDARIES:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            # rebind every name under which the package refers to the function
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- spans ----------------------------------------------------------
    def _wrap(self, name, fn):
        stats = self.layers[name]
        extra = EXTRAS.get(name)
        observe_solver = name == "harness._dispatch"
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # child time
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if extra is not None:
                value = extra[3](args, kwargs, result)
                stats.extra = max(stats.extra, value) if extra[2] == "max" else stats.extra + value
            if observe_solver:
                spec = args[0]
                solver = self.solvers[spec.algorithm]
                solver.fits += 1
                solver.iterations += result.iterations
                solver.converged += result.iterations < spec.max_iter
            return result

        return wrapper

    def job(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one job; returns its result."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self.root_self_s += dur - frame[0]
            self.job_s.append(dur)

    # -- report ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-job layer metrics as {name: (value, unit)}."""
        jobs = len(self.job_s)
        if jobs == 0:
            raise RuntimeError("no traced jobs")
        out = {}
        for name, stats in self.layers.items():
            # metric names must start with a letter, so they carry the package prefix
            out[f"{PACKAGE}.{name}.calls"] = (stats.calls / jobs, "count")
            out[f"{PACKAGE}.{name}.self_s"] = (stats.self_s / jobs, "s")
            if name in EXTRAS:
                suffix, unit, fold, _ = EXTRAS[name]
                out[f"{PACKAGE}.{name}.{suffix}"] = (stats.extra / jobs if fold == "sum" else stats.extra, unit)
        out["job.self_s"] = (self.root_self_s / jobs, "s")
        for algorithm in sys.modules[f"{PACKAGE}.harness"].ALGORITHMS:
            solver = self.solvers[algorithm]
            key = algo_key(algorithm)
            fits = solver.fits
            out[f"solver.iterations.{key}"] = (solver.iterations / fits if fits else 0.0, "count")
            out[f"solver.converged_frac.{key}"] = (solver.converged / fits if fits else 0.0, "ratio")
        return out
