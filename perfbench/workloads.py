"""The three benchmark workloads and the checks run on every job.

Each workload builds its inputs once (``build``, timed as set-up), then
runs jobs: one job is one unit of user work (``run``, timed), whose
outputs ``check`` validates and condenses into an :class:`Outcome`.

The datasets are fixed problem instances, like the published ones the
``protocol`` workload uses; the workload seed draws the job seeds.  Job
``i`` of a run uses job seed ``job_seeds[i % M]``, so a run cycles
through ``M`` distinct seeds and the quality metrics, taken over those
``M`` seeds, are fixed by the workload seed.  A fresh dataset per seed
would make the run median depend on one draw of the cluster geometry:
measured over 8 such draws, the spread of ``job_s_p50`` across seeds
was several times that of a fixed dataset.

The memory pass runs the first jobs of workload seed ``MEMORY_SEED``
whatever ``--seed`` is, so ``peak_mem_mb`` is a property of the code
alone.  On ``protocol`` the peak of one job ranges from 1.8 to 12 MB with
the job seed (the k-medoids temporary grows with the largest cluster),
which a seed-drawn memory pass would turn into run-to-run noise.

Workloads and why they were chosen (sizes at full scale):

* ``em-p16`` -- one ``tkmeans`` fit of exactly 30 EM iterations on 3k x 16
  blobs, K=15, through ``harness.run_once``.  Full heavy-tailed EM steps;
  its N x K x p distance temporary (5.8 MB) fits the last-level cache.
  The fixed budget keeps the work per job constant: run to tol=1e-6,
  a fit takes 29 to 63 iterations depending on its seed.
* ``hard-100k`` -- ``kmeans++`` plus ``fast-tkmeans++``, max_iter=10, on
  100k x 2 blobs, K=50.  The hard-assignment paths out of cache (80 MB
  distance temporary); the fixed iteration budget keeps the work per job
  constant.
* ``protocol`` -- one seed of the paper's comparison protocol through
  ``cli.main``: ``bench`` with all nine algorithms on standardized Iris
  and S1-like blobs, and ``robust`` at outlier fractions 0, 0.05, 0.1.
  Thousands of small calls, where per-call Python cost dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


DATA_SEED = 0  # seed of the fixed blob datasets
MEMORY_SEED = 0  # workload seed whose first jobs the memory pass runs


class CheckFailed(Exception):
    """A job produced output that fails the benchmark's correctness checks."""


@dataclass
class Outcome:
    """What one job computed, reduced to the numbers the benchmark reports."""

    iterations: int  # summed over the job's fits
    fit_s: float  # summed library-reported fit wall time
    ari: list = field(default_factory=list)
    mse: list = field(default_factory=list)

    def fingerprint(self):
        return self.iterations, tuple(self.ari), tuple(self.mse)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_fit(data, result, report, k: int) -> None:
    import numpy as np  # not at module level: run.py pins the BLAS threads before numpy loads

    centers, labels = result.centers, result.labels
    _require(centers.shape == (k, data.p), f"centers shape {centers.shape} != ({k}, {data.p})")
    _require(bool(np.isfinite(centers).all()), "centers are not finite")
    _require(labels.shape == (data.n,), f"labels shape {labels.shape} != ({data.n},)")
    _require(bool(((labels >= 0) & (labels < k)).all()), f"labels outside [0, {k})")
    _require(result.loss_trace.shape == (result.iterations,), "loss trace length != iterations")
    _require(bool(np.isfinite(result.loss_trace).all()), "loss trace is not finite")
    # recompute the MSE independently of the metrics module
    mse = float(((data.samples - centers[labels]) ** 2).sum(axis=1).mean())
    _require(math.isclose(mse, report.mse, rel_tol=1e-9), f"MSE {report.mse} != recomputed {mse}")
    _require(report.ari is not None and -1.0 <= report.ari <= 1.0, f"ARI {report.ari} out of range")


class Workload:
    name = ""
    jobs = 1  # distinct job seeds M, and the least number of jobs a timed run makes
    traced_jobs = 1  # jobs in the traced pass (each also run untraced)
    memory_jobs = 1  # jobs in the tracemalloc pass

    def job_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.jobs)]

    def memory_seeds(self) -> list[int]:
        return self.job_seeds(MEMORY_SEED)[: self.memory_jobs]

    def build(self, tk, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, tk, job_seed: int):
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        raise NotImplementedError


class _HarnessFits(Workload):
    """Jobs made of ``harness.run_once`` calls on one generated dataset."""

    algorithms: tuple = ()
    shape = (0, 0, 0)  # clusters, points per cluster, dimensions
    blob_std = 1.0
    spec_args: dict = {}

    def build(self, tk, seed, workdir):
        k, per, p = self.shape
        self.data = tk.generate_gaussian_blobs(k, per, p, cluster_std=self.blob_std, seed=DATA_SEED)

    def run(self, tk, job_seed):
        k = self.shape[0]
        out = []
        for algorithm in self.algorithms:
            spec = tk.RunSpec(algorithm, self.data, k, **self.spec_args)
            out.append(tk.harness.run_once(spec, job_seed, data=self.data))
        return out

    def check(self, raw):
        outcome = Outcome(0, 0.0)
        for result, report in raw:
            _check_fit(self.data, result, report, self.shape[0])
            outcome.iterations += result.iterations
            outcome.fit_s += result.wall_time
            outcome.ari.append(report.ari)
            outcome.mse.append(report.mse)
        return outcome


class EmP16(_HarnessFits):
    name = "em-p16"
    algorithms = ("tkmeans",)
    # no fit gets within tol=1e-12 in 30 iterations (the fewest seen is 96), so every fit runs all 30
    spec_args = {"tol": 1e-12, "max_iter": 30}

    def __init__(self, tiny: bool = False):
        self.shape = (5, 60, 16) if tiny else (15, 200, 16)
        self.jobs, self.traced_jobs = (2, 1) if tiny else (48, 12)


class Hard100k(_HarnessFits):
    name = "hard-100k"
    algorithms = ("kmeans++", "fast-tkmeans++")
    blob_std = 0.5
    spec_args = {"max_iter": 10}

    def __init__(self, tiny: bool = False):
        self.shape = (10, 200, 2) if tiny else (50, 2000, 2)
        self.jobs, self.traced_jobs = (2, 1) if tiny else (7, 4)


S1_LIKE = "blobs:k=15,n=100,p=2,std=0.45,box=10,seed=43"
ROBUST_DATA = "blobs:k=4,n=75,p=2,std=0.5,box=8,seed=11"
ROBUST_ALGOS = ("kmeans", "tkmeans", "fast-tkmeans++")
ROBUST_FRACTIONS = "0,0.05,0.1"


class Protocol(Workload):
    name = "protocol"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        # at 2.3-2.8 s a job, M jobs fit in a 50-second run, so the one-job-per-seed floor seldom lengthens it
        self.jobs, self.traced_jobs = (2, 1) if tiny else (18, 6)
        # the k-medoids temporary grows with the largest cluster, which depends on the job seed
        self.memory_jobs = 2

    def build(self, tk, seed, workdir):
        iris_path = Path(__file__).resolve().parent.parent / "data" / "iris.csv"
        iris = tk.standardize(tk.load_csv_labeled(iris_path))[0]
        _require(iris.n == 150 and iris.p == 4 and iris.n_classes == 3, "data/iris.csv is not Iris")
        # the CLI regenerates these per cell; building them here checks the specs
        for text in (S1_LIKE, ROBUST_DATA):
            tk.harness.parse_generator_spec(text)
        algorithms = ("kmeans", "tkmeans") if self.tiny else tk.ALGORITHMS
        cells = [(algo, str(iris_path), 3, "true") for algo in algorithms]
        cells += [(algo, S1_LIKE, 15, "false") for algo in algorithms]
        self.sections = len(cells)
        self.workdir = workdir
        for job_seed in set(self.job_seeds(seed) + self.memory_seeds()):
            lines = []
            for algo, data, k, standardize in cells:
                lines += [f"[{algo}@{Path(data).stem if data.endswith('.csv') else 's1'}]",
                          f"algo = {algo}", f"data = {data}", f"k = {k}", "repeats = 1",
                          f"base_seed = {job_seed}", f"standardize = {standardize}", ""]
            (workdir / f"bench-{job_seed}.cfg").write_text("\n".join(lines), encoding="utf-8")

    def run(self, tk, job_seed):
        bench_out = self.workdir / f"bench-{job_seed}.json"
        robust_out = self.workdir / f"robust-{job_seed}.json"
        algos = ROBUST_ALGOS[:2] if self.tiny else ROBUST_ALGOS
        codes = (
            tk.cli.main(["bench", "--config", str(self.workdir / f"bench-{job_seed}.cfg"),
                         "--format", "json", "--out", str(bench_out)]),
            tk.cli.main(["robust", "--gen", ROBUST_DATA, "--fractions", ROBUST_FRACTIONS,
                         "--algos", ",".join(algos), "--repeats", "1", "--base-seed", str(job_seed),
                         "--format", "json", "--out", str(robust_out)]),
        )
        return codes, bench_out, robust_out, len(algos) * len(ROBUST_FRACTIONS.split(","))

    def check(self, raw):
        codes, bench_out, robust_out, robust_rows = raw
        _require(codes == (0, 0), f"cli.main returned {codes}")
        outcome = Outcome(0, 0.0)
        for path, expected in ((bench_out, self.sections), (robust_out, robust_rows)):
            rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
            _require(len(rows) == expected, f"{path.name}: {len(rows)} rows, expected {expected}")
            for row in rows:
                _require(row["error"] is None, f"{row['name']}: {row['error']}")
                _require(len(row["runs"]) == 1, f"{row['name']}: {len(row['runs'])} runs")
                run = row["runs"][0]
                _require(len(run["loss_trace"]) == run["iterations"], f"{row['name']}: loss trace length")
                _require(all(math.isfinite(v) for v in run["loss_trace"]), f"{row['name']}: loss trace")
                _require(-1.0 <= run["ari"] <= 1.0 and math.isfinite(run["mse"]), f"{row['name']}: scores")
                outcome.iterations += run["iterations"]
                outcome.fit_s += run["time_sec"]
                outcome.ari.append(run["ari"])
                outcome.mse.append(run["mse"])
        return outcome


WORKLOADS = {cls.name: cls for cls in (EmP16, Hard100k, Protocol)}
