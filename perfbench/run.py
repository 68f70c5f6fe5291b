"""tkmeans benchmark: one closed-loop caller running seeded jobs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload em-p16 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed number of jobs twice each, untraced and then
traced, and reports per-layer metrics (see ``tracing.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the environment and the run's sample counts.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, bindings  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_CHILDREN = 8  # extra fresh-process set-ups per timed run; set-up_s is the median
# the dataset layers a workload's build calls, reported from one traced build
SETUP_LAYERS = ("datasets.generate_gaussian_blobs", "datasets.load_csv_labeled", "datasets.standardize")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must happen before numpy is imported.

    The loop has one caller, so one job occupies one core; a second BLAS
    thread would compete with whatever else runs on the other cores.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return 1


def setup(workload, seed: int, workdir: Path):
    """Import tkmeans from this checkout and build the workload's inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tkmeans
    import tkmeans.cli  # noqa: F401 - the protocol jobs call tkmeans.cli.main

    origin = Path(tkmeans.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"tkmeans was imported from {origin}, not from this checkout")
    workload.build(tkmeans, seed, workdir)
    return tkmeans, time.perf_counter() - start


def child_setup_seconds(args) -> list[float]:
    """Time the set-up again in fresh interpreters, where the import is cold for Python."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_job(tk, workload, job_seed, first_outcomes, runner=None):
    """Run and check one job; returns (seconds, outcome) or raises."""
    start = time.perf_counter()
    raw = runner(workload.run, tk, job_seed) if runner else workload.run(tk, job_seed)
    seconds = time.perf_counter() - start
    outcome = workload.check(raw)
    first = first_outcomes.setdefault(job_seed, outcome)
    if first.fingerprint() != outcome.fingerprint():
        raise CheckFailed(f"job seed {job_seed} gave a different result on a repeat")
    return seconds, outcome


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile, not below the median, with >= 10 samples beyond it.

    Returns (value, percentile).  With fewer than 20 samples that is the
    median itself.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def timed_pass(tk, workload, seeds, seconds):
    """Closed loop: one untimed warm-up job, at least one job per seed, then more while they fit in ``seconds``."""
    samples, outcomes, failed = [], {}, 0
    iterations, fit_s = 0, 0.0
    try:  # the first calls of each code path are not timed; the job seed is checked again when it is
        run_job(tk, workload, seeds[0], outcomes)
    except Exception:  # noqa: BLE001 - counted; the same seed fails again in the timed loop
        traceback.print_exc(file=sys.stderr)
        failed += 1
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        ok = [s for s in samples if math.isfinite(s)]
        if i >= len(seeds) and (not ok or elapsed + statistics.median(ok) > seconds):
            break
        job_seed = seeds[i % len(seeds)]
        i += 1
        try:
            dt, outcome = run_job(tk, workload, job_seed, outcomes)
        except Exception:  # noqa: BLE001 - a failed job is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            samples.append(math.inf)
            continue
        samples.append(dt)
        iterations += outcome.iterations
        fit_s += outcome.fit_s
    measured = time.perf_counter() - start
    # a failed job misses every latency limit: rank it last, at the whole run's length
    samples = [s if math.isfinite(s) else measured for s in samples]
    return samples, len(samples) + 1, outcomes, failed, iterations, fit_s, measured


def peak_mem_mb(tk, workload) -> float:
    """Largest tracemalloc peak of the workload's memory jobs, each in its own untimed pass."""
    peaks = []
    for job_seed in workload.memory_seeds():
        tracemalloc.start()
        try:
            workload.run(tk, job_seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 1e6


def end_to_end(args, tk, workload, seeds, setup_s):
    setups = [setup_s] + child_setup_seconds(args)
    samples, attempted, outcomes, failed, iterations, fit_s, measured = timed_pass(tk, workload, seeds, args.seconds)
    tail_s, tail_pct = tail(samples)
    ari = [v for o in outcomes.values() for v in o.ari]
    mse = [v for o in outcomes.values() for v in o.mse]
    correct = failed == 0 and len(outcomes) == len(seeds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s_p50": (statistics.median(samples), "s"),
        "job_s_tail": (tail_s, "s"),
        "iters_per_s": (iterations / fit_s if fit_s > 0 else 0.0, "1/s"),
        "peak_mem_mb": (peak_mem_mb(tk, workload), "MB"),
        "ari_mean": (statistics.fmean(ari) if ari else 0.0, "ratio"),
        "mse_mean": (statistics.fmean(mse) if mse else 0.0, "sq_units"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "jobs": attempted,  # the warm-up job and the timed ones
        "timed_jobs": len(samples),
        "distinct_job_seeds": len(seeds),
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_samples_beyond": sum(s > tail_s for s in samples),
        "error_rate": failed / attempted,
        "measured_s": measured,
        "setup_s_samples": setups,
    }
    return correct, attempted, failed, metrics, info


def per_layer(args, tk, workload, seeds, workdir):
    before = bindings()
    setup_tracer = Tracer()
    with setup_tracer:
        setup_tracer.job(workload.build, tk, args.seed, workdir)
    tracer = Tracer()
    untraced, outcomes, attempted, failed = [], {}, 0, 0
    for job_seed in seeds[:workload.traced_jobs]:
        # the same job seed untraced, then traced: their medians give the tracing overhead
        for traced in (False, True):
            attempted += 1
            try:
                if traced:
                    with tracer:
                        run_job(tk, workload, job_seed, outcomes, runner=tracer.job)
                else:
                    untraced.append(run_job(tk, workload, job_seed, outcomes)[0])
            except Exception:  # noqa: BLE001 - a failed job is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                failed += 1
    changed = [key for key, value in bindings().items() if before.get(key) is not value]
    if changed:
        raise RuntimeError(f"module attributes not restored after tracing: {changed}")
    metrics = tracer.metrics()
    traced_s = statistics.fmean(tracer.job_s)
    layer_self = sum(s.self_s for s in tracer.layers.values()) / len(tracer.job_s)
    metrics.update({
        "trace.job_s_p50_untraced": (statistics.median(untraced), "s"),
        "trace.job_s_p50_traced": (statistics.median(tracer.job_s), "s"),
        "trace.overhead": (statistics.median(tracer.job_s) / statistics.median(untraced), "ratio"),
        "trace.layer_share": (layer_self / traced_s, "ratio"),
    })
    for name in SETUP_LAYERS:
        stats = setup_tracer.layers[name]
        metrics[f"setup.{name}.calls"] = (stats.calls, "count")
        metrics[f"setup.{name}.self_s"] = (stats.self_s, "s")
    info = {"traced_jobs": len(tracer.job_s), "error_rate": failed / attempted}
    return failed == 0, attempted, failed, metrics, info


def environment(threads: int, seed: int) -> dict:
    import numpy

    env = {
        "nproc": nproc(),
        "cpu_model": None,
        "l3_cache": None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": threads,
        "workload_seed": seed,
        "git_commit": git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                env["l3_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the work directory is removed and children are reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        tk, setup_s = setup(workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        seeds = workload.job_seeds(args.seed)
        if args.trace:
            correct, attempted, failed, metrics, info = per_layer(args, tk, workload, seeds, workdir)
        else:
            correct, attempted, failed, metrics, info = end_to_end(args, tk, workload, seeds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    info.update(workload=args.workload, trace=args.trace, env=environment(threads, args.seed))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
