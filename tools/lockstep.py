"""Time the benchmark jobs of two source trees in lockstep and report the per-batch change/parent ratios.

Run from the root of a checkout::

    python3 tools/lockstep.py --parent HEAD~1 --change . --workload em-p16 --batches 30 --jobs 10 \\
        --out lockstep.json

``--parent`` and ``--change`` each name a source tree as for
``compare_fits.py``: a directory, or else a git revision of this checkout
exported with ``git archive`` (so only committed files take part).
``--workload`` may repeat.  Per workload, one worker process per tree, with
``PYTHONPATH=DIR/src`` and BLAS on one thread, builds the workload from that
tree's own ``perfbench/workloads.py`` (workload seed ``--seed``), runs and
checks one warm-up job, then answers batch requests: it runs ``--jobs``
jobs, timing each ``run`` and validating it with ``check``, and replies
with their summed job time, library-reported fit time and iterations.
Batch b asks both workers for the same job seeds, the parent first in even
batches and the change first in odd ones, so drift in host speed reaches
both sides of a batch alike.  Each batch gives two change/parent ratios:
of the summed job time (``job_s``) and of the iterations per second of fit
time (``iters_per_s``, as ``perfbench/run.py`` defines it).  The tool
prints and writes to ``--out`` the median and quartiles of each ratio over
the batches and the batches the change won (``job_s`` below 1,
``iters_per_s`` above 1), with every batch's sums.  The workers stay warm
for the whole run, so the ratios leave out interpreter start-up and the
workload's set-up, which ``perfbench/run.py`` measures.  Standard library
only in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import quartiles
from compare_fits import BLAS_ENV, source_tree

SIDES = ("parent", "change")


class Worker:
    """One tree's worker process; requests go to its stdin and replies come back as JSON lines."""

    def __init__(self, tree: Path, workload: str, seed: int, tiny: bool):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--workload", workload,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.tree = tree
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker of {self.tree} exited {self.proc.wait()}; its stderr is above")
        return json.loads(line)

    def batch(self, start: int, jobs: int) -> dict:
        self.proc.stdin.write(f"{start} {jobs}\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        """End the worker: EOF on its stdin, or a kill if it does not exit within a minute."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve(tree: Path, name: str, seed: int, tiny: bool) -> int:
    """The worker: build the workload of ``tree``, warm up, then run the batches read from stdin."""
    channel, sys.stdout = sys.stdout, sys.stderr  # whatever a job prints must not reach the replies
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    import tkmeans
    import tkmeans.cli  # noqa: F401 - the protocol jobs call tkmeans.cli.main

    origin = Path(tkmeans.__file__).resolve()
    if not origin.is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"tkmeans was imported from {origin}, not from {tree}")
    workload = workloads.WORKLOADS[name](tiny=tiny)
    with tempfile.TemporaryDirectory() as workdir:
        workload.build(tkmeans, seed, Path(workdir))
        seeds = workload.job_seeds(seed)
        workload.check(workload.run(tkmeans, seeds[0]))
        channel.write(json.dumps({"module": str(origin)}) + "\n")
        channel.flush()
        for line in sys.stdin:
            start, jobs = map(int, line.split())
            sums = {"job_s": 0.0, "fit_s": 0.0, "iterations": 0}
            for i in range(start, start + jobs):
                begin = time.perf_counter()
                raw = workload.run(tkmeans, seeds[i % len(seeds)])
                sums["job_s"] += time.perf_counter() - begin
                outcome = workload.check(raw)
                sums["fit_s"] += outcome.fit_s
                sums["iterations"] += outcome.iterations
            channel.write(json.dumps(sums) + "\n")
            channel.flush()
    return 0


def ratios(row: dict) -> dict:
    """A batch's change/parent ratios of the summed job time and of the iterations per fit-second."""
    rate = {side: row[side]["iterations"] / row[side]["fit_s"] for side in SIDES}
    return {"job_s": row["change"]["job_s"] / row["parent"]["job_s"], "iters_per_s": rate["change"] / rate["parent"]}


def summarize(batches: list[dict]) -> dict:
    """Per ratio, its median and quartiles over the batches and the batches the change won."""
    out = {}
    for name, won in (("job_s", lambda r: r < 1.0), ("iters_per_s", lambda r: r > 1.0)):
        values = [row["ratio"][name] for row in batches]
        out[name] = {**quartiles(values), "change_wins": sum(map(won, values)), "batches": len(values)}
    return out


def run_workload(trees: dict, workload: str, args) -> dict:
    """Both trees' workers for one workload, driven through ``args.batches`` alternating batches."""
    workers = {}
    try:
        for side in SIDES:
            workers[side] = Worker(trees[side], workload, args.seed, args.tiny)
        modules = {side: worker.reply()["module"] for side, worker in workers.items()}
        batches = []
        for b in range(args.batches):
            order = SIDES if b % 2 == 0 else SIDES[::-1]
            row = {side: workers[side].batch(b * args.jobs, args.jobs) for side in order}
            row.update(first=order[0], ratio=ratios(row))
            batches.append(row)
            print(f"{workload} batch {b}: job_s ratio {row['ratio']['job_s']:.4f} "
                  f"iters_per_s ratio {row['ratio']['iters_per_s']:.4f}", flush=True)
    finally:
        for worker in workers.values():
            worker.close()
    summary = summarize(batches)
    for name, row in summary.items():
        print(f"{workload} {name} change/parent: median {row['median']:.4f} (q1 {row['q1']:.4f}, q3 {row['q3']:.4f}), "
              f"change wins {row['change_wins']}/{row['batches']}")
    return {"modules": modules, "batches": batches, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="source tree measured as the base: a directory or a git revision")
    parser.add_argument("--change", help="source tree compared with it: a directory or a git revision")
    parser.add_argument("--workload", action="append", help="a workload of perfbench/workloads.py; may repeat")
    parser.add_argument("--batches", type=int, default=30)
    parser.add_argument("--jobs", type=int, default=10, help="jobs per batch on each tree")
    parser.add_argument("--seed", type=int, default=0, help="the workload seed, which draws the job seeds")
    parser.add_argument("--tiny", action="store_true", help="the workloads' small inputs, for a smoke test")
    parser.add_argument("--out", type=Path, help="JSON output path")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return serve(args.worker, args.workload[0], args.seed, args.tiny)
    if args.parent is None or args.change is None or not args.workload:
        parser.error("--parent, --change and --workload are required")
    if args.batches < 1 or args.jobs < 1:
        parser.error("--batches and --jobs must be >= 1")
    report = {"batches": args.batches, "jobs": args.jobs, "seed": args.seed, "tiny": args.tiny, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: source_tree(getattr(args, side), Path(tmp) / side) for side in SIDES}
        for workload in args.workload:
            report["workloads"][workload] = run_workload(trees, workload, args)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
