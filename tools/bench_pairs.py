"""Benchmark two git revisions in alternating pairs and write one BENCH_<n>.json.

Run from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --workload protocol --workload em-p16 --seed 101 --out BENCH_6.json

``--workload`` may repeat; left out, every workload of the change's
``BENCHMARK.json`` runs.

Each revision is exported with ``git archive`` into a temporary
directory, so only committed files take part.  Pair i runs
``perfbench/run.py --workload W --seed <seed + i> --seconds S --trace 0``,
with ``S`` the ``run_seconds`` of the change's ``BENCHMARK.json``, on both
trees one after the other, the parent first in even pairs and the
change first in odd ones, so host-speed drift within a pair shows in its
change/parent ratio rather than in one side's numbers.  The output holds
``run_seconds``, the machine record of the first run, each pair's
end-to-end metrics and ratios, and per metric the median and quartiles of
each side, of the ratio, the number of pairs the change won (direction
from ``BENCHMARK.json``) and two verdicts (see ``summarize``), which are
also printed as a table.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Unpack ``rev`` into ``dest``; returns the full commit id."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float):
    """One untraced benchmark run; returns (info, result) from its last two output lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs, metrics):
    """Per end-to-end metric of ``BENCHMARK.json`` (``metrics``), the quartiles, the wins and two verdicts.

    ``gain`` holds when the change won at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's quartile spread.
    ``within_bound`` is "yes" when the change's median is no worse than the
    parent's by more than ``bound`` times the parent's median, else "no";
    it is "unresolved" when the parent's quartile spread exceeds that
    margin, unless every change run beats every parent run.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        rows = [p for p in pairs if name in p["ratio"]]
        if not rows:
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        parent = [sign * p["parent"][name] for p in rows]  # signed, so larger is better
        change = [sign * p["change"][name] for p in rows]
        qp, qc = quartiles(parent), quartiles(change)
        spread, margin = qp["q3"] - qp["q1"], metric["bound"] * abs(qp["median"])
        if min(change) > max(parent):
            within = "yes"
        elif spread > margin:
            within = "unresolved"
        else:
            within = "yes" if qc["median"] >= qp["median"] - margin else "no"
        wins = sum(c > a for a, c in zip(parent, change))
        out[name] = {
            "parent": quartiles([p["parent"][name] for p in rows]),
            "change": quartiles([p["change"][name] for p in rows]),
            "ratio": quartiles([p["ratio"][name] for p in rows]),
            "change_wins": wins,
            "pairs": len(rows),
            "gain": 10 * wins >= 9 * len(rows) and qc["median"] - qp["median"] > spread,
            "within_bound": within,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision measured as the base")
    parser.add_argument("--change", required=True, help="git revision measured against it")
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="workload seed of pair 0; pair i uses seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    report = {"run_seconds": None, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            report[side] = export(getattr(args, side), tree)
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        report["run_seconds"] = benchmark["run_seconds"]
        for workload in args.workload or [w["name"] for w in benchmark["workloads"]]:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                row = {"seed": seed, "first": order[0]}
                for side in order:
                    info, result = run_bench(trees[side], workload, seed, report["run_seconds"])
                    if report["machine"] is None:
                        report["machine"] = {k: v for k, v in info["env"].items() if k not in ("workload_seed", "git_commit")}
                    row[side] = {name: m["value"] for name, m in result["metrics"].items()}
                    row[f"{side}_failed"] = result["failed"]
                    row[f"{side}_attempted"] = result["attempted"]
                row["ratio"] = {name: row["change"][name] / value
                                for name, value in row["parent"].items() if value and name in row["change"]}
                pairs.append(row)
                print(f"{workload} pair {i} seed {seed}: job_s_p50 ratio {row['ratio'].get('job_s_p50')}", flush=True)
            summary = summarize(pairs, benchmark["end_to_end"])
            report["workloads"][workload] = {"pairs": pairs, "summary": summary}
            for name, row in summary.items():
                print(f"{workload} {name}: parent {row['parent']['median']:.6g} change {row['change']['median']:.6g} "
                      f"wins {row['change_wins']}/{row['pairs']} gain {row['gain']} within_bound {row['within_bound']}")
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
