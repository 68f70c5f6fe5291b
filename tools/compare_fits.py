"""Refit every algorithm in two source trees and classify how each fit differs.

Run from the root of a checkout::

    python3 tools/compare_fits.py --parent HEAD~1 --change . --out fits.json

``--parent`` and ``--change`` each name a source tree: a directory, or
else a git revision of this checkout, exported with ``git archive`` into a
temporary directory (so only committed files take part).  The fits are the
cells of the ``protocol`` benchmark workload, each refitted over
``--seeds`` (default 7000-7039) for every name in ``harness.ALGORITHMS``:

* standardized Iris (``data/iris.csv`` of this checkout), K=3;
* the S1-like blobs ``blobs:k=15,n=100,p=2,std=0.45,box=10,seed=43``, K=15;
* the ``robust`` blobs ``blobs:k=4,n=75,p=2,std=0.5,box=8,seed=11``,
  contaminated at outlier fractions 0, 0.05 and 0.1 with the fit's seed
  (box expansion 2, as ``tkmeans robust`` does), K=4;

and the cell of the ``em-p16`` workload, ``tkmeans`` alone over the same
seeds: ``generate_gaussian_blobs(15, 200, 16, seed=0)``, K=15, ``tol=1e-12``
and ``max_iter=30``.

Each tree's fits run in their own subprocess, with ``PYTHONPATH=DIR/src``
and BLAS on one thread (``BLAS_ENV``, as ``perfbench/run.py`` sets it, since
some fits differ in the last bits between thread counts),
through ``harness.run_once``, which also records the largest |coordinate|
of each fit's data as its ``scale`` and the ``tracemalloc`` peak of the
``run_once`` call (the fit and its metrics) as its ``peak_mb``.  Each fit pair is classified, in this
order, as ``bit-identical`` (labels, centers, loss trace and iteration
count equal bit for bit, or both fits failed with one message), ``centers
within 1e-10`` (same labels and iterations, centers at most 1e-10 x scale
apart in every coordinate), ``coincident components`` (same iterations,
and every difference stays inside a group of coincident components),
``labels differ``, ``iterations differ`` or ``other`` (one fit failed, or
same labels and iterations with centers farther apart).  Coincident
components are parent components whose centers lie within 1e-7 x scale
of each other, linked in groups; EM moves such a group as one and hardly
separates it, so rounding can move a point between its members, or move
the members apart along the direction that separates them.  Within a
group the labels may differ and the centers may move by up to 1e-7 x
scale, as long as the group's mean center stays within 1e-10 x scale; a
single component keeps the 1e-10 x scale bound.  The per-class counts,
with how many fits of each class moved labels and how many points they
moved (so a moved label shows also where its class admits it), each
cell's largest raw center gap and each cell's largest ``peak_mb`` on
either side go to stdout, and every fit pair to ``--out`` (see
``entry``).  Standard library only in this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

from bench_pairs import export

ROOT = Path(__file__).resolve().parent.parent
S1_LIKE = "blobs:k=15,n=100,p=2,std=0.45,box=10,seed=43"
ROBUST_DATA = "blobs:k=4,n=75,p=2,std=0.5,box=8,seed=11"
FRACTIONS = (0.0, 0.05, 0.1)
CLOSE = 1e-10  # times the largest |coordinate| of the fit's data
COINCIDENT = 1e-7  # as CLOSE: parent centers this close form one group of coincident components
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLASSES = ("bit-identical", "centers within 1e-10", "coincident components", "labels differ", "iterations differ",
           "other")


def parse_seeds(text: str) -> list[int]:
    """``"7000-7039"`` or ``"1,5,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cells(iris_path: str) -> list[tuple]:
    """(algorithm, cell, K, outlier fraction or None, base dataset, ``RunSpec`` options) of every refitted cell."""
    from tkmeans import datasets, harness

    iris = datasets.standardize(datasets.load_csv_labeled(iris_path))[0]
    robust = harness.parse_generator_spec(ROBUST_DATA)
    protocol = [("iris", 3, None, iris), ("s1", 15, None, harness.parse_generator_spec(S1_LIKE))]
    protocol += [(f"robust-{f:g}", robust.n_classes, f, robust) for f in FRACTIONS]
    out = [(algorithm, *cell, {}) for algorithm in harness.ALGORITHMS for cell in protocol]
    em_p16 = datasets.generate_gaussian_blobs(15, 200, 16, seed=0)
    return out + [("tkmeans", "em-p16", 15, None, em_p16, {"tol": 1e-12, "max_iter": 30})]


def refit(seeds: list[int], iris_path: str) -> dict:
    """Every fit of the cells over ``seeds`` with the ``tkmeans`` on ``sys.path``; runs in the worker."""
    import tkmeans
    from tkmeans import datasets, harness

    fits = []
    for algorithm, cell, k, fraction, base, options in cells(iris_path):
        for seed in seeds:
            record = {"algorithm": algorithm, "cell": cell, "seed": seed}
            try:
                data = base if fraction is None else datasets.contaminate(
                    base, datasets.ContaminationSpec(fraction, 2.0, seed=seed))
                spec = harness.RunSpec(algorithm, data, k, **options)
                tracemalloc.start()
                try:
                    result, _ = harness.run_once(spec, seed, data=data)
                finally:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                record.update(labels=result.labels.tolist(), centers=result.centers.tolist(),
                              loss_trace=result.loss_trace.tolist(), iterations=result.iterations,
                              scale=float(abs(data.samples).max()))
            except Exception as exc:  # noqa: BLE001 - a failed fit is one more outcome to compare
                record["error"] = f"{type(exc).__name__}: {exc}"
            fits.append(record)
    return {"module": tkmeans.__file__, "fits": fits}


def center_gap(a: dict, b: dict) -> float:
    """The largest coordinate difference between the centers of two fit records."""
    return max(abs(u - v) for ru, rv in zip(a["centers"], b["centers"]) for u, v in zip(ru, rv))


def groups(centers: list, tol: float) -> list[int]:
    """Each component's group: components whose centers lie within ``tol`` of each other, linked."""
    group = list(range(len(centers)))
    for i in range(len(centers)):
        for j in range(i):
            if group[i] != group[j] and math.dist(centers[i], centers[j]) <= tol:
                old = group[i]
                group = [group[j] if g == old else g for g in group]
    return group


def coincident(a: dict, b: dict) -> bool:
    """Whether every label and center difference of two fits stays inside a group of coincident components."""
    scale = a["scale"]
    group = groups(a["centers"], COINCIDENT * scale)
    if any(group[u] != group[v] for u, v in zip(a["labels"], b["labels"])):
        return False
    for g in set(group):
        members = [j for j, h in enumerate(group) if h == g]
        moves = [[v - u for u, v in zip(a["centers"][j], b["centers"][j])] for j in members]
        bound = CLOSE * scale if len(members) == 1 else COINCIDENT * scale
        if any(abs(m) > bound for move in moves for m in move):
            return False
        if any(abs(sum(axis)) / len(members) > CLOSE * scale for axis in zip(*moves)):
            return False
    return True


def classify(a: dict, b: dict) -> str:
    """The class of one fit pair, from two records as ``refit`` writes them."""
    if "error" in a or "error" in b:
        return "bit-identical" if a.get("error") == b.get("error") else "other"
    # JSON writes each float as its shortest round-trip repr, so equal text is equal bits
    if all(json.dumps(a[key]) == json.dumps(b[key]) for key in ("labels", "centers", "loss_trace", "iterations")):
        return "bit-identical"
    same_iterations = a["iterations"] == b["iterations"]
    if same_iterations and a["labels"] == b["labels"] and center_gap(a, b) <= CLOSE * a["scale"]:
        return "centers within 1e-10"
    if same_iterations and coincident(a, b):
        return "coincident components"
    if a["labels"] != b["labels"]:
        return "labels differ"
    return "other" if same_iterations else "iterations differ"


def entry(a: dict, b: dict) -> dict:
    """One fit pair as ``--out`` writes it.

    Its key, class, both ``tracemalloc`` peaks in MB (None for a fit that
    failed before its ``run_once``) and either both errors or: the largest
    center gap, the data scale, both iteration counts and each point whose
    label differs as ``[index, parent label, change label]``, plus both
    fits' centers unless the pair is bit-identical or its centers are
    within 1e-10.
    """
    out = {name: a[name] for name in ("algorithm", "cell", "seed")}
    out["class"] = classify(a, b)
    out["peak_mb"] = [a.get("peak_mb"), b.get("peak_mb")]
    if "error" in a or "error" in b:
        return {**out, "errors": [a.get("error"), b.get("error")]}
    out.update(gap=center_gap(a, b), scale=a["scale"], iterations=[a["iterations"], b["iterations"]],
               moved=[[i, u, v] for i, (u, v) in enumerate(zip(a["labels"], b["labels"])) if u != v])
    if out["class"] not in ("bit-identical", "centers within 1e-10"):
        out["centers"] = [a["centers"], b["centers"]]
    return out


def cell_peaks(pairs: list[dict]) -> dict:
    """Each cell's largest ``peak_mb`` on the parent and on the change side (None if none), from ``entry`` records."""
    sides: dict = {}
    for pair in pairs:
        for side, peak in zip(sides.setdefault((pair["algorithm"], pair["cell"]), ([], [])), pair["peak_mb"]):
            if peak is not None:
                side.append(peak)
    return {cell: tuple(max(side, default=None) for side in both) for cell, both in sides.items()}


def moved_labels(pairs: list[dict]) -> dict:
    """Per class, the number of fit pairs whose labels moved and the points they moved, from ``entry`` records."""
    out = {name: [0, 0] for name in CLASSES}
    for pair in pairs:
        moved = len(pair.get("moved", ()))
        out[pair["class"]][0] += moved > 0
        out[pair["class"]][1] += moved
    return out


def source_tree(name: str, scratch: Path) -> Path:
    """``name`` as a directory, or else the git revision ``name`` exported into ``scratch``."""
    if Path(name).is_dir():
        return Path(name)
    export(name, scratch)
    return scratch


def run_tree(tree: Path, seeds: str) -> list[dict]:
    """Refit in a subprocess that imports ``tkmeans`` from ``tree/src``, with BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ENV)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seeds", seeds]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"refit in {tree} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"refit in {tree} imported tkmeans from {out['module']}")
    return out["fits"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="source tree measured as the base: a directory or a git revision")
    parser.add_argument("--change", help="source tree compared with it: a directory or a git revision")
    parser.add_argument("--seeds", default="7000-7039", help="a range lo-hi or a comma list")
    parser.add_argument("--out", type=Path, help="per-fit JSON output path")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(refit(parse_seeds(args.seeds), str(ROOT / "data" / "iris.csv")), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (run_tree(source_tree(getattr(args, side), Path(tmp) / side), args.seeds)
                          for side in ("parent", "change"))
    pairs = [entry(a, b) for a, b in zip(parent, change, strict=True)]
    gaps = {}
    for pair in pairs:
        if "gap" in pair:
            cell = (pair["algorithm"], pair["cell"])
            gaps[cell] = max(gaps.get(cell, 0.0), pair["gap"])
    counts = Counter(p["class"] for p in pairs)
    for name in CLASSES:
        print(f"{name}: {counts[name]}")
    print(f"total: {len(pairs)}")
    for name, (fits, points) in moved_labels(pairs).items():
        print(f"moved labels in {name}: {fits} fits, {points} points")
    for (algorithm, cell), gap in gaps.items():
        print(f"max center gap {algorithm} {cell}: {gap:.3g}")
    for (algorithm, cell), peaks in cell_peaks(pairs).items():
        parent_mb, change_mb = ("-" if mb is None else f"{mb:.3f}" for mb in peaks)
        print(f"max peak MB {algorithm} {cell}: parent {parent_mb}, change {change_mb}")
    if args.out:
        args.out.write_text(json.dumps(pairs) + "\n", encoding="utf-8")
    return 0 if counts["bit-identical"] == len(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
