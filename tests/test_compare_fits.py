import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
import compare_fits  # noqa: E402


def record(labels=(0, 1), centers=((0.0,), (1.0,)), loss_trace=(2.0, 1.0), iterations=2, scale=1.0, peak_mb=1.5):
    return {"labels": list(labels), "centers": [list(c) for c in centers],
            "loss_trace": list(loss_trace), "iterations": iterations, "scale": scale, "peak_mb": peak_mb}


@pytest.mark.parametrize(
    "change, expected",
    [
        (record(), "bit-identical"),
        (record(centers=((0.0,), (1.0 + 1e-11,))), "centers within 1e-10"),
        (record(loss_trace=(2.0, 1.0 + 1e-15)), "centers within 1e-10"),
        (record(centers=((0.0,), (1.0 + 1e-9,))), "other"),
        (record(labels=(1, 0)), "labels differ"),
        (record(labels=(1, 0), iterations=3, loss_trace=(2.0, 1.0, 1.0)), "labels differ"),
        (record(iterations=3, loss_trace=(2.0, 1.0, 1.0)), "iterations differ"),
        (record(centers=((-0.0,), (1.0,))), "centers within 1e-10"),
        ({"error": "NumericalError: overflow"}, "other"),
    ],
)
def test_classify(change, expected):
    assert compare_fits.classify(record(), change) == expected


def test_the_centers_class_is_relative_to_the_data_scale():
    assert compare_fits.classify(record(scale=100.0), record(centers=((0.0,), (1.0 + 1e-9,)), scale=100.0)) \
        == "centers within 1e-10"
    small = record(centers=((0.0,), (1.0 + 1e-12,)), scale=1e-3)
    assert compare_fits.classify(record(scale=1e-3), small) == "other"


def test_labels_that_differ_between_coincident_components():
    # components 1 and 2 meet in the parent (gap 2e-11 at scale 1); component 0 is far from both
    centers = ((0.0, 0.0), (5.0, 5.0), (5.0, 5.0 + 2e-11))
    parent = record(labels=(0, 1, 2, 2), centers=centers, loss_trace=(3.0, 2.0))
    swapped = record(labels=(0, 2, 1, 2), centers=centers, loss_trace=(3.0, 2.0 + 1e-15))
    assert compare_fits.classify(parent, swapped) == "coincident components"
    # a point that moves between distinct components is a real label change
    assert compare_fits.classify(parent, record(labels=(1, 1, 2, 2), centers=centers)) == "labels differ"
    # so is a swap that comes with another iteration count or a moved single component
    assert compare_fits.classify(parent, record(labels=(0, 2, 1, 2), centers=centers, iterations=3)) \
        == "labels differ"
    moved = ((0.0, 1e-9), *centers[1:])
    assert compare_fits.classify(parent, record(labels=(0, 2, 1, 2), centers=moved)) == "labels differ"


def test_coincident_components_may_move_apart_but_not_together():
    # a group of three: components 1 and 2 are 1e-8 apart, 2 and 3 another 5e-8 (linked, 6e-8 end to end)
    centers = ((0.0, 0.0), (5.0, 5.0), (5.0, 5.0 + 1e-8), (5.0, 5.0 + 6e-8))
    parent = record(labels=(0, 1, 2, 3), centers=centers)
    apart = ((0.0, 0.0), (5.0, 5.0 - 3e-8), (5.0, 5.0 + 1e-8), (5.0, 5.0 + 9e-8))
    assert compare_fits.classify(parent, record(labels=(0, 1, 2, 3), centers=apart)) == "coincident components"
    together = ((0.0, 0.0), (5.0, 5.0 + 3e-8), (5.0, 5.0 + 4e-8), (5.0, 5.0 + 9e-8))
    assert compare_fits.classify(parent, record(labels=(0, 1, 2, 3), centers=together)) == "other"
    far = ((0.0, 0.0), (5.0, 5.0 - 3e-7), (5.0, 5.0 + 1e-8), (5.0, 5.0 + 3.6e-7))
    assert compare_fits.classify(parent, record(labels=(0, 1, 2, 3), centers=far)) == "other"


def test_an_entry_keeps_the_moved_labels_and_the_centers_of_a_changed_fit():
    centers = ((0.0, 0.0), (5.0, 5.0), (5.0, 5.0 + 2e-11))
    parent = record(labels=(0, 1, 2, 2), centers=centers, loss_trace=(3.0, 2.0))
    swapped = record(labels=(0, 2, 1, 2), centers=centers, loss_trace=(3.0, 2.0 + 1e-15))
    key = {"algorithm": "tkmeans", "cell": "s1", "seed": 7}
    out = compare_fits.entry({**parent, **key}, {**swapped, **key})
    assert out == {**key, "class": "coincident components", "peak_mb": [1.5, 1.5], "gap": 0.0, "scale": 1.0,
                   "iterations": [2, 2], "moved": [[1, 1, 2], [2, 2, 1]],
                   "centers": [parent["centers"], swapped["centers"]]}
    same = compare_fits.entry({**parent, **key}, {**parent, **key})
    assert same["class"] == "bit-identical" and same["moved"] == [] and "centers" not in same
    failed = compare_fits.entry({"error": "NumericalError: overflow", **key}, {**parent, **key})
    assert failed == {**key, "class": "other", "peak_mb": [None, 1.5], "errors": ["NumericalError: overflow", None]}


def test_moved_labels_are_counted_in_every_class():
    # a swap inside a group of coincident components moves labels, though its class admits them
    centers = ((0.0, 0.0), (5.0, 5.0), (5.0, 5.0 + 2e-11))
    key = {"algorithm": "tkmeans", "cell": "s1", "seed": 7}
    parent = {**record(labels=(0, 1, 2, 2), centers=centers, loss_trace=(3.0, 2.0)), **key}
    swapped = {**record(labels=(0, 2, 1, 2), centers=centers, loss_trace=(3.0, 2.0 + 1e-15)), **key}
    moved_one = {**record(labels=(1, 1, 2, 2), centers=centers), **key}
    pairs = [compare_fits.entry(parent, b) for b in (parent, swapped, swapped, moved_one, {"error": "x", **key})]
    counts = compare_fits.moved_labels(pairs)
    assert list(counts) == list(compare_fits.CLASSES)
    assert counts["coincident components"] == [2, 4]
    assert counts["labels differ"] == [1, 1]
    assert counts["bit-identical"] == [0, 0] and counts["other"] == [0, 0]


def test_main_prints_the_moved_labels_of_each_class(monkeypatch, capsys, tmp_path):
    centers = ((0.0, 0.0), (5.0, 5.0), (5.0, 5.0 + 2e-11))
    key = {"algorithm": "tkmeans", "cell": "s1", "seed": 7}
    parent = {**record(labels=(0, 1, 2, 2), centers=centers, loss_trace=(3.0, 2.0)), **key}
    swapped = {**record(labels=(0, 2, 1, 2), centers=centers, loss_trace=(3.0, 2.0 + 1e-15)), **key}
    sides = iter([[parent, parent], [parent, swapped]])
    monkeypatch.setattr(compare_fits, "run_tree", lambda tree, seeds: next(sides))
    assert compare_fits.main(["--parent", str(tmp_path), "--change", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "coincident components: 1" in out and "labels differ: 0" in out
    assert "moved labels in coincident components: 1 fits, 2 points" in out
    assert "moved labels in bit-identical: 0 fits, 0 points" in out
    assert "moved labels in labels differ: 0 fits, 0 points" in out


def test_matching_failures_are_identical():
    failed = {"error": "NumericalError: overflow"}
    assert compare_fits.classify(failed, dict(failed)) == "bit-identical"
    assert compare_fits.classify(failed, {"error": "DomainError: bad"}) == "other"


def test_parse_seeds():
    assert compare_fits.parse_seeds("7000-7003") == [7000, 7001, 7002, 7003]
    assert compare_fits.parse_seeds("5,1") == [5, 1]


def test_a_directory_is_its_own_source_tree(tmp_path):
    assert compare_fits.source_tree(str(tmp_path), tmp_path / "unused") == tmp_path
    assert not (tmp_path / "unused").exists()


def test_a_git_revision_is_exported(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src" / "tkmeans").mkdir(parents=True)
    (repo / "src" / "tkmeans" / "__init__.py").write_text("committed\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "src" / "tkmeans" / "__init__.py").write_text("not committed\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    tree = compare_fits.source_tree("HEAD", tmp_path / "parent")
    assert tree == tmp_path / "parent"
    assert (tree / "src" / "tkmeans" / "__init__.py").read_text() == "committed\n"


def test_the_em_p16_cell(iris_path):
    cells = compare_fits.cells(str(iris_path))
    assert len(cells) == 9 * 5 + 1
    algorithm, cell, k, fraction, base, options = cells[-1]
    assert (algorithm, cell, k, fraction) == ("tkmeans", "em-p16", 15, None)
    assert base.samples.shape == (3000, 16) and options == {"tol": 1e-12, "max_iter": 30}


def test_the_peak_memory_does_not_change_the_class():
    assert compare_fits.classify(record(), record(peak_mb=9.0)) == "bit-identical"
    assert compare_fits.entry({**record(), "algorithm": "kmeans", "cell": "s1", "seed": 1},
                              {**record(peak_mb=0.5), "algorithm": "kmeans", "cell": "s1", "seed": 1}
                              )["peak_mb"] == [1.5, 0.5]


def test_cell_peaks_are_the_largest_per_side():
    def pair(algorithm, cell, peaks):
        return {"algorithm": algorithm, "cell": cell, "peak_mb": list(peaks)}

    pairs = [pair("kmeans", "s1", (0.4, 0.3)), pair("kmeans", "s1", (0.5, 0.2)), pair("kmeans", "iris", (0.1, 0.2)),
             pair("tmm", "s1", (None, 0.7)), pair("tmm", "s1", (None, 0.6))]
    assert compare_fits.cell_peaks(pairs) == {("kmeans", "s1"): (0.5, 0.3), ("kmeans", "iris"): (0.1, 0.2),
                                              ("tmm", "s1"): (None, 0.7)}


def test_the_worker_records_each_fits_tracemalloc_peak(monkeypatch, iris_path):
    # two small cells of the protocol's kind, one of them a hard fit on the S1-like blobs
    from tkmeans import harness

    s1 = harness.parse_generator_spec(compare_fits.S1_LIKE)
    monkeypatch.setattr(compare_fits, "cells", lambda path: [("kmeans", "s1", 15, None, s1, {}),
                                                             ("gmm", "s1", 15, None, s1, {"max_iter": 3})])
    out = compare_fits.refit([7000, 7001], str(iris_path))
    assert [(f["algorithm"], f["seed"]) for f in out["fits"]] == [("kmeans", 7000), ("kmeans", 7001),
                                                                  ("gmm", 7000), ("gmm", 7001)]
    for fit in out["fits"]:
        assert "error" not in fit
        # the (p+2, N) distance block of 1500 points alone is 48 KB; the whole fit stays well under 5 MB
        assert 0.048 < fit["peak_mb"] < 5.0


def test_the_worker_runs_blas_on_one_thread(tmp_path, monkeypatch):
    # bit-identity must not depend on the caller's shell: some fits differ in the last bits between thread counts
    seen = {}

    def run(cmd, env, **kwargs):
        seen.update(env)
        module = str(tmp_path / "src" / "tkmeans" / "__init__.py")
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps({"module": module, "fits": []}), stderr="")

    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "2")
    monkeypatch.setattr(compare_fits.subprocess, "run", run)
    assert compare_fits.run_tree(tmp_path, "7000") == []
    assert {name: seen[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} == \
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert seen["PYTHONPATH"] == str(tmp_path / "src")
