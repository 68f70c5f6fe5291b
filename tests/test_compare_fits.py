import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
import compare_fits  # noqa: E402


def record(labels=(0, 1), centers=((0.0,), (1.0,)), loss_trace=(2.0, 1.0), iterations=2):
    return {"labels": list(labels), "centers": [list(c) for c in centers],
            "loss_trace": list(loss_trace), "iterations": iterations}


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
