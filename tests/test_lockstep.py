import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import lockstep  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_ratios_of_a_batch():
    row = {"parent": {"job_s": 2.0, "fit_s": 1.0, "iterations": 30},
           "change": {"job_s": 1.5, "fit_s": 0.5, "iterations": 30}}
    assert lockstep.ratios(row) == {"job_s": 0.75, "iters_per_s": 2.0}


def test_summary_takes_quartiles_and_wins_per_ratio():
    batches = [{"ratio": {"job_s": j, "iters_per_s": 1.0 / j}} for j in (0.8, 0.9, 1.0, 1.1, 1.2)]
    summary = lockstep.summarize(batches)
    assert summary["job_s"] == {"q1": 0.9, "median": 1.0, "q3": 1.1, "change_wins": 2, "batches": 5}
    # a tie wins for neither side
    assert summary["iters_per_s"]["change_wins"] == 2 and summary["iters_per_s"]["median"] == 1.0


def test_a_tiny_run_of_one_tree_against_itself(tmp_path):
    out = tmp_path / "lockstep.json"
    cmd = [sys.executable, str(ROOT / "tools" / "lockstep.py"), "--parent", str(ROOT), "--change", str(ROOT),
           "--workload", "em-p16", "--tiny", "--batches", "2", "--jobs", "1", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())["workloads"]["em-p16"]
    assert set(report["modules"].values()) == {str((ROOT / "src" / "tkmeans" / "__init__.py").resolve())}
    assert [row["first"] for row in report["batches"]] == ["parent", "change"]
    for row in report["batches"]:
        # the same job seed on both sides: a fixed budget of 30 EM iterations
        assert row["parent"]["iterations"] == row["change"]["iterations"] == 30
        assert all(0.0 < ratio < float("inf") for ratio in row["ratio"].values())
    assert report["summary"]["job_s"]["batches"] == 2
    assert "em-p16 job_s change/parent: median" in proc.stdout
    assert list(tmp_path.iterdir()) == [out]
