"""Smoke test of the benchmark on tiny versions of every workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import BOUNDARIES, Tracer, bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    assert info["env"]["workload_seed"] == seed and info["env"]["blas_threads"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_named_with_units_and_reproducible(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        first, second = bench(workload, trace), bench(workload, trace)
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in first.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in first.values())
        deterministic = [n for n in expected if n in ("ari_mean", "mse_mean") or n.startswith("solver.")]
        assert deterministic
        for name in deterministic:
            assert first[name]["value"] == second[name]["value"], name


def test_tracer_restores_module_attributes():
    sys.path.insert(0, str(ROOT / "src"))
    import tkmeans
    import tkmeans.cli  # noqa: F401

    before = bindings()
    workload = WORKLOADS["em-p16"](tiny=True)
    workload.build(tkmeans, 0, HERE)
    tracer = Tracer()
    with tracer:
        assert tkmeans._util.pairwise_sq_dists is not before[("tkmeans._util", "pairwise_sq_dists")]
        assert tkmeans.core.log_sum_exp is not before[("tkmeans.core", "log_sum_exp")]
        tracer.job(workload.run, tkmeans, 0)
    after = bindings()
    assert [k for k in before if after[k] is not before[k]] == []
    layers = tracer.metrics()
    assert layers["tkmeans.core.fit.calls"][0] == 1 and layers["tkmeans._util.pairwise_sq_dists.calls"][0] > 0
    # self times plus the root's own time add up to the job's duration
    total = sum(s.self_s for s in tracer.layers.values()) + tracer.root_self_s
    assert total == pytest.approx(tracer.job_s[0], rel=1e-9)
    assert {f"{m}.{f}" for m, f in BOUNDARIES} == set(tracer.layers)
