import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_fits.py"
_SPEC = importlib.util.spec_from_file_location("compare_fits", _PATH)
compare_fits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_fits)


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
