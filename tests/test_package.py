import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tkmeans

REPO_ROOT = Path(__file__).resolve().parent.parent
# The package's modules that declare public names, in name order (``__main__`` runs the CLI on import).
_MODULES = [importlib.import_module(f"tkmeans.{m.name}") for m in pkgutil.iter_modules(tkmeans.__path__)
            if not m.name.startswith("_")]
PUBLIC_MODULES = [module for module in _MODULES if hasattr(module, "__all__")]


def test_all_is_the_module_lists_added_up():
    assert tkmeans.__all__ == [name for module in PUBLIC_MODULES for name in module.__all__]
    assert len(set(tkmeans.__all__)) == len(tkmeans.__all__)


def test_each_public_name_is_its_home_module_object():
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(tkmeans, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tkmeans import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tkmeans.__all__)
    assert all(value is getattr(tkmeans, name) for name, value in namespace.items())


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO_ROOT / "demos").glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
