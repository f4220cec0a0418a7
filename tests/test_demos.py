"""The demo scripts still compile, import only exported names, and the fast ones run."""

import ast
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

import kerr_thermo

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_compiles_and_imports_exported_names(demo, tmp_path):
    py_compile.compile(str(demo), cfile=str(tmp_path / "demo.pyc"), doraise=True)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "kerr_thermo"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(kerr_thermo.__all__)


def run_demo(name):
    src = str(Path(kerr_thermo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    demo = next(path for path in DEMOS if path.name == name)
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_spectrum_and_purity_demo_runs():
    assert "gap variance over levels 30..50" in run_demo("04_spectrum_and_purity.py")


def test_gaussian_measurements_demo_runs():
    stdout = run_demo("03_gaussian_measurements.py")
    assert "plateau QFI = " in stdout
    assert "best homodyne angle: " in stdout
