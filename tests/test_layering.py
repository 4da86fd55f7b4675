"""The package's module layering: what importing a module loads, and who
imports whose private helpers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import capft

PACKAGE = Path(capft.__file__).parent


def test_core_and_sensor_model_load_nothing_else():
    # the package namespace re-exports nothing, so importing the two base
    # modules loads neither calibration, dataio, controller, flight nor cli
    code = ("import sys, capft.core, capft.sensor_model; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'capft')))")
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["capft", "capft.core", "capft.sensor_model"]


def test_no_module_imports_another_modules_private_names():
    found = []
    for source in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "capft"):
                found += [f"{source.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found
