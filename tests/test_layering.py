"""The package's module layering: what importing a module loads, and who
imports whose private helpers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import capft

PACKAGE = Path(capft.__file__).parent


def _fresh_import(code):
    """Standard output of code run in a fresh interpreter that finds this package."""
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_core_and_sensor_model_load_nothing_else():
    # the package namespace re-exports nothing, so importing the two base
    # modules loads neither calibration, dataio, controller, flight nor cli
    out = _fresh_import(
        "import sys, capft.core, capft.sensor_model; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'capft')))")
    assert out.split() == ["capft", "capft.core", "capft.sensor_model"]


def test_cli_loads_no_process_pool():
    # only generate with more than one worker uses a pool, so importing the
    # front end leaves concurrent.futures, and the logging it loads, unloaded
    out = _fresh_import("import sys, capft.cli; print('concurrent.futures' in sys.modules)")
    assert out.split() == ["False"]


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



def _bound_names(node):
    """The names a module-level statement binds that the module must read:
    every imported name, and each private name it defines."""
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [] if node.module == "__future__" else [alias.asname or alias.name
                                                       for alias in node.names]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_no_unused_imports_or_private_module_names():
    # a lint rule without a linter: what a module imports, and each private
    # name it defines at module level, is read somewhere in that module
    found = []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{source.name}:{node.lineno}: {name}" for node in tree.body
                  for name in _bound_names(node) if name not in loaded]
    assert not found
