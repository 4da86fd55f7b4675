"""The package's module layering: what importing a module or running a
command loads, and who imports whose private helpers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capft
from capft.cli import main

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


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    """Two short trials plus tare, and the full model fitted to them."""
    data = tmp_path_factory.mktemp("data")
    assert main(["generate", "--trials", "2", "--duration", "4.0", "--seed", "1",
                 "--out", str(data)]) == 0
    assert main(["calibrate", str(data), "--model", str(data / "model.json")]) == 0
    return data


@pytest.mark.parametrize("command, loaded", [
    ("generate --trials 1 --duration 2.0 --out {out}", ["numpy.random"]),
    ("calibrate {data} --model {out}/model.json", []),
    ("evaluate {data}/trial_01.csv --model {data}/model.json", []),
    ("temp-sweep --model {data}/model.json --out {out}", ["numpy.random"]),
    ("fly --scenario track_sine --model {data}/model.json --out {out}", ["numpy.random"]),
    ("fly --scenario track_sine --bypass-sensor --out {out}", []),
], ids=["generate", "calibrate", "evaluate", "temp-sweep", "fly", "fly-bypass"])
def test_cli_loads_only_the_numpy_submodules_it_uses(cli_data, tmp_path, command, loaded):
    # numpy 2.x loads numpy.random and numpy.ma on first use, and a command
    # loads the first only where it draws noise and the second nowhere;
    # numpy 1.x loads both with numpy, which leaves nothing to check
    argv = command.format(data=cli_data, out=tmp_path).split()
    out = _fresh_import(
        "import sys, numpy; lazy = [m for m in ('numpy.random', 'numpy.ma') "
        "if m not in sys.modules]; from capft.cli import main; "
        f"assert main({argv!r}) == 0; print('lazy:', *lazy); "
        "print('loaded:', *[m for m in lazy if m in sys.modules])")
    lazy, got = (line.split()[1:] for line in out.splitlines()[-2:])
    assert got == [m for m in loaded if m in lazy]


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
