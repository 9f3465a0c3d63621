"""Every module-level import of a survix module, and of the test oracles, is
used in that module, and importing the package loads no heavy scipy
submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import survix

MODULES = sorted(p for p in Path(survix.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") + [Path(__file__).parent / "oracles.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_import_leaves_scipy_signal_and_integrate_unloaded():
    # scipy.signal alone took most of the package's import time, and only
    # smoothing needs it; no library path needs scipy.integrate
    code = ("import sys, survix, survix.cli; "
            "print([m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules])")
    src = str(Path(survix.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
