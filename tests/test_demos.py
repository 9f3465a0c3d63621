"""Each demo in ``demos/`` runs to completion in a fresh directory, and demo
01 rewrites the checked-in ``demo_out/`` CSVs.

The CSVs are compared value by value within 1e-9 of the largest |value| in
the same file: a platform's BLAS may round the hazard scales' term-matrix
products differently in the last bits, which moves a value by about 1e-16 of
that scale, far below any change in the decomposition itself.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survix

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REL_TOL = 1e-9


def _env():
    src = str(Path(survix.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _rows(path):
    with open(path, newline="") as fh:
        header = fh.readline()
        return header, list(csv.reader(fh))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == ["01_exact_attribution_curves.py",
                                       "02_cox_model_decomposition.py",
                                       "03_marginal_vs_conditional.py",
                                       "04_budget_benchmark.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    if not demo.name.startswith("01_"):
        return
    written = sorted(p.name for p in (tmp_path / "demo_out").iterdir())
    assert written == sorted(p.name for p in (ROOT / "demo_out").iterdir())
    for name in written:
        header, got = _rows(tmp_path / "demo_out" / name)
        want_header, want = _rows(ROOT / "demo_out" / name)
        assert header == want_header
        assert [r[:2] for r in got] == [r[:2] for r in want]
        got_v = np.array([float(r[2]) for r in got[1:]])
        want_v = np.array([float(r[2]) for r in want[1:]])
        bound = REL_TOL * np.abs(want_v).max()
        assert np.max(np.abs(got_v - want_v)) <= bound, name
