"""Every script in demos/ runs to completion against the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsngen

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(wsngen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "deployments.py":
        for mode in ("non_grid", "grid"):
            body = (tmp_path / f"deployment_{mode}.svg").read_text()
            assert body.startswith("<svg")
            assert body.count("<circle") == 100
