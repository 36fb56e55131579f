"""Every demo script runs to completion against the source tree and prints its golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, encoding="utf-8", timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
