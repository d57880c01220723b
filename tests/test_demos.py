"""Each demo script runs to completion with its default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twodiscord

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [d.name for d in DEMOS] == [
        "audit_random_states.py", "closed_form_sweep.py", "two_qubit_bloch.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    # the demos import the same package this test imported
    package_root = str(Path(twodiscord.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
