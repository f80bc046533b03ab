"""The walk-through scripts under demos/ run to completion.

Each demo asserts its own agreements (transfer against enumeration, stated
polynomials against the sums), so a clean exit is the check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    ["discovering_recurrences", "rotation_blocks", "symmetric_and_quadratic", "trapezoid_recurrences"],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / ("%s.py" % name))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
