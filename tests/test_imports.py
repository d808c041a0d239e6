"""The package runs on numpy alone; scipy is a test dependency only."""

import subprocess
import sys

SIMULATE = 'import sys, medbounds, medbounds.cli; sys.exit(medbounds.cli.main(["simulate", "--n", "500", "--seed", "7"]))'


def stdout_of(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout


def test_simulate_runs_the_same_without_scipy():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    out = stdout_of(f'import sys; sys.modules["scipy"] = None; {SIMULATE}')
    assert out.startswith("y,m,x,bmi,gender\n")
    assert out == stdout_of(SIMULATE)
