"""What the package imports: numpy alone at run time (scipy is a test
dependency only), and in each CLI command only the modules it runs."""

import json
import subprocess
import sys

import pytest

import medbounds
import medbounds.scm
from medbounds.cli import main

SIMULATE = 'import sys, medbounds, medbounds.cli; sys.exit(medbounds.cli.main(["simulate", "--n", "500", "--seed", "7"]))'


def stdout_of(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout


def test_simulate_runs_the_same_without_scipy():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    out = stdout_of(f'import sys; sys.modules["scipy"] = None; {SIMULATE}')
    assert out.startswith("y,m,x,bmi,gender\n")
    assert out == stdout_of(SIMULATE)


def modules_loaded_by(tmp_path, commands) -> set:
    """The modules a process loads to run ``commands`` (of fit and curve, in
    order) after it has imported numpy."""
    data, cfg, models = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "models.json"
    assert main(["simulate", "--n", "800", "--seed", "3", "--out", str(data)]) == 0
    cfg.write_text(json.dumps({
        "data": str(data),
        "columns": {"outcome": "y", "mediator": "m", "exposure": "x", "covariates": ["bmi", "gender"]},
        "outcome_design": ["1", "x", "m", "bmi", "gender"],
        "mediator_design": ["1", "x", "bmi", "gender"],
        "contrasts": {"x": [30, 50], "x_star": 10, "profiles": [{"bmi": 28.5, "gender": 1}]},
    }))
    runs = {
        "fit": ["fit", "--config", str(cfg), "--out", str(models)],
        "curve": ["curve", "--config", str(cfg), "--models", str(models), "--out", str(tmp_path / "curve.txt")],
    }
    runs = [runs[command] for command in commands]
    # a set difference: an older numpy loads numpy.ma and numpy.random itself
    return set(stdout_of(
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from medbounds.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {runs!r})\n"
        "print(*sorted(set(sys.modules) - before))"
    ).split())


# fit computes no interval, so it loads no statistics (with fractions and decimal)
@pytest.mark.parametrize(
    "commands, also_absent", [(("fit", "curve"), set()), (("fit",), {"statistics"})], ids=["fit-curve", "fit"]
)
def test_fit_and_curve_load_neither_the_simulator_nor_the_self_checks(tmp_path, commands, also_absent):
    loaded = modules_loaded_by(tmp_path, commands)
    assert {"medbounds.bounds", "medbounds.effects", "medbounds.glm", "medbounds.uncertainty"} <= loaded
    assert not ({"numpy.ma", "numpy.random", "medbounds.scm", "medbounds.validate"} | also_absent) & loaded


def test_fit_and_curve_build_their_records_without_dataclasses(tmp_path):
    # a @dataclass writes and compiles its methods in every process that
    # loads it; a Record subclass reads its fields and writes no code
    loaded = modules_loaded_by(tmp_path, ("fit", "curve"))
    assert "medbounds.record" in loaded and "dataclasses" not in loaded


def test_root_sweep_bounds_is_the_simulator_oracle():
    assert medbounds.sweep_bounds is medbounds.scm.sweep_bounds
