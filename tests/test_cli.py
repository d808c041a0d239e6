import csv
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medbounds.cli import main
from medbounds.scm import crossworld_demo_scm, demo_cohort_scm, sample_dataset

CONFIG = {
    "columns": {
        "outcome": "y",
        "mediator": "m",
        "exposure": "x",
        "covariates": ["bmi", "gender"],
    },
    "outcome_design": ["1", "x", "m", "bmi", "gender"],
    "mediator_design": ["1", "x", "bmi", "gender"],
    "contrasts": {"x": [30, 50], "x_star": 10},
    "alpha": 0.05,
}
PROFILE_FLAGS = ["--profile", "bmi=28.5", "--profile", "gender=1"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "cohort.csv"
    assert main(["simulate", "--n", "1500", "--seed", "5", "--out", str(data)]) == 0
    cfg = dict(CONFIG, data=str(data))
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    models = root / "models.json"
    assert main(["fit", "--config", str(cfg_path), "--out", str(models)]) == 0
    return root


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def row_loop_csv(data) -> str:
    """A simulated dataset's CSV by the ``csv.writer`` row loop that
    ``simulate`` ran before it rendered its columns as one table: the
    reference of its output, kept as it was."""
    cols = ["y", "m", "x", *data.covariates]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    cov_arrays = list(data.covariates.values())
    for i in range(data.n):
        writer.writerow(
            [int(data.outcome[i]), int(data.mediator[i]), f"{data.exposure[i]:g}"]
            + [f"{arr[i]:g}" for arr in cov_arrays]
        )
    return buf.getvalue()


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--n", "200", "--seed", "9", "--out", str(a)]) == 0
        assert main(["simulate", "--n", "200", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_schema_matches_ingestion(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["simulate", "--n", "50", "--seed", "1", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert set(rows[0]) == {"y", "m", "x", "bmi", "gender"}
        assert all(r["y"] in "01" and r["m"] in "01" for r in rows)

    def test_custom_scm_file(self, tmp_path):
        scm_path = tmp_path / "scm.json"
        crossworld_demo_scm().save(scm_path)
        out = tmp_path / "d.csv"
        assert main(
            ["simulate", "--scm", str(scm_path), "--n", "50", "--seed", "2", "--out", str(out)]
        ) == 0
        assert len(read_rows(out)) == 50

    @pytest.mark.parametrize("scm, n", [(demo_cohort_scm, 3270), (crossworld_demo_scm, 500)], ids=["demo", "crossworld"])
    def test_csv_matches_the_row_loop(self, tmp_path, capsys, scm, n):
        # to stdout and to --out, byte for byte
        scm().save(tmp_path / "scm.json")
        argv = ["simulate", "--scm", str(tmp_path / "scm.json"), "--n", str(n), "--seed", "7"]
        expected = row_loop_csv(sample_dataset(scm(), n, 7)).encode()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == expected
        assert main([*argv, "--out", str(tmp_path / "d.csv")]) == 0
        assert (tmp_path / "d.csv").read_bytes() == expected

    def test_bad_n(self, capsys):
        assert main(["simulate", "--n", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_table_schema(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        assert main(["fit", "--config", str(cfg), "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "model,term,est.,s.e.,p-value"
        assert len(out) == 1 + 4 + 5  # mediator terms + outcome terms

    def test_p_values_match_scipy_normal_tail(self, workdir, capsys):
        from scipy.special import ndtr

        assert main(["fit", "--config", str(workdir / "cfg.json"), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            ref = 2.0 * ndtr(-abs(row["est."] / row["s.e."]))
            assert row["p-value"] == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_refit_is_bit_identical(self, workdir, tmp_path):
        cfg = workdir / "cfg.json"
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        assert main(["fit", "--config", str(cfg), "--out", str(m1)]) == 0
        assert main(["fit", "--config", str(cfg), "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_unwritable_out_fails_before_any_output(self, workdir, tmp_path, capsys):
        # the models file is written before the coefficient table is printed
        cfg = workdir / "cfg.json"
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "no" / "m.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_failed_fit_leaves_the_models_file(self, workdir, tmp_path, capsys):
        models = tmp_path / "m.json"
        models.write_text("kept\n")
        data = tmp_path / "empty.csv"
        data.write_text("")
        argv = ["fit", "--config", str(workdir / "cfg.json"), "--data", str(data), "--out", str(models)]
        assert main(argv) == 1
        assert models.read_text() == "kept\n"

    def test_config_out_writes_no_models_file(self, workdir, tmp_path, capsys):
        # only --out names the models file: a config "out" is not read
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg["out"] = str(tmp_path / "m.json")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["fit", "--config", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("model,term,")
        assert not (tmp_path / "m.json").exists()

    def test_dropped_rows_warning_is_one_plain_line(self, workdir, tmp_path):
        lines = (workdir / "cohort.csv").read_text().splitlines()
        lines[1] = "," + lines[1].split(",", 1)[1]  # a blank outcome cell
        data = tmp_path / "blank.csv"
        data.write_text("\n".join(lines) + "\n")
        argv = [sys.executable, "-m", "medbounds.cli", "fit", "--config", str(workdir / "cfg.json")]
        run = subprocess.run([*argv, "--data", str(data)], capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stderr == f"warning: UserWarning: {data}: dropped 1 rows with missing values\n"
        assert ".py" not in run.stderr

    def test_missing_config(self, capsys):
        assert main(["fit"]) == 1
        assert "config" in capsys.readouterr().err

    def test_empty_data_file(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CONFIG, data=str(data))))
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "models-file"])
def test_mediator_design_naming_m_is_user_error(workdir, tmp_path, capsys, source):
    if source == "config":
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg["mediator_design"] = ["1", "x", "m ^2"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv, expected = ["fit", "--config", str(path)], "error: mediator_design"
    else:
        models = json.loads((workdir / "models.json").read_text())
        models["mediator"]["design"] = ["1", "x", "m", "gender"]
        path = tmp_path / "models.json"
        path.write_text(json.dumps(models))
        argv = ["bounds", "--models", str(path), "--x", "50", "--profile", "bmi=28.5", "--profile", "gender=1"]
        expected = f"error: bad models file {path}: mediator-model designs"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(expected)
    assert captured.out == ""


# a defect of a model, and the start of its error message; a "key=value"
# defect sets that key of the outcome model to the JSON value
MODELS_FILE_DEFECTS = {
    "negative-variance": "covariance is not positive semidefinite",
    "nan-coefficient": "coefficients or covariance are not finite",
    **{f"fit={v}": "fit must be an object" for v in ("[]", "null", "5")},
    'fit={"iterations": 1e999}': "fit iterations must be a non-negative integer, got inf",
    **{
        f"fit={{{v}}}": f"fit {message}"
        for v, message in (
            ('"iterations": 2.5', "iterations must be a non-negative integer, got 2.5"),
            ('"iterations": true', "iterations must be a non-negative integer, got True"),
            ('"patterns": -3', "patterns must be a non-negative integer, got -3"),
            ('"patterns": "7"', "patterns must be a non-negative integer, got '7'"),
            ('"grad_norm": "nan"', "grad_norm must be a number, got 'nan'"),
            ('"loglik": false', "loglik must be a number, got False"),
            ('"loglik": null', "loglik must be a number, got None"),
        )
    },
    **{
        f"exposure_range={v}": "exposure_range must be null or two finite numbers lo <= hi"
        for v in ('["a", "b"]', '{"lo": 1}', '"ab"', "[1]", "[5, 1]", "[1, 2, 3]", "[]", "[1, 1e999]", "[false, true]")
    },
}


@pytest.mark.parametrize("command", ["effects", "bounds", "curve"])
@pytest.mark.parametrize("defect", list(MODELS_FILE_DEFECTS))
def test_models_file_covariance_not_psd_or_not_finite_is_user_error(workdir, tmp_path, capsys, command, defect):
    models = json.loads((workdir / "models.json").read_text())
    if defect == "negative-variance":
        models["outcome"]["covariance"][1][1] = -1.0
    elif defect == "nan-coefficient":
        models["mediator"]["coefficients"][0] = float("nan")
    else:
        key, value = defect.split("=", 1)
        models["outcome"][key] = json.loads(value)
    path = tmp_path / "models.json"
    path.write_text(json.dumps(models))
    assert main([command, "--models", str(path), "--x", "50", *PROFILE_FLAGS]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad models file {path}: {MODELS_FILE_DEFECTS[defect]}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("design", [5, ["1", 2]])
@pytest.mark.parametrize("source", ["config", "models-file"])
def test_design_that_is_not_a_list_of_strings_is_user_error(workdir, tmp_path, capsys, source, design):
    if source == "config":
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg["outcome_design"] = design
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv, expected = ["fit", "--config", str(path)], "error: bad design: "
    else:
        models = json.loads((workdir / "models.json").read_text())
        models["outcome"]["design"] = design
        path = tmp_path / "models.json"
        path.write_text(json.dumps(models))
        argv = ["bounds", "--models", str(path), "--x", "50", "--profile", "bmi=28.5", "--profile", "gender=1"]
        expected = f"error: bad models file {path}: "
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{expected}a design is a list of term strings, got {design!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fit", "bounds"])
def test_table_csv_and_json_give_the_same_cells(workdir, capsys, command):
    import csv

    argv = [command, "--config", str(workdir / "cfg.json")]
    if command == "bounds":
        argv += ["--models", str(workdir / "models.json")]
    outputs = {}
    for fmt in ("table", "csv", "json"):
        assert main([*argv, "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out

    lines = outputs["table"].splitlines()
    table = [line.split() for line in lines]
    widths = [max(len(row[j]) for row in table) for j in range(len(table[0]))]
    for line, row in zip(lines, table):
        assert line == "  ".join(cell.rjust(w) for cell, w in zip(row, widths))

    assert list(csv.reader(io.StringIO(outputs["csv"]))) == table
    header, cells = table[0], table[1:]
    rows = json.loads(outputs["json"])
    assert all(sorted(r) == sorted(header) for r in rows)
    formatted = [[f"{r[h]:.6f}" if isinstance(r[h], float) else str(r[h]) for h in header] for r in rows]
    assert formatted == cells
    assert len(cells) == (9 if command == "fit" else 4)


def test_table_render_is_linear_in_rows(monkeypatch):
    import medbounds.cli as cli

    calls = 0

    def counting_len(obj):
        nonlocal calls
        calls += 1
        return len(obj)

    def count(rows):
        nonlocal calls
        calls = 0
        table = {"x": [float(i) for i in range(rows)], "profile": ["bmi=28.5,gender=1"] * rows}
        cli._render(table, "table")
        return calls

    monkeypatch.setattr(cli, "len", counting_len, raising=False)
    assert count(2000) <= 2 * count(1000) + 50


def per_cell_render(table, fmt):
    """A table rendered cell by cell: "%.6f" of each float and str of each other
    cell, written by csv.writer or right-aligned in columns two spaces apart."""
    rows = ([("%.6f" % v) if isinstance(v, float) else str(v) for v in row] for row in zip(*table.values()))
    cells = [list(table), *rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        return buf.getvalue()
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in cells)


def assert_renders_per_cell(table):
    import medbounds.cli as cli

    assert cli._render(table, "table") == per_cell_render(table, "table")
    try:
        expected = per_cell_render(table, "csv")
    except csv.Error:  # csv.writer before Python 3.11 writes no NUL, and neither does the CLI
        with pytest.raises(csv.Error):
            cli._render(table, "csv")
    else:
        assert cli._render(table, "csv") == expected


# "%.6f" rounds these .5 ties by the exact binary value, which rint(|x| 1e6) does not see
TIES = [34.8525525, 2.0000005, 5e-07, -0.9999995, 999999.9999995]
# |x| 1e6 = 2^52, the first magnitude Python formats
LIMIT = 2.0**52 / 1e6


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -0.0],
        [9.9999996, 1.0],
        [-9.9999996, 1.0],
        [float("nan"), float("-inf")],
        [-1e-9, 3.25, float("inf")],
        TIES,
        [5e-324, -5e-324, LIMIT, -LIMIT, np.nextafter(LIMIT, 0.0), -np.nextafter(LIMIT, 0.0)],
        [0.5, -2.25, 1e300, 0.125, -0.0],
        [-1e20, 1.0, -3.5],
        [float("nan"), float("inf"), float("-inf"), 0.0],
    ],
)
def test_render_matches_per_cell_formatting(values):
    for labels in (["bmi=28.5,gender=1"], ['a,"b" %s é', "plain"], ["nul\x00here", "é"]):
        assert_renders_per_cell({
            "x": values,
            "y": np.array(values[::-1]),
            "profile": [labels[i % len(labels)] for i in range(len(values))],
        })


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


ANY_FLOAT = st.one_of(
    st.floats(),  # NaN, infinities and subnormals included
    st.integers(0, 2**64 - 1).map(bits_to_float),  # every bit pattern: NaN payloads, a signed NaN
    st.integers(-(2**52), 2**52).map(lambda k: (k + 0.5) / 1e6),  # next to a .5 tie of "%.6f"
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=12))
def test_render_of_any_floats_matches_per_cell_formatting(pairs):
    a, b = zip(*pairs)
    assert_renders_per_cell({"a": list(a), "profile": ["gender=1"] * len(a), "b": np.array(b)})


def test_render_needs_the_tie_guard(monkeypatch):
    # fault injection: without the guard, rint(34.8525525e6) rounds the tie to
    # even, where "%.6f" of the float just above the tie rounds up
    import medbounds.cli as cli

    table = {"x": [34.8525525]}
    assert cli._render(table, "csv") == "x\n34.852553\n"
    monkeypatch.setattr(cli, "_near_tie", lambda scaled, rounded: np.zeros(scaled.shape, dtype=bool))
    assert cli._render(table, "csv") == "x\n34.852552\n"
    with pytest.raises(AssertionError):
        assert_renders_per_cell(table)


def test_a_huge_cell_does_not_widen_the_others():
    # Python formats 1e300 alone; the digit matrix keeps the width of the short
    # cells, and CSV splices the long text in without a slab that holds it
    import tracemalloc

    import medbounds.cli as cli

    short = cli._float_cells(np.array([[0.5], [-2.25]]), cli._PAD)[0]
    cells, python = cli._float_cells(np.array([[0.5], [-2.25], [1e300]]), cli._PAD)
    assert cells.shape[2] == short.shape[2] == 9
    assert python.ravel().tolist() == [False, False, True]

    def peak(values):
        tracemalloc.start()
        try:
            text = cli._render({"x": values, "profile": ["gender=1"] * len(values)}, "csv")
            return tracemalloc.get_traced_memory()[1], len(text)
        finally:
            tracemalloc.stop()

    values = np.full(20_000, 0.5)
    plain = peak(values)
    values[10_000] = 1e300
    huge = peak(values)
    assert huge[1] == plain[1] + len("%.6f" % 1e300) - len("0.500000")
    assert huge[0] < 1.2 * plain[0]


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    # the first python block under "## Library sketch", on the README cohort
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("\n## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "3270", "--seed", "7", "--out", "cohort.csv"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(sketch, "README.md", "exec"), {})


def injected_models(tmp_path):
    """A hand-written models file (no fitting): coefficients injected directly."""
    models = {
        "columns": CONFIG["columns"],
        "outcome": {
            "role": "outcome",
            "design": ["1", "x", "m", "bmi", "gender"],
            "coefficients": [-3.925, 0.020, 1.250, -0.064, 0.587],
            "covariance": np.zeros((5, 5)).tolist(),
        },
        "mediator": {
            "role": "mediator",
            "design": ["1", "x", "bmi", "gender"],
            "coefficients": [0.418, 0.017, -0.098, 0.595],
            "covariance": np.zeros((4, 4)).tolist(),
        },
    }
    path = tmp_path / "models.json"
    path.write_text(json.dumps(models))
    return path


class TestEffectsAndBounds:
    def test_effects_rows(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        models = workdir / "models.json"
        assert main(
            [
                "effects",
                "--config", str(cfg),
                "--models", str(models),
                "--profile", "bmi=28.5",
                "--profile", "gender=1",
                "--format", "json",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["x"] for r in rows] == [30, 50]
        for r in rows:
            assert r["te"] == pytest.approx(r["nde"] + r["nie"], abs=1e-9)

    def test_curve_checks_psd_on_the_model_covariances_only(self, workdir, monkeypatch, capsys):
        # the bundle rows are A diag(S_y, S_m) A' of the two checked model
        # covariances, so no per-row eigenvalue pass runs on them
        from medbounds import glm, uncertainty

        shapes = []
        real = glm.psd_check
        spy = lambda cov: shapes.append(np.shape(cov)) or real(cov)
        monkeypatch.setattr(glm, "psd_check", spy)
        monkeypatch.setattr(uncertainty, "psd_check", spy)
        cfg, models = workdir / "cfg.json", workdir / "models.json"
        argv = ["curve", "--config", str(cfg), "--models", str(models), *PROFILE_FLAGS, "--format", "csv"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert shapes == [(5, 5), (4, 4)]

    def test_bounds_row_invariants(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        assert main(
            [
                "bounds",
                "--config", str(cfg),
                "--profile", "bmi=28.5",
                "--profile", "gender=1",
                "--format", "json",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        for r in rows:
            for eff in ("nde", "nie", "te"):
                assert r[f"{eff}_lo"] - 1e-9 <= r[eff] <= r[f"{eff}_hi"] + 1e-9
                assert r[f"{eff}_ui_lo"] <= r[f"{eff}_lo"]
                assert r[f"{eff}_hi"] <= r[f"{eff}_ui_hi"]

    def test_injected_coefficients_reproduce_golden_bounds(self, tmp_path, capsys):
        path = injected_models(tmp_path)
        assert main(
            [
                "curve",
                "--models", str(path),
                "--x", "50",
                "--x-star", "10",
                "--profile", "bmi=28.5",
                "--profile", "gender=1",
                "--format", "json",
            ]
        ) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["nde_lo"] == pytest.approx(0.5796, abs=5e-4)
        assert row["nde_hi"] == pytest.approx(1.0206, abs=5e-4)
        assert row["nie_lo"] == pytest.approx(-0.1216, abs=5e-4)
        assert row["nie_hi"] == pytest.approx(0.4068, abs=5e-4)

    @pytest.mark.parametrize("command", ["effects", "bounds", "curve"])
    def test_far_out_exposure_level_leaves_the_other_rows(self, tmp_path, capsys, command):
        # at x = -5e4 the mediator predictor is about -850, so e^-g overflows
        # float64: that row is finite and the x = 50 row is as computed alone
        path = injected_models(tmp_path)
        rows = {}
        for levels in (["-50000", "50"], ["50"]):
            argv = [command, "--models", str(path), "--x-star", "10", *PROFILE_FLAGS, "--format", "json"]
            for x in levels:
                argv += ["--x", x]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv) == 0
            rows[len(levels)] = json.loads(capsys.readouterr().out)
        far, near = rows[2]
        assert near == rows[1][0]
        assert far["x"] == -50000.0
        assert all(np.isfinite(v) for v in far.values() if isinstance(v, float))

    def test_null_contrast_row(self, workdir, capsys):
        models = workdir / "models.json"
        assert main(
            [
                "curve",
                "--models", str(models),
                "--x", "10",
                "--x-star", "10",
                "--profile", "bmi=28.5",
                "--profile", "gender=1",
                "--format", "json",
            ]
        ) == 0
        row = json.loads(capsys.readouterr().out)[0]
        for eff in ("nde", "nie", "te"):
            assert row[eff] == pytest.approx(0.0, abs=1e-12)
            assert row[f"{eff}_lo"] <= 0.0 <= row[f"{eff}_hi"]

    def test_curve_grid_order_and_default_profiles(self, workdir, capsys):
        cfg_path = workdir / "cfg_grid.json"
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg["contrasts"] = {"x": {"from": 20, "to": 60, "step": 20}, "x_star": 10}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["curve", "--config", str(cfg_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        # per-gender BMI-mean default profiles -> 2 per grid point, input order
        assert [r["x"] for r in rows] == [20, 20, 40, 40, 60, 60]
        assert {r["profile"].split(",")[1] for r in rows} == {"gender=0", "gender=1"}

    @pytest.mark.parametrize("binary", [["smoker", "female"], []])
    def test_default_profiles_are_binary_cells_at_continuous_means(self, tmp_path, capsys, binary):
        # no row is both smoker and female: that cell is skipped
        rng = np.random.default_rng(4)
        n = 600
        smoker = rng.integers(0, 2, n)
        female = np.where(smoker == 1, 0, rng.integers(0, 2, n))
        cols = {
            "y": rng.integers(0, 2, n), "m": rng.integers(0, 2, n), "x": rng.uniform(0, 60, n),
            "age": rng.uniform(20, 80, n), "weight": rng.uniform(50, 100, n),
            "smoker": smoker, "female": female,
        }
        covariates = ["age", *binary, "weight"]
        data = tmp_path / "d.csv"
        data.write_text(",".join(cols) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in zip(*cols.values())))
        cfg = {
            "data": str(data),
            "columns": {"outcome": "y", "mediator": "m", "exposure": "x", "covariates": covariates},
            "outcome_design": ["1", "x", "m", *covariates],
            "mediator_design": ["1", "x", *covariates],
            "contrasts": {"x": [30], "x_star": 10},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["effects", "--config", str(cfg_path), "--format", "json"]) == 0
        labels = [r["profile"] for r in json.loads(capsys.readouterr().out)]
        values = {k: np.array([float(v) for v in map(str, cols[k])]) for k in ("age", "weight")}
        cells = [(0, 0), (0, 1), (1, 0)] if binary else [()]
        expected = []
        for levels in cells:
            sel = np.ones(n, dtype=bool)
            for k, level in zip(binary, levels):
                sel &= cols[k] == level
            profile = {**dict(zip(binary, map(float, levels))),
                       **{k: float(v[sel].mean()) for k, v in values.items()}}
            expected.append(",".join(f"{k}={profile[k]:g}" for k in sorted(profile)))
        assert labels == expected

    def test_config_profiles_honoured(self, workdir, capsys):
        cfg_path = workdir / "cfg_profiles.json"
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg["contrasts"] = {
            "x": [40],
            "x_star": 10,
            "profiles": [{"bmi": 22.0, "gender": 0}, {"bmi": 30.0, "gender": 1}],
        }
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bounds", "--config", str(cfg_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["profile"] for r in rows] == ["bmi=22,gender=0", "bmi=30,gender=1"]

    def test_x_star_outside_support_warns(self, workdir, capsys):
        models = workdir / "models.json"
        with pytest.warns(UserWarning, match="outside the observed exposure"):
            code = main(
                [
                    "curve",
                    "--models", str(models),
                    "--x", "50",
                    "--x-star", "500",
                    "--profile", "bmi=28.5",
                    "--profile", "gender=1",
                ]
            )
        assert code == 0

    @pytest.mark.parametrize("command", ["effects", "bounds", "curve"])
    def test_out_of_range_active_level_warns(self, workdir, capsys, command):
        models = workdir / "models.json"
        argv = [command, "--models", str(models), "--x", "500", "--x-star", "10",
                "--profile", "bmi=28.5", "--profile", "gender=1"]
        with pytest.warns(UserWarning, match="outside the observed exposure") as record:
            assert main(argv) == 0
        messages = [str(w.message) for w in record if "outside the observed" in str(w.message)]
        assert len(messages) == 1
        assert messages[0].endswith(": x = 500")

    @pytest.mark.parametrize("command", ["effects", "bounds", "curve"])
    def test_one_warning_names_every_out_of_range_level(self, workdir, capsys, command):
        models = workdir / "models.json"
        argv = [command, "--models", str(models), "--x", "500", "--x", "50", "--x", "-3",
                "--x-star", "400", "--profile", "bmi=28.5", "--profile", "gender=1"]
        with pytest.warns(UserWarning, match="outside the observed exposure") as record:
            assert main(argv) == 0
        messages = [str(w.message) for w in record if "outside the observed" in str(w.message)]
        assert len(messages) == 1
        assert messages[0].endswith(": x* = 400; x = -3; x = 500")

    def test_long_runs_of_out_of_range_levels_named_by_count(self, workdir, capsys):
        models = workdir / "models.json"
        argv = ["curve", "--models", str(models), "--x-star", "10",
                "--profile", "bmi=28.5", "--profile", "gender=1"]
        for x in (1, 2, 3, 4, 50, 180):
            argv += ["--x", str(x)]
        with pytest.warns(UserWarning, match="outside the observed exposure") as record:
            assert main(argv) == 0
        messages = [str(w.message) for w in record if "outside the observed" in str(w.message)]
        assert messages == [
            "exposure levels outside the observed exposure range [10, 170]: "
            "x = 4 levels from 1 to 4; x = 180"
        ]

    def test_deterministic_output(self, workdir, tmp_path):
        cfg = workdir / "cfg.json"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                [
                    "curve",
                    "--config", str(cfg),
                    "--format", "csv",
                    "--out", str(out),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_alpha(self, workdir, capsys):
        assert main(
            [
                "bounds",
                "--config", str(workdir / "cfg.json"),
                "--profile", "bmi=28.5",
                "--profile", "gender=1",
                "--alpha", "1.5",
            ]
        ) == 1
        assert "alpha" in capsys.readouterr().err

    def test_effects_takes_no_alpha(self, workdir, capsys):
        argv = ["effects", "--models", str(workdir / "models.json"), "--x", "30", "--alpha", "0.1"]
        assert main(argv + ["--profile", "bmi=28.5", "--profile", "gender=1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "grid",
        [
            {"from": 20, "to": 170, "step": 0},
            {"to": 170, "step": 10},
            {"from": 20, "step": 10},
            {"from": 20, "to": 170, "step": -10},
            [],
        ],
        ids=["zero-step", "no-from", "no-to", "step-away-from-to", "empty-list"],
    )
    def test_malformed_x_range_is_user_error(self, workdir, tmp_path, capsys, grid):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"contrasts": {"x": grid, "x_star": 10}}))
        argv = ["curve", "--config", str(cfg_path), "--models", str(workdir / "models.json")]
        assert main(argv + ["--profile", "bmi=28.5", "--profile", "gender=1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: contrasts.x")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"contrasts": {"x": 50}}, PROFILE_FLAGS),
            ({"contrasts": [1, 2]}, PROFILE_FLAGS),
            ({"alpha": "0.1"}, PROFILE_FLAGS),
            ({"contrasts": {"x": ["a"]}}, PROFILE_FLAGS),
            ({"contrasts": {"x": [30], "x_star": "b"}}, PROFILE_FLAGS),
            ({"contrasts": {"x": [30], "profiles": [{"bmi": "x", "gender": 1}]}}, []),
            ({"contrasts": {"x": [30], "profiles": {"bmi": 28.5, "gender": 1}}}, []),
            ({"contrasts": {"x": [30], "profiles": [{"gender": 1}]}}, []),
            ({"contrasts": {"x": [30], "profiles": []}}, []),
            ({}, ["--x", "nan", *PROFILE_FLAGS]),
            ({}, ["--x", "inf", *PROFILE_FLAGS]),
            ({}, ["--x-star", "nan", *PROFILE_FLAGS]),
            ({}, ["--profile", "bmi=nan", "--profile", "gender=1"]),
        ],
        ids=[
            "x-a-number", "contrasts-a-list", "alpha-a-string", "x-level-a-string", "x-star-a-string",
            "profile-value-a-string", "profiles-an-object", "profile-lacks-a-covariate", "profiles-empty",
            "x-nan", "x-inf", "x-star-nan", "profile-value-nan",
        ],
    )
    def test_config_or_flag_value_of_the_wrong_type_is_user_error(
        self, workdir, tmp_path, capsys, config, flags
    ):
        # a readable data file, so that no case fails for want of one
        base = dict(CONFIG, data=str(workdir / "cohort.csv"), contrasts={"x": [30], "x_star": 10})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**base, **config}))
        argv = ["bounds", "--config", str(cfg_path), "--models", str(workdir / "models.json"), *flags]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config",
        [
            {"alpha": 2},
            {"format": "xml"},
            {"contrasts": {"x": [30], "profiles": []}},
            {"contrasts": {"x": []}},
        ],
        ids=["alpha-out-of-range", "unknown-format", "profiles-empty", "x-empty"],
    )
    def test_config_error_comes_before_the_data_is_read(self, workdir, tmp_path, capsys, monkeypatch, config):
        import medbounds.cli as cli

        def unread(*args, **kwargs):
            pytest.fail("the data were read before the config was checked")

        monkeypatch.setattr(cli, "load_csv", unread)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**CONFIG, "data": str(workdir / "cohort.csv"), **config}))
        assert main(["bounds", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "columns", [{"exposure": ["x"]}, {"covariates": "gender"}, {"covariates": 5}],
        ids=["exposure-a-list", "covariates-a-string", "covariates-a-number"],
    )
    def test_column_mapping_of_the_wrong_type_is_user_error(self, workdir, tmp_path, capsys, columns):
        # a list is not a column name, and a string is not a list of them
        # (its letters are not the covariates)
        mapping = {**CONFIG["columns"], **columns}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(CONFIG, data=str(workdir / "cohort.csv"), columns=mapping)))
        assert main(["fit", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: columns must give each role a column name, and covariates a list of them: {mapping!r}\n"
        assert captured.out == ""

    def test_csv_field_that_cannot_be_written_is_user_error(self, workdir, capsys, monkeypatch):
        import medbounds.cli as cli

        # csv.writer before Python 3.11 raises this for a profile label with a NUL
        def unwritable(text):
            raise csv.Error("need to escape, but no escapechar set")

        monkeypatch.setattr(cli, "_csv_field", unwritable)
        argv = ["curve", "--config", str(workdir / "cfg.json"), "--models", str(workdir / "models.json")]
        assert main([*argv, "--format", "csv", *PROFILE_FLAGS]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need to escape, but no escapechar set\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["effects", "bounds", "curve"])
    def test_profile_that_lacks_a_covariate_is_named(self, workdir, tmp_path, capsys, command):
        profiles = [{"bmi": 25.0, "gender": 0}, {"gender": 1}]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"contrasts": {"x": [30], "x_star": 10, "profiles": profiles}}))
        assert main([command, "--config", str(cfg_path), "--models", str(workdir / "models.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: profile gender=1 lacks covariate 'bmi'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["bounds", "curve"])
    def test_degenerate_mediator_is_warned_once_on_stderr(self, workdir, tmp_path, command):
        # an outcome design without 'm' gives a zero mediator effect in every row
        cfg = dict(json.loads((workdir / "cfg.json").read_text()), outcome_design=["1", "x", "bmi", "gender"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [sys.executable, "-m", "medbounds.cli", command, "--config", str(cfg_path)]
        run = subprocess.run(argv, capture_output=True, text=True)
        assert run.returncode == 0
        assert sum("DegenerateMediatorWarning" in line for line in run.stderr.splitlines()) == 1


# commands that cannot read or write a file; {w} is the module's workdir, {t}
# a test's tmp_path, which holds three structural model files of the wrong form
FILE_ERRORS = {
    "fit-data-missing": "fit --config {w}/cfg.json --data {t}/no.csv",
    "bounds-config-missing": "bounds --config {t}/no.json",
    "bounds-models-missing": "bounds --models {t}/no.json --x 30 --profile bmi=28.5 --profile gender=1",
    "simulate-scm-missing": "simulate --scm {t}/no.json",
    "simulate-scm-no-covariates": "simulate --scm {t}/no_covariates.json",
    "simulate-scm-short-table": "simulate --scm {t}/short_table.json",
    "simulate-scm-covariate-named-x": "simulate --scm {t}/covariate_x.json",
    "effects-out-dir-missing": "effects --models {w}/models.json --x 30 --profile bmi=28.5 --profile gender=1"
    " --out {t}/no/e.csv",
    "fit-out-dir-missing": "fit --config {w}/cfg.json --out {t}/no/models.json",
    "simulate-out-dir-missing": "simulate --n 10 --out {t}/no/d.csv",
    "validate-out-dir-missing": "validate --out {t}/no/report.txt",
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_that_cannot_be_read_or_written_is_user_error(workdir, tmp_path, capsys, monkeypatch, case):
    import types

    import medbounds.validate as validate

    (tmp_path / "no_covariates.json").write_text(json.dumps({"a": 1}))
    short_table = crossworld_demo_scm().to_dict()
    short_table["x_probs"] = short_table["x_probs"][:-1]
    (tmp_path / "short_table.json").write_text(json.dumps(short_table))
    covariate_x = crossworld_demo_scm().to_dict()
    covariate_x["covariates"]["names"] = ["x"]
    (tmp_path / "covariate_x.json").write_text(json.dumps(covariate_x))
    report = types.SimpleNamespace(to_text=lambda: "report\n", passed=True)
    monkeypatch.setattr(validate, "run_validation", lambda **kwargs: report)
    assert main([arg.format(w=workdir, t=tmp_path) for arg in FILE_ERRORS[case].split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "effects", "bounds", "curve", "validate"])
def test_out_in_a_missing_directory_fails_before_any_work(workdir, tmp_path, capsys, monkeypatch, command):
    import medbounds.cli as cli
    import medbounds.validate as validate

    def no_work(*args, **kwargs):
        pytest.fail("work ran before --out was checked")

    monkeypatch.setattr(cli, "load_csv", no_work)
    monkeypatch.setattr(validate, "run_validation", no_work)
    out = tmp_path / "no" / "out.txt"
    config = [] if command == "validate" else ["--config", str(workdir / "cfg.json")]
    assert main([command, *config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {out.parent} is not a directory\n"


class TestValidate:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--replicates", "0"], "--replicates must be at least 1"),
            (["--replicates", "-1"], "--replicates must be at least 1"),
            (["--coverage-n", "0"], "--coverage-n must be at least 1"),
        ],
        ids=["replicates-0", "replicates-negative", "coverage-n-0"],
    )
    def test_counts_below_one_are_user_errors(self, capsys, monkeypatch, flags, message):
        import medbounds.validate as validate

        def no_checks(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(validate, "run_validation", no_checks)
        assert main(["validate", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_quick_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code = main(
            ["validate", "--replicates", "20", "--coverage-n", "1000", "--out", str(out_path)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in text
        assert text.count("PASS") >= 7
        assert out_path.read_text() in text

    def test_report_reproducible(self, monkeypatch):
        from medbounds.validate import run_validation

        kw = dict(coverage_replicates=15, coverage_n=800)
        a = run_validation(seed=3, **kw).to_text()
        b = run_validation(seed=3, **kw).to_text()
        assert a == b

    def test_injected_jacobian_fault_fails(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.bounds_jacobian

        def broken(bundle):
            D = exact(bundle)
            D[..., 0, 0] = -D[..., 0, 0]  # sign error in each bundle's first NDE-lower entry
            return D

        monkeypatch.setattr(validate_mod, "bounds_jacobian", broken)
        report = validate_mod.run_validation(seed=3, coverage_replicates=5, coverage_n=500)
        assert not report.passed
        failing = {r.name for r in report.results if not r.passed}
        assert failing == {"jacobian-vs-fd"}

    def test_injected_bound_fault_fails_sweep_agreement(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.effect_bounds

        def broken(bundle):
            eb = exact(bundle)
            return eb.replace(nde=eb.nde.replace(upper=eb.nde.upper + 1e-4))

        monkeypatch.setattr(validate_mod, "effect_bounds", broken)
        result = validate_mod.check_sweep_agreement(np.random.default_rng(3), 5)
        assert not result.passed
        assert result.measured >= 9e-5

    def test_mediation_reduction_checks_the_cross_pair(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.point_effects

        def shifted_cross(bundle):
            # a CROSS logit 1e-3 too high: the NDE gains it, the NIE loses it
            pt = exact(bundle)
            return pt.replace(nde=pt.nde + 1e-3, nie=pt.nie - 1e-3)

        monkeypatch.setattr(validate_mod, "point_effects", shifted_cross)
        result = validate_mod.check_mediation_reduction(np.random.default_rng(3), 5)
        assert not result.passed
        assert result.measured == pytest.approx(1e-3, rel=1e-6)

    def test_shift_zero_identity_catches_a_perturbed_curve(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.sensitivity_curve

        def perturbed(bundle, shifts):
            curve = exact(bundle, shifts)
            return curve.replace(nie=curve.nie + 1e-9)

        monkeypatch.setattr(validate_mod, "sensitivity_curve", perturbed)
        result = validate_mod.check_shift_zero(np.random.default_rng(3), 5)
        assert not result.passed
        assert result.measured == pytest.approx(1e-9, rel=1e-3)

    def test_shift_zero_identity_compares_every_bundle(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.sensitivity_curve
        calls = []

        def last_perturbed(bundle, shifts):
            calls.append(bundle)
            curve = exact(bundle, shifts)
            return curve.replace(te=curve.te + (1e-9 if len(calls) == 5 else 0.0))

        monkeypatch.setattr(validate_mod, "sensitivity_curve", last_perturbed)
        result = validate_mod.check_shift_zero(np.random.default_rng(3), 5)
        assert len(calls) == 5
        assert not result.passed
        assert result.measured == pytest.approx(1e-9, rel=1e-3)

    def test_unknown_command_is_user_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err


class TestEntryPoints:
    """``run``, the process entry, against ``main``, the in-process API."""

    @pytest.mark.parametrize("case", ["fit-blank-cell", "curve-csv", "config-error"])
    def test_module_run_matches_main(self, workdir, tmp_path, capsys, monkeypatch, case):
        cfg = str(workdir / "cfg.json")
        if case == "fit-blank-cell":
            lines = (workdir / "cohort.csv").read_text().splitlines()
            lines[1] = "," + lines[1].split(",", 1)[1]
            data = tmp_path / "blank.csv"
            data.write_text("\n".join(lines) + "\n")
            argv = ["fit", "--config", cfg, "--data", str(data)]
        elif case == "curve-csv":
            argv = ["curve", "--config", cfg, "--models", str(workdir / "models.json"), "--format", "csv"]
        else:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**CONFIG, "alpha": 2}))
            argv = ["bounds", "--config", str(bad)]
        # block-buffered stdio, so that the last bytes reach the pipe only at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-m", "medbounds.cli", *argv], capture_output=True, text=True, env=env)

        # in-process, each warning goes to stderr as in a process that records none
        def to_stderr(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        monkeypatch.setattr(warnings, "showwarning", to_stderr)
        # and under a filter of its own, which shows the program's warnings as the
        # child's default filter does, whatever -W option pytest runs under
        with warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("default")
            code = main(argv)
        assert (proc.stdout, proc.stderr, proc.returncode) == (*capsys.readouterr(), code)
        if case == "config-error":
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        else:
            assert proc.returncode == 0 and proc.stdout
        assert ("dropped 1 rows" in proc.stderr) == (case == "fit-blank-cell")

    def test_main_does_not_freeze(self, workdir, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["effects", "--models", str(workdir / "models.json"), "--x", "30", *PROFILE_FLAGS]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("args, code", [("--help", 0), ("simulate --n 5", 0), ("simulate --n 0", 1)])
    def test_run_freezes_the_heap_on_every_way_out(self, args, code):
        script = (
            "import gc, sys\n"
            "from medbounds.cli import run\n"
            "try:\n"
            "    sys.exit(run())\n"
            "finally:\n"
            "    print('frozen', gc.get_freeze_count(), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *args.split()], capture_output=True, text=True)
        assert proc.returncode == code
        word, count = proc.stderr.splitlines()[-1].split()
        assert word == "frozen" and int(count) > 0
