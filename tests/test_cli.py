import io
import json
import subprocess
import sys

import numpy as np
import pytest

from medbounds.cli import main
from medbounds.scm import crossworld_demo_scm

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
    import csv

    with open(path) as fh:
        return list(csv.DictReader(fh))


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


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -0.0],
        [9.9999996, 1.0],
        [-9.9999996, 1.0],
        [float("nan"), float("-inf")],
        [-1e-9, 3.25, float("inf")],
    ],
)
def test_render_matches_per_cell_formatting(values):
    import csv

    import medbounds.cli as cli

    table = {"x": values, "profile": ['a,"b"'] * len(values)}
    cells = [["x", "profile"], *([f"{v:.6f}", 'a,"b"'] for v in values)]
    widths = [max(len(row[j]) for row in cells) for j in range(2)]
    assert cli._render(table, "table") == "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in cells
    )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(cells)
    assert cli._render(table, "csv") == buf.getvalue()


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
        # hand-written models file (no fitting): coefficients injected directly
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
        ],
        ids=["zero-step", "no-from", "no-to", "step-away-from-to"],
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
            ({}, ["--x", "nan", *PROFILE_FLAGS]),
            ({}, ["--x", "inf", *PROFILE_FLAGS]),
            ({}, ["--x-star", "nan", *PROFILE_FLAGS]),
            ({}, ["--profile", "bmi=nan", "--profile", "gender=1"]),
        ],
        ids=[
            "x-a-number", "contrasts-a-list", "alpha-a-string", "x-level-a-string", "x-star-a-string",
            "profile-value-a-string", "profiles-an-object", "profile-lacks-a-covariate",
            "x-nan", "x-inf", "x-star-nan", "profile-value-nan",
        ],
    )
    def test_config_or_flag_value_of_the_wrong_type_is_user_error(
        self, workdir, tmp_path, capsys, config, flags
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"contrasts": {"x": [30], "x_star": 10}, **config}))
        argv = ["bounds", "--config", str(cfg_path), "--models", str(workdir / "models.json"), *flags]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
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


class TestValidate:
    def test_quick_run_passes(self, capsys, monkeypatch, tmp_path):
        import medbounds.cli as cli
        import medbounds.validate as validate_mod

        def quick(seed, coverage_replicates, coverage_n):
            return validate_mod.run_validation(
                seed=seed,
                sweep_thetas=20,
                fd_thetas=10,
                n_scms=10,
                coverage_replicates=coverage_replicates,
                coverage_n=coverage_n,
            )

        monkeypatch.setattr(cli, "run_validation", quick)
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

        kw = dict(sweep_thetas=15, fd_thetas=5, n_scms=8, coverage_replicates=15, coverage_n=800)
        a = run_validation(seed=3, **kw).to_text()
        b = run_validation(seed=3, **kw).to_text()
        assert a == b

    def test_injected_jacobian_fault_fails(self, monkeypatch):
        import medbounds.validate as validate_mod

        exact = validate_mod.bounds_jacobian

        def broken(bundle):
            D = exact(bundle)
            D[0, 0] = -D[0, 0]  # sign error in the first NDE-lower entry
            return D

        monkeypatch.setattr(validate_mod, "bounds_jacobian", broken)
        report = validate_mod.run_validation(
            seed=3,
            sweep_thetas=5,
            fd_thetas=5,
            n_scms=5,
            coverage_replicates=5,
            coverage_n=500,
        )
        assert not report.passed
        failing = {r.name for r in report.results if not r.passed}
        assert failing == {"jacobian-vs-fd"}

    def test_injected_bound_fault_fails_sweep_agreement(self, monkeypatch):
        import dataclasses

        import medbounds.validate as validate_mod

        exact = validate_mod.effect_bounds

        def broken(bundle):
            eb = exact(bundle)
            return dataclasses.replace(eb, nde=dataclasses.replace(eb.nde, upper=eb.nde.upper + 1e-4))

        monkeypatch.setattr(validate_mod, "effect_bounds", broken)
        result = validate_mod.check_sweep_agreement(np.random.default_rng(3), 5)
        assert not result.passed
        assert result.measured >= 9e-5

    def test_mediation_reduction_checks_the_cross_pair(self, monkeypatch):
        import medbounds.validate as validate_mod
        from medbounds.effects import Pair

        exact = validate_mod.counterfactual_outcome_logit

        def shifted_cross(bundle, pair):
            return exact(bundle, pair) + (1e-3 if pair is Pair.CROSS else 0.0)

        monkeypatch.setattr(validate_mod, "counterfactual_outcome_logit", shifted_cross)
        result = validate_mod.check_mediation_reduction(np.random.default_rng(3), 5)
        assert not result.passed
        assert result.measured == pytest.approx(1e-3, rel=1e-6)

    def test_unknown_command_is_user_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err
