"""Seeded benchmark inputs.

Every input file is derived from the run's seed alone and written by the
code here, never by medbounds itself, so the program under test only ever
receives generated files. Each file is hashed (sha256) in the results, so
runs on two commits can be shown to have read the same bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from medbounds.scm import demo_cohort_scm, sample_dataset

HEADER = ("y", "m", "x", "bmi", "gender")
COLUMNS = {"outcome": "y", "mediator": "m", "exposure": "x", "covariates": ["bmi", "gender"]}
OUTCOME_DESIGN = ["1", "x", "m", "bmi", "gender"]
MEDIATOR_DESIGN = ["1", "x", "bmi", "gender"]
BINARY = {"y", "m", "gender"}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cohort_table(n: int, seed: int) -> np.ndarray:
    """(n, 5) array in HEADER order, drawn from the bundled demo cohort."""
    data = sample_dataset(demo_cohort_scm(), n, seed)
    return np.column_stack(
        [data.outcome, data.mediator, data.exposure, data.covariates["bmi"], data.covariates["gender"]]
    )


def blank_cells(n: int, seed: int, frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (rows, columns) of cells to leave empty: one cell in each of round(frac*n) rows."""
    rng = np.random.default_rng([seed, 1])
    rows = np.sort(rng.choice(n, size=int(round(frac * n)), replace=False))
    return rows, rng.integers(0, len(HEADER), size=len(rows))


def write_csv(path, table: np.ndarray, blanks=None) -> None:
    """Write ``table`` with a header row; floats in shortest round-trip form.

    Binary columns are written as 0/1. ``blanks`` is a (rows, columns) pair
    of cells written as empty strings.
    """
    cols = []
    for j, name in enumerate(HEADER):
        uniq, inv = np.unique(table[:, j], return_inverse=True)
        text = [str(int(v)) if name in BINARY else repr(float(v)) for v in uniq]
        cols.append(np.array(text, dtype=object)[inv])
    if blanks is not None:
        rows, which = blanks
        for j in range(len(HEADER)):
            cols[j][rows[which == j]] = ""
    with open(path, "w") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def write_config(path, data_path, contrasts: dict) -> None:
    cfg = {
        "data": str(data_path),
        "columns": COLUMNS,
        "outcome_design": OUTCOME_DESIGN,
        "mediator_design": MEDIATOR_DESIGN,
        "contrasts": contrasts,
        "alpha": 0.05,
    }
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)


def gender_profiles(table: np.ndarray) -> list[dict]:
    """The per-gender BMI-mean profiles a ``curve`` run derives from the data."""
    bmi, gender = table[:, 3], table[:, 4]
    return [
        {"gender": g, "bmi": float(bmi[gender == g].mean())}
        for g in (0.0, 1.0)
        if (gender == g).any()
    ]
