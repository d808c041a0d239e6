"""``load_csv`` against the row-by-row ``csv.DictReader`` loader it replaced.

The reference below is that loader, kept verbatim as the oracle: on any CSV
the two must give the same arrays bit for bit, the same warnings and the
same error text (including the file line of a bad cell).
"""

import csv
import io
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medbounds.errors import IngestionError
from medbounds import glm
from medbounds.glm import Dataset, load_csv


def reference_load_csv(path, outcome, mediator, exposure, covariates=()):
    wanted = [outcome, mediator, exposure, *covariates]
    rows: list[list[float]] = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: empty file (no header row)")
        missing = [c for c in wanted if c not in reader.fieldnames]
        if missing:
            raise IngestionError(f"{path}: missing columns: {', '.join(missing)}")
        for rec in reader:
            vals = [rec[c] for c in wanted]
            if any(v is None or v.strip() == "" for v in vals):
                dropped += 1
                continue
            try:
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with missing values")
    if not rows:
        raise IngestionError(f"{path}: no usable data rows")
    arr = np.array(rows)
    data = Dataset(
        outcome=arr[:, 0],
        mediator=arr[:, 1],
        exposure=arr[:, 2],
        covariates={c: arr[:, 3 + j] for j, c in enumerate(covariates)},
    )
    for label, col in (("outcome", data.outcome), ("mediator", data.mediator)):
        if col.min() == col.max():
            raise IngestionError(f"{path}: {label} column is constant; both levels are required")
    return data


def outcome_of(loader, path, covariates):
    """(arrays or None, error type and text or None, warning texts) of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = loader(path, "y", "m", "x", covariates)
        except Exception as exc:  # the oracle decides which errors are right
            result, error = None, (type(exc), str(exc))
        else:
            cols = [data.outcome, data.mediator, data.exposure, *data.covariates.values()]
            result, error = [c.tobytes() for c in cols], None
    return result, error, [str(w.message) for w in caught]


def load_quietly(path, covariates=()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_csv(path, "y", "m", "x", covariates)


def rebuilt(data):
    """A Dataset of copies of the columns of ``data``, built as any caller
    builds one: its reduction is worked out on first use."""
    return Dataset(
        outcome=data.outcome.copy(),
        mediator=data.mediator.copy(),
        exposure=data.exposure.copy(),
        covariates={c: v.copy() for c, v in data.covariates.items()},
    )


def stored_reduction(data):
    """The (rows, counts, index) ``load_csv`` stored as ``data._reduced``
    when it read the file's distinct lines and their rows are fewer than half
    the rows, else None; read before any fit."""
    return vars(data).get("_reduced")


def columns(data):
    """The (outcome, mediator, exposure, *covariates) rows of ``data``."""
    return np.column_stack([data.outcome, data.mediator, data.exposure, *data.covariates.values()])


def stands_for_the_rows(data):
    """Whether ``data._reduced`` is None, or rows, each counted as often as
    ``index`` holds it and at least once, whose ``rows[index]`` is the rows
    of ``data`` bit for bit."""
    if data._reduced is None:
        return True
    rows, counts, index = data._reduced
    return (
        columns(rows)[index].tobytes() == columns(data).tobytes()
        and counts.tobytes() == np.bincount(index, minlength=rows.n).astype(float).tobytes()
        and bool((counts >= 1).all())
    )


DESIGNS = {"outcome": ["1", "x", "m"], "mediator": ["1", "x"]}


def fit_rows(data):
    """The (rows, counts, sums) each fit on ``data`` runs on."""
    return [glm._fit_rows(data, glm.parse_design(exprs), role) for role, exprs in DESIGNS.items()]


def fits(data):
    """The coefficient and covariance bytes, and the report, of each fit on ``data``."""
    models = [glm.fit_logistic(data, glm.parse_design(exprs), role) for role, exprs in DESIGNS.items()]
    return [(m.coefficients.tobytes(), m.covariance.tobytes(), m.report) for m in models]


def fit_outcomes(data):
    """``fits(data)``, or the type and text of the error a fit raises, and the warnings the fits give."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fits(data)
        except Exception as exc:  # the rebuilt dataset decides which errors are right
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def assert_fits_as_rebuilt(data, zeros_may_differ):
    """Each fit on ``data`` runs on the rows, counts and sums of the same fit
    on ``rebuilt(data)``, and gives its result: the rows may differ in the
    sign of a zero, which no value of a fit reads, where ``zeros_may_differ``."""
    again = rebuilt(data)
    for (rows, counts, sums), (ref_rows, ref_counts, ref_sums) in zip(fit_rows(data), fit_rows(again)):
        assert rows.shape == ref_rows.shape
        if zeros_may_differ:
            assert np.array_equal(rows, ref_rows)
        else:
            assert rows.tobytes() == ref_rows.tobytes()
        assert counts.tobytes() == ref_counts.tobytes() and sums.tobytes() == ref_sums.tobytes()
    assert fit_outcomes(data) == fit_outcomes(again)


NAMES = ["y", "m", "x", "z", "w"]
BINARY = st.sampled_from(["0", "1"])
ODD = st.one_of(
    st.sampled_from(["", " ", "\t", "  "]),
    st.sampled_from([" 1", "0 ", "2.5", "-3e2", " 1.25 ", "1_0", "inf", "nan", "0x1"]),
    st.sampled_from(["oops", "1,5", "two\nlines", 'say "hi"', "1\r\n"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def csv_texts(draw):
    """CSV text with a header of repeated/extra names, and rows that are clean,
    blank, short, long or carry one odd cell (blank, padded, quoted, bad)."""
    extra = draw(st.lists(st.sampled_from(NAMES), max_size=4))
    required = draw(st.sampled_from([["y", "m", "x"]] * 8 + [["y", "m"], []]))
    header = draw(st.permutations(required + extra))
    width = len(header)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "odd", "blank", "short", "long"]))
        if kind == "blank":
            lines.append(None)
            continue
        n = width if kind in ("row", "odd") else (
            draw(st.integers(0, max(width - 1, 0))) if kind == "short" else width + draw(st.integers(1, 3))
        )
        cells = draw(st.lists(BINARY, min_size=n, max_size=n))
        if kind == "odd" and n:
            cells[draw(st.integers(0, n - 1))] = draw(ODD)
        lines.append(cells)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator=terminator)
    if header or draw(st.booleans()):
        writer.writerow(header)
    for cells in lines:
        if cells is None:
            buf.write(terminator)
        else:
            writer.writerow(cells)
    covariates = draw(st.lists(st.sampled_from(header), max_size=2)) if header else []
    if draw(st.integers(0, 9)) == 5:
        covariates.append("absent")
    return buf.getvalue(), covariates


@settings(max_examples=400, deadline=None)
@given(case=csv_texts())
def test_matches_dictreader_loader(tmp_path_factory, case):
    text, covariates = case
    path = tmp_path_factory.mktemp("ingest") / "d.csv"
    path.write_text(text, newline="")
    assert outcome_of(load_csv, path, covariates) == outcome_of(reference_load_csv, path, covariates)


def test_repeated_header_name_maps_to_its_last_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y,m,x\n5,0,1,1\n6,1,0,2\n7,1,1,\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = load_csv(path, outcome="y", mediator="m", exposure="x")
    assert data.exposure.tolist() == [1.0, 2.0]
    assert [str(w.message) for w in caught] == [f"{path}: dropped 1 rows with missing values"]


def test_parse_error_is_raised_before_the_drop_warning(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,m,x\n0,1,\n1,0,2\n0,1,oops\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            load_csv(path, outcome="y", mediator="m", exposure="x")
        except IngestionError as exc:
            assert str(exc) == f"{path}: line 4: could not convert string to float: 'oops'"
        else:
            raise AssertionError("no parse error")
    assert caught == []


def test_bad_cell_is_reported_before_a_later_reader_error(tmp_path):
    # the reader rejects a field over csv.field_size_limit(); a bad cell
    # earlier in the file is still the error the loader reports
    path = tmp_path / "d.csv"
    path.write_text("y,m,x\n0,1,oops\n1,0," + "9" * (csv.field_size_limit() + 1) + "\n")
    for loader in (load_csv, reference_load_csv):
        try:
            loader(path, outcome="y", mediator="m", exposure="x")
        except IngestionError as exc:
            assert str(exc) == f"{path}: line 2: could not convert string to float: 'oops'"
        else:
            raise AssertionError("no parse error")


# ------------------------------------------------ the byte route and the row route
#
# A file of ASCII bytes with no quote and no carriage return outside a CRLF
# line end is scanned as bytes: its plain lines go to one np.loadtxt call and its odd lines through
# the csv rows, merged back in file order. The cases below keep such files.

# cells that give one value in more than one way, or the two zeros
REPEATED = ["20", "20.0", "2e1", "0", "-0", "0.0"]
PLAIN_ODD = st.sampled_from(["", "", " ", "\t", " 1 ", "0 ", "\x0b1", "1_0", "#1", "oops", "nan", "1e5"])


@st.composite
def plain_csv_texts(draw):
    """A header and at least 50 plain rows mixed with odd lines (blank, short,
    long, or one odd cell), with LF or CRLF line ends, with or without a
    final line break. The lines of half the files are drawn from at most 20
    lines, so they repeat (and are read from their distinct lines); the
    other half have continuous cells, which seldom repeat."""
    header = draw(st.permutations(["y", "m", "x", *draw(st.lists(st.sampled_from(NAMES), max_size=2))]))
    width = len(header)
    cell = st.one_of(BINARY, st.floats(-1e3, 1e3, allow_nan=False).map(repr), st.sampled_from(REPEATED))
    lines = []
    for _ in range(draw(st.integers(50, 80))):
        cells = [draw(BINARY if name in ("y", "m") else cell) for name in header]
        kind = draw(st.sampled_from(["row"] * 6 + ["odd", "blank", "short", "long"]))
        if kind == "odd":
            cells[draw(st.integers(0, width - 1))] = draw(PLAIN_ODD)
        elif kind == "short":
            cells = cells[: draw(st.integers(0, width - 1))]
        elif kind == "long":
            cells += ["1"] * draw(st.integers(1, 2))
        lines.append("" if kind == "blank" else ",".join(cells))
    if draw(st.booleans()):
        pool = lines[: draw(st.integers(1, 20))]
        lines = draw(st.lists(st.sampled_from(pool), min_size=len(lines), max_size=len(lines)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ending = draw(st.sampled_from([newline, ""]))
    text = ",".join(header) + newline + newline.join(lines) + ending
    return text, draw(st.sampled_from([[], ["x"], list(header[-1:])]))


@settings(max_examples=150, deadline=None)
@given(case=plain_csv_texts())
def test_plain_files_match_dictreader_loader(tmp_path_factory, case):
    text, covariates = case
    path = tmp_path_factory.mktemp("plain") / "d.csv"
    path.write_text(text, newline="")
    result = outcome_of(load_csv, path, covariates)
    assert result == outcome_of(reference_load_csv, path, covariates)
    if result[0] is not None:
        data = load_quietly(path, covariates)
        assert stands_for_the_rows(data) and stands_for_the_rows(rebuilt(data))
        assert_fits_as_rebuilt(data, zeros_may_differ=True)


def plain_file(tmp_path, rows, ending="\n"):
    path = tmp_path / "d.csv"
    path.write_text("y,m,x\n" + "\n".join(rows) + ending, newline="")
    return path


def test_kept_padded_row_keeps_its_position(tmp_path):
    rows = [f"{i % 2},{(i // 2) % 2},{i}" for i in range(60)]
    rows[31] = "1,0, 31 "
    rows[40] = "0,1,"
    for ending in ("\n", ""):
        path = plain_file(tmp_path, rows, ending)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data = load_csv(path, outcome="y", mediator="m", exposure="x")
        assert data.exposure.tolist() == [float(i) for i in range(60) if i != 40]
        assert data.outcome[31] == 1.0 and data.mediator[31] == 0.0
        assert [str(w.message) for w in caught] == [f"{path}: dropped 1 rows with missing values"]
        assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_lines_longer_than_the_field_size_limit(tmp_path):
    limit = csv.field_size_limit()
    rows = [f"{i % 2},{(i // 3) % 2},{i}" for i in range(60)]
    # a long line whose cells all fit the limit is kept in its place ...
    rows[20] = "1." + "0" * (limit // 2) + ",1,2." + "0" * (limit // 2)
    path = plain_file(tmp_path, rows)
    data = load_csv(path, outcome="y", mediator="m", exposure="x")
    assert data.exposure[20] == 2.0 and data.n == 60
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())
    # ... and a cell over it is the reader's own error
    rows[30] = "1,0," + "9" * (limit + 1)
    path = plain_file(tmp_path, rows)
    assert outcome_of(load_csv, path, ())[1] == (csv.Error, f"field larger than field limit ({limit})")
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_cells_float_accepts_and_loadtxt_rejects(tmp_path):
    for cell, value in (("١", 1.0), ("1_0", 10.0)):
        rows = [f"{i % 2},{(i // 2) % 2},{i}" for i in range(60)]
        rows[25] = f"1,0,{cell}"
        path = tmp_path / "d.csv"
        path.write_text("y,m,x\n" + "\n".join(rows) + "\n", encoding="utf-8", newline="")
        data = load_csv(path, outcome="y", mediator="m", exposure="x")
        assert data.exposure[25] == value and data.n == 60
        assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_hash_in_a_cell_is_an_error_not_a_comment(tmp_path):
    rows = [f"{i % 2},{(i // 2) % 2},{i}" for i in range(60)]
    rows[44] = "1,0,#44"
    path = plain_file(tmp_path, rows)
    try:
        load_csv(path, outcome="y", mediator="m", exposure="x")
    except IngestionError as exc:
        assert str(exc) == f"{path}: line 46: could not convert string to float: '#44'"
    else:
        raise AssertionError("no parse error")
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_crlf_file_loads_like_its_lf_twin_by_the_byte_route(tmp_path, monkeypatch):
    def load(rows, newline):
        path = tmp_path / ("crlf.csv" if newline == "\r\n" else "lf.csv")
        path.write_bytes(("y,m,x" + newline + newline.join(rows) + newline).encode("ascii"))
        result, error, warned = outcome_of(load_csv, path, ())
        unnamed = lambda text: text.replace(str(path), "<file>")
        return result, error and (error[0], unnamed(error[1])), [unnamed(w) for w in warned]

    for repeats in (False, True):
        rows = [f"{i % 2},{(i // 2) % 2},{x_cell(i, repeats)}.5" for i in range(60)]
        rows[10], rows[20] = "1,,10", ""
        lf = load(rows, "\n")
        assert lf[2] == ["<file>: dropped 1 rows with missing values"]
        # the clean CRLF file never reaches the row route
        with monkeypatch.context() as patched:
            patched.setattr(glm, "_read_rows", None)
            assert load(rows, "\r\n") == lf
            assert (stored_reduction(load_quietly(tmp_path / "crlf.csv")) is not None) == repeats
        rows[40] = "1,0,oops"
        lf = load(rows, "\n")
        assert lf[1] == (IngestionError, "<file>: line 42: could not convert string to float: 'oops'")
        assert load(rows, "\r\n") == lf


def test_mixed_line_ends_load_like_their_lf_twin_by_the_byte_route(tmp_path, monkeypatch):
    # a line and its CRLF twin are two distinct lines that give equal rows
    for repeats in (False, True):
        n = 200 if repeats else 60
        rows = [f"{i % 2},{(i // 2) % 2},{x_cell(i, repeats)}.5" for i in range(n)]
        rows[10], rows[20] = "1,,10", ""
        lf = plain_file(tmp_path, rows)
        expected = outcome_of(load_csv, lf, ())
        mixed = tmp_path / "mixed.csv"
        ends = ["\n", "\r\n"] * (n // 2)
        mixed.write_bytes(("y,m,x\r\n" + "".join(map(str.__add__, rows, ends))).encode("ascii"))
        with monkeypatch.context() as patched:
            patched.setattr(glm, "_read_rows", None)
            result, error, warned = outcome_of(load_csv, mixed, ())
            assert (stored_reduction(load_quietly(mixed)) is not None) == repeats
        assert (result, error) == expected[:2] and warned == [w.replace(str(lf), str(mixed)) for w in expected[2]]
        assert outcome_of(load_csv, mixed, ()) == outcome_of(reference_load_csv, mixed, ())
        assert_fits_as_rebuilt(load_quietly(mixed), zeros_may_differ=False)


def x_cell(i, repeats):
    """The exposure of data row ``i``: distinct in every row, or repeating
    every 5 rows (with y and m, every 20), so that the file is read from its
    distinct lines."""
    return i % 5 if repeats else i


def on_both_paths(cases):
    """(case, repeats) parameters: each case on rows that do not repeat,
    under its own name, and on rows that do, under ``<name>-repeating``."""
    return [pytest.param(c, r, id=f"{c}-repeating" if r else c) for r in (False, True) for c in cases]


def both_routes(path, repeats=False):
    """(shape, value bytes, drop count) of the byte route and of the row route
    on one file, whose distinct lines the byte route reads when it repeats."""
    wanted = ["y", "m", "x"]
    by_bytes = glm._read_plain_bytes(path, wanted)
    assert by_bytes is not None, "the file left the byte route"
    assert (by_bytes[2] is not None) == repeats
    return [(arr.shape, arr.tobytes(), dropped) for arr, dropped in (by_bytes[:2], glm._read_rows(path, wanted))]


# line edits (row index -> line) of a 60-row file, and its last line end: a
# flagged line is kept (padded cell) and merged back, or dropped (empty cell)
EDGES = {
    "first-line-kept": ({0: "1,0, 0.5 "}, "\n"),
    "first-line-dropped": ({0: ",0,0.5"}, "\n"),
    "last-line-kept-no-final-break": ({59: "0,1, 59.5"}, ""),
    "last-line-dropped-no-final-break": ({59: "0,1,"}, ""),
    "two-adjacent-lines": ({30: "1,0,", 31: "0,1,\t31.5"}, "\n"),
    "no-line": ({}, "\n"),
}


@pytest.mark.parametrize("case, repeats", on_both_paths(EDGES))
def test_byte_route_edges_match_the_row_route(tmp_path, case, repeats):
    edits, ending = EDGES[case]
    rows = [f"{i % 2},{(i // 2) % 2},{x_cell(i, repeats)}.25" for i in range(60)]
    for i, line in edits.items():
        rows[i] = line
    by_bytes, by_rows = both_routes(plain_file(tmp_path, rows, ending), repeats)
    assert by_bytes == by_rows
    assert by_rows[2] == sum("," in (line[0], line[-1]) for line in edits.values())


def test_file_with_no_clean_line_takes_the_row_route(tmp_path):
    # ", " separators flag every data line, so no line is left for np.loadtxt
    rows = [f"{i % 2}, {(i // 2) % 2}, {i}" for i in range(60)]
    path = plain_file(tmp_path, rows)
    assert glm._read_plain_bytes(path, ["y", "m", "x"]) is None
    assert load_csv(path, outcome="y", mediator="m", exposure="x").exposure.tolist() == list(map(float, range(60)))


# ragged line edits (row index -> line) of a 60-row file with header
# "y,m,x,z", of which y, m and x are mapped; its last line end; and the rows
# dropped. The scan does not count a line's commas: np.loadtxt reads the
# mapped columns of a line of any width that reaches them all, and when one
# does not, the lines too short to reach them are flagged and dropped by the
# row logic, so every such file keeps the byte route.
RAGGED = {
    "more-fields": ({5: "1,0,5.25,1,2,3"}, "\n", 0),
    "fewer-fields-reaching-every-mapped-column": ({6: "0,1,6.25"}, "\n", 0),
    "fewer-fields-short-of-a-mapped-column": ({7: "0,1"}, "\n", 1),
    "empty-unmapped-trailing-cell": ({8: "1,1,8.25,"}, "\n", 0),
    "empty-unmapped-trailing-cell-no-final-break": ({59: "1,1,59.25,"}, "", 0),
    "non-numeric-unmapped-cell": ({9: "1,0,9.25,oops"}, "\n", 0),
    "all-of-them": (
        {5: "1,0,5.25,1,2,3", 6: "0,1,6.25", 7: "0,1", 8: "1,1,8.25,", 9: "1,0,9.25,oops", 30: "0,0,,1"},
        "\n", 2,
    ),
}


def ragged_rows(repeats):
    """The 60 data rows of a file with header "y,m,x,z"."""
    return [f"{i % 2},{(i // 2) % 2},{x_cell(i, repeats)}.25,{x_cell(i, repeats) % 3}" for i in range(60)]


@pytest.mark.parametrize("case, repeats", on_both_paths(RAGGED))
def test_ragged_lines_read_alike_on_both_routes(tmp_path, case, repeats):
    edits, ending, dropped = RAGGED[case]
    rows = ragged_rows(repeats)
    for i, line in edits.items():
        rows[i] = line
    path = tmp_path / "d.csv"
    path.write_text("y,m,x,z\n" + "\n".join(rows) + ending, newline="")
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())
    by_bytes, by_rows = both_routes(path, repeats)
    assert by_bytes == by_rows and by_rows[2] == dropped


def test_bad_cell_in_a_ragged_line_names_its_line(tmp_path):
    for repeats in (False, True):
        rows = ragged_rows(repeats)
        rows[5], rows[10] = "1,0,5.25,1,2", "1,0,oops,1,2"
        path = tmp_path / "d.csv"
        path.write_text("y,m,x,z\n" + "\n".join(rows) + "\n")
        assert glm._read_plain_bytes(path, ["y", "m", "x"]) is None
        expected = (IngestionError, f"{path}: line 12: could not convert string to float: 'oops'")
        assert outcome_of(load_csv, path, ())[1] == expected
        assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_file_whose_every_line_has_an_extra_field_keeps_the_byte_route(tmp_path):
    rows = [f"{i % 2},{(i // 2) % 2},{i}.25,7" for i in range(60)]
    rows[20] = "1,,20.25,7"
    path = plain_file(tmp_path, rows)
    by_bytes, by_rows = both_routes(path)
    assert by_bytes == by_rows and by_rows[2] == 1
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


# ------------------------------------------------ the distinct lines
#
# The byte route parses each distinct data line once and gathers the rows
# back in file order; a file whose first lines do not repeat is parsed whole.


def repeated_rows(n):
    """``n`` rows of 28 distinct lines."""
    return [f"{i % 2},{(i // 2) % 2},{i % 7}.5" for i in range(n)]


def parsed_texts(monkeypatch):
    """The sizes of the texts ``_parse_lines`` is given, recorded as they come."""
    sizes, real = [], glm._parse_lines
    monkeypatch.setattr(glm, "_parse_lines", lambda body, *args: sizes.append(len(body)) or real(body, *args))
    return sizes


def drop_warnings(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = load_csv(path, outcome="y", mediator="m", exposure="x")
    return data, [str(w.message) for w in caught]


@pytest.mark.parametrize("rows", [repeated_rows(60), [f"{i % 2},{(i // 2) % 2},{i}.25" for i in range(60)]])
def test_short_line_keeps_the_byte_route(tmp_path, monkeypatch, rows):
    # a line too short to reach a mapped column fails np.loadtxt; the short
    # lines are flagged and dropped, and np.loadtxt runs once more
    rows = list(rows)
    rows[11] = rows[41] = "0,1"
    path = plain_file(tmp_path, rows)
    with monkeypatch.context() as patched:
        patched.setattr(glm, "_read_rows", None)
        data, warned = drop_warnings(path)
    assert warned == [f"{path}: dropped 2 rows with missing values"]
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())
    arr, dropped = glm._read_rows(path, ["y", "m", "x"])
    assert (np.column_stack([data.outcome, data.mediator, data.exposure]).tobytes(), 2) == (arr.tobytes(), dropped)


def test_repeated_dropped_line_counts_each_time(tmp_path, monkeypatch):
    rows = repeated_rows(60)
    rows[3] = rows[30] = rows[59] = "0,1,"
    path = plain_file(tmp_path, rows)
    sizes = parsed_texts(monkeypatch)
    data, warned = drop_warnings(path)
    assert warned == [f"{path}: dropped 3 rows with missing values"]
    assert stored_reduction(data) is not None and sizes == [len("".join(sorted(set(r + "\n" for r in rows))))]
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


# files whose lines repeat: one value written two ways (20 and 20.0 are two
# lines and one row), the two zeros (two rows, which then do not reduce),
# more lines than one dedupe block, with odd lines past it, and rows each
# followed by a blank line (40 distinct lines, under half the lines but not
# under half the 60 rows, which do not reduce)
def _many_lines():
    rows = repeated_rows(3 * glm._DEDUPE_BLOCK + 5)
    for i in range(7, len(rows), 997):
        rows[i] = ["1,0,", "", "0,1", "1,0, 2.5 ", "1,1,\t20"][i % 5]
    return rows


REPEATING = {
    "twenty-two-ways": [f"{i % 2},{(i // 2) % 2},{('20', '20.0', '3')[i % 3]}" for i in range(60)],
    "signed-zeros": [f"{i % 2},{(i // 2) % 2},{('0', '-0', '3')[i % 3]}" for i in range(60)],
    "more-than-one-block": _many_lines(),
    "double-spaced": [line for i in range(60) for line in (f"{i % 2},{(i // 2) % 2},{i % 40}", "")],
}


@pytest.mark.parametrize("case", REPEATING)
def test_loaded_reduction_fits_as_the_rebuilt_dataset(tmp_path, monkeypatch, case):
    rows = REPEATING[case]
    path = plain_file(tmp_path, rows)
    sizes = parsed_texts(monkeypatch)
    data = load_quietly(path)
    # the file is read from its distinct lines, whose rows are the reduction
    # where they are fewer than half the rows
    assert sizes == [len("".join(set(r + "\n" for r in rows)))]
    stored = stored_reduction(data)
    assert (stored is None) == (case == "double-spaced")
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())
    again = rebuilt(data)
    assert stands_for_the_rows(data) and stands_for_the_rows(again)
    assert_fits_as_rebuilt(data, zeros_may_differ=case == "signed-zeros")
    assert fits(data) == fits(again)
    if case == "twenty-two-ways":
        # 12 distinct lines, of which 20 and 20.0 give one row
        assert len(stored[1]) == 12 and len(again._reduced[1]) == 8
    if case == "double-spaced":
        # every fit runs on every row, as the rebuilt dataset's do
        assert [report.patterns for *_, report in fits(data)] == [60, 60]
    # the rows of the two zeros share a key but differ bit for bit
    assert (again._reduced is None) == (case in ("signed-zeros", "double-spaced"))


def test_counting_a_repeated_line_once_fails_the_checks(tmp_path, monkeypatch):
    rows = list(REPEATING["twenty-two-ways"])
    rows[3] = rows[30] = rows[59] = "0,1,"
    path = plain_file(tmp_path, rows)
    _, warned = drop_warnings(path)
    assert warned == [f"{path}: dropped 3 rows with missing values"]
    real = np.bincount
    with monkeypatch.context() as patched:
        # every count of lines (dropped or giving a row) is at most 1
        patched.setattr(np, "bincount", lambda *args, **kwargs: np.minimum(real(*args, **kwargs), 1))
        data, faulty = drop_warnings(path)
        faulty_counts = [counts.tobytes() for _, counts, _ in fit_rows(data)]
    assert faulty != warned
    assert faulty_counts != [counts.tobytes() for _, counts, _ in fit_rows(rebuilt(data))]


def test_file_whose_lines_repeat_only_at_its_start_is_parsed_whole(tmp_path, monkeypatch):
    # the first block reduces to 2 lines, but with the second block half of
    # the lines read are distinct, so the reduction stops there
    monkeypatch.setattr(glm, "_DEDUPE_BLOCK", 32)
    rows = ["1,0,2.5", "0,1,3.5"] * 16 + [f"{i % 2},{(i // 2) % 2},{i}.25" for i in range(60)]
    path = plain_file(tmp_path, rows)
    sizes = parsed_texts(monkeypatch)
    assert stored_reduction(load_quietly(path)) is None and sizes == [len(path.read_bytes()) - len("y,m,x\n")]
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())


def test_file_whose_lines_do_not_repeat_is_parsed_whole(tmp_path, monkeypatch):
    rows = [f"{i % 2},{(i // 2) % 2},{i}.25" for i in range(60)]
    rows[10] = "1,,10"
    rows[20] = rows[10]
    path = plain_file(tmp_path, rows)
    sizes = parsed_texts(monkeypatch)
    monkeypatch.setattr(glm, "_read_rows", None)
    data, warned = drop_warnings(path)
    assert warned == [f"{path}: dropped 2 rows with missing values"]
    assert stored_reduction(data) is None and sizes == [len(path.read_bytes()) - len("y,m,x\n")]


# ------------------------------------------------ one copy of the data at a time
#
# The byte route holds one file-sized buffer at a time: the file's bytes and
# each line's distinct-line number while it scans (F + 8 bytes a line), the
# joined numbers once the bytes are gone (16 bytes a line while they are
# joined), then the row table and each row's distinct row while it gathers
# (8k + 8 bytes a row for k columns). The row route holds the row table and
# one block of rows as cells.

ONE_COPY_LINES = 100_000


def traced_peak(load, path):
    """The traced peak of ``load(path)``, in bytes, and what it returned."""
    tracemalloc.start()
    try:
        result = load(path)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def one_copy_bound(path, data):
    """1.25 x max(file bytes + 16 B a line, table bytes + 8 B a line) of a
    file of ``ONE_COPY_LINES`` data lines loaded as ``data``. The byte route
    reads 1.09 x the max; holding the file's bytes through the gather reads
    1.59 x, and holding the per-line index arrays through it as well 2.5 x."""
    table = data.n * 8 * (3 + len(data.covariates))
    return 1.25 * max(path.stat().st_size + 16 * ONE_COPY_LINES, table + 8 * ONE_COPY_LINES)


def repeated_wide_file(tmp_path):
    """``ONE_COPY_LINES`` lines of 28 distinct rows, one in 1,000 dropped,
    each line 16 bytes with its unmapped ``z`` cell, so that the file's bytes
    and the row table of y, m and x each take about half the bound."""
    rows = [f"{i % 2},{(i // 2) % 2},{i % 7}.5,1234567" for i in range(ONE_COPY_LINES)]
    rows[::1000] = ["1,0,,1234567"] * len(rows[::1000])
    path = tmp_path / "d.csv"
    path.write_text("y,m,x,z\n" + "\n".join(rows) + "\n")
    return path


def test_byte_route_holds_one_copy_of_the_data(tmp_path):
    path = repeated_wide_file(tmp_path)
    peak, data = traced_peak(load_quietly, path)
    assert data.n == ONE_COPY_LINES - 100 and stored_reduction(data) is not None
    assert peak <= one_copy_bound(path, data)


def test_file_bytes_held_through_the_gather_fail_the_one_copy_bound(tmp_path, monkeypatch):
    # every buffer the byte route reads as a stream is kept until the load
    # returns: the file's bytes then stay alive while the rows are gathered
    held, stream = [], io.BytesIO
    monkeypatch.setattr(glm, "io", types.SimpleNamespace(BytesIO=lambda b: held.append(b) or stream(b), StringIO=io.StringIO))
    path = repeated_wide_file(tmp_path)
    peak, data = traced_peak(load_quietly, path)
    assert any(len(b) == path.stat().st_size for b in held) and stored_reduction(data) is not None
    assert peak > one_copy_bound(path, data)


def test_row_route_holds_the_table_and_one_block_of_rows(tmp_path):
    # a quoted header cell sends the whole file to the row route; the bound
    # is twice the table (the growing array's spare room) and 1 KiB a row of
    # one block. The rows read at once, as cells, read 15.2 MB against 5.8.
    rows = [f"{i % 2},{(i // 2) % 2},{i}.5" for i in range(ONE_COPY_LINES)]
    rows[::1000] = ["1,0,"] * len(rows[::1000])
    path = tmp_path / "d.csv"
    path.write_text('"y",m,x\n' + "\n".join(rows) + "\n")
    peak, data = traced_peak(load_quietly, path)
    assert data.n == ONE_COPY_LINES - 100 and data.exposure[-1] == ONE_COPY_LINES - 0.5
    assert peak <= 2 * data.n * 8 * 3 + glm._ROW_BLOCK * 1024
