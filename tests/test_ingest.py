"""``load_csv`` against the row-by-row ``csv.DictReader`` loader it replaced.

The reference below is that loader, kept verbatim as the oracle: on any CSV
the two must give the same arrays bit for bit, the same warnings and the
same error text (including the file line of a bad cell).
"""

import csv
import io
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

PLAIN_ODD = st.sampled_from(["", "", " ", "\t", " 1 ", "0 ", "\x0b1", "1_0", "#1", "oops", "nan", "1e5"])


@st.composite
def plain_csv_texts(draw):
    """A header and at least 50 plain rows mixed with odd lines (blank, short,
    long, or one odd cell), with LF or CRLF line ends, with or without a
    final line break."""
    header = draw(st.permutations(["y", "m", "x", *draw(st.lists(st.sampled_from(NAMES), max_size=2))]))
    width = len(header)
    cell = st.one_of(BINARY, st.floats(-1e3, 1e3, allow_nan=False).map(repr))
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
    assert outcome_of(load_csv, path, covariates) == outcome_of(reference_load_csv, path, covariates)


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
    rows = [f"{i % 2},{(i // 2) % 2},{i}.5" for i in range(60)]
    rows[10], rows[20] = "1,,10", ""

    def load(rows, newline):
        path = tmp_path / ("crlf.csv" if newline == "\r\n" else "lf.csv")
        path.write_bytes(("y,m,x" + newline + newline.join(rows) + newline).encode("ascii"))
        result, error, warned = outcome_of(load_csv, path, ())
        unnamed = lambda text: text.replace(str(path), "<file>")
        return result, error and (error[0], unnamed(error[1])), [unnamed(w) for w in warned]

    lf = load(rows, "\n")
    assert lf[2] == ["<file>: dropped 1 rows with missing values"]
    # the clean CRLF file never reaches the row route
    with monkeypatch.context() as patched:
        patched.setattr(glm, "_read_rows", None)
        assert load(rows, "\r\n") == lf
    rows[40] = "1,0,oops"
    lf = load(rows, "\n")
    assert lf[1] == (IngestionError, "<file>: line 42: could not convert string to float: 'oops'")
    assert load(rows, "\r\n") == lf


def both_routes(path):
    """(shape, value bytes, drop count) of the byte route and of the row route on one file."""
    wanted = ["y", "m", "x"]
    by_bytes = glm._read_plain_bytes(path, path.read_bytes(), wanted)
    assert by_bytes is not None, "the file left the byte route"
    return [(arr.shape, arr.tobytes(), dropped) for arr, dropped in (by_bytes, glm._read_rows(path, wanted))]


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


@pytest.mark.parametrize("case", EDGES)
def test_byte_route_edges_match_the_row_route(tmp_path, case):
    edits, ending = EDGES[case]
    rows = [f"{i % 2},{(i // 2) % 2},{i}.25" for i in range(60)]
    for i, line in edits.items():
        rows[i] = line
    by_bytes, by_rows = both_routes(plain_file(tmp_path, rows, ending))
    assert by_bytes == by_rows
    assert by_rows[2] == sum("," in (line[0], line[-1]) for line in edits.values())


def test_file_with_no_clean_line_takes_the_row_route(tmp_path):
    # ", " separators flag every data line, so no line is left for np.loadtxt
    rows = [f"{i % 2}, {(i // 2) % 2}, {i}" for i in range(60)]
    path = plain_file(tmp_path, rows)
    assert glm._read_plain_bytes(path, path.read_bytes(), ["y", "m", "x"]) is None
    assert load_csv(path, outcome="y", mediator="m", exposure="x").exposure.tolist() == list(map(float, range(60)))


# ragged line edits (row index -> line) of a 60-row file with header
# "y,m,x,z", of which y, m and x are mapped; its last line end; whether the
# file keeps the byte route; and the rows dropped. The scan does not count a
# line's commas: np.loadtxt reads the mapped columns of a line of any width
# that reaches them all, and fails on one that does not, which sends the
# whole file to the row route.
RAGGED = {
    "more-fields": ({5: "1,0,5.25,1,2,3"}, "\n", True, 0),
    "fewer-fields-reaching-every-mapped-column": ({6: "0,1,6.25"}, "\n", True, 0),
    "fewer-fields-short-of-a-mapped-column": ({7: "0,1"}, "\n", False, 1),
    "empty-unmapped-trailing-cell": ({8: "1,1,8.25,"}, "\n", True, 0),
    "empty-unmapped-trailing-cell-no-final-break": ({59: "1,1,59.25,"}, "", True, 0),
    "non-numeric-unmapped-cell": ({9: "1,0,9.25,oops"}, "\n", True, 0),
    "all-of-them": (
        {5: "1,0,5.25,1,2,3", 6: "0,1,6.25", 8: "1,1,8.25,", 9: "1,0,9.25,oops", 30: "0,0,,1"},
        "\n", True, 1,
    ),
}


@pytest.mark.parametrize("case", RAGGED)
def test_ragged_lines_read_alike_on_both_routes(tmp_path, case):
    edits, ending, byte_route, dropped = RAGGED[case]
    rows = [f"{i % 2},{(i // 2) % 2},{i}.25,{i % 3}" for i in range(60)]
    for i, line in edits.items():
        rows[i] = line
    path = tmp_path / "d.csv"
    path.write_text("y,m,x,z\n" + "\n".join(rows) + ending, newline="")
    assert outcome_of(load_csv, path, ()) == outcome_of(reference_load_csv, path, ())
    assert (glm._read_plain_bytes(path, path.read_bytes(), ["y", "m", "x"]) is not None) == byte_route
    if byte_route:
        by_bytes, by_rows = both_routes(path)
        assert by_bytes == by_rows and by_rows[2] == dropped
    else:
        assert glm._read_rows(path, ["y", "m", "x"])[1] == dropped


def test_bad_cell_in_a_ragged_line_names_its_line(tmp_path):
    rows = [f"{i % 2},{(i // 2) % 2},{i}.25,{i % 3}" for i in range(60)]
    rows[5], rows[10] = "1,0,5.25,1,2", "1,0,oops,1,2"
    path = tmp_path / "d.csv"
    path.write_text("y,m,x,z\n" + "\n".join(rows) + "\n")
    assert glm._read_plain_bytes(path, path.read_bytes(), ["y", "m", "x"]) is None
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
