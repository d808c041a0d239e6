"""Binary-response logistic regression with arbitrary predictor bases.

Two models are fit per analysis: one for the outcome (which may reference
the mediator) and one for the mediator (which must not). Designs are lists
of named basis terms, so the linear predictor can be any function of
exposure, mediator and covariates that the user can express as a sum of
bases: identities, interactions and powers parsed from term strings, or
arbitrary callables.

Terms evaluate row-wise on a point whose fields are arrays, and a single
point is a batch of one. Parsed terms read a name by one rule: ``x`` is the
exposure, ``m`` the mediator, any other name a covariate.

Fitting is plain damped Newton on the Bernoulli log-likelihood (IRLS), with
the coefficient covariance taken as the inverse observed information at the
optimum. The likelihood, its score and its information depend on the data
only through the row count and the response sum of each distinct design row
(a pattern), so the fit runs on the patterns and is exact: every row is
checked against its pattern bit for bit (but for the sign of a zero). It
runs on every row, with unit counts, when at least half of the rows are
distinct or the check fails.

Both models share one reduction of the dataset's rows (``Dataset._reduced``),
and each design is evaluated once, on those rows weighted by their counts,
which gives the patterns, in the order, of reducing the design on every
row; where the dataset's rows do not reduce, on every row.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import math
import operator
import types
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    IngestionError,
    MissingVariableError,
    SeparationError,
    SingularDesignError,
)

GRAD_TOL = 1e-8
MAX_ITER = 100
SEPARATION_THRESHOLD = 15.0


# --------------------------------------------------------------------------
# Evaluation points and design terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One location where a linear predictor is evaluated.

    ``mediator`` is None for mediator-model designs, which never reference it.
    ``covariates`` maps names to values; arrays are accepted everywhere so the
    same terms evaluate row-wise on full datasets.
    """

    exposure: float
    mediator: float | None
    covariates: Mapping[str, float]


@dataclass(frozen=True)
class Term:
    """A named basis function of an evaluation point."""

    name: str
    fn: Callable[[Point], float]

    def __call__(self, point: Point):
        return self.fn(point)


def _variable(point: Point, name: str):
    """The value of ``x`` (exposure), ``m`` (mediator) or a covariate at a point."""
    if name == "x":
        return point.exposure
    if name == "m":
        if point.mediator is None:
            raise MissingVariableError("term 'm' requires a mediator value")
        return point.mediator
    try:
        return point.covariates[name]
    except KeyError:
        raise MissingVariableError(f"covariate '{name}' missing from point", name) from None


def _factors(expr: str) -> list[tuple[str, int | None]]:
    """The (name, power or None) factors of a term expression, in order."""
    expr = expr.strip()
    if not expr:
        raise ValueError("empty term expression")
    factors = []
    for raw in expr.split("*"):
        base, caret, exp_s = raw.strip().partition("^")
        k = int(exp_s) if caret else None
        name = base.strip()
        if name != "1" and not name.isidentifier():
            raise ValueError(f"cannot parse term factor {name!r}")
        factors.append((name, k))
    return factors


def parse_term(expr: str) -> Term:
    """Parse a compact term expression.

    Grammar: factors joined by ``*``; each factor is ``1``, ``x`` (exposure),
    ``m`` (mediator), a covariate name, or any of those raised with ``^k``;
    whitespace around ``*`` and ``^`` is ignored.
    Examples: ``"1"``, ``"x"``, ``"x*m"``, ``"bmi^2"``, ``"x * gender"``.
    """
    factors = _factors(expr)

    def fn(p: Point):
        out = None
        for name, k in factors:
            if name == "1":
                v = np.ones_like(np.asarray(p.exposure, dtype=float))
            else:
                v = np.asarray(_variable(p, name), dtype=float)
            if k is not None:
                v = v**k
            out = v if out is None else out * v
        return out

    return Term("*".join(name if k is None else f"{name}^{k}" for name, k in factors), fn)


@dataclass(frozen=True)
class DesignSpec:
    """Ordered basis terms defining one model's linear predictor."""

    terms: tuple[Term, ...]
    includes_mediator: bool

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("a design needs at least one term")

    @property
    def names(self) -> list[str]:
        return [t.name for t in self.terms]

    def evaluate(self, point: Point, n: int) -> np.ndarray:
        """(n, k) basis evaluations at a point whose fields are length-n arrays."""
        cols = [np.broadcast_to(np.asarray(t(point), dtype=float), (n,)) for t in self.terms]
        return np.column_stack(cols)

    def matrix(self, data: "Dataset") -> np.ndarray:
        p = Point(exposure=data.exposure, mediator=data.mediator, covariates=data.covariates)
        X = self.evaluate(p, data.n)
        if not np.all(np.isfinite(X)):
            bad = [self.terms[j].name for j in range(X.shape[1]) if not np.all(np.isfinite(X[:, j]))]
            raise IngestionError(f"non-finite design values in terms: {', '.join(bad)}")
        return X


def parse_design(exprs: Sequence[str]) -> DesignSpec:
    if not isinstance(exprs, (list, tuple)) or not all(isinstance(e, str) for e in exprs):
        raise ValueError(f"a design is a list of term strings, got {exprs!r}")
    mentions_m = any(name == "m" for e in exprs for name, _ in _factors(e))
    return DesignSpec(terms=tuple(parse_term(e) for e in exprs), includes_mediator=mentions_m)


# --------------------------------------------------------------------------
# Data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Rows of (binary outcome, binary mediator, exposure, named covariates)
    in read-only float arrays (a column given in any other form is copied)."""

    outcome: np.ndarray
    mediator: np.ndarray
    exposure: np.ndarray
    covariates: Mapping[str, np.ndarray]

    def __post_init__(self):
        for name in ("outcome", "mediator", "exposure"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        covariates = types.MappingProxyType({k: _read_only(v) for k, v in self.covariates.items()})
        object.__setattr__(self, "covariates", covariates)
        n = self.n
        if n == 0:
            raise IngestionError("dataset is empty")
        for label, col in [("mediator", self.mediator), ("exposure", self.exposure), *covariates.items()]:
            if len(col) != n:
                raise IngestionError(f"column '{label}' has length {len(col)}, expected {n}")
            if not np.isfinite(col).all():
                raise IngestionError("dataset contains non-finite values")
        for label, col in [("outcome", self.outcome), ("mediator", self.mediator)]:
            # not np.isin, which copies a strided column
            if not ((col == 0.0) | (col == 1.0)).all():
                raise IngestionError(f"{label} column must be strictly 0/1")

    def __reduce__(self):
        # a mappingproxy does not pickle: pickle and deepcopy rebuild the dataset from its columns
        return Dataset, (self.outcome, self.mediator, self.exposure, dict(self.covariates))

    @property
    def n(self) -> int:
        return len(self.outcome)

    @cached_property
    def _reduced(self) -> tuple["Dataset", np.ndarray, np.ndarray] | None:
        """(rows, counts, index): fewer than half as many rows as the dataset,
        as a Dataset, the number of its rows equal to each, bit for bit (a
        term may tell 0.0 from -0.0), and each row's index into them; None
        when at least half the rows are distinct or two different rows share
        a key. Worked out once, on first use, unless ``load_csv`` set it from
        its file's distinct lines, which may give equal rows (``20``, ``20.0``).
        """
        table = np.column_stack([self.outcome, self.mediator, self.exposure, *self.covariates.values()])
        found = _key_groups(table, self.n)
        if found is None:
            return None
        first, inverse = found
        bits = table.view(np.uint64)
        if not np.array_equal(bits[first].take(inverse, axis=0), bits):
            return None
        return _table_dataset(table[first], self.covariates), np.bincount(inverse).astype(float), inverse


def _read_only(col) -> np.ndarray:
    """``col`` as a read-only float array that no other array writes to:
    itself if it is one (with a read-only owner if it is a view), else a copy."""
    owner = col if getattr(col, "base", None) is None else col.base
    kept = type(col) is np.ndarray and type(owner) is np.ndarray and col.dtype == float
    if kept and not (col.flags.writeable or owner.flags.writeable):
        return col
    col = np.array(col, dtype=float)
    col.flags.writeable = False
    return col


def _table_dataset(table: np.ndarray, covariates: Sequence[str]) -> Dataset:
    """The Dataset whose columns are those of an (outcome, mediator, exposure,
    *covariates) table built here, made read-only so that they are not copied."""
    table.flags.writeable = False
    return Dataset(
        outcome=table[:, 0],
        mediator=table[:, 1],
        exposure=table[:, 2],
        covariates={c: table[:, 3 + j] for j, c in enumerate(covariates)},
    )


def load_csv(
    path,
    outcome: str,
    mediator: str,
    exposure: str,
    covariates: Sequence[str] = (),
) -> Dataset:
    """Read a header-ed CSV into a Dataset using an explicit column mapping.

    Blank lines are skipped. Rows too short to reach a mapped column, or with
    an empty or whitespace-only cell in one, are dropped (and counted in a
    warning). A cell Python's ``float`` rejects is an error naming the file
    line of its row. A header name that repeats maps to its last column.
    Binary columns must contain only 0/1 after parsing.

    One semantics, two routes. A file of ASCII bytes with no quote, and with
    no carriage return outside a CRLF line end (read as a line break, as
    ``csv.reader`` reads it), takes the byte route. Its data lines are
    first reduced to the distinct ones, and each distinct line is parsed
    once: one numpy scan flags each line that is blank, has an empty cell, a
    space or control byte, or more bytes than ``csv.field_size_limit()``;
    one ``np.loadtxt`` call parses all other lines (its numbers are
    ``float``'s bit for bit), and the flagged lines go through the
    ``csv.reader`` row logic. The rows then go back in file order, and a
    dropped line counts once for each time it occurs. The lines are
    reduced ``_DEDUPE_BLOCK`` at a time; as soon as at least half of the
    lines read so far are distinct, the reduction stops and the file is
    parsed whole in the same way. The scan does not count commas:
    ``np.loadtxt`` reads only the mapped columns, so a line with more or
    fewer fields than the header that reaches every mapped column is read
    as the row route reads it; when it fails, the lines too short to reach
    one are flagged too (the row logic drops them) and it runs once more.
    Every other file, and any file where ``np.loadtxt`` or a flagged line's
    cell fails, takes the row route whole, so drops, warnings and errors
    (with their line numbers) do not depend on the route. A file whose
    every line is flagged (one written with ``", "`` separators, say) takes
    the row route as soon as the scan ends.

    A dataset read from the distinct lines keeps their rows as its reduction
    where they are fewer than half the rows: its fits evaluate designs on them.

    One copy of the data at a time: the byte route holds one file-sized
    buffer at a time, and frees the file's bytes and its per-line index
    before it gathers the row table (``_read_plain_bytes``); the row route
    reads, picks and converts ``_ROW_BLOCK`` rows at a time (``_read_rows``).
    """
    wanted = [outcome, mediator, exposure, *covariates]
    parsed = _read_plain_bytes(path, wanted)
    arr, dropped, lines = parsed if parsed is not None else (*_read_rows(path, wanted), None)
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with missing values")
    if not arr.size:
        raise IngestionError(f"{path}: no usable data rows")
    data = _table_dataset(arr, covariates)
    if lines is not None and 2 * len(lines[0]) < len(arr):  # the value ``Dataset._reduced`` caches
        table, row = lines
        data.__dict__["_reduced"] = _table_dataset(table, covariates), np.bincount(row).astype(float), row
    for label, col in (("outcome", data.outcome), ("mediator", data.mediator)):
        if col.min() == col.max():
            raise IngestionError(f"{path}: {label} column is constant; both levels are required")
    return data


def _mapped_columns(path, header, wanted: Sequence[str]) -> list[int]:
    """Header positions of the wanted names (a repeated name maps to its last column)."""
    if header is None:
        raise IngestionError(f"{path}: empty file (no header row)")
    missing = [c for c in wanted if c not in header]
    if missing:
        raise IngestionError(f"{path}: missing columns: {', '.join(missing)}")
    position = {name: j for j, name in enumerate(header)}
    return [position[c] for c in wanted]


def _pick_cells(rows, columns: Sequence[int]) -> list:
    """The cells at ``columns`` of each non-blank row, or None for a row the
    loader drops: one too short to reach a mapped column, or with an empty or
    whitespace-only mapped cell."""
    pick, width = operator.itemgetter(*columns), max(columns) + 1
    picked = [pick(row) if len(row) >= width else None for row in rows if row]
    return [cells if cells is not None and all(map(str.strip, cells)) else None for cells in picked]


def _floats(kept, k: int) -> np.ndarray:
    """(rows, k) array of the kept cells, an iterable of k-tuples, each
    converted by ``float`` into one growing array."""
    flat = np.fromiter(map(float, itertools.chain.from_iterable(kept)), dtype=float)
    flat.flags.writeable = False  # so that a Dataset takes the columns of its view without a copy
    return flat.reshape(-1, k)


def _read_rows(path, wanted: Sequence[str]) -> tuple[np.ndarray, int]:
    """The row route for a whole file: (kept rows, rows dropped).

    One copy of the data at a time: the rows are read, picked and converted
    ``_ROW_BLOCK`` at a time into one growing array, so no more than a block
    of them is ever held as ``str`` cells. The first error in file order is
    raised, from a second pass (``_raise_parse_error``).
    """
    dropped = 0

    def kept_cells(reader, columns):
        nonlocal dropped
        while True:
            start = reader.line_num
            picked = _pick_cells(itertools.islice(reader, _ROW_BLOCK), columns)
            if reader.line_num == start:
                return
            kept = [cells for cells in picked if cells is not None]
            dropped += len(picked) - len(kept)
            yield from kept

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = _mapped_columns(path, next(reader, None), wanted)
        try:
            rows = _floats(kept_cells(reader, columns), len(wanted))
        except (csv.Error, ValueError):
            _raise_parse_error(path, columns)
            raise
    return rows, dropped


# the row route reads this many rows at a time. In one in-process sweep on
# 250,000 demo-cohort rows (a quoted header cell sends them there), blocks
# of 1,024 read as fast as all rows at once (393 against 402 ms) with a
# traced peak of 11.8 MB against 57.7; blocks of 4,096 and 8,192 took 424
# and 445 ms, as the rows of a block outgrow the CPU caches.
_ROW_BLOCK = 1024


# the data lines are reduced this many at a time, and as soon as at least
# half of the lines read so far are distinct, the reduction stops and the
# whole body is parsed as it is. A file whose lines do not repeat stops
# after one block, which costs 0.4 ms (against about 95 ms to load 250,000
# such rows); one whose lines repeat only at its start stops at the block
# where the distinct lines reach half, so at most the reduction of every
# line (about 23 ms for 250,000) is spent in vain, on a file whose distinct
# lines reach half only at its end. 0.5-9% of the lines of a demo-cohort
# file are distinct, far from the half.
_DEDUPE_BLOCK = 4096


def _read_plain_bytes(path, wanted: Sequence[str]):
    """The byte route: (kept rows, rows dropped, the (table, index) of the
    distinct lines or None), or None when the whole file must take the row
    route: one with a non-ASCII byte, a quote, a carriage return outside a
    CRLF line end or no line break, or one ``_parse_lines`` rejects. The
    file's bytes are held by this call alone, so that they can go before
    the rows are gathered. CRLF line ends are read as LF: in the joined
    distinct lines, or in one copy of a file that is parsed whole.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    crlf = b"\r" in raw
    if b'"' in raw or not raw.isascii() or crlf and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    head_end = raw.find(b"\n")
    if head_end < 0:
        return None
    header = next(csv.reader([raw[:head_end].rstrip(b"\r").decode("ascii")]), None)
    columns = _mapped_columns(path, header, wanted)
    # each line's distinct-line number, from one pass that keeps the distinct
    # lines, in that order, as the keys of ``distinct``
    lines = io.BytesIO(raw)
    lines.seek(head_end + 1)
    distinct = collections.defaultdict(itertools.count().__next__)
    numbers = map(distinct.__getitem__, lines)
    blocks: list[np.ndarray] = []
    reduces = True
    while reduces and (not blocks or len(blocks[-1]) == _DEDUPE_BLOCK):
        blocks.append(np.fromiter(itertools.islice(numbers, _DEDUPE_BLOCK), dtype=np.intp))
        reduces = 2 * len(distinct) < sum(map(len, blocks))
    del lines, numbers
    if not reduces:
        del distinct, blocks
        if crlf:
            raw = raw.replace(b"\r\n", b"\n")
            head_end = raw.find(b"\n")
        parsed = _parse_lines(memoryview(raw)[head_end + 1 :], columns)
        if parsed is None:
            return None
        arr, _, dropped = parsed
        return arr, len(dropped), None
    # one copy of the data at a time: the file's bytes go before the distinct
    # lines are parsed, and the per-line arrays but ``row`` before the gather
    del raw
    line = np.concatenate(blocks)
    del blocks
    text = b"".join(distinct)
    del distinct
    parsed = _parse_lines(text.replace(b"\r\n", b"\n") if crlf else text, columns)
    if parsed is None:
        return None
    table, skipped, dropped = parsed
    # the row of each line that gives one
    gives_row = np.ones(len(table) + len(skipped), dtype=bool)
    gives_row[skipped] = False
    dropped_count = int(np.bincount(line)[dropped].sum())
    line = line[gives_row[line]]
    row = (np.cumsum(gives_row) - 1)[line]
    del line
    return table.take(row, axis=0), dropped_count, (table, row)


def _parse_lines(body, columns: Sequence[int]):
    """(rows, skipped, dropped) of the lines of ``body``: the values of each
    line that gives a row, in line order, and the sorted indices of the lines
    that give none (blank or dropped) and of the dropped lines; or None when
    the whole file must take the row route."""
    b = np.frombuffer(body, dtype=np.uint8)
    starts, ends, flagged = _flag_lines(b)
    for attempt in (1, 2):
        if len(flagged) == len(starts):
            return None  # no clean line: the row route alone reads the file
        # the runs of clean lines between the flagged ones, joined from slices
        lo, hi = starts[flagged].tolist(), (ends[flagged] + 1).tolist()
        clean = b"".join([body[a:b] for a, b in zip([0, *hi], [*lo, len(body)])])
        try:
            arr = np.loadtxt(io.BytesIO(clean), delimiter=",", usecols=columns, comments=None, dtype=float, ndmin=2)
            break
        except ValueError:
            # a line too short to reach a mapped column fails np.loadtxt:
            # flag those lines too (the row logic drops them) and run it once more
            commas = np.flatnonzero(b == ord(","))
            short = np.searchsorted(commas, ends) - np.searchsorted(commas, starts) < max(columns)
            grown = np.union1d(flagged, np.flatnonzero(short))
            if attempt == 2 or len(grown) == len(flagged):
                return None
            flagged = grown
    del clean
    # the flagged lines, each with its line break, for the csv rows
    flagged_text = b"".join([body[a:b] for a, b in zip(lo, hi)])
    try:
        picked = _pick_cells(csv.reader(io.StringIO(flagged_text.decode("ascii"))), columns)
        kept = np.array([cells is not None for cells in picked], dtype=bool)
        values = _floats([cells for cells in picked if cells is not None], len(columns))
    except (csv.Error, ValueError):
        return None
    # a kept flagged line goes after the clean lines before it
    nonblank = flagged[starts[flagged] < ends[flagged]]
    rows = nonblank[kept]
    if len(values):
        arr = np.insert(arr, rows - np.searchsorted(flagged, rows), values, axis=0)
    return arr, np.setdiff1d(flagged, rows, assume_unique=True), nonblank[~kept]


def _flag_lines(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and end offsets of the lines of ``b`` and the sorted indices of the
    lines that must take the row route: blank, with an empty cell or a byte
    <= 0x20 (a space or a control byte), or longer than
    ``csv.field_size_limit()``. A line's comma count is not read: a line of
    another width than the header's is ``np.loadtxt``'s to read or reject."""
    newline = b == ord("\n")
    ends = np.flatnonzero(newline)
    delimiter = b == ord(",")
    delimiter |= newline
    odd = b <= ord(" ")
    odd ^= newline
    # a delimiter right after another one (or at offset 0, or last in a file
    # with no final line break) ends an empty cell or a blank line; the
    # newline mask's buffer takes these flags, one byte array fewer
    adjacent = newline
    np.logical_and(delimiter[1:], delimiter[:-1], out=adjacent[1:])
    adjacent[:1] = delimiter[:1]
    odd |= adjacent
    if len(b) and b[-1] != ord("\n"):
        ends = np.append(ends, len(b))
        odd[-1] |= delimiter[-1]
    del adjacent, delimiter
    starts = np.empty_like(ends)
    starts[:1] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    bad = ends - starts > csv.field_size_limit()
    bad[np.searchsorted(ends, np.flatnonzero(odd))] = True
    return starts, ends, np.flatnonzero(bad)


def _raise_parse_error(path, columns: Sequence[int]) -> None:
    """Second pass after a failed read: raise the first error in file order.

    That is the first kept cell ``float`` rejects, named by its row's file
    line (``line_num`` counts blank lines and line breaks inside quotes), or
    the reader's own error if it comes first.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            for cells in filter(None, _pick_cells([row], columns)):
                try:
                    [float(v) for v in cells]
                except ValueError as exc:
                    raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


@dataclass
class FitReport:
    """How a fit went; ``patterns`` is the number of rows the Newton loop ran
    on (0 when unknown, as in a model file that does not record it)."""

    iterations: int
    grad_norm: float
    loglik: float
    loglik_trace: list[float] = field(default_factory=list)
    patterns: int = 0


def psd_check(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(not PSD, smallest eigenvalue) of each symmetric matrix over the last
    two axes: not positive semidefinite means an eigenvalue below -1e-8 times
    the matrix's largest entry in magnitude (or 1, if larger)."""
    eig_min = np.linalg.eigvalsh(cov).min(axis=-1)
    return eig_min < -1e-8 * np.maximum(1.0, np.abs(cov).max(axis=(-2, -1))), eig_min


@dataclass(frozen=True)
class FittedGlm:
    """A fitted logistic model: design, coefficients, and their covariance."""

    design: DesignSpec
    coefficients: np.ndarray
    covariance: np.ndarray
    report: FitReport
    role: str
    exposure_range: tuple[float, float] | None = None
    # the covariance's smallest eigenvalue: below 0 but within psd_check's
    # tolerance, a far-out design row can scale it into a negative variance
    _min_eig: float = field(default=math.nan, init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.design.terms)
        if self.coefficients.shape != (k,) or self.covariance.shape != (k, k):
            raise ValueError("coefficient/covariance dimensions do not match the design")
        if not (np.isfinite(self.coefficients).all() and np.isfinite(self.covariance).all()):
            raise ValueError("coefficients or covariance are not finite")
        asym = np.abs(self.covariance - self.covariance.T).max()
        if asym > 1e-12 * max(1.0, np.abs(self.covariance).max()):
            raise ValueError("covariance is not symmetric")
        not_psd, eig_min = psd_check(self.covariance)
        if not_psd:
            raise ValueError(f"covariance is not positive semidefinite (min eig {eig_min:.3e})")
        object.__setattr__(self, "_min_eig", float(eig_min))

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def softplus(z: float | np.ndarray) -> float | np.ndarray:
    """log(1 + e^z), stable for large |z|; elementwise."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _loglik(eta: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> float:
    # sum over patterns of s*eta - n*log(1+e^eta)
    return float(sums @ eta - counts @ softplus(eta))


def _key_groups(X: np.ndarray, total: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(first, inverse): the index of one row of each distinct key of
    ``_row_keys(X)``, in key order, and the key index of every row; None when
    at least half of ``total`` rows would be distinct. The caller checks that
    each row equals its key's row: two different rows with one key fail it.
    """
    key = _row_keys(X)
    # a sort first, which costs a tenth of an argsort, so that rows that do
    # not reduce pay no argsort
    sorted_key = np.sort(key)
    new = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    if 2 * np.count_nonzero(new) >= total:
        return None
    order = np.argsort(key)
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _patterns(X: np.ndarray, y: np.ndarray, counts: np.ndarray):
    """(rows, counts, sums): the distinct rows of X in key order, the summed
    ``counts`` of the rows equal to each and their count-weighted sum of y;
    None when at least half of the rows the counts stand for would be
    distinct, or two different rows share a key. Rows are equal bit for bit,
    or but for the sign of a zero, which no value of the fit depends on.
    """
    found = _key_groups(X, counts.sum())
    if found is None:
        return None
    first, inverse = found
    rows = X[first]
    if not np.array_equal(rows.take(inverse, axis=0), X):
        return None
    groups = len(first)
    return rows, np.bincount(inverse, counts, groups), np.bincount(inverse, counts * y, groups)


def _response(data: Dataset, role: str) -> np.ndarray:
    return data.outcome if role == "outcome" else data.mediator


def _fit_rows(data: Dataset, design: DesignSpec, role: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, row counts n and response sums s the Newton loop runs on:
    the distinct rows of the design, evaluated once, on the rows of
    ``data._reduced`` with their counts (on every row, with count 1, where
    that is None); or every row, with n = 1 and s = y, when at least half of
    them are distinct or the check of ``_patterns`` fails."""
    if data._reduced is None:
        X, y, counts = design.matrix(data), _response(data, role), np.ones(data.n)
        return _patterns(X, y, counts) or (X, counts, counts * y)
    rows, counts, index = data._reduced
    X, y = design.matrix(rows), _response(rows, role)
    return _patterns(X, y, counts) or (X.take(index, axis=0), np.ones(len(index)), y.take(index))


# the row-key weights of _row_keys, pinned to the last bit
_KEY_WEIGHTS = np.array([
    1.6369616873214543, 1.2697867137638703, 1.0409735239361946, 1.016527635528529,
    1.8132702392002724, 1.9127555772777218, 1.6066357757671799, 1.7294965609839985,
    1.543624991465423, 1.9350724237877683, 1.8158535541215322, 1.002738500170148,
    1.8574042765875693, 1.0335855753054644, 1.729655446429944, 1.175655620602559,
])


def _row_keys(X: np.ndarray) -> np.ndarray:
    """Each row of X dotted with fixed weights that have no small-integer
    relation, in one order for every row, so that equal rows get equal keys.

    The weights are the first ``X.shape[1]`` of ``_KEY_WEIGHTS``, the pinned
    draws ``np.random.default_rng(0).uniform(1.0, 2.0, 16)``. A design wider
    than 16 terms draws all its weights from that generator, whose first 16
    draws are the table, so the table only saves loading ``numpy.random``.
    """
    k = X.shape[1]
    weights = _KEY_WEIGHTS[:k] if k <= len(_KEY_WEIGHTS) else np.random.default_rng(0).uniform(1.0, 2.0, k)
    return np.einsum("ij,j->i", X, weights)


def _check_rank(X: np.ndarray, names: Sequence[str], rows: int | None = None) -> None:
    # the pivoted QR of X has the |diagonal| and the pivots of the pivoted QR
    # of X's own (small) R factor, since the Q factor preserves column norms.
    # X may be the sqrt(count)-weighted rows a design of ``rows`` rows was
    # reduced to: their R factor is the design's, and so is the tolerance.
    diag, piv = _pivoted_qr(np.linalg.qr(X, mode="r"))
    size = max(len(X) if rows is None else rows, X.shape[1])
    tol = diag.max() * size * np.finfo(float).eps if diag.max() > 0 else 0.0
    # with more terms than rows, the terms pivoted past the last row are surplus
    deficient = [names[p] for j, p in enumerate(piv) if j >= len(diag) or diag[j] <= tol]
    if diag.max() == 0.0:
        deficient = list(names)
    if deficient:
        raise SingularDesignError(deficient)


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|diag R| and column order of the column-pivoted Householder QR of ``a``.

    At each step the remaining column of largest residual norm (the first,
    on a tie) is moved next, as in LAPACK's ``geqp3``; its norm is |R_jj|.
    """
    a = np.array(a, dtype=float)
    m, k = a.shape
    piv = np.arange(k)
    diag = np.zeros(min(m, k))
    for j in range(len(diag)):
        norms = np.linalg.norm(a[j:, j:], axis=0)
        p = j + int(np.argmax(norms))
        a[:, [j, p]], piv[[j, p]] = a[:, [p, j]], piv[[p, j]]
        diag[j] = norms[p - j]
        if diag[j] == 0.0:
            break
        v = a[j:, j].copy()
        v[0] += math.copysign(diag[j], v[0])
        v /= np.linalg.norm(v)
        a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
    return diag, piv


def _check_role(role: str, design: DesignSpec) -> None:
    if role not in ("outcome", "mediator"):
        raise ValueError(f"role must be 'outcome' or 'mediator', got {role!r}")
    if role == "mediator" and design.includes_mediator:
        raise ValueError("mediator-model designs must not reference the mediator")


def fit_logistic(data: Dataset, design: DesignSpec, role: str = "outcome") -> FittedGlm:
    """Maximize the Bernoulli log-likelihood by damped Newton iteration.

    ``role`` selects the response: "outcome" fits y on a design that may
    reference the mediator, "mediator" fits m and rejects designs that do.
    Convergence is declared when the score max-norm (on internally centred and
    rescaled columns) drops below ``GRAD_TOL`` within ``MAX_ITER`` steps;
    step-halving keeps the log-likelihood non-decreasing, and a coefficient
    of those columns (which a change of a column's units or origin leaves
    alone) wandering past +-15 raises a separation error since fitted
    probabilities are then numerically 0/1.
    """
    _check_role(role, design)
    y = _response(data, role)
    if y.min() == y.max():
        raise IngestionError(f"{role} response is constant; both levels are required to fit")
    X_raw, n, s = _fit_rows(data, design, role)
    _check_rank(X_raw * np.sqrt(n)[:, None] if len(X_raw) < len(y) else X_raw, design.names, len(y))

    # X = X_raw @ T: every column centred on a constant column, if the design
    # has one, then rescaled to unit max-abs, so that the score tolerance and
    # the separation threshold depend on no column's units or origin. The
    # reductions go column by column: over axis 0 of a tall array numpy is
    # several times slower. X is the transpose of a C-ordered (k, rows) array
    # Xt, so the information's weights scale along Xt's contiguous rows.
    constant = [j for j, col in enumerate(X_raw.T) if col[0] != 0.0 and (col == col[0]).all()]
    shift = np.array([n @ col for col in X_raw.T]) / len(y) if constant else np.zeros(X_raw.shape[1])
    shift[constant] = 0.0
    Xt = np.subtract(X_raw.T, shift[:, None], order="C")
    scale = np.array([np.abs(row).max() for row in Xt])
    scale[scale == 0.0] = 1.0
    Xt /= scale[:, None]
    X = Xt.T
    T = np.diag(1.0 / scale)
    if constant:
        c = constant[0]
        T[c] -= shift / (scale * X_raw[0, c])

    beta = np.zeros(X.shape[1])
    eta = X @ beta
    ll = _loglik(eta, n, s)
    trace = [ll]
    grad_norm = math.inf

    for it in range(1, MAX_ITER + 1):
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = X.T @ (s - n * p)
        grad_norm = float(np.abs(grad).max())
        w = n * np.clip(p * (1.0 - p), 1e-12, None)
        info = (Xt * w) @ X
        if grad_norm < GRAD_TOL:
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Newton step failed at iteration {it}: {exc}", trace) from None
        lam = 1.0
        for _ in range(50):
            cand = beta + lam * step
            eta_new = X @ cand
            ll_new = _loglik(eta_new, n, s)
            if ll_new >= ll - 1e-12 * abs(ll):
                break
            lam *= 0.5
        else:
            raise ConvergenceError(f"step-halving stalled at iteration {it}", trace)
        beta, eta, ll = cand, eta_new, ll_new
        trace.append(ll)
        if np.abs(beta).max() > SEPARATION_THRESHOLD:
            raise SeparationError(
                "coefficient magnitude exceeded the divergence threshold "
                f"({SEPARATION_THRESHOLD}) while the likelihood kept improving; "
                "the data are (quasi-)separated"
            )
    else:
        raise ConvergenceError(
            f"no convergence in {MAX_ITER} iterations (score max-norm {grad_norm:.3e})",
            trace,
        )

    # the information at the optimum is the converged iteration's Hessian
    cov = T @ np.linalg.inv(info) @ T.T
    cov = 0.5 * (cov + cov.T)

    report = FitReport(
        iterations=it, grad_norm=grad_norm, loglik=ll, loglik_trace=trace, patterns=len(X)
    )
    return FittedGlm(
        design=design,
        coefficients=T @ beta,
        covariance=cov,
        report=report,
        role=role,
        exposure_range=(float(data.exposure.min()), float(data.exposure.max())),
    )


# --------------------------------------------------------------------------
# (De)serialization for the CLI model file
# --------------------------------------------------------------------------


def model_to_dict(model: FittedGlm, exprs: Sequence[str]) -> dict:
    return {
        "role": model.role,
        "design": list(exprs),
        "coefficients": [float(v) for v in model.coefficients],
        "covariance": [[float(v) for v in row] for row in model.covariance],
        "exposure_range": list(model.exposure_range) if model.exposure_range else None,
        "fit": {
            "iterations": model.report.iterations,
            "patterns": model.report.patterns,
            "grad_norm": model.report.grad_norm,
            "loglik": model.report.loglik,
        },
    }


def model_from_dict(d: dict) -> FittedGlm:
    design = parse_design(d["design"])
    _check_role(d["role"], design)
    fit = d.get("fit", {})
    report = FitReport(
        iterations=int(fit.get("iterations", 0)),
        grad_norm=float(fit.get("grad_norm", 0.0)),
        loglik=float(fit.get("loglik", 0.0)),
        patterns=int(fit.get("patterns", 0)),
    )
    rng = d.get("exposure_range")
    return FittedGlm(
        design=design,
        coefficients=np.asarray(d["coefficients"], dtype=float),
        covariance=np.asarray(d["covariance"], dtype=float),
        report=report,
        role=d["role"],
        exposure_range=tuple(rng) if rng else None,
    )
