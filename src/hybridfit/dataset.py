"""Experiment tables: ingestion, factor coding, design matrices, repeated rows.

:func:`read_text` reads an input file and :func:`split_table` splits its
text, once per command and the same way for every command: a header, and
each data row as a tab-separated line of its cells as read.
:func:`load_table` checks that every row holds one cell per column name,
so a ragged row is refused wherever it is read, and parses those lines
into a :class:`Dataset`, which holds runs in natural units exactly as
written; a writer that carries the rows writes the lines it checked.
Fitting happens in coded units, where each factor's low/center/high
settings sit at -1/0/+1; :func:`code` applies that affine transform, and
:func:`build_design` expands coded levels into a polynomial basis matrix.
:func:`identical_rows` numbers the groups of equal rows that pure error
pools over.
"""

from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import AnalysisError


class _FactorSpecFields(NamedTuple):
    name: str
    low: float
    high: float
    center: float
    units: str


class FactorSpec(_FactorSpecFields):
    """One explanatory variable: its name and coding anchors in natural units.

    ``center`` defaults to the midpoint of ``low`` and ``high``, which is
    where replicated center runs of the bundled designs sit.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, low: float, high: float, center: float | None = None,
        units: str = "",
    ):
        if center is None:
            center = (low + high) / 2.0
        if not (low < center < high):
            raise AnalysisError(
                f"factor {name!r} needs low < center < high, got "
                f"{low}, {center}, {high}"
            )
        return super().__new__(cls, name, low, high, center, units)

    @property
    def half_range(self) -> float:
        return (self.high - self.low) / 2.0

    def code(self, natural):
        """Map natural values to coded units; low/center/high land exactly
        on -1/0/+1."""
        natural = np.asarray(natural, dtype=float)
        coded = (natural - self.center) / self.half_range
        coded = np.where(natural == self.low, -1.0, coded)
        coded = np.where(natural == self.high, 1.0, coded)
        coded = np.where(natural == self.center, 0.0, coded)
        return coded if coded.ndim else float(coded)


class _DatasetFields(NamedTuple):
    factors: tuple[FactorSpec, ...]
    naturals: np.ndarray
    response: np.ndarray
    response_units: str
    extras: dict[str, np.ndarray]


class Dataset(_DatasetFields):
    """Observed runs: natural factor settings, the response, and any extra
    named columns carried along from the source file (for example a
    precomputed theory column).  Row order is run order and is preserved."""

    __slots__ = ()

    def __new__(
        cls, factors: tuple[FactorSpec, ...], naturals, response,
        response_units: str = "", extras: dict[str, np.ndarray] | None = None,
    ):
        naturals = np.atleast_2d(np.asarray(naturals, dtype=float))
        response = np.asarray(response, dtype=float).ravel()
        extras = {} if extras is None else extras
        if naturals.shape[0] == 0:
            raise AnalysisError("dataset needs at least one row")
        if naturals.shape[1] != len(factors):
            raise AnalysisError(
                f"{naturals.shape[1]} factor columns but "
                f"{len(factors)} factor specs"
            )
        if response.shape[0] != naturals.shape[0]:
            raise AnalysisError(
                f"{naturals.shape[0]} rows but {response.shape[0]} responses"
            )
        for name, col in extras.items():
            if np.asarray(col).shape != (naturals.shape[0],):
                raise AnalysisError(f"extra column {name!r} has the wrong length")
        return super().__new__(cls, factors, naturals, response, response_units, extras)

    @property
    def n_runs(self) -> int:
        return self.naturals.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.factors)


class _DesignMatrixFields(NamedTuple):
    values: np.ndarray
    column_labels: tuple[str, ...]


class DesignMatrix(_DesignMatrixFields):
    """Basis-expanded matrix of coded levels with a leading intercept column."""

    __slots__ = ()

    def __new__(cls, values, column_labels: tuple[str, ...]):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != len(column_labels):
            raise AnalysisError("one label per design column required")
        if not np.all(values[:, 0] == 1.0):
            raise AnalysisError("first design column must be the intercept (all ones)")
        return super().__new__(cls, values, column_labels)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_coef(self) -> int:
        return self.values.shape[1]


def _split_line(line: str, delimiter: str | None, row: str) -> list[str]:
    """The cells of ``line``; a line the CSV reader rejects (a carriage
    return inside an unquoted cell) raises :class:`AnalysisError` naming
    ``row``."""
    if delimiter is None:
        return line.split()
    try:
        return next(csv.reader([line], delimiter=delimiter))
    except csv.Error as exc:
        raise AnalysisError(f"{row}: {exc}") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 input file's text, without a leading byte-order mark; a file
    that is missing or unreadable raises :class:`AnalysisError` naming it.
    This is the only reader of input files, and the only place a byte-order
    mark is stripped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise AnalysisError(f"cannot read {path}: not UTF-8 text") from None


class Table(NamedTuple):
    """A table's text split once: the header's column names, and each data
    row as a tab-separated line of its cells as read, blank lines skipped.
    :func:`load_table` checks that every row holds one cell per name."""

    header: list[str]
    rows: list[str]


def _tab_rows(lines: list[str], delimiter: str | None, n: int) -> list[str]:
    """``lines`` split one by one on ``delimiter`` (the CSV reader's split;
    whitespace for None) and joined by tabs.  A row that does not hold
    ``n`` cells, or a cell holding a tab, raises :class:`AnalysisError`
    naming its row."""
    rows = []
    for i, line in enumerate(lines, start=1):
        cells = _split_line(line, delimiter, f"row {i}")
        if len(cells) != n:
            raise AnalysisError(f"row {i}: {len(cells)} cells under {n} column names")
        line = "\t".join(cells)
        if line.count("\t") != n - 1:
            raise AnalysisError(f"row {i}: a cell holds a tab")
        rows.append(line)
    return rows


def split_table(text: str) -> Table:
    """The header and data rows of a table's text, each row a tab-separated
    line holding its cells as read.  The delimiter is the first of tab,
    comma and semicolon in the header line, else whitespace.  Lines split at
    line feeds only, each losing a carriage return that ends it, so a bare
    carriage return stays inside its cell for the CSV reader to reject.  A
    line of whitespace that holds the delimiter (in a tab table, tabs and
    spaces only) is a row of empty cells, refused as a comma table's
    ``" , "`` is; any other line of whitespace is blank and skipped.

    A header name or cell holding a tab (a quoted cell, or any cell of a
    comma- or semicolon-separated table, can) raises :class:`AnalysisError`
    naming the row: every command refuses them alike.  The CSV reader's
    row loop checks each row's width too; :func:`load_table` checks all.
    """
    if "\r" in text:
        text = (text + "\n").replace("\r\n", "\n")
    lines = text.split("\n")
    head = next((i for i, line in enumerate(lines) if line.strip()), None)
    if head is None:
        raise AnalysisError("empty file: no header row")
    delimiter = next((c for c in "\t,;" if c in lines[head]), None)
    lines = [
        line for line in lines[head:] if line.strip() or delimiter and delimiter in line
    ]
    header = [h.strip() for h in _split_line(lines[0], delimiter, "header row")]
    n = len(header)
    if "\t".join(header).count("\t") != n - 1:
        raise AnalysisError("header row: a column name holds a tab")
    rows = lines[1:]
    # Without quotes, bare carriage returns and (in a comma or semicolon
    # table) tabs, the CSV reader splits a line as str.split does, so one
    # replace per row makes the tab lines.
    if delimiter is None:
        return Table(header, list(map("\t".join, map(str.split, rows))))
    if '"' in text or "\r" in text or (delimiter != "\t" and "\t" in text):
        return Table(header, _tab_rows(rows, delimiter, n))
    if delimiter != "\t":
        rows = [line.replace(delimiter, "\t") for line in rows]
    return Table(header, rows)


def _check_widths(rows: list[str], n: int) -> None:
    """Raise :class:`AnalysisError` naming the first row that does not hold
    ``n`` tab-separated cells."""
    for i, tabs in enumerate(map(str.count, rows, repeat("\t")), start=1):
        if tabs != n - 1:
            raise AnalysisError(f"row {i}: {tabs + 1} cells under {n} column names")


def _parse_block(rows: list[str], usecols: list[int] | None = None) -> np.ndarray | None:
    """The cells of every row, or its cells ``usecols``, as one (row,
    column) array parsed in one numpy call; None for no rows (numpy warns on
    them) or when :func:`_parse_cells` must decide.

    numpy accepts a subset of the tokens ``float()`` accepts (not ``1_0`` or
    non-ASCII digits) and gives the same double for each.  No cell holds a
    tab, so numpy splits each row as ``str.split("\\t")`` does; without
    ``usecols`` it refuses a row whose cell count differs from the first
    row's, so an array as wide as the header proves every row's width.
    """
    if not rows:
        return None
    try:
        block = np.loadtxt(
            rows, delimiter="\t", usecols=usecols, comments=None,
            quotechar=None, ndmin=2,
        )
    except ValueError:
        return None
    if block.shape[0] != len(rows):  # numpy skipped a line it read as empty
        return None
    return block


def _parse_cells(rows: list[str], usecols: list[int], names: list[str]) -> np.ndarray:
    """The cells ``usecols`` of every row as one (column, row) array, one
    ``float()`` per cell; the first cell that is not a number raises
    :class:`AnalysisError` naming its row and column."""
    parsed: list[list[float]] = [[] for _ in usecols]
    for i, line in enumerate(rows, start=1):
        cells = line.split("\t")
        for values, idx, name in zip(parsed, usecols, names):
            token = cells[idx].strip()
            try:
                values.append(float(token))
            except ValueError:
                raise AnalysisError(
                    f"row {i}, column {name!r}: cannot parse {token!r} as a number"
                ) from None
    return np.array(parsed)


def load_table(
    table: Table,
    factors: tuple[FactorSpec, ...],
    response: str,
    extras: tuple[str, ...] = (),
    response_units: str = "",
) -> Dataset:
    """Read a table, as :func:`split_table` split it, into a
    :class:`Dataset`: the columns named by ``factors`` and ``response``, and
    the ``extras`` to carry along.

    Natural units are preserved verbatim and rows keep file order.  Raises
    :class:`AnalysisError`, first for a row without one cell per header
    name, then for a named column missing or appearing twice, for no rows,
    and (with row and column) for a non-numeric or non-finite cell.
    """
    header, rows = table
    block = _parse_block(rows)
    if block is None or block.shape[1] != len(header):
        block = None
        _check_widths(rows, len(header))
    col_index: dict[str, int] = {}
    for name in [f.name for f in factors] + [response, *extras]:
        if name not in header:
            raise AnalysisError(f"column {name!r} not found; header has {header}")
        if header.count(name) > 1:
            raise AnalysisError(
                f"column {name!r} appears {header.count(name)} times in the header"
            )
        col_index[name] = header.index(name)

    if not rows:
        raise AnalysisError("no data rows after the header")

    names = list(col_index)
    usecols = list(col_index.values())
    if block is not None:
        table = np.ascontiguousarray(block.T[usecols])
    else:  # numpy refused a cell, maybe one of a column not used
        block = _parse_block(rows, usecols)
        table = _parse_cells(rows, usecols, names) if block is None else block.T.copy()
    # float() accepts "nan" and "inf": reject them in one pass over the table.
    bad = np.argwhere(~np.isfinite(table.T))
    if bad.size:
        row, col = bad[0]
        raise AnalysisError(
            f"row {row + 1}, column {names[col]!r}: non-finite value "
            f"{float(table[col, row])!r}"
        )
    column = dict(zip(names, table))
    return Dataset(
        factors=tuple(factors),
        naturals=np.column_stack([column[f.name] for f in factors]),
        response=column[response],
        response_units=response_units,
        extras={name: column[name] for name in extras},
    )


def code(ds: Dataset) -> np.ndarray:
    """Coded levels for every run: column j is factor j's affine transform."""
    return np.column_stack(
        [spec.code(ds.naturals[:, j]) for j, spec in enumerate(ds.factors)]
    )


def build_design(
    coded: np.ndarray,
    order: str,
    names: Iterable[str] | None = None,
) -> DesignMatrix:
    """Polynomial design matrix from coded levels.

    ``order="first"`` gives columns [1, x1..xk]; ``order="second"`` appends
    all squares, then all pairwise cross products in lexicographic factor
    order, so for k=3 the labels run
    1, x1, x2, x3, x1^2, x2^2, x3^2, x1*x2, x1*x3, x2*x3.
    """
    coded = np.atleast_2d(np.asarray(coded, dtype=float))
    k = coded.shape[1]
    names = list(names) if names is not None else [f"x{j + 1}" for j in range(k)]
    if len(names) != k:
        raise AnalysisError("one name per coded column required")

    columns = [np.ones(coded.shape[0])]
    labels = ["1"]
    columns += [coded[:, j] for j in range(k)]
    labels += names
    if order == "second":
        columns += [coded[:, j] ** 2 for j in range(k)]
        labels += [f"{name}^2" for name in names]
        for a in range(k):
            for b in range(a + 1, k):
                columns.append(coded[:, a] * coded[:, b])
                labels.append(f"{names[a]}*{names[b]}")
    elif order != "first":
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    return DesignMatrix(np.column_stack(columns), tuple(labels))


def _row_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit multiply-xor hash of each row of a 2-D uint64 array.  Each
    word is xored in, then the hash is multiplied by an odd constant and its
    high half folded into its low half.  Both steps are invertible, so rows
    that differ in one word never collide; the fold carries the high bits,
    where floats with short mantissas differ, into the bits that the next
    multiply spreads."""
    h = np.zeros(words.shape[0], np.uint64)
    for column in words.T:
        h ^= column
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(32)
    return h


def identical_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-D array by exact equality of their values.

    Returns ``(first, group)``: ``group[i]`` numbers row i's group and
    ``first[g]`` is the index of group g's first row.  Groups are numbered
    in order of first appearance, so ``first`` is increasing.  Signed zeros
    compare equal, as they do as numbers.
    """
    # Adding 0.0 folds -0.0 into 0.0, so each row's bytes are a key for its
    # values.  Rows are grouped by a hash of those bytes, and every row is
    # checked bit for bit against its group's first row; on a collision, one
    # sort of the byte keys groups them instead.  Either is much cheaper than
    # np.unique(axis=0).  A running count of the first rows numbers groups.
    rows = np.ascontiguousarray(np.atleast_2d(np.asarray(values, dtype=float)) + 0.0)
    words = rows.view(np.uint64)
    _, first, inverse = np.unique(_row_hash(words), return_index=True, return_inverse=True)
    firsts = first[inverse]
    if not np.array_equal(words, words[firsts]):
        keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
        _, first, inverse = np.unique(
            keys.ravel(), return_index=True, return_inverse=True
        )
        firsts = first[inverse]
    is_first = firsts == np.arange(firsts.size)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[firsts]
