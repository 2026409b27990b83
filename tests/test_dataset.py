from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfit import dataset
from hybridfit.dataset import Dataset, FactorSpec
from hybridfit.errors import AnalysisError
from hybridfit.hybrid import thin_svd


def spec_a() -> FactorSpec:
    return FactorSpec("A", low=0.251, high=1.257, center=0.754)


def load_text(text: str, *columns, **kwargs) -> Dataset:
    return dataset.load_table(dataset.split_table(text), *columns, **kwargs)


class TestFactorSpec:
    def test_anchors_code_exactly(self):
        s = spec_a()
        assert s.code(0.251) == -1.0
        assert s.code(1.257) == 1.0
        assert s.code(0.754) == 0.0

    def test_center_defaults_to_midpoint(self):
        s = FactorSpec("A", low=0.251, high=1.257)
        assert s.center == pytest.approx(0.754)

    def test_zero_half_range_rejected(self):
        with pytest.raises(AnalysisError, match=r"^factor 'A' needs low < center < high, "
                           r"got 1\.0, 1\.0, 1\.0$"):
            FactorSpec("A", low=1.0, high=1.0)

    def test_bad_center_rejected(self):
        with pytest.raises(AnalysisError, match=r"^factor 'A' needs low < center < high, "
                           r"got 0\.0, 2\.0, 1\.0$"):
            FactorSpec("A", low=0.0, high=1.0, center=2.0)

    @given(
        low=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        frac=st.floats(0.0, 1.0),
    )
    @settings(deadline=None)
    def test_code_is_the_affine_map(self, low, width, frac):
        s = FactorSpec("f", low=low, high=low + width)
        natural = low + frac * width
        center, half_range = (low + (low + width)) / 2.0, ((low + width) - low) / 2.0
        assert s.code(natural) == pytest.approx(
            (natural - center) / half_range, abs=1e-9 * (1 + abs(natural))
        )

    @given(coded=st.floats(-2.0, 2.0))
    @settings(deadline=None)
    def test_code_of_a_coded_level_returns_it(self, coded):
        s = spec_a()
        natural = 0.754 + coded * (1.257 - 0.251) / 2.0
        assert s.code(natural) == pytest.approx(coded, abs=1e-12)


class TestLoadTable:
    def test_factorial_table(self, factorial):
        assert factorial.n_runs == 11
        assert factorial.n_factors == 3
        assert [f.name for f in factorial.factors] == ["A", "Ps", "B"]
        assert factorial.response[0] == 189.487
        assert factorial.naturals[0, 0] == 0.251
        assert factorial.response_units == "kPa"
        assert factorial.extras["P_adiabatic"][1] == 115.955

    def test_empty_after_header(self):
        with pytest.raises(AnalysisError, match="^no data rows after the header$"):
            load_text("A\ty\n", (spec_a(),), "y")

    def test_single_row_single_factor(self):
        ds = load_text("A\ty\n0.5\t2.0\n", (spec_a(),), "y")
        assert ds.n_runs == 1
        assert ds.n_factors == 1

    def test_missing_column(self):
        with pytest.raises(AnalysisError, match=r"^column 'z' not found; header has \['A', 'y'\]$"):
            load_text("A\ty\n0.5\t2.0\n", (spec_a(),), "z")

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(AnalysisError,
                           match="^row 2, column 'y': cannot parse 'oops' as a number$"):
            load_text("A\ty\n0.5\t2.0\n0.6\toops\n", (spec_a(),), "y")

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_reports_position(self, token):
        text = f"A\ty\n0.5\t2.0\n0.6\t3.0\n{token}\t{token}\n"
        with pytest.raises(AnalysisError, match="^row 3, column 'A': non-finite value "):
            load_text(text, (spec_a(),), "y")

    def test_comma_delimited(self):
        ds = load_text("A,y\n0.5,2.0\n", (spec_a(),), "y")
        assert ds.response[0] == 2.0

    @pytest.mark.parametrize("sep", ["\t", ",", ";"], ids=["tab", "comma", "semicolon"])
    def test_whitespace_line_holding_the_delimiter_is_a_row(self, sep):
        # a row of empty cells, refused in every delimited table alike: a tab
        # table once skipped it as blank
        text = f"A{sep}y\n0.5{sep}2\n {sep} \n0.6{sep}3\n"
        with pytest.raises(
            AnalysisError, match="^row 2, column 'A': cannot parse '' as a number$"
        ):
            load_text(text, (spec_a(),), "y")

    def test_duplicate_requested_column(self):
        # a stale first copy of a column must not be read in silence
        text = "A\ty\ty\n0.5\t2.0\t3.0\n"
        with pytest.raises(AnalysisError, match="^column 'y' appears 2 times in the header$"):
            load_text(text, (spec_a(),), "y")

    def test_row_missing_an_unrequested_cell_is_refused(self):
        # row 2 lacks its n cell: read by position, its y would be w's 9
        text = "A\tn\ty\tw\n0.5\t1\t2.0\t9\n0.6\t2.0\t9\n"
        with pytest.raises(AnalysisError, match="^row 2: 3 cells under 4 column names$"):
            load_text(text, (spec_a(),), "y")

    def test_duplicate_unrequested_column_is_ignored(self):
        ds = load_text("A\ty\tn\tn\n0.5\t2.0\t1\t2\n", (spec_a(),), "y")
        assert ds.response.tolist() == [2.0]

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "per_cell"])
    @pytest.mark.parametrize("source,message", [
        # the table's text keeps a bare \r, which the CSV reader rejects
        # inside an unquoted cell
        ("text", "^row 2: new-line character"),
        # read_text reads a file with universal newlines, so there the \r
        # ends the line and row 3 is a one-cell row
        ("file", "^row 3: 1 cells under 2 column names$"),
    ], ids=["text", "file"])
    def test_carriage_return_inside_a_cell_names_the_row(
        self, source, message, fast_path, tmp_path
    ):
        text = "A,y\n0.5,2\n0.5,\r2\n"
        if source == "file":
            path = tmp_path / "cr.csv"
            path.write_bytes(text.encode())
            text = dataset.read_text(path)
        parse_block = dataset._parse_block if fast_path else (lambda *args: None)
        with patch.object(dataset, "_parse_block", parse_block):
            with pytest.raises(AnalysisError, match=message):
                load_text(text, (spec_a(),), "y")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a UTF-8 byte-order mark, as some editors write one: read_text drops
        # it, and is the only place that does
        data = b"\xef\xbb\xbfA\ty\n0.5\t2.0\n"
        path = tmp_path / "bom.tsv"
        path.write_bytes(data)
        assert dataset.read_text(path) == "A\ty\n0.5\t2.0\n"
        ds = load_text(dataset.read_text(path), (spec_a(),), "y")
        assert ds.naturals.tolist() == [[0.5]] and ds.response.tolist() == [2.0]
        with pytest.raises(AnalysisError,
                           match=r"^column 'A' not found; header has \['\\ufeffA', 'y'\]$"):
            load_text(data.decode("utf-8"), (spec_a(),), "y")

    def test_carriage_return_inside_a_header_cell(self):
        with pytest.raises(AnalysisError, match="^header row: new-line character"):
            load_text("A,\ry\n0.5,2\n", (spec_a(),), "y")


# Cell tokens for the fast-path comparison: numbers in several spellings,
# tokens float() reads and numpy does not, and tokens neither reads.
NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3f}"),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
)
ODD_TOKENS = st.sampled_from([
    "1_0", "\u0661\u0662", "\uff11", "+.5", "-.5e-3", "-0", "0x10", "1.5.2",
    "", " ", "  7  ", "\xa03\xa0", "\u30004", "#", "#1", "1#", '"1.5"', '"1,5"',
    '"2;5"', '"7,8,9"', '"7;8;9"', '"7\t8\t9"', '"a b"', "'1'", "1e500",
    "-1e500", "nan", "inf", "-Infinity", "1\x00", "1\r", "\r2", "1 2", "x",
])
# numbers three times as often as odd tokens, so that some tables parse
TOKENS = st.one_of(NUMBER_TOKENS, NUMBER_TOKENS, NUMBER_TOKENS, ODD_TOKENS)


@st.composite
def tables(draw):
    """A delimited table with header c0..c{k-1}, and the factors, response
    and extras that ask for some of its columns in any order."""
    delimiter = draw(st.sampled_from(["\t", ",", ";", None]))
    k = draw(st.integers(2, 5))
    sep = " " if delimiter is None else delimiter
    lines = [sep.join(f"c{j}" for j in range(k))]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        cells = draw(st.lists(TOKENS, min_size=k - 1, max_size=k + 1))
        pad = draw(st.sampled_from(["", " ", "  "]))
        lines.append(pad + sep.join(cells))
    order = draw(st.permutations(range(k)))
    n_factors = draw(st.integers(1, k - 1))
    n_extras = draw(st.integers(0, k - 1 - n_factors))
    names = [f"c{j}" for j in order]
    columns = (
        tuple(FactorSpec(name, 0.0, 1.0) for name in names[:n_factors]),
        names[n_factors],
        tuple(names[n_factors + 1 : n_factors + 1 + n_extras]),
    )
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), columns


QUOTED_COLUMNS = ((FactorSpec("c2", 0.0, 1.0),), "c1", ())


def load_outcome(text: str, columns: tuple, split=dataset.split_table):
    """The arrays loaded from ``split(text)`` as bytes, or the error's type
    and message."""
    try:
        ds = dataset.load_table(split(text), *columns)
    except Exception as exc:  # compared, not handled: any error must match
        return type(exc), str(exc)
    return (
        ds.naturals.tobytes(),
        ds.response.tobytes(),
        {name: col.tobytes() for name, col in ds.extras.items()},
    )


class TestFastPath:
    """``load_table`` parses the numeric block in one numpy call and falls
    back to the per-cell parser, which names the bad cell; both must give
    the same table or the same error."""

    # a quoted cell holding delimiters shifts numpy's columns onto numbers
    @given(tables())
    @example(('c0,c1,c2\n"7,8,9,6",1,2\n', QUOTED_COLUMNS))
    @example(('c0;c1;c2\n"7;8;9;6";1;2\n', QUOTED_COLUMNS))
    @example(('c0\tc1\tc2\n"7\t8\t9\t6"\t1\t2\n', QUOTED_COLUMNS))
    @settings(deadline=None, max_examples=300)
    def test_same_result_as_per_cell_parser(self, case):
        text, columns = case
        fast = load_outcome(text, columns)
        with patch.object(dataset, "_parse_block", lambda *args: None):
            slow = load_outcome(text, columns)
        assert fast == slow

    @pytest.mark.parametrize("sep", ["\t", ",", ";", " "])
    def test_clean_table_takes_the_fast_path(self, sep):
        # one numpy parse proves every row's width: no Python pass over the
        # rows counts their cells, and none parses a cell
        rng = np.random.default_rng(5)
        values = rng.normal(size=(3000, 4)) * 10.0 ** rng.integers(-5, 6, (3000, 4))
        lines = [sep.join(["A", "y", "z", "w"])] + [
            sep.join(map(repr, row)) for row in values.tolist()
        ]

        def fail(*args):
            raise AssertionError("clean table took a per-row Python pass")

        for end in ("\n", "\r\n"):
            with patch.multiple(dataset, _parse_cells=fail, _check_widths=fail, _tab_rows=fail):
                ds = load_text(end.join(lines) + end, (spec_a(),), "y", ("w",))
            assert np.array_equal(ds.naturals[:, 0], values[:, 0])
            assert np.array_equal(ds.response, values[:, 1])
            assert np.array_equal(ds.extras["w"], values[:, 3])

    @pytest.mark.parametrize("rows", [["1\t2", "3"], ["1\t2", "3\t4\t5"], ["1", "2\t3"]])
    def test_numpy_refuses_a_changed_column_count(self, rows):
        # the loader's width check rests on this: parsed without usecols, a
        # row with fewer or more cells than the first is refused
        with pytest.raises(ValueError, match="number of columns changed"):
            np.loadtxt(rows, delimiter="\t", comments=None, quotechar=None, ndmin=2)

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "per_cell"])
    @pytest.mark.parametrize("text, response, message", [
        # a ragged row is found before a missing column
        ("A\ty\n0.5\t2\n0.6\n", "z", "^row 2: 1 cells under 2 column names$"),
        # and before a cell of an earlier row that is not a number
        ("A\ty\n0.5\toops\n0.6\t2\t3\n", "y", "^row 2: 3 cells under 2 column names$"),
        # every row as wide, but not as wide as the header
        ("A\ty\tw\n0.5\t2\n0.6\t3\n", "y", "^row 1: 2 cells under 3 column names$"),
        # a missing column is found before the lack of data rows
        ("A\ty\n", "z", r"^column 'z' not found; header has \['A', 'y'\]$"),
        ("A\ty\n\n", "y", "^no data rows after the header$"),
    ], ids=["ragged_and_missing", "ragged_and_text", "all_narrow", "no_rows_and_missing",
            "no_rows"])
    def test_order_of_errors(self, text, response, message, fast_path):
        parse_block = dataset._parse_block if fast_path else (lambda *args: None)
        with patch.object(dataset, "_parse_block", parse_block):
            with pytest.raises(AnalysisError, match=message):
                load_text(text, (spec_a(),), response)



# Carried cells: numbers in spellings float() reads alike, and text.
CARRIED_TOKENS = st.one_of(
    NUMBER_TOKENS,
    st.sampled_from(["187.410", "1e2", ".5", "+0.25", "-0", "nan", "run-3", "x_1", "#"]),
)


@st.composite
def carried_tables(draw):
    """A table with a tab, comma, semicolon or whitespace delimiter, blank
    lines and LF or CRLF line ends, and the header names and rows of cells
    that a reader must see: cells padded with spaces where the delimiter
    keeps them."""
    delimiter = draw(st.sampled_from(["\t", ",", ";", None]))
    k = draw(st.integers(2, 5))  # a one-name header shows no delimiter
    sep = draw(st.sampled_from([" ", "  "])) if delimiter is None else delimiter
    pad = st.just("") if delimiter is None else st.sampled_from(["", " "])
    header = [f"c{j}" for j in range(k)]
    rows = [
        [draw(pad) + draw(CARRIED_TOKENS) for _ in header]
        for _ in range(draw(st.integers(0, 5)))
    ]
    # a line of whitespace holding the delimiter is a row, not a blank line
    blank = st.lists(
        st.sampled_from(["", " "] if delimiter == "\t" else ["", " ", "\t "]), max_size=2
    )
    lines = [sep.join(header)]
    for cells in rows:
        lines += draw(blank) + [sep.join(cells)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), header, rows


# Column a as a factor and b as the response: the columns every table of
# the width and tab tests below has.
AB = ((FactorSpec("a", 0.0, 1.0),), "b")


class TestCarriedColumns:
    """``split_table`` gives every row of a table as tab-separated cells in
    the input's column order, each cell as the input spells it; a table
    whose rows ``load_table`` refuses is refused by every command."""

    @given(carried_tables())
    @example(("P_isochoric B A P_obs\n187.410 .5 +0.25 1e2\n", ["P_isochoric", "B", "A", "P_obs"],
              [["187.410", ".5", "+0.25", "1e2"]]))
    @settings(deadline=None, max_examples=300)
    def test_cells_come_back_as_read(self, case):
        text, header, rows = case
        table = dataset.split_table(text)
        assert table.header == header
        assert [line.split("\t") for line in table.rows] == rows

    @pytest.mark.parametrize("sep", ["\t", ",", ";", " "])
    @pytest.mark.parametrize("row, cells", [("1 2 3 4", 4), ("1 2", 2)])
    def test_ragged_row_names_its_row(self, sep, row, cells):
        text = f"a{sep}b{sep}c\n1{sep}2{sep}3\n\n{row.replace(' ', sep)}\n"
        with pytest.raises(AnalysisError, match=f"^row 2: {cells} cells under 3 column names$"):
            load_text(text, *AB)

    @pytest.mark.parametrize("text, where", [
        ('a,b\n1,"x\ty"\n', "row 1"), ("a,b\n1,2\n1,x\ty\n", "row 2"),
        ('"a\tb",c\n1,2\n', "header row"),
        # as many tabs as the header, one of them inside quotes: two cells
        ('a\tb\tc\n1\t2\t3\n"x\ty"\t1\n', "row 2"),
        # a tab where a comma belongs: two cells, one holding the tab
        ("a,b,c\n1\t2,3\n", "row 1"),
    ])
    def test_cell_holding_a_tab_is_refused(self, text, where):
        with pytest.raises(AnalysisError, match=f"^{where}: "):
            load_text(text, *AB)


# Cells without quotes or carriage returns: numbers, empty and padded
# cells, and cells holding another table's delimiter or a NUL.
UNQUOTED_TOKENS = st.one_of(
    NUMBER_TOKENS,
    st.sampled_from(["", " ", " 1 ", "a,b", "a;b", "1 2", "#", "x\x00", "\xa0", "'q'"]),
)


@st.composite
def unquoted_tables(draw):
    """A tab, comma, semicolon or whitespace table without quotes or bare
    carriage returns, some rows ragged, and its delimiter, width and
    non-blank data lines."""
    delimiter = draw(st.sampled_from(["\t", ",", ";", None]))
    sep = delimiter or " "
    k = draw(st.integers(2, 5))
    cells = UNQUOTED_TOKENS.filter(lambda t: sep not in t)
    lines = [
        sep.join(draw(st.lists(cells, min_size=k - 1, max_size=k + 1)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([sep.join(f"c{j}" for j in range(k)), *lines]) + end
    return text, delimiter, k, [
        line for line in lines if line.strip() or delimiter and delimiter in line
    ]


def split_outcome(split, *args):
    """The rows ``split`` gives, or its error's type and message."""
    try:
        return split(*args)
    except Exception as exc:  # compared, not handled: any error must match
        return type(exc), str(exc)


class TestSplitFastPath:
    """Without quotes or bare carriage returns, ``split_table`` makes tab
    lines with one replace per row, and ``load_table`` checks their widths;
    the CSV reader's row loop, which checks each row as it splits it, must
    give the same rows, and the loader the same table or the same error."""

    @given(unquoted_tables())
    @settings(deadline=None, max_examples=300)
    def test_same_rows_as_the_csv_loop(self, case):
        text, delimiter, k, lines = case
        header = [f"c{j}" for j in range(k)]
        columns = ((FactorSpec("c0", 0.0, 1.0),), header[-1], tuple(header[1:-1]))
        rows = split_outcome(dataset._tab_rows, lines, delimiter, k)
        if isinstance(rows, list):
            assert dataset.split_table(text).rows == rows
        loop = lambda t: dataset.Table(header, dataset._tab_rows(lines, delimiter, k))
        assert load_outcome(text, columns) == load_outcome(text, columns, loop)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("sep", ["\t", ",", ";"])
    def test_clean_table_takes_the_fast_path(self, sep, end):
        lines = [sep.join(["A", "y", "note"])] + [
            sep.join([repr(i / 7), "%.3f" % i, f"run {i}"]) for i in range(3000)
        ]

        def row_loop(*args):
            raise AssertionError("clean table fell back to the row loop")

        with patch.object(dataset, "_tab_rows", row_loop):
            table = dataset.split_table(end.join(lines) + end)
        assert table.header == ["A", "y", "note"]
        assert table.rows == [line.replace(sep, "\t") for line in lines[1:]]


class TestCode:
    def test_factorial_codes_to_design_levels(self, factorial):
        coded = dataset.code(factorial)
        corners = np.array(
            [
                [-1, -1, -1],
                [1, -1, -1],
                [-1, 1, -1],
                [1, 1, -1],
                [-1, -1, 1],
                [1, -1, 1],
                [-1, 1, 1],
                [1, 1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(coded[:8], corners)
        assert np.array_equal(coded[8:], np.zeros((3, 3)))

    def test_code_is_the_affine_map_of_each_column(self, factorial):
        coded = dataset.code(factorial)
        for j, spec in enumerate(factorial.factors):
            x = factorial.naturals[:, j]
            center, half_range = spec.center, (spec.high - spec.low) / 2.0
            assert np.allclose(coded[:, j], (x - center) / half_range, rtol=0, atol=1e-12)


class TestBuildDesign:
    def test_first_order_shape(self, factorial):
        design = dataset.build_design(dataset.code(factorial), "first")
        assert design.values.shape == (11, 4)
        assert design.column_labels == ("1", "x1", "x2", "x3")
        assert thin_svd(design.values).rank == design.n_coef

    def test_second_order_shape(self, boxbehnken):
        design = dataset.build_design(dataset.code(boxbehnken), "second")
        assert design.values.shape == (15, 10)
        assert design.column_labels == (
            "1", "x1", "x2", "x3",
            "x1^2", "x2^2", "x3^2",
            "x1*x2", "x1*x3", "x2*x3",
        )
        assert thin_svd(design.values).rank == design.n_coef

    def test_center_row_basis(self):
        design = dataset.build_design(np.zeros((1, 3)), "second")
        assert np.array_equal(design.values, [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]])

    def test_first_order_is_prefix_of_second(self, rng):
        coded = rng.uniform(-1, 1, size=(7, 3))
        first = dataset.build_design(coded, "first")
        second = dataset.build_design(coded, "second")
        assert second.column_labels[:4] == first.column_labels
        assert np.array_equal(second.values[:, :4], first.values)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            dataset.build_design(np.zeros((2, 1)), "third")

    def test_intercept_enforced(self):
        with pytest.raises(AnalysisError,
                           match=r"^first design column must be the intercept \(all ones\)$"):
            dataset.DesignMatrix(np.array([[2.0, 1.0]]), ("1", "x1"))


def members(group: np.ndarray) -> list[list[int]]:
    """Row indices of each group numbered in ``group``, group by group."""
    return [np.flatnonzero(group == g).tolist() for g in range(group.max() + 1)]


def replicate_groups(ds: Dataset) -> list[list[int]]:
    """Runs grouped by identical coded settings."""
    return members(dataset.identical_rows(dataset.code(ds))[1])


def brute_force_groups(rows: np.ndarray) -> set[frozenset]:
    """Independent O(n^2) grouping by pairwise row equality."""
    n = rows.shape[0]
    groups = []
    assigned = set()
    for i in range(n):
        if i in assigned:
            continue
        group = {i}
        for j in range(i + 1, n):
            if np.array_equal(rows[i], rows[j]):
                group.add(j)
        assigned |= group
        groups.append(frozenset(group))
    return set(groups)


class TestReplicateGroups:
    def test_factorial_center_triplet(self, factorial):
        groups = replicate_groups(factorial)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1] * 8 + [3]
        assert [8, 9, 10] in groups

    def test_all_distinct(self):
        ds = Dataset(
            factors=(spec_a(),),
            naturals=np.array([[0.3], [0.4], [0.5]]),
            response=np.array([1.0, 2.0, 3.0]),
        )
        assert replicate_groups(ds) == [[0], [1], [2]]

    def test_two_duplicated_pairs_against_oracle(self):
        naturals = np.array(
            [[0.3, 0.2], [0.5, 0.9], [0.3, 0.2], [0.7, 0.1], [0.5, 0.9], [0.9, 0.9]]
        )
        ds = Dataset(
            factors=(
                FactorSpec("u", 0.0, 1.0),
                FactorSpec("v", 0.0, 1.0),
            ),
            naturals=naturals,
            response=np.arange(6.0),
        )
        groups = replicate_groups(ds)
        assert sorted(len(g) for g in groups) == [1, 1, 2, 2]
        assert {frozenset(g) for g in groups} == brute_force_groups(dataset.code(ds))

    def test_groups_partition_rows(self, factorial, boxbehnken):
        for ds in (factorial, boxbehnken):
            groups = replicate_groups(ds)
            flat = sorted(i for g in groups for i in g)
            assert flat == list(range(ds.n_runs))


# rows of 1-4 cells: signed zeros, a subnormal and any finite float
ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=k, max_size=k,
        ),
        min_size=1, max_size=40,
    )
)

# NaNs with different payloads and signs, signed zeros, and two numbers
NAN_AND_ZERO_CELLS = [
    *np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
               0x7FFC00000000ABCD], np.uint64).view(float).tolist(),
    0.0, -0.0, 1.0, -2.5,
]


def tuple_key_numbering(rows: list) -> tuple[list, list]:
    """Oracle: a dict keyed by row tuples, numbered by first appearance;
    -0.0 == 0.0 with equal hashes, so signed zeros share a key."""
    numbers: dict[tuple, int] = {}
    first, group = [], []
    for i, row in enumerate(rows):
        key = tuple(row)
        if key not in numbers:
            numbers[key] = len(first)
            first.append(i)
        group.append(numbers[key])
    return first, group


def byte_key_numbering(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: rows grouped by their bytes after adding 0.0, which folds
    -0.0 into 0.0 and keeps every NaN's bits, numbered by first appearance."""
    rows = np.ascontiguousarray(rows + 0.0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse.ravel()]


class TestIdenticalRows:
    def test_numbered_by_first_appearance(self):
        rows = np.array([[2.0, 1.0], [0.0, 5.0], [2.0, 1.0], [-1.0, 0.0], [0.0, 5.0]])
        first, group = dataset.identical_rows(rows)
        assert first.tolist() == [0, 1, 3]
        assert group.tolist() == [0, 1, 0, 2, 1]
        assert members(group) == [[0, 2], [1, 4], [3]]

    def test_groups_by_value(self):
        # signed zeros compare equal, as tuple keys do
        first, group = dataset.identical_rows(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert first.tolist() == [0] and group.tolist() == [0, 0]

    @given(ROWS)
    @settings(deadline=None)
    def test_matches_tuple_key_numbering(self, rows):
        got_first, got_group = dataset.identical_rows(np.array(rows))
        first, group = tuple_key_numbering(rows)
        assert got_first.tolist() == first
        assert got_group.tolist() == group

    @given(ROWS)
    @settings(deadline=None)
    def test_byte_key_fallback_when_every_hash_collides(self, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_row_hash", lambda words: np.zeros(len(words), np.uint64))
            got_first, got_group = dataset.identical_rows(np.array(rows))
        first, group = tuple_key_numbering(rows)
        assert got_first.tolist() == first
        assert got_group.tolist() == group

    @given(st.lists(st.lists(st.sampled_from(NAN_AND_ZERO_CELLS), min_size=2, max_size=2),
                    min_size=1, max_size=30))
    @settings(deadline=None)
    def test_nan_payloads_and_signed_zeros_group_as_byte_keys(self, rows):
        rows = np.array(rows)
        expected = byte_key_numbering(rows)
        got = dataset.identical_rows(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_row_hash", lambda words: np.zeros(len(words), np.uint64))
            fallback = dataset.identical_rows(rows)
        for first, group in (got, fallback):
            assert first.tolist() == expected[0].tolist()
            assert group.tolist() == expected[1].tolist()

    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5]),
                              st.sampled_from([1.0, 2.0])), min_size=1, max_size=30))
    @settings(deadline=None)
    def test_matches_brute_force(self, rows):
        rows = np.array(rows)
        groups = members(dataset.identical_rows(rows)[1])
        assert {frozenset(g) for g in groups} == brute_force_groups(rows)
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert all(g == sorted(g) for g in groups)

