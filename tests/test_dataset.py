import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridfit import dataset
from hybridfit.dataset import Dataset, FactorSpec, TableSchema
from hybridfit.errors import (
    DegenerateFactorError,
    SchemaError,
    ShapeError,
    TableParseError,
)
from hybridfit.linalg import thin_svd


def spec_a() -> FactorSpec:
    return FactorSpec("A", low=0.251, high=1.257, center=0.754)


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
        with pytest.raises(DegenerateFactorError):
            FactorSpec("A", low=1.0, high=1.0)

    def test_bad_center_rejected(self):
        with pytest.raises(DegenerateFactorError):
            FactorSpec("A", low=0.0, high=1.0, center=2.0)

    @given(
        low=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        frac=st.floats(0.0, 1.0),
    )
    @settings(deadline=None)
    def test_code_decode_roundtrip(self, low, width, frac):
        s = FactorSpec("f", low=low, high=low + width)
        natural = low + frac * width
        assert s.decode(s.code(natural)) == pytest.approx(natural, abs=1e-9 * (1 + abs(natural)))

    @given(coded=st.floats(-2.0, 2.0))
    @settings(deadline=None)
    def test_decode_code_roundtrip(self, coded):
        s = spec_a()
        assert s.code(s.decode(coded)) == pytest.approx(coded, abs=1e-12)


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
        schema = TableSchema(factors=(spec_a(),), response="y")
        with pytest.raises(SchemaError, match="no data rows"):
            dataset.load_table(io.StringIO("A\ty\n"), schema)

    def test_single_row_single_factor(self):
        schema = TableSchema(factors=(spec_a(),), response="y")
        ds = dataset.load_table(io.StringIO("A\ty\n0.5\t2.0\n"), schema)
        assert ds.n_runs == 1
        assert ds.n_factors == 1

    def test_missing_column(self):
        schema = TableSchema(factors=(spec_a(),), response="z")
        with pytest.raises(SchemaError, match="'z'"):
            dataset.load_table(io.StringIO("A\ty\n0.5\t2.0\n"), schema)

    def test_non_numeric_cell_reports_position(self):
        schema = TableSchema(factors=(spec_a(),), response="y")
        with pytest.raises(TableParseError, match="row 2.*'y'"):
            dataset.load_table(io.StringIO("A\ty\n0.5\t2.0\n0.6\toops\n"), schema)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_reports_position(self, token):
        schema = TableSchema(factors=(spec_a(),), response="y")
        text = f"A\ty\n0.5\t2.0\n0.6\t3.0\n{token}\t{token}\n"
        with pytest.raises(TableParseError, match="row 3, column 'A': non-finite"):
            dataset.load_table(io.StringIO(text), schema)

    def test_comma_delimited(self):
        schema = TableSchema(factors=(spec_a(),), response="y")
        ds = dataset.load_table(io.StringIO("A,y\n0.5,2.0\n"), schema)
        assert ds.response[0] == 2.0


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

    def test_decode_inverts(self, factorial):
        coded = dataset.code(factorial)
        naturals = dataset.decode(factorial.factors, coded)
        assert np.allclose(naturals, factorial.naturals, rtol=0, atol=1e-12)


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
        with pytest.raises(ShapeError):
            dataset.DesignMatrix(np.array([[2.0, 1.0]]), ("1", "x1"))


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
        groups = dataset.replicate_groups(factorial)
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1] * 8 + [3]
        assert [8, 9, 10] in groups

    def test_all_distinct(self):
        ds = Dataset(
            factors=(spec_a(),),
            naturals=np.array([[0.3], [0.4], [0.5]]),
            response=np.array([1.0, 2.0, 3.0]),
        )
        assert dataset.replicate_groups(ds) == [[0], [1], [2]]

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
        groups = dataset.replicate_groups(ds)
        assert sorted(len(g) for g in groups) == [1, 1, 2, 2]
        assert {frozenset(g) for g in groups} == brute_force_groups(dataset.code(ds))

    def test_groups_partition_rows(self, factorial, boxbehnken):
        for ds in (factorial, boxbehnken):
            groups = dataset.replicate_groups(ds)
            flat = sorted(i for g in groups for i in g)
            assert flat == list(range(ds.n_runs))


class TestIdenticalRows:
    def test_numbered_by_first_appearance(self):
        rows = np.array([[2.0, 1.0], [0.0, 5.0], [2.0, 1.0], [-1.0, 0.0], [0.0, 5.0]])
        first, group = dataset.identical_rows(rows)
        assert first.tolist() == [0, 1, 3]
        assert group.tolist() == [0, 1, 0, 2, 1]
        assert dataset.row_groups(rows) == [[0, 2], [1, 4], [3]]

    def test_groups_by_value(self):
        # signed zeros compare equal, as tuple keys do
        first, group = dataset.identical_rows(np.array([[0.0, 1.0], [-0.0, 1.0]]))
        assert first.tolist() == [0] and group.tolist() == [0, 0]

    @given(
        st.integers(1, 4).flatmap(
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
    )
    @settings(deadline=None)
    def test_matches_tuple_key_numbering(self, rows):
        # oracle: a dict keyed by row tuples, numbered by first appearance;
        # -0.0 == 0.0 with equal hashes, so signed zeros share a key
        numbers: dict[tuple, int] = {}
        first, group = [], []
        for i, row in enumerate(rows):
            key = tuple(row)
            if key not in numbers:
                numbers[key] = len(first)
                first.append(i)
            group.append(numbers[key])
        got_first, got_group = dataset.identical_rows(np.array(rows))
        assert got_first.tolist() == first
        assert got_group.tolist() == group

    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5]),
                              st.sampled_from([1.0, 2.0])), min_size=1, max_size=30))
    @settings(deadline=None)
    def test_matches_brute_force(self, rows):
        rows = np.array(rows)
        groups = dataset.row_groups(rows)
        assert {frozenset(g) for g in groups} == brute_force_groups(rows)
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert all(g == sorted(g) for g in groups)

