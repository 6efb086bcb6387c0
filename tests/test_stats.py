"""MCV + equi-depth histogram statistics and the independence estimator."""

from collections import Counter

import numpy as np
import pytest

from conftest import make_table
from selsample.queries import (
    And,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    Or,
    SelectLeaf,
    SelectionClause,
)
from selsample.execution import exact_selectivity
from selsample.stats import (
    MissingStatsError,
    StatsCatalog,
    build_stats,
    dump_stats,
    estimate_clause,
    estimate_join,
    estimate_predicate,
)
from selsample.tables import ColumnMeta, Domain, Table, generate_uniform_table

LE = ComparisonOp.LE
GE = ComparisonOp.GE
EQ = ComparisonOp.EQ


def one_column_table(values, domain=(0, 1000)):
    return Table("T", [ColumnMeta("A", Domain(*domain))], [(v,) for v in values])


def distinct_1_to_100():
    return one_column_table(range(1, 101))


class TestBuildStats:
    def test_single_repeated_value(self):
        t = one_column_table([7] * 50)
        st = build_stats(t, buckets=4, mcv=10).get("T", "A")
        assert st.mcv.entries == ((7, 1.0),)
        assert st.histogram.n_buckets == 0
        assert st.histogram.total_fraction == 0.0
        assert st.n_distinct == 1

    def test_equi_depth_four_buckets(self):
        st = build_stats(distinct_1_to_100(), buckets=4, mcv=0).get("T", "A")
        assert st.mcv.entries == ()
        assert st.histogram.n_buckets == 4
        assert st.histogram.bucket_fraction == pytest.approx(0.25)
        assert st.histogram.boundaries == (1, 26, 51, 76, 100)

    def test_skewed_column_splits_mass(self):
        # Value 7 in half the rows; the rest spread uniformly.
        values = [7] * 100 + list(range(100, 200))
        st = build_stats(one_column_table(values), buckets=10, mcv=1).get("T", "A")
        assert st.mcv.entries == ((7, 0.5),)
        assert st.histogram.total_fraction == pytest.approx(0.5)
        assert st.n_distinct == 101
        assert st.n_distinct_non_mcv == 100

    def test_mcv_tie_break_prefers_smaller_value(self):
        st = build_stats(one_column_table([5, 5, 3, 3, 9]), buckets=2, mcv=1).get("T", "A")
        assert st.mcv.entries == ((3, 0.4),)

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            vals = rng.integers(0, 50, size=200).tolist()
            st = build_stats(one_column_table(vals), buckets=7, mcv=5).get("T", "A")
            assert st.mcv.total + st.histogram.total_fraction == pytest.approx(1.0, abs=1e-9)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_stats(one_column_table([]))

    def test_all_columns_covered(self):
        t = make_table("T", [(1, 2), (3, 4)], domain=(0, 10))
        cat = build_stats(t)
        assert ("T", "C1") in cat.entries and ("T", "C2") in cat.entries
        with pytest.raises(MissingStatsError):
            cat.get("T", "C9")


def counter_reference_stats(values: np.ndarray, buckets: int, mcv: int):
    """MCV list, histogram boundaries and distinct counts, by a Python Counter and sorted()."""
    n = values.size
    counts = Counter(values.tolist())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = tuple((v, c / n) for v, c in ranked[:mcv])
    mcv_values = {v for v, _ in entries}
    rest = sorted(v for v in values.tolist() if v not in mcv_values)
    at = [min(len(rest) - 1, (k * len(rest)) // buckets) for k in range(buckets + 1)]
    bounds = tuple(rest[i] for i in at) if rest else ()
    return entries, bounds, len(counts), len(counts) - len(entries), len(rest) / n


class TestBuildStatsMatchesCounterReference:
    def test_random_columns_with_many_ties(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            distinct = int(rng.integers(1, 30))
            values = rng.integers(-distinct, distinct, size=n) * int(rng.integers(1, 4))
            if trial % 3 == 0:  # skewed, so counts tie at several levels
                values = np.minimum(values, int(rng.integers(-distinct, distinct)))
            buckets = int(rng.integers(1, 12))
            mcv = int(rng.integers(0, 12))
            t = Table("T", [ColumnMeta("A", Domain(-200, 200))], values.reshape(-1, 1))
            st = build_stats(t, buckets, mcv).get("T", "A")
            entries, bounds, nd, nd_rest, total_rest = counter_reference_stats(values, buckets, mcv)
            assert st.mcv.entries == entries
            assert all(type(v) is int and type(f) is float for v, f in st.mcv.entries)
            assert st.histogram.boundaries == bounds
            assert (st.n_distinct, st.n_distinct_non_mcv) == (nd, nd_rest)
            assert type(st.n_distinct) is int
            assert st.histogram.total_fraction == total_rest


class TestEstimateClause:
    def test_le_domain_max_is_one(self):
        cat = build_stats(distinct_1_to_100(), buckets=4, mcv=0)
        assert estimate_clause(cat.get("T", "A"), SelectionClause("A", LE, 1000)) == 1.0

    def test_le_25_on_distinct_hundred(self):
        # Exact-count oracle on the constructed table: 25 of 100 rows qualify.
        cat = build_stats(distinct_1_to_100(), buckets=4, mcv=0)
        assert estimate_clause(cat.get("T", "A"), SelectionClause("A", LE, 25)) == pytest.approx(
            0.25
        )

    def test_eq_on_heavy_mcv_value(self):
        values = [7] * 100 + list(range(100, 200))
        cat = build_stats(one_column_table(values), buckets=10, mcv=1)
        assert estimate_clause(cat.get("T", "A"), SelectionClause("A", EQ, 7)) == pytest.approx(0.5)

    def test_eq_non_mcv_uses_distinct_share(self):
        st = build_stats(distinct_1_to_100(), buckets=4, mcv=0).get("T", "A")
        assert estimate_clause(st, SelectionClause("A", EQ, 37)) == pytest.approx(1 / 100)

    def test_eq_outside_histogram_range(self):
        st = build_stats(distinct_1_to_100(), buckets=4, mcv=0).get("T", "A")
        assert estimate_clause(st, SelectionClause("A", EQ, 900)) == 0.0

    def test_ne_complements_eq(self):
        st = build_stats(distinct_1_to_100(), buckets=4, mcv=0).get("T", "A")
        eq = estimate_clause(st, SelectionClause("A", EQ, 37))
        ne = estimate_clause(st, SelectionClause("A", ComparisonOp.NE, 37))
        assert eq + ne == pytest.approx(1.0)

    def test_equi_depth_accuracy_bound(self):
        # For all-distinct values and full-table construction, the range
        # estimate is within 1/B of the exact count for every threshold.
        table = distinct_1_to_100()
        for buckets in (4, 10, 25):
            st = build_stats(table, buckets=buckets, mcv=0).get("T", "A")
            for x in range(0, 102):
                exact = sum(1 for v in range(1, 101) if v <= x) / 100
                est = estimate_clause(st, SelectionClause("A", LE, x))
                assert abs(est - exact) <= 1 / buckets + 1e-9

    def test_range_ops_consistent(self):
        st = build_stats(distinct_1_to_100(), buckets=4, mcv=0).get("T", "A")
        for x in (1, 25, 50, 99, 100):
            le = estimate_clause(st, SelectionClause("A", LE, x))
            lt = estimate_clause(st, SelectionClause("A", ComparisonOp.LT, x))
            ge = estimate_clause(st, SelectionClause("A", GE, x))
            gt = estimate_clause(st, SelectionClause("A", ComparisonOp.GT, x))
            assert lt <= le
            assert gt <= ge
            assert le + gt == pytest.approx(1.0, abs=1e-9)
            assert lt + ge == pytest.approx(1.0, abs=1e-9)

    def test_mcv_plus_histogram_combined_for_ranges(self):
        values = [7] * 100 + list(range(100, 200))
        st = build_stats(one_column_table(values), buckets=10, mcv=1).get("T", "A")
        # A <= 150: the MCV value 7 qualifies entirely, plus about half the rest.
        est = estimate_clause(st, SelectionClause("A", LE, 150))
        exact = sum(1 for v in values if v <= 150) / len(values)
        assert est == pytest.approx(exact, abs=0.05)


class TestEstimatePredicate:
    def test_and_is_product(self):
        t = make_table("T", [(i % 2, i % 4) for i in range(16)], domain=(0, 3))
        cat = build_stats(t, buckets=4, mcv=0)
        # C1 <= 0 has frequency 1/2, C2 <= 1 has frequency 1/2.
        expr = And(SelectionClause("C1", LE, 0), SelectionClause("C2", LE, 1))
        assert estimate_predicate(cat, "T", expr) == pytest.approx(0.25, abs=0.02)

    def test_or_is_clamped_sum(self):
        cat = build_stats(distinct_1_to_100(), buckets=4, mcv=0)
        expr = Or(SelectionClause("A", LE, 70), SelectionClause("A", GE, 40))
        assert estimate_predicate(cat, "T", expr) == 1.0

    def test_single_clause_equals_estimate_clause(self):
        cat = build_stats(distinct_1_to_100(), buckets=4, mcv=0)
        clause = SelectionClause("A", LE, 33)
        assert estimate_predicate(cat, "T", clause) == estimate_clause(
            cat.get("T", "A"), clause
        )

    def test_and_accuracy_on_uniform_independent_data(self):
        # On independent uniform columns the independence assumption holds, so
        # at least 95 of 100 fixed AND queries land within 0.05 of exact.
        table = generate_uniform_table("U", 10_000, 3, Domain(0, 1000), seed=21)
        cat = build_stats(table, buckets=100, mcv=100)
        rng = np.random.default_rng(4)
        ops = (LE, GE, ComparisonOp.LT, ComparisonOp.GT, EQ, ComparisonOp.NE)
        hits = 0
        for _ in range(100):
            cols = rng.choice(3, size=2, replace=False)
            clauses = [
                SelectionClause(f"C{int(c) + 1}", ops[int(rng.integers(0, 6))], int(rng.integers(0, 1001)))
                for c in cols
            ]
            expr = And(clauses[0], clauses[1])
            est = estimate_predicate(cat, "U", expr)
            exact = exact_selectivity([table], SelectLeaf("U", expr))
            if abs(est - exact) <= 0.05:
                hits += 1
        assert hits >= 95


class TestEstimateJoin:
    def _pair(self, n_distinct):
        rows = [(v % n_distinct, 0) for v in range(200)]
        a = Table("A", [ColumnMeta("C1", Domain(0, 1000)), ColumnMeta("C2", Domain(0, 1000))], rows)
        b = Table("B", [ColumnMeta("C1", Domain(0, 1000)), ColumnMeta("C2", Domain(0, 1000))], rows)
        cat = StatsCatalog(100, 100)
        cat.update(build_stats(a))
        cat.update(build_stats(b))
        return a, b, cat

    def test_eq_join_uses_inverse_max_distinct(self):
        _, _, cat = self._pair(100)
        plan = JoinNode(
            SelectLeaf("A", None),
            SelectLeaf("B", None),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C1"), EQ),
        )
        assert estimate_join(cat, plan) == pytest.approx(0.01)

    def test_leaf_selectivities_multiply(self):
        _, _, cat = self._pair(100)
        # C1 <= 49 selects half of the 0..99 values on each side.
        plan = JoinNode(
            SelectLeaf("A", SelectionClause("C1", LE, 49)),
            SelectLeaf("B", SelectionClause("C1", LE, 49)),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C1"), EQ),
        )
        assert estimate_join(cat, plan) == pytest.approx(0.0025, abs=0.0005)

    def test_inequality_join_default_factor(self):
        _, _, cat = self._pair(100)
        plan = JoinNode(
            SelectLeaf("A", None),
            SelectLeaf("B", None),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C1"), ComparisonOp.LT),
        )
        assert estimate_join(cat, plan) == pytest.approx(1 / 3)

    def test_single_leaf_plan_equals_predicate_estimate(self):
        cat = build_stats(distinct_1_to_100(), buckets=4, mcv=0)
        clause = SelectionClause("A", LE, 25)
        assert estimate_join(cat, SelectLeaf("T", clause)) == estimate_predicate(
            cat, "T", clause
        )


class TestDumpLoad:
    def test_dump_is_deterministic(self, tmp_path):
        t = make_table("T", [(1, 2), (3, 4)], domain=(0, 10))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        dump_stats(build_stats(t), p1)
        dump_stats(build_stats(t), p2)
        assert p1.read_bytes() == p2.read_bytes()
