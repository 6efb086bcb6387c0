"""Execution engine and estimators: exact oracle, aligned and plain sample estimates."""

import gc

import numpy as np
import pytest

from conftest import (
    aligned_oracle_selectivity,
    brute_force_result,
    brute_force_selectivity,
    make_table,
    random_plan,
    random_small_tables,
)
from selsample.execution import (
    estimate_all_nodes,
    estimate_indexed,
    exact_cardinality,
    exact_selectivity,
    execute_plan,
)
from selsample.queries import (
    And,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    SelectLeaf,
    SelectionClause,
    parse_query,
)
from selsample.sampling import SampleDatabase, SampleTable, create_sample
from selsample.tables import ColumnMeta, Domain

EQ = ComparisonOp.EQ
GE = ComparisonOp.GE
LE = ComparisonOp.LE
ONE_COLUMN = [ColumnMeta("C1", Domain(0, 5))]


def join_plan(cond_op=EQ, left_pred=None, right_pred=None, col="C1"):
    return JoinNode(
        SelectLeaf("A", left_pred),
        SelectLeaf("B", right_pred),
        JoinCondition(ColumnRef("A", col), ColumnRef("B", col), cond_op),
    )


class TestExecutePlan:
    def test_true_leaf_keeps_all_rows(self):
        t = make_table("T", [(0, 0), (1, 1), (2, 2), (3, 3)])
        rs = execute_plan([t], SelectLeaf("T", None))
        assert rs.tables == ("T",)
        assert rs.rows == [(0,), (1,), (2,), (3,)]

    def test_leaf_filters(self):
        t = make_table("T", [(0, 0), (3, 1), (5, 2)])
        rs = execute_plan([t], SelectLeaf("T", SelectionClause("C1", GE, 3)))
        assert rs.rows == [(1,), (2,)]

    def test_join_by_hand(self):
        a = make_table("A", [(1, 0), (2, 0)])
        b = make_table("B", [(2, 0), (2, 1)])
        rs = execute_plan([a, b], join_plan())
        assert rs.tables == ("A", "B")
        assert rs.rows == [(1, 0), (1, 1)]

    def test_join_output_is_lexicographic(self):
        a = make_table("A", [(1, 0), (1, 1), (1, 2)])
        b = make_table("B", [(1, 0), (1, 1)])
        rs = execute_plan([a, b], join_plan())
        assert rs.rows == sorted(rs.rows)

    def test_condition_sides_may_be_swapped(self):
        # The condition names B on the left; execution must orient it.
        a = make_table("A", [(1, 0), (3, 0)])
        b = make_table("B", [(2, 0)])
        plan = JoinNode(
            SelectLeaf("A", None),
            SelectLeaf("B", None),
            JoinCondition(ColumnRef("B", "C1"), ColumnRef("A", "C1"), ComparisonOp.LT),
        )
        rs = execute_plan([a, b], plan)
        # pairs (a_row, b_row) with B.C1 < A.C1, i.e. A.C1 > 2
        assert rs.rows == [(1, 0)]

    def test_three_table_chain_matches_brute_force(self):
        rng = np.random.default_rng(7)
        tables = random_small_tables(rng, 3, max_rows=3)
        plan = random_plan(rng, tables, 3)
        rs = execute_plan(tables, plan)
        assert set(rs.rows) == brute_force_result(tables, plan)

    def test_unresolved_table(self):
        t = make_table("T", [(0, 0)])
        with pytest.raises(LookupError, match="not present"):
            execute_plan([t], SelectLeaf("X", None))

    @pytest.mark.parametrize("run", [execute_plan, exact_cardinality])
    def test_condition_that_does_not_connect_the_subplans(self, run):
        tables = [make_table(name, [(0, 0)]) for name in "ABC"]
        plan = JoinNode(
            SelectLeaf("A", None),
            SelectLeaf("B", None),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("C", "C1"), EQ),
        )
        with pytest.raises(LookupError, match=r"^join condition A\.C1 = C\.C1 does not connect the two subplans$"):
            run(tables, plan)

    @pytest.mark.parametrize("run", [execute_plan, exact_cardinality])
    def test_table_read_twice(self, run):
        tables = [make_table(name, [(0, 0)]) for name in "AB"]
        plan = JoinNode(
            join_plan(),
            SelectLeaf("A", None),
            JoinCondition(ColumnRef("B", "C2"), ColumnRef("A", "C2"), EQ),
        )
        with pytest.raises(ValueError, match="^a table appears twice in the plan; self-joins are not supported$"):
            run(tables, plan)


class TestExecuteRandomized:
    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            tables = random_small_tables(rng, k, max_rows=5)
            plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
            got = set(execute_plan(tables, plan).rows)
            assert got == brute_force_result(tables, plan)


class TestExactSelectivity:
    def test_true_predicate_is_one(self):
        t = make_table("T", [(0, 0), (1, 1)])
        assert exact_selectivity([t], SelectLeaf("T", None)) == 1.0

    def test_unsatisfiable_predicate_is_zero(self):
        t = make_table("T", [(0, 0), (5, 1)])
        pred = And(SelectionClause("C1", GE, 5), SelectionClause("C1", LE, 1))
        assert exact_selectivity([t], SelectLeaf("T", pred)) == 0.0

    def test_join_hand_enumeration(self):
        a = make_table("A", [(1, 0), (2, 0), (3, 0)])
        b = make_table("B", [(3, 0), (4, 0), (5, 0)])
        assert exact_selectivity([a, b], join_plan()) == pytest.approx(1 / 9)

    def test_empty_table_rejected(self):
        t = make_table("T", [])
        with pytest.raises(ValueError, match="empty"):
            exact_selectivity([t], SelectLeaf("T", None))

    def test_cardinality(self):
        a = make_table("A", [(1, 0), (2, 0), (3, 0)])
        b = make_table("B", [(3, 0), (4, 0), (5, 0)])
        assert exact_cardinality([a, b], join_plan()) == 1

    @pytest.mark.parametrize("op", list(ComparisonOp))
    def test_pair_count_matches_brute_force_all_ops(self, op):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = make_table("A", rng.integers(0, 6, size=(int(rng.integers(1, 6)), 2)).tolist())
            b = make_table("B", rng.integers(0, 6, size=(int(rng.integers(1, 6)), 2)).tolist())
            plan = join_plan(
                op,
                left_pred=SelectionClause("C1", GE, int(rng.integers(0, 4))),
                right_pred=None,
            )
            assert exact_selectivity([a, b], plan) == brute_force_selectivity([a, b], plan)

    def test_monotone_and_containment(self):
        # Adding an AND clause never increases exact selectivity.
        rng = np.random.default_rng(29)
        for _ in range(40):
            (t,) = random_small_tables(rng, 1, max_rows=6)
            base = SelectionClause("C1", GE, int(rng.integers(0, 6)))
            extra = SelectionClause("C2", LE, int(rng.integers(0, 6)))
            wide = exact_selectivity([t], SelectLeaf("T0", base))
            narrow = exact_selectivity([t], SelectLeaf("T0", And(base, extra)))
            assert narrow <= wide


def spec_sample_pair():
    """The worked 3-row instance: S1 has C1 = 1,2,3 and S2 has C1 = 1,5,3."""
    s1 = SampleTable("A", ONE_COLUMN, [(1,), (2,), (3,)])
    s2 = SampleTable("B", ONE_COLUMN, [(1,), (5,), (3,)])
    return SampleDatabase(3, 0, [s1, s2])


class TestEstimators:
    def test_indexed_on_worked_instance(self):
        # Aligned matches at indexes 1 and 3 only.
        assert estimate_indexed(spec_sample_pair(), join_plan()) == pytest.approx(2 / 3)

    def test_practitioner_on_worked_instance(self):
        # Two matching pairs among all 3x3 sample pairs.
        records = estimate_all_nodes(spec_sample_pair(), join_plan())
        assert records[-1].est_practitioner == pytest.approx(2 / 9)

    def test_single_table_true_is_one(self):
        t = make_table("T", [(0, 0), (1, 1)])
        sdb = create_sample(5, [t], seed=1)
        assert estimate_indexed(sdb, SelectLeaf("T", None)) == 1.0

    def test_single_table_estimators_coincide(self):
        t = make_table("T", [(0, 0), (1, 1), (2, 2)])
        sdb = create_sample(7, [t], seed=3)
        plan = SelectLeaf("T", SelectionClause("C1", GE, 1))
        assert estimate_indexed(sdb, plan) == estimate_all_nodes(sdb, plan)[-1].est_practitioner

    def test_unaligned_matches_count_zero(self):
        # Matches exist but never on the same index: indexed 0, practitioner > 0.
        s1 = SampleTable("A", ONE_COLUMN, [(1,), (2,)])
        s2 = SampleTable("B", ONE_COLUMN, [(2,), (1,)])
        sdb = SampleDatabase(2, 0, [s1, s2])
        assert estimate_indexed(sdb, join_plan()) == 0.0
        assert estimate_all_nodes(sdb, join_plan())[-1].est_practitioner == pytest.approx(2 / 4)

    def test_unused_sample_tables_are_ignored(self):
        a = make_table("A", [(0, 0), (1, 1)])
        b = make_table("B", [(0, 0)])
        sdb = create_sample(6, [a, b], seed=2)
        plan = SelectLeaf("A", None)
        assert estimate_indexed(sdb, plan) == 1.0

    def test_aligned_equivalence_on_random_instances(self):
        # Alignment identity: running on the samples and filtering by
        # index equality must equal evaluating the plan over the aligned rows.
        rng = np.random.default_rng(99)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            tables = random_small_tables(rng, k, max_rows=6)
            plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
            s = int(rng.integers(1, 6))
            sdb = create_sample(s, tables, seed=int(rng.integers(0, 10_000)))
            assert estimate_indexed(sdb, plan) == aligned_oracle_selectivity(sdb, plan)


class TestEpsilonGuarantee:
    def test_derived_dimension_sample_meets_guarantee(self):
        # Size the sample from the class's own bound (u=1, m=2, b=5) at
        # epsilon = delta = 0.1: the failing fraction must stay within
        # delta plus statistical slack.
        from selsample.harness import WorkloadSpec, generate_workload
        from selsample.tables import Domain, generate_uniform_table
        from selsample.vcbounds import SampleSizeSpec, bound_general, sample_size_eps

        table = generate_uniform_table("U", 100_000, 3, Domain(0, 200000), seed=77)
        d = bound_general(1, 2, 5).dimension
        s = sample_size_eps(SampleSizeSpec(epsilon=0.1, delta=0.1, d=d))
        sdb = create_sample(s, [table], seed=78)
        workload = generate_workload(WorkloadSpec(m=2, b=5, count=100, seed=79), [table])
        failing = sum(
            1
            for plan in workload
            if abs(estimate_indexed(sdb, plan) - exact_selectivity([table], plan)) > 0.1
        )
        assert failing / 100 <= 0.1 + 0.05

    def test_empty_result_estimates_are_zero(self):
        a = make_table("A", [(0, 0)])
        b = make_table("B", [(5, 5)])
        sdb = create_sample(3, [a, b], seed=1)
        plan = join_plan(EQ)  # 0 never equals 5
        assert estimate_indexed(sdb, plan) == 0.0
        assert estimate_all_nodes(sdb, plan)[-1].est_practitioner == 0.0


class TestEstimateAllNodes:
    def test_record_count_and_kinds(self):
        a = make_table("A", [(1, 0), (2, 0)])
        b = make_table("B", [(2, 0)])
        sdb = create_sample(4, [a, b], seed=5)
        records = estimate_all_nodes(sdb, join_plan())
        assert [r.kind for r in records] == ["select", "select", "join"]
        assert [r.node for r in records] == [0, 1, 2]
        assert all(r.s == 4 for r in records)

    def test_leaf_records_equal_direct_estimates(self):
        a = make_table("A", [(1, 0), (2, 0), (3, 0)])
        b = make_table("B", [(2, 0), (9, 0)], domain=(0, 10))
        sdb = create_sample(6, [a, b], seed=8)
        pred = SelectionClause("C1", GE, 2)
        plan = join_plan(left_pred=pred)
        records = estimate_all_nodes(sdb, plan)
        assert records[0].est_indexed == estimate_indexed(sdb, SelectLeaf("A", pred))
        assert records[1].est_indexed == estimate_indexed(sdb, SelectLeaf("B", None))
        assert records[2].est_indexed == estimate_indexed(sdb, plan)

    def test_exact_fields_cross_check(self):
        a = make_table("A", [(1, 0), (2, 0), (3, 0)])
        b = make_table("B", [(3, 0), (4, 0), (5, 0)])
        sdb = create_sample(5, [a, b], seed=4)
        plan = join_plan()
        records = estimate_all_nodes(sdb, plan, db=[a, b])
        from selsample.queries import subplans

        for rec, node in zip(records, subplans(plan)):
            assert rec.exact == exact_selectivity([a, b], node)

    def test_leaves_no_reference_cycle(self):
        # Garbage in a cycle lives until a full collection; an estimate must
        # free everything it built when it returns.
        a = make_table("A", [(1, 0), (2, 0), (3, 0)])
        b = make_table("B", [(2, 0), (3, 0)])
        sdb = create_sample(50, [a, b], seed=6)
        plan = join_plan(LE)
        estimate_all_nodes(sdb, plan)
        gc.collect()
        gc.disable()
        try:
            estimate_all_nodes(sdb, plan)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_without_db_exact_is_none(self):
        a = make_table("A", [(1, 0)])
        sdb = create_sample(2, [a], seed=1)
        (rec,) = estimate_all_nodes(sdb, SelectLeaf("A", None))
        assert rec.exact is None


class TestParsedPlansEndToEnd:
    def test_parsed_join_on_samples(self):
        a = make_table("A", [(1, 2), (2, 3), (3, 1)], domain=(0, 10))
        b = make_table("B", [(3, 0), (1, 1)], domain=(0, 10))
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 = B.C1 AND A.C2 >= 1", [a, b])
        sdb = create_sample(8, [a, b], seed=11)
        est = estimate_indexed(sdb, plan)
        assert 0.0 <= est <= 1.0
        assert est == aligned_oracle_selectivity(sdb, plan)
