"""The counting engine against brute force, beyond int64, and at sizes that
rule out building join results."""

import operator

import numpy as np
import pytest

from conftest import (
    ALL_OPS,
    aligned_oracle_selectivity,
    brute_force_result,
    make_table,
    random_plan,
    random_small_tables,
)
from selsample.execution import (
    _match_total,
    _matches,
    estimate_all_nodes,
    exact_cardinality,
    exact_selectivity,
)
from selsample.queries import (
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    SelectionClause,
    SelectLeaf,
    leaf_tables,
    parse_query,
    subplans,
)
from selsample.sampling import create_sample
from selsample.tables import ColumnMeta, Domain, Table


def test_exact_cardinality_matches_brute_force():
    rng = np.random.default_rng(31)
    ops_seen = set()
    for _ in range(300):
        k = int(rng.integers(1, 5))
        tables = random_small_tables(rng, k, max_rows=4)
        plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
        ops_seen.update(n.condition.op for n in subplans(plan) if isinstance(n, JoinNode))
        assert exact_cardinality(tables, plan) == len(brute_force_result(tables, plan))
    assert ops_seen == set(ALL_OPS)


def test_every_node_record_matches_brute_force():
    rng = np.random.default_rng(37)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        tables = random_small_tables(rng, k, max_rows=5)
        plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
        s = int(rng.integers(1, 6))
        sdb = create_sample(s, tables, seed=int(rng.integers(0, 10_000)))
        sample_tables = [make_table(st.base, st.rows) for st in sdb.tables]
        records = estimate_all_nodes(sdb, plan)
        for rec, node in zip(records, subplans(plan), strict=True):
            assert rec.est_indexed == aligned_oracle_selectivity(sdb, node)
            u = len(leaf_tables(node))
            assert rec.est_practitioner == len(brute_force_result(sample_tables, node)) / s**u


def test_count_beyond_int64_stays_exact():
    n = 60_000
    tables = [
        Table(name, [ColumnMeta("C1", Domain(0, 0))], [(0,)] * n) for name in "abcd"
    ]
    plan = parse_query(
        "SELECT * FROM a, b, c, d WHERE a.C1 <= b.C1 AND b.C1 = c.C1 AND c.C1 >= d.C1", tables
    )
    assert n**4 > 2**63
    count = exact_cardinality(tables, plan)
    assert type(count) is int and count == n**4
    assert exact_selectivity(tables, plan) == 1.0


def test_unfiltered_theta_join_on_a_large_sample():
    rng = np.random.default_rng(41)
    dom = Domain(0, 1_000_000)
    a, b = (
        Table(name, [ColumnMeta("C1", dom)], rng.integers(0, 1_000_001, size=(2_000, 1)).tolist())
        for name in "AB"
    )
    s = 50_000
    sdb = create_sample(s, [a, b], seed=3)
    plan = parse_query("SELECT * FROM A, B WHERE A.C1 < B.C1", [a, b])
    records = estimate_all_nodes(sdb, plan)
    av = sdb.table("A").matrix()[:, 0]
    bv = sdb.table("B").matrix()[:, 0]
    pairs = int(np.searchsorted(np.sort(av), bv, side="left").sum())
    assert records[-1].est_practitioner == pairs / s**2
    assert records[-1].est_indexed == int(np.count_nonzero(av < bv)) / s


_PY_OPS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge, "=": operator.eq, "<>": operator.ne}


@pytest.mark.parametrize("weights", ["none", "int64", "beyond int64"])
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
def test_matches_against_a_double_loop(op, weights):
    rng = np.random.default_rng(43)
    holds = _PY_OPS[op.value]
    for n_parent, n_child in [(0, 5), (7, 0), (0, 0), (1, 1), (40, 25), (300, 200)]:
        # Few distinct values, in random row order: heavy ties on both sides.
        pv = rng.integers(-3, 4, size=n_parent)
        cv = rng.integers(-3, 4, size=n_child)
        if weights == "none":
            cw, w = None, [1] * n_child
        elif weights == "int64":
            cw = rng.integers(0, 1_000, size=n_child)
            w = cw.tolist()
        else:
            w = [2**63 + int(x) for x in rng.integers(0, 1_000, size=n_child)]
            cw = np.array(w, dtype=object)
        want = [sum(wy for y, wy in zip(cv.tolist(), w) if holds(x, y)) for x in pv.tolist()]
        got = _matches(pv, cv, cw, op)
        assert got.shape == (n_parent,)
        assert [int(v) for v in got] == want
        # The 2-table root total: the same matches, summed in any row order.
        total = _match_total(pv, cv, cw, op, object if weights == "beyond int64" else np.int64)
        assert type(total) is int and total == sum(want)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
def test_two_table_count_with_full_and_empty_leaves(op):
    # TRUE leaves keep every row (full masks); C1 < 0 keeps none.
    rng = np.random.default_rng(47)
    none_kept = SelectionClause("C1", ComparisonOp.LT, 0)
    for n_a, n_b in [(1, 1), (6, 9), (30, 20)]:
        tables = [
            make_table("A", rng.integers(0, 6, size=(n_a, 2)).tolist()),
            make_table("B", rng.integers(0, 6, size=(n_b, 2)).tolist()),
        ]
        cond = JoinCondition(ColumnRef("A", "C2"), ColumnRef("B", "C1"), op)
        for pa, pb in [(None, None), (none_kept, None), (None, none_kept), (none_kept, none_kept)]:
            plan = JoinNode(SelectLeaf("A", pa), SelectLeaf("B", pb), cond)
            count = exact_cardinality(tables, plan)
            assert count == len(brute_force_result(tables, plan))
            if pa is not None or pb is not None:
                assert count == 0
