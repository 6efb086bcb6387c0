"""The counting engine against brute force, beyond int64, and at sizes that
rule out building join results."""

import operator
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ALL_OPS,
    aligned_oracle_selectivity,
    brute_force_result,
    make_table,
    random_plan,
    random_small_tables,
    sample_table,
)
from selsample import execution
from selsample.execution import (
    _dense,
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
from selsample.sampling import create_sample, load_sample, save_sample
from selsample.tables import ColumnMeta, Domain, Table


def _scaled_expr(expr, scale: int):
    if expr is None:
        return None
    if isinstance(expr, SelectionClause):
        return replace(expr, constant=expr.constant * scale)
    return type(expr)(_scaled_expr(expr.left, scale), _scaled_expr(expr.right, scale))


def _scaled_plan(plan, scale: int):
    if isinstance(plan, SelectLeaf):
        return replace(plan, predicate=_scaled_expr(plan.predicate, scale))
    return replace(plan, left=_scaled_plan(plan.left, scale), right=_scaled_plan(plan.right, scale))


def _scaled(tables, plan, scale: int):
    """The same instance with every value, domain bound and selection constant
    multiplied by `scale`. Every count stays the same; at a scale of 10**12
    the value spans are far too wide for the dense lookup, so each join edge
    takes the sorted form."""
    tables = [make_table(t.name, t.matrix() * scale, domain=(0, 5 * scale)) for t in tables]
    return tables, _scaled_plan(plan, scale)


_SCALES = pytest.mark.parametrize("scale", [1, 10**12], ids=["dense", "sorted"])


@_SCALES
def test_exact_cardinality_matches_brute_force(scale):
    rng = np.random.default_rng(31)
    ops_seen = set()
    for _ in range(300):
        k = int(rng.integers(1, 5))
        tables = random_small_tables(rng, k, max_rows=4)
        plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
        tables, plan = _scaled(tables, plan, scale)
        ops_seen.update(n.condition.op for n in subplans(plan) if isinstance(n, JoinNode))
        assert exact_cardinality(tables, plan) == len(brute_force_result(tables, plan))
    assert ops_seen == set(ALL_OPS)


@_SCALES
def test_every_node_record_matches_brute_force(scale):
    rng = np.random.default_rng(37)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        tables = random_small_tables(rng, k, max_rows=5)
        plan = random_plan(rng, tables, int(rng.integers(1, k + 1)))
        tables, plan = _scaled(tables, plan, scale)
        s = int(rng.integers(1, 6))
        sdb = create_sample(s, tables, seed=int(rng.integers(0, 10_000)))
        sample_tables = [make_table(st.base, st.rows, domain=(0, 5 * scale)) for st in sdb.tables]
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
    av = sample_table(sdb, "A").matrix()[:, 0]
    bv = sample_table(sdb, "B").matrix()[:, 0]
    pairs = int(np.searchsorted(np.sort(av), bv, side="left").sum())
    assert records[-1].est_practitioner == pairs / s**2
    assert records[-1].est_indexed == int(np.count_nonzero(av < bv)) / s


@pytest.mark.parametrize("op", ["<", "="])
def test_wide_span_join_allocates_no_span_sized_table(op):
    # Values spread over about 2**63 integers; equality needs repeated values.
    rng = np.random.default_rng(53)
    n, dom = 20_000, Domain(-(2**62), 2**62)
    pool = rng.integers(dom.lo, dom.hi, size=3_000, endpoint=True)
    a, b = (
        Table(name, [ColumnMeta("C1", dom)], rng.choice(pool, size=(n, 1))) for name in "AB"
    )
    plan = parse_query(f"SELECT * FROM A, B WHERE A.C1 {op} B.C1", [a, b])
    av, bv = np.sort(a.column_values("C1")), b.column_values("C1")
    below = np.searchsorted(av, bv, side="left")
    want = int(below.sum() if op == "<" else (np.searchsorted(av, bv, side="right") - below).sum())
    tracemalloc.start()
    try:
        count = exact_cardinality([a, b], plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == want
    # Each side's values, sorted copies and search results: well under 4 MB.
    assert peak < 4 * 2**20


_PY_OPS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge, "=": operator.eq, "<>": operator.ne}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


# A span of 8 slots per row of the 60 + 40 rows that _match_cases draws on it:
# dense for `=` and `<>`, sorted for the inequalities.
_EIGHT_SLOTS_PER_ROW = Domain(-400, 399)


def _match_cases(rng):
    """(parent values, child values, child domain): narrow spans take the
    dense form, wide ones the sorted form."""
    narrow, wide = Domain(-3, 3), Domain(-(10**12), 10**12)
    for domain in (narrow, wide):
        for n_parent, n_child in [(0, 5), (7, 0), (0, 0), (1, 1), (40, 25), (300, 200)]:
            # Few distinct values, in random row order: heavy ties on both sides.
            yield rng.integers(-3, 4, size=n_parent), rng.integers(-3, 4, size=n_child), domain
        # Parent values below, inside and above the child's span.
        yield rng.integers(-8, 9, size=60), rng.integers(-3, 4, size=30), domain
    # Child values at both ends of the span, parent values beyond it on
    # either side, and ties among values drawn from a pool.
    lo, hi = _EIGHT_SLOTS_PER_ROW.lo, _EIGHT_SLOTS_PER_ROW.hi
    pool = np.array([lo, lo + 1, -1, 0, 1, hi - 1, hi, *rng.integers(lo, hi + 1, size=9)])
    cv = rng.choice(pool, size=40)
    cv[:2] = lo, hi
    pv = np.concatenate((rng.choice(pool, size=56), [lo - 1, hi + 1, lo - 500, hi + 500]))
    yield rng.permutation(pv), rng.permutation(cv), _EIGHT_SLOTS_PER_ROW
    # Spans at either end of int64, and parent values at both ends.
    ends = [_INT64_MIN, _INT64_MIN + 1, -1, 0, 1, _INT64_MAX - 1, _INT64_MAX]
    spans = [(_INT64_MIN, _INT64_MIN + 6), (_INT64_MAX - 6, _INT64_MAX), (_INT64_MIN, _INT64_MAX)]
    for lo, hi in spans:
        cv = np.array([lo, hi, lo, hi, hi - 3, lo + 2], dtype=np.int64)
        pv = np.array(ends + [lo + 2, lo + 3, hi - 3, hi - 4], dtype=np.int64)
        yield rng.permutation(pv), rng.permutation(cv), Domain(lo, hi)


@pytest.mark.parametrize("weights", ["none", "int64", "beyond int64"])
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.value)
def test_matches_against_a_double_loop(op, weights):
    rng = np.random.default_rng(43)
    holds = _PY_OPS[op.value]
    forms = set()
    for pv, cv, domain in _match_cases(rng):
        n_child = cv.size
        if weights == "none":
            cw, w = None, [1] * n_child
        elif weights == "int64":
            cw = rng.integers(0, 1_000, size=n_child)
            w = cw.tolist()
        else:
            w = [2**63 + int(x) for x in rng.integers(0, 1_000, size=n_child)]
            cw = np.array(w, dtype=object)
        dense = _dense(domain, pv, cv, op)
        forms.add(dense)
        if domain == _EIGHT_SLOTS_PER_ROW:
            assert dense == (op in (ComparisonOp.EQ, ComparisonOp.NE))
        want = [sum(wy for y, wy in zip(cv.tolist(), w) if holds(x, y)) for x in pv.tolist()]
        got = _matches(pv, cv, cw, op, domain)
        assert got.shape == pv.shape
        assert [int(v) for v in got] == want
        # The 2-table root total: the same matches, summed in any row order.
        dtype = object if weights == "beyond int64" else np.int64
        total = _match_total(pv, cv, cw, op, domain, dtype)
        assert type(total) is int and total == sum(want)
    assert forms == {True, False}


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


_SPAN_PLANS = [
    "SELECT * FROM A, B WHERE A.C1 = B.C1",
    "SELECT * FROM A, B WHERE A.C2 < B.C1 AND B.C2 >= 10",
    "SELECT * FROM A, B, C WHERE A.C1 = B.C1 AND B.C2 <> C.C2 AND C.C1 <= 40",
]


def _forms(monkeypatch, count):
    """count()'s result, and the (op, span) of every dense lookup it makes."""
    calls = []

    def spy(pv, cv, cw, op, domain):
        calls.append((op, domain))
        return dense_matches(pv, cv, cw, op, domain)

    dense_matches = execution._dense_matches
    monkeypatch.setattr(execution, "_dense_matches", spy)
    try:
        return count(), calls
    finally:
        monkeypatch.setattr(execution, "_dense_matches", dense_matches)


def _declared(tables, domain):
    return [Table(t.name, [ColumnMeta(n, domain) for n in t.column_names], t.matrix()) for t in tables]


def _span_tables():
    rng = np.random.default_rng(59)
    return [make_table(name, rng.integers(0, 51, size=(40, 2)), domain=(0, 50)) for name in "ABC"]


@pytest.mark.parametrize("query", _SPAN_PLANS)
def test_join_lookups_follow_the_values_not_the_declared_domain(monkeypatch, query):
    tight = _span_tables()
    wide = _declared(tight, Domain(-(10**9), 10**9))
    plan = parse_query(query, tight)
    count_tight, forms_tight = _forms(monkeypatch, lambda: exact_cardinality(tight, plan))
    count_wide, forms_wide = _forms(monkeypatch, lambda: exact_cardinality(wide, plan))
    assert count_tight == count_wide == len(brute_force_result(tight, plan))
    # Every edge is dense: at most 51 values over up to 80 rows.
    assert len(forms_tight) == len(leaf_tables(plan)) - 1
    assert forms_wide == forms_tight


@pytest.mark.parametrize("query", _SPAN_PLANS)
def test_a_drawn_sample_takes_the_lookups_of_its_saved_copy(monkeypatch, tmp_path, query):
    wide = _declared(_span_tables(), Domain(-(10**9), 10**9))
    plan = parse_query(query, wide)
    drawn = create_sample(400, wide, seed=5)
    loaded = load_sample(save_sample(drawn, tmp_path))
    records_drawn, forms_drawn = _forms(monkeypatch, lambda: estimate_all_nodes(drawn, plan))
    records_loaded, forms_loaded = _forms(monkeypatch, lambda: estimate_all_nodes(loaded, plan))
    assert records_drawn == records_loaded
    assert forms_drawn and forms_drawn == forms_loaded
