"""Selectivity estimators and exact counts, all served by one counting engine.

No estimator builds a join result; each counts.

- The index-aligned estimate is the number of sampleindex values i whose
  i-th rows satisfy the plan, divided by the sample size s. With every sample
  table's rows in sampleindex order, that is one boolean mask of length s per
  leaf predicate and per join condition, ANDed together: O(s * u).
- A plan's join graph is a tree: u leaves joined by u - 1 conditions. The
  practitioner estimate (all sample combinations that satisfy the plan,
  divided by s^u) and the exact cardinality on the base tables are weighted
  counts up that tree (Yannakakis, "Algorithms for Acyclic Database
  Schemes", VLDB 1981). Per edge, a lookup over the child's join values
  gives each parent row's matching weight, which multiplies into the
  parent's weights. Only in a 2-table plan does the root have a single
  child; there the count is the sum of that edge's matches, and row order
  does not matter. The lookup takes one of two forms, chosen by the child
  column's span [lo, hi], the [min, max] of its values in the whole table
  (`Table.span`), whatever domain the table was declared with:
  - Dense, when hi - lo + 1 <= c * (parent rows + child rows), with c = 16
    for `=` and `<>` and c = 4 for the inequalities: one slot per value in
    [lo, hi] holds the child weight of that value (distribution counting,
    Knuth, TAOCP vol. 3, 5.2). `=` and `<>` read it directly; for the
    inequalities it becomes a running total in place. Parent values are
    clipped to the span and read in row order: O(rows + span), no sort.
  - Sorted, otherwise: the child's values are sorted once and binary
    searches run over the parent values in sorted order, each starting from
    the previous one's bound; their results go back to row order, except
    for the 2-table total. O(rows log rows), and no span-sized memory.
  Each c is measured (2-core VM, numpy 2.4). The inequalities pay for the
  running total over the span: at 5e4 rows per side, the `<` total takes
  2.1 ms dense against 2.8 ms sorted at 4 slots per row, and 3.5 against
  2.7 ms at 8; at 1e3 rows per side the row order lookup breaks even near
  4. `=` and `<>` pay only for filling and reading the slots: at 5e4 rows
  per side, the `=` lookup takes 0.7 ms dense against 4.1 ms sorted at 8
  slots per row and 1.0 against 4.2 ms at 16, and is still faster dense at
  32. Their c stops at 16 because the slots take memory: up to 128 bytes
  per row of the edge's two sides.
  Each leaf's join values are gathered from its contiguous column with
  `np.compress`; a plan with a leaf that keeps no rows counts 0 without a
  lookup. Counts are exact integers: int64 while the product of the
  filtered leaf sizes fits, Python ints beyond.

`execute_plan` is the reference implementation the counts are tested
against. It builds the full result with nested-loop semantics: every pair of
child rows satisfying the condition, ordered lexicographically by source
ordinals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .queries import (
    And,
    BoolExpr,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    QueryPlan,
    SelectLeaf,
    SelectionClause,
    leaf_tables,
    subplans,
)
from .sampling import SampleDatabase
from .tables import _INT64_MAX, _INT64_MIN, Domain, Table

__all__ = [
    "ResultSet",
    "EstimateRecord",
    "execute_plan",
    "exact_selectivity",
    "exact_cardinality",
    "estimate_indexed",
    "estimate_all_nodes",
]

# The dense form of a join edge's lookup serves child columns whose span
# has at most this many values per row of the edge's two sides: more for
# `=` and `<>`, which read the slots directly, than for the inequalities,
# which also take a running total over them.
_DENSE_SLOTS_PER_ROW = 4
_DENSE_SLOTS_PER_ROW_EQ = 16

_NP_OPS = {
    ComparisonOp.LT: np.less,
    ComparisonOp.GT: np.greater,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GE: np.greater_equal,
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
}


@dataclass
class ResultSet:
    """Rows produced by a plan: per-row source ordinals, one per leaf table."""

    tables: tuple[str, ...]
    rows: list[tuple[int, ...]]


@dataclass
class EstimateRecord:
    """Per-subplan selectivity estimates; `node` is the post-order index.

    `s` and `seed` are the size and seed of the sample the estimates were
    measured on, so a record can be reproduced on its own.
    """

    node: int
    kind: str
    est_indexed: float
    est_practitioner: float
    s: int
    seed: int
    exact: float | None = None


def _frames(tables: Sequence[Table], plan: QueryPlan) -> dict[str, Table]:
    """The tables the plan reads, by name, after checking that the plan fits them.

    `tables` are base tables, or a sample database's `tables`: a sample table
    is a Table stored in sampleindex order, so row i of every sample table
    belongs to the same aligned draw.
    """
    sources = {t.name: t for t in tables}
    names = leaf_tables(plan)
    frames = {}
    for name in names:
        if name not in sources:
            raise LookupError(f"table {name!r} is not present in the database")
        frames[name] = sources[name]
    if len(frames) != len(names):
        raise ValueError("a table appears twice in the plan; self-joins are not supported")
    for node in subplans(plan):
        if isinstance(node, JoinNode):
            _oriented(node.condition, leaf_tables(node.left), leaf_tables(node.right))
    return frames


def _mask(expr: BoolExpr | None, frame: Table) -> np.ndarray:
    if expr is None:
        return np.ones(frame.row_count, dtype=bool)
    if isinstance(expr, SelectionClause):
        return _NP_OPS[expr.op](frame.column_values(expr.column), expr.constant)
    if isinstance(expr, And):
        return _mask(expr.left, frame) & _mask(expr.right, frame)
    return _mask(expr.left, frame) | _mask(expr.right, frame)


def _oriented(
    cond: JoinCondition, left_tables: Sequence[str], right_tables: Sequence[str]
) -> tuple[str, str, str, str, ComparisonOp]:
    """Resolve which side of the condition lives in which subtree."""
    lt, rt = cond.left.table, cond.right.table
    if lt in left_tables and rt in right_tables:
        return lt, cond.left.column, rt, cond.right.column, cond.op
    if lt in right_tables and rt in left_tables:
        return rt, cond.right.column, lt, cond.left.column, cond.op.flipped()
    raise LookupError(
        f"join condition {lt}.{cond.left.column} {cond.op.value} "
        f"{rt}.{cond.right.column} does not connect the two subplans"
    )


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------


def _component_values(rs: ResultSet, table: str, column: str, frames) -> np.ndarray:
    if not rs.rows:
        return np.empty(0, dtype=np.int64)
    k = rs.tables.index(table)
    ordinals = np.fromiter((row[k] for row in rs.rows), dtype=np.int64, count=len(rs.rows))
    return frames[table].column_values(column)[ordinals]


def _exec(plan: QueryPlan, frames) -> ResultSet:
    if isinstance(plan, SelectLeaf):
        ordinals = np.flatnonzero(_mask(plan.predicate, frames[plan.table]))
        return ResultSet((plan.table,), [(o,) for o in ordinals.tolist()])
    left = _exec(plan.left, frames)
    right = _exec(plan.right, frames)
    lt, lc, rt, rc, op = _oriented(plan.condition, left.tables, right.tables)
    lv = _component_values(left, lt, lc, frames)
    rv = _component_values(right, rt, rc, frames)
    li, rj = np.nonzero(_NP_OPS[op](lv[:, None], rv[None, :]))
    rows = [left.rows[i] + right.rows[j] for i, j in zip(li.tolist(), rj.tolist())]
    return ResultSet(left.tables + right.tables, rows)


def execute_plan(db: Sequence[Table], plan: QueryPlan) -> ResultSet:
    """Run a plan: filter at the leaves, join at internal nodes, deterministic order."""
    return _exec(plan, _frames(db, plan))


# ---------------------------------------------------------------------------
# Counting engine
# ---------------------------------------------------------------------------


def _weight_below(sv: np.ndarray, cum: np.ndarray | None, pv: np.ndarray, side: str):
    """Per parent value x, the weight of child values < x (side "left") or <= x ("right")."""
    idx = np.searchsorted(sv, pv, side=side)
    return idx if cum is None else cum[idx]


def _sorted_matches(keys: np.ndarray, cv: np.ndarray, cw: np.ndarray | None, op: ComparisonOp):
    """Per parent value x of the sorted `keys`, the total weight of child rows y with x op y.

    `cw` None means every child row weighs 1, which needs no cumulative sum.
    Sorted keys make the binary searches several times faster than keys in
    row order.
    """
    if cw is None:
        sv, cum, total = np.sort(cv), None, cv.size
    else:
        order = np.argsort(cv)
        sv = cv[order]
        cum = np.concatenate((np.zeros(1, dtype=cw.dtype), np.cumsum(cw[order])))
        total = cum[-1]
    if op is ComparisonOp.LT:
        return total - _weight_below(sv, cum, keys, "right")
    if op is ComparisonOp.LE:
        return total - _weight_below(sv, cum, keys, "left")
    if op is ComparisonOp.GT:
        return _weight_below(sv, cum, keys, "left")
    if op is ComparisonOp.GE:
        return _weight_below(sv, cum, keys, "right")
    counts = _weight_below(sv, cum, keys, "right") - _weight_below(sv, cum, keys, "left")
    return total - counts if op is ComparisonOp.NE else counts


def _dense_matches(
    pv: np.ndarray, cv: np.ndarray, cw: np.ndarray | None, op: ComparisonOp, domain: Domain
):
    """Per parent value x, in row order, the total weight of child rows y with
    x op y, read from a table of one slot per value [lo, hi] of the child's
    `domain`.

    The table has two more slots, `span` and `span + 1`, both 0. For the
    inequalities the table becomes a running total in place, so slot i holds
    the child weight <= lo + i and slot `span` the total. Slot `span + 1`
    stays 0; a parent value below the span reads it as slot -1.
    """
    lo, hi = domain.lo, domain.hi
    span = domain.width
    if cw is None:
        table = np.bincount(cv - lo, minlength=span + 2)
    else:
        table = np.zeros(span + 2, dtype=cw.dtype)
        np.add.at(table, cv - lo, cw)
    if op is not ComparisonOp.EQ and op is not ComparisonOp.NE:
        np.cumsum(table[: span + 1], out=table[: span + 1])
    # Child weight < x for these two, <= x (or = x) for the others.
    strict = op is ComparisonOp.GT or op is ComparisonOp.LE
    # The clip bounds stay inside int64; where lo - 1 or hi + 1 does not,
    # no parent value lies beyond the span on that side.
    slot = np.clip(pv, lo if strict else max(lo - 1, _INT64_MIN), min(hi + 1, _INT64_MAX))
    slot -= lo
    if strict:
        slot -= 1
    counts = table[slot]
    if op in (ComparisonOp.EQ, ComparisonOp.GE, ComparisonOp.GT):
        return counts
    return (cv.size if cw is None else cw.sum()) - counts


def _dense(domain: Domain, pv: np.ndarray, cv: np.ndarray, op: ComparisonOp) -> bool:
    """Whether the child's value span is narrow enough for the dense form."""
    equality = op is ComparisonOp.EQ or op is ComparisonOp.NE
    per_row = _DENSE_SLOTS_PER_ROW_EQ if equality else _DENSE_SLOTS_PER_ROW
    return domain.width <= per_row * (pv.size + cv.size)


def _matches(
    pv: np.ndarray, cv: np.ndarray, cw: np.ndarray | None, op: ComparisonOp, domain: Domain
):
    """Per parent value x, in row order, the total weight of child rows y with
    x op y. Every child value lies in `domain`."""
    if _dense(domain, pv, cv, op):
        return _dense_matches(pv, cv, cw, op, domain)
    by_value = np.argsort(pv)
    counts = _sorted_matches(pv[by_value], cv, cw, op)
    out = np.empty_like(counts)
    out[by_value] = counts
    return out


def _match_total(
    pv: np.ndarray, cv: np.ndarray, cw: np.ndarray | None, op: ComparisonOp, domain: Domain, dtype
):
    """The total weight of all pairs of a parent value x and a child row y
    with x op y, summed in `dtype`. Row order does not matter, so the sorted
    form only sorts the parent values, never puts them back."""
    if _dense(domain, pv, cv, op):
        counts = _dense_matches(pv, cv, cw, op, domain)
    else:
        counts = _sorted_matches(np.sort(pv), cv, cw, op)
    return int(counts.sum(dtype=dtype))


class _Counter:
    """Counts plan results over one set of frames without building them.

    Masks are kept per plan node, so all the nodes of one plan share the
    evaluation of their leaves' predicates.
    """

    def __init__(self, frames: dict[str, Table]):
        self.frames = frames
        self._masks: dict[int, np.ndarray] = {}

    def _col(self, ref: ColumnRef) -> np.ndarray:
        return self.frames[ref.table].column_values(ref.column)

    def mask(self, node: QueryPlan) -> np.ndarray:
        """A leaf's predicate over its rows. For a join node over aligned
        frames: whether the i-th rows of its tables satisfy the subplan."""
        m = self._masks.get(id(node))
        if m is None:
            if isinstance(node, SelectLeaf):
                m = _mask(node.predicate, self.frames[node.table])
            else:
                cond = node.condition
                m = self.mask(node.left) & self.mask(node.right)
                m &= _NP_OPS[cond.op](self._col(cond.left), self._col(cond.right))
            self._masks[id(node)] = m
        return m

    def aligned_count(self, node: QueryPlan) -> int:
        """Aligned draws that satisfy the subplan; the frames must be sample tables."""
        return int(np.count_nonzero(self.mask(node)))

    def count(self, node: QueryPlan) -> int:
        """Cardinality of the subplan's result, by weighted counting up its join tree."""
        nodes = subplans(node)
        leaves = [n for n in nodes if isinstance(n, SelectLeaf)]
        sizes = [int(np.count_nonzero(self.mask(leaf))) for leaf in leaves]
        if len(leaves) == 1 or 0 in sizes:  # one leaf, or a leaf that keeps no rows
            return math.prod(sizes)
        dtype = np.int64 if math.prod(sizes) < 2**63 else object
        at = {leaf.table: k for k, leaf in enumerate(leaves)}
        # edges[k]: (neighbour, own column, neighbour's column, op as "own op neighbour")
        edges: list[list[tuple[int, str, str, ComparisonOp]]] = [[] for _ in leaves]
        for n in nodes:
            if isinstance(n, JoinNode):
                c = n.condition
                a, b = at[c.left.table], at[c.right.table]
                edges[a].append((b, c.left.column, c.right.column, c.op))
                edges[b].append((a, c.right.column, c.left.column, c.op.flipped()))
        # Rooted at the best-connected leaf, as many children as possible
        # are leaves of the tree, whose rows all weigh 1.
        root = max(range(len(leaves)), key=lambda k: len(edges[k]))
        parent = {root: None}
        order = [root]
        for k in order:
            for nb, col, nb_col, op in edges[k]:
                if nb not in parent:
                    parent[nb] = (k, col, nb_col, op)
                    order.append(nb)
        weights: list[np.ndarray | None] = [None] * len(leaves)
        for k in reversed(order[1:]):
            p, p_col, k_col, op = parent[k]
            pv, kv = self._values(leaves[p], p_col), self._values(leaves[k], k_col)
            span = self.frames[leaves[k].table].span(k_col)
            if len(leaves) == 2:
                # Any larger tree's root has two or more children; here the
                # root's one child gives the count as the sum of its matches.
                return _match_total(pv, kv, weights[k], op, span, dtype)
            counts = _matches(pv, kv, weights[k], op, span)
            weights[p] = counts.astype(dtype, copy=False) if weights[p] is None else weights[p] * counts
        return int(weights[root].sum())

    def _values(self, leaf: SelectLeaf, column: str) -> np.ndarray:
        return np.compress(self.mask(leaf), self.frames[leaf.table].column_values(column))


def _denominator(plan: QueryPlan, frames) -> int:
    denom = 1
    for t in leaf_tables(plan):
        n = frames[t].row_count
        if n == 0:
            raise ValueError(f"selectivity undefined: table {t!r} is empty")
        denom *= n
    return denom


def exact_cardinality(db: Sequence[Table], plan: QueryPlan) -> int:
    """Exact output cardinality of a plan."""
    return _Counter(_frames(db, plan)).count(plan)


def exact_selectivity(db: Sequence[Table], plan: QueryPlan) -> float:
    """Output cardinality divided by the product of the leaf tables' sizes."""
    frames = _frames(db, plan)
    return _Counter(frames).count(plan) / _denominator(plan, frames)


def estimate_indexed(sampledb: SampleDatabase, plan: QueryPlan) -> float:
    """Index-aligned estimate: aligned draws satisfying the plan divided by the sample size."""
    return _Counter(_frames(sampledb.tables, plan)).aligned_count(plan) / sampledb.size


def estimate_all_nodes(
    sampledb: SampleDatabase, plan: QueryPlan, db: Sequence[Table] | None = None
) -> list[EstimateRecord]:
    """Estimates for every subplan, in post-order.

    The subplans share their leaves' predicate masks and the aligned masks of
    their children. When `db` is given, each record also carries the exact
    selectivity computed against it.
    """
    sample = _Counter(_frames(sampledb.tables, plan))
    exact = None if db is None else _Counter(_frames(db, plan))
    s = sampledb.size
    records = []
    for i, node in enumerate(subplans(plan)):
        rec = EstimateRecord(
            node=i,
            kind="select" if isinstance(node, SelectLeaf) else "join",
            est_indexed=sample.aligned_count(node) / s,
            est_practitioner=sample.count(node) / s ** len(leaf_tables(node)),
            s=s,
            seed=sampledb.seed,
        )
        if exact is not None:
            rec.exact = exact.count(node) / _denominator(node, exact.frames)
        records.append(rec)
    return records
