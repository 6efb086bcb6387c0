"""Shared helpers: random small instances and brute-force oracles.

The oracles here deliberately avoid the library's execution paths: plans are
checked row combination by row combination with plain Python comparisons, so
they stay independent of what they verify.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from selsample.queries import (
    And,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    Or,
    QueryPlan,
    SelectLeaf,
    SelectionClause,
    leaf_tables,
    subplans,
)
from selsample.sampling import SampleDatabase
from selsample.tables import ColumnMeta, Domain, Table

ALL_OPS = (
    ComparisonOp.LT,
    ComparisonOp.GT,
    ComparisonOp.LE,
    ComparisonOp.GE,
    ComparisonOp.EQ,
    ComparisonOp.NE,
)


# The comparison each operator stands for, written out here so that the
# oracles share no predicate logic with the program.
OP_FUNCS = {
    ComparisonOp.LT: operator.lt,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GE: operator.ge,
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
}


def make_table(name: str, rows, domain=(0, 5), num_columns: int = 2) -> Table:
    cols = [ColumnMeta(f"C{j + 1}", Domain(*domain)) for j in range(num_columns)]
    return Table(name, cols, rows)


def random_small_tables(rng: np.random.Generator, k: int, max_rows: int) -> list[Table]:
    tables = []
    for ti in range(k):
        n = int(rng.integers(1, max_rows + 1))
        rows = rng.integers(0, 6, size=(n, 2)).tolist()
        tables.append(make_table(f"T{ti}", rows))
    return tables


def random_predicate(rng: np.random.Generator, table: Table, max_clauses: int = 3):
    b = int(rng.integers(0, max_clauses + 1))
    expr = None
    for _ in range(b):
        col = table.columns[int(rng.integers(0, len(table.columns)))]
        op = ALL_OPS[int(rng.integers(0, len(ALL_OPS)))]
        clause = SelectionClause(col.name, op, int(rng.integers(0, 6)))
        if expr is None:
            expr = clause
        elif int(rng.integers(0, 2)) == 0:
            expr = And(expr, clause)
        else:
            expr = Or(expr, clause)
    return expr


def random_plan(rng: np.random.Generator, tables: list[Table], u: int) -> QueryPlan:
    """Left-deep plan over the first u tables with random predicates and join ops."""
    plan: QueryPlan = SelectLeaf(tables[0].name, random_predicate(rng, tables[0]))
    joined = [tables[0].name]
    for i in range(1, u):
        new = tables[i]
        anchor = joined[int(rng.integers(0, len(joined)))]
        cond = JoinCondition(
            ColumnRef(anchor, f"C{int(rng.integers(1, 3))}"),
            ColumnRef(new.name, f"C{int(rng.integers(1, 3))}"),
            ALL_OPS[int(rng.integers(0, len(ALL_OPS)))],
        )
        plan = JoinNode(plan, SelectLeaf(new.name, random_predicate(rng, new)), cond)
        joined.append(new.name)
    return plan


def _satisfies(expr, row: tuple[int, ...], columns: tuple[str, ...]) -> bool:
    """Whether one row satisfies a predicate, clause by clause."""
    if isinstance(expr, SelectionClause):
        return OP_FUNCS[expr.op](row[columns.index(expr.column)], expr.constant)
    if isinstance(expr, And):
        return _satisfies(expr.left, row, columns) and _satisfies(expr.right, row, columns)
    return _satisfies(expr.left, row, columns) or _satisfies(expr.right, row, columns)


def _combo_satisfies(plan: QueryPlan, rows_by_table: dict[str, tuple[int, ...]],
                     columns_by_table: dict[str, tuple[str, ...]]) -> bool:
    for node in subplans(plan):
        if isinstance(node, SelectLeaf):
            if node.predicate is not None and not _satisfies(
                node.predicate, rows_by_table[node.table], columns_by_table[node.table]
            ):
                return False
        else:
            cond = node.condition
            lrow = rows_by_table[cond.left.table]
            rrow = rows_by_table[cond.right.table]
            lval = lrow[columns_by_table[cond.left.table].index(cond.left.column)]
            rval = rrow[columns_by_table[cond.right.table].index(cond.right.column)]
            if not OP_FUNCS[cond.op](lval, rval):
                return False
    return True


def brute_force_result(tables: list[Table], plan: QueryPlan) -> set[tuple[int, ...]]:
    """All ordinal combinations of the full Cartesian product that satisfy the plan."""
    by_name = {t.name: t for t in tables}
    order = leaf_tables(plan)
    columns = {t.name: t.column_names for t in tables}
    table_rows = {name: by_name[name].rows for name in order}
    out = set()
    for combo in itertools.product(*(range(len(table_rows[name])) for name in order)):
        rows = {name: table_rows[name][o] for name, o in zip(order, combo)}
        if _combo_satisfies(plan, rows, columns):
            out.add(combo)
    return out


def brute_force_selectivity(tables: list[Table], plan: QueryPlan) -> float:
    denom = 1
    by_name = {t.name: t for t in tables}
    for name in leaf_tables(plan):
        denom *= by_name[name].row_count
    return len(brute_force_result(tables, plan)) / denom


def aligned_oracle_selectivity(sampledb: SampleDatabase, plan: QueryPlan) -> float:
    """Plan selectivity over the aligned-tuple database: the rows sharing each
    sampleindex are treated as one sample of the Cartesian product."""
    columns = {st.name: st.column_names for st in sampledb.tables}
    rows = {st.name: st.rows for st in sampledb.tables}
    count = 0
    for i in range(sampledb.size):
        if _combo_satisfies(plan, {name: r[i] for name, r in rows.items()}, columns):
            count += 1
    return count / sampledb.size
