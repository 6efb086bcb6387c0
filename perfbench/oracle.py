"""The benchmark's own query representation and the counts it checks the program against.

Nothing here calls the program: predicates are evaluated with numpy from
this module's own query form, join pairs are counted by sort +
searchsorted, equality chains from per-key value counts, and the
index-aligned estimate from the rows that share a sampleindex.

A predicate is a nested tuple: ("clause", column, op, constant),
("and", left, right) or ("or", left, right). Columns are 0-based indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPS = ("<", ">", "<=", ">=", "=", "<>")
_NP = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "=": np.equal,
    "<>": np.not_equal,
}


@dataclass(frozen=True)
class Join:
    """Join condition left_table.C<left_col+1> op right_table.C<right_col+1>."""

    left: str
    left_col: int
    op: str
    right: str
    right_col: int


@dataclass(frozen=True)
class Query:
    """Tables in FROM order, a predicate (or None) per table, and a chain of joins.

    Joins are listed in plan order: the first connects tables[0] and
    tables[1], each later one connects one new table to the plan so far.
    """

    tables: tuple[str, ...]
    predicates: tuple  # one predicate or None per table, in `tables` order
    joins: tuple[Join, ...] = ()

    def predicate(self, table: str):
        return self.predicates[self.tables.index(table)]

    @property
    def clause_params(self) -> tuple[int, int, int]:
        """(u, m, b) of the query class, counted from this representation."""
        m = b = 0
        for p in self.predicates:
            if p is not None:
                cols = set()
                b = max(b, _clauses(p, cols))
                m = max(m, len(cols))
        return len(self.tables), m, b


def _clauses(pred, cols: set) -> int:
    if pred[0] == "clause":
        cols.add(pred[1])
        return 1
    return _clauses(pred[1], cols) + _clauses(pred[2], cols)


def pred_sql(pred, table: str) -> str:
    if pred[0] == "clause":
        return f"{table}.C{pred[1] + 1} {pred[2]} {pred[3]}"
    word = "AND" if pred[0] == "and" else "OR"
    return f"({pred_sql(pred[1], table)} {word} {pred_sql(pred[2], table)})"


def to_sql(q: Query) -> str:
    terms = [f"{j.left}.C{j.left_col + 1} {j.op} {j.right}.C{j.right_col + 1}" for j in q.joins]
    terms += [f"({pred_sql(p, t)})" for t, p in zip(q.tables, q.predicates) if p is not None]
    sql = "SELECT * FROM " + ", ".join(q.tables)
    return sql + (" WHERE " + " AND ".join(terms) if terms else "")


def mask(pred, matrix: np.ndarray) -> np.ndarray:
    """Rows of `matrix` (n x k int64) that satisfy the predicate."""
    if pred is None:
        return np.ones(matrix.shape[0], dtype=bool)
    if pred[0] == "clause":
        return _NP[pred[2]](matrix[:, pred[1]], pred[3])
    if pred[0] == "and":
        return mask(pred[1], matrix) & mask(pred[2], matrix)
    return mask(pred[1], matrix) | mask(pred[2], matrix)


def pair_count(a: np.ndarray, b: np.ndarray, op: str) -> int:
    """Number of pairs (x, y) in a x b with x op y, by sort + searchsorted."""
    sa = np.sort(a)
    left = np.searchsorted(sa, b, side="left")  # elements of a below y
    right = np.searchsorted(sa, b, side="right")  # elements of a at most y
    if op == "<":
        return int(left.sum())
    if op == "<=":
        return int(right.sum())
    if op == ">":
        return int((a.size - right).sum())
    if op == ">=":
        return int((a.size - left).sum())
    eq = int((right - left).sum())
    return eq if op == "=" else a.size * b.size - eq


def _key_counts(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For every key, how many entries of `values` equal it."""
    uniq, counts = np.unique(values, return_counts=True)
    if uniq.size == 0:
        return np.zeros(keys.size, dtype=np.int64)
    pos = np.minimum(np.searchsorted(uniq, keys), uniq.size - 1)
    return np.where(uniq[pos] == keys, counts[pos], 0).astype(np.int64)


def chain_count(q: Query, matrices: dict[str, np.ndarray]) -> int:
    """Result size of a 3-table equality chain whose middle table is in both joins."""
    j1, j2 = q.joins
    middle = ({j1.left, j1.right} & {j2.left, j2.right}).pop()
    total = None
    for j in (j1, j2):
        if j.op != "=":
            raise ValueError("chain_count handles equality joins only")
        other, other_col, mid_col = (
            (j.right, j.right_col, j.left_col) if j.left == middle else (j.left, j.left_col, j.right_col)
        )
        om = matrices[other]
        other_vals = om[mask(q.predicate(other), om), other_col]
        mm = matrices[middle]
        counts = _key_counts(other_vals, mm[:, mid_col])
        total = counts if total is None else total * counts
    keep = mask(q.predicate(middle), matrices[middle])
    return int(total[keep].sum())


def result_count(q: Query, matrices: dict[str, np.ndarray]) -> int:
    """Size of the full query result over the given tables."""
    if not q.joins:
        (t,) = q.tables
        return int(np.count_nonzero(mask(q.predicate(t), matrices[t])))
    if len(q.joins) == 1:
        j = q.joins[0]
        lm, rm = matrices[j.left], matrices[j.right]
        lv = lm[mask(q.predicate(j.left), lm), j.left_col]
        rv = rm[mask(q.predicate(j.right), rm), j.right_col]
        # pair_count counts (x in first, y in second) with x op y.
        return pair_count(lv, rv, j.op)
    return chain_count(q, matrices)


def aligned_count(q: Query, aligned: dict[str, np.ndarray]) -> int:
    """Sampleindex positions whose draws satisfy the query.

    `aligned[t]` holds table t's sample rows ordered by sampleindex, so row i
    of every table is the i-th draw.
    """
    ok = np.ones(next(iter(aligned.values())).shape[0], dtype=bool)
    for t, p in zip(q.tables, q.predicates):
        if p is not None:
            ok &= mask(p, aligned[t])
    for j in q.joins:
        ok &= _NP[j.op](aligned[j.left][:, j.left_col], aligned[j.right][:, j.right_col])
    return int(np.count_nonzero(ok))


def prefix(q: Query, k: int) -> Query:
    """The sub-query over the first k tables joined, as a left-deep plan builds it."""
    return Query(q.tables[:k], q.predicates[:k], q.joins[: k - 1])


def leaf(q: Query, t: str) -> Query:
    return Query((t,), (q.predicate(t),))


def node_queries(q: Query) -> list[Query]:
    """Sub-queries in the post-order of a left-deep plan: l1, l2, j12, l3, j123, ..."""
    out = [leaf(q, q.tables[0])]
    for k in range(1, len(q.tables)):
        out.append(leaf(q, q.tables[k]))
        out.append(prefix(q, k + 1))
    return out
