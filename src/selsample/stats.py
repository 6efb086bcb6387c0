"""Optimizer-style column statistics: most-common values plus equi-depth histograms.

Per column, the top-N values by frequency go into an MCV list and an
equi-depth histogram is built over the remaining values only, so MCV mass and
histogram mass partition the column's total frequency. Predicate estimation
combines clause estimates under the attribute-independence assumption:
selectivities multiply across AND and add (clamped) across OR.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .queries import (
    And,
    BoolExpr,
    ComparisonOp,
    QueryPlan,
    SelectLeaf,
    SelectionClause,
    subplans,
)
from .tables import Table

__all__ = [
    "MCVList",
    "EquiDepthHistogram",
    "ColumnStats",
    "StatsCatalog",
    "MissingStatsError",
    "build_stats",
    "estimate_clause",
    "estimate_predicate",
    "estimate_join",
    "dump_stats",
]

INEQUALITY_JOIN_SELECTIVITY = 1.0 / 3.0  # conventional optimizer default
MAX_BUCKETS = 10_000  # PostgreSQL's largest statistics target


class MissingStatsError(LookupError):
    """No statistics were built for a referenced (table, column)."""


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class MCVList:
    """Most common values with their frequencies, sorted by descending frequency.

    Ties are broken toward the smaller value. Frequencies are fractions of the
    whole table, so the list total plus the histogram total is 1.
    """

    entries: tuple[tuple[int, float], ...]

    @property
    def total(self) -> float:
        return sum(f for _, f in self.entries)

    def frequency(self, value: int) -> float | None:
        for v, f in self.entries:
            if v == value:
                return f
        return None

    def mass_le(self, x: int) -> float:
        return sum(f for v, f in self.entries if v <= x)


@dataclass(frozen=True)
class EquiDepthHistogram:
    """Equal-frequency buckets over the non-MCV values of one column.

    B buckets are described by B+1 non-decreasing boundaries; each bucket
    holds bucket_fraction of the table's rows. Bucket k spans the values
    [boundaries[k], boundaries[k+1]), except the last, which is inclusive.
    An empty boundary tuple means no non-MCV mass at all.
    """

    boundaries: tuple[int, ...]
    bucket_fraction: float
    total_fraction: float

    @property
    def n_buckets(self) -> int:
        return max(0, len(self.boundaries) - 1)

    def mass_le(self, x: int) -> float:
        """Estimated fraction of rows with value <= x, interpolating inside a bucket."""
        nb = self.n_buckets
        if nb == 0:
            return 0.0
        mass = 0.0
        b = self.boundaries
        for k in range(nb):
            lo, hi = b[k], b[k + 1]
            if x < lo:
                break
            last = k == nb - 1
            top = hi if last else hi - 1  # largest value charged to this bucket
            if x >= top:
                mass += self.bucket_fraction
                continue
            span = (hi - lo + 1) if last else (hi - lo)
            mass += self.bucket_fraction * ((x - lo + 1) / span)
            break
        return mass


@dataclass(frozen=True)
class ColumnStats:
    mcv: MCVList
    histogram: EquiDepthHistogram
    n_distinct: int
    n_distinct_non_mcv: int


class StatsCatalog:
    """Statistics for a set of (table, column) pairs."""

    def __init__(self, buckets: int = 100, mcv_capacity: int = 100):
        if not 1 <= buckets <= MAX_BUCKETS:
            raise ValueError(f"histogram buckets must be between 1 and {MAX_BUCKETS}, got {buckets}")
        if mcv_capacity < 0:
            raise ValueError("MCV capacity must be non-negative")
        self.buckets = buckets
        self.mcv_capacity = mcv_capacity
        self.entries: dict[tuple[str, str], ColumnStats] = {}

    def add(self, table: str, column: str, stats: ColumnStats) -> None:
        self.entries[(table, column)] = stats

    def get(self, table: str, column: str) -> ColumnStats:
        try:
            return self.entries[(table, column)]
        except KeyError:
            raise MissingStatsError(f"no statistics for {table}.{column}") from None

    def update(self, other: "StatsCatalog") -> None:
        self.entries.update(other.entries)


def build_stats(table: Table, buckets: int = 100, mcv: int = 100) -> StatsCatalog:
    """Build MCV lists and equi-depth histograms for every column of a table.

    Statistics are computed from the full table, not a sub-sample, which keeps
    them deterministic.
    """
    if table.row_count == 0:
        raise ValueError(f"cannot build statistics for empty table {table.name!r}")
    catalog = StatsCatalog(buckets, mcv)
    n = table.row_count
    for col in table.columns:
        values = table.column_values(col.name)
        distinct, counts = np.unique(values, return_counts=True)
        # By descending count; the stable sort keeps ties in ascending value order.
        top = np.argsort(-counts, kind="stable")[:mcv]
        mcv_entries = tuple((v, c / n) for v, c in zip(distinct[top].tolist(), counts[top].tolist()))
        rest_mask = np.ones(distinct.size, dtype=bool)
        rest_mask[top] = False
        rest = np.repeat(distinct[rest_mask], counts[rest_mask])
        total_rest = rest.size / n
        if rest.size:
            at = np.minimum(rest.size - 1, np.arange(buckets + 1) * rest.size // buckets)
            hist = EquiDepthHistogram(tuple(rest[at].tolist()), total_rest / buckets, total_rest)
        else:
            hist = EquiDepthHistogram((), 0.0, 0.0)
        catalog.add(
            table.name,
            col.name,
            ColumnStats(
                mcv=MCVList(mcv_entries),
                histogram=hist,
                n_distinct=distinct.size,
                n_distinct_non_mcv=distinct.size - len(mcv_entries),
            ),
        )
    return catalog


def _estimate_eq(stats: ColumnStats, x: int) -> float:
    f = stats.mcv.frequency(x)
    if f is not None:
        return f
    h = stats.histogram
    if h.n_buckets == 0 or stats.n_distinct_non_mcv <= 0:
        return 0.0
    if x < h.boundaries[0] or x > h.boundaries[-1]:
        return 0.0
    # Intra-bucket uniformity: every non-MCV distinct value is equally likely.
    return h.total_fraction / stats.n_distinct_non_mcv


def estimate_clause(stats: ColumnStats, clause: SelectionClause) -> float:
    """Estimate one clause from MCV frequencies plus interpolated histogram mass."""
    x = clause.constant
    op = clause.op
    if op is ComparisonOp.EQ:
        sel = _estimate_eq(stats, x)
    elif op is ComparisonOp.NE:
        sel = 1.0 - _estimate_eq(stats, x)
    else:
        # Values are integers, so "< x" is "<= x - 1", and ">= x" is its complement.
        t = x if op is ComparisonOp.LE or op is ComparisonOp.GT else x - 1
        mcv, hist = stats.mcv.mass_le(t), stats.histogram.mass_le(t)
        if op is ComparisonOp.LE or op is ComparisonOp.LT:
            sel = mcv + hist
        else:
            sel = (stats.mcv.total - mcv) + (stats.histogram.total_fraction - hist)
    return _clamp(sel)


def estimate_predicate(catalog: StatsCatalog, table: str, expr: BoolExpr) -> float:
    """Combine clause estimates: product across AND, clamped sum across OR."""
    if isinstance(expr, SelectionClause):
        return estimate_clause(catalog.get(table, expr.column), expr)
    left = estimate_predicate(catalog, table, expr.left)
    right = estimate_predicate(catalog, table, expr.right)
    if isinstance(expr, And):
        return left * right
    return _clamp(left + right)


def estimate_join(catalog: StatsCatalog, plan: QueryPlan) -> float:
    """Estimate a whole plan under independence.

    Leaf predicates contribute their estimate_predicate value; each equality
    join condition contributes 1/max(n_distinct of the two columns) and every
    other join operator the fixed default factor.
    """
    sel = 1.0
    for node in subplans(plan):
        if isinstance(node, SelectLeaf):
            if node.predicate is not None:
                sel *= estimate_predicate(catalog, node.table, node.predicate)
        else:
            cond = node.condition
            if cond.op is ComparisonOp.EQ:
                nd_left = catalog.get(cond.left.table, cond.left.column).n_distinct
                nd_right = catalog.get(cond.right.table, cond.right.column).n_distinct
                sel *= 1.0 / max(nd_left, nd_right)
            else:
                sel *= INEQUALITY_JOIN_SELECTIVITY
    return _clamp(sel)


# ---------------------------------------------------------------------------
# Plain-text catalog dump, one line per MCV entry and per bucket boundary
# ---------------------------------------------------------------------------


def dump_stats(catalog: StatsCatalog, path: str | Path) -> None:
    lines = [f"catalog buckets={catalog.buckets} mcv_capacity={catalog.mcv_capacity}"]
    for (table, column) in sorted(catalog.entries):
        st = catalog.entries[(table, column)]
        lines.append(
            f"column table={table} name={column} n_distinct={st.n_distinct} "
            f"n_distinct_non_mcv={st.n_distinct_non_mcv} "
            f"total_non_mcv={st.histogram.total_fraction!r} "
            f"bucket_fraction={st.histogram.bucket_fraction!r}"
        )
        for v, f in st.mcv.entries:
            lines.append(f"mcv {v} {f!r}")
        for b in st.histogram.boundaries:
            lines.append(f"boundary {b}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
