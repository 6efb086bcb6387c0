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
from .tables import Table, write_file

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

    Each column costs one sort and linear passes over the sorted values. The
    sort is of offsets from the column's minimum, in 32 bits when the span
    fits. The runs of equal values give the distinct values and their counts.
    The MCV cut comes from a histogram of the counts: counting down from the
    top of ``np.bincount(counts)`` finds the k-th largest count c, where k is
    the MCV capacity or the distinct count if that is smaller. Every value
    counted more than c is taken, then the smallest values counted exactly c,
    up to k in all, ordered by (-count, value). That is the first k of a
    stable argsort of -counts. The histogram boundaries are read from the
    sorted column at ranks that skip the MCV runs, so the non-MCV rows are
    never copied out.

    Measured on a 2-core VM (Python 3.11.7, numpy 2.4.6), for a 1e5 x 2
    uniform table over [0, 200000]: 2.0-2.8 ms a call, against 11-13 ms for
    the ``np.unique`` form this replaced. Per column, the 32-bit sort takes
    0.46 ms against 0.9 ms for the int64 values. Forms to avoid, per such
    column: ``np.unique`` (1.8-2.2 ms), a stable argsort of every distinct
    value's count (2.6 ms), ``np.partition`` of counts that mostly tie
    (3.1 ms for ``np.partition(counts, d - k)``, against 0.25 ms for the
    bincount), and ``np.repeat`` of the non-MCV rows (0.9 ms). The counts
    are one subtraction into one array, not ``np.diff(append=)``, which
    allocates two: fresh pages fault on first touch, and with the extra array
    a call read 6.5 ms, not 3.8 ms, before the 32-bit sort.
    """
    if table.row_count == 0:
        raise ValueError(f"cannot build statistics for empty table {table.name!r}")
    catalog = StatsCatalog(buckets, mcv)
    n = table.row_count
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    for col in table.columns:
        # Offsets from the minimum: under 2**32 they fit 32 bits, which sort
        # in half the time; otherwise the wrapping int64 difference, read as
        # uint64, is still the exact offset.
        span = table.span(col.name)
        lo = span.lo
        ordered = np.empty(n, dtype=np.uint32 if span.width <= 2**32 else np.uint64)
        np.subtract(table.column_values(col.name), lo, out=ordered, casting="unsafe")
        ordered.sort()
        np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        counts = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = n - starts[-1]
        k = min(mcv, starts.size)
        # by_count[j] is the number of distinct values counted at least c - j,
        # where c is the largest count.
        by_count = np.cumsum(np.bincount(counts)[::-1])
        cut = by_count.size - 1 - int(np.searchsorted(by_count, k))  # the k-th largest count
        above = np.flatnonzero(counts > cut)
        tied = np.flatnonzero(counts == cut)[: k - above.size]
        top = np.concatenate((above[np.argsort(-counts[above], kind="stable")], tied))
        top_counts = counts[top].tolist()
        mcv_entries = tuple((lo + v, c / n) for v, c in zip(ordered[starts[top]].tolist(), top_counts))
        n_rest = n - sum(top_counts)
        total_rest = n_rest / n
        if n_rest:
            # A non-MCV rank r sits at r plus the lengths of the MCV runs
            # before it; run i is preceded by rest_before[i] non-MCV rows.
            runs = np.sort(top)
            skipped = np.concatenate(([0], np.cumsum(counts[runs])))
            rest_before = starts[runs] - skipped[:-1]
            at = np.minimum(n_rest - 1, np.arange(buckets + 1) * n_rest // buckets)
            at += skipped[np.searchsorted(rest_before, at, side="right")]
            bounds = tuple(lo + v for v in ordered[at].tolist())
            hist = EquiDepthHistogram(bounds, total_rest / buckets, total_rest)
        else:
            hist = EquiDepthHistogram((), 0.0, 0.0)
        catalog.add(
            table.name,
            col.name,
            ColumnStats(
                mcv=MCVList(mcv_entries),
                histogram=hist,
                n_distinct=starts.size,
                n_distinct_non_mcv=starts.size - k,
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
    write_file(path, ("\n".join(lines) + "\n").encode())
