"""In-memory integer tables: domains, CSV I/O, and synthetic generators.

Tables are immutable after construction and safe to share across threads.
All values are 64-bit signed integers; categorical data is representable by
fixing an arbitrary order on the categories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Domain",
    "ColumnMeta",
    "Table",
    "TupleRef",
    "CsvFormatError",
    "load_csv",
    "read_csv",
    "save_csv",
    "generate_uniform_table",
    "generate_correlated_table",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")
# Integers of at most 18 digits always fit in int64; longer ones are range-checked.
_SHORT_INT_RE = re.compile(r"-?\d{1,18}")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class CsvFormatError(ValueError):
    """Malformed CSV input; the message names the offending row/column."""


@dataclass(frozen=True)
class Domain:
    """Inclusive integer interval of admissible column values."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if not _INT64_MIN <= bound <= _INT64_MAX:
                raise ValueError(f"domain bound {bound} outside the 64-bit integer range")
        if self.lo > self.hi:
            raise ValueError(f"empty domain: [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class ColumnMeta:
    """A named column together with its value domain."""

    name: str
    domain: Domain

    def __post_init__(self) -> None:
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class TupleRef:
    """Reference to one row of a named table by 0-based ordinal."""

    table: str
    ordinal: int


class Table:
    """An immutable table of integer rows over named, domain-checked columns."""

    def __init__(self, name: str, columns: Sequence[ColumnMeta], rows: Iterable[Sequence[int]]):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid table name: {name!r}")
        columns = tuple(columns)
        if not columns:
            raise ValueError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = columns
        self.rows: list[tuple[int, ...]] = [tuple(int(v) for v in row) for row in rows]
        self._col_index = {c.name: i for i, c in enumerate(columns)}
        self._matrix: np.ndarray | None = None
        self._validate()

    def _validate(self) -> None:
        k = len(self.columns)
        for rno, row in enumerate(self.rows):
            if len(row) != k:
                raise ValueError(f"row {rno + 1} has {len(row)} values, expected {k}")
        if not self.rows:
            return
        m = self.matrix()
        for j, col in enumerate(self.columns):
            vals = m[:, j]
            bad = np.flatnonzero((vals < col.domain.lo) | (vals > col.domain.hi))
            if bad.size:
                r = int(bad[0])
                raise ValueError(
                    f"row {r + 1}, column {col.name}: value {int(vals[r])} outside "
                    f"domain [{col.domain.lo}, {col.domain.hi}]"
                )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise LookupError(f"table {self.name!r} has no column {name!r}") from None

    def column(self, name: str) -> ColumnMeta:
        return self.columns[self.column_index(name)]

    def matrix(self) -> np.ndarray:
        """Row-major int64 view of the data, cached after the first call."""
        if self._matrix is None:
            if self.rows:
                self._matrix = np.array(self.rows, dtype=np.int64)
            else:
                self._matrix = np.empty((0, len(self.columns)), dtype=np.int64)
        return self._matrix

    def column_values(self, name: str) -> np.ndarray:
        return self.matrix()[:, self.column_index(name)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        cols = ",".join(self.column_names)
        return f"Table({self.name!r}, columns=[{cols}], rows={self.row_count})"


def load_csv(path: str | Path, schema: Sequence[ColumnMeta], name: str | None = None) -> Table:
    """Load a CSV file against a declared schema.

    The first line must be the comma-separated schema column names; every cell
    must parse as an integer inside its column's domain. Errors carry the
    1-based data row number and the column name.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such CSV file: {p}")
    lines = p.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"{p}: empty file, missing header row")
    schema = tuple(schema)
    expected = ",".join(c.name for c in schema)
    if lines[0] != expected:
        raise CsvFormatError(f"{p}: header mismatch: expected {expected!r}, got {lines[0]!r}")
    rows = []
    for rno, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(schema):
            raise CsvFormatError(f"{p}: row {rno}: {len(cells)} cells, expected {len(schema)}")
        row = []
        for col, cell in zip(schema, cells):
            if not _INT_RE.fullmatch(cell):
                raise CsvFormatError(f"{p}: row {rno}, column {col.name}: not an integer: {cell!r}")
            v = int(cell)
            if v not in col.domain:
                raise CsvFormatError(
                    f"{p}: row {rno}, column {col.name}: value {v} outside "
                    f"domain [{col.domain.lo}, {col.domain.hi}]"
                )
            row.append(v)
        rows.append(tuple(row))
    return Table(name or p.stem, schema, rows)


def read_csv(path: str | Path, domain: Domain | None = None, name: str | None = None) -> Table:
    """Load a CSV file without a declared schema.

    Column names come from the header; domains are either the one supplied
    (applied to every column) or inferred as each column's [min, max].
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such CSV file: {p}")
    lines = p.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"{p}: empty file, missing header row")
    header = lines[0].split(",")
    for col_name in header:
        if not _IDENT_RE.fullmatch(col_name):
            raise CsvFormatError(f"{p}: invalid column name in header: {col_name!r}")
    rows = []
    for rno, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvFormatError(f"{p}: row {rno}: {len(cells)} cells, expected {len(header)}")
        for col_name, cell in zip(header, cells):
            if _SHORT_INT_RE.fullmatch(cell):
                continue
            if not _INT_RE.fullmatch(cell):
                raise CsvFormatError(f"{p}: row {rno}, column {col_name}: not an integer: {cell!r}")
            if not _INT64_MIN <= int(cell) <= _INT64_MAX:
                raise CsvFormatError(
                    f"{p}: row {rno}, column {col_name}: value {cell} outside the 64-bit integer range"
                )
        rows.append(tuple(int(c) for c in cells))
    if domain is not None:
        schema = tuple(ColumnMeta(n, domain) for n in header)
    elif rows:
        data = np.array(rows, dtype=np.int64)
        schema = tuple(
            ColumnMeta(n, Domain(int(data[:, j].min()), int(data[:, j].max())))
            for j, n in enumerate(header)
        )
    else:
        raise CsvFormatError(f"{p}: cannot infer domains of an empty table; supply a domain")
    return Table(name or p.stem, schema, rows)


def save_csv(table: Table, path: str | Path) -> None:
    """Write a table in the load_csv format: header line, integer cells, LF newlines."""
    lines = [",".join(table.column_names)]
    lines.extend(",".join(str(v) for v in row) for row in table.rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def generate_uniform_table(
    name: str, n: int, num_columns: int, domain: Domain, seed: int
) -> Table:
    """Generate a table whose cells are i.i.d. uniform draws from the domain."""
    if n < 0:
        raise ValueError("row count must be non-negative")
    if num_columns < 1:
        raise ValueError("need at least one column")
    rng = np.random.default_rng(seed)
    data = rng.integers(domain.lo, domain.hi + 1, size=(n, num_columns), dtype=np.int64)
    columns = [ColumnMeta(f"C{i + 1}", domain) for i in range(num_columns)]
    return Table(name, columns, data.tolist())


def generate_correlated_table(
    name: str,
    n: int,
    mu: float,
    covariance: Sequence[Sequence[float]],
    domain: Domain,
    seed: int,
) -> Table:
    """Generate a 2-column table from a bivariate normal with mean (mu, mu).

    Draws are rounded to the nearest integer and clamped into the domain, so
    the domain invariant holds even for a covariance wide enough to spill.
    """
    if n < 0:
        raise ValueError("row count must be non-negative")
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
        raise ValueError("covariance must be a symmetric 2x2 matrix")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive-definite") from None
    rng = np.random.default_rng(seed)
    pts = rng.multivariate_normal([mu, mu], cov, size=n, method="cholesky")
    data = np.clip(np.rint(pts), domain.lo, domain.hi).astype(np.int64)
    columns = [ColumnMeta("C1", domain), ColumnMeta("C2", domain)]
    return Table(name, columns, data.tolist())
