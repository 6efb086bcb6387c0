"""In-memory integer tables: domains, CSV I/O, and synthetic generators.

Tables are immutable after construction and safe to share across threads.
All values are 64-bit signed integers; categorical data is representable by
fixing an arbitrary order on the categories.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Domain",
    "ColumnMeta",
    "Table",
    "CsvFormatError",
    "int_matrix",
    "read_int_csv",
    "write_int_csv",
    "spanning_schema",
    "load_csv",
    "read_csv",
    "save_csv",
    "generate_uniform_table",
    "generate_correlated_table",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")
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


class Table:
    """An immutable table of integer rows over named, domain-checked columns.

    The rows live in one read-only, column-major int64 matrix, so each column
    is contiguous. `rows` may be any (n, k) array (it is copied, so the
    caller's array stays its own) or any iterable of rows.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnMeta],
        rows: np.ndarray | Iterable[Sequence[int]],
    ):
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
        self._col_index = {c.name: i for i, c in enumerate(columns)}
        self._matrix = int_matrix(rows, len(columns))
        # The first bad cell in column-major order.
        bad = np.flatnonzero(_outside(self._matrix, [c.domain for c in columns]).T)
        if bad.size:
            j, r = divmod(int(bad[0]), self.row_count)
            d = columns[j].domain
            raise ValueError(
                f"row {r + 1}, column {columns[j].name}: value {int(self._matrix[r, j])} "
                f"outside domain [{d.lo}, {d.hi}]"
            )

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The rows as tuples, rebuilt from the matrix on every access."""
        return list(map(tuple, self._matrix.tolist()))

    @property
    def row_count(self) -> int:
        return self._matrix.shape[0]

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
        """The read-only column-major int64 matrix of the data."""
        return self._matrix

    def column_values(self, name: str) -> np.ndarray:
        return self._matrix[:, self.column_index(name)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and np.array_equal(self._matrix, other._matrix)
        )

    def __repr__(self) -> str:
        cols = ",".join(self.column_names)
        return f"Table({self.name!r}, columns=[{cols}], rows={self.row_count})"


def int_matrix(rows: np.ndarray | Iterable[Sequence[int]], k: int) -> np.ndarray:
    """A new read-only, column-major (n, k) int64 matrix holding `rows`: an
    array or an iterable of rows."""
    if isinstance(rows, np.ndarray):
        m = np.array(rows, dtype=np.int64, order="F")
        if m.ndim != 2 or m.shape[1] != k:
            raise ValueError(f"rows of shape {m.shape}, expected (n, {k})")
    else:
        rows = [tuple(int(v) for v in row) for row in rows]
        for rno, row in enumerate(rows, start=1):
            if len(row) != k:
                raise ValueError(f"row {rno} has {len(row)} values, expected {k}")
        m = np.array(rows, dtype=np.int64, order="F").reshape(len(rows), k)
    m.flags.writeable = False
    return m


def read_int_csv(
    path: str | Path, columns: Sequence[str] | None = None, domains: Sequence[Domain] | None = None
) -> tuple[list[str], np.ndarray]:
    """Read a CSV file of integers: a header line of column names, then one row per line.

    The header must equal `columns` when given, and consist of valid column
    names otherwise. Every cell must match `-?\\d+` and lie inside its column's
    domain, or inside int64 when `domains` is None. The first offending cell in
    file order is reported with the file, its 1-based data row and its column.
    Returns the header's column names and the (rows, columns) matrix.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such CSV file: {p}")
    text = p.read_text()
    if not text:
        raise CsvFormatError(f"{p}: empty file, missing header row")
    first, _, body = text.partition("\n")
    names = first.split(",")
    if columns is None:
        for col in names:
            if not _IDENT_RE.fullmatch(col):
                raise CsvFormatError(f"{p}: invalid column name in header: {col!r}")
    elif first != ",".join(columns):
        raise CsvFormatError(f"{p}: header mismatch: expected {','.join(columns)!r}, got {first!r}")
    k = len(names)
    if body and not body.endswith("\n"):
        body += "\n"
    # Fast path. np.loadtxt rejects empty cells, misplaced minus signs, values
    # beyond int64 and ragged rows, but it takes " 5" and "+5" and skips blank
    # lines; so it only sees digits, minus signs, commas and non-blank lines.
    if (
        body
        and body.isascii()
        and not body.encode().translate(None, b"0123456789-,\n")
        and not body.startswith("\n")
        and "\n\n" not in body
    ):
        try:
            m = np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError:  # a cell beyond int64, or rows of unequal width
            m = None
        if m is not None and m.shape[1] == k:
            if domains is None or not _outside(m, domains).any():
                return names, m
    # Row by row: raises the first error, or parses what the fast path left
    # out, such as digits outside ASCII.
    rows = []
    for rno, line in enumerate(body.split("\n")[:-1], start=1):
        cells = line.split(",")
        if len(cells) != k:
            raise CsvFormatError(f"{p}: row {rno}: {len(cells)} cells, expected {k}")
        for j, (col, cell) in enumerate(zip(names, cells)):
            where = f"{p}: row {rno}, column {col}"
            if not _INT_RE.fullmatch(cell):
                raise CsvFormatError(f"{where}: not an integer: {cell!r}")
            v = int(cell)
            if domains is None:
                if not _INT64_MIN <= v <= _INT64_MAX:
                    raise CsvFormatError(f"{where}: value {cell} outside the 64-bit integer range")
            elif v not in domains[j]:
                d = domains[j]
                raise CsvFormatError(f"{where}: value {v} outside domain [{d.lo}, {d.hi}]")
        rows.append([int(c) for c in cells])
    return names, np.array(rows, dtype=np.int64).reshape(len(rows), k)


def _outside(m: np.ndarray, domains: Sequence[Domain]) -> np.ndarray:
    """Which cells of m lie outside their column's domain."""
    return (m < [d.lo for d in domains]) | (m > [d.hi for d in domains])


def write_int_csv(path: str | Path, names: Sequence[str], matrix: np.ndarray) -> None:
    """Write a header line and the matrix rows: integer cells, commas, LF newlines."""
    n, k = matrix.shape
    row = ",".join(["%d"] * k) + "\n"
    text = ",".join(names) + "\n" + (row * n) % tuple(matrix.ravel().tolist())
    Path(path).write_text(text, newline="\n")


def load_csv(path: str | Path, schema: Sequence[ColumnMeta], name: str | None = None) -> Table:
    """Load a CSV file against a declared schema.

    The first line must be the comma-separated schema column names; every cell
    must parse as an integer inside its column's domain. Errors carry the
    1-based data row number and the column name.
    """
    p = Path(path)
    schema = tuple(schema)
    _, m = read_int_csv(p, [c.name for c in schema], [c.domain for c in schema])
    return _file_table(p, name, schema, m)


def read_csv(path: str | Path, domain: Domain | None = None, name: str | None = None) -> Table:
    """Load a CSV file without a declared schema.

    Column names come from the header; domains are either the one supplied
    (applied to every column) or inferred as each column's [min, max].
    """
    p = Path(path)
    names, m = read_int_csv(p)
    if domain is not None:
        schema = [ColumnMeta(n, domain) for n in names]
    elif m.shape[0]:
        schema = spanning_schema(names, m)
    else:
        raise CsvFormatError(f"{p}: cannot infer domains of an empty table; supply a domain")
    return _file_table(p, name, schema, m)


def _file_table(p: Path, name: str | None, schema: Sequence[ColumnMeta], m: np.ndarray) -> Table:
    """The Table read from file p, named after the file unless `name` is given;
    an invalid name or an out-of-domain value names the file."""
    try:
        return Table(name or p.stem, schema, m)
    except ValueError as exc:
        raise CsvFormatError(f"{p}: {exc}") from None


def spanning_schema(names: Sequence[str], m: np.ndarray) -> list[ColumnMeta]:
    """Columns whose domains are the [min, max] of each column of a non-empty matrix."""
    # One 1-D reduction per column: contiguous on a table's column-major
    # matrix, and on a narrow row-major matrix still far faster than an
    # axis-0 reduction.
    return [ColumnMeta(n, Domain(int(m[:, j].min()), int(m[:, j].max()))) for j, n in enumerate(names)]


def save_csv(table: Table, path: str | Path) -> None:
    """Write a table in the load_csv format: header line, integer cells, LF newlines."""
    write_int_csv(path, table.column_names, table.matrix())


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
    return Table(name, columns, data)


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
    return Table(name, columns, data)
