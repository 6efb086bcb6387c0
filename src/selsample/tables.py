"""In-memory integer tables: domains, CSV I/O, and synthetic generators.

Tables are immutable after construction and safe to share across threads.
All values are 64-bit signed integers; categorical data is representable by
fixing an arbitrary order on the categories.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Domain",
    "ColumnMeta",
    "Table",
    "by_name",
    "CsvFormatError",
    "int_matrix",
    "read_int_csv",
    "write_int_csv",
    "write_sidecar",
    "read_sidecar",
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
    """A named column together with its value domain; a Table gives a column
    declared without one the [min, max] of its values."""

    name: str
    domain: Domain | None = None

    def __post_init__(self) -> None:
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid column name: {self.name!r}")


class Table:
    """An immutable table of integer rows over named, domain-checked columns.

    The rows live in one read-only, column-major int64 matrix, so each column
    is contiguous. `rows` may be any (n, k) array (it is copied, so the
    caller's array stays its own) or any iterable of rows. Each column's
    [min, max] is taken once: it checks the declared domain, stands in for
    a domain not declared, and is the column's `span`.
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
        m = self._matrix = int_matrix(rows, len(columns))
        if m.shape[0]:  # one [min, max] per column, each contiguous in the column-major matrix
            spans = [Domain(int(m[:, j].min()), int(m[:, j].max())) for j in range(len(columns))]
        elif any(c.domain is None for c in columns):
            raise ValueError("cannot infer domains of an empty table; supply a domain")
        else:
            spans = [c.domain for c in columns]
        for j, (c, span) in enumerate(zip(columns, spans)):
            d = c.domain
            if d is not None and (span.lo < d.lo or span.hi > d.hi):
                # The first bad cell in column-major order.
                r = int(np.flatnonzero((m[:, j] < d.lo) | (m[:, j] > d.hi))[0])
                raise ValueError(
                    f"row {r + 1}, column {c.name}: value {int(m[r, j])} "
                    f"outside domain [{d.lo}, {d.hi}]"
                )
        self.name = name
        self.columns = tuple(c if c.domain else ColumnMeta(c.name, span) for c, span in zip(columns, spans))
        self._spans = spans
        self._col_index = {c.name: i for i, c in enumerate(columns)}

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

    def span(self, name: str) -> Domain:
        """The [min, max] of the column's values; on an empty table, its
        declared domain."""
        return self._spans[self.column_index(name)]

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


def by_name(tables: Iterable[Table]) -> dict[str, Table]:
    """The tables by name, in the given order; a name given twice is an error."""
    found: dict[str, Table] = {}
    for t in tables:
        if t.name in found:
            raise ValueError(f"table names must be distinct: {t.name!r} is given more than once")
        found[t.name] = t
    return found


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


def read_int_csv(path: str | Path, columns: Sequence[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Read a CSV file of integers: a header line of column names, then one row per line.

    The header must equal `columns` when given, and consist of valid column
    names otherwise. Every cell must match `-?\\d+` and lie inside int64. The
    first offending cell in file order is reported with the file, its 1-based
    data row and its column.
    Returns the header's column names and the (rows, columns) matrix.

    A file takes one of two routes, with the same result and the same errors:
    - Whole file: the bytes are checked once, then `np.loadtxt` parses the
      file by its path. Given a path, numpy's C tokenizer reads the open file
      in chunks; given a string buffer or any other source, it pulls one line
      at a time through Python (20 against 12 ms for 1e5 rows of 2 cells,
      2-core VM, numpy 2.4).
    - Row by row, on the decoded text: every file the whole-file route turns
      down (see `_read_whole`), which includes every file with an error, so
      this route reports them all.

    Tried and slower or wrong (1e5 rows of 2 cells, 2-core VM, numpy 2.4): a
    parser in numpy byte arithmetic took 23-27 ms against 8.4 ms for
    np.loadtxt; np.fromstring(sep=",") takes 5.8 ms, but reads "-" as 0 and
    -9300000000000000000 as INT64_MAX. Files that save_csv or save_sample
    wrote are read from their binary sidecar instead (see read_sidecar),
    whose SHA-256 digest takes 2.0 ms for 2.9 MB where blake2b takes 3.7 ms.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such CSV file: {p}")
    read = _read_whole(p, columns)
    if read is not None:
        return read
    return _read_rows(p, p.read_text(), columns)


# numpy's file opener decompresses files with these suffixes.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _file_identity(p: Path) -> tuple[int, int, int, int]:
    st = os.stat(p)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _read_whole(p: Path, columns: Sequence[str] | None) -> tuple[list[str], np.ndarray] | None:
    """The header's names and the matrix of file p, parsed by `np.loadtxt` on
    the path; None where the row-by-row route must read the file.

    np.loadtxt rejects empty cells, misplaced minus signs, values beyond int64
    and ragged rows, but it takes " 5" and "+5", skips blank lines and
    decompresses by suffix. So it parses a file only when:
    - the name has no suffix that numpy's opener decompresses;
    - the header is ASCII (a bad one raises here, as on the other route);
    - the data rows hold only digits, minus signs, commas and newlines, and
      the first of them is not blank;
    - no CR stands alone (CRLF reads as LF on both routes, a lone CR does not
      on numpy's);
    and it keeps the matrix only when the parse raised nothing, the matrix has
    one row per line, so no line was blank, and the file's identity (device,
    inode, size, modification time) is the same before the byte read and
    after the parse, so the bytes checked are the bytes parsed. (A rewrite
    that keeps the inode and the size within one tick of the file system's
    clock would go unseen.)
    """
    if p.suffix in _COMPRESSED_SUFFIXES:
        return None
    before = _file_identity(p)
    data = p.read_bytes()
    first, _, body = data.partition(b"\n")
    first = first.removesuffix(b"\r")
    if (
        # No rows, or a blank first row: np.loadtxt warns when no line has data.
        body[:1] in (b"", b"\n", b"\r")
        or not first.isascii()
        or body.translate(None, b"0123456789-,\r\n")
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    names, _ = _read_rows(p, first.decode(), columns)  # raises on a bad header
    try:
        m = np.loadtxt(p, dtype=np.int64, delimiter=",", skiprows=1, comments=None, ndmin=2)
    except (ValueError, OSError):  # a cell beyond int64, ragged rows, a vanished file
        return None
    # bytes.count takes about 8 times as long.
    lines = np.count_nonzero(np.frombuffer(body, np.uint8) == ord("\n")) + (not body.endswith(b"\n"))
    if m.shape != (lines, len(names)) or _file_identity(p) != before:
        return None
    return names, m


def _read_rows(p: Path, text: str, columns: Sequence[str] | None) -> tuple[list[str], np.ndarray]:
    """read_int_csv on the decoded text of file p, one row at a time: raises
    the first error in file order, or parses what the whole-file route leaves
    out, such as digits outside ASCII."""
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
    rows = []
    for rno, line in enumerate(body.split("\n")[:-1], start=1):
        cells = line.split(",")
        if len(cells) != k:
            raise CsvFormatError(f"{p}: row {rno}: {len(cells)} cells, expected {k}")
        for col, cell in zip(names, cells):
            where = f"{p}: row {rno}, column {col}"
            if not _INT_RE.fullmatch(cell):
                raise CsvFormatError(f"{where}: not an integer: {cell!r}")
            if not _INT64_MIN <= int(cell) <= _INT64_MAX:
                raise CsvFormatError(f"{where}: value {cell} outside the 64-bit integer range")
        rows.append([int(c) for c in cells])
    return names, np.array(rows, dtype=np.int64).reshape(len(rows), k)


def write_int_csv(path: str | Path, names: Sequence[str], matrix: np.ndarray) -> bytes:
    """Write a header line and the matrix rows: integer cells, commas, LF
    newlines. Returns the bytes written.

    `%` formatting on a `tolist()` copy is the fastest form tried: a numpy
    digit formatter took 18-19 ms for 35,800 rows of 3 cells, against 17 ms
    here (2-core VM, numpy 2.4).
    """
    n, k = matrix.shape
    row = ",".join(["%d"] * k) + "\n"
    data = (",".join(names) + "\n" + (row * n) % tuple(matrix.ravel().tolist())).encode()
    Path(path).write_bytes(data)
    return data


# A sidecar is the CSV file's name plus ".bin". It holds the format tag, the
# shape (n, k) as two little-endian uint64, the n x k matrix as little-endian
# int64 in column-major order, and last a SHA-256 digest over the CSV's bytes
# followed by everything before the digest.
_SIDECAR_TAG = b"SELSBIN1"
_SIDECAR_HEAD = len(_SIDECAR_TAG) + 16
_DIGEST_BYTES = 32


def _sidecar(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".bin")


def write_sidecar(path: str | Path, csv: bytes, matrix: np.ndarray) -> None:
    """Write the binary sidecar of CSV file `path`, whose bytes are `csv`,
    holding `matrix`: the CSV's rows, or their columns after a leading key
    column (see read_sidecar)."""
    head = _SIDECAR_TAG + struct.pack("<QQ", *matrix.shape)
    payload = matrix.astype("<i8", copy=False).tobytes(order="F")
    digest = hashlib.sha256(csv)
    digest.update(head)
    digest.update(payload)
    _sidecar(Path(path)).write_bytes(b"".join((head, payload, digest.digest())))


def read_sidecar(path: str | Path, columns: Sequence[str] | None = None) -> tuple[list[str], np.ndarray] | None:
    """The CSV header's names and the matrix stored in the sidecar of CSV
    file `path`, without parsing the CSV; None where the CSV must be parsed.

    The sidecar counts only when all of these hold:
    - it starts with the format tag, and its length fits the (n, k) it records;
    - the CSV's header line is ASCII and equals `columns` when given, and
      consists of valid column names otherwise;
    - its digest matches the CSV's bytes, the tag, the shape and the payload.
    A matching digest shows that write_sidecar wrote this CSV and this matrix
    together. The caller checks that (n, k) fits the header: a sample's
    matrix leaves out the CSV's leading sampleindex column.
    """
    p = Path(path)
    try:
        data = _sidecar(p).read_bytes()
        if len(data) < _SIDECAR_HEAD + _DIGEST_BYTES or not data.startswith(_SIDECAR_TAG):
            return None
        n, k = struct.unpack_from("<QQ", data, len(_SIDECAR_TAG))
        if len(data) != _SIDECAR_HEAD + 8 * n * k + _DIGEST_BYTES:
            return None
        csv = p.read_bytes()
    except OSError:
        return None
    end = csv.find(b"\n")
    header = csv[:end]
    if end < 0 or not header.isascii():
        return None
    names = header.decode().split(",")
    if columns is None:
        if not all(_IDENT_RE.fullmatch(c) for c in names):
            return None
    elif names != list(columns):
        return None
    body = memoryview(data)[:-_DIGEST_BYTES]
    digest = hashlib.sha256(csv)
    digest.update(body)
    if digest.digest() != data[-_DIGEST_BYTES:]:
        return None
    return names, np.frombuffer(body, "<i8", count=n * k, offset=_SIDECAR_HEAD).reshape((n, k), order="F")


def read_csv(path: str | Path, domain: Domain | None = None) -> Table:
    """Load a CSV file as a table named after the file.

    Column names come from the header; domains are either the one supplied
    (applied to every column) or each column's [min, max]. A file that
    save_csv wrote is read from its sidecar when the two still match (see
    read_sidecar), and any other file is parsed by read_int_csv: a missing,
    stale or edited sidecar, a sample's, or a CSV written by hand. Both routes
    give the same table and the same errors.
    """
    p = Path(path)
    read = read_sidecar(p)
    if read is None or read[1].shape[1] != len(read[0]):
        read = read_int_csv(p)
    names, m = read
    try:
        return Table(p.stem, [ColumnMeta(n, domain) for n in names], m)
    except ValueError as exc:  # an invalid name, an out-of-domain value, no rows to span
        raise CsvFormatError(f"{p}: {exc}") from None


def save_csv(table: Table, path: str | Path) -> None:
    """Write a table in the read_csv format: header line, integer cells, LF
    newlines; and beside it its binary sidecar, the file's name plus ".bin",
    which read_csv takes in place of parsing the CSV. Deleting the sidecar
    changes nothing but the read time."""
    m = table.matrix()
    write_sidecar(path, write_int_csv(path, table.column_names, m), m)


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
