"""In-memory integer tables: domains, CSV I/O, and synthetic generators.

Tables are immutable after construction and safe to share across threads.
All values are 64-bit signed integers; categorical data is representable by
fixing an arbitrary order on the categories.
"""

from __future__ import annotations

import hashlib
import os
import re
import stat
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "Domain",
    "ColumnMeta",
    "Table",
    "by_name",
    "CsvFormatError",
    "int_matrix",
    "read_int_csv",
    "write_file",
    "write_int_csv",
    "write_sidecar",
    "read_sidecar",
    "read_table_file",
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


@dataclass(frozen=True)
class _Owned:
    """A new read-only, column-major (n, k) int64 matrix that nothing else
    holds, which a Table keeps as it is instead of copying: the matrix that
    read_sidecar read, as read_table_file returns it."""

    matrix: np.ndarray


class Table:
    """An immutable table of integer rows over named, domain-checked columns.

    The rows live in one read-only, column-major int64 matrix, so each column
    is contiguous. `rows` may be any (n, k) integer array (it is copied, so
    the caller's array stays its own) or any iterable of rows of integers
    (see int_matrix). Each column's
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
        m = self._matrix = rows.matrix if isinstance(rows, _Owned) else int_matrix(rows, len(columns))
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
    array of an integer dtype, or an iterable of rows of Python or numpy
    integers. A value of another type, or beyond int64, raises ValueError:
    nothing is rounded, parsed or wrapped."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iu":
            raise ValueError(f"rows of dtype {rows.dtype}, expected an integer dtype")
        m = np.array(rows, dtype=np.int64, order="F")
        if m.ndim != 2 or m.shape[1] != k:
            raise ValueError(f"rows of shape {m.shape}, expected (n, {k})")
        # Only uint64 holds values beyond int64, and the cast wraps them to negatives.
        if rows.dtype == np.uint64 and m.size and m.min() < 0:
            raise ValueError(f"value {rows.max()} outside the 64-bit integer range")
    else:
        rows = [tuple(row) for row in rows]
        for rno, row in enumerate(rows, start=1):
            if len(row) != k:
                raise ValueError(f"row {rno} has {len(row)} values, expected {k}")
            for v in row:
                if not isinstance(v, (int, np.integer)) or not _INT64_MIN <= int(v) <= _INT64_MAX:
                    raise ValueError(f"row {rno}: {v!r} is not a 64-bit integer")
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
    -9300000000000000000 as INT64_MAX. Files that save_csv wrote are read
    from their binary sidecar instead (see read_table_file).
    Its digest is a two-leaf SHA-256 tree, whose leaves, the CSV and the
    payload, two threads hash at once: read_csv of 2.9 MB of files takes
    2.2-2.3 ms. The form to avoid is one serial SHA-256 stream, which one
    core hashes alone: 3.3-3.7 ms. SHA-256 beats blake2b here, 2.0 against
    3.7 ms for 2.9 MB.
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


# O_BINARY exists only on Windows, where it turns off newline translation.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path: str | Path, *parts: bytes | bytearray | np.ndarray) -> None:
    """Write the parts, each bytes or a C-contiguous buffer such as a numpy
    array, one after another into file `path`, created if missing with mode
    0o666 less the umask, as open(path, "wb") does.

    The file is opened without O_TRUNC: the parts go over its old bytes, and
    a regular file longer than what was written is then cut to length with
    ftruncate. Anything else, such as the pipe that --out /dev/stdout opens,
    is only written to: ftruncate on a pipe raises EINVAL. An interrupted
    rewrite leaves the new bytes followed by the old tail, where truncating
    first left a short file; the sidecar's digest catches both (see
    read_sidecar), and save_sample writes its manifest last. An OSError
    carries the path as open() reports it.

    Rewriting a 665 KB sample CSV (2-core VM, ext4, Python 3.11, numpy 2.4)
    takes 0.03 ms this way. The forms to avoid: truncate-and-write (an
    O_TRUNC open, as open(path, "wb") does), 0.69 ms, since the file system
    frees the old blocks and allocates them again; and a temp file plus
    os.replace, 0.72 ms, which does the same through a new inode. A 150-byte
    est.csv takes 0.010 against 0.08-0.10 ms.
    """
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        size = 0
        for part in parts:
            view = memoryview(part)
            if not view.nbytes:  # cast("B") refuses a shape with a zero in it
                continue
            view = view.cast("B")
            while view:
                done = os.write(fd, view)
                view = view[done:]
                size += done
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def write_int_csv(path: str | Path, names: Sequence[str], matrix: np.ndarray) -> bytes:
    """Write a header line and the rows of the int64 matrix: integer cells as
    str() writes them, commas, LF newlines. Returns the bytes written.

    The rows are laid out as one (n, width) uint8 block, a fixed-width field
    per column, which NULs pad and a single bytes.replace removes. The header
    line sits in the same buffer just before the block, so one replace gives
    the whole file, which write_file writes. A column's field holds a sign
    slot, only when the column has a negative value, then as many digits as
    its largest |x| has, then the separator. A column whose minimum is >= 0
    is its own |x|, as every column of a sample of a non-negative table is;
    any other is taken as uint64, so INT64_MIN becomes 2^63, and negated
    where a `< 0` mask is set. Either is narrowed to the smallest unsigned
    type that holds its largest value. Repeated // 10 gives the digits from
    the last place up, and at each place p >= 1 a value whose quotient so
    far is 0 gets a NUL in place of a leading zero.

    On a 2-core VM (Python 3.11, numpy 2.4), file write included, this takes
    4.4 ms against 12-16 ms for `%` formatting on a tolist() copy, for
    35,800 rows of 3 cells below 200,001, and 13 ms against 25-37 ms for 1e5
    rows of 2. Three forms to avoid: a sign slot in every column, whose NUL
    in each non-negative cell takes bytes.replace from 1.4 to 3.3 ms on that
    block (replace costs about 15 ns a NUL); a boolean-mask compress in place
    of replace, which takes 1.7 ms there and a block-sized mask (an earlier
    numpy formatter with both took 18-19 ms); and the header joined on after
    the replace, a copy of every byte that only feeds the write, which takes
    the same block from 3.1-3.3 to 3.5-4.0 ms with about 150 more minor page
    faults a call.
    """
    n, k = matrix.shape
    fields = []
    for j in range(k):
        col = matrix[:, j]
        if n and col.min() < 0:
            neg = col < 0
            mag = col.astype(np.uint64)
            np.negative(mag, out=mag, where=neg)
        else:  # every column of a sample of a non-negative table
            neg, mag = None, col
        top = np.uint64(mag.max()) if n else np.uint64(0)
        fields.append((mag.astype(np.min_scalar_type(top)), neg, len(str(top))))
    header = (",".join(names) + "\n").encode()
    width = sum((neg is not None) + digits + 1 for _, neg, digits in fields)
    buf = np.empty(len(header) + n * width, np.uint8)
    buf[: len(header)] = np.frombuffer(header, np.uint8)
    block = buf[len(header):].reshape(n, width)
    at = 0
    for j, (r, neg, digits) in enumerate(fields):
        if neg is not None:
            np.multiply(neg, ord("-"), out=block[:, at], casting="unsafe")
            at += 1
        for p in range(digits):
            q = r // 10
            d = r - q * 10 + ord("0")
            if p:
                d *= r != 0
            block[:, at + digits - 1 - p] = d
            r = q
        at += digits
        block[:, at] = ord(",") if j < k - 1 else ord("\n")
        at += 1
    data = buf.tobytes().replace(b"\0", b"")  # column names hold no NUL
    write_file(path, data)
    return data


# A sidecar is the CSV file's name plus ".bin". It holds the format tag, the
# shape (n, k) as two little-endian uint64, the n x k matrix as little-endian
# int64 in column-major order, and last a SHA-256 digest: the root of a
# two-leaf tree, SHA-256(tag, shape, SHA-256(the CSV's bytes), SHA-256(the
# matrix's bytes)). A collision in the root needs one in SHA-256.
_SIDECAR_TAG = b"SELSBIN2"
_SIDECAR_HEAD = len(_SIDECAR_TAG) + 16
_DIGEST_BYTES = 32
# read_sidecar hashes the CSV after its header line in pieces of this many bytes.
_HASH_CHUNK = 1 << 16
_T = TypeVar("_T")


def _sidecar(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".bin")


def _with_leaf(leaf: Callable[[], bytes], work: Callable[[], _T]) -> tuple[bytes, _T]:
    """(leaf(), work()), with leaf on one worker thread while work runs on
    this one: hashlib and readinto release the GIL, so the two overlap. The
    worker is joined before this returns or raises. An exception in work is
    raised first, then one in leaf. Where no thread can start, leaf runs here
    first."""
    got: list = []

    def run() -> None:
        try:
            got.append(leaf())
        except BaseException as exc:  # raised again on this thread, below
            got.append(exc)

    worker: threading.Thread | None = threading.Thread(target=run)
    try:
        worker.start()
    except RuntimeError:  # no thread can start
        worker = None
        run()
    try:
        done = work()
    finally:
        if worker is not None:
            worker.join()
    if isinstance(got[0], BaseException):
        raise got[0]
    return got[0], done


def _root(head: bytes, csv_leaf: bytes, payload_leaf: bytes) -> bytes:
    return hashlib.sha256(head + csv_leaf + payload_leaf).digest()


def write_sidecar(path: str | Path, csv: bytes, matrix: np.ndarray) -> None:
    """Write the binary sidecar of CSV file `path`, whose bytes are `csv`,
    holding `matrix`: the CSV's rows, or their columns after a leading index
    column (see save_csv). The CSV's leaf is hashed on a worker thread
    while this one hashes the payload.

    The payload is the matrix's own column-major bytes, hashed and written
    in place: the C-contiguous transpose of a little-endian F-order matrix,
    such as a Table's, is a view of them, and astype and asfortranarray copy
    only a matrix of another byte order or layout. The head, the payload
    and the root go to write_file as three parts. For a 1e5 x 2 table
    (2-core VM, Python 3.11, numpy 2.4), file write included, this takes
    1.9-2.0 ms, and 0.7-0.9 ms for a 35,800 x 2 sample. The forms to avoid:
    a payload copy, tobytes(order="F"), and b"".join of the three parts
    after it, copies that only feed a hash or a write, which took 3.0-3.4
    and 1.2-1.4 ms; and one serial SHA-256 stream over the CSV, the head and
    the payload, which took 4.6-4.8 ms against 3.9-4.0 ms for the two
    leaves with those copies.
    """
    head = _SIDECAR_TAG + struct.pack("<QQ", *matrix.shape)
    payload = np.asfortranarray(matrix.astype("<i8", copy=False)).T
    csv_leaf, payload_leaf = _with_leaf(
        lambda: hashlib.sha256(csv).digest(), lambda: hashlib.sha256(payload).digest()
    )
    write_file(_sidecar(Path(path)), head, payload, _root(head, csv_leaf, payload_leaf))


def _csv_leaf(first: bytes, csv: BinaryIO) -> bytes:
    """SHA-256 over the CSV's header line `first` and the rest of file csv,
    read in _HASH_CHUNK pieces through one reused buffer."""
    digest = hashlib.sha256(first)
    chunk = memoryview(bytearray(_HASH_CHUNK))
    while got := csv.readinto(chunk):
        digest.update(chunk[:got])
    return digest.digest()


def read_sidecar(path: str | Path, columns: Sequence[str] | None = None) -> tuple[list[str], np.ndarray] | None:
    """The CSV header's names and the matrix stored in the sidecar of CSV
    file `path`, without parsing the CSV; None where the CSV must be parsed.

    The sidecar counts only when all of these hold:
    - it starts with the format tag, and its length fits the (n, k) it records;
    - the CSV's header line is ASCII and equals `columns` when given, and
      consists of valid column names otherwise;
    - k lies in 1..the header's column count, so the length check bounds n;
    - its root digest matches the tag, the shape, the CSV's bytes and the
      payload.
    A matching digest shows that write_sidecar wrote this CSV and this matrix
    together. The one caller, read_table_file, checks that (n, k) fits the
    header exactly: a sample's matrix leaves out its leading sampleindex. An
    OSError, or a sidecar that shrinks or grows while it is read, gives None
    too. So does a sidecar in an earlier format, whose CSV is then parsed.

    The returned matrix is new and read-only, and it is the read's one
    allocation of the files' size, so read_table_file hands it to a Table to
    keep (see _Owned). The CSV's header line is read with
    readline, which reads the buffered file's pieces until the line is
    complete, and checked. Then the two leaves are hashed at once (see
    _with_leaf): a worker thread hashes the header line and the rest of the
    CSV in _HASH_CHUNK pieces through one reused buffer, while this thread
    reads the payload with readinto straight into a new np.empty(n * k,
    "<i8") buffer, hashes it from there, and reshapes it in Fortran order,
    which is a view. For a 1e5 x 2 table, 2.9 MB of files (2-core VM, Python
    3.11, numpy 2.4), read_csv takes 2.2-2.3 ms with one minor page fault,
    the worker's, and its traced peak is 1.60 MiB for the 1.53 MiB matrix.
    Two forms to avoid: one serial SHA-256 stream over the CSV, the head and
    the payload, which no second core can share, takes 3.3-3.7 ms; and
    reading each file whole as bytes, then np.frombuffer over the payload
    and a Table copy of that view, makes three allocations of the files'
    size and takes 5.1-6.4 ms with about 750 faults and a 3.06 MiB peak.
    load_sample of a 35,800-row sample, 1.2 MB, stays at 1.3-1.7 ms: there
    the thread costs about what it saves.
    """
    p = Path(path)
    try:
        with open(_sidecar(p), "rb") as side, open(p, "rb") as csv:
            head = side.read(_SIDECAR_HEAD)
            if len(head) != _SIDECAR_HEAD or not head.startswith(_SIDECAR_TAG):
                return None
            n, k = struct.unpack_from("<QQ", head, len(_SIDECAR_TAG))
            if os.fstat(side.fileno()).st_size != _SIDECAR_HEAD + 8 * n * k + _DIGEST_BYTES:
                return None
            first = csv.readline()  # the header line, read in the file's buffered pieces
            if not first.endswith(b"\n") or not first.isascii():
                return None
            names = first[:-1].decode().split(",")
            if columns is None:
                if not all(_IDENT_RE.fullmatch(c) for c in names):
                    return None
            elif names != list(columns):
                return None
            if not 1 <= k <= len(names):
                return None
            m = np.empty(n * k, "<i8")

            def payload() -> tuple[bytes, bytes] | None:
                if side.readinto(memoryview(m).cast("B")) != m.nbytes:
                    return None
                return hashlib.sha256(m).digest(), side.read(_DIGEST_BYTES + 1)

            csv_leaf, read = _with_leaf(lambda: _csv_leaf(first, csv), payload)
    except OSError:
        return None
    # A digest cut short or followed by more bytes matches no root.
    if read is None or _root(head, csv_leaf, read[0]) != read[1]:
        return None
    m.flags.writeable = False
    return names, m.reshape((n, k), order="F")


def read_table_file(
    path: str | Path, columns: Sequence[str] | None = None, size: int | None = None
) -> tuple[list[str], np.ndarray | _Owned]:
    """The column names and rows of a table's CSV file: the one reader of
    base and sample tables, whose rows a Table keeps as they are (see
    _Owned) or copies. The header must equal `columns` when given.

    Given `size`, the file is a sample's: its leading column, the
    sampleindex that save_csv's `index` writes, is left out of the names
    and rows. The sidecar (see read_sidecar) is taken when its shape is
    exact: n by the header's column count for a base table, and `size` by
    one fewer for a sample, whose digest then shows that its sampleindex
    runs 1..size in order. Any other file is parsed by read_int_csv: a
    missing, short, stale or edited sidecar, or a file written by hand. A
    sample's sampleindex values must then be exactly 1..size, in any order,
    and its rows come in sampleindex order. Both routes give the same
    names, rows and errors.
    """
    p = Path(path)
    lead = 0 if size is None else 1
    read = read_sidecar(p, columns)
    if read is not None:
        names, m = read
        if m.shape[1] == len(names) - lead and (size is None or m.shape[0] == size):
            return names[lead:], _Owned(m)
    names, m = read_int_csv(p, columns)
    if size is not None:
        # Lengths first: the manifest's size may be far beyond what fits in memory.
        indexes = np.arange(1, size + 1) if m.shape[0] == size else None
        # save_csv writes the rows in sampleindex order; other files are sorted.
        if indexes is not None and not np.array_equal(m[:, 0], indexes):
            m = m[np.argsort(m[:, 0])]
        if indexes is None or not np.array_equal(m[:, 0], indexes):
            raise ValueError(f"{p}: {names[0]} values must be exactly 1..{size} with no repeats")
    return names[lead:], m[:, lead:]


def read_csv(path: str | Path, domain: Domain | None = None) -> Table:
    """Load a CSV file, read by read_table_file, as a table named after the file.

    Column names come from the header; domains are either the one supplied
    (applied to every column) or each column's [min, max].
    """
    p = Path(path)
    names, rows = read_table_file(p)
    try:
        return Table(p.stem, [ColumnMeta(n, domain) for n in names], rows)
    except ValueError as exc:  # an invalid name, an out-of-domain value, no rows to span
        raise CsvFormatError(f"{p}: {exc}") from None


def save_csv(table: Table, path: str | Path, index: str | None = None) -> None:
    """Write a table in the read_csv format: header line, integer cells, LF
    newlines; and beside it its binary sidecar, the file's name plus ".bin",
    which read_table_file takes in place of parsing the CSV. Deleting the
    sidecar changes nothing but the read time. Given `index`, a sample's
    sampleindex, the CSV leads with a column of that name holding 1..n,
    which the sidecar leaves out."""
    m = table.matrix()
    names, data = table.column_names, m
    if index is not None:
        names, data = (index, *names), np.column_stack((np.arange(1, len(m) + 1, dtype=np.int64), m))
    write_sidecar(path, write_int_csv(path, names, data), m)


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
    if cov.shape != (2, 2):
        raise ValueError("covariance must be a symmetric 2x2 matrix")
    if not np.isfinite([mu, *cov.flat]).all():
        raise ValueError("mu and the covariance entries must be finite")
    if not np.allclose(cov, cov.T):
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
