"""Index-aligned uniform samples.

Each base table is sampled uniformly with replacement to a common size s, and
the i-th draw of every table is tagged with sampleindex i. Rows that share an
index value line up into one uniform sample of the Cartesian product of the
base tables, which is what the selectivity estimators count against.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .tables import Table, read_int_csv, spanning_schema, write_int_csv

__all__ = [
    "SampleTable",
    "SampleDatabase",
    "create_sample",
    "save_sample",
    "load_sample",
]

_DIGEST_BYTES = 32  # SHA-256


class SampleTable(Table):
    """Uniform with-replacement sample of one base table: a Table of the same
    name whose row i is the draw tagged with sampleindex i + 1.

    So the i-th rows of all sample tables of a database form one aligned
    draw, and a sample table serves anywhere a Table does.
    """

    @property
    def base(self) -> str:
        """The sampled base table's name."""
        return self.name

    @property
    def indexes(self) -> range:
        """The sampleindex of each row of `rows`."""
        return range(1, self.row_count + 1)


class SampleDatabase:
    """A set of same-size SampleTables over distinct base tables."""

    def __init__(self, size: int, seed: int, tables: Sequence[SampleTable]):
        tables = tuple(tables)
        if not tables:
            raise ValueError("a sample database needs at least one table")
        names = [t.name for t in tables]
        if len(set(names)) != len(names):
            raise ValueError("sample tables must cover distinct base tables")
        for t in tables:
            if t.row_count != size:
                raise ValueError(
                    f"sample table {t.name!r} has {t.row_count} rows, expected {size}"
                )
        self.size = size
        self.seed = seed
        self.tables = tables


def create_sample(s: int, tables: Sequence[Table], seed: int) -> SampleDatabase:
    """Draw s tuples uniformly with replacement from each table; tag draw i with index i.

    A single RNG stream is consumed table-by-table, so appending another table
    to the list leaves the draws of earlier tables unchanged for a fixed seed.
    """
    if s < 1:
        raise ValueError("sample size must be at least 1")
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one base table")
    for t in tables:
        if t.row_count == 0:
            raise ValueError(f"cannot sample empty table {t.name!r}")
    rng = np.random.default_rng(seed)
    sampled = []
    for t in tables:
        ordinals = rng.integers(0, t.row_count, size=s)
        sampled.append(SampleTable(t.name, t.columns, t.matrix()[ordinals]))
    return SampleDatabase(s, seed, sampled)


def save_sample(sampledb: SampleDatabase, out_dir: str | Path) -> Path:
    """Persist a sample database as one CSV per table plus a manifest.json.

    Sample CSVs carry sampleindex as the leading column. Beside each CSV goes
    a binary sidecar, the CSV's name plus ".bin": a SHA-256 digest of the
    CSV's bytes followed by the payload, then the payload itself, the s x k
    sample matrix as little-endian int64 in column-major order. load_sample
    reads a table from its sidecar when the two still match, and from the CSV
    otherwise. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for st in sampledb.tables:
        fname = f"{st.name}.sample.csv"
        tagged = np.column_stack((np.arange(1, st.row_count + 1, dtype=np.int64), st.matrix()))
        csv = write_int_csv(out / fname, ("sampleindex", *st.column_names), tagged)
        payload = st.matrix().astype("<i8", copy=False).tobytes(order="F")
        _sidecar(out / fname).write_bytes(_digest(csv, payload) + payload)
        entries.append({"base": st.name, "file": fname, "columns": list(st.column_names)})
    manifest = {"size": sampledb.size, "seed": sampledb.seed, "tables": entries}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest_path


def _sidecar(csv_path: Path) -> Path:
    """The binary copy written beside a sample CSV."""
    return csv_path.with_name(csv_path.name + ".bin")


def _digest(csv: bytes, payload: bytes | memoryview) -> bytes:
    """SHA-256 over a sample CSV's bytes followed by its sidecar's payload."""
    h = hashlib.sha256(csv)
    h.update(payload)
    return h.digest()


def _read_manifest(mp: Path) -> tuple[int, int, list[dict]]:
    """The manifest's size, seed and table entries, checked for the keys and
    types load_sample reads."""
    try:
        manifest = json.loads(mp.read_text())
    except ValueError as exc:
        raise ValueError(f"{mp}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{mp}: the top level is not a JSON object")
    for key in ("size", "seed", "tables"):
        if key not in manifest:
            raise ValueError(f"{mp}: no {key!r} entry")
    ints = []
    for key in ("size", "seed"):
        value = manifest[key]
        try:
            # int() would take true as 1 and truncate 500.7 to 500.
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ValueError
            ints.append(int(value))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{mp}: {key!r} is not an integer: {value!r}") from None
    if ints[0] < 1:
        raise ValueError(f"{mp}: 'size' must be at least 1")
    tables = manifest["tables"]
    if not isinstance(tables, list):
        raise ValueError(f"{mp}: 'tables' is not a list")
    for k, entry in enumerate(tables):
        if not isinstance(entry, dict):
            raise ValueError(f"{mp}: table entry {k} is not an object")
        for key in ("base", "file", "columns"):
            if key not in entry:
                raise ValueError(f"{mp}: table entry {k} has no {key!r}")
        for key in ("base", "file"):
            if not isinstance(entry[key], str):
                raise ValueError(f"{mp}: table entry {k}: {key!r} is not a string")
        columns = entry["columns"]
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise ValueError(f"{mp}: table entry {k}: 'columns' is not a list of strings")
    return ints[0], ints[1], tables


def load_sample(manifest_path: str | Path) -> SampleDatabase:
    """Load a sample database previously written by save_sample.

    Each table comes from its sidecar (see save_sample) when all of these
    hold: the sidecar holds a digest and size x k int64 values, for the
    manifest's size and its k columns; the CSV's header is sampleindex and
    the manifest's columns; and the digest matches the CSV's bytes and the
    payload. A matching digest shows that save_sample wrote this CSV and this
    payload together, so the CSV's sampleindex runs 1..size in order and its
    rows are the payload's, without parsing it.

    Any other table is read from its CSV: a missing, short, stale or edited
    sidecar, or a sample written by hand. Its sampleindex values must be
    exactly 1..size, in any order; the rows are stored in sampleindex order.
    Both routes give the same tables and the same errors. Column domains are
    the [min, max] of the sampled values.
    """
    mp = Path(manifest_path)
    if not mp.is_file():
        raise FileNotFoundError(f"no such manifest: {mp}")
    size, seed, entries = _read_manifest(mp)
    tables = []
    for entry in entries:
        path = mp.parent / entry["file"]
        rows = _read_sidecar(path, entry["columns"], size)
        if rows is None:
            rows = _read_sample_csv(path, entry["columns"], size)
        try:
            tables.append(SampleTable(entry["base"], spanning_schema(entry["columns"], rows), rows))
        except ValueError as exc:
            raise ValueError(f"{mp}: {exc}") from None
    try:
        return SampleDatabase(size, seed, tables)
    except ValueError as exc:
        raise ValueError(f"{mp}: {exc}") from None


def _read_sidecar(path: Path, columns: list[str], size: int) -> np.ndarray | None:
    """The (size, len(columns)) sample matrix from the sidecar of CSV file
    path, or None where the CSV route must read the table."""
    try:
        sidecar = _sidecar(path).read_bytes()
        if len(sidecar) != _DIGEST_BYTES + 8 * size * len(columns):
            return None
        csv = path.read_bytes()
    except OSError:
        return None
    header = ",".join(["sampleindex", *columns]) + "\n"
    if not header.isascii() or not csv.startswith(header.encode()):
        return None
    payload = memoryview(sidecar)[_DIGEST_BYTES:]
    if sidecar[:_DIGEST_BYTES] != _digest(csv, payload):
        return None
    return np.frombuffer(payload, dtype="<i8").reshape((size, len(columns)), order="F")


def _read_sample_csv(path: Path, columns: list[str], size: int) -> np.ndarray:
    """The (size, len(columns)) sample matrix parsed from CSV file path, in
    sampleindex order."""
    _, m = read_int_csv(path, ["sampleindex", *columns])
    # Lengths first: the manifest's size may be far beyond what fits in memory.
    if m.shape[0] != size:
        raise ValueError(f"{path}: sampleindex values must be exactly 1..{size} with no repeats")
    indexes = np.arange(1, size + 1)
    # save_sample writes the rows in sampleindex order; other files are sorted.
    if not np.array_equal(m[:, 0], indexes):
        m = m[np.argsort(m[:, 0])]
        if not np.array_equal(m[:, 0], indexes):
            raise ValueError(f"{path}: sampleindex values must be exactly 1..{size} with no repeats")
    return m[:, 1:]
