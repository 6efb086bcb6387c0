"""Index-aligned uniform samples.

Each base table is sampled uniformly with replacement to a common size s, and
the i-th draw of every table is tagged with sampleindex i. Rows that share an
index value line up into one uniform sample of the Cartesian product of the
base tables, which is what the selectivity estimators count against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tables import Table, int_matrix, read_int_csv, write_int_csv

__all__ = [
    "SampleTable",
    "SampleDatabase",
    "create_sample",
    "aligned_tuple",
    "save_sample",
    "load_sample",
]


class SampleTable:
    """Uniform with-replacement sample of one base table, rows tagged 1..s.

    The rows are stored in sampleindex order, as one read-only int64 matrix:
    row i holds the draw tagged i + 1, so `indexes` is 1..s and the i-th rows
    of all sample tables of a database form one aligned draw. The constructor
    takes the index values in any order, as long as they are exactly the set
    {1, ..., s} with no repeats.
    """

    def __init__(
        self,
        base: str,
        columns: Sequence[str],
        indexes: Sequence[int] | np.ndarray,
        rows: np.ndarray | Iterable[Sequence[int]],
    ):
        self.base = base
        self.columns = tuple(columns)
        m = int_matrix(rows, len(self.columns))
        s = m.shape[0]
        idx = np.asarray(indexes, dtype=np.int64)
        if idx.shape != (s,):
            raise ValueError("index/row length mismatch")
        order = np.argsort(idx)
        if not np.array_equal(idx[order], np.arange(1, s + 1)):
            raise ValueError(f"sampleindex values must be exactly 1..{s} with no repeats")
        self._matrix = m[order]
        self._matrix.flags.writeable = False

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    @property
    def indexes(self) -> range:
        """The sampleindex of each row of `rows`."""
        return range(1, self.size + 1)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples in sampleindex order, rebuilt from the matrix on every access."""
        return tuple(map(tuple, self._matrix.tolist()))

    def row_at_index(self, i: int) -> tuple[int, ...]:
        """The unique sampled row whose sampleindex equals i."""
        if not 1 <= i <= self.size:
            raise IndexError(f"sampleindex {i} out of range 1..{self.size}")
        return tuple(self._matrix[i - 1].tolist())

    def matrix(self) -> np.ndarray:
        """The read-only int64 matrix of the rows, in sampleindex order."""
        return self._matrix

    def column_values(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise LookupError(f"table {self.base!r} has no column {name!r}")
        return self._matrix[:, self.columns.index(name)]


class SampleDatabase:
    """A set of same-size SampleTables over distinct base tables."""

    def __init__(self, size: int, seed: int, tables: Sequence[SampleTable]):
        tables = tuple(tables)
        if not tables:
            raise ValueError("a sample database needs at least one table")
        names = [t.base for t in tables]
        if len(set(names)) != len(names):
            raise ValueError("sample tables must cover distinct base tables")
        for t in tables:
            if t.size != size:
                raise ValueError(
                    f"sample table {t.base!r} has {t.size} rows, expected {size}"
                )
        self.size = size
        self.seed = seed
        self.tables = tables
        self._by_base = {t.base: t for t in tables}

    @property
    def base_names(self) -> tuple[str, ...]:
        return tuple(t.base for t in self.tables)

    def __contains__(self, base: str) -> bool:
        return base in self._by_base

    def table(self, base: str) -> SampleTable:
        try:
            return self._by_base[base]
        except KeyError:
            raise LookupError(f"no sample for base table {base!r}") from None


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
        sampled.append(SampleTable(t.name, t.column_names, np.arange(1, s + 1), t.matrix()[ordinals]))
    return SampleDatabase(s, seed, sampled)


def aligned_tuple(sampledb: SampleDatabase, i: int) -> list[tuple[int, ...]]:
    """The rows, one per sample table, whose sampleindex equals i."""
    if not 1 <= i <= sampledb.size:
        raise IndexError(f"sampleindex {i} out of range 1..{sampledb.size}")
    return [t.row_at_index(i) for t in sampledb.tables]


def save_sample(sampledb: SampleDatabase, out_dir: str | Path) -> Path:
    """Persist a sample database as one CSV per table plus a manifest.json.

    Sample CSVs carry sampleindex as the leading column. Returns the manifest
    path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for st in sampledb.tables:
        fname = f"{st.base}.sample.csv"
        tagged = np.column_stack((np.arange(1, st.size + 1), st.matrix()))
        write_int_csv(out / fname, ("sampleindex", *st.columns), tagged)
        entries.append({"base": st.base, "file": fname, "columns": list(st.columns)})
    manifest = {"size": sampledb.size, "seed": sampledb.seed, "tables": entries}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest_path


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
        try:
            ints.append(int(manifest[key]))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{mp}: {key!r} is not an integer: {manifest[key]!r}") from None
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
    """Load a sample database previously written by save_sample."""
    mp = Path(manifest_path)
    if not mp.is_file():
        raise FileNotFoundError(f"no such manifest: {mp}")
    size, seed, entries = _read_manifest(mp)
    tables = []
    for entry in entries:
        _, m = read_int_csv(mp.parent / entry["file"], ["sampleindex", *entry["columns"]])
        tables.append(SampleTable(entry["base"], entry["columns"], m[:, 0], m[:, 1:]))
    return SampleDatabase(size, seed, tables)
