"""Index-aligned uniform samples.

Each base table is sampled uniformly with replacement to a common size s, and
the i-th draw of every table is tagged with sampleindex i. Rows that share an
index value line up into one uniform sample of the Cartesian product of the
base tables, which is what the selectivity estimators count against.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tables import Table

__all__ = [
    "SampleTable",
    "SampleDatabase",
    "create_sample",
    "aligned_tuple",
    "save_sample",
    "load_sample",
]

_INT_RE = re.compile(r"-?\d+")


class SampleTable:
    """Uniform with-replacement sample of one base table, rows tagged 1..s.

    `indexes[i]` is the sampleindex of `rows[i]`; the index values are exactly
    the set {1, ..., s} with no repeats.
    """

    def __init__(
        self,
        base: str,
        columns: Sequence[str],
        indexes: Iterable[int],
        rows: Iterable[Sequence[int]],
    ):
        self.base = base
        self.columns = tuple(columns)
        self.indexes = tuple(int(i) for i in indexes)
        self.rows = tuple(tuple(int(v) for v in row) for row in rows)
        if len(self.indexes) != len(self.rows):
            raise ValueError("index/row length mismatch")
        s = len(self.rows)
        if sorted(self.indexes) != list(range(1, s + 1)):
            raise ValueError(f"sampleindex values must be exactly 1..{s} with no repeats")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("sample row width does not match the column list")
        self._pos_by_index = {idx: pos for pos, idx in enumerate(self.indexes)}
        self._matrix: np.ndarray | None = None
        self._index_array: np.ndarray | None = None
        self._aligned_matrix: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.rows)

    def row_at_index(self, i: int) -> tuple[int, ...]:
        """The unique sampled row whose sampleindex equals i."""
        try:
            return self.rows[self._pos_by_index[i]]
        except KeyError:
            raise IndexError(f"sampleindex {i} out of range 1..{self.size}") from None

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.rows:
                self._matrix = np.array(self.rows, dtype=np.int64)
            else:
                self._matrix = np.empty((0, len(self.columns)), dtype=np.int64)
        return self._matrix

    def index_array(self) -> np.ndarray:
        if self._index_array is None:
            self._index_array = np.array(self.indexes, dtype=np.int64)
        return self._index_array

    def aligned_matrix(self) -> np.ndarray:
        """The rows in sampleindex order: row i holds the draw tagged i + 1."""
        if self._aligned_matrix is None:
            self._aligned_matrix = self.matrix()[np.argsort(self.index_array())]
        return self._aligned_matrix


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
        rows = [t.rows[o] for o in ordinals.tolist()]
        sampled.append(SampleTable(t.name, t.column_names, range(1, s + 1), rows))
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
        lines = ["sampleindex," + ",".join(st.columns)]
        for idx, row in zip(st.indexes, st.rows):
            lines.append(str(idx) + "," + ",".join(str(v) for v in row))
        (out / fname).write_text("\n".join(lines) + "\n", newline="\n")
        entries.append({"base": st.base, "file": fname, "columns": list(st.columns)})
    manifest = {"size": sampledb.size, "seed": sampledb.seed, "tables": entries}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest_path


def load_sample(manifest_path: str | Path) -> SampleDatabase:
    """Load a sample database previously written by save_sample."""
    mp = Path(manifest_path)
    if not mp.is_file():
        raise FileNotFoundError(f"no such manifest: {mp}")
    manifest = json.loads(mp.read_text())
    tables = []
    for entry in manifest["tables"]:
        path = mp.parent / entry["file"]
        lines = path.read_text().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise ValueError(f"{path}: empty sample file")
        header = lines[0].split(",")
        if header[0] != "sampleindex" or header[1:] != list(entry["columns"]):
            raise ValueError(f"{path}: header does not match the manifest column list")
        indexes = []
        rows = []
        for rno, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if len(cells) != len(header) or not all(_INT_RE.fullmatch(c) for c in cells):
                raise ValueError(f"{path}: row {rno}: malformed sample row")
            indexes.append(int(cells[0]))
            rows.append(tuple(int(c) for c in cells[1:]))
        tables.append(SampleTable(entry["base"], entry["columns"], indexes, rows))
    return SampleDatabase(int(manifest["size"]), int(manifest["seed"]), tables)
