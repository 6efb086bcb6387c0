"""Index-aligned uniform samples.

Each base table is sampled uniformly with replacement to a common size s, and
the i-th draw of every table is tagged with sampleindex i. Rows that share an
index value line up into one uniform sample of the Cartesian product of the
base tables, which is what the selectivity estimators count against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .tables import ColumnMeta, Domain, Table, by_name, read_int_csv, read_sidecar, write_int_csv, write_sidecar

__all__ = [
    "SampleTable",
    "SampleDatabase",
    "create_sample",
    "save_sample",
    "load_sample",
]


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
    """A set of same-size SampleTables over distinct base tables (see tables.by_name)."""

    def __init__(self, size: int, seed: int, tables: Sequence[SampleTable]):
        tables = tuple(by_name(tables).values())
        if not tables:
            raise ValueError("a sample database needs at least one table")
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
    its binary sidecar (see tables.read_sidecar), the CSV's name plus ".bin",
    which holds the s x k sample matrix without the sampleindex column.
    load_sample reads a table from its sidecar when the two still match, and
    from the CSV otherwise. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for st in sampledb.tables:
        fname = f"{st.name}.sample.csv"
        tagged = np.column_stack((np.arange(1, st.row_count + 1, dtype=np.int64), st.matrix()))
        csv = write_int_csv(out / fname, ("sampleindex", *st.column_names), tagged)
        write_sidecar(out / fname, csv, st.matrix())
        entries.append({"base": st.name, "file": fname, "columns": list(st.column_names)})
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


def load_sample(manifest_path: str | Path, domain: Domain | None = None) -> SampleDatabase:
    """Load a sample database previously written by save_sample.

    Each table comes from its sidecar (see save_sample) when
    tables.read_sidecar takes it, with the CSV's header sampleindex and the
    manifest's columns, and the sidecar's matrix is size x k, for the
    manifest's size and its k columns. The sidecar's digest then shows that
    save_sample wrote this CSV and this matrix together, so the CSV's
    sampleindex runs 1..size in order and its rows are the matrix's, without
    parsing it.

    Any other table is read from its CSV: a missing, short, stale or edited
    sidecar, or a sample written by hand. Its sampleindex values must be
    exactly 1..size, in any order; the rows are stored in sampleindex order.
    Both routes give the same tables and the same errors. Column domains are
    `domain` when given, and the [min, max] of the sampled values otherwise.
    An error in building a table, such as a sampled value outside `domain`,
    names the manifest and the table's file.
    """
    mp = Path(manifest_path)
    if not mp.is_file():
        raise FileNotFoundError(f"no such manifest: {mp}")
    size, seed, entries = _read_manifest(mp)
    tables = []
    for entry in entries:
        path = mp.parent / entry["file"]
        read = read_sidecar(path, ["sampleindex", *entry["columns"]])
        if read is not None and read[1].shape == (size, len(entry["columns"])):
            rows = read[1]
        else:
            rows = _read_sample_csv(path, entry["columns"], size)
        try:
            tables.append(SampleTable(entry["base"], [ColumnMeta(c, domain) for c in entry["columns"]], rows))
        except ValueError as exc:
            raise ValueError(f"{mp}: {entry['file']}: {exc}") from None
    try:
        return SampleDatabase(size, seed, tables)
    except ValueError as exc:
        raise ValueError(f"{mp}: {exc}") from None


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
