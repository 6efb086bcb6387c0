"""Index-aligned sampler: invariants, determinism, uniformity, persistence."""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_table, sample_table
from selsample import sampling, tables
from selsample.execution import estimate_all_nodes
from selsample.queries import parse_query
from selsample.sampling import SampleDatabase, SampleTable, create_sample, load_sample, save_sample
from selsample.tables import ColumnMeta, CsvFormatError, Domain, Table, read_sidecar


class TestCreateSample:
    def test_single_row_table_repeats(self):
        t = make_table("T", [(3, 4)])
        sdb = create_sample(3, [t], seed=1)
        st = sample_table(sdb, "T")
        assert st.rows == [(3, 4), (3, 4), (3, 4)]
        assert sorted(st.indexes) == [1, 2, 3]

    def test_index_sets_complete(self):
        a = make_table("A", [(0, 0), (1, 1), (2, 2)])
        b = make_table("B", [(5, 5), (4, 4)])
        sdb = create_sample(5, [a, b], seed=2)
        for st in sdb.tables:
            assert st.row_count == 5
            assert sorted(st.indexes) == [1, 2, 3, 4, 5]

    def test_rows_come_from_base(self):
        t = make_table("T", [(0, 1), (2, 3), (4, 5)])
        sdb = create_sample(64, [t], seed=9)
        base = set(t.rows)
        assert all(row in base for row in sample_table(sdb, "T").rows)

    def test_deterministic(self):
        t = make_table("T", [(0, 1), (2, 3), (4, 5)])
        a = create_sample(20, [t], seed=5)
        b = create_sample(20, [t], seed=5)
        assert sample_table(a, "T").rows == sample_table(b, "T").rows
        assert sample_table(create_sample(20, [t], seed=6), "T").rows != sample_table(a, "T").rows

    def test_appending_a_table_keeps_earlier_draws(self):
        a = make_table("A", [(i, i) for i in range(10)], domain=(0, 10))
        b = make_table("B", [(i, 0) for i in range(7)], domain=(0, 10))
        solo = create_sample(25, [a], seed=3)
        both = create_sample(25, [a, b], seed=3)
        assert sample_table(solo, "A").rows == sample_table(both, "A").rows

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sample_matrix_is_a_new_column_major_gather(self, data):
        bases = []
        for name in "ABC"[: data.draw(st.integers(1, 3))]:
            n, k = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4))
            values = data.draw(st.lists(st.integers(-9, 9), min_size=n * k, max_size=n * k))
            bases.append(Table(name, [ColumnMeta(f"C{j}") for j in range(k)], np.reshape(values, (n, k))))
        s = data.draw(st.integers(1, 3 * max(t.row_count for t in bases)))
        seed = data.draw(st.integers(0, 2**32))
        rng = np.random.default_rng(seed)
        for base, sample in zip(bases, create_sample(s, bases, seed).tables):
            m = sample.matrix()
            assert m.flags.f_contiguous and not m.flags.writeable
            assert not np.shares_memory(m, base.matrix())
            assert np.array_equal(m, base.matrix()[rng.integers(0, base.row_count, size=s)])

    def test_binomial_fraction(self):
        # Half the base rows carry value 1; sampled fraction of 1s at s=10^4
        # stays within 0.02 (4 binomial standard deviations) of 0.5.
        rows = [(1, 0)] * 500 + [(0, 0)] * 500
        t = make_table("T", rows, domain=(0, 1))
        sdb = create_sample(10_000, [t], seed=42)
        frac = sum(r[0] for r in sample_table(sdb, "T").rows) / 10_000
        assert abs(frac - 0.5) <= 0.02

    def test_uniformity_over_seeds(self):
        # Aggregate draw counts per base row over many seeds: each row's count
        # stays within 4 standard errors of its expectation.
        t = make_table("T", [(i, 0) for i in range(10)], domain=(0, 10))
        counts = np.zeros(10)
        seeds = range(50)
        s = 100
        for seed in seeds:
            sdb = create_sample(s, [t], seed=seed)
            for row in sample_table(sdb, "T").rows:
                counts[row[0]] += 1
        total = s * len(seeds)
        expected = total / 10
        se = np.sqrt(total * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) <= 4 * se)

    def test_preconditions(self):
        t = make_table("T", [(0, 0)])
        with pytest.raises(ValueError):
            create_sample(0, [t], seed=1)
        with pytest.raises(ValueError):
            create_sample(3, [], seed=1)
        with pytest.raises(ValueError, match="empty"):
            create_sample(3, [make_table("E", [])], seed=1)


class TestSampleTable:
    def test_index_multiset_enforced(self, tmp_path):
        # A repeat, 0-based indexes, a gap, too few rows and no rows.
        for k, body in enumerate(
            ["1,1,2\n1,3,4\n3,5,6\n", "0,1,2\n1,3,4\n2,5,6\n", "1,1,2\n2,3,4\n4,5,6\n", "2,1,2\n1,3,4\n", ""]
        ):
            manifest = _write_sample(tmp_path / str(k), body)
            with pytest.raises(ValueError) as exc:
                load_sample(manifest)
            assert str(exc.value) == (
                f"{tmp_path / str(k) / 't.sample.csv'}: sampleindex values must be exactly 1..3 with no repeats"
            )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        a = make_table("A", [(0, 1), (2, 3)])
        b = make_table("B", [(7, 8)], domain=(0, 10))
        sdb = create_sample(5, [a, b], seed=13)
        manifest = save_sample(sdb, tmp_path / "sample")
        loaded = load_sample(manifest)
        assert loaded.size == 5
        assert loaded.seed == 13
        for st, lt in zip(sdb.tables, loaded.tables):
            assert st.base == lt.base
            assert st.column_names == lt.column_names
            assert st.indexes == lt.indexes
            assert st.rows == lt.rows

    def test_resave_is_byte_identical(self, tmp_path):
        t = make_table("T", [(0, 1), (2, 3)])
        sdb = create_sample(4, [t], seed=3)
        m1 = save_sample(sdb, tmp_path / "one")
        m2 = save_sample(load_sample(m1), tmp_path / "two")
        assert m1.read_bytes() == m2.read_bytes()
        assert (tmp_path / "one" / "T.sample.csv").read_bytes() == (
            tmp_path / "two" / "T.sample.csv"
        ).read_bytes()

    def test_sample_csv_format(self, tmp_path):
        t = make_table("T", [(6, 7)], domain=(0, 10))
        sdb = create_sample(2, [t], seed=0)
        save_sample(sdb, tmp_path)
        text = (tmp_path / "T.sample.csv").read_text()
        assert text == "sampleindex,C1,C2\n1,6,7\n2,6,7\n"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sample(tmp_path / "absent.json")

    def test_failed_refresh_leaves_no_manifest(self, tmp_path, monkeypatch):
        # The refresh fails after the new CSV is written but before its
        # sidecar. The old manifest, were it kept, would pass the old seed
        # off with the new rows, which the CSV route reads past the stale
        # sidecar.
        t = make_table("T", [(v, 2 * v) for v in range(50)], domain=(0, 100))
        manifest = save_sample(create_sample(20, [t], seed=1), tmp_path)

        def write_sidecar(path, csv, matrix):
            raise OSError("disk full")

        monkeypatch.setattr(tables, "write_sidecar", write_sidecar)
        with pytest.raises(OSError, match="disk full"):
            save_sample(create_sample(20, [t], seed=2), tmp_path)
        with pytest.raises(FileNotFoundError):
            load_sample(manifest)

    def test_refresh_removes_the_files_of_dropped_tables(self, tmp_path):
        t = make_table("t", [(0, 1), (2, 3)])
        u = make_table("u", [(4, 5)], domain=(0, 10))
        save_sample(create_sample(50, [t, u], seed=1), tmp_path)
        save_sample(create_sample(50, [u], seed=1), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "u.sample.csv", "u.sample.csv.bin",
        ]
        assert [st.name for st in load_sample(tmp_path / "manifest.json").tables] == ["u"]

    def test_refresh_with_the_same_tables_removes_nothing(self, tmp_path):
        t = make_table("t", [(0, 1), (2, 3)])
        u = make_table("u", [(4, 5)], domain=(0, 10))
        save_sample(create_sample(50, [t, u], seed=1), tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        save_sample(create_sample(30, [u, t], seed=2), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert load_sample(tmp_path / "manifest.json").size == 30

    def test_refresh_removes_only_bare_sample_file_names(self, tmp_path):
        # A forged manifest must not steer the refresh to a file outside the
        # directory, nor to one that is not a sample CSV.
        out = tmp_path / "s"
        out.mkdir()
        victims = [tmp_path / "victim.sample.csv", out / "victim.csv"]
        for victim in victims:
            victim.write_text("keep me\n")
        entries = [{"base": "v", "file": f, "columns": ["C1"]} for f in ("../victim.sample.csv", "victim.csv")]
        (out / "manifest.json").write_text(json.dumps({"size": 1, "seed": 0, "tables": entries}))
        save_sample(create_sample(5, [make_table("t", [(0, 1)])], seed=1), out)
        for victim in victims:
            assert victim.read_text() == "keep me\n"

    def test_unreadable_old_manifest_removes_nothing(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[" * 100_000)
        (tmp_path / "old.sample.csv").write_text("sampleindex,C1\n1,0\n")
        save_sample(create_sample(5, [make_table("t", [(0, 1)])], seed=1), tmp_path)
        assert (tmp_path / "old.sample.csv").exists()
        assert load_sample(tmp_path / "manifest.json").size == 5


class TestSampleDatabase:
    def test_duplicate_base_rejected(self):
        t = make_table("T", [(0, 0)])
        st = sample_table(create_sample(2, [t], seed=1), "T")
        with pytest.raises(ValueError, match="distinct"):
            SampleDatabase(2, 1, [st, st])

    def test_size_mismatch_rejected(self):
        a = sample_table(create_sample(2, [make_table("A", [(0, 0)])], seed=1), "A")
        b = sample_table(create_sample(3, [make_table("B", [(0, 0)])], seed=1), "B")
        with pytest.raises(ValueError, match="rows"):
            SampleDatabase(2, 1, [a, b])


def _write_sample(d, body: str, size: int = 3, columns=("C1", "C2")):
    d.mkdir(parents=True, exist_ok=True)
    manifest = {"size": size, "seed": 0, "tables": [{"base": "t", "file": "t.sample.csv", "columns": list(columns)}]}
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "t.sample.csv").write_text("sampleindex," + ",".join(columns) + "\n" + body)
    return d / "manifest.json"


def _good_manifest() -> dict:
    return {"size": 3, "seed": 0, "tables": [{"base": "t", "file": "t.sample.csv", "columns": ["C1", "C2"]}]}


def _manifest_without(key: str) -> dict:
    manifest = _good_manifest()
    if key in manifest:
        del manifest[key]
    else:
        del manifest["tables"][0][key]
    return manifest


def _manifest_with(key: str, value) -> dict:
    manifest = _good_manifest()
    if key in manifest:
        manifest[key] = value
    else:
        manifest["tables"][0][key] = value
    return manifest


class TestManifestErrors:
    def _load(self, tmp_path, text: str) -> str:
        manifest = _write_sample(tmp_path, "1,1,2\n2,3,4\n3,5,6\n")
        manifest.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_sample(manifest)
        message = str(exc.value)
        assert message.startswith(f"{manifest}: ")
        return message

    def test_invalid_json(self, tmp_path):
        assert "not valid JSON" in self._load(tmp_path, '{"size": 3,\n')

    def test_json_nested_beyond_the_parser_is_invalid(self, tmp_path):
        assert "not valid JSON" in self._load(tmp_path, "[" * 100_000)

    def test_top_level_not_an_object(self, tmp_path):
        assert "not a JSON object" in self._load(tmp_path, "[3, 0]")

    @pytest.mark.parametrize("key", ["size", "seed", "tables"])
    def test_missing_top_level_key(self, tmp_path, key):
        assert repr(key) in self._load(tmp_path, json.dumps(_manifest_without(key)))

    @pytest.mark.parametrize("key", ["base", "file", "columns"])
    def test_table_entry_missing_key(self, tmp_path, key):
        message = self._load(tmp_path, json.dumps(_manifest_without(key)))
        assert message.endswith(f"table entry 0 has no {key!r}")

    @pytest.mark.parametrize("key", ["size", "seed"])
    @pytest.mark.parametrize("value", [None, "three", [3], 1e400, 500.7, True, False])
    def test_top_level_value_not_an_integer(self, tmp_path, key, value):
        message = self._load(tmp_path, json.dumps(_manifest_with(key, value)))
        assert message.endswith(f"{key!r} is not an integer: {value!r}")

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one(self, tmp_path, size):
        assert self._load(tmp_path, json.dumps(_manifest_with("size", size))).endswith("'size' must be at least 1")

    def test_invalid_base_name(self, tmp_path):
        message = self._load(tmp_path, json.dumps(_manifest_with("base", "t-1")))
        assert message.endswith("invalid table name: 't-1'")

    @pytest.mark.parametrize("count,message", [(0, "needs at least one table"), (2, "table names must be distinct")])
    def test_tables_empty_or_repeated(self, tmp_path, count, message):
        manifest = _good_manifest()
        manifest["tables"] *= count
        assert message in self._load(tmp_path, json.dumps(manifest))

    def test_repeated_base_is_refused_before_any_sample_file_is_read(self, tmp_path, monkeypatch):
        reads = []
        read_table_file = sampling.read_table_file

        def spied(path, *args):
            reads.append(path)
            return read_table_file(path, *args)

        monkeypatch.setattr(sampling, "read_table_file", spied)
        manifest = _good_manifest()
        manifest["tables"].append({"base": "t", "file": "u.sample.csv", "columns": ["C1", "C2"]})
        (tmp_path / "u.sample.csv").write_text("sampleindex,C1,C2\n1,1,2\n2,3,4\n3,5,6\n")
        message = self._load(tmp_path, json.dumps(manifest))
        assert message.endswith(": table names must be distinct: 't' is given more than once")
        assert reads == []

    def test_tables_not_a_list(self, tmp_path):
        assert self._load(tmp_path, json.dumps(_manifest_with("tables", {"t": 1}))).endswith("'tables' is not a list")

    @pytest.mark.parametrize("entry", ["t.sample.csv", ["t", "t.sample.csv", ["C1", "C2"]], None])
    def test_table_entry_not_an_object(self, tmp_path, entry):
        message = self._load(tmp_path, json.dumps(_manifest_with("tables", [entry])))
        assert message.endswith("table entry 0 is not an object")

    @pytest.mark.parametrize("key", ["base", "file"])
    @pytest.mark.parametrize("value", [None, 5, ["t"]])
    def test_table_entry_name_not_a_string(self, tmp_path, key, value):
        message = self._load(tmp_path, json.dumps(_manifest_with(key, value)))
        assert message.endswith(f"table entry 0: {key!r} is not a string")

    @pytest.mark.parametrize("value", [5, None, "C1,C2", ["C1", 2], {"C1": 0, "C2": 1}])
    def test_table_entry_columns_not_a_list_of_strings(self, tmp_path, value):
        message = self._load(tmp_path, json.dumps(_manifest_with("columns", value)))
        assert message.endswith("table entry 0: 'columns' is not a list of strings")

    def test_size_beyond_the_file_fails_before_allocating(self, tmp_path):
        # A size of 10**15 would need petabytes if 1..size were built first.
        manifest = _write_sample(tmp_path, "1,1,2\n2,3,4\n3,5,6\n", size=10**15)
        with pytest.raises(ValueError) as exc:
            load_sample(manifest)
        assert str(exc.value) == (
            f"{tmp_path / 't.sample.csv'}: sampleindex values must be exactly 1..{10**15} with no repeats"
        )

    def test_int_convertible_size_and_seed_load_as_before(self, tmp_path):
        manifest = _write_sample(tmp_path, "1,1,2\n2,3,4\n3,5,6\n")
        manifest.write_text(json.dumps({**_good_manifest(), "size": "3", "seed": 7.0}))
        sdb = load_sample(manifest)
        assert (sdb.size, sdb.seed) == (3, 7)
        assert sample_table(sdb, "t").rows == [(1, 2), (3, 4), (5, 6)]


class TestSampleReader:
    @pytest.mark.parametrize("cell", ["36893488147419103232", "-9223372036854775809"])
    def test_cell_beyond_int64_names_file_row_and_column(self, tmp_path, cell):
        manifest = _write_sample(tmp_path, f"1,1,2\n2,3,{cell}\n3,5,6\n")
        with pytest.raises(CsvFormatError) as exc:
            load_sample(manifest)
        assert str(exc.value) == (
            f"{tmp_path / 't.sample.csv'}: row 2, column C2: value {cell} outside the 64-bit integer range"
        )

    @pytest.mark.parametrize(
        "line,msg",
        [
            ("2,3,4,5", "row 2: 4 cells, expected 3"),
            ("2,3,", "row 2, column C2: not an integer: ''"),
            ("2, 5,1", "row 2, column C1: not an integer: ' 5'"),
            ("2,+5,1", "row 2, column C1: not an integer: '+5'"),
            ("2,1.0,1", "row 2, column C1: not an integer: '1.0'"),
        ],
    )
    def test_malformed_row_names_row_and_column(self, tmp_path, line, msg):
        manifest = _write_sample(tmp_path, f"1,1,2\n{line}\n3,5,6\n")
        with pytest.raises(CsvFormatError) as exc:
            load_sample(manifest)
        assert str(exc.value) == f"{tmp_path / 't.sample.csv'}: {msg}"

    def test_repeat_in_sampleindex_order_rejected(self, tmp_path):
        # In order, as save_sample writes it, yet not 1..3.
        manifest = _write_sample(tmp_path, "1,1,2\n2,3,4\n2,5,6\n")
        with pytest.raises(ValueError) as exc:
            load_sample(manifest)
        assert str(exc.value) == (
            f"{tmp_path / 't.sample.csv'}: sampleindex values must be exactly 1..3 with no repeats"
        )

    def test_index_permutation_checked(self, tmp_path):
        manifest = _write_sample(tmp_path, "1,1,2\n1,3,4\n3,5,6\n")
        with pytest.raises(ValueError, match=r"sampleindex values must be exactly 1\.\.3"):
            load_sample(manifest)

    def test_header_checked_against_manifest(self, tmp_path):
        manifest = _write_sample(tmp_path, "1,1,2\n")
        (tmp_path / "t.sample.csv").write_text("sampleindex,C2,C1\n1,1,2\n")
        with pytest.raises(CsvFormatError) as exc:
            load_sample(manifest)
        assert str(exc.value) == (
            f"{tmp_path / 't.sample.csv'}: header mismatch: "
            "expected 'sampleindex,C1,C2', got 'sampleindex,C2,C1'"
        )

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (7, 1), (200, 2)])
    def test_save_then_load_is_exact(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        n, k = shape
        lo, hi = -(2**63), 2**63 - 1
        m = rng.integers(lo, hi, size=(n, k), dtype=np.int64, endpoint=True)
        m[0, 0], m[-1, -1] = lo, hi
        cols = [ColumnMeta(f"C{j + 1}", Domain(lo, hi)) for j in range(k)]
        sdb = create_sample(300, [Table("T", cols, m)], seed=n)
        loaded = load_sample(save_sample(sdb, tmp_path / "s"))
        assert np.array_equal(sample_table(loaded, "T").matrix(), sample_table(sdb, "T").matrix())
        assert sample_table(loaded, "T").indexes == range(1, 301)

    @pytest.mark.parametrize("s", [9, 10, 99, 100, 1000])
    def test_sampleindex_across_a_power_of_ten(self, tmp_path, s, monkeypatch):
        t = make_table("T", [(-5, 0), (7, 120), (-300, 9)], domain=(-300, 120))
        sdb = create_sample(s, [t], seed=s)
        save_sample(sdb, tmp_path)
        expected = "sampleindex,C1,C2\n" + "".join(
            f"{i},{','.join(str(v) for v in row)}\n" for i, row in enumerate(sample_table(sdb, "T").matrix().tolist(), 1)
        )
        assert (tmp_path / "T.sample.csv").read_bytes() == expected.encode()

        def no_csv_route(*args):
            raise AssertionError("load_sample parsed the CSV")

        monkeypatch.setattr(tables, "read_int_csv", no_csv_route)
        loaded = load_sample(tmp_path / "manifest.json")
        assert (loaded.size, loaded.seed, loaded.tables) == _as_loaded(sdb)

    def test_shuffled_file_loads_in_sampleindex_order(self, tmp_path):
        rng = np.random.default_rng(17)
        a = make_table("A", rng.integers(0, 6, size=(40, 2)).tolist())
        b = make_table("B", rng.integers(0, 6, size=(30, 2)).tolist())
        sdb = create_sample(50, [a, b], seed=4)
        manifest = save_sample(sdb, tmp_path / "s")
        for name in ("A", "B"):
            path = tmp_path / "s" / f"{name}.sample.csv"
            header, *lines = path.read_text().splitlines()
            shuffled = [lines[i] for i in rng.permutation(len(lines))]
            path.write_text("\n".join([header, *shuffled]) + "\n")
        loaded = load_sample(manifest)
        for name in ("A", "B"):
            assert sample_table(loaded, name).rows == sample_table(sdb, name).rows
            assert sample_table(loaded, name).indexes == range(1, 51)
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 < B.C2 AND A.C2 >= 2 AND B.C1 <> 3", [a, b])
        assert estimate_all_nodes(loaded, plan, db=[a, b]) == estimate_all_nodes(sdb, plan, db=[a, b])


class TestSampleStorage:
    def test_stored_in_sampleindex_order(self, tmp_path):
        st = sample_table(load_sample(_write_sample(tmp_path, "2,20,5\n3,30,4\n1,10,6\n")), "t")
        assert st.rows == [(10, 6), (20, 5), (30, 4)]
        assert st.indexes == range(1, 4)
        assert st.matrix().tolist() == [[10, 6], [20, 5], [30, 4]]
        assert st.columns == (ColumnMeta("C1", Domain(10, 30)), ColumnMeta("C2", Domain(4, 6)))

    def test_read_only(self):
        st = sample_table(create_sample(4, [make_table("T", [(1, 2), (3, 4)])], seed=1), "T")
        with pytest.raises(ValueError, match="read-only"):
            st.matrix()[0, 0] = 5
        with pytest.raises(AttributeError):
            st.rows = ()
        with pytest.raises(AttributeError):
            st.indexes = range(4)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def _sample_dbs(draw):
    size = draw(st.integers(1, 12))
    cells = st.one_of(st.sampled_from([_INT64_MIN, _INT64_MAX, -1, 0]), st.integers(_INT64_MIN, _INT64_MAX))
    tables = []
    for name in draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)):
        k = draw(st.integers(1, 3))
        m = np.array(draw(st.lists(cells, min_size=size * k, max_size=size * k)), dtype=np.int64).reshape(size, k)
        tables.append(SampleTable(name, [ColumnMeta(f"C{j + 1}") for j in range(k)], m))
    return SampleDatabase(size, draw(st.integers(0, 2**32)), tables)


def _single_row_db() -> SampleDatabase:
    m = np.array([[_INT64_MIN, _INT64_MAX, -7]], dtype=np.int64)
    return SampleDatabase(1, 3, [SampleTable("A", [ColumnMeta(n) for n in ["C1", "C2", "C3"]], m)])


def _as_loaded(sdb: SampleDatabase):
    """What load_sample gives for a saved sdb: each column's domain is the
    [min, max] of its sampled values."""
    tables = [SampleTable(t.name, [ColumnMeta(n) for n in t.column_names], t.matrix()) for t in sdb.tables]
    return sdb.size, sdb.seed, tuple(tables)


def _loaded(manifest: Path):
    """What load_sample gives: size, seed and tables, or the error text."""
    try:
        sdb = load_sample(manifest)
    except ValueError as exc:
        return str(exc)
    return sdb.size, sdb.seed, sdb.tables


def _csv_route(manifest: Path):
    """What load_sample gives from the CSV files alone."""
    for sidecar in manifest.parent.glob("*.bin"):
        sidecar.unlink()
    return _loaded(manifest)


def _flip_payload_byte(d: Path) -> None:
    p = d / "A.sample.csv.bin"
    data = bytearray(p.read_bytes())
    data[40] ^= 1
    p.write_bytes(bytes(data))


def _earlier_format(d: Path) -> None:
    # The sidecar as first written: SHA-256 over the CSV and the payload, then the payload.
    p = d / "A.sample.csv.bin"
    payload = p.read_bytes()[24:-32]
    p.write_bytes(hashlib.sha256((d / "A.sample.csv").read_bytes() + payload).digest() + payload)


def _previous_format(d: Path) -> None:
    # The tag SELSBIN1 and one serial SHA-256 stream over the CSV, the head and the payload.
    p = d / "A.sample.csv.bin"
    body = b"SELSBIN1" + p.read_bytes()[8:-32]
    p.write_bytes(body + hashlib.sha256((d / "A.sample.csv").read_bytes() + body).digest())


def _reorder_rows(d: Path) -> None:
    p = d / "A.sample.csv"
    header, *lines = p.read_text().splitlines()
    p.write_text("\n".join([header, *reversed(lines)]) + "\n")


def _edit_manifest(key: str, value):
    def edit(d: Path) -> None:
        manifest = json.loads((d / "manifest.json").read_text())
        if key in manifest:
            manifest[key] = value
        else:
            manifest["tables"][0][key] = value
        (d / "manifest.json").write_text(json.dumps(manifest))

    return edit


class TestSidecar:
    @given(_sample_dbs())
    @example(_single_row_db())
    @settings(max_examples=60, deadline=None)
    def test_sidecar_route_equals_csv_route(self, sdb):
        with tempfile.TemporaryDirectory() as d:
            manifest = save_sample(sdb, Path(d))
            for t in sdb.tables:
                path = Path(d) / f"{t.name}.sample.csv"
                names, m = read_sidecar(path, ["sampleindex", *t.column_names])
                assert names == ["sampleindex", *t.column_names] and np.array_equal(m, t.matrix())
            assert _loaded(manifest) == _csv_route(manifest) == _as_loaded(sdb)

    def test_sidecar_layout(self, tmp_path):
        sdb = create_sample(2, [make_table("T", [(6, -7)], domain=(-10, 10))], seed=0)
        save_sample(sdb, tmp_path)
        data = (tmp_path / "T.sample.csv.bin").read_bytes()
        # The tag, the shape (2, 2), the payload without sampleindex, the
        # root digest over the head and the two leaves.
        head = b"SELSBIN2" + bytes([2] + [0] * 7 + [2] + [0] * 7)
        payload = np.array([6, 6, -7, -7], dtype="<i8").tobytes()
        assert data[:-32] == head + payload
        csv = b"sampleindex,C1,C2\n1,6,-7\n2,6,-7\n"
        assert (tmp_path / "T.sample.csv").read_bytes() == csv
        leaves = hashlib.sha256(csv).digest() + hashlib.sha256(payload).digest()
        assert data[-32:] == hashlib.sha256(head + leaves).digest()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: (d / "A.sample.csv.bin").unlink(), None),
            (lambda d: (d / "A.sample.csv.bin").write_bytes((d / "A.sample.csv.bin").read_bytes()[:-8]), None),
            (_flip_payload_byte, None),
            (_earlier_format, None),
            (_previous_format, None),
            (_reorder_rows, None),
            (_edit_manifest("size", 41), "A.sample.csv: sampleindex values must be exactly 1..41 with no repeats"),
            (
                _edit_manifest("columns", ["C2", "C1"]),
                "A.sample.csv: header mismatch: expected 'sampleindex,C2,C1', got 'sampleindex,C1,C2'",
            ),
        ],
        ids=[
            "deleted",
            "truncated",
            "payload byte flipped",
            "earlier format",
            "previous format",
            "rows reordered",
            "size edited",
            "columns edited",
        ],
    )
    def test_mismatched_sidecar_takes_the_csv_route(self, tmp_path, edit, message):
        rng = np.random.default_rng(5)
        a = make_table("A", rng.integers(-50, 50, size=(30, 2)).tolist(), domain=(-50, 50))
        b = make_table("B", rng.integers(0, 9, size=(20, 1)).tolist(), domain=(0, 9), num_columns=1)
        sdb = create_sample(40, [a, b], seed=8)
        manifest = save_sample(sdb, tmp_path)
        edit(tmp_path)
        loaded = _loaded(manifest)
        if message is None:
            assert loaded == _as_loaded(sdb)
        else:
            assert loaded == f"{tmp_path / message}"
        assert loaded == _csv_route(manifest)

    @pytest.mark.parametrize("shape", [(0, 2**63), (2**63, 0)], ids=["k beyond the header", "k is 0"])
    def test_forged_shape_takes_the_csv_route(self, tmp_path, shape):
        # A sidecar with a matching digest whose shape holds no cells.
        manifest = tmp_path / "manifest.json"
        entry = {"base": "A", "file": "A.sample.csv", "columns": ["C1"]}
        manifest.write_text(json.dumps({"size": 1, "seed": 0, "tables": [entry]}))
        csv = b"sampleindex,C1\n"
        (tmp_path / "A.sample.csv").write_bytes(csv)
        head = b"SELSBIN2" + struct.pack("<QQ", *shape)
        leaves = hashlib.sha256(csv).digest() + hashlib.sha256(b"").digest()
        (tmp_path / "A.sample.csv.bin").write_bytes(head + hashlib.sha256(head + leaves).digest())
        want = f"{tmp_path / 'A.sample.csv'}: sampleindex values must be exactly 1..1 with no repeats"
        assert _loaded(manifest) == want == _csv_route(manifest)
