"""relation layer: domains, CSV ingestion/export, synthetic generators."""

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import sample_table
from selsample import sampling, tables
from selsample.sampling import create_sample, load_sample, save_sample
from selsample.tables import (
    ColumnMeta,
    CsvFormatError,
    Domain,
    Table,
    generate_correlated_table,
    generate_uniform_table,
    read_csv,
    read_int_csv,
    save_csv,
)

SCHEMA_0_10 = [ColumnMeta("C1", Domain(0, 10)), ColumnMeta("C2", Domain(0, 10))]


class TestDomain:
    def test_contains_is_inclusive(self):
        d = Domain(0, 10)
        assert 0 in d and 10 in d
        assert -1 not in d and 11 not in d

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Domain(5, 4)

    def test_bounds_must_fit_int64(self):
        Domain(-(2**63), 2**63 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            Domain(0, 2**63)
        with pytest.raises(ValueError, match="64-bit"):
            Domain(-(2**63) - 1, 0)


class TestTable:
    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="row 1"):
            Table("T", SCHEMA_0_10, [(1, 2, 3)])

    def test_domain_checked_with_location(self):
        with pytest.raises(ValueError, match=r"row 2, column C2"):
            Table("T", SCHEMA_0_10, [(1, 2), (3, 11)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("T", [ColumnMeta("C1", Domain(0, 1)), ColumnMeta("C1", Domain(0, 1))], [])

    def test_column_lookup(self):
        t = Table("T", SCHEMA_0_10, [(1, 2)])
        assert t.column_index("C2") == 1
        with pytest.raises(LookupError):
            t.column_index("C9")

    def test_matrix_matches_rows(self):
        t = Table("T", SCHEMA_0_10, [(1, 2), (3, 4)])
        assert t.matrix().tolist() == [[1, 2], [3, 4]]
        assert t.column_values("C2").tolist() == [2, 4]


class TestCsv:
    def test_three_row_identity(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,2\n3,4\n5,6\n")
        t = read_csv(p)
        assert t.row_count == 3
        assert t.rows == [(1, 2), (3, 4), (5, 6)]
        assert t.name == "t"

    def test_header_only_is_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n")
        assert read_csv(p, domain=Domain(0, 10)).row_count == 0

    def test_out_of_domain_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n11,2\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column C1"):
            read_csv(p, domain=Domain(0, 10))

    def test_non_integer_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,x\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column C2"):
            read_csv(p)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,WRONG\n1,2\n")
        with pytest.raises(CsvFormatError, match="header mismatch"):
            read_int_csv(p, ["C1", "C2"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "nope.csv")

    def test_round_trip_is_byte_identical(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("C1,C2\n1,2\n3,4\n")
        t = read_csv(src)
        dst = tmp_path / "dst.csv"
        save_csv(t, dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_read_csv_infers_domains(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("A,B\n1,5\n3,9\n")
        t = read_csv(p)
        assert t.column("A").domain == Domain(1, 3)
        assert t.column("B").domain == Domain(5, 9)

    def test_read_csv_empty_needs_domain(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("A,B\n")
        with pytest.raises(CsvFormatError, match="infer"):
            read_csv(p)
        assert read_csv(p, domain=Domain(0, 1)).row_count == 0

    def test_read_csv_value_outside_given_domain_names_the_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("C1,C2\n1,2\n3,40\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p, domain=Domain(0, 10))
        assert str(exc.value) == f"{p}: row 2, column C2: value 40 outside domain [0, 10]"

    def test_invalid_table_name_names_the_file(self, tmp_path):
        p = tmp_path / "my-table.csv"
        p.write_text("C1,C2\n1,2\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: invalid table name: 'my-table'"

    @pytest.mark.parametrize("cell", ["36893488147419103232", "9223372036854775808", "-9223372036854775809"])
    def test_cell_beyond_int64_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"C1,C2\n1,2\n3,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"row 2, column C2: value .* 64-bit"):
            read_csv(p)
        with pytest.raises(CsvFormatError, match=r"row 2, column C2: value .* 64-bit"):
            read_csv(p, domain=Domain(0, 10))

    def test_int64_extremes_and_leading_zeros_load(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n9223372036854775807,-9223372036854775808\n000000000000000000000007,1\n")
        assert read_csv(p).rows == [(2**63 - 1, -(2**63)), (7, 1)]


class TestUniformGenerator:
    def test_empty(self):
        t = generate_uniform_table("T", 0, 3, Domain(0, 10), seed=1)
        assert t.row_count == 0 and len(t.columns) == 3

    def test_deterministic(self):
        a = generate_uniform_table("T", 500, 2, Domain(0, 100), seed=7)
        b = generate_uniform_table("T", 500, 2, Domain(0, 100), seed=7)
        assert a == b

    def test_values_in_domain(self):
        t = generate_uniform_table("T", 2000, 2, Domain(-5, 5), seed=3)
        m = t.matrix()
        assert m.min() >= -5 and m.max() <= 5

    def test_mean_within_three_standard_errors(self):
        # Uniform on [0, 200000]: mean 100000, var ((hi-lo+1)^2 - 1)/12.
        n = 100_000
        t = generate_uniform_table("T", n, 2, Domain(0, 200000), seed=1)
        se = np.sqrt((200001**2 - 1) / 12 / n)
        for j in range(2):
            assert abs(t.matrix()[:, j].mean() - 100000) < 3 * se

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_uniform_table("T", -1, 2, Domain(0, 1), seed=0)
        with pytest.raises(ValueError):
            generate_uniform_table("T", 1, 0, Domain(0, 1), seed=0)


class TestCorrelatedGenerator:
    def test_empty(self):
        t = generate_correlated_table("T", 0, 0.0, [[1.0, 0.0], [0.0, 1.0]], Domain(-10, 10), seed=1)
        assert t.row_count == 0 and len(t.columns) == 2

    def test_deterministic(self):
        cov = [[9e8, 0.0], [0.0, 9e8]]
        a = generate_correlated_table("T", 300, 1e5, cov, Domain(0, 200000), seed=5)
        b = generate_correlated_table("T", 300, 1e5, cov, Domain(0, 200000), seed=5)
        assert a == b

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            generate_correlated_table("T", 10, 0.0, [[1.0, 2.0], [2.0, 1.0]], Domain(0, 10), seed=0)
        with pytest.raises(ValueError, match="symmetric"):
            generate_correlated_table("T", 10, 0.0, [[1.0, 0.5], [0.2, 1.0]], Domain(0, 10), seed=0)

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_empirical_correlation(self, rho):
        # Sample-correlation oracle: np.corrcoef on the generated columns.
        var = 9e8
        cov = [[var, rho * var], [rho * var, var]]
        t = generate_correlated_table("T", 100_000, 1e5, cov, Domain(0, 200000), seed=11)
        m = t.matrix()
        got = np.corrcoef(m[:, 0], m[:, 1])[0, 1]
        assert abs(got - rho) < 0.05

    def test_values_clamped_into_domain(self):
        t = generate_correlated_table("T", 5000, 0.0, [[1e6, 0.0], [0.0, 1e6]], Domain(-100, 100), seed=2)
        m = t.matrix()
        assert m.min() >= -100 and m.max() <= 100


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _random_matrix(rng, n: int, k: int) -> np.ndarray:
    """Cells drawn from the int64 extremes, small signed values and the full range."""
    pool = np.array([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX], dtype=np.int64)
    kind = rng.integers(0, 3, size=(n, k))
    return np.where(
        kind == 0,
        pool[rng.integers(0, pool.size, size=(n, k))],
        np.where(
            kind == 1,
            rng.integers(-1000, 1001, size=(n, k)),
            rng.integers(INT64_MIN, INT64_MAX, size=(n, k), dtype=np.int64, endpoint=True),
        ),
    )


class TestReaderRoundTrip:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (5, 1), (40, 2), (300, 4)])
    def test_save_then_read_is_exact(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        for trial in range(3):
            m = _random_matrix(rng, *shape)
            names = [f"C{j + 1}" for j in range(shape[1])]
            t = Table("t", [ColumnMeta(n, Domain(INT64_MIN, INT64_MAX)) for n in names], m)
            p = tmp_path / f"t{trial}.csv"
            save_csv(t, p)
            assert np.array_equal(read_csv(p).matrix(), m)
            assert np.array_equal(read_int_csv(p, names)[1], m)
            assert read_csv(p).rows == [tuple(r) for r in m.tolist()]

    def test_save_formats_cells_as_python_str(self, tmp_path):
        m = _random_matrix(np.random.default_rng(5), 50, 3)
        t = Table("t", [ColumnMeta(f"C{j}", Domain(INT64_MIN, INT64_MAX)) for j in range(3)], m)
        save_csv(t, tmp_path / "t.csv")
        expected = "C0,C1,C2\n" + "".join(",".join(str(v) for v in row) + "\n" for row in m.tolist())
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


# One malformed cell per case, after a valid row: the cell, then the exact
# message of read_csv (None: the cell is valid there) and of read_csv under
# the domain [0, 10]. The empty line checks that a blank line counts as a row.
_MALFORMED = [
    ("1,2,3", "row 2: 3 cells, expected 2", "row 2: 3 cells, expected 2"),
    ("1,", "row 2, column C2: not an integer: ''", "row 2, column C2: not an integer: ''"),
    (" 5,1", "row 2, column C1: not an integer: ' 5'", "row 2, column C1: not an integer: ' 5'"),
    ("+5,1", "row 2, column C1: not an integer: '+5'", "row 2, column C1: not an integer: '+5'"),
    ("1.0,1", "row 2, column C1: not an integer: '1.0'", "row 2, column C1: not an integer: '1.0'"),
    ("5-,1", "row 2, column C1: not an integer: '5-'", "row 2, column C1: not an integer: '5-'"),
    ("", "row 2: 1 cells, expected 2", "row 2: 1 cells, expected 2"),
    (
        "1,36893488147419103232",
        "row 2, column C2: value 36893488147419103232 outside the 64-bit integer range",
        "row 2, column C2: value 36893488147419103232 outside the 64-bit integer range",
    ),
    (
        "-09223372036854775809,1",
        "row 2, column C1: value -09223372036854775809 outside the 64-bit integer range",
        "row 2, column C1: value -09223372036854775809 outside the 64-bit integer range",
    ),
    ("3,11", None, "row 2, column C2: value 11 outside domain [0, 10]"),
]


class TestReaderMessages:
    @pytest.mark.parametrize("line,read_msg,domain_msg", _MALFORMED)
    def test_exact_message(self, tmp_path, line, read_msg, domain_msg):
        p = tmp_path / "t.csv"
        p.write_text(f"C1,C2\n1,2\n{line}\n3,4\n")
        if read_msg is not None:
            with pytest.raises(CsvFormatError) as exc:
                read_csv(p)
            assert str(exc.value) == f"{p}: {read_msg}"
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p, domain=Domain(0, 10))
        assert str(exc.value) == f"{p}: {domain_msg}"

    def test_error_after_many_valid_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n" + "1,2\n" * 1000 + "3,+4\n" + "5,6\n" * 10)
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: row 1001, column C2: not an integer: '+4'"

    def test_first_error_in_file_order(self, tmp_path):
        # A malformed row wins over a later out-of-domain cell.
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,2\n1,2,3\n11,1\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p, domain=Domain(0, 10))
        assert str(exc.value) == f"{p}: row 2: 3 cells, expected 2"

    def test_every_row_of_the_wrong_width(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,2,3\n4,5,6\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: row 1: 3 cells, expected 2"

    def test_non_ascii_digits_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n١٢,3\n4,5\n")
        assert read_csv(p).rows == [(12, 3), (4, 5)]

    def test_crlf_and_missing_final_newline(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"C1,C2\r\n1,2\r\n3,4")
        assert read_csv(p).rows == [(1, 2), (3, 4)]


def _any_cell(rng) -> str:
    return str(int(rng.integers(-(10**6), 10**6)))


def _padded_cell(rng) -> str:
    sign = "-" if rng.random() < 0.5 else ""
    return sign + "0" * int(rng.integers(1, 25)) + str(int(rng.integers(0, 10**6)))


_EXTREMES = [INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]

# Valid files, one property each: (columns, cell maker, line end, final newline).
_VALID_FILES = {
    "negative values": (2, lambda rng: str(int(rng.integers(-(10**9), 0))), "\n", True),
    "leading zeros": (2, _padded_cell, "\n", True),
    "minus zero": (2, lambda rng: str(rng.choice(["-0", "-00", "0", "-" + "0" * 30])), "\n", True),
    "int64 extremes": (2, lambda rng: str(rng.choice(_EXTREMES)), "\n", True),
    **{f"k={k}": (k, _any_cell, "\n", True) for k in range(1, 5)},
    "no final newline": (3, _any_cell, "\n", False),
    "crlf": (2, _any_cell, "\r\n", True),
}


class TestReaderRoutes:
    """The whole-file route (np.loadtxt on the path) against the row-by-row
    route, and what sends a file to each."""

    @pytest.mark.parametrize("case", list(_VALID_FILES))
    def test_whole_file_route_equals_row_by_row(self, tmp_path, case):
        k, cell, end, final = _VALID_FILES[case]
        rng = np.random.default_rng(len(case) * 10 + k)
        names = [f"C{j + 1}" for j in range(k)]
        p = tmp_path / "t.csv"
        for n in (1, 2, 7, 300):
            cells = [[cell(rng) for _ in range(k)] for _ in range(n)]
            text = end.join([",".join(names), *(",".join(row) for row in cells)])
            p.write_bytes((text + (end if final else "")).encode())
            want = np.array([[int(c) for c in row] for row in cells], dtype=np.int64)
            for columns in (None, names):
                whole = tables._read_whole(p, columns)
                assert whole is not None
                rows = tables._read_rows(p, p.read_text(), columns)
                assert whole[0] == rows[0] == names
                assert whole[1].shape == rows[1].shape == (n, k)
                assert np.array_equal(whole[1], rows[1]) and np.array_equal(whole[1], want)

    def test_written_files_take_the_whole_file_route(self, tmp_path, monkeypatch):
        # Without this, a silent fallback would keep every other test green.
        # Base tables take the whole-file route; sample tables, their sidecars.
        routes = {"whole": [], "sidecar": []}

        def spy(module, name, route):
            read = getattr(module, name)

            def spied(*args):
                result = read(*args)
                routes[route].append(result is not None)
                return result

            monkeypatch.setattr(module, name, spied)

        spy(tables, "_read_whole", "whole")
        spy(sampling, "_read_sidecar", "sidecar")
        t = generate_uniform_table("t", 500, 3, Domain(-50, 10**12), seed=4)
        save_csv(t, tmp_path / "t.csv")
        assert np.array_equal(read_csv(tmp_path / "t.csv").matrix(), t.matrix())
        assert read_csv(tmp_path / "t.csv", domain=Domain(-50, 10**12)) == t
        sdb = create_sample(200, [t, generate_uniform_table("u", 30, 1, Domain(0, 9), seed=5)], seed=9)
        loaded = load_sample(save_sample(sdb, tmp_path / "s"))
        for st in sdb.tables:
            assert np.array_equal(sample_table(loaded, st.name).matrix(), st.matrix())
        assert routes == {"whole": [True] * 2, "sidecar": [True] * 2}

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_with_a_compression_suffix(self, tmp_path, suffix):
        text = "C1,C2\n1,2\n-3,40\n"
        (tmp_path / "t.csv").write_text(text)
        (tmp_path / f"t.csv{suffix}").write_text(text)
        names, m = read_int_csv(tmp_path / f"t.csv{suffix}")
        want_names, want = read_int_csv(tmp_path / "t.csv")
        assert names == want_names and np.array_equal(m, want)

    @pytest.mark.parametrize("same_size", [False, True], ids=["longer", "same size"])
    def test_file_rewritten_during_the_parse(self, tmp_path, monkeypatch, same_size):
        # np.loadtxt takes " 5"; the checked bytes had "5" (or "15") there.
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,2\n15,1\n" if same_size else "C1,C2\n1,2\n5,1\n")
        mtime = os.stat(p).st_mtime_ns
        loadtxt = np.loadtxt

        def rewrite_then_load(fname, *args, **kwargs):
            Path(fname).write_text("C1,C2\n1,2\n 5,1\n")
            # A later write's time, even where the clock is coarser than one write.
            os.utime(fname, ns=(mtime + 10**9, mtime + 10**9))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewrite_then_load)
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: row 2, column C1: not an integer: ' 5'"

    @pytest.mark.parametrize(
        "body",
        [
            "1,2\r3,4\n",
            # numpy reads three lines, skips the blank one and keeps two: as
            # many as there are LFs.
            "1,2\r3,4\n\n",
            "1,2\n\n3,4\n",
            "\n1,2\n",
            "1,2\n3,4\n\n",
            "1,2\r\n\r\n3,4\r\n",
            # np.loadtxt would warn that the file holds no data.
            "\n\n",
            "١٢,3\n",
        ],
        ids=[
            "lone CR",
            "lone CR and a blank line",
            "blank line",
            "blank first line",
            "blank last line",
            "blank CRLF line",
            "only blank lines",
            "non-ASCII digits",
        ],
    )
    def test_row_by_row_route_takes_the_rest(self, tmp_path, body):
        p = tmp_path / "t.csv"
        p.write_bytes(("C1,C2\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tables._read_whole(p, None) is None


class TestImmutable:
    def test_matrix_and_columns_are_read_only(self):
        t = Table("T", SCHEMA_0_10, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="read-only"):
            t.matrix()[0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            t.column_values("C2")[1] = 5
        assert t.rows == [(1, 2), (3, 4)]

    def test_rows_is_a_derived_view(self):
        t = Table("T", SCHEMA_0_10, [(1, 2)])
        with pytest.raises(AttributeError):
            t.rows = [(3, 4)]
        t.rows.append((5, 6))
        assert t.rows == [(1, 2)] and t.row_count == 1
        assert t.matrix().tolist() == [[1, 2]]

    def test_callers_array_is_copied(self):
        data = np.array([[1, 2], [3, 4]], dtype=np.int64)
        t = Table("T", SCHEMA_0_10, data)
        assert data.flags.writeable
        data[0, 0] = 9
        assert t.rows == [(1, 2), (3, 4)]
        assert t.matrix().flags.f_contiguous and t.matrix().dtype == np.int64
        assert all(t.column_values(c).flags.c_contiguous for c in t.column_names)

    def test_every_way_of_making_a_table_is_column_major(self, tmp_path):
        rows = [(1, 2), (3, 4), (5, 6)]
        (tmp_path / "T.csv").write_text("C1,C2\n1,2\n3,4\n5,6\n")
        dom = Domain(0, 100)
        uniform = generate_uniform_table("U", 50, 3, dom, seed=2)
        uniform_rows = np.random.default_rng(2).integers(0, 101, size=(50, 3)).tolist()
        cov = [[9.0, 4.0], [4.0, 9.0]]
        correlated = generate_correlated_table("R", 40, 50.0, cov, dom, seed=3)
        draws = np.random.default_rng(3).multivariate_normal([50.0, 50.0], cov, size=40, method="cholesky")
        correlated_rows = np.clip(np.rint(draws), 0, 100).astype(np.int64).tolist()
        sdb = create_sample(7, [uniform, correlated], seed=5)
        rng = np.random.default_rng(5)
        sample_rows = [
            [base.rows[i] for i in rng.integers(0, base.row_count, size=7)] for base in (uniform, correlated)
        ]
        loaded = load_sample(save_sample(sdb, tmp_path / "s"))
        made = [
            (Table("T", SCHEMA_0_10, rows), rows),
            (Table("T", SCHEMA_0_10, np.array(rows, order="C")), rows),
            (Table("T", SCHEMA_0_10, np.array(rows, order="F")), rows),
            (read_csv(tmp_path / "T.csv"), rows),
            (read_csv(tmp_path / "T.csv", domain=Domain(0, 10)), rows),
            (uniform, uniform_rows),
            (correlated, correlated_rows),
            *zip(sdb.tables, sample_rows),
            *zip(loaded.tables, sample_rows),
        ]
        for t, want in made:
            m = t.matrix()
            assert m.dtype == np.int64 and m.flags.f_contiguous and not m.flags.writeable
            assert all(t.column_values(c).flags.c_contiguous for c in t.column_names)
            assert t.rows == [tuple(r) for r in want]

    def test_array_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            Table("T", SCHEMA_0_10, np.zeros((2, 3), dtype=np.int64))
