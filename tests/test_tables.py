"""relation layer: domains, CSV ingestion/export, synthetic generators."""

import hashlib
import os
import shutil
import struct
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample_table
from selsample import tables
from selsample.sampling import create_sample, load_sample, save_sample
from selsample.tables import (
    ColumnMeta,
    CsvFormatError,
    Domain,
    Table,
    generate_correlated_table,
    generate_uniform_table,
    int_matrix,
    read_csv,
    read_int_csv,
    save_csv,
    write_int_csv,
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

    def test_first_bad_cell_in_column_major_order(self):
        with pytest.raises(ValueError, match=r"^row 2, column C1: value 11 outside domain \[0, 10\]$"):
            Table("T", SCHEMA_0_10, [(1, 12), (11, 2), (12, 3)])

    def test_span_and_undeclared_domains(self):
        t = Table("T", [ColumnMeta("C1", Domain(-5, 50)), ColumnMeta("C2")], [(1, 9), (3, -4), (2, 7)])
        assert (t.span("C1"), t.span("C2")) == (Domain(1, 3), Domain(-4, 9))
        assert t.columns == (ColumnMeta("C1", Domain(-5, 50)), ColumnMeta("C2", Domain(-4, 9)))
        with pytest.raises(LookupError):
            t.span("C3")

    def test_empty_table(self):
        t = Table("T", SCHEMA_0_10, [])
        assert t.span("C2") == Domain(0, 10)
        with pytest.raises(ValueError, match="cannot infer domains of an empty table"):
            Table("T", [ColumnMeta("C1", Domain(0, 1)), ColumnMeta("C2")], [])

    def test_invalid_column_name_rejected(self):
        with pytest.raises(ValueError, match="^invalid column name: '1C'$"):
            ColumnMeta("1C")

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="^a table needs at least one column$"):
            Table("T", [], [])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("T", [ColumnMeta("C1", Domain(0, 1)), ColumnMeta("C1", Domain(0, 1))], [])

    def test_not_equal_to_a_non_table(self):
        t = Table("T", SCHEMA_0_10, [(1, 2)])
        assert t.__eq__(1) is NotImplemented
        assert (t == 1) is False and (t != 1) is True

    def test_column_lookup(self):
        t = Table("T", SCHEMA_0_10, [(1, 2)])
        assert t.column_index("C2") == 1
        with pytest.raises(LookupError):
            t.column_index("C9")

    def test_matrix_matches_rows(self):
        t = Table("T", SCHEMA_0_10, [(1, 2), (3, 4)])
        assert t.matrix().tolist() == [[1, 2], [3, 4]]
        assert t.column_values("C2").tolist() == [2, 4]


class TestIntMatrix:
    """int_matrix converts exactly, or raises ValueError."""

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[2**63]], dtype=np.uint64),
            np.array([[1.7]]),
            [[1.7]],
            np.array([["12"]]),
            [[2**63]],
            [[-(2**63) - 1]],
        ],
        ids=["uint64 array beyond int64", "float array", "float row", "string array", "row beyond int64", "row below int64"],
    )
    def test_inexact_input_raises(self, rows):
        with pytest.raises(ValueError):
            int_matrix(rows, 1)
        with pytest.raises(ValueError):
            Table("T", [ColumnMeta("C1")], rows)

    def test_exact_input_converts(self):
        top = 2**63 - 1
        for rows in (np.array([[top]], dtype=np.uint64), [[np.uint64(top)]], [[top]]):
            assert int_matrix(rows, 1).tolist() == [[top]]
        assert int_matrix(np.array([[-128, 127]], np.int8), 2).tolist() == [[-128, 127]]
        assert int_matrix([[np.int32(-5), -(2**63)], (True, 0)], 2).tolist() == [[-5, -(2**63)], [1, 0]]


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

    def test_empty_file_and_invalid_header_name(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: empty file, missing header row"
        p.write_text("C1,2x\n1,2\n")
        with pytest.raises(CsvFormatError) as exc:
            read_csv(p)
        assert str(exc.value) == f"{p}: invalid column name in header: '2x'"

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

    def test_negative_row_count_rejected(self):
        with pytest.raises(ValueError, match="^row count must be non-negative$"):
            generate_correlated_table("T", -1, 0.0, [[1.0, 0.0], [0.0, 1.0]], Domain(0, 10), seed=0)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            generate_correlated_table("T", 10, 0.0, [[1.0, 2.0], [2.0, 1.0]], Domain(0, 10), seed=0)

    def test_asymmetric_covariance_rejected(self):
        # 2x2, finite, and Cholesky reads only the lower triangle, so only the
        # symmetry check can refuse it.
        cov = [[1.0, 0.5], [0.2, 1.0]]
        np.linalg.cholesky(np.array(cov))
        with pytest.raises(ValueError, match=r"^covariance must be a symmetric 2x2 matrix$"):
            generate_correlated_table("T", 10, 0.0, cov, Domain(0, 10), seed=0)

    @pytest.mark.parametrize(
        "mu,cov",
        [
            (0.0, [[np.inf, 0.0], [0.0, np.inf]]),
            (np.inf, [[1.0, 0.0], [0.0, 1.0]]),
            (np.nan, [[1.0, 0.0], [0.0, 1.0]]),
            (0.0, [[np.nan, 0.0], [0.0, 1.0]]),
            (0.0, [[1.0, -np.inf], [-np.inf, 1.0]]),
        ],
        ids=["cov inf", "mu inf", "mu nan", "cov nan", "cov12 -inf"],
    )
    def test_non_finite_input_rejected(self, mu, cov):
        with pytest.raises(ValueError, match="^mu and the covariance entries must be finite$"):
            generate_correlated_table("T", 5, mu, cov, Domain(0, 200000), seed=0)

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


def _cells_of_width(rng, width: int, n: int = 60) -> np.ndarray:
    """Columns whose widest cell, written, has `width` characters: a
    non-negative one (width <= 19) and a mixed and an all-negative one
    (width >= 2). Every shorter length appears too, so cells cross each power
    of ten below the widest."""
    cols = []
    if width <= 19:
        hi = min(10**width - 1, INT64_MAX)
        cols.append([hi, 10 ** (width - 1)] + [hi // 10**e for e in range(width)])
    if width >= 2:
        lo = max(-(10 ** (width - 1) - 1), INT64_MIN)
        cols.append([lo, 0, -1] + [lo // 10**e if e % 2 == 0 else -(lo // 10**e) for e in range(width - 1)])
        cols.append([lo, -(10 ** (width - 2))] + [-(-lo // 10**e) for e in range(width - 1)])
    return np.column_stack([np.resize(rng.permutation(np.array(c, dtype=np.int64)), n) for c in cols])


_WRITER_CASES = {
    "int64-extremes": np.array([[INT64_MIN, INT64_MAX], [INT64_MAX, INT64_MIN], [0, -1], [1, 0]], dtype=np.int64),
    "negative-mixed-nonnegative": np.array([[-1, 5, 0], [-40, -3, 12], [-999, 0, 7]], dtype=np.int64),
    "all-zero-column": np.array([[0, 5], [0, -60], [0, 0]], dtype=np.int64),
    "single-column": np.array([[7], [-30], [0], [1000]], dtype=np.int64),
    "zero-rows": np.empty((0, 3), dtype=np.int64),
    **{f"width-{w}": _cells_of_width(np.random.default_rng(w), w) for w in range(1, 21)},
}


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

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("case", sorted(_WRITER_CASES))
    def test_writer_bytes_equal_str(self, tmp_path, case, layout):
        m = _WRITER_CASES[case]
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "strided":
            m = np.zeros((2 * m.shape[0], 3 * m.shape[1]), np.int64)[::2, 1::3]
            m[...] = _WRITER_CASES[case]
            assert m.size == 0 or not (m.flags.c_contiguous or m.flags.f_contiguous)
        names = [f"C{j}" for j in range(m.shape[1])]
        expected = ",".join(names) + "\n" + "".join(",".join(str(v) for v in row) + "\n" for row in m.tolist())
        assert write_int_csv(tmp_path / "t.csv", names, m) == expected.encode()
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

    @staticmethod
    def _spy_routes(monkeypatch) -> dict[str, list[bool]]:
        """Record, per route, whether each read through it gave a table."""
        routes = {"whole": [], "sidecar": []}

        def spy(name, route):
            read = getattr(tables, name)

            def spied(*args):
                result = read(*args)
                routes[route].append(result is not None)
                return result

            monkeypatch.setattr(tables, name, spied)

        spy("_read_whole", "whole")
        spy("read_sidecar", "sidecar")
        return routes

    def test_written_files_take_the_sidecar_route(self, tmp_path, monkeypatch):
        # Without this, a silent fallback would keep every other test green.
        # Base and sample tables that selsample wrote take their sidecars.
        routes = self._spy_routes(monkeypatch)
        t = generate_uniform_table("t", 500, 3, Domain(-50, 10**12), seed=4)
        save_csv(t, tmp_path / "t.csv")
        assert np.array_equal(read_csv(tmp_path / "t.csv").matrix(), t.matrix())
        assert read_csv(tmp_path / "t.csv", domain=Domain(-50, 10**12)) == t
        sdb = create_sample(200, [t, generate_uniform_table("u", 30, 1, Domain(0, 9), seed=5)], seed=9)
        loaded = load_sample(save_sample(sdb, tmp_path / "s"))
        for st in sdb.tables:
            assert np.array_equal(sample_table(loaded, st.name).matrix(), st.matrix())
        assert routes == {"whole": [], "sidecar": [True] * 4}

    def test_written_files_take_the_whole_file_route(self, tmp_path, monkeypatch):
        # A written base table whose sidecar is gone is read whole, not row by row.
        routes = self._spy_routes(monkeypatch)
        t = generate_uniform_table("t", 500, 3, Domain(-50, 10**12), seed=4)
        save_csv(t, tmp_path / "t.csv")
        (tmp_path / "t.csv.bin").unlink()
        assert np.array_equal(read_csv(tmp_path / "t.csv").matrix(), t.matrix())
        assert read_csv(tmp_path / "t.csv", domain=Domain(-50, 10**12)) == t
        assert routes == {"whole": [True] * 2, "sidecar": [False] * 2}

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


def _tree_digest(csv: bytes, head: bytes, payload: bytes) -> bytes:
    """The sidecar's root: SHA-256 over the tag and the shape, then the
    SHA-256 of the CSV's bytes and that of the payload."""
    return hashlib.sha256(head + hashlib.sha256(csv).digest() + hashlib.sha256(payload).digest()).digest()


def _serial_digest(csv: bytes, head: bytes, payload: bytes) -> bytes:
    """The previous format's digest: one SHA-256 over the CSV's bytes, the
    tag, the shape and the payload."""
    return hashlib.sha256(csv + head + payload).digest()


def _sidecar_bytes(
    csv: bytes, m: np.ndarray, tag: bytes = b"SELSBIN2", shape=None, order="F", digest=_tree_digest
) -> bytes:
    """A sidecar laid out by the format, with a matching digest: the tag, the
    shape (n, k) as two little-endian uint64, the matrix as little-endian
    int64, then the digest."""
    head = tag + struct.pack("<QQ", *(m.shape if shape is None else shape))
    payload = m.astype("<i8").tobytes(order=order)
    return head + payload + digest(csv, head, payload)


def _forge(p: Path, m: np.ndarray, **layout) -> Path:
    p.with_name(p.name + ".bin").write_bytes(_sidecar_bytes(p.read_bytes(), m, **layout))
    return p


def _read(p: Path, domain: Domain | None = None):
    """read_csv's table, or the type and text of its error."""
    try:
        return read_csv(p, domain)
    except (ValueError, OSError) as exc:
        return type(exc).__name__, str(exc)


def _csv_route(p: Path, domain: Domain | None = None):
    """What read_csv gives with the sidecar deleted."""
    p.with_name(p.name + ".bin").unlink(missing_ok=True)
    return _read(p, domain)


@st.composite
def _saved_tables(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    cells = st.one_of(
        st.sampled_from(_EXTREMES), st.integers(-1000, -1), st.integers(INT64_MIN, INT64_MAX)
    )
    return _full_range_table(np.array(draw(st.lists(cells, min_size=n * k, max_size=n * k)), dtype=np.int64).reshape(n, k))


def _full_range_table(m: np.ndarray) -> Table:
    return Table("t", [ColumnMeta(f"C{j + 1}", Domain(INT64_MIN, INT64_MAX)) for j in range(m.shape[1])], m)


_T = np.array([[-100, 7], [3, -4], [100, 0], [-1, 55]], dtype=np.int64)


def _edit_cell(d: Path) -> Path:
    p = d / "t.csv"
    p.write_text(p.read_text().replace("\n3,-4\n", "\n3,-5\n"))
    return p


def _truncate_sidecar(d: Path) -> Path:
    (d / "t.csv.bin").write_bytes((d / "t.csv.bin").read_bytes()[:-8])
    return d / "t.csv"


def _sidecar_of(name: str):
    def copy(d: Path) -> Path:
        shutil.copyfile(d / f"{name}.csv.bin", d / "t.csv.bin")
        return d / "t.csv"

    return copy


def _edit_sidecar(edit):
    def apply(d: Path) -> Path:
        (d / "t.csv.bin").write_bytes(edit(bytearray((d / "t.csv.bin").read_bytes())))
        return d / "t.csv"

    return apply


def _flip_first_payload_byte(data: bytearray) -> bytearray:
    data[len(b"SELSBIN1") + 16] ^= 1
    return data


def _earlier_sidecar_format(d: Path) -> Path:
    # The sample sidecar's earlier format: SHA-256 over the CSV and the payload, then the payload.
    p = d / "t.csv"
    payload = _T.astype("<i8").tobytes(order="F")
    (d / "t.csv.bin").write_bytes(hashlib.sha256(p.read_bytes() + payload).digest() + payload)
    return p


def _invalid_header(d: Path) -> Path:
    p = d / "t.csv"
    p.write_text(p.read_text().replace("C1,C2", "C1,2x", 1))
    return _forge(p, _T)


def _sample_csv(name: str):
    def copy(d: Path) -> Path:
        for suffix in ("", ".bin"):
            shutil.copyfile(d / "s" / f"t.sample.csv{suffix}", d / f"{name}{suffix}")
        return d / name

    return copy


class TestSidecar:
    """save_csv's binary sidecar against the CSV it stands for."""

    @given(_saved_tables())
    @example(_full_range_table(np.zeros((0, 2), np.int64)))
    @settings(max_examples=60, deadline=None)
    def test_sidecar_route_equals_csv_route(self, t):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.csv"
            save_csv(t, p)
            assert (Path(d) / "t.csv.bin").read_bytes() == _sidecar_bytes(p.read_bytes(), t.matrix())
            names, m = tables.read_sidecar(p)
            assert names == list(t.column_names) and np.array_equal(m, t.matrix())
            domains = (None, Domain(INT64_MIN, INT64_MAX))
            via_sidecar = [_read(p, domain) for domain in domains]
            assert via_sidecar == [_csv_route(p, domain) for domain in domains]
            assert via_sidecar[1] == t
            if t.row_count == 0:
                assert via_sidecar[0] == (
                    "CsvFormatError", f"{p}: cannot infer domains of an empty table; supply a domain"
                )

    @pytest.mark.parametrize(
        "edit",
        [
            _edit_cell,
            _truncate_sidecar,
            _sidecar_of("v"),
            _sidecar_of("u"),
            _earlier_sidecar_format,
            # A tag that is not the current one over a row-major payload, with a matching digest.
            lambda d: _forge(d / "t.csv", _T, tag=b"SELSBIN3", order="C"),
            # The previous format: its tag and one serial SHA-256 stream.
            lambda d: _forge(d / "t.csv", _T, tag=b"SELSBIN1", digest=_serial_digest),
            lambda d: _forge(d / "t.csv", _T[:-1], shape=_T.shape),
            _edit_sidecar(_flip_first_payload_byte),
            _edit_sidecar(lambda data: data + b"\0"),
            _edit_sidecar(lambda data: data[:-1]),
            _invalid_header,
            lambda d: d / "s" / "t.sample.csv",
            _sample_csv("ts.csv"),
        ],
        ids=[
            "edited CSV",
            "truncated sidecar",
            "sidecar of another table",
            "sidecar of another shape",
            "earlier sample sidecar format",
            "another format tag",
            "previous format",
            "shape beyond the payload",
            "payload byte flipped",
            "byte appended",
            "digest cut short",
            "invalid header",
            "sample CSV",
            "sample CSV under a table name",
        ],
    )
    def test_mismatched_sidecar_takes_the_csv_route(self, tmp_path, edit):
        for name, m in (("t", _T), ("v", _T[::-1] * 2), ("u", np.arange(12).reshape(4, 3))):
            save_csv(Table(name, [ColumnMeta(f"C{j + 1}") for j in range(m.shape[1])], m), tmp_path / f"{name}.csv")
        save_sample(create_sample(6, [read_csv(tmp_path / "t.csv")], seed=3), tmp_path / "s")
        p = edit(tmp_path)
        assert _read(p) == _csv_route(p)

    @pytest.mark.parametrize(
        "edit",
        [lambda data: data[:40], lambda data: data[:-1], lambda data: data + b"\0"],
        ids=["payload cut short", "digest cut short", "byte appended"],
    )
    def test_sidecar_resized_while_read(self, tmp_path, monkeypatch, edit):
        # The sidecar keeps the size it had when its length was checked, then
        # changes: the reads after that check see the change.
        p = tmp_path / "t.csv"
        save_csv(Table("t", [ColumnMeta("C1"), ColumnMeta("C2")], _T), p)
        side = tmp_path / "t.csv.bin"
        size = side.stat().st_size
        side.write_bytes(edit(side.read_bytes()))
        monkeypatch.setattr(tables.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        assert tables.read_sidecar(p) is None
        monkeypatch.undo()
        assert _read(p) == _csv_route(p)

    @pytest.mark.parametrize(
        "header,shape", [("C1,C2\n", (0, 2**63)), ("C1\n", (2**63, 0))], ids=["k beyond the header", "k is 0"]
    )
    def test_forged_shape_takes_the_csv_route(self, tmp_path, header, shape):
        # The digest matches, and the recorded shape holds no cells, so it
        # passes the length check; the header refuses it.
        p = tmp_path / "t.csv"
        p.write_text(header)
        _forge(p, np.zeros((0, 1), np.int64), shape=shape)
        assert tables.read_sidecar(p) is None
        want = ("CsvFormatError", f"{p}: cannot infer domains of an empty table; supply a domain")
        assert _read(p) == want == _csv_route(p)

    def test_header_longer_than_the_hash_chunk(self, tmp_path, monkeypatch):
        routes = TestReaderRoutes._spy_routes(monkeypatch)
        k = 12_000
        t = Table("t", [ColumnMeta(f"C{j + 1}") for j in range(k)], np.arange(2 * k).reshape(2, k))
        p = tmp_path / "t.csv"
        save_csv(t, p)
        assert p.read_bytes().index(b"\n") > tables._HASH_CHUNK
        assert _read(p) == t == _csv_route(p)
        assert routes == {"whole": [True], "sidecar": [True, False]}

    _FLIPS = {
        "CSV leaf, first row": ("t.csv", lambda data: data.index(b"\n") + 1),
        "CSV leaf, last piece": ("t.csv", lambda data: len(data) - 2),
        "payload leaf, first byte": ("t.csv.bin", lambda data: tables._SIDECAR_HEAD),
        "payload leaf, last byte": ("t.csv.bin", lambda data: len(data) - tables._DIGEST_BYTES - 1),
    }

    @pytest.mark.parametrize("case", list(_FLIPS))
    def test_flipped_byte_in_a_leaf_is_refused(self, tmp_path, case):
        name, where = self._FLIPS[case]
        p = tmp_path / "t.csv"
        save_csv(generate_uniform_table("t", 20_000, 2, Domain(0, 200_000), seed=3), p)
        assert p.stat().st_size > 2 * tables._HASH_CHUNK
        data = bytearray((tmp_path / name).read_bytes())
        at = where(data)
        # A CSV digit stays a digit, so the CSV still parses.
        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10 if name == "t.csv" else data[at] ^ 1
        (tmp_path / name).write_bytes(data)
        assert tables.read_sidecar(p) is None
        assert _read(p) == _csv_route(p)

    @pytest.mark.parametrize(
        "error", [OSError(5, "Input/output error"), MemoryError()], ids=["OSError gives None", "another error is raised"]
    )
    def test_error_in_the_csv_leaf(self, tmp_path, monkeypatch, error):
        p = tmp_path / "t.csv"
        save_csv(generate_uniform_table("t", 2_000, 2, Domain(0, 200_000), seed=3), p)
        readers = []
        real_open = open

        class Unreadable:
            """The CSV file, whose readinto fails."""

            def __init__(self, f):
                self._f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def readline(self):
                return self._f.readline()

            def readinto(self, buffer):
                readers.append(threading.current_thread())
                raise error

        def open_csv(file, *args, **kwargs):
            f = real_open(file, *args, **kwargs)
            return Unreadable(f) if Path(file) == p else f

        monkeypatch.setattr(tables, "open", open_csv, raising=False)
        threads = threading.active_count()
        if isinstance(error, OSError):
            assert tables.read_sidecar(p) is None
        else:
            with pytest.raises(MemoryError):
                tables.read_sidecar(p)
        assert threading.active_count() == threads
        assert len(readers) == 1 and readers[0] is not threading.current_thread()
        monkeypatch.undo()
        assert _read(p) == _csv_route(p)

    def test_no_thread_can_start(self, tmp_path, monkeypatch):
        starts = []

        def refuse(thread):
            starts.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        t = generate_uniform_table("t", 20_000, 2, Domain(0, 200_000), seed=3)
        p = tmp_path / "t.csv"
        save_csv(t, p)
        names, m = tables.read_sidecar(p)
        assert names == ["C1", "C2"] and np.array_equal(m, t.matrix())
        assert len(starts) == 2
        monkeypatch.undo()
        assert (tmp_path / "t.csv.bin").read_bytes() == _sidecar_bytes(p.read_bytes(), t.matrix())

    def test_concurrent_reads_of_one_file(self, tmp_path, monkeypatch):
        routes = TestReaderRoutes._spy_routes(monkeypatch)
        t = generate_uniform_table("t", 20_000, 2, Domain(0, 200_000), seed=3)
        p = tmp_path / "t.csv"
        save_csv(t, p)
        got = []
        start = threading.Barrier(4)

        def read():
            start.wait(timeout=30)
            for _ in range(5):
                got.append(read_csv(p, Domain(0, 200_000)))

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(got) == 20 and all(table == t for table in got)
        assert routes == {"whole": [], "sidecar": [True] * 20}

    @staticmethod
    def _traced(read):
        """read()'s result and the peak of the memory traced while it ran."""
        tracemalloc.start()
        try:
            got = read()
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_allocates_little_beyond_the_kept_matrix(self, tmp_path):
        # Reading each file whole and copying the payload peaked at 3.06 and
        # 1.19 MiB here.
        slack = 256 * 2**10
        t = generate_uniform_table("t", 100_000, 2, Domain(0, 200_000), seed=1)
        save_csv(t, tmp_path / "t.csv")
        got, peak = self._traced(lambda: read_csv(tmp_path / "t.csv", Domain(0, 200_000)))
        assert got == t
        assert peak <= got.matrix().nbytes + slack
        sdb = create_sample(35_800, [t], seed=7)
        manifest = save_sample(sdb, tmp_path / "s")
        got, peak = self._traced(lambda: load_sample(manifest, Domain(0, 200_000)))
        assert [st.matrix().tolist() for st in got.tables] == [st.matrix().tolist() for st in sdb.tables]
        assert peak <= sum(st.matrix().nbytes for st in got.tables) + slack

    def test_sidecar_without_its_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        save_csv(Table("t", SCHEMA_0_10, [(1, 2)]), p)
        p.unlink()
        with pytest.raises(FileNotFoundError) as exc:
            read_csv(p)
        assert str(exc.value) == f"no such CSV file: {p}"

    @pytest.mark.parametrize("layout", ["C", "big-endian", "strided"])
    def test_any_matrix_layout_gives_the_format(self, tmp_path, layout):
        # write_sidecar hashes and writes an F-order little-endian matrix in
        # place; any other matrix is converted first, to the same bytes.
        m = {
            "C": np.ascontiguousarray(_T),
            "big-endian": _T.astype(">i8"),
            "strided": np.repeat(_T, 2, axis=0)[::2],
        }[layout]
        p = tmp_path / "t.csv"
        p.write_bytes(b"C1,C2\n")
        tables.write_sidecar(p, p.read_bytes(), m)
        assert (tmp_path / "t.csv.bin").read_bytes() == _sidecar_bytes(p.read_bytes(), _T)


class TestWriteFile:
    """write_file writes over the old bytes and cuts off only a leftover tail."""

    def test_parts_in_order_over_a_longer_file(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"x" * 1000)
        parts = [b"ab", b"", np.zeros((0, 2), np.int64), bytearray(b"cd"), np.array([[1, 2]], "<i8").T]
        tables.write_file(p, *parts)
        assert p.read_bytes() == b"abcd" + np.array([1, 2], "<i8").tobytes()

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:3])))
        p = tmp_path / "f"
        tables.write_file(p, b"abcdefgh", b"ij")
        assert p.read_bytes() == b"abcdefghij"

    @pytest.mark.skipif(not hasattr(os, "umask"), reason="no umask")
    def test_new_file_mode_as_open_wb_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            (tmp_path / "a").write_bytes(b"1")
            tables.write_file(tmp_path / "b", b"1")
        finally:
            os.umask(old)
        assert (tmp_path / "b").stat().st_mode == (tmp_path / "a").stat().st_mode

    def test_errors_keep_the_text_of_open(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for path in ("x/y.csv", Path("x/y.csv"), tmp_path):
            with pytest.raises(OSError) as ours:
                tables.write_file(path, b"1")
            with pytest.raises(OSError) as theirs:
                Path(path).write_bytes(b"1")
            assert str(ours.value) == str(theirs.value)


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
        save_csv(Table("V", SCHEMA_0_10, rows), tmp_path / "V.csv")
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
            (read_csv(tmp_path / "V.csv"), rows),
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
