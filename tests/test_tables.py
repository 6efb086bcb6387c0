"""relation layer: domains, CSV ingestion/export, synthetic generators."""

import numpy as np
import pytest

from selsample.tables import (
    ColumnMeta,
    CsvFormatError,
    Domain,
    Table,
    generate_correlated_table,
    generate_uniform_table,
    load_csv,
    read_csv,
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
        t = load_csv(p, SCHEMA_0_10)
        assert t.row_count == 3
        assert t.rows == [(1, 2), (3, 4), (5, 6)]
        assert t.name == "t"

    def test_header_only_is_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n")
        assert load_csv(p, SCHEMA_0_10).row_count == 0

    def test_out_of_domain_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n11,2\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column C1"):
            load_csv(p, SCHEMA_0_10)

    def test_non_integer_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,C2\n1,x\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column C2"):
            load_csv(p, SCHEMA_0_10)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("C1,WRONG\n1,2\n")
        with pytest.raises(CsvFormatError, match="header mismatch"):
            load_csv(p, SCHEMA_0_10)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", SCHEMA_0_10)

    def test_round_trip_is_byte_identical(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("C1,C2\n1,2\n3,4\n")
        t = load_csv(src, SCHEMA_0_10)
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

    @pytest.mark.parametrize("cell", ["36893488147419103232", "9223372036854775808", "-9223372036854775809"])
    def test_cell_beyond_int64_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"C1,C2\n1,2\n3,{cell}\n")
        with pytest.raises(CsvFormatError, match=r"row 2, column C2: value .* 64-bit"):
            read_csv(p)
        with pytest.raises(CsvFormatError, match=r"row 2, column C2"):
            load_csv(p, SCHEMA_0_10)

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
