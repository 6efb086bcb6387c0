"""End-to-end CLI flows: every command, determinism, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from selsample import cli, harness, tables
from selsample.cli import main
from selsample.queries import SelectLeaf
from selsample.sampling import load_sample
from selsample.tables import read_csv


def run(argv):
    return main(argv)


REPEATED_T = "error: table names must be distinct: 't' is given more than once\n"


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def assert_negative_seed_refused(capsys, argv):
    """argv with --seed -1 exits 2 while parsing, with an error that names --seed."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.fixture()
def uniform_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = run(
        [
            "gen-data", "--kind", "uniform", "--rows", "400", "--cols", "2",
            "--domain-lo", "0", "--domain-hi", "100", "--seed", "3",
            "--out", str(out), "--name", "T",
        ]
    )
    assert code == 0
    return out


class TestGenData:
    def test_uniform(self, uniform_csv):
        t = read_csv(uniform_csv)
        assert t.row_count == 400
        assert t.column_names == ("C1", "C2")

    def test_correlated(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(
            [
                "gen-data", "--kind", "correlated", "--rows", "200",
                "--mu", "50", "--cov", "100,90,100",
                "--domain-lo", "0", "--domain-hi", "100", "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_csv(out).row_count == 200

    def test_correlated_rejects_extra_cols(self, tmp_path):
        code = run(
            [
                "gen-data", "--kind", "correlated", "--rows", "10", "--cols", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_cov_needs_three_values(self, tmp_path, capsys):
        argv = ["gen-data", "--kind", "correlated", "--rows", "10", "--cov", "1,2", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --cov takes three values: var1,cov12,var2\n"

    @pytest.mark.parametrize(
        "flags",
        [["--cov", "inf,0,inf"], ["--mu", "inf"], ["--mu", "nan"], ["--cov", "nan,0,1"]],
        ids=["cov inf", "mu inf", "mu nan", "cov nan"],
    )
    def test_correlated_non_finite_input_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert run(["gen-data", "--kind", "correlated", "--rows", "5", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: mu and the covariance entries must be finite\n"
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert_negative_seed_refused(capsys, ["gen-data", "--kind", "uniform", "--rows", "5", "--out", str(out)])
        assert not out.exists()

    def test_non_integer_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--kind", "uniform", "--rows", "5", "--seed", "abc", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        args = [
            "gen-data", "--kind", "uniform", "--rows", "100", "--cols", "2",
            "--seed", "9", "--name", "T",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBuildSample:
    def test_fixed_size(self, tmp_path, uniform_csv):
        out = tmp_path / "sample"
        code = run(
            ["build-sample", "--table", str(uniform_csv), "--size", "50", "--seed", "4",
             "--out", str(out)]
        )
        assert code == 0
        sdb = load_sample(out / "manifest.json")
        assert sdb.size == 50
        assert [st.name for st in sdb.tables] == ["t"]

    def test_auto_size_from_bound(self, tmp_path, uniform_csv):
        out = tmp_path / "sample"
        code = run(
            ["build-sample", "--table", str(uniform_csv), "--auto",
             "--d-override", "2", "--epsilon", "0.05", "--delta", "0.05",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert load_sample(out / "manifest.json").size == 1000

    def test_needs_size_or_auto(self, tmp_path, uniform_csv):
        assert run(["build-sample", "--table", str(uniform_csv), "--out", str(tmp_path / "s")]) == 2

    def test_size_and_auto_together_exit_2(self, tmp_path, uniform_csv, capsys):
        argv = ["build-sample", "--table", str(uniform_csv), "--size", "7", "--auto",
                "--u", "1", "--m", "2", "--b", "5", "--out", str(tmp_path / "s")]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: pass --size or --auto, not both\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--d-override", "3"], "--d-override"),
        (["--u", "1"], "--u"),
        (["--b", "5", "--m", "2", "--u", "1"], "--u, --m, --b"),
    ])
    def test_size_with_sizing_flags_exits_2(self, tmp_path, uniform_csv, capsys, flags, named):
        argv = ["build-sample", "--table", str(uniform_csv), "--size", "5", *flags, "--out", str(tmp_path / "s")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: pass --size or --auto with {named}, not both\n"
        assert not (tmp_path / "s").exists()

    def test_domain_flags(self, tmp_path, uniform_csv, capsys):
        argv = ["build-sample", "--table", str(uniform_csv), "--size", "16", "--out", str(tmp_path / "s")]
        assert run(argv + ["--domain-lo", "-5", "--domain-hi", "105"]) == 0
        capsys.readouterr()
        assert run(argv + ["--domain-hi", "105"]) == 2
        assert capsys.readouterr().err == "error: --domain-lo and --domain-hi must be given together\n"

    def test_negative_seed_exits_2(self, tmp_path, uniform_csv, capsys):
        out = tmp_path / "s"
        argv = ["build-sample", "--table", str(uniform_csv), "--size", "8", "--out", str(out)]
        assert_negative_seed_refused(capsys, argv)
        assert not out.exists()

    def test_allocation_beyond_memory_exits_2(self, tmp_path, uniform_csv, capsys, monkeypatch):
        def create_sample(s, tables, seed):
            raise MemoryError(f"Unable to allocate {s * 8 / 2**30:.1f} GiB for an array")

        monkeypatch.setattr(cli, "create_sample", create_sample)
        argv = ["build-sample", "--table", str(uniform_csv), "--size", "10000000000",
                "--out", str(tmp_path / "s")]
        assert run(argv) == 2
        assert_one_error_line(capsys)


class TestBuildStats:
    def test_writes_catalog(self, tmp_path, uniform_csv):
        out = tmp_path / "stats.txt"
        code = run(["build-stats", "--table", str(uniform_csv), "--buckets", "10",
                    "--mcv", "5", "--out", str(out)])
        assert code == 0
        columns = [line.split()[1:3] for line in out.read_text().splitlines() if line.startswith("column ")]
        assert columns == [["table=t", "name=C1"], ["table=t", "name=C2"]]

    def test_domain_flags(self, tmp_path, uniform_csv, capsys):
        out = tmp_path / "st.txt"
        argv = ["build-stats", "--table", str(uniform_csv), "--out", str(out)]
        assert run(argv + ["--domain-lo", "0", "--domain-hi", "100"]) == 0
        out.unlink()
        capsys.readouterr()
        assert run(argv + ["--domain-lo", "0"]) == 2
        assert capsys.readouterr().err == "error: --domain-lo and --domain-hi must be given together\n"
        assert not out.exists()

    def test_bucket_limit(self, tmp_path, uniform_csv, capsys):
        # 10,000 is PostgreSQL's largest statistics target.
        out = tmp_path / "st.txt"
        argv = ["build-stats", "--table", str(uniform_csv), "--out", str(out), "--buckets"]
        assert run(argv + ["10001"]) == 2
        assert capsys.readouterr().err == "error: histogram buckets must be between 1 and 10000, got 10001\n"
        assert not out.exists()
        assert run(argv + ["10000"]) == 0
        assert out.read_text().startswith("catalog buckets=10000 ")

    def test_repeated_table_name_exits_2(self, tmp_path, uniform_csv, capsys):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "t.csv").write_bytes(uniform_csv.read_bytes())
        out = tmp_path / "st.txt"
        argv = ["build-stats", "--table", str(uniform_csv), "--table", str(tmp_path / "b" / "t.csv")]
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == REPEATED_T
        assert not out.exists()

    # Recorded from the catalogs that the np.unique-based build_stats wrote.
    # At this scale the uniform columns tie about 300 values at the 100th
    # count, so the MCV cut falls inside a tie.
    @pytest.mark.parametrize(
        "name, gen_args, digest",
        [
            ("t", ["--kind", "uniform", "--rows", "100000", "--cols", "2", "--seed", "1"],
             "44aa3e1695cfa703cc0a11e2346033a0fd390713b3c7332e16155c00f512883b"),
            ("c", ["--kind", "correlated", "--rows", "100000", "--seed", "1"],
             "e13685b753f97e1e5a704464e5f4e013b1eaa495f573a0593aa415f447cb02ac"),
        ],
        ids=["uniform", "correlated"],
    )
    def test_readme_scale_catalog_digest(self, tmp_path, name, gen_args, digest):
        table, out = tmp_path / f"{name}.csv", tmp_path / "stats.txt"
        assert run(["gen-data", *gen_args, "--out", str(table)]) == 0
        assert run(["build-stats", "--table", str(table), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_value_beyond_int64_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("C1,C2\n1,36893488147419103232\n")
        code = run(["build-stats", "--table", str(big), "--out", str(tmp_path / "st.txt")])
        assert code == 2
        assert "row 1, column C2" in capsys.readouterr().err
        assert not (tmp_path / "st.txt").exists()


class TestBoundsAndSampleSize:
    def test_bounds_json(self, capsys):
        assert run(["bounds", "--u", "2", "--m", "1", "--b", "1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["dimension"] == 441
        assert record["formula"] == "general"

    def test_bounds_text_deterministic(self, capsys):
        assert run(["bounds", "--m", "2", "--b", "3"]) == 0
        first = capsys.readouterr().out
        assert run(["bounds", "--m", "2", "--b", "3"]) == 0
        assert capsys.readouterr().out == first
        assert "bound:" in first

    def test_sample_size_with_override(self, capsys):
        assert run(["sample-size", "--d-override", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == 1000

    def test_sample_size_relative(self, capsys):
        assert run(["sample-size", "--d-override", "2", "--p", "0.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == 1753

    def test_sample_size_from_class(self, capsys):
        assert run(["sample-size", "--u", "1", "--m", "1", "--b", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 2

    def test_sample_size_needs_inputs(self):
        assert run(["sample-size"]) == 2

    def test_d_override_must_be_positive(self, capsys):
        assert run(["sample-size", "--d-override", "0"]) == 2
        assert capsys.readouterr().err == "error: d must be positive\n"

    @pytest.mark.parametrize("given", [["--u", "1", "--m", "2", "--b", "5"], ["--b", "1"]], ids=["class", "b"])
    def test_d_override_with_a_class_exits_2(self, tmp_path, uniform_csv, capsys, given):
        both = "error: pass --d-override or --u/--m/--b, not both\n"
        assert run(["sample-size", "--d-override", "2", *given]) == 2
        assert capsys.readouterr().err == both
        argv = ["build-sample", "--table", str(uniform_csv), "--auto", "--d-override", "2", *given,
                "--out", str(tmp_path / "s")]
        assert run(argv) == 2
        assert capsys.readouterr().err == both
        assert not (tmp_path / "s").exists()

    # Bounds use base-2 logarithms only, so no command takes a base.
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--m", "1", "--b", "1"],
            ["sample-size", "--u", "1", "--m", "1", "--b", "1"],
            ["build-sample", "--table", "t.csv", "--auto", "--u", "1", "--m", "1", "--b", "1", "--out", "s"],
            ["experiment", "--table", "t.csv", "--workload-m", "1", "--workload-b", "1", "--out-dir", "e"],
        ],
        ids=["bounds", "sample-size", "build-sample", "experiment"],
    )
    def test_log_base_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--log-base", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --log-base 2" in capsys.readouterr().err

    # c and c' stay at 0.5, and no size is clamped to a population, so no
    # command takes them.
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-size", "--d-override", "2", "--c", "0.6"],
            ["sample-size", "--d-override", "2", "--p", "0.5", "--c-prime", "0.6"],
            ["sample-size", "--d-override", "2", "--population", "500"],
            ["build-sample", "--table", "t.csv", "--auto", "--d-override", "2", "--out", "s", "--c", "0.6"],
        ],
        ids=["sample-size-c", "sample-size-c-prime", "sample-size-population", "build-sample-c"],
    )
    def test_removed_sizing_flags_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    # Each one overflows or underflows a float inside a bound or size formula.
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-size", "--u", "1", "--m", "1", "--b", "1", "--epsilon", "1e-200"],
            ["sample-size", "--u", "1", "--m", "1", "--b", "1", "--epsilon", "1e-160"],
            ["sample-size", "--d-override", "1", "--p", "1e-300", "--epsilon", "1e-10"],
            ["sample-size", "--d-override", "1" + "0" * 320],
            ["bounds", "--m", "1" + "0" * 320, "--b", "1"],
            ["bounds", "--u", "1" + "0" * 320, "--m", "1", "--b", "1"],
            ["bounds", "--u", "1" + "0" * 160, "--m", "1", "--b", "1"],
            ["build-sample", "--auto", "--u", "1", "--m", "1", "--b", "1", "--epsilon", "1e-200"],
        ],
        ids=[
            "epsilon squared is 0",
            "size is infinite",
            "p times epsilon squared is 0",
            "d beyond a float",
            "m beyond a float",
            "u beyond a float",
            "bound is infinite",
            "build-sample epsilon squared is 0",
        ],
    )
    def test_formula_beyond_float_range_exits_2(self, tmp_path, uniform_csv, capsys, argv):
        if argv[0] == "build-sample":
            argv = [*argv, "--table", str(uniform_csv), "--out", str(tmp_path / "s")]
        assert run(argv) == 2
        assert_one_error_line(capsys)


class TestEstimate:
    @pytest.mark.parametrize(
        "where",
        [
            "(" * 1200 + "t.C1 < 5" + ")" * 1200,
            " OR ".join(["t.C1 < 5"] * 3000),
            " AND ".join(["t.C1 < 5"] * 3000),
        ],
        ids=["1200 nested parentheses", "3000 OR terms", "3000 AND terms"],
    )
    def test_predicate_beyond_the_parse_limit_exits_2(self, tmp_path, uniform_csv, capsys, where):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--out", str(sample_dir)])
        capsys.readouterr()
        argv = ["estimate", "--query", f"SELECT * FROM t WHERE {where}", "--sample", str(sample_dir / "manifest.json")]
        assert run(argv) == 2
        assert_one_error_line(capsys)

    def test_schema_warning_points_at_the_command(self, tmp_path, uniform_csv, capsys):
        # The command reports each distinct message once, as its own line,
        # with no file, line or source text.
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--out", str(sample_dir)])
        capsys.readouterr()
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 < -5 OR t.C1 < -5 OR t.C2 > 1000",
                "--sample", str(sample_dir / "manifest.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        sample = load_sample(sample_dir / "manifest.json").tables[0]
        c1, c2 = sample.column("C1").domain, sample.column("C2").domain
        assert capsys.readouterr().err == (
            f"warning: constant -5 outside domain [{c1.lo}, {c1.hi}] of column t.C1\n"
            f"warning: constant 1000 outside domain [{c2.lo}, {c2.hi}] of column t.C2\n"
        )

    def _sample(self, tmp_path, uniform_csv, capsys) -> str:
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--seed", "1",
             "--out", str(tmp_path / "sample")])
        capsys.readouterr()
        return str(tmp_path / "sample" / "manifest.json")

    def test_manifest_columns_unlike_the_header_skip_the_sidecar(self, tmp_path, uniform_csv, capsys, monkeypatch):
        manifest = self._sample(tmp_path, uniform_csv, capsys)
        data = json.loads(Path(manifest).read_text())
        data["tables"][0]["columns"] = ["C2", "C1"]
        Path(manifest).write_text(json.dumps(data))
        sidecar = []
        read_sidecar = tables.read_sidecar

        def spied(*args):
            sidecar.append(read_sidecar(*args))
            return sidecar[-1]

        monkeypatch.setattr(tables, "read_sidecar", spied)
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 = 5", "--sample", manifest]
        assert run(argv) == 2
        assert sidecar == [None]
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'sample' / 't.sample.csv'}: header mismatch: "
            "expected 'sampleindex,C2,C1', got 'sampleindex,C1,C2'\n"
        )

    def test_unpaired_domain_flag_exits_2(self, tmp_path, uniform_csv, capsys):
        manifest = self._sample(tmp_path, uniform_csv, capsys)
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 = 5", "--sample", manifest, "--domain-lo", "0"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --domain-lo and --domain-hi must be given together\n"

    def test_covering_domain_removes_the_span_warning(self, tmp_path, uniform_csv, capsys):
        # The sample's values span less than the table's domain [0, 100].
        manifest = self._sample(tmp_path, uniform_csv, capsys)
        c1 = load_sample(manifest).tables[0].column("C1").domain
        assert c1.hi < 100
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 = 100", "--sample", manifest]
        assert run(argv) == 0
        spanned = capsys.readouterr()
        assert spanned.err == f"warning: constant 100 outside domain [{c1.lo}, {c1.hi}] of column t.C1\n"
        assert run(argv + ["--domain-lo", "0", "--domain-hi", "100"]) == 0
        assert capsys.readouterr() == (spanned.out, "")

    def test_domain_the_sample_exceeds_exits_2(self, tmp_path, uniform_csv, capsys):
        manifest = self._sample(tmp_path, uniform_csv, capsys)
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 = 5", "--sample", manifest,
                "--domain-lo", "0", "--domain-hi", "10"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: t.sample.csv: row ") and "outside domain [0, 10]" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("route", ["sidecar", "csv"])
    def test_domain_error_names_the_table_file(self, tmp_path, uniform_csv, capsys, route):
        # Only the second table's sample holds values outside [0, 10].
        small = tmp_path / "small.csv"
        run(["gen-data", "--kind", "uniform", "--rows", "50", "--domain-lo", "0", "--domain-hi", "10",
             "--out", str(small)])
        sample_dir = tmp_path / "s2"
        run(["build-sample", "--table", str(small), "--table", str(uniform_csv), "--size", "50", "--seed", "1",
             "--out", str(sample_dir)])
        if route == "csv":
            for sidecar in sample_dir.glob("*.bin"):
                sidecar.unlink()
        manifest = sample_dir / "manifest.json"
        capsys.readouterr()
        argv = ["estimate", "--query", "SELECT * FROM small WHERE small.C1 < 5", "--sample", str(manifest),
                "--domain-lo", "0", "--domain-hi", "10"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: t.sample.csv: row ") and "outside domain [0, 10]" in err
        assert err.count("\n") == 1

    def test_stdout_csv(self, tmp_path, uniform_csv, capsys):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--seed", "1",
             "--out", str(sample_dir)])
        capsys.readouterr()
        code = run(
            ["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50",
             "--sample", str(sample_dir / "manifest.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("query_id,node_id,node_kind")
        assert lines[1].startswith("0,0,select,")

    def test_out_dev_stdout_into_a_pipe(self, tmp_path, uniform_csv, capsys):
        # --out /dev/stdout opens the pipe that stdout is, which no write may
        # truncate: ftruncate on a pipe raises EINVAL.
        manifest = self._sample(tmp_path, uniform_csv, capsys)
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50", "--sample", manifest]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from selsample.cli import main; sys.exit(main())",
             *argv, "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected + "wrote /dev/stdout: 1 node estimate(s)\n"

    def test_with_exact(self, tmp_path, uniform_csv):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--seed", "1",
             "--out", str(sample_dir)])
        out = tmp_path / "est.csv"
        code = run(
            ["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50",
             "--sample", str(sample_dir / "manifest.json"),
             "--exact-against", str(uniform_csv), "--out", str(out)]
        )
        assert code == 0
        line = out.read_text().splitlines()[1]
        exact_field = line.split(",")[3]
        assert exact_field != ""

    def test_repeated_exact_against_name_exits_2(self, tmp_path, uniform_csv, capsys):
        # Both files give a table named t; neither may silently win.
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--out", str(sample_dir)])
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "t.csv").write_text("C1,C2\n1000,1000\n")
        capsys.readouterr()
        code = run(["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50",
                    "--sample", str(sample_dir / "manifest.json"),
                    "--exact-against", str(uniform_csv), "--exact-against", str(tmp_path / "b" / "t.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == REPEATED_T and captured.out == ""

    def test_exact_against_does_not_carry_into_the_next_command(self, tmp_path, uniform_csv):
        # main reuses one parser; the appended --exact-against list must not.
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--seed", "1",
             "--out", str(sample_dir)])
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50",
                "--sample", str(sample_dir / "manifest.json")]
        exact_fields = []
        for extra in (["--exact-against", str(uniform_csv)], []):
            out = tmp_path / f"est{len(exact_fields)}.csv"
            assert run(argv + extra + ["--out", str(out)]) == 0
            exact_fields.append(out.read_text().splitlines()[1].split(",")[3])
        assert exact_fields[0] != "" and exact_fields[1] == ""

    @pytest.mark.parametrize("exact", [False, True])
    def test_sample_cell_beyond_int64_exits_2(self, tmp_path, uniform_csv, capsys, exact):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        path = sample_dir / "t.sample.csv"
        lines = path.read_text().splitlines()
        lines[3] = "3,36893488147419103232," + lines[3].split(",")[2]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5",
                "--sample", str(sample_dir / "manifest.json")]
        if exact:
            argv += ["--exact-against", str(uniform_csv)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: row 3, column C1: value 36893488147419103232 "
            "outside the 64-bit integer range\n"
        )

    def test_out_is_a_directory_exits_2(self, tmp_path, uniform_csv, capsys):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        capsys.readouterr()
        code = run(
            ["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5",
             "--sample", str(sample_dir / "manifest.json"), "--out", str(sample_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(sample_dir) in err

    def test_manifest_without_tables_exits_2(self, tmp_path, uniform_csv, capsys):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        manifest = sample_dir / "manifest.json"
        manifest.write_text(json.dumps({"size": 8, "seed": 1}))
        capsys.readouterr()
        code = run(["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5", "--sample", str(manifest)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {manifest}: no 'tables' entry\n"

    def test_manifest_with_a_null_size_exits_2(self, tmp_path, uniform_csv, capsys):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        manifest = sample_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "size": None}))
        capsys.readouterr()
        code = run(["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5", "--sample", str(manifest)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {manifest}: 'size' is not an integer: None\n"

    @pytest.mark.parametrize("exact", [False, True])
    def test_sample_of_size_0_exits_2(self, tmp_path, uniform_csv, capsys, exact):
        sample_dir = tmp_path / "sample"
        sample_dir.mkdir()
        (sample_dir / "t.sample.csv").write_text("sampleindex,C1,C2\n")
        manifest = sample_dir / "manifest.json"
        entry = {"base": "t", "file": "t.sample.csv", "columns": ["C1", "C2"]}
        manifest.write_text(json.dumps({"size": 0, "seed": 1, "tables": [entry]}))
        argv = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5", "--sample", str(manifest)]
        if exact:
            argv += ["--exact-against", str(uniform_csv)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {manifest}: 'size' must be at least 1\n"

    def test_manifest_size_beyond_the_file_exits_2(self, tmp_path, uniform_csv, capsys):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        manifest = sample_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "size": 10**15}))
        capsys.readouterr()
        code = run(["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5", "--sample", str(manifest)])
        assert code == 2
        path = sample_dir / "t.sample.csv"
        assert capsys.readouterr().err == (
            f"error: {path}: sampleindex values must be exactly 1..{10**15} with no repeats\n"
        )

    @pytest.mark.parametrize("fault", ["repeated index", "invalid base"])
    def test_sample_file_error_names_the_file(self, tmp_path, uniform_csv, capsys, fault):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        manifest = sample_dir / "manifest.json"
        path = sample_dir / "t.sample.csv"
        if fault == "repeated index":
            path.write_text(path.read_text().replace("\n2,", "\n1,"))
            want = f"error: {path}: sampleindex values must be exactly 1..8 with no repeats\n"
        else:
            manifest.write_text(manifest.read_text().replace('"base": "t"', '"base": "t-1"'))
            want = f"error: {manifest}: t.sample.csv: invalid table name: 't-1'\n"
        capsys.readouterr()
        code = run(["estimate", "--query", "SELECT * FROM t WHERE t.C1 < 5", "--sample", str(manifest)])
        assert code == 2
        assert capsys.readouterr().err == want

    def test_bad_query_exits_2(self, tmp_path, uniform_csv):
        sample_dir = tmp_path / "sample"
        run(["build-sample", "--table", str(uniform_csv), "--size", "8", "--seed", "1",
             "--out", str(sample_dir)])
        code = run(
            ["estimate", "--query", "SELECT * FROM nope",
             "--sample", str(sample_dir / "manifest.json")]
        )
        assert code == 2


class TestRewrites:
    """A command writing over longer files leaves the bytes it writes into an
    empty directory: no tail of the old file survives."""

    @staticmethod
    def _files(d):
        return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    def _same_as_fresh(self, tmp_path, earlier, argv):
        """Run every argv of `earlier`, then `argv`, in directory a; only argv
        in the empty directory b; each argv names its files relative to
        "{d}". Every file of b must equal a's of the same name."""
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for args in earlier:
            assert run([x.format(d=a) for x in args]) == 0
        assert run([x.format(d=a) for x in argv]) == 0
        assert run([x.format(d=b) for x in argv]) == 0
        fresh = self._files(b)
        assert fresh and {name: self._files(a)[name] for name in fresh} == fresh

    def test_smaller_sample_over_a_larger_one(self, tmp_path, uniform_csv):
        build = ["build-sample", "--table", str(uniform_csv), "--seed", "5", "--out", "{d}/s"]
        self._same_as_fresh(tmp_path, [build + ["--size", "3000"]], build + ["--size", "700"])

    def test_shorter_table_over_a_longer_one(self, tmp_path):
        gen = ["gen-data", "--kind", "uniform", "--cols", "2", "--seed", "4", "--out", "{d}/t.csv"]
        self._same_as_fresh(tmp_path, [gen + ["--rows", "5000"]], gen + ["--rows", "3000"])

    def test_shorter_estimate_over_a_longer_one(self, tmp_path, uniform_csv):
        sample = tmp_path / "sample"
        assert run(["build-sample", "--table", str(uniform_csv), "--size", "64", "--seed", "1",
                    "--out", str(sample)]) == 0
        estimate = ["estimate", "--query", "SELECT * FROM t WHERE t.C1 >= 50",
                    "--sample", str(sample / "manifest.json"), "--out", "{d}/est.csv"]
        # With --exact-against every row carries one more value.
        self._same_as_fresh(tmp_path, [estimate + ["--exact-against", str(uniform_csv)]], estimate)

    def test_smaller_experiment_over_a_larger_one(self, tmp_path, uniform_csv):
        experiment = ["experiment", "--table", str(uniform_csv), "--workload-m", "1", "--workload-b", "2",
                      "--sizes", "20", "--seed", "6", "--out-dir", "{d}/exp"]
        self._same_as_fresh(tmp_path, [experiment + ["--count", "30"]], experiment + ["--count", "5"])


EXPERIMENT = ["experiment", "--workload-m", "1", "--workload-b", "2", "--out-dir", "e"]
SIZES_10 = [*EXPERIMENT, "--sizes", "10"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build-sample", "--size", "5", "--u", "1", "--out", "s"], "pass --size or --auto with --u, not both"),
        (["build-sample", "--size", "5", "--auto", "--out", "s"], "pass --size or --auto, not both"),
        (["experiment", "--workload-m", "1", "--workload-b", "2", "--sizes", "abc", "--out-dir", "e"],
         "--sizes: invalid int value: 'abc'"),
        (["experiment", "--workload-m", "1", "--workload-b", "101", "--sizes", "10", "--out-dir", "e"],
         "b must be at most 100"),
        (["experiment", "--workload-m", "1", "--workload-b", "2", "--sizes", "10", "--delta", "2", "--out-dir", "e"],
         "delta must be in (0, 1)"),
        ([*SIZES_10, "--epsilon", "nan"], "epsilon must be in (0, 1)"),
        ([*SIZES_10, "--methods", "bogus"],
         "unknown method 'bogus'; expected one of ('indexed', 'practitioner', 'histogram')"),
        ([*SIZES_10, "--methods", ""], "no methods requested"),
        ([*SIZES_10, "--methods", "indexed,indexed"], "method 'indexed' is given more than once"),
        ([*SIZES_10, "--buckets", "0"], "histogram buckets must be between 1 and 10000, got 0"),
        ([*SIZES_10, "--mcv", "-1"], "MCV capacity must be non-negative"),
        ([*SIZES_10, "--kind", "join-pair"], "join-pair workload needs two tables"),
        ([*EXPERIMENT, "--sizes", "0"], "sample size must be at least 1"),
        ([*EXPERIMENT, "--sizes", "10,10"], "sample size 10 is given more than once"),
        ([*EXPERIMENT, "--epsilon", "nan"], "epsilon must be in (0, 1)"),
        ([*EXPERIMENT, "--delta", "2"], "delta must be in (0, 1)"),
        (["build-sample", "--size", "0", "--out", "s"], "sample size must be at least 1"),
        (["build-sample", "--size", "-3", "--out", "s"], "sample size must be at least 1"),
    ],
    ids=[
        "size with --u", "size with --auto", "sizes abc", "workload-b 101", "delta 2",
        "epsilon nan", "methods bogus", "methods empty", "methods repeated", "buckets 0", "mcv -1",
        "join-pair with one table", "sizes 0", "sizes repeated", "automatic size, epsilon nan",
        "automatic size, delta 2", "size 0", "size -3",
    ],
)
def test_flags_are_checked_before_any_table_is_read(tmp_path, capsys, monkeypatch, argv, message):
    reads = []
    read_csv = cli.read_csv

    def spied(path, domain=None):
        reads.append(path)
        return read_csv(path, domain)

    monkeypatch.setattr(cli, "read_csv", spied)
    monkeypatch.chdir(tmp_path)
    assert run([argv[0], "--table", "missing.csv", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert reads == [] and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["build-sample", "--table", "t.csv", "--table", "sub/t.csv", "--size", "5", "--out", "s2"],
        ["build-stats", "--table", "t.csv", "--table", "sub/t.csv", "--out", "st.txt"],
        [*SIZES_10, "--table", "t.csv", "--table", "sub/t.csv"],
        ["estimate", "--query", "SELECT * FROM t", "--sample", "s/manifest.json",
         "--exact-against", "t.csv", "--exact-against", "sub/t.csv", "--out", "est.csv"],
    ],
    ids=["build-sample", "build-stats", "experiment", "estimate --exact-against"],
)
def test_a_repeated_table_name_is_refused_before_any_table_is_read(
    tmp_path, uniform_csv, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "t.csv").write_bytes(uniform_csv.read_bytes())
    assert run(["build-sample", "--table", "t.csv", "--size", "5", "--out", "s"]) == 0
    files = sorted(tmp_path.rglob("*"))
    reads = []
    monkeypatch.setattr(cli, "read_csv", lambda path, domain=None: reads.append(path))
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == REPEATED_T
    assert reads == [] and sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command", ["build-sample", "build-stats"])
def test_an_invalid_table_name_is_refused_before_any_table_is_read(
    tmp_path, uniform_csv, capsys, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t-1.csv").write_bytes(uniform_csv.read_bytes())
    files = sorted(tmp_path.rglob("*"))
    reads = []
    read_table_file = tables.read_table_file
    monkeypatch.setattr(tables, "read_table_file", lambda path, *args: reads.append(path) or read_table_file(path, *args))
    out = ["--size", "5", "--out", "s"] if command == "build-sample" else ["--out", "st.txt"]
    capsys.readouterr()
    assert run([command, "--table", "t.csv", "--table", "t-1.csv", *out]) == 2
    assert capsys.readouterr().err == "error: t-1.csv: invalid table name: 't-1'\n"
    assert reads == [] and sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("name_flags", [[], ["--name", "t-1"]], ids=["file stem", "--name"])
@pytest.mark.parametrize("kind", ["uniform", "correlated"])
def test_gen_data_refuses_an_invalid_table_name_before_drawing(tmp_path, capsys, monkeypatch, kind, name_flags):
    draws = []
    generate = getattr(cli, f"generate_{kind}_table")
    monkeypatch.setattr(cli, f"generate_{kind}_table", lambda *args: draws.append(args) or generate(*args))
    monkeypatch.chdir(tmp_path)
    out = "t-1.csv" if not name_flags else "t.csv"
    assert run(["gen-data", "--kind", kind, "--rows", "5", "--out", out, *name_flags]) == 2
    assert capsys.readouterr().err == "error: invalid table name: 't-1'\n"
    assert draws == [] and not any(tmp_path.iterdir())


def test_a_size_below_1_is_refused_before_any_exact_count(tmp_path, uniform_csv, capsys, monkeypatch):
    counts = []
    monkeypatch.setattr(harness, "exact_selectivity", lambda *args: counts.append(args))
    monkeypatch.chdir(tmp_path)
    assert run([*EXPERIMENT, "--table", str(uniform_csv), "--sizes", "0"]) == 2
    assert capsys.readouterr().err == "error: sample size must be at least 1\n"
    assert not (tmp_path / "e").exists()
    # So does the library.
    with pytest.raises(ValueError, match="^sample size must be at least 1$"):
        harness.run_experiment([read_csv(uniform_csv)], [SelectLeaf("t", None)], [0], 0.05, ["indexed"], 0)
    assert counts == []


class TestExperiment:
    def _args(self, uniform_csv, out_dir):
        return [
            "experiment", "--table", str(uniform_csv),
            "--workload-m", "1", "--workload-b", "2", "--count", "5",
            "--sizes", "20,40", "--epsilon", "0.1", "--seed", "6",
            "--methods", "indexed,histogram",
            "--out-dir", str(out_dir),
        ]

    def test_outputs(self, tmp_path, uniform_csv):
        out_dir = tmp_path / "exp"
        assert run(self._args(uniform_csv, out_dir)) == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,sample_size,mean_pct_error,stddev_pct_error,frac_within_eps,excluded"
        assert len(summary) == 1 + 2 + 1  # indexed x 2 sizes + histogram
        per_query = (out_dir / "per_query.csv").read_text().splitlines()
        assert len(per_query) == 1 + 5 * 2  # one node per select query per size

    def test_byte_identical_rerun(self, tmp_path, uniform_csv):
        d1 = tmp_path / "e1"
        d2 = tmp_path / "e2"
        assert run(self._args(uniform_csv, d1)) == 0
        assert run(self._args(uniform_csv, d2)) == 0
        assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()
        assert (d1 / "per_query.csv").read_bytes() == (d2 / "per_query.csv").read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp")
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        assert_negative_seed_refused(capsys, argv)
        assert not (tmp_path / "exp").exists()

    def test_repeated_size_exits_2(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--sizes") + 1] = "300,300"
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: sample size 300 is given more than once\n"
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("sizes", ["abc", "20,,x4", "20.5"])
    def test_non_integer_size_names_the_flag(self, tmp_path, uniform_csv, capsys, sizes):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--sizes") + 1] = sizes
        capsys.readouterr()
        assert run(argv) == 2
        bad = sizes.split(",")[-1]
        assert capsys.readouterr().err == f"error: --sizes: invalid int value: {bad!r}\n"
        assert not (tmp_path / "exp").exists()

    def test_empty_size_entries_are_skipped(self, tmp_path, uniform_csv):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--sizes") + 1] = "20,,40,"
        assert run(argv) == 0
        assert (tmp_path / "exp" / "summary.csv").read_text().count("indexed,") == 2

    # With --sizes given, no sizing formula reads epsilon, so the
    # experiment checks it itself.
    @pytest.mark.parametrize("epsilon", ["nan", "2", "0"])
    def test_epsilon_outside_unit_interval_exits_2(self, tmp_path, uniform_csv, capsys, epsilon):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--epsilon") + 1] = epsilon
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: epsilon must be in (0, 1)\n"
        assert not (tmp_path / "exp").exists()

    # Nor does one read delta: the experiment refuses a delta outside
    # (0, 1) as the automatic size does.
    @pytest.mark.parametrize("sizes", [True, False], ids=["--sizes", "automatic size"])
    @pytest.mark.parametrize("delta", ["nan", "2", "0"])
    def test_delta_outside_unit_interval_exits_2(self, tmp_path, uniform_csv, capsys, delta, sizes):
        argv = self._args(uniform_csv, tmp_path / "exp") + ["--delta", delta]
        if not sizes:
            del argv[argv.index("--sizes"):argv.index("--sizes") + 2]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: delta must be in (0, 1)\n"
        assert not (tmp_path / "exp").exists()

    def test_workload_b_beyond_the_parse_limit_exits_2(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--workload-b") + 1] = "3000"
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: b must be at most 100\n"

    def test_repeated_method_exits_2(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp")
        argv[argv.index("--methods") + 1] = "practitioner,indexed,histogram,indexed"
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: method 'indexed' is given more than once\n"
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("kind,size", [("select-only", 150), ("join-pair", 14_067)])
    def test_size_from_the_class_bound(self, tmp_path, uniform_csv, kind, size):
        # u = 1 or 2, m = 1, b = 2 at epsilon 0.3.
        argv = self._args(uniform_csv, tmp_path / "exp")
        del argv[argv.index("--sizes"):argv.index("--sizes") + 2]
        argv[argv.index("--count") + 1] = "2"
        argv[argv.index("--epsilon") + 1] = "0.3"
        argv[argv.index("--methods") + 1] = "indexed"
        argv += ["--kind", kind, "--table", str(uniform_csv.with_name("u.csv"))]
        uniform_csv.with_name("u.csv").write_bytes(uniform_csv.read_bytes())
        assert run(argv) == 0
        summary = (tmp_path / "exp" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in summary[1:]] == [["indexed", str(size)]]

    def test_domain_flags(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp")
        assert run(argv + ["--domain-lo", "0", "--domain-hi", "100"]) == 0
        capsys.readouterr()
        argv = self._args(uniform_csv, tmp_path / "exp2") + ["--domain-hi", "100"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --domain-lo and --domain-hi must be given together\n"
        assert not (tmp_path / "exp2").exists()

    def test_bucket_limit(self, tmp_path, uniform_csv, capsys):
        argv = self._args(uniform_csv, tmp_path / "exp") + ["--buckets", "10001"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: histogram buckets must be between 1 and 10000, got 10001\n"
        assert not (tmp_path / "exp").exists()

    def test_missing_table_exits_2(self, tmp_path):
        code = run(
            ["experiment", "--table", str(tmp_path / "nope.csv"),
             "--workload-m", "1", "--workload-b", "1", "--out-dir", str(tmp_path / "e")]
        )
        assert code == 2


# Small inputs and a hand-written sample for commands that draw no random
# numbers; their outputs are pinned byte for byte. The sample files list their
# rows out of sampleindex order on purpose.
PINNED_FILES = {
    "t.csv": "C1,C2\n1,9\n4,2\n7,5\n2,8\n9,1\n5,5\n",
    "u.csv": "C1,C2\n3,4\n6,7\n2,2\n8,9\n5,1\n",
    "v.csv": "C1,C2\n4,3\n1,6\n7,7\n3,2\n",
    "sample/t.sample.csv": "sampleindex,C1,C2\n3,7,5\n1,1,9\n4,5,5\n2,9,1\n",
    "sample/u.sample.csv": "sampleindex,C1,C2\n2,6,7\n4,5,1\n1,3,4\n3,8,9\n",
    "sample/v.sample.csv": "sampleindex,C1,C2\n1,4,3\n2,7,7\n3,1,6\n4,3,2\n",
    "sample/manifest.json": json.dumps(
        {
            "size": 4,
            "seed": 7,
            "tables": [
                {"base": n, "file": f"{n}.sample.csv", "columns": ["C1", "C2"]} for n in "tuv"
            ],
        }
    ),
}

# name: (the tables it reads, query)
PINNED_QUERIES = {
    "select": ("t", "SELECT * FROM t WHERE t.C1 >= 3 AND t.C2 < 6"),
    "join": ("tu", "SELECT * FROM t, u WHERE t.C1 < u.C1 AND u.C2 >= 2"),
    "chain": ("tuv", "SELECT * FROM t, u, v WHERE t.C1 < u.C1 AND u.C2 > v.C2 AND v.C1 <> 7"),
}


def _pinned_run(d, capsys, argv, out_name):
    """Run one command in a fresh copy of the pinned inputs in d; returns its
    stdout and the bytes of the file it wrote, with the directory as <dir>."""
    (d / "sample").mkdir()
    for name, text in PINNED_FILES.items():
        (d / name).write_text(text, newline="\n")
    argv = [a.replace("<dir>", str(d)) for a in argv]
    if out_name is not None and "--out" not in argv:
        argv += ["--out", str(d / out_name)]
    capsys.readouterr()
    assert run(argv) == 0
    out = capsys.readouterr().out.replace(str(d), "<dir>")
    written = None if out_name is None else (d / out_name).read_bytes()
    return out, written


def _estimate_argv(name, exact):
    tables, query = PINNED_QUERIES[name]
    argv = ["estimate", "--query", query, "--sample", "<dir>/sample/manifest.json"]
    for table in tables if exact else ():
        argv += ["--exact-against", f"<dir>/{table}.csv"]
    return argv


_HEADER = "query_id,node_id,node_kind,exact,est_indexed,est_practitioner,s,seed\n"

# case: (argv, file written or None, stdout, that file's bytes). The file is
# written with --out, unless argv gives its own --out.
PINNED_CASES = {
    "bounds": (
        ["bounds", "--u", "3", "--m", "2", "--b", "4"],
        None,
        "formula: general\nu: 3\nm: 2\nb: 4\nlog_base: 2.0\nbound: 47305.81437528563\ndimension: 47306\n",
        None,
    ),
    "bounds-json": (
        ["bounds", "--u", "1", "--m", "2", "--b", "5", "--json"],
        None,
        '{"b": 5, "bound": 175.81007680238335, "dimension": 176, "formula": "select_boolean", '
        '"log_base": 2.0, "m": 2, "u": 1}\n',
        None,
    ),
    "sample-size": (
        ["sample-size", "--u", "2", "--m", "1", "--b", "3", "--epsilon", "0.1"],
        None,
        "d: 5614\nepsilon: 0.1\ndelta: 0.05\nc: 0.5\nmode: absolute\nsample_size: 280850\n",
        None,
    ),
    "sample-size-relative": (
        ["sample-size", "--u", "1", "--m", "2", "--b", "2", "--p", "0.05"],
        None,
        "d: 47\nepsilon: 0.05\ndelta: 0.05\nc: 0.5\nmode: relative\nsample_size: 575181\n"
        "p: 0.05\nc_prime: 0.5\n",
        None,
    ),
    "sample-size-json": (
        ["sample-size", "--d-override", "7", "--epsilon", "0.1", "--delta", "0.01", "--json"],
        None,
        '{"c": 0.5, "d": 7, "delta": 0.01, "epsilon": 0.1, "mode": "absolute", "sample_size": 581}\n',
        None,
    ),
    "build-sample-auto": (
        ["build-sample", "--table", "<dir>/t.csv", "--auto", "--u", "1", "--m", "2", "--b", "5",
         "--epsilon", "0.2", "--seed", "7", "--out", "<dir>/auto"],
        "auto/manifest.json",
        "wrote <dir>/auto/manifest.json: 1 sample table(s) of size 2238\n",
        b'{\n  "seed": 7,\n  "size": 2238,\n  "tables": [\n    {\n      "base": "t",\n      "columns": [\n'
        b'        "C1",\n        "C2"\n      ],\n      "file": "t.sample.csv"\n    }\n  ]\n}\n',
    ),
    "build-stats": (
        ["build-stats", "--table", "<dir>/t.csv", "--table", "<dir>/u.csv", "--buckets", "2", "--mcv", "2"],
        "stats.txt",
        "wrote <dir>/stats.txt: statistics for 4 column(s)\n",
        b"catalog buckets=2 mcv_capacity=2\n"
        b"column table=t name=C1 n_distinct=6 n_distinct_non_mcv=4 total_non_mcv=0.6666666666666666 bucket_fraction=0.3333333333333333\n"
        b"mcv 1 0.16666666666666666\nmcv 2 0.16666666666666666\nboundary 4\nboundary 7\nboundary 9\n"
        b"column table=t name=C2 n_distinct=5 n_distinct_non_mcv=3 total_non_mcv=0.5 bucket_fraction=0.25\n"
        b"mcv 5 0.3333333333333333\nmcv 1 0.16666666666666666\nboundary 2\nboundary 8\nboundary 9\n"
        b"column table=u name=C1 n_distinct=5 n_distinct_non_mcv=3 total_non_mcv=0.6 bucket_fraction=0.3\n"
        b"mcv 2 0.2\nmcv 3 0.2\nboundary 5\nboundary 6\nboundary 8\n"
        b"column table=u name=C2 n_distinct=5 n_distinct_non_mcv=3 total_non_mcv=0.6 bucket_fraction=0.3\n"
        b"mcv 1 0.2\nmcv 2 0.2\nboundary 4\nboundary 7\nboundary 9\n",
    ),
    "select": (
        _estimate_argv("select", False),
        None,
        _HEADER + "0,0,select,,0.75,0.75,4,7\n",
        None,
    ),
    "select-exact": (
        _estimate_argv("select", True),
        "select.csv",
        "wrote <dir>/select.csv: 1 node estimate(s)\n",
        (_HEADER + "0,0,select,0.6666666666666666,0.75,0.75,4,7\n").encode(),
    ),
    "join": (
        _estimate_argv("join", False),
        None,
        _HEADER + "0,0,select,,1.0,1.0,4,7\n0,1,select,,0.75,0.75,4,7\n0,2,join,,0.5,0.375,4,7\n",
        None,
    ),
    "join-exact": (
        _estimate_argv("join", True),
        "join.csv",
        "wrote <dir>/join.csv: 3 node estimate(s)\n",
        (
            _HEADER + "0,0,select,1.0,1.0,1.0,4,7\n0,1,select,0.8,0.75,0.75,4,7\n"
            "0,2,join,0.4,0.5,0.375,4,7\n"
        ).encode(),
    ),
    "chain": (
        _estimate_argv("chain", False),
        None,
        _HEADER + "0,0,select,,1.0,1.0,4,7\n0,1,select,,1.0,1.0,4,7\n0,2,join,,0.5,0.4375,4,7\n"
        "0,3,select,,0.75,0.75,4,7\n0,4,join,,0.5,0.265625,4,7\n",
        None,
    ),
    "chain-exact": (
        _estimate_argv("chain", True),
        "chain.csv",
        "wrote <dir>/chain.csv: 5 node estimate(s)\n",
        (
            _HEADER + "0,0,select,1.0,1.0,1.0,4,7\n0,1,select,1.0,1.0,1.0,4,7\n"
            "0,2,join,0.5,0.5,0.4375,4,7\n0,3,select,0.75,0.75,0.75,4,7\n"
            "0,4,join,0.25833333333333336,0.5,0.265625,4,7\n"
        ).encode(),
    ),
}


# run: (argv, stdout, summary.csv bytes, per_query.csv bytes). The workload
# and the samples are drawn, so these pin the streams of numpy's default_rng
# too. No summary averages more than 3 errors, so numpy sums them in order.
PINNED_EXPERIMENTS = {
    "select-only": (
        ["experiment", "--table", "<dir>/t.csv", "--workload-m", "2", "--workload-b", "3",
         "--count", "3", "--sizes", "4,8", "--epsilon", "0.1", "--seed", "5",
         "--out-dir", "<dir>/exp"],
        "wrote <dir>/exp/summary.csv and <dir>/exp/per_query.csv\n"
        "     indexed s=       4 mean%=    20.000 std%=    21.602 within-eps=1.00 excluded=0\n"
        "     indexed s=       8 mean%=    10.000 std%=    10.801 within-eps=1.00 excluded=0\n"
        "practitioner s=       4 mean%=    20.000 std%=    21.602 within-eps=1.00 excluded=0\n"
        "practitioner s=       8 mean%=    10.000 std%=    10.801 within-eps=1.00 excluded=0\n"
        "   histogram s=       - mean%=     0.000 std%=     0.000 within-eps=1.00 excluded=0\n",
        b"method,sample_size,mean_pct_error,stddev_pct_error,frac_within_eps,excluded\n"
        b"indexed,4,20.000000000000004,21.60246899469287,1.0,0\n"
        b"indexed,8,9.999999999999998,10.801234497346433,1.0,0\n"
        b"practitioner,4,20.000000000000004,21.60246899469287,1.0,0\n"
        b"practitioner,8,9.999999999999998,10.801234497346433,1.0,0\n"
        b"histogram,,0.0,0.0,1.0,0\n",
        _HEADER.encode() + b"0,0,select,0.0,0.0,0.0,4,16823399\n"
        b"1,0,select,0.16666666666666666,0.25,0.25,4,16823399\n"
        b"2,0,select,0.8333333333333334,0.75,0.75,4,16823399\n"
        b"0,0,select,0.0,0.0,0.0,8,2940995229\n"
        b"1,0,select,0.16666666666666666,0.125,0.125,8,2940995229\n"
        b"2,0,select,0.8333333333333334,0.875,0.875,8,2940995229\n",
    ),
    # Sized from the class (u, m, b) = (2, 1, 1) at epsilon 0.5: s = 888.
    "join-pair": (
        ["experiment", "--table", "<dir>/t.csv", "--table", "<dir>/u.csv",
         "--workload-m", "1", "--workload-b", "1", "--count", "2", "--kind", "join-pair",
         "--epsilon", "0.5", "--methods", "indexed,practitioner", "--seed", "5",
         "--out-dir", "<dir>/exp"],
        "wrote <dir>/exp/summary.csv and <dir>/exp/per_query.csv\n"
        "     indexed s=     888 mean%=     5.743 std%=     5.743 within-eps=1.00 excluded=0\n"
        "practitioner s=     888 mean%=     9.533 std%=     9.533 within-eps=1.00 excluded=0\n",
        b"method,sample_size,mean_pct_error,stddev_pct_error,frac_within_eps,excluded\n"
        b"indexed,888,5.743243243243247,5.743243243243247,1.0,0\n"
        b"practitioner,888,9.532505478451421,9.532505478451421,1.0,0\n",
        _HEADER.encode()
        + b"0,0,select,0.16666666666666666,0.16216216216216217,0.16216216216216217,888,16823399\n"
        b"0,1,select,1.0,1.0,1.0,888,16823399\n"
        b"0,2,join,0.0,0.0,0.0,888,16823399\n"
        b"1,0,select,0.6666666666666666,0.6756756756756757,0.6756756756756757,888,16823399\n"
        b"1,1,select,1.0,1.0,1.0,888,16823399\n"
        b"1,2,join,0.03333333333333333,0.037162162162162164,0.03968833698563428,888,16823399\n",
    ),
}


class TestPinnedOutputs:
    """Standard output and written files, byte for byte as recorded."""

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_bytes(self, tmp_path, capsys, case):
        argv, out_name, want_stdout, want_file = PINNED_CASES[case]
        out, written = _pinned_run(tmp_path, capsys, argv, out_name)
        assert out == want_stdout
        assert written == want_file

    @pytest.mark.parametrize("run_name", sorted(PINNED_EXPERIMENTS))
    def test_experiment_bytes(self, tmp_path, capsys, run_name):
        argv, want_stdout, want_summary, want_per_query = PINNED_EXPERIMENTS[run_name]
        out, _ = _pinned_run(tmp_path, capsys, argv, None)
        assert out == want_stdout
        assert (tmp_path / "exp" / "summary.csv").read_bytes() == want_summary
        assert (tmp_path / "exp" / "per_query.csv").read_bytes() == want_per_query

    @pytest.mark.parametrize("exact", [False, True])
    def test_schema_warning_text(self, tmp_path, capsys, exact):
        # The parse catalog's domains come from the sample ([3, 8]) or from
        # the --exact-against table ([2, 8]).
        argv = ["estimate", "--query", "SELECT * FROM u WHERE u.C1 < 100",
                "--sample", "<dir>/sample/manifest.json"]
        if exact:
            argv += ["--exact-against", "<dir>/u.csv"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            _pinned_run(tmp_path, capsys, argv, None)
        domain = "[2, 8]" if exact else "[3, 8]"
        assert err.getvalue() == f"warning: constant 100 outside domain {domain} of column u.C1\n"
