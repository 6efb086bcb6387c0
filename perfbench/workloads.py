"""The three workloads: set-up, one round of operations, and the checks of every output.

A run sets a workload up several times, then repeats whole rounds of the
same operations until the query phase has lasted the requested seconds; each
round draws fresh queries of the same shapes from the seed and the round
number. One caller drives the program in a closed loop: each call starts
when the previous one has returned. Within a round the operations are
interleaved in a seeded order, so a slow stretch of the machine hits every
metric alike.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from oracle import Join, Query

DOMAIN_HI = 200_000
# Bivariate normal of the README's correlated example: mean 1e5, sd 3e4, rho 0.9.
MU = 100_000.0
COV = [[900_000_000.0, 810_000_000.0], [810_000_000.0, 900_000_000.0]]
DELTA = 0.05


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(seed: int, *tag: int) -> int:
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1)[0])


class Recorder:
    """Timings of one run's query phase and the tallies the result reports."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.busy_s = 0.0  # summed time of every timed call in the query phase
        self.queries = 0
        self.in_class = 0
        self.within_eps = 0

    def timed(self, kind: str, fn, *args, label: str = "", **kwargs):
        """Time one call and the collection that frees the garbage it left.

        The automatic collector is off in the query phase, so each call pays
        here for its own garbage. `label` also files the time under kind.label.
        """
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        gc.collect()
        dt = perf_counter() - t0
        self.busy_s += dt
        self.times.setdefault(kind, []).append(dt)
        if label:
            self.times.setdefault(f"{kind}.{label}", []).append(dt)
        return out

    def epsilon(self, est: float, exact: float, eps: float) -> None:
        self.in_class += 1
        self.within_eps += abs(est - exact) <= eps


def random_predicate(rng, matrix: np.ndarray, m: int, b: int):
    """b clauses over m distinct columns with random operators and AND/OR.

    Constants are values of random rows, so every clause cuts the data
    somewhere it lives, also on the correlated table.
    """
    cols = [int(c) for c in rng.permutation(matrix.shape[1])[:m]]
    pred = None
    for i in range(b):
        col = cols[i % m]
        clause = ("clause", col, oracle.OPS[int(rng.integers(6))], int(matrix[rng.integers(matrix.shape[0]), col]))
        pred = clause if pred is None else (("and", "or")[int(rng.integers(2))], pred, clause)
    return pred


# The nine predicate shapes (m columns, b clauses) of the class (1, 2, 5).
SHAPES = [(m, b) for m in (1, 2) for b in range(m, 6)]


def random_select(rng, name: str, matrix: np.ndarray, shape: tuple[int, int]) -> Query:
    return Query((name,), (random_predicate(rng, matrix, *shape),))


def aligned_matrices(sampledb) -> dict[str, np.ndarray]:
    """Each sample table's rows ordered by sampleindex, built from its row tuples."""
    out = {}
    for st in sampledb.tables:
        rows = np.array(st.rows, dtype=np.int64).reshape(len(st.rows), len(st.columns))
        out[st.base] = rows[np.argsort(np.array(st.indexes, dtype=np.int64), kind="stable")]
    return out


def check_nodes(q: Query, records, aligned: dict[str, np.ndarray], s: int) -> None:
    """Every plan node's indexed and practitioner estimate against the sample counts."""
    nodes = oracle.node_queries(q)
    expect(len(records) == len(nodes), f"{len(records)} node records for {len(nodes)} nodes")
    for rec, nq in zip(records, nodes):
        kind = "select" if len(nq.tables) == 1 else "join"
        expect(rec.kind == kind, f"node {rec.node}: kind {rec.kind}, expected {kind}")
        ind = oracle.aligned_count(nq, aligned) / s
        expect(rec.est_indexed == ind, f"node {rec.node}: est_indexed {rec.est_indexed!r}, expected {ind!r}")
        pra = oracle.result_count(nq, aligned) / s ** len(nq.tables)
        expect(
            rec.est_practitioner == pra,
            f"node {rec.node}: est_practitioner {rec.est_practitioner!r}, expected {pra!r}",
        )


class InProcessStream:
    """select-stream and join-stream: the benchmark calls the library directly.

    One round holds `queries` and `refreshes`; a query is fully served as
    SQL text -> parse + estimates for every node, the histogram estimate,
    and the exact selectivity on the base tables.
    """

    name = ""
    epsilon = 0.0
    u_m_b = (1, 1, 1)

    def __init__(self, S, seed: int, rows: int):
        self.S = S
        self.seed = seed
        self.rows = rows
        self.refresh_no = 0

    # -- set-up ------------------------------------------------------------
    def generate(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        S = self.S
        self.tables = self.generate()
        self.catalog = S.stats.StatsCatalog()
        for t in self.tables:
            self.catalog.update(S.stats.build_stats(t))
        d = S.vcbounds.bound_general(*self.u_m_b).dimension
        self.s = S.vcbounds.sample_size_eps(S.vcbounds.SampleSizeSpec(epsilon=self.epsilon, delta=DELTA, d=d))
        self.refresh_no = 0
        self.sampledb = S.sampling.create_sample(self.s, self.tables, derive_seed(self.seed, 100, 0))
        for t in self.tables:  # pays the lazy sample-matrix conversion
            plan = S.queries.parse_query(f"SELECT * FROM {t.name}", self.tables)
            S.execution.estimate_all_nodes(self.sampledb, plan)
            S.execution.exact_selectivity(self.tables, plan)
            S.stats.estimate_join(self.catalog, plan)

    def prepare(self) -> None:
        """Untimed: the benchmark's copies of the data, and the order of a round's operations."""
        self.base = {
            t.name: np.array(t.rows, dtype=np.int64).reshape(t.row_count, len(t.columns))
            for t in self.tables
        }
        self.sizes = {t.name: t.row_count for t in self.tables}
        ops = [("query", i) for i in range(self.n_queries)] + [("refresh", i) for i in range(self.refreshes)]
        self.round = [ops[i] for i in np.random.default_rng(derive_seed(self.seed, 201)).permutation(len(ops))]
        self.aligned = aligned_matrices(self.sampledb)

    def begin_round(self, n: int) -> None:
        self.queries = self.make_queries(np.random.default_rng(derive_seed(self.seed, 200, n)))
        self.sql = [oracle.to_sql(q) for q in self.queries]

    def make_queries(self, rng) -> list[Query]:
        raise NotImplementedError

    # -- operations --------------------------------------------------------
    def do(self, op, rec: Recorder) -> None:
        kind, i = op
        if kind == "refresh":
            self.refresh_no += 1
            seed = derive_seed(self.seed, 100, self.refresh_no)
            self.sampledb = rec.timed("refresh", self.S.sampling.create_sample, self.s, self.tables, seed)
            self.aligned = aligned_matrices(self.sampledb)
            expect(self.sampledb.size == self.s, "refreshed sample has the wrong size")
            return
        S, q = self.S, self.queries[i]
        label = "select" if not q.joins else "chain" if len(q.joins) > 1 else f"join{q.joins[0].op}"
        records = rec.timed("estimate", self._estimate, self.sql[i], label=label)
        hist = rec.timed("histogram", S.stats.estimate_join, self.catalog, self._plan)
        exact = rec.timed("exact", S.execution.exact_selectivity, self.tables, self._plan, label=label)
        rec.queries += 1
        check_nodes(q, records, self.aligned, self.s)
        expect(0.0 <= hist <= 1.0, f"histogram estimate {hist!r} outside [0, 1]")
        denom = 1
        for t in q.tables:
            denom *= self.sizes[t]
        want = oracle.result_count(q, self.base) / denom
        expect(exact == want, f"exact {exact!r}, expected {want!r}")
        if self.in_class(q):
            rec.epsilon(records[-1].est_indexed, exact, self.epsilon)

    def _estimate(self, sql: str):
        self._plan = self.S.queries.parse_query(sql, self.tables)
        return self.S.execution.estimate_all_nodes(self.sampledb, self._plan)

    def in_class(self, q: Query) -> bool:
        u, m, b = q.clause_params
        cu, cm, cb = self.u_m_b
        return u <= cu and m <= cm and b <= cb

    def finish(self) -> None:
        pass


class SelectStream(InProcessStream):
    """The paper's main experiment: selections on a correlated and a uniform table."""

    name = "select-stream"
    epsilon = 0.05
    u_m_b = (1, 2, 5)

    def __init__(self, S, seed: int, rows: int = 1_000_000, queries: int = 36, refreshes: int = 1):
        super().__init__(S, seed, rows)
        self.n_queries = queries
        self.refreshes = refreshes

    def generate(self) -> list:
        T = self.S.tables
        dom = T.Domain(0, DOMAIN_HI)
        return [
            T.generate_correlated_table("corr", self.rows, MU, COV, dom, derive_seed(self.seed, 1)),
            T.generate_uniform_table("uni", self.rows, 2, dom, derive_seed(self.seed, 2)),
        ]

    def make_queries(self, rng) -> list[Query]:
        # Every shape on every table equally often: the cost of a query
        # grows with its clauses, so a random mix of shapes would move the
        # medians from seed to seed.
        names = list(self.base)
        return [
            random_select(rng, names[i % 2], self.base[names[i % 2]], SHAPES[i // 2 % len(SHAPES)])
            for i in range(self.n_queries)
        ]


class JoinStream(InProcessStream):
    """2-table theta joins in the class (2, 1, 1), and 3-table equality chains outside it."""

    name = "join-stream"
    epsilon = 0.35
    u_m_b = (2, 1, 1)

    def __init__(self, S, seed: int, rows: int = 100_000, ineq: int = 6, eq: int = 2, chains: int = 1, refreshes: int = 6):
        super().__init__(S, seed, rows)
        self.mix = (ineq, eq, chains)
        self.n_queries = ineq + eq + chains
        self.refreshes = refreshes

    def generate(self) -> list:
        T = self.S.tables
        dom = T.Domain(0, DOMAIN_HI)
        return [T.generate_uniform_table(n, self.rows, 2, dom, derive_seed(self.seed, 10 + k)) for k, n in enumerate("abc")]

    def make_queries(self, rng) -> list[Query]:
        ineq, eq, chains = self.mix
        out = []
        # Inequality joins filter each side on its other column and keep about
        # half of its rows, so every one materializes about s^2/8 sample pairs.
        keep = 0.5 + 0.02 * rng.uniform(-1, 1, size=2 * ineq)
        for i in range(ineq):
            x, y = (str(t) for t in rng.choice(list("abc"), size=2, replace=False))
            jx, jy = int(rng.integers(2)), int(rng.integers(2))
            preds = tuple(self._keep_clause(rng, 1 - c, f) for c, f in ((jx, keep[2 * i]), (jy, keep[2 * i + 1])))
            out.append(Query((x, y), preds, (Join(x, jx, str(rng.choice(["<", "<=", ">", ">="])), y, jy),)))
        # Equality joins and chains are filtered the same way, on a column
        # that is not joined where there is one, so their cost does not
        # depend on how much a random clause happens to keep.
        keep = 0.5 + 0.02 * rng.uniform(-1, 1, size=2 * eq + 3 * chains)
        for i in range(eq):
            x, y = (str(t) for t in rng.choice(list("abc"), size=2, replace=False))
            jx, jy = int(rng.integers(2)), int(rng.integers(2))
            preds = tuple(self._keep_clause(rng, 1 - c, f) for c, f in ((jx, keep[2 * i]), (jy, keep[2 * i + 1])))
            out.append(Query((x, y), preds, (Join(x, jx, "=", y, jy),)))
        for i in range(chains):
            x, y, z = (str(t) for t in rng.permutation(list("abc")))
            jx, jz = int(rng.integers(2)), int(rng.integers(2))
            f = keep[2 * eq + 3 * i : 2 * eq + 3 * i + 3]
            preds = (self._keep_clause(rng, 1 - jx, f[0]), self._keep_clause(rng, 0, f[1]), self._keep_clause(rng, 1 - jz, f[2]))
            joins = (Join(x, jx, "=", y, 0), Join(y, 1, "=", z, jz))
            out.append(Query((x, y, z), preds, joins))
        return out

    @staticmethod
    def _keep_clause(rng, col: int, keep: float):
        op = str(rng.choice(["<", "<=", ">", ">="]))
        v = int(keep * DOMAIN_HI) if op in ("<", "<=") else int((1 - keep) * DOMAIN_HI)
        return ("clause", col, op, v)


def _read_int_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def _csv_records(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class CliSession:
    """The README's command line on two 1e5-row CSVs, driven in-process through cli.main.

    As in the README, the sample is built from the uniform `t.csv`, which the
    queries read, and `experiment` runs on the correlated `corr.csv`.
    """

    name = "cli-session"
    u_m_b = (1, 2, 5)

    def __init__(
        self, S, seed: int, workdir: Path, rows: int = 100_000,
        experiment_count: int = 100, epsilon: float = 0.05,
    ):
        self.S = S
        self.epsilon = epsilon
        self.seed = seed
        self.dir = workdir
        self.rows = rows
        self.experiment_count = experiment_count
        self.refresh_no = 0

    def cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.S.cli.main([str(a) for a in argv])

    def run_ok(self, *argv) -> None:
        rc = self.cli(*argv)
        expect(rc == 0, f"selsample {argv[0]} exited {rc}")

    def command(self, rec: Recorder, kind: str, *argv) -> None:
        rc = rec.timed(kind, self.cli, *argv)
        expect(rc == 0, f"selsample {argv[0]} exited {rc}")

    def build_sample_argv(self, seed: int) -> tuple:
        return (
            "build-sample", "--table", self.csv["t"], "--auto",
            "--u", 1, "--m", 2, "--b", 5, "--epsilon", self.epsilon, "--delta", DELTA,
            "--seed", seed, "--out", self.dir / "sample",
        )

    def setup(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.csv = {"t": self.dir / "t.csv", "corr": self.dir / "corr.csv"}
        self.manifest = self.dir / "sample" / "manifest.json"
        self.run_ok("gen-data", "--kind", "uniform", "--rows", self.rows, "--cols", 2,
                    "--seed", derive_seed(self.seed, 1), "--out", self.csv["t"])
        self.run_ok("gen-data", "--kind", "correlated", "--rows", self.rows,
                    "--seed", derive_seed(self.seed, 2), "--out", self.csv["corr"])
        self.run_ok("build-stats", "--table", self.csv["t"], "--table", self.csv["corr"], "--out", self.dir / "stats.txt")
        self.refresh_no = 0
        self.run_ok(*self.build_sample_argv(derive_seed(self.seed, 100, 0)))
        self.run_ok("estimate", "--query", "SELECT * FROM t", "--sample", self.manifest, "--out", self.dir / "warm.csv")

    def prepare(self) -> None:
        vc = self.S.vcbounds
        d = vc.bound_general(*self.u_m_b).dimension
        self.sizes = [vc.sample_size_eps(vc.SampleSizeSpec(epsilon=e, delta=DELTA, d=d)) for e in (4 * self.epsilon, 2 * self.epsilon, self.epsilon)]
        self.base = {"t": _read_int_csv(self.csv["t"])}
        ops = [(kind, i) for i in range(len(SHAPES)) for kind in ("estimate", "exact")]
        # Three refreshes a round: a 45 s run fits about five rounds, and one
        # refresh a round would make refresh_ms.mean a mean of five.
        ops += [("refresh", i) for i in range(3)] + [("experiment", 0)]
        self.round = [ops[i] for i in np.random.default_rng(derive_seed(self.seed, 201)).permutation(len(ops))]
        self.experiment_seed = derive_seed(self.seed, 300)
        self._load_sample()

    def begin_round(self, n: int) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 200, n))
        # Each of the nine shapes of the class once, so every round has the same mix.
        self.queries = [random_select(rng, "t", self.base["t"], shape) for shape in SHAPES]
        self.sql = [oracle.to_sql(q) for q in self.queries]

    def _load_sample(self) -> None:
        """The sample as written: per table, rows ordered by their sampleindex column."""
        manifest = json.loads(self.manifest.read_text())
        self.s = int(manifest["size"])
        self.aligned = {}
        for entry in manifest["tables"]:
            data = _read_int_csv(self.manifest.parent / entry["file"])
            expect(data.shape[0] == self.s, f"{entry['file']}: {data.shape[0]} rows, manifest says {self.s}")
            order = np.argsort(data[:, 0], kind="stable")
            expect(np.array_equal(data[order, 0], np.arange(1, self.s + 1)), "sampleindex is not 1..s")
            self.aligned[entry["base"]] = data[order, 1:]

    def do(self, op, rec: Recorder) -> None:
        kind, i = op
        if kind == "refresh":
            self.refresh_no += 1
            self.command(rec, "refresh", *self.build_sample_argv(derive_seed(self.seed, 100, self.refresh_no)))
            self._load_sample()
        elif kind == "experiment":
            self._experiment(rec)
        else:
            self._estimate(kind, i, rec)

    def _estimate(self, kind: str, i: int, rec: Recorder) -> None:
        """`estimate`, or `estimate --exact-against`, which completes the query."""
        q, out = self.queries[i], self.dir / "est.csv"
        (table,) = q.tables
        argv = ["estimate", "--query", self.sql[i], "--sample", self.manifest, "--out", out]
        if kind == "estimate":
            self.command(rec, kind, *argv)
            self._check_estimate(q, out, exact=None)
            return
        self.command(rec, kind, *argv, "--exact-against", self.csv[table])
        want = oracle.result_count(q, self.base) / self.base[table].shape[0]
        self._check_estimate(q, out, exact=want)
        rec.queries += 1
        rec.epsilon(oracle.aligned_count(q, self.aligned) / self.s, want, self.epsilon)

    def _check_estimate(self, q: Query, path: Path, exact: float | None) -> None:
        (row,) = _csv_records(path)
        k = oracle.aligned_count(q, self.aligned)
        expect(float(row["est_indexed"]) == k / self.s, f"est_indexed {row['est_indexed']}, expected {k / self.s!r}")
        expect(float(row["est_practitioner"]) == k / self.s, f"est_practitioner {row['est_practitioner']}")
        expect(int(row["s"]) == self.s and row["node_kind"] == "select", "node kind or s differs")
        if exact is None:
            expect(row["exact"] == "", "exact written without --exact-against")
        else:
            expect(float(row["exact"]) == exact, f"exact {row['exact']}, expected {exact!r}")

    def _experiment(self, rec: Recorder) -> None:
        out = self.dir / "exp"
        self.command(
            rec, "experiment",
            "experiment", "--table", self.csv["corr"], "--workload-m", 2, "--workload-b", 5,
            "--count", self.experiment_count, "--sizes", ",".join(map(str, self.sizes)),
            "--epsilon", self.epsilon, "--delta", DELTA, "--methods", "indexed,practitioner,histogram",
            "--seed", self.experiment_seed, "--out-dir", out,
        )
        rows = _csv_records(out / "summary.csv")
        got = [(r["method"], r["sample_size"]) for r in rows]
        want = [(m, str(s)) for m in ("indexed", "practitioner") for s in self.sizes] + [("histogram", "")]
        expect(got == want, f"summary rows {got}")
        bound_row = rows[len(self.sizes) - 1]
        expect(float(bound_row["frac_within_eps"]) >= 1 - DELTA, f"indexed at s={self.sizes[-1]}: frac_within_eps {bound_row['frac_within_eps']}")
        per_query = _csv_records(out / "per_query.csv")
        expect(len(per_query) == self.experiment_count * len(self.sizes), f"{len(per_query)} per-query rows")

    def finish(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
