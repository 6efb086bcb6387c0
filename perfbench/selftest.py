#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

1. The benchmark's counts agree with a brute-force enumeration and with the
   program on random small instances.
2. Every workload runs one round at tiny sizes with no failed operation.
3. A deliberately wrong estimate, and a wrong exact value, are caught.
"""

from __future__ import annotations

import itertools
import operator
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import oracle
import run as bench
from oracle import Join, Query
from workloads import aligned_matrices, check_nodes, random_predicate

_PY = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge, "=": operator.eq, "<>": operator.ne}


def _holds(pred, row) -> bool:
    if pred is None:
        return True
    if pred[0] == "clause":
        return _PY[pred[2]](row[pred[1]], pred[3])
    if pred[0] == "and":
        return _holds(pred[1], row) and _holds(pred[2], row)
    return _holds(pred[1], row) or _holds(pred[2], row)


def brute_count(q: Query, mats: dict[str, np.ndarray]) -> int:
    """Result size by enumerating every combination of rows."""
    total = 0
    for rows in itertools.product(*(mats[t].tolist() for t in q.tables)):
        row = dict(zip(q.tables, rows))
        if all(_holds(p, row[t]) for t, p in zip(q.tables, q.predicates)) and all(
            _PY[j.op](row[j.left][j.left_col], row[j.right][j.right_col]) for j in q.joins
        ):
            total += 1
    return total


def random_instance(rng, S):
    """Three small tables over a narrow domain, so equal values are common."""
    dom = S.tables.Domain(0, 9)
    tables = [S.tables.generate_uniform_table(n, int(rng.integers(1, 9)), 2, dom, int(rng.integers(1 << 30))) for n in "abc"]
    mats = {t.name: np.array(t.rows, dtype=np.int64).reshape(t.row_count, 2) for t in tables}
    kind = int(rng.integers(3))
    pred = lambda t: random_predicate(rng, mats[t], int(rng.integers(1, 3)), int(rng.integers(2, 4))) if rng.random() < 0.8 else None  # noqa: E731
    x, y, z = (str(t) for t in rng.permutation(list("abc")))
    if kind == 0:
        q = Query((x,), (pred(x),))
    elif kind == 1:
        op = oracle.OPS[int(rng.integers(6))]
        q = Query((x, y), (pred(x), pred(y)), (Join(x, int(rng.integers(2)), op, y, int(rng.integers(2))),))
    else:
        joins = (Join(x, int(rng.integers(2)), "=", y, 0), Join(y, 1, "=", z, int(rng.integers(2))))
        q = Query((x, y, z), (pred(x), pred(y), pred(z)), joins)
    return tables, mats, q


def check_oracle_agreement(S, instances: int = 300) -> None:
    rng = np.random.default_rng(7)
    for n in range(instances):
        tables, mats, q = random_instance(rng, S)
        plan = S.queries.parse_query(oracle.to_sql(q), tables)
        want = brute_count(q, mats)
        assert oracle.result_count(q, mats) == want, (n, oracle.to_sql(q))
        assert S.execution.exact_cardinality(tables, plan) == want, (n, oracle.to_sql(q))
        s = int(rng.integers(1, 12))
        sdb = S.sampling.create_sample(s, tables, int(rng.integers(1 << 30)))
        aligned = aligned_matrices(sdb)
        assert oracle.aligned_count(q, aligned) == sum(
            brute_count(q, {t: m[i : i + 1] for t, m in aligned.items()}) for i in range(s)
        ), (n, oracle.to_sql(q))
        check_nodes(q, S.execution.estimate_all_nodes(sdb, plan), aligned, s)
    print(f"ok: counts agree with brute force and the program on {instances} random instances")


def run_small(S, name: str):
    return bench.run(bench.make_workload(name, S, seed=3, small=True), seconds=0.0)


def check_workloads(S) -> None:
    for name in ("select-stream", "join-stream", "cli-session"):
        r = run_small(S, name)
        assert r["failed"] == 0 and r["correct"], (name, r["detail"]["errors"])
        assert r["attempted"] > 0
        print(f"ok: {name} at tiny sizes, {r['attempted']} operations, none failed")


def check_wrong_outputs_caught(S) -> None:
    good_nodes, good_exact = S.execution.estimate_all_nodes, S.execution.exact_selectivity

    def off_by_one(sampledb, plan, db=None):
        records = good_nodes(sampledb, plan, db)
        records[-1].est_indexed += 1 / sampledb.size
        return records

    cases = [
        ("select-stream", S.execution, "estimate_all_nodes", off_by_one),
        ("join-stream", S.execution, "estimate_all_nodes", off_by_one),
        ("join-stream", S.execution, "exact_selectivity", lambda db, plan: good_exact(db, plan) * 1.5 + 1e-9),
        ("cli-session", S.cli, "estimate_all_nodes", off_by_one),
    ]
    for name, module, attr, bad in cases:
        good = getattr(module, attr)
        setattr(module, attr, bad)
        try:
            r = run_small(S, name)
        finally:
            setattr(module, attr, good)
        assert r["failed"] > 0, (name, attr)
        print(f"ok: a wrong {attr} on {name} fails {r['failed']} of {r['attempted']} operations")


def main() -> int:
    S = bench.load_program()
    bench.OUT.mkdir(exist_ok=True)
    check_oracle_agreement(S)
    check_workloads(S)
    check_wrong_outputs_caught(S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
