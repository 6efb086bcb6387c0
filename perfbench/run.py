#!/usr/bin/env python3
"""Run one workload of the selsample benchmark and print its result as JSON.

    python3 perfbench/run.py --workload select-stream --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The full set of figures
(percentiles of every call, every layer, the set-up times) goes to
`perfbench/out/<workload>-seed<seed>-trace<t>.json`, and a traced run's spans
to the `.spans.jsonl` file beside it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout as it was

import argparse
import gc
import json
import os
import resource
import statistics
import traceback
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END = ("setup_s", "estimate_ms.p75", "exact_ms.p75", "refresh_ms.p75", "queries_per_s", "peak_rss_mb")
# The layers that both workloads of BENCHMARK.json call; the others are in the
# results file.
PER_LAYER = (
    "tables.generate_ms",
    "queries.parse_query_us",
    "sampling.create_sample_ms",
    "execution.estimate_all_nodes_ms",
    "execution.estimate_rss_rise_mb",
    "execution.exact_selectivity_ms",
    "stats.build_stats_ms",
    "stats.estimate_join_us",
)
MODULES = ("tables", "queries", "vcbounds", "sampling", "execution", "stats", "harness", "cli")


def load_program() -> types.SimpleNamespace:
    """Import selsample from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "selsample" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'selsample'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import importlib

    pkg = importlib.import_module("selsample")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported selsample from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"selsample.{m}") for m in MODULES})


def make_workload(name: str, S, seed: int, small: bool = False):
    from workloads import CliSession, JoinStream, SelectStream

    if name == "select-stream":
        return SelectStream(S, seed, **(dict(rows=5_000, queries=18) if small else {}))
    if name == "join-stream":
        return JoinStream(S, seed, **(dict(rows=2_000, ineq=3, eq=2, chains=2) if small else {}))
    if name == "cli-session":
        workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
        return CliSession(S, seed, workdir, **(dict(rows=3_000, experiment_count=5, epsilon=0.2) if small else {}))
    raise SystemExit(f"error: unknown workload {name!r}")


def tail(values: list[float], scale: float) -> dict[str, float]:
    """Mean, median and upper quartile, and p90 only where at least ten samples lie beyond it."""
    out = {
        "mean": statistics.fmean(values) * scale,
        "p50": statistics.median(values) * scale,
        "p75": statistics.quantiles(values, n=4)[2] * scale if len(values) > 1 else values[0] * scale,
    }
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[8] * scale
    return out


def run(workload, seconds: float, tracer=None) -> dict:
    from workloads import DELTA, Recorder

    setups = []
    for _ in range(SETUPS):
        workload.__dict__.pop("tables", None)  # release the previous set-up first
        workload.__dict__.pop("sampledb", None)
        gc.collect()
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    workload.prepare()
    # Each estimate leaves its result sets in a reference cycle. Left to the
    # collector's own schedule, that garbage piles up for a varying number of
    # operations, and peak RSS and timings vary with it. So during the query
    # phase the collector runs only at the end of each timed call, inside its
    # timing (Recorder.timed): every call pays for freeing what it left. The
    # set-up's objects never become garbage; frozen, they are not walked each
    # time.
    gc.collect()
    gc.freeze()
    gc.disable()

    rec = Recorder()
    attempted = failed = 0
    errors: list[str] = []
    t_end = perf_counter() + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < t_end:
        workload.begin_round(rounds)
        for op in workload.round:
            attempted += 1
            try:
                workload.do(op, rec)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                if len(errors) < 3:
                    errors.append(f"{op}: {traceback.format_exc(limit=3)}")
            gc.collect()  # untimed: what the benchmark's own checks left
        rounds += 1
    gc.enable()
    gc.unfreeze()
    workload.finish()

    eps_ok = rec.in_class == 0 or rec.within_eps >= (1 - DELTA) * rec.in_class
    if not eps_ok:
        errors.append(f"epsilon guarantee: {rec.within_eps} of {rec.in_class} in-class queries within epsilon")
    # The gated timings are upper quartiles (README, "End-to-end metrics"):
    # the machine's speed switches between a fast and a slow level for
    # seconds at a time, and the slow level, its usual one, holds more than a
    # quarter of nearly every run. A median jumps between the levels where
    # their shares cross one half; a mean moves with the shares.
    figures: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(setups), "s")}
    for kind in ("estimate", "exact", "refresh", "experiment"):
        if rec.times.get(kind):
            unit, scale = ("s", 1.0) if kind == "experiment" else ("ms", 1e3)
            for q, v in tail(rec.times[kind], scale).items():
                figures[f"{kind}_{unit}.{q}"] = (v, unit)
    figures["queries_per_s"] = (rec.queries / rec.busy_s, "1/s")
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    counts = {k: len(v) for k, v in rec.times.items()}
    medians_ms = {k: statistics.median(v) * 1e3 for k, v in rec.times.items()}
    return {
        "correct": eps_ok,
        "attempted": attempted,
        "failed": failed,
        "figures": figures,
        "detail": {
            "rounds": rounds,
            "setups_s": setups,
            "samples": counts,
            "medians_ms": medians_ms,
            "times_s": rec.times,
            "queries": rec.queries,
            "busy_s": rec.busy_s,
            "in_class": rec.in_class,
            "within_eps": rec.within_eps,
            "errors": errors,
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["select-stream", "join-stream", "cli-session"])
    ap.add_argument("--seed", type=int, required=True, help="every input is generated from this seed")
    ap.add_argument("--seconds", type=float, required=True, help="length of the query phase")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    S = load_program()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run(make_workload(args.workload, S, args.seed), args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    figures = result["figures"]
    if tracer is not None:
        from spans import layer_metrics

        layers = layer_metrics(tracer)
        tracer.write_jsonl(Path(f"{stem}.spans.jsonl"))
        chosen = {k: layers[k] for k in PER_LAYER}
    else:
        layers = {}
        chosen = {k: figures.get(k) for k in END_TO_END}
    missing = [k for k, v in chosen.items() if v is None or v[0] is None]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        **result["detail"],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for e in result["detail"]["errors"]:
        print(e, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
