"""A traced benchmark run measures every per-layer metric.

`perfbench/run.py --trace 1` exits 1 when a metric of `run.PER_LAYER` has no
span, so a program change that moves a call out from under a traced name
(say, an exact count that no longer goes through
`execution.exact_selectivity`) fails the benchmark. Here the tracer runs both
workloads of BENCHMARK.json at tiny sizes, in a subprocess so that its
wrappers never reach the other tests' modules.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import run as bench
import selftest
from spans import Tracer, layer_metrics

S = bench.load_program()
bench.OUT.mkdir(exist_ok=True)
report = {}
for name in ("join-stream", "cli-session"):
    tracer = Tracer()
    tracer.install()
    try:
        r = selftest.run_small(S, name)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer)
    report[name] = {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "errors": r["detail"]["errors"],
        "unmeasured": [k for k in bench.PER_LAYER if layers[k][0] is None],
    }
print(json.dumps(report))
"""


def test_traced_run_measures_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    for name in ("join-stream", "cli-session"):
        r = report[name]
        assert r["attempted"] > 0 and r["failed"] == 0, (name, r["errors"])
        assert r["unmeasured"] == [], name
