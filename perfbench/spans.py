"""Spans around calls into the program's public functions, for the traced run.

The tracer replaces a function by a wrapper wherever the program binds it:
in its defining module and in the modules that import it by name
(`selsample.harness`, `selsample.cli`). So a call made by the benchmark, by
the harness or by a CLI command is recorded alike, and spans nest as
cli -> harness -> execution. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

# (defining module, function). A span is named module.function, and a
# cli.main span after its command, as in cli.estimate.
TRACED = (
    ("tables", "generate_uniform_table"),
    ("tables", "generate_correlated_table"),
    ("tables", "read_csv"),
    ("tables", "save_csv"),
    ("queries", "parse_query"),
    ("sampling", "create_sample"),
    ("sampling", "save_sample"),
    ("sampling", "load_sample"),
    ("execution", "estimate_all_nodes"),
    ("execution", "exact_selectivity"),
    ("execution", "exact_cardinality"),
    ("stats", "build_stats"),
    ("stats", "dump_stats"),
    ("stats", "estimate_join"),
    ("harness", "generate_workload"),
    ("harness", "run_experiment"),
    ("harness", "write_experiment_csv"),
    ("cli", "main"),
)
_BINDERS = ("harness", "cli")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rss_rise_mb: float = 0.0  # growth of peak RSS while the span ran
    nodes: int = 0  # plan nodes of the workload given to run_experiment
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Calls are single-threaded, so child spans never overlap each other.
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def install(self) -> None:
        for mod_name, fn_name in TRACED:
            home = importlib.import_module(f"selsample.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for binder in {mod_name, *_BINDERS}:
                mod = importlib.import_module(f"selsample.{binder}")
                if getattr(mod, fn_name, None) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else None)
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span.name = f"cli.{argv[0]}" if argv else name
            elif name == "harness.run_experiment":
                from selsample.queries import subplans

                span.nodes = sum(len(subplans(p)) for p in args[1])
            sid = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            rss0 = _maxrss_mb()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_mb = _maxrss_mb() - rss0
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].children_s += span.duration

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "self_s": s.self_time,
                            "rss_rise_mb": s.rss_rise_mb,
                        }
                    )
                    + "\n"
                )


def _median(values, scale: float) -> float | None:
    return statistics.median(values) * scale if values else None


def layer_metrics(tr: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics from the spans: medians per call unless noted.

    A metric whose layer the workload never calls is None.
    """
    dur = lambda name: [s.duration for s in tr.named(name)]  # noqa: E731
    experiments = tr.named("harness.run_experiment")
    exact_in_experiments = sum(
        1
        for s in tr.spans
        if s.name in ("execution.exact_selectivity", "execution.exact_cardinality")
        and tr.has_ancestor(s, "harness.run_experiment")
    )
    nodes = sum(s.nodes for s in experiments)
    cli_self = [s.self_time for s in tr.spans if s.name.startswith("cli.")]
    return {
        "tables.generate_ms": (
            _median(dur("tables.generate_uniform_table") + dur("tables.generate_correlated_table"), 1e3),
            "ms",
        ),
        "tables.read_csv_ms": (_median(dur("tables.read_csv"), 1e3), "ms"),
        "tables.save_csv_ms": (_median(dur("tables.save_csv"), 1e3), "ms"),
        "queries.parse_query_us": (_median(dur("queries.parse_query"), 1e6), "us"),
        "sampling.create_sample_ms": (_median(dur("sampling.create_sample"), 1e3), "ms"),
        "sampling.save_sample_ms": (_median(dur("sampling.save_sample"), 1e3), "ms"),
        "sampling.load_sample_ms": (_median(dur("sampling.load_sample"), 1e3), "ms"),
        "execution.estimate_all_nodes_ms": (_median(dur("execution.estimate_all_nodes"), 1e3), "ms"),
        # Total, not a median: how much of the peak RSS was first reached
        # inside estimate calls.
        "execution.estimate_rss_rise_mb": (
            sum(s.rss_rise_mb for s in tr.named("execution.estimate_all_nodes")),
            "MB",
        ),
        "execution.exact_selectivity_ms": (_median(dur("execution.exact_selectivity"), 1e3), "ms"),
        "stats.build_stats_ms": (_median(dur("stats.build_stats"), 1e3), "ms"),
        "stats.estimate_join_us": (_median(dur("stats.estimate_join"), 1e6), "us"),
        "harness.run_experiment_s": (_median([s.duration for s in experiments], 1.0), "s"),
        # An exact count: exact calls inside run_experiment per plan node.
        "harness.exact_calls_per_node": (exact_in_experiments / nodes if nodes else None, "count"),
        "cli.self_ms": (_median(cli_self, 1e3), "ms"),
    }
