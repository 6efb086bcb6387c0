"""Command-line interface.

Subcommands: gen-data, build-sample, build-stats, bounds, sample-size,
estimate, experiment. Every command is deterministic for fixed flags and
seeds. Exit code 0 on success, 2 on validation errors and on allocations
that do not fit in memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from .execution import estimate_all_nodes
from .harness import (
    METHODS,
    WORKLOAD_KINDS,
    WorkloadSpec,
    check_experiment_options,
    generate_workload,
    per_query_csv,
    run_experiment,
    write_experiment_csv,
)
from .queries import SchemaWarning, class_params, parse_query
from .sampling import check_sample_size, create_sample, load_sample, save_sample
from .stats import StatsCatalog, build_stats, dump_stats
from .tables import (
    Domain,
    Table,
    by_name,
    generate_correlated_table,
    generate_uniform_table,
    read_csv,
    save_csv,
    write_file,
)
from .vcbounds import Sizing, bound_general, check_guarantee, size_sample


def _parse_domain(args) -> Domain | None:
    if args.domain_lo is None and args.domain_hi is None:
        return None
    if args.domain_lo is None or args.domain_hi is None:
        raise ValueError("--domain-lo and --domain-hi must be given together")
    return Domain(args.domain_lo, args.domain_hi)


def _load_tables(paths: list[str], domain: Domain | None) -> list[Table]:
    """The tables of the CSV files, named after them; a repeated name is an error."""
    return list(by_name(read_csv(p, domain=domain) for p in paths).values())


def cmd_gen_data(args) -> int:
    domain = Domain(args.domain_lo, args.domain_hi)
    out = Path(args.out)
    name = args.name or out.stem
    if args.kind == "uniform":
        table = generate_uniform_table(name, args.rows, args.cols, domain, args.seed)
    else:
        if args.cols != 2:
            raise ValueError("correlated tables have exactly 2 columns")
        cov_entries = [float(v) for v in args.cov.split(",")]
        if len(cov_entries) != 3:
            raise ValueError("--cov takes three values: var1,cov12,var2")
        v1, c12, v2 = cov_entries
        table = generate_correlated_table(
            name, args.rows, args.mu, [[v1, c12], [c12, v2]], domain, args.seed
        )
    save_csv(table, out)
    print(f"wrote {out}: {table.row_count} rows x {len(table.columns)} columns")
    return 0


def _sizing(args, p: float | None = None) -> Sizing:
    """The sample size at --epsilon and --delta for --d-override or the class --u/--m/--b."""
    given = (args.u, args.m, args.b)
    if args.d_override is None:
        if None in given:
            raise ValueError("need --d-override or all of --u/--m/--b to derive the dimension")
        return size_sample(args.epsilon, args.delta, u_m_b=given, p=p)
    if given != (None, None, None):
        raise ValueError("pass --d-override or --u/--m/--b, not both")
    if args.d_override <= 0:
        raise ValueError("--d-override must be positive")
    return size_sample(args.epsilon, args.delta, d=args.d_override, p=p)


def cmd_build_sample(args) -> int:
    domain = _parse_domain(args)
    if args.size is not None and args.auto:
        raise ValueError("pass --size or --auto, not both")
    if args.size is not None:
        flags = {"--u": args.u, "--m": args.m, "--b": args.b, "--d-override": args.d_override}
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError(f"pass --size or --auto with {', '.join(given)}, not both")
        check_sample_size(args.size)
        size = args.size
    elif args.auto:
        size = _sizing(args).size
    else:
        raise ValueError("pass --size or --auto")
    sdb = create_sample(size, _load_tables(args.table, domain), args.seed)
    manifest = save_sample(sdb, args.out)
    print(f"wrote {manifest}: {len(sdb.tables)} sample table(s) of size {size}")
    return 0


def cmd_build_stats(args) -> int:
    catalog = StatsCatalog(args.buckets, args.mcv)
    tables = _load_tables(args.table, _parse_domain(args))
    for t in tables:
        catalog.update(build_stats(t, args.buckets, args.mcv))
    dump_stats(catalog, args.out)
    print(f"wrote {args.out}: statistics for {len(catalog.entries)} column(s)")
    return 0


def _print_record(record: dict, as_json: bool) -> int:
    """Print one record, as a sorted JSON line or as "key: value" lines in order."""
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


def cmd_bounds(args) -> int:
    report = bound_general(args.u, args.m, args.b)
    record = {
        "formula": report.formula_id,
        "u": args.u,
        "m": args.m,
        "b": args.b,
        "log_base": 2.0,
        "bound": report.bound,
        "dimension": report.dimension,
    }
    return _print_record(record, args.json)


def cmd_sample_size(args) -> int:
    sizing = _sizing(args, p=args.p)
    spec = sizing.spec
    record = {
        "d": spec.d,
        "epsilon": spec.epsilon,
        "delta": spec.delta,
        "c": spec.c,
        "mode": "absolute" if spec.p is None else "relative",
        "sample_size": sizing.size,
    }
    if spec.p is not None:
        record["p"] = spec.p
        record["c_prime"] = spec.c_prime
    return _print_record(record, args.json)


def cmd_estimate(args) -> int:
    domain = _parse_domain(args)
    sdb = load_sample(args.sample, domain)
    exact_tables = _load_tables(args.exact_against, domain) if args.exact_against else None
    # Without --exact-against the sample is the catalog: its domains are
    # --domain-lo/--domain-hi, or span its values.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SchemaWarning)
        try:
            plan = parse_query(args.query, exact_tables or sdb.tables)
        finally:
            # One line per distinct message, as Python's default filter
            # showed them, without the file, line and source it printed.
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    records = estimate_all_nodes(sdb, plan, db=exact_tables)
    text = per_query_csv([(0, r) for r in records])
    if args.out:
        write_file(args.out, text.encode())
        print(f"wrote {args.out}: {len(records)} node estimate(s)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_experiment(args) -> int:
    domain = _parse_domain(args)
    spec = WorkloadSpec(
        m=args.workload_m, b=args.workload_b, count=args.count, kind=args.kind, seed=args.seed
    )
    spec.check_table_count(len(args.table))
    methods = [m for m in args.methods.split(",") if m]
    sizes = [_size(part) for part in args.sizes.split(",") if part] if args.sizes else None
    check_guarantee(args.epsilon, args.delta)
    check_experiment_options(methods, sizes, args.buckets, args.mcv)
    tables = _load_tables(args.table, domain)
    workload = generate_workload(spec, tables)
    if sizes is None:  # the automatic size needs the workload's class
        params = class_params(*workload)
        sizes = [size_sample(args.epsilon, args.delta, u_m_b=(params.u, params.m, params.b)).size]
    result = run_experiment(
        tables,
        workload,
        sizes,
        args.epsilon,
        methods,
        args.seed,
        stats_buckets=args.buckets,
        stats_mcv=args.mcv,
    )
    summary_path, per_query_path = write_experiment_csv(result, args.out_dir)
    print(f"wrote {summary_path} and {per_query_path}")
    for s in result.summaries:
        size = "-" if s.sample_size is None else s.sample_size
        print(
            f"{s.method:>12} s={size:>8} mean%={s.mean_pct_error:10.3f} "
            f"std%={s.stddev_pct_error:10.3f} within-eps={s.frac_within_eps:.2f} "
            f"excluded={s.excluded_zero_exact}"
        )
    return 0


def _size(part: str) -> int:
    """One entry of experiment's --sizes."""
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"--sizes: invalid int value: {part!r}") from None


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain-lo", type=int, default=None, help="domain lower bound for all columns")
    p.add_argument("--domain-hi", type=int, default=None, help="domain upper bound for all columns")


def _add_dimension_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u", type=int, default=None, help="number of select operations")
    p.add_argument("--m", type=int, default=None, help="max columns per selection predicate")
    p.add_argument("--b", type=int, default=None, help="max clauses per selection predicate")
    p.add_argument("--d-override", type=int, default=None, help="use this VC dimension directly")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns a
    new namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="selsample",
        description="Selectivity estimation via VC-bound-sized, index-aligned samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic table as CSV")
    p.add_argument("--kind", choices=["uniform", "correlated"], required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--domain-lo", type=int, default=0)
    p.add_argument("--domain-hi", type=int, default=200000)
    p.add_argument("--mu", type=float, default=100000.0, help="mean of both correlated columns")
    p.add_argument(
        "--cov",
        default="900000000,810000000,900000000",
        help="covariance matrix as var1,cov12,var2",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--name", default=None, help="table name (default: output file stem)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-sample", help="build an index-aligned sample database")
    p.add_argument("--table", action="append", required=True, help="base table CSV (repeatable)")
    _add_domain_flags(p)
    p.add_argument("--size", type=int, default=None, help="sample size per table")
    p.add_argument("--auto", action="store_true", help="derive size from the VC bound")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.05)
    _add_dimension_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory for sample CSVs + manifest")
    p.set_defaults(func=cmd_build_sample)

    p = sub.add_parser("build-stats", help="build MCV + equi-depth histogram statistics")
    p.add_argument("--table", action="append", required=True)
    _add_domain_flags(p)
    p.add_argument("--buckets", type=int, default=100)
    p.add_argument("--mcv", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_stats)

    p = sub.add_parser("bounds", help="VC-dimension upper bound for a query class")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sample-size", help="sample size for an epsilon-approximation")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--p", type=float, default=None, help="relative-approximation threshold")
    _add_dimension_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample_size)

    p = sub.add_parser("estimate", help="estimate a query's selectivity on a sample")
    p.add_argument("--query", required=True)
    p.add_argument("--sample", required=True, help="sample manifest.json")
    p.add_argument(
        "--exact-against", action="append", default=None, help="base table CSV for exact values"
    )
    _add_domain_flags(p)
    p.add_argument("--out", default=None, help="write the per-node CSV here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", help="run a workload over a sample-size sweep")
    p.add_argument("--table", action="append", required=True)
    _add_domain_flags(p)
    p.add_argument("--workload-m", type=int, required=True)
    p.add_argument("--workload-b", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--kind", choices=list(WORKLOAD_KINDS), default="select-only")
    p.add_argument("--sizes", default=None, help="comma-separated sample sizes (default: auto)")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--buckets", type=int, default=100)
    p.add_argument("--mcv", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
