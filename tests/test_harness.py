"""Workload generation, percent-error metric, and the experiment runner."""

import math

import pytest

from conftest import make_table
from selsample.execution import estimate_all_nodes, exact_selectivity
from selsample.harness import (
    ErrorSummary,
    WorkloadSpec,
    generate_workload,
    per_query_csv,
    percent_error,
    run_experiment,
    summary_csv,
)
from selsample.queries import PREDICATE_LIMIT, JoinNode, SelectLeaf, class_params, ComparisonOp
from selsample.sampling import create_sample
from selsample.tables import ColumnMeta, Domain, Table, generate_uniform_table

T100 = generate_uniform_table("T", 100, 3, Domain(0, 50), seed=1)
A100 = generate_uniform_table("A", 100, 2, Domain(0, 50), seed=2)
B100 = generate_uniform_table("B", 100, 2, Domain(0, 50), seed=3)


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(m=0, b=1)
        with pytest.raises(ValueError):
            WorkloadSpec(m=2, b=1)
        with pytest.raises(ValueError):
            WorkloadSpec(m=1, b=1, count=0)
        with pytest.raises(ValueError):
            WorkloadSpec(m=1, b=1, kind="nope")

    def test_b_within_the_parse_limit(self):
        spec = WorkloadSpec(m=2, b=PREDICATE_LIMIT, count=2, kind="join-pair", seed=4)
        for plan in generate_workload(spec, [A100, B100]):
            assert class_params(plan).b == PREDICATE_LIMIT
            exact_selectivity([A100, B100], plan)
        with pytest.raises(ValueError, match="b must be at most 100"):
            WorkloadSpec(m=1, b=PREDICATE_LIMIT + 1)


class TestGenerateWorkload:
    def test_deterministic_per_seed(self):
        spec = WorkloadSpec(m=1, b=1, count=3, seed=5)
        assert generate_workload(spec, [T100]) == generate_workload(spec, [T100])

    def test_different_seeds_differ(self):
        a = generate_workload(WorkloadSpec(m=2, b=3, count=10, seed=1), [T100])
        b = generate_workload(WorkloadSpec(m=2, b=3, count=10, seed=2), [T100])
        assert a != b

    def test_class_params_contract(self):
        for kind, u in (("select-only", 1), ("join-pair", 2)):
            spec = WorkloadSpec(m=2, b=4, count=20, kind=kind, seed=9)
            tables = [T100] if kind == "select-only" else [A100, B100]
            for plan in generate_workload(spec, tables):
                params = class_params(plan)
                assert params.u == u
                assert params.m <= 2
                assert params.b == 4

    def test_select_plans_are_leaves(self):
        for plan in generate_workload(WorkloadSpec(m=1, b=2, count=5, seed=3), [T100]):
            assert isinstance(plan, SelectLeaf)
            assert plan.table == "T"

    def test_join_pair_shape(self):
        spec = WorkloadSpec(m=1, b=2, count=5, kind="join-pair", seed=3)
        for plan in generate_workload(spec, [A100, B100]):
            assert isinstance(plan, JoinNode)
            assert plan.condition.op is ComparisonOp.EQ
            assert plan.condition.left.table == "A"
            assert plan.condition.right.table == "B"
            assert plan.right.predicate is None
            assert plan.left.predicate is not None

    def test_schema_too_small(self):
        with pytest.raises(ValueError, match="columns"):
            generate_workload(WorkloadSpec(m=9, b=9), [T100])
        with pytest.raises(ValueError, match="two tables"):
            generate_workload(WorkloadSpec(m=1, b=1, kind="join-pair"), [A100])

    def test_no_tables(self):
        with pytest.raises(ValueError, match="^workload generation needs at least one table$"):
            generate_workload(WorkloadSpec(m=1, b=1), [])

    def test_join_pair_needs_a_shared_column(self):
        other = Table("X", [ColumnMeta("D1")], [(1,), (2,)])
        with pytest.raises(ValueError, match="^tables 'A' and 'X' share no column name to join on$"):
            generate_workload(WorkloadSpec(m=1, b=1, kind="join-pair"), [A100, other])


class TestPercentError:
    def test_formula(self):
        assert percent_error(0.45, 0.5) == pytest.approx(10.0)

    def test_identity(self):
        assert percent_error(0.5, 0.5) == 0.0

    def test_zero_exact_zero_prediction(self):
        assert percent_error(0.0, 0.0) == 0.0

    def test_zero_exact_nonzero_prediction_excluded(self):
        assert percent_error(0.01, 0.0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            percent_error(-0.1, 0.5)
        with pytest.raises(ValueError):
            percent_error(0.1, -0.5)


class TestRunExperiment:
    def test_summary_shape(self):
        workload = generate_workload(WorkloadSpec(m=1, b=1, count=4, seed=1), [T100])
        result = run_experiment(
            [T100], workload, [10, 20], epsilon=0.1,
            methods=["indexed", "practitioner", "histogram"], seed=7,
        )
        # histogram collapses the size sweep into one row
        assert len(result.summaries) == 2 + 2 + 1
        methods = [(s.method, s.sample_size) for s in result.summaries]
        assert methods == [
            ("indexed", 10),
            ("indexed", 20),
            ("practitioner", 10),
            ("practitioner", 20),
            ("histogram", None),
        ]

    def test_perfect_estimate_yields_zero_error(self):
        # One TRUE-predicate query: every method estimates selectivity 1 exactly.
        workload = [SelectLeaf("T", None)]
        result = run_experiment([T100], workload, [5], 0.05, ["indexed"], seed=1)
        (summary,) = result.summaries
        assert summary.mean_pct_error == 0.0
        assert summary.stddev_pct_error == 0.0
        assert summary.frac_within_eps == 1.0
        assert summary.excluded_zero_exact == 0

    def test_per_query_records_cover_all_nodes(self):
        spec = WorkloadSpec(m=1, b=1, count=3, kind="join-pair", seed=2)
        workload = generate_workload(spec, [A100, B100])
        result = run_experiment([A100, B100], workload, [8], 0.05, ["indexed"], seed=3)
        # 3 queries x 3 nodes (two leaves + join root)
        assert len(result.per_query) == 9
        assert {r.kind for _, r in result.per_query} == {"select", "join"}
        roots = [r for _, r in result.per_query if r.kind == "join"]
        assert all(r.exact is not None for r in roots)

    def test_exclusion_of_zero_exact_queries(self):
        # An impossible EQ predicate on a value outside the data: exact is 0.
        from selsample.queries import SelectionClause

        empty = SelectLeaf("T", SelectionClause("C1", ComparisonOp.EQ, 49))
        t = make_table("T", [(0, 0), (1, 1)], domain=(0, 50))
        result = run_experiment([t], [empty], [4], 0.05, ["indexed", "histogram"], seed=1)
        for s in result.summaries:
            # prediction is also 0 -> included with 0 percent error, not excluded
            assert s.excluded_zero_exact == 0
            assert s.mean_pct_error == 0.0

    def test_excluded_queries_leave_percent_aggregates(self):
        # Even values only: "C1 = 37" has exact selectivity 0 but a positive
        # histogram estimate (intra-bucket uniformity), so it is excluded; the
        # mean then aggregates exactly the remaining query.
        from selsample.queries import SelectionClause
        from selsample.stats import build_stats, estimate_predicate

        t = make_table("T", [(v, 0) for v in range(2, 202, 2)], domain=(0, 300))
        q_zero = SelectLeaf("T", SelectionClause("C1", ComparisonOp.EQ, 37))
        q_half = SelectLeaf("T", SelectionClause("C1", ComparisonOp.LE, 100))
        result = run_experiment(
            [t], [q_zero, q_half], [], 0.05, ["histogram"], seed=1,
            stats_buckets=10, stats_mcv=0,
        )
        (summary,) = result.summaries
        assert summary.excluded_zero_exact == 1
        cat = build_stats(t, buckets=10, mcv=0)
        expected = percent_error(estimate_predicate(cat, "T", q_half.predicate), 0.5)
        assert summary.mean_pct_error == pytest.approx(expected)
        assert summary.stddev_pct_error == 0.0

    def test_validation(self):
        workload = [SelectLeaf("T", None)]
        with pytest.raises(ValueError, match="method"):
            run_experiment([T100], workload, [5], 0.05, ["nope"], seed=1)
        with pytest.raises(ValueError, match="sample size"):
            run_experiment([T100], workload, [], 0.05, ["indexed"], seed=1)
        with pytest.raises(ValueError, match="workload"):
            run_experiment([T100], [], [5], 0.05, ["indexed"], seed=1)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, 1.0, 2.0, -0.1])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\)$"):
            run_experiment([T100], [SelectLeaf("T", None)], [5], epsilon, ["indexed"], seed=1)

    def test_no_methods(self):
        with pytest.raises(ValueError, match="^no methods requested$"):
            run_experiment([T100], [SelectLeaf("T", None)], [5], 0.05, [], seed=1)

    def test_repeated_sample_size_rejected(self):
        workload = [SelectLeaf("T", None)]
        with pytest.raises(ValueError, match="sample size 20 is given more than once"):
            run_experiment([T100], workload, [10, 20, 30, 20], 0.05, ["indexed"], seed=1)

    def test_repeated_method_rejected(self):
        workload = [SelectLeaf("T", None)]
        with pytest.raises(ValueError, match="method 'indexed' is given more than once"):
            run_experiment(
                [T100], workload, [10], 0.05, ["practitioner", "indexed", "histogram", "indexed"], seed=1
            )

    def test_every_row_reproduces_from_its_sample(self):
        # Each per_query.csv row carries the (s, seed) of the sample it was
        # measured on, so estimate_all_nodes on that sample gives it back.
        tables = [A100, B100]
        spec = WorkloadSpec(m=2, b=3, count=6, kind="join-pair", seed=4)
        workload = generate_workload(spec, tables)
        result = run_experiment(tables, workload, [15, 40], 0.05, ["indexed", "practitioner"], seed=9)
        lines = per_query_csv(result.per_query).splitlines()[1:]
        assert len(lines) == 6 * 3 * 2
        for qid, plan in enumerate(workload):
            rows = [line for line in lines if line.split(",")[0] == str(qid)]
            for s, seed in sorted({tuple(int(v) for v in row.split(",")[-2:]) for row in rows}):
                records = estimate_all_nodes(create_sample(s, tables, seed), plan, db=tables)
                mine = [row for row in rows if row.endswith(f",{s},{seed}")]
                assert per_query_csv([(qid, r) for r in records]).splitlines()[1:] == mine

    def test_histogram_only_needs_no_sizes(self):
        workload = generate_workload(WorkloadSpec(m=1, b=1, count=2, seed=4), [T100])
        result = run_experiment([T100], workload, [], 0.05, ["histogram"], seed=1)
        assert len(result.summaries) == 1
        assert result.summaries[0].sample_size is None
        assert result.per_query == []
        # No sample is drawn, so a size below 1 is not refused either.
        assert run_experiment([T100], workload, [0], 0.05, ["histogram"], seed=1) == result

    def test_rerun_is_identical(self):
        workload = generate_workload(WorkloadSpec(m=2, b=2, count=5, seed=5), [T100])
        kwargs = dict(epsilon=0.05, methods=["indexed", "practitioner"], seed=11)
        r1 = run_experiment([T100], workload, [12], **kwargs)
        r2 = run_experiment([T100], workload, [12], **kwargs)
        assert summary_csv(r1.summaries) == summary_csv(r2.summaries)
        assert per_query_csv(r1.per_query) == per_query_csv(r2.per_query)


class TestCsvFormat:
    def test_summary_header_and_none_size(self):
        s = ErrorSummary("histogram", None, 1.5, 0.5, 0.9, 2)
        text = summary_csv([s])
        lines = text.splitlines()
        assert lines[0] == "method,sample_size,mean_pct_error,stddev_pct_error,frac_within_eps,excluded"
        assert lines[1] == "histogram,,1.5,0.5,0.9,2"

    def test_per_query_header(self):
        text = per_query_csv([])
        assert text == "query_id,node_id,node_kind,exact,est_indexed,est_practitioner,s,seed\n"
