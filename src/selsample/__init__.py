"""Selectivity estimation for select/join queries via index-aligned random samples.

The package provides: immutable integer tables with synthetic generators
(`tables`), a mini-SQL query model and parser (`queries`), VC-dimension
bound and sample-size calculators (`vcbounds`), index-aligned sample
construction (`sampling`), exact and sample-based selectivity estimators
(`execution`), an MCV + equi-depth histogram baseline (`stats`), and a
workload/experiment harness with a CLI (`harness`, `cli`).
"""

from .execution import (
    EstimateRecord,
    ResultSet,
    estimate_all_nodes,
    estimate_indexed,
    exact_cardinality,
    exact_selectivity,
    execute_plan,
)
from .harness import (
    ErrorSummary,
    WorkloadSpec,
    generate_workload,
    percent_error,
    run_experiment,
)
from .queries import (
    And,
    BoolExpr,
    ClassParams,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    Or,
    ParseError,
    QueryPlan,
    SelectLeaf,
    SelectionClause,
    class_params,
    leaf_tables,
    parse_query,
    subplans,
)
from .sampling import SampleDatabase, SampleTable, create_sample, load_sample, save_sample
from .stats import (
    ColumnStats,
    EquiDepthHistogram,
    MCVList,
    StatsCatalog,
    build_stats,
    estimate_clause,
    estimate_join,
    estimate_predicate,
)
from .tables import (
    ColumnMeta,
    Domain,
    Table,
    generate_correlated_table,
    generate_uniform_table,
    read_csv,
    save_csv,
)
from .vcbounds import (
    SampleSizeSpec,
    VcBoundReport,
    bound_boolean_combination,
    bound_general,
    bound_join_pair,
    bound_multi_join,
    bound_select_boolean,
    bound_select_single,
    growth_function,
    sample_size_eps,
    sample_size_rel,
)

__version__ = "0.1.0"
