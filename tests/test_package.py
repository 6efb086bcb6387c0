"""The package namespace: each module is loaded on first use, and the
modules' own `__all__` lists are the public API."""

import importlib
import os
import subprocess
import sys

import pytest

import selsample

MODULES = ("vcbounds", "tables", "queries", "sampling", "execution", "stats", "harness")

# The names the package bound when its __init__ imported them by hand, by
# the module that defines each. Every one must still resolve as before.
PACKAGE_NAMES = {
    "vcbounds": [
        "SampleSizeSpec", "Sizing", "VcBoundReport", "bound_boolean_combination", "bound_general",
        "bound_join_pair", "bound_multi_join", "bound_select_boolean", "bound_select_single",
        "growth_function", "sample_size_eps", "sample_size_rel", "size_sample",
    ],
    "tables": [
        "ColumnMeta", "Domain", "Table", "generate_correlated_table", "generate_uniform_table",
        "read_csv", "save_csv",
    ],
    "queries": [
        "And", "BoolExpr", "ClassParams", "ColumnRef", "ComparisonOp", "JoinCondition", "JoinNode",
        "Or", "ParseError", "QueryPlan", "SelectLeaf", "SelectionClause", "class_params",
        "leaf_tables", "parse_query", "subplans",
    ],
    "sampling": ["SampleDatabase", "SampleTable", "create_sample", "load_sample", "save_sample"],
    "execution": [
        "EstimateRecord", "ResultSet", "estimate_all_nodes", "estimate_indexed", "exact_cardinality",
        "exact_selectivity", "execute_plan",
    ],
    "stats": [
        "ColumnStats", "EquiDepthHistogram", "MCVList", "StatsCatalog", "build_stats",
        "estimate_clause", "estimate_join", "estimate_predicate",
    ],
    "harness": ["ErrorSummary", "WorkloadSpec", "generate_workload", "percent_error", "run_experiment"],
}
ALL_PACKAGE_NAMES = [n for names in PACKAGE_NAMES.values() for n in names]


def loaded_after(code):
    """The selsample modules and numpy that a fresh interpreter holds after code."""
    probe = (
        f"{code}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('selsample')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return proc.stdout.strip()


class TestLazyImport:
    @pytest.mark.parametrize("code, loaded", [
        ("import selsample", ["selsample"]),
        ("import selsample.vcbounds", ["selsample", "selsample.vcbounds"]),
        ("import selsample as ss; ss.size_sample", ["selsample", "selsample.vcbounds"]),
        ("import selsample as ss; hasattr(ss, '__wrapped__')", ["selsample"]),
    ])
    def test_loads_only_what_is_used(self, code, loaded):
        assert loaded_after(code) == repr(loaded)

    def test_a_name_loads_the_module_that_holds_it(self):
        assert "'numpy'" in loaded_after("import selsample as ss; ss.read_csv")


class TestNamespace:
    def test_package_names_are_pinned(self):
        assert len(ALL_PACKAGE_NAMES) == len(set(ALL_PACKAGE_NAMES)) == 61

    @pytest.mark.parametrize("name", ALL_PACKAGE_NAMES)
    def test_name_is_its_modules_object(self, name):
        [module] = [m for m, names in PACKAGE_NAMES.items() if name in names]
        assert getattr(selsample, name) is getattr(importlib.import_module(f"selsample.{module}"), name)
        assert name in vars(selsample)  # resolved once, then a plain attribute

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from selsample import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(selsample.__all__) >= set(ALL_PACKAGE_NAMES)
        assert set(selsample.__all__) <= set(dir(selsample))

    def test_all_is_the_union_of_the_modules_all(self):
        union = [n for m in MODULES for n in importlib.import_module(f"selsample.{m}").__all__]
        assert selsample.__all__ == union

    def test_no_name_is_in_two_modules_all(self):
        assert len(selsample.__all__) == len(set(selsample.__all__))

    @pytest.mark.parametrize("module", [*MODULES, "cli"])
    def test_module_attribute_is_the_submodule(self, module):
        assert getattr(selsample, module) is importlib.import_module(f"selsample.{module}")

    @pytest.mark.parametrize("name", ["no_such_name", "_MODULES_", "__wrapped__", "cli_main"])
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"module 'selsample' has no attribute '{name}'"):
            getattr(selsample, name)
