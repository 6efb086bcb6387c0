"""Query model: parser, predicate evaluation, class parameters, plan utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OP_FUNCS, brute_force_result, make_table, to_sql
from selsample.execution import _mask, execute_plan
from selsample.queries import (
    PREDICATE_LIMIT,
    And,
    ClassParams,
    ColumnRef,
    ComparisonOp,
    JoinCondition,
    JoinNode,
    Or,
    ParseError,
    SchemaWarning,
    SelectLeaf,
    SelectionClause,
    class_params,
    clause_count,
    leaf_tables,
    parse_query,
    subplans,
)

T = make_table("T", [(1, 2), (5, 3), (0, 9), (5, 5)], domain=(0, 10))
A = make_table("A", [(1, 2), (2, 3), (3, 1), (2, 0)], domain=(0, 10))
B = make_table("B", [(2, 2), (2, 5), (4, 0), (1, 1)], domain=(0, 10))
CATALOG = [T, A, B]


class TestParse:
    def test_single_clause(self):
        plan = parse_query("SELECT * FROM T WHERE T.C1 >= 5", CATALOG)
        assert plan == SelectLeaf("T", SelectionClause("C1", ComparisonOp.GE, 5))

    def test_no_where_is_true_leaf(self):
        assert parse_query("select * from T", CATALOG) == SelectLeaf("T", None)

    def test_and_binds_tighter_than_or(self):
        plan = parse_query(
            "SELECT * FROM T WHERE T.C1 >= 5 AND T.C2 <= 3 OR T.C1 <= 1", CATALOG
        )
        assert plan == SelectLeaf(
            "T",
            Or(
                And(
                    SelectionClause("C1", ComparisonOp.GE, 5),
                    SelectionClause("C2", ComparisonOp.LE, 3),
                ),
                SelectionClause("C1", ComparisonOp.LE, 1),
            ),
        )

    def test_parentheses_honored(self):
        plan = parse_query(
            "SELECT * FROM T WHERE T.C1 >= 5 AND (T.C2 <= 3 OR T.C1 <= 1)", CATALOG
        )
        assert isinstance(plan.predicate, And)
        assert isinstance(plan.predicate.right, Or)

    def test_join_with_pushed_selection(self):
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 = B.C1 AND A.C2 >= 2", CATALOG)
        assert plan == JoinNode(
            SelectLeaf("A", SelectionClause("C2", ComparisonOp.GE, 2)),
            SelectLeaf("B", None),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C1"), ComparisonOp.EQ),
        )

    def test_join_plan_agrees_with_cartesian_filter(self):
        # Independent check on a 4-row instance: the parsed plan's result must
        # equal a direct filter of the full Cartesian product.
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 = B.C1 AND A.C2 >= 2", CATALOG)
        got = set(tuple(row) for row in execute_plan([A, B], plan).rows)
        assert got == brute_force_result([A, B], plan)

    def test_three_table_chain(self):
        c = make_table("C3T", [(0, 0)], domain=(0, 10))
        plan = parse_query(
            "SELECT * FROM A, B, C3T WHERE A.C1 = B.C1 AND B.C2 < C3T.C1",
            [A, B, c],
        )
        assert leaf_tables(plan) == ("A", "B", "C3T")
        assert isinstance(plan.left, JoinNode)

    def test_keywords_case_insensitive(self):
        plan = parse_query("select * from T where T.C1 >= 5 and T.C2 <= 3", CATALOG)
        assert isinstance(plan.predicate, And)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("SELECT * FROM NOPE", "unknown table"),
            ("SELECT * FROM T WHERE T.NOPE >= 5", "unknown column"),
            ("SELECT * FROM T, T", "self-join"),
            ("SELECT * FROM T WHERE T.C1 >= T.C2", "not supported"),
            ("SELECT * FROM T WHERE", "expected"),
            ("SELECT * FROM T WHERE T.C1 %% 5", "unexpected character"),
            ("SELECT * FROM T WHERE T.C1 >= 5 extra", "end of query"),
            ("SELECT * FROM A, B", "join condition"),
            ("SELECT * FROM A, B WHERE A.C1 >= 5", "join condition"),
            ("SELECT * FROM A, B WHERE A.C1 = B.C1 OR A.C2 >= 2", "top-level AND"),
            ("SELECT * FROM A, B WHERE A.C1 = B.C1 AND A.C1 = B.C2", "join condition"),
            ("SELECT * FROM A, B WHERE A.C1 >= 5 OR B.C1 >= 5", "multiple tables"),
            ("SELECT * FROM B WHERE A.C1 >= 5", "not listed in FROM"),
            ("SELECT * FROM T WHERE X.C1 < 5", "unknown table 'X'"),
        ],
    )
    def test_error_cases(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_query(text, CATALOG)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_query("SELECT * FROM NOPE", CATALOG)
        assert exc.value.position == 14

    @pytest.mark.parametrize(
        "text,message,at",
        [
            ("SELECT * FROM T WHERE T.C1 5", "expected comparison operator, got '5'", "5"),
            ("SELECT * FROM T WHERE T.C1 >= )", "expected integer or qualified column, got ')'", ")"),
            (
                "SELECT * FROM T, A, B WHERE A.C1 = B.C1 AND B.C2 < A.C2",
                "join conditions must chain one new table at a time (left-deep plans only)",
                "B.C2",
            ),
        ],
    )
    def test_message_and_position(self, text, message, at):
        with pytest.raises(ParseError) as exc:
            parse_query(text, CATALOG)
        assert exc.value.position == text.index(at)
        assert str(exc.value).startswith(message)

    def test_clause_and_nesting_limits(self):
        clauses = " OR ".join(["T.C1 < 5"] * PREDICATE_LIMIT)
        nested = "(" * PREDICATE_LIMIT + "T.C1 < 5" + ")" * PREDICATE_LIMIT
        assert clause_count(parse_query(f"SELECT * FROM T WHERE {clauses}", CATALOG).predicate) == 100
        assert parse_query(f"SELECT * FROM T WHERE {nested}", CATALOG).predicate.constant == 5
        too_many = [
            f"SELECT * FROM T WHERE {clauses} AND T.C2 > 1",
            # A join condition is a clause too.
            f"SELECT * FROM A, B WHERE A.C1 = B.C1 AND ({clauses.replace('T.', 'A.')})",
        ]
        for text in too_many:
            with pytest.raises(ParseError, match="more than 100 clauses"):
                parse_query(text, CATALOG)
        with pytest.raises(ParseError, match="nested more than 100 deep") as exc:
            parse_query(f"SELECT * FROM T WHERE ({nested})", CATALOG)
        assert exc.value.position == len("SELECT * FROM T WHERE ") + PREDICATE_LIMIT

    def test_constant_outside_domain_warns_not_errors(self):
        with pytest.warns(SchemaWarning, match="outside domain"):
            plan = parse_query("SELECT * FROM T WHERE T.C1 >= 999", CATALOG)
        assert plan.predicate.constant == 999

    @pytest.mark.parametrize(
        "where, warned",
        [("T.C1 >= 999", 1), ("((T.C2 < 3 OR (T.C1 >= 999 AND T.C2 > -1)))", 2)],
        ids=["plain", "parenthesised"],
    )
    def test_warning_points_at_the_caller(self, where, warned):
        with pytest.warns(SchemaWarning) as caught:
            parse_query(f"SELECT * FROM T WHERE {where}", CATALOG)
        assert [w.filename for w in caught] == [__file__] * warned

    def test_warnings_come_in_clause_order_even_when_the_parse_fails(self):
        with pytest.warns(SchemaWarning) as caught, pytest.raises(ParseError):
            parse_query("SELECT * FROM T WHERE T.C1 > 11 OR T.C2 < -3 AND", CATALOG)
        assert [str(w.message) for w in caught] == [
            "constant 11 outside domain [0, 10] of column T.C1",
            "constant -3 outside domain [0, 10] of column T.C2",
        ]
        assert {w.filename for w in caught} == {__file__}


# One column holding 0..5, one value per row.
VALUES = make_table("V", [(v,) for v in range(6)], num_columns=1)


class TestEvalPredicate:
    """Predicates as the estimators evaluate them: execution._mask, one
    truth value per row."""

    def test_boundary_inclusive(self):
        assert _mask(SelectionClause("C1", ComparisonOp.GE, 5), VALUES).tolist() == [False] * 5 + [True]

    def test_ne_on_equal_value(self):
        assert _mask(SelectionClause("C1", ComparisonOp.NE, 5), VALUES).tolist() == [True] * 5 + [False]

    def test_or_of_and(self):
        expr = Or(
            And(SelectionClause("C1", ComparisonOp.GE, 5), SelectionClause("C2", ComparisonOp.LE, 3)),
            SelectionClause("C1", ComparisonOp.LE, 1),
        )
        rows = [(0, 9), (5, 3), (5, 4), (2, 0)]
        assert _mask(expr, make_table("T", rows, domain=(0, 10))).tolist() == [True, True, False, False]

    def test_exhaustive_grid_all_operators(self):
        # Direct-comparison oracle over (value, constant) in [0,5]^2.
        for op, fn in OP_FUNCS.items():
            for c in range(6):
                clause = SelectionClause("C1", op, c)
                assert _mask(clause, VALUES).tolist() == [fn(v, c) for v in range(6)]


class TestClassParams:
    def test_and_of_two_columns(self):
        plan = parse_query("SELECT * FROM T WHERE T.C1 >= 5 AND T.C2 <= 3", CATALOG)
        assert class_params(plan) == ClassParams(u=1, m=2, b=2)

    def test_join_with_true_leaf(self):
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 = B.C1 AND A.C1 >= 5", CATALOG)
        assert class_params(plan) == ClassParams(u=2, m=1, b=1)

    def test_surface_count_of_eq_clause(self):
        plan = parse_query(
            "SELECT * FROM T WHERE T.C1 >= 1 OR T.C1 <= 9 OR T.C1 = 4", CATALOG
        )
        assert class_params(plan) == ClassParams(u=1, m=1, b=3)

    def test_effective_b_doubles_eq_and_ne(self):
        plan = parse_query(
            "SELECT * FROM T WHERE T.C1 >= 1 OR T.C1 <= 9 OR T.C1 = 4", CATALOG
        )
        assert class_params(plan, effective_b=True).b == 4
        expr = Or(SelectionClause("C1", ComparisonOp.NE, 2), SelectionClause("C1", ComparisonOp.EQ, 3))
        assert clause_count(expr) == 2
        assert clause_count(expr, effective=True) == 4

    def test_several_plans_take_the_max_of_each_field(self):
        ge, lt = ComparisonOp.GE, ComparisonOp.LT
        select = SelectLeaf(
            "T", Or(And(SelectionClause("C1", ge, 1), SelectionClause("C2", lt, 7)), SelectionClause("C1", lt, 9))
        )
        ab = JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C1"), ComparisonOp.EQ)
        join = JoinNode(SelectLeaf("A", SelectionClause("C2", ComparisonOp.EQ, 4)), SelectLeaf("B"), ab)
        chain = JoinNode(
            JoinNode(SelectLeaf("A"), SelectLeaf("B", SelectionClause("C1", ge, 2)), ab),
            SelectLeaf("T", SelectionClause("C2", lt, 5)),
            JoinCondition(ColumnRef("B", "C2"), ColumnRef("T", "C2"), lt),
        )
        assert [class_params(p) for p in (select, join, chain)] == [
            ClassParams(u=1, m=2, b=3), ClassParams(u=2, m=1, b=1), ClassParams(u=3, m=1, b=1)
        ]
        assert class_params(select, join, chain) == ClassParams(u=3, m=2, b=3)
        assert class_params(chain, join, select) == ClassParams(u=3, m=2, b=3)
        assert class_params(join, chain) == ClassParams(u=3, m=1, b=1)
        assert class_params(join, chain, effective_b=True) == ClassParams(u=3, m=1, b=2)

    def test_no_plans_rejected(self):
        with pytest.raises(ValueError, match="at least one plan"):
            class_params()

    def test_u_equals_from_count(self):
        for text, u in [
            ("SELECT * FROM T", 1),
            ("SELECT * FROM A, B WHERE A.C1 = B.C1", 2),
        ]:
            assert class_params(parse_query(text, CATALOG)).u == u

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            ClassParams(u=0, m=1, b=1)
        with pytest.raises(ValueError):
            ClassParams(u=1, m=3, b=2)
        with pytest.raises(ValueError):
            ClassParams(u=1, m=1, b=0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError, match="^m and b must be non-negative$"):
            ClassParams(1, -1, 2)


class TestSubplans:
    def test_single_leaf(self):
        leaf = SelectLeaf("T", None)
        assert subplans(leaf) == [leaf]

    def test_two_leaf_join_post_order(self):
        plan = parse_query("SELECT * FROM A, B WHERE A.C1 = B.C1", CATALOG)
        nodes = subplans(plan)
        assert [type(n).__name__ for n in nodes] == ["SelectLeaf", "SelectLeaf", "JoinNode"]
        assert nodes[-1] is plan

    def test_three_leaf_left_deep_has_five(self):
        c = make_table("C3T", [(0, 0)], domain=(0, 10))
        plan = parse_query(
            "SELECT * FROM A, B, C3T WHERE A.C1 = B.C1 AND B.C2 < C3T.C1", [A, B, c]
        )
        assert len(subplans(plan)) == 5


def _exprs(depth=2):
    clause = st.builds(
        SelectionClause,
        column=st.sampled_from(["C1", "C2"]),
        op=st.sampled_from(list(ComparisonOp)),
        constant=st.integers(min_value=0, max_value=10),
    )
    return st.recursive(
        clause,
        lambda children: st.builds(And, children, children) | st.builds(Or, children, children),
        max_leaves=6,
    )


class TestRoundTrip:
    @given(_exprs())
    @settings(max_examples=200, deadline=None)
    def test_single_table_round_trip(self, expr):
        plan = SelectLeaf("T", expr)
        assert parse_query(to_sql(plan), CATALOG) == plan

    @given(_exprs(), _exprs(), st.sampled_from(list(ComparisonOp)))
    @settings(max_examples=100, deadline=None)
    def test_join_round_trip(self, e1, e2, op):
        plan = JoinNode(
            SelectLeaf("A", e1),
            SelectLeaf("B", e2),
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("B", "C2"), op),
        )
        assert parse_query(to_sql(plan), CATALOG) == plan

    def test_parse_print_parse_on_canonical_form(self):
        text = "SELECT * FROM A, B WHERE A.C1 = B.C1 AND (A.C2 >= 2 OR A.C1 <= 1)"
        plan = parse_query(text, CATALOG)
        assert parse_query(to_sql(plan), CATALOG) == plan


class TestJoinCondition:
    def test_self_join_rejected_at_construction(self):
        with pytest.raises(ValueError, match="self-join"):
            JoinCondition(ColumnRef("A", "C1"), ColumnRef("A", "C2"), ComparisonOp.EQ)

    def test_flipped_round_trips(self):
        for op in ComparisonOp:
            for a in range(3):
                for b in range(3):
                    assert OP_FUNCS[op](a, b) == OP_FUNCS[op.flipped()](b, a)
