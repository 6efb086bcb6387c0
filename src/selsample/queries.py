"""Query model: predicate ASTs, join conditions, query-plan trees, and a mini-SQL parser.

Plans are binary trees with select operations at the leaves and join
operations at internal nodes. The parser accepts the grammar

    query    := "SELECT" "*" "FROM" table ("," table)* ["WHERE" expr]
    expr     := term ("OR" term)*
    term     := factor ("AND" factor)*
    factor   := "(" expr ")" | clause
    clause   := qualcol op (integer | qualcol)
    qualcol  := table "." column
    op       := ">=" | "<=" | ">" | "<" | "=" | "<>"

with case-insensitive keywords. A clause comparing qualified columns of two
different tables is a join condition; join conditions must appear as
top-level AND terms and are chained, in WHERE order, into a left-deep plan.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union

from .tables import Table, by_name

__all__ = [
    "PREDICATE_LIMIT",
    "ComparisonOp",
    "SelectionClause",
    "And",
    "Or",
    "BoolExpr",
    "ColumnRef",
    "JoinCondition",
    "SelectLeaf",
    "JoinNode",
    "QueryPlan",
    "ClassParams",
    "ParseError",
    "SchemaWarning",
    "parse_query",
    "clause_count",
    "predicate_columns",
    "class_params",
    "subplans",
    "leaf_tables",
]


# The most clauses a query may hold, and the deepest its parentheses may nest.
# The parser and the predicate evaluators recurse once per clause and per
# nesting level, so this keeps them well inside Python's recursion limit.
PREDICATE_LIMIT = 100


class ParseError(ValueError):
    """Lexical, syntactic, or name-resolution error, with character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaWarning(UserWarning):
    """Non-fatal schema oddity, e.g. a predicate constant outside the column domain."""


class ComparisonOp(Enum):
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "="
    NE = "<>"

    def flipped(self) -> "ComparisonOp":
        """Operator with operands swapped: a op b  iff  b op.flipped() a."""
        return _FLIPPED[self]


_FLIPPED = {
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GE: ComparisonOp.LE,
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
}


@dataclass(frozen=True)
class SelectionClause:
    """One comparison of a column against a constant."""

    column: str
    op: ComparisonOp
    constant: int


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Union[SelectionClause, And, Or]


@dataclass(frozen=True)
class ColumnRef:
    table: str
    column: str


@dataclass(frozen=True)
class JoinCondition:
    """Single-clause theta-join condition between columns of two distinct tables."""

    left: ColumnRef
    right: ColumnRef
    op: ComparisonOp

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise ValueError(f"self-join on table {self.left.table!r} is not supported")


@dataclass(frozen=True)
class SelectLeaf:
    """Select operation on one base table; predicate None means TRUE (keep all rows)."""

    table: str
    predicate: BoolExpr | None = None


@dataclass(frozen=True)
class JoinNode:
    left: "QueryPlan"
    right: "QueryPlan"
    condition: JoinCondition


QueryPlan = Union[SelectLeaf, JoinNode]


@dataclass(frozen=True)
class ClassParams:
    """Parameters of the query class a plan belongs to.

    u: number of select leaves; m: max distinct columns referenced by any one
    leaf predicate; b: max clause count of any one leaf predicate.
    """

    u: int
    m: int
    b: int

    def __post_init__(self) -> None:
        if self.u < 1:
            raise ValueError("u must be at least 1")
        if self.m < 0 or self.b < 0:
            raise ValueError("m and b must be non-negative")
        if self.b == 0 and self.m != 0:
            raise ValueError("a predicate with no clauses references no columns")
        if self.b >= 1 and not 1 <= self.m <= self.b:
            raise ValueError("each clause references one column, so 1 <= m <= b")


# ---------------------------------------------------------------------------
# Predicate and plan utilities
# ---------------------------------------------------------------------------


def iter_clauses(expr: BoolExpr) -> Iterator[SelectionClause]:
    if isinstance(expr, SelectionClause):
        yield expr
    else:
        yield from iter_clauses(expr.left)
        yield from iter_clauses(expr.right)


def clause_count(expr: BoolExpr, *, effective: bool = False) -> int:
    """Number of clauses in a predicate.

    With effective=True, EQ and NE clauses count twice: each is semantically a
    conjunction/disjunction of two inequality clauses, which is the
    conservative count to feed to the bound formulas.
    """
    total = 0
    for c in iter_clauses(expr):
        total += 2 if effective and c.op in (ComparisonOp.EQ, ComparisonOp.NE) else 1
    return total


def predicate_columns(expr: BoolExpr) -> set[str]:
    return {c.column for c in iter_clauses(expr)}


def subplans(plan: QueryPlan) -> list[QueryPlan]:
    """Every subtree of the plan, in post-order (leaves first, root last)."""
    if isinstance(plan, JoinNode):
        return subplans(plan.left) + subplans(plan.right) + [plan]
    return [plan]


def leaf_tables(plan: QueryPlan) -> tuple[str, ...]:
    """Base tables at the leaves, left to right."""
    if isinstance(plan, SelectLeaf):
        return (plan.table,)
    return leaf_tables(plan.left) + leaf_tables(plan.right)


def class_params(*plans: QueryPlan, effective_b: bool = False) -> ClassParams:
    """The smallest class (u, m, b) holding every plan, the class one sample is
    sized for: the most select leaves of any plan and the most distinct columns
    and clauses of any one leaf predicate; a TRUE leaf has m=0, b=0."""
    if not plans:
        raise ValueError("class_params needs at least one plan")
    u = m = b = 0
    for plan in plans:
        leaves = [node for node in subplans(plan) if isinstance(node, SelectLeaf)]
        u = max(u, len(leaves))
        for leaf in leaves:
            if leaf.predicate is not None:
                m = max(m, len(predicate_columns(leaf.predicate)))
                b = max(b, clause_count(leaf.predicate, effective=effective_b))
    return ClassParams(u=u, m=m, b=b)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "OR"}

_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<int>-?\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|<>|=|<|>)"
    r"|(?P<punct>[(),.*])"
)

_OP_BY_SYMBOL = {op.value: op for op in ComparisonOp}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'ident' | lowercase keyword | operator symbol | punct char | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "ident":
            word = m.group()
            kind = word.lower() if word.upper() in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, m.start()))
        elif m.lastgroup == "int":
            tokens.append(_Token("int", m.group(), m.start()))
        elif m.lastgroup in ("op", "punct"):
            tokens.append(_Token(m.group(), m.group(), m.start()))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# Internal WHERE tree: atoms are per-table selection clauses or join conditions.
@dataclass(frozen=True)
class _SelAtom:
    table: str
    clause: SelectionClause
    pos: int


@dataclass(frozen=True)
class _JoinAtom:
    condition: JoinCondition
    pos: int


@dataclass(frozen=True)
class _Combo:
    kind: str  # 'and' | 'or'
    left: object
    right: object


class _Parser:
    def __init__(self, text: str, catalog: dict[str, Table]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.catalog = catalog
        self.from_tables: list[str] = []
        self.clauses = 0
        self.depth = 0
        self.warnings: list[str] = []  # SchemaWarning messages, in clause order

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.pos)
        return self.advance()

    def parse(self) -> QueryPlan:
        self.expect("select", "SELECT")
        self.expect("*", "'*'")
        self.expect("from", "FROM")
        self.from_tables.append(self._from_table())
        while self.peek().kind == ",":
            self.advance()
            self.from_tables.append(self._from_table())
        where = None
        if self.peek().kind == "where":
            self.advance()
            where = self._expr()
        end = self.expect("end", "end of query")
        return self._build_plan(where, end.pos)

    def _from_table(self) -> str:
        tok = self.expect("ident", "table name")
        if tok.text not in self.catalog:
            raise ParseError(f"unknown table {tok.text!r}", tok.pos)
        if tok.text in self.from_tables:
            raise ParseError(
                f"table {tok.text!r} listed twice; self-joins are not supported", tok.pos
            )
        return tok.text

    # expr := term ("OR" term)* ; term := factor ("AND" factor)*
    def _expr(self):
        node = self._term()
        while self.peek().kind == "or":
            self.advance()
            node = _Combo("or", node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self.peek().kind == "and":
            self.advance()
            node = _Combo("and", node, self._factor())
        return node

    def _factor(self):
        if self.peek().kind == "(":
            tok = self.advance()
            self.depth += 1
            if self.depth > PREDICATE_LIMIT:
                raise ParseError(f"parentheses nested more than {PREDICATE_LIMIT} deep", tok.pos)
            node = self._expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        return self._clause()

    def _qualcol(self) -> tuple[str, str, int]:
        tok = self.expect("ident", "qualified column (table.column)")
        if tok.text not in self.catalog:
            raise ParseError(f"unknown table {tok.text!r}", tok.pos)
        if tok.text not in self.from_tables:
            raise ParseError(f"table {tok.text!r} is not listed in FROM", tok.pos)
        self.expect(".", "'.'")
        col = self.expect("ident", "column name")
        if col.text not in self.catalog[tok.text].column_names:
            raise ParseError(f"unknown column {tok.text}.{col.text}", col.pos)
        return tok.text, col.text, tok.pos

    def _clause(self):
        self.clauses += 1
        if self.clauses > PREDICATE_LIMIT:
            raise ParseError(f"more than {PREDICATE_LIMIT} clauses", self.peek().pos)
        t1, c1, pos = self._qualcol()
        op_tok = self.peek()
        if op_tok.kind not in _OP_BY_SYMBOL:
            got = op_tok.text or "end of input"
            raise ParseError(f"expected comparison operator, got {got!r}", op_tok.pos)
        self.advance()
        op = _OP_BY_SYMBOL[op_tok.kind]
        rhs = self.peek()
        if rhs.kind == "int":
            self.advance()
            value = int(rhs.text)
            domain = self.catalog[t1].column(c1).domain
            if value not in domain:
                self.warnings.append(
                    f"constant {value} outside domain [{domain.lo}, {domain.hi}] "
                    f"of column {t1}.{c1}"
                )
            return _SelAtom(t1, SelectionClause(c1, op, value), pos)
        if rhs.kind == "ident":
            t2, c2, pos2 = self._qualcol()
            if t1 == t2:
                raise ParseError(
                    f"comparison between two columns of table {t1!r} is not supported", pos2
                )
            return _JoinAtom(JoinCondition(ColumnRef(t1, c1), ColumnRef(t2, c2), op), pos)
        got = rhs.text or "end of input"
        raise ParseError(f"expected integer or qualified column, got {got!r}", rhs.pos)

    # -- plan construction ---------------------------------------------------

    def _build_plan(self, where, end_pos: int) -> QueryPlan:
        predicates: dict[str, BoolExpr] = {}
        join_conds: list[tuple[JoinCondition, int]] = []
        if where is not None:
            join_conds, predicates = _collect_conjuncts(where)

        if len(self.from_tables) == 1:
            t = self.from_tables[0]
            return SelectLeaf(t, predicates.get(t))

        need = len(self.from_tables) - 1
        if len(join_conds) != need:
            raise ParseError(
                f"expected {need} join condition(s) for {len(self.from_tables)} tables, "
                f"found {len(join_conds)}",
                end_pos if not join_conds else join_conds[-1][1],
            )
        first, _ = join_conds[0]
        lt, rt = first.left.table, first.right.table
        plan: QueryPlan = JoinNode(
            SelectLeaf(lt, predicates.get(lt)),
            SelectLeaf(rt, predicates.get(rt)),
            first,
        )
        in_tree = {lt, rt}
        for cond, pos in join_conds[1:]:
            lt, rt = cond.left.table, cond.right.table
            if (lt in in_tree) == (rt in in_tree):
                raise ParseError(
                    "join conditions must chain one new table at a time "
                    "(left-deep plans only)",
                    pos,
                )
            new = rt if lt in in_tree else lt
            plan = JoinNode(plan, SelectLeaf(new, predicates.get(new)), cond)
            in_tree.add(new)
        return plan


def _collect_conjuncts(node) -> tuple[list[tuple[JoinCondition, int]], dict[str, BoolExpr]]:
    """Split a WHERE tree into join conditions and per-table predicates.

    AND nodes are descended on both sides and the per-table pieces are merged
    as And(left, right), which preserves the written grouping (parenthesized
    conjunct groups survive a print/parse round trip).
    """
    if isinstance(node, _Combo) and node.kind == "and":
        ljoins, lpreds = _collect_conjuncts(node.left)
        rjoins, rpreds = _collect_conjuncts(node.right)
        preds = dict(lpreds)
        for table, expr in rpreds.items():
            preds[table] = expr if table not in preds else And(preds[table], expr)
        return ljoins + rjoins, preds
    if isinstance(node, _JoinAtom):
        return [(node.condition, node.pos)], {}
    expr, tabs, pos = _to_boolexpr(node)
    if len(tabs) > 1:
        raise ParseError(
            "predicate references multiple tables and cannot be pushed to a "
            "single select leaf",
            pos,
        )
    return [], {tabs.pop(): expr}


def _to_boolexpr(node) -> tuple[BoolExpr, set[str], int]:
    if isinstance(node, _SelAtom):
        return node.clause, {node.table}, node.pos
    if isinstance(node, _JoinAtom):
        raise ParseError("join condition may only appear as a top-level AND term", node.pos)
    left, lt, lpos = _to_boolexpr(node.left)
    right, rt, _ = _to_boolexpr(node.right)
    expr = And(left, right) if node.kind == "and" else Or(left, right)
    return expr, lt | rt, lpos


def parse_query(text: str, tables: Sequence[Table]) -> QueryPlan:
    """Parse a query against a catalog of Tables, found by name, into a
    left-deep QueryPlan. A table name given twice in `tables` is a ValueError.

    Select operations are pushed to the leaves; AND binds tighter than OR;
    parentheses are honored.
    """
    parser = _Parser(text, by_name(tables))
    try:
        return parser.parse()
    finally:
        # Warned from here rather than from the clause, whose depth in the
        # parser varies with the nesting, so that each warning points at
        # the caller; a parse that then fails still warns.
        for message in parser.warnings:
            warnings.warn(message, SchemaWarning, stacklevel=2)
