"""VC-dimension upper bounds for select/join query classes and matching sample sizes.

Bound formulas use base-2 logarithms, the convention in the VC literature.
The sample-size formulas use the natural logarithm for the log(1/delta)
term; with c = 0.5, epsilon = delta = 0.05 this gives ceil(200*d + 599.15),
e.g. d=2 -> 1000 and d=100 -> 20600.

size_sample is the one place a sample is sized: from a class (u, m, b)
through bound_general to its dimension d, or from d itself, then through
sample_size_eps, or sample_size_rel when p is given. It returns a Sizing
record: the size, the SampleSizeSpec the formula read, the class and its
VcBoundReport (None when d was given). Its only inputs are epsilon, delta,
the class or d, and p: c and c' stay at 0.5 (Li, Long & Srinivasan, JCSS
2001). Both enter the formulas only as c/eps^2, so a constant c sizes a
sample as epsilon * sqrt(0.5/c) does at 0.5: a tighter guarantee takes a
smaller epsilon, not a larger constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "VcBoundReport",
    "SampleSizeSpec",
    "Sizing",
    "check_guarantee",
    "growth_function",
    "bound_select_single",
    "bound_boolean_combination",
    "bound_select_boolean",
    "bound_join_pair",
    "bound_multi_join",
    "bound_general",
    "sample_size_eps",
    "sample_size_rel",
    "size_sample",
]


def _in_float_range(formula):
    """Make `formula` raise ValueError, not OverflowError or ZeroDivisionError,
    where one of its values leaves the range of a float."""

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            return formula(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"{formula.__name__}: the value lies beyond the range of a float") from None

    return checked


def _log2(x: float) -> float:
    # Not math.log2, which differs from this in the last digit of some bounds.
    return math.log(x) / math.log(2.0)


@dataclass(frozen=True)
class VcBoundReport:
    """An upper bound on the VC dimension of a query class, and the formula that gave it."""

    bound: float
    formula_id: str

    def __post_init__(self) -> None:
        if not self.bound >= 1.0:
            raise ValueError(f"VC bound must be at least 1, got {self.bound}")
        if self.bound == math.inf:
            raise ValueError("VC bound lies beyond the range of a float")

    @property
    def dimension(self) -> int:
        """Integer dimension to feed into sample sizing: the ceiling of the bound."""
        return math.ceil(self.bound)


@dataclass(frozen=True)
class SampleSizeSpec:
    """Inputs for the epsilon-approximation sample-size formulas.

    `d` is the (upper bound on the) VC dimension. `p` and `c_prime` apply
    only to the relative (p, epsilon)-approximation variant. size_sample
    leaves `c` and `c_prime` at their defaults.
    """

    epsilon: float
    delta: float
    d: float
    c: float = 0.5
    p: float | None = None
    c_prime: float = 0.5

    def __post_init__(self) -> None:
        check_guarantee(self.epsilon, self.delta, self.p)
        # Written as "not x > 0" so that NaN is refused too.
        if not self.c > 0.0:
            raise ValueError("c must be positive")
        if not self.c_prime > 0.0:
            raise ValueError("c_prime must be positive")
        if not self.d > 0.0:
            raise ValueError("d must be positive")


def check_guarantee(epsilon: float, delta: float | None = None, p: float | None = None) -> None:
    """Raise ValueError unless epsilon, and delta and p where given, lie in (0, 1); NaN does not."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if p is not None and not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")


def growth_function(d: int, n: int) -> int:
    """Exact value of sum_{i=0}^{d} C(n, i); equals 2^n once d >= n."""
    if d < 0 or n < 0:
        raise ValueError("growth function arguments must be non-negative")
    if d >= n:
        return 2**n
    return sum(math.comb(n, i) for i in range(d + 1))


@_in_float_range
def bound_select_single(m: int) -> VcBoundReport:
    """Bound for single-clause selections over a table with m columns: m + 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return VcBoundReport(float(m + 1), "select_single")


@_in_float_range
def bound_boolean_combination(d: int, h: int) -> VcBoundReport:
    """Bound for unions/intersections of h ranges of base dimension d: 3*d*h*log(d*h)."""
    if d < 2:
        raise ValueError("base dimension d must be at least 2")
    if h < 1:
        raise ValueError("combination size h must be at least 1")
    dh = d * h
    value = 3.0 * dh * _log2(dh)
    return VcBoundReport(value, "boolean_combination")


@_in_float_range
def bound_select_boolean(m: int, b: int) -> VcBoundReport:
    """Bound for b-clause selections over m columns: 3*(m+1)*b*log((m+1)*b).

    For b = 1 the single-clause bound m + 1 also applies and the minimum of
    the two is returned; a tighter value is always a valid upper bound.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if b < 1:
        raise ValueError("b must be at least 1")
    x = (m + 1) * b
    value = 3.0 * x * _log2(x)
    if b == 1:
        value = min(value, float(m + 1))
    return VcBoundReport(value, "select_boolean")


@_in_float_range
def bound_join_pair(v1: int, v2: int) -> VcBoundReport:
    """Bound for a two-table join over select classes of dims v1, v2: 3*(v1+v2)*log(v1+v2)."""
    if v1 < 2 or v2 < 2:
        raise ValueError("per-side dimensions must be at least 2")
    total = v1 + v2
    value = 3.0 * total * _log2(total)
    return VcBoundReport(value, "join_pair")


@_in_float_range
def bound_multi_join(u: int, dims: Sequence[int]) -> VcBoundReport:
    """Bound for u-table multi-joins over select classes of dims v_i.

    Evaluates 4*u*(sum v_i)*log(u * sum v_i). For u = 2 the pairwise bound
    also applies and the minimum is taken.
    """
    dims = tuple(int(v) for v in dims)
    if u < 2:
        raise ValueError("multi-join bound needs at least two tables")
    if len(dims) != u:
        raise ValueError(f"expected {u} per-table dimensions, got {len(dims)}")
    if any(v < 2 for v in dims):
        raise ValueError("per-table dimensions must be at least 2")
    total = sum(dims)
    value = 4.0 * u * total * _log2(u * total)
    if u == 2:
        value = min(value, bound_join_pair(dims[0], dims[1]).bound)
    return VcBoundReport(value, "multi_join")


@_in_float_range
def bound_general(u: int, m: int, b: int) -> VcBoundReport:
    """General bound for classes with up to u select and u-1 join operations.

    Evaluates 12*u^2*(m+1)*b*log((m+1)*b) * log(3*u^2*(m+1)*b*log((m+1)*b)).
    For u = 1 this reduces to the select-only case and delegates to
    bound_select_boolean.
    """
    if u < 1:
        raise ValueError("u must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if b < 1:
        raise ValueError("b must be at least 1")
    if u == 1:
        return bound_select_boolean(m, b)
    x = (m + 1) * b
    inner_value = 3.0 * u * u * x * _log2(x)
    value = 4.0 * inner_value * _log2(inner_value)
    return VcBoundReport(value, "general")


@_in_float_range
def sample_size_eps(spec: SampleSizeSpec) -> int:
    """Sample size for an epsilon-approximation: ceil((c/eps^2)*(d + ln(1/delta))), at least 1."""
    return max(1, math.ceil((spec.c / spec.epsilon**2) * (spec.d + math.log(1.0 / spec.delta))))


@_in_float_range
def sample_size_rel(spec: SampleSizeSpec) -> int:
    """Sample size for a relative (p, epsilon)-approximation.

    Evaluates ceil((c'/(eps^2 * p)) * (d*ln(1/p) + ln(1/delta))), at least 1.
    """
    if spec.p is None:
        raise ValueError("relative sample size requires p")
    size = math.ceil(
        (spec.c_prime / (spec.epsilon**2 * spec.p))
        * (spec.d * math.log(1.0 / spec.p) + math.log(1.0 / spec.delta))
    )
    return max(1, size)


@dataclass(frozen=True)
class Sizing:
    """A sample size and everything that set it.

    `spec` holds what the sample-size formula read. `u_m_b` is the class
    (u, m, b) and `report` its bound, which gave spec.d; both are None when
    d was given directly.
    """

    size: int
    spec: SampleSizeSpec
    u_m_b: tuple[int, int, int] | None
    report: VcBoundReport | None


def size_sample(
    epsilon: float,
    delta: float,
    *,
    u_m_b: tuple[int, int, int] | None = None,
    d: float | None = None,
    p: float | None = None,
) -> Sizing:
    """The sample size for an (epsilon, delta) guarantee over the class u_m_b,
    or over a class of VC dimension d; exactly one of the two is given.

    The class's dimension is the ceiling of bound_general. The size is
    sample_size_eps, or sample_size_rel for the relative (p, epsilon)
    variant when p is given, with c = c' = 0.5. The size is never clamped to
    a table's row count: a with-replacement sample of that many draws is not
    the table.
    """
    if (u_m_b is None) == (d is None):
        raise ValueError("size_sample takes exactly one of u_m_b and d")
    report = None if u_m_b is None else bound_general(*u_m_b)
    spec = SampleSizeSpec(epsilon, delta, d if report is None else report.dimension, p=p)
    size = sample_size_eps(spec) if p is None else sample_size_rel(spec)
    return Sizing(size, spec, u_m_b, report)
