"""VC-dimension upper bounds for select/join query classes and matching sample sizes.

Bound formulas take a configurable logarithm base (default 2, the convention
in the VC literature). The sample-size formulas use the natural logarithm for
the log(1/delta) term; with c = 0.5, epsilon = delta = 0.05 this gives
ceil(200*d + 599.15), e.g. d=2 -> 1000 and d=100 -> 20600.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_LOG_BASE",
    "VcBoundReport",
    "SampleSizeSpec",
    "growth_function",
    "bound_select_single",
    "bound_boolean_combination",
    "bound_select_boolean",
    "bound_join_pair",
    "bound_multi_join",
    "bound_general",
    "sample_size_eps",
    "sample_size_rel",
]

DEFAULT_LOG_BASE = 2.0


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


def _log(x: float, base: float) -> float:
    if base <= 1.0:
        raise ValueError("log base must be greater than 1")
    return math.log(x) / math.log(base)


@dataclass(frozen=True)
class VcBoundReport:
    """An upper bound on the VC dimension of a query class, with provenance."""

    bound: float
    formula_id: str
    log_base: float
    params: Mapping[str, object] = field(default_factory=dict)

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

    `d` is the (upper bound on the) VC dimension; `population` is the optional
    size of the sampled set, which clamps the result. `p` and `c_prime` apply
    only to the relative (p, epsilon)-approximation variant.
    """

    epsilon: float
    delta: float
    d: float
    c: float = 0.5
    p: float | None = None
    c_prime: float = 0.5
    population: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if self.c_prime <= 0.0:
            raise ValueError("c_prime must be positive")
        if self.d <= 0.0:
            raise ValueError("d must be positive")
        if self.p is not None and not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.population is not None and self.population < 1:
            raise ValueError("population must be at least 1")


def growth_function(d: int, n: int) -> int:
    """Exact value of sum_{i=0}^{d} C(n, i); equals 2^n once d >= n."""
    if d < 0 or n < 0:
        raise ValueError("growth function arguments must be non-negative")
    if d >= n:
        return 2**n
    return sum(math.comb(n, i) for i in range(d + 1))


@_in_float_range
def bound_select_single(m: int, log_base: float = DEFAULT_LOG_BASE) -> VcBoundReport:
    """Bound for single-clause selections over a table with m columns: m + 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return VcBoundReport(float(m + 1), "select_single", log_base, {"m": m})


@_in_float_range
def bound_boolean_combination(
    d: int, h: int, log_base: float = DEFAULT_LOG_BASE
) -> VcBoundReport:
    """Bound for unions/intersections of h ranges of base dimension d: 3*d*h*log(d*h)."""
    if d < 2:
        raise ValueError("base dimension d must be at least 2")
    if h < 1:
        raise ValueError("combination size h must be at least 1")
    dh = d * h
    value = 3.0 * dh * _log(dh, log_base)
    return VcBoundReport(value, "boolean_combination", log_base, {"d": d, "h": h})


@_in_float_range
def bound_select_boolean(
    m: int, b: int, log_base: float = DEFAULT_LOG_BASE
) -> VcBoundReport:
    """Bound for b-clause selections over m columns: 3*(m+1)*b*log((m+1)*b).

    For b = 1 the single-clause bound m + 1 also applies and the minimum of
    the two is returned; a tighter value is always a valid upper bound.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if b < 1:
        raise ValueError("b must be at least 1")
    x = (m + 1) * b
    value = 3.0 * x * _log(x, log_base)
    if b == 1:
        value = min(value, float(m + 1))
    return VcBoundReport(value, "select_boolean", log_base, {"m": m, "b": b})


@_in_float_range
def bound_join_pair(v1: int, v2: int, log_base: float = DEFAULT_LOG_BASE) -> VcBoundReport:
    """Bound for a two-table join over select classes of dims v1, v2: 3*(v1+v2)*log(v1+v2)."""
    if v1 < 2 or v2 < 2:
        raise ValueError("per-side dimensions must be at least 2")
    total = v1 + v2
    value = 3.0 * total * _log(total, log_base)
    return VcBoundReport(value, "join_pair", log_base, {"v1": v1, "v2": v2})


@_in_float_range
def bound_multi_join(
    u: int,
    dims: Sequence[int],
    m: int | None = None,
    log_base: float = DEFAULT_LOG_BASE,
) -> VcBoundReport:
    """Bound for u-table multi-joins over select classes of dims v_i.

    Evaluates 4*u*(sum v_i)*log(u * sum v_i). The formula assumes m (the max
    column count of any table) does not exceed sum v_i; passing m enables the
    check. For u = 2 the pairwise bound also applies and the minimum is taken.
    """
    dims = tuple(int(v) for v in dims)
    if u < 2:
        raise ValueError("multi-join bound needs at least two tables")
    if len(dims) != u:
        raise ValueError(f"expected {u} per-table dimensions, got {len(dims)}")
    if any(v < 2 for v in dims):
        raise ValueError("per-table dimensions must be at least 2")
    total = sum(dims)
    if m is not None and m > total:
        raise ValueError(
            f"assumption violated: m={m} exceeds the sum of per-table dimensions {total}"
        )
    value = 4.0 * u * total * _log(u * total, log_base)
    if u == 2:
        value = min(value, bound_join_pair(dims[0], dims[1], log_base).bound)
    return VcBoundReport(value, "multi_join", log_base, {"u": u, "dims": dims, "m": m})


@_in_float_range
def bound_general(
    u: int, m: int, b: int, log_base: float = DEFAULT_LOG_BASE
) -> VcBoundReport:
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
        inner = bound_select_boolean(m, b, log_base)
        return VcBoundReport(inner.bound, inner.formula_id, log_base, {"u": u, "m": m, "b": b})
    x = (m + 1) * b
    inner_value = 3.0 * u * u * x * _log(x, log_base)
    value = 4.0 * inner_value * _log(inner_value, log_base)
    return VcBoundReport(value, "general", log_base, {"u": u, "m": m, "b": b})


@_in_float_range
def sample_size_eps(spec: SampleSizeSpec) -> int:
    """Sample size for an epsilon-approximation: ceil((c/eps^2)*(d + ln(1/delta))).

    The result is clamped to the population size when one is given.
    """
    size = math.ceil((spec.c / spec.epsilon**2) * (spec.d + math.log(1.0 / spec.delta)))
    size = max(1, int(size))
    if spec.population is not None:
        size = min(size, spec.population)
    return size


@_in_float_range
def sample_size_rel(spec: SampleSizeSpec) -> int:
    """Sample size for a relative (p, epsilon)-approximation.

    Evaluates ceil((c'/(eps^2 * p)) * (d*ln(1/p) + ln(1/delta))), clamped to
    the population size when one is given.
    """
    if spec.p is None:
        raise ValueError("relative sample size requires p")
    size = math.ceil(
        (spec.c_prime / (spec.epsilon**2 * spec.p))
        * (spec.d * math.log(1.0 / spec.p) + math.log(1.0 / spec.delta))
    )
    size = max(1, int(size))
    if spec.population is not None:
        size = min(size, spec.population)
    return size
