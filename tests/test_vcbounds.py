"""Bound formulas, growth function, and sample-size calculators."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selsample.vcbounds import (
    SampleSizeSpec,
    Sizing,
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
    size_sample,
)

_unit = st.floats(1e-4, 0.9999)
# Keeps every size below 2**36, where a float's rounding error is far below 1.
_coarse = st.floats(1e-2, 0.9999)

# Pinned reference sizes for epsilon = delta = 0.05, c = 0.5: (d, size).
REFERENCE_SIZES = [
    (2, 1000),
    (4, 1400),
    (10, 2600),
    (16, 3800),
    (31, 6800),
    (57, 12000),
    (117, 24000),
    (220, 44600),
    (294, 59400),
    (4, 1400),
    (16, 3800),
    (36, 7800),
    (100, 20600),
    (256, 51800),
]


class TestGrowthFunction:
    def test_d_zero(self):
        assert growth_function(0, 5) == 1

    def test_small_sum(self):
        assert growth_function(2, 4) == 11  # 1 + 4 + 6

    def test_saturates_at_two_to_n(self):
        assert growth_function(5, 3) == 8

    def test_pascal_recurrence(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert growth_function(d, n) == growth_function(d, n - 1) + growth_function(
                    d - 1, n - 1
                )

    def test_below_n_to_the_d(self):
        for d in range(2, 13):
            for n in range(d + 1, 13):
                assert growth_function(d, n) < n**d

    def test_arbitrary_precision(self):
        assert growth_function(500, 500) == 2**500

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            growth_function(-1, 3)


class TestSelectBounds:
    def test_single_clause_values(self):
        assert bound_select_single(1).bound == 2.0
        assert bound_select_single(2).bound == 3.0
        assert bound_select_single(5).bound == 6.0

    def test_single_clause_requires_m(self):
        with pytest.raises(ValueError):
            bound_select_single(0)

    def test_boolean_combination_values(self):
        assert bound_boolean_combination(2, 2).bound == pytest.approx(24.0)
        assert bound_boolean_combination(3, 1).bound == pytest.approx(9 * math.log2(3))
        assert bound_boolean_combination(2, 4).bound == pytest.approx(72.0)

    def test_boolean_combination_requires_d2(self):
        with pytest.raises(ValueError):
            bound_boolean_combination(1, 2)

    def test_select_boolean_takes_min_for_single_clause(self):
        assert bound_select_boolean(1, 1).bound == 2.0

    def test_select_boolean_values(self):
        assert bound_select_boolean(2, 2).bound == pytest.approx(18 * math.log2(6))
        assert bound_select_boolean(1, 2).bound == pytest.approx(24.0)


class TestJoinBounds:
    def test_pair_values(self):
        assert bound_join_pair(2, 2).bound == pytest.approx(24.0)
        assert bound_join_pair(4, 4).bound == pytest.approx(72.0)
        assert bound_join_pair(2, 6).bound == pytest.approx(72.0)

    def test_pair_requires_dims(self):
        with pytest.raises(ValueError):
            bound_join_pair(1, 2)

    def test_multi_join_value(self):
        got = bound_multi_join(3, [2, 2, 2]).bound
        assert got == pytest.approx(72 * math.log2(18))

    def test_multi_join_two_tables_uses_pairwise_min(self):
        assert bound_multi_join(2, [2, 2]).bound == pytest.approx(24.0)

    def test_multi_join_dims_length(self):
        with pytest.raises(ValueError):
            bound_multi_join(3, [2, 2])


class TestGeneralBound:
    def test_u1_delegates_to_select(self):
        assert bound_general(1, 1, 1).bound == 2.0

    def test_u2_value(self):
        # Independent re-evaluation of the printed formula with exact arithmetic:
        # 12*u^2*(m+1)*b*log2((m+1)*b) * log2(3*u^2*(m+1)*b*log2((m+1)*b))
        inner = 3 * 4 * 2 * math.log2(2)
        want = 4 * inner * math.log2(inner)
        assert bound_general(2, 1, 1).bound == pytest.approx(want)
        assert bound_general(2, 1, 1).bound == pytest.approx(440.156, abs=1e-3)

    def test_monotone_in_b(self):
        assert bound_general(2, 1, 2).bound > bound_general(2, 1, 1).bound

    def test_dimension_is_ceiling(self):
        assert bound_general(2, 1, 1).dimension == 441


class TestMonotonicity:
    """Every bound is monotone non-decreasing in each of its arguments."""

    def test_select_single(self):
        values = [bound_select_single(m).bound for m in range(1, 26)]
        assert values == sorted(values)

    def test_select_boolean_grid(self):
        for m in range(1, 11):
            for b in range(1, 10):
                assert bound_select_boolean(m, b + 1).bound >= bound_select_boolean(m, b).bound
                assert bound_select_boolean(m + 1, b).bound >= bound_select_boolean(m, b).bound

    def test_boolean_combination_grid(self):
        for d in range(2, 12):
            for h in range(1, 10):
                assert (
                    bound_boolean_combination(d, h + 1).bound
                    >= bound_boolean_combination(d, h).bound
                )
                assert (
                    bound_boolean_combination(d + 1, h).bound
                    >= bound_boolean_combination(d, h).bound
                )

    def test_join_pair_grid(self):
        for v1 in range(2, 12):
            for v2 in range(2, 12):
                assert bound_join_pair(v1 + 1, v2).bound >= bound_join_pair(v1, v2).bound
                assert bound_join_pair(v1, v2 + 1).bound >= bound_join_pair(v1, v2).bound

    def test_multi_join_grid(self):
        for u in range(2, 7):
            for v in range(2, 7):
                base = bound_multi_join(u, [v] * u).bound
                assert bound_multi_join(u + 1, [v] * (u + 1)).bound >= base
                assert bound_multi_join(u, [v + 1] * u).bound >= base

    def test_general_grid(self):
        for u in range(1, 6):
            for m in range(1, 5):
                for b in range(m, 6):
                    base = bound_general(u, m, b).bound
                    assert bound_general(u + 1, m, b).bound >= base
                    assert bound_general(u, m + 1, b).bound >= base
                    assert bound_general(u, m, b + 1).bound >= base


class TestSampleSizeEps:
    @pytest.mark.parametrize("d,size", REFERENCE_SIZES)
    def test_reference_grid(self, d, size):
        spec = SampleSizeSpec(epsilon=0.05, delta=0.05, d=d, c=0.5)
        assert sample_size_eps(spec) == size

    def test_size_is_at_least_one(self):
        # (c/eps^2) * (d + ln(1/delta)) underflows to 0 here.
        spec = SampleSizeSpec(epsilon=0.5, delta=1 - 1e-12, d=5e-324, c=5e-324)
        assert sample_size_eps(spec) == 1

    # c enters only as c/eps^2, so it needs no knob of its own: a constant c
    # sizes a sample as epsilon * sqrt(0.5/c) does at the fixed c = 0.5.
    @given(epsilon=_coarse, delta=_unit, d=st.integers(1, 1000), c=st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_c_is_a_smaller_epsilon(self, epsilon, delta, d, c):
        at_half = epsilon * math.sqrt(0.5 / c)
        assume(at_half < 1.0)
        size = sample_size_eps(SampleSizeSpec(epsilon, delta, d, c=c))
        assert abs(size - sample_size_eps(SampleSizeSpec(at_half, delta, d))) <= 1

    def test_decreasing_in_epsilon(self):
        sizes = [
            sample_size_eps(SampleSizeSpec(epsilon=e, delta=0.05, d=10))
            for e in (0.01, 0.02, 0.05, 0.1, 0.2)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)

    def test_non_increasing_in_delta(self):
        sizes = [
            sample_size_eps(SampleSizeSpec(epsilon=0.05, delta=d, d=10))
            for d in (0.01, 0.05, 0.1, 0.5)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSizeSpec(epsilon=0.0, delta=0.05, d=1)
        with pytest.raises(ValueError):
            SampleSizeSpec(epsilon=0.05, delta=1.0, d=1)
        with pytest.raises(ValueError):
            SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, c=0.0)


@pytest.mark.parametrize(
    "formula",
    [
        lambda: bound_select_single(10**320),
        lambda: bound_boolean_combination(10**320, 1),
        lambda: bound_select_boolean(1, 10**320),
        lambda: bound_join_pair(2, 10**320),
        lambda: bound_multi_join(2, [2, 10**320]),
        lambda: bound_general(10**320, 1, 1),
        lambda: bound_general(10**160, 1, 1),  # finite inputs, infinite bound
        lambda: sample_size_eps(SampleSizeSpec(epsilon=1e-200, delta=0.05, d=1)),
        lambda: sample_size_eps(SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, c=1e308)),
        lambda: sample_size_eps(SampleSizeSpec(epsilon=0.05, delta=0.05, d=10**320)),
        lambda: sample_size_rel(SampleSizeSpec(epsilon=1e-10, delta=0.05, d=1, p=1e-300)),
    ],
    ids=[
        "select_single",
        "boolean_combination",
        "select_boolean",
        "join_pair",
        "multi_join",
        "general",
        "general infinite",
        "eps epsilon squared is 0",
        "eps c is huge",
        "eps d beyond a float",
        "rel p times epsilon squared is 0",
    ],
)
def test_value_beyond_float_range_raises_value_error(formula):
    with pytest.raises(ValueError, match="beyond the range of a float"):
        formula()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, c_prime=0.0), "c_prime must be positive"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=0), "d must be positive"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, c=math.nan), "c must be positive"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, c_prime=math.nan), "c_prime must be positive"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=math.nan), "d must be positive"),
        (lambda: SampleSizeSpec(epsilon=math.nan, delta=0.05, d=1), r"epsilon must be in \(0, 1\)"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=math.nan, d=1), r"delta must be in \(0, 1\)"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, p=math.nan), r"p must be in \(0, 1\)"),
        (lambda: SampleSizeSpec(epsilon=0.05, delta=0.05, d=1, p=1.0), r"p must be in \(0, 1\)"),
        (lambda: bound_boolean_combination(2, 0), "combination size h must be at least 1"),
        (lambda: bound_select_boolean(0, 1), "m must be at least 1"),
        (lambda: bound_select_boolean(1, 0), "b must be at least 1"),
        (lambda: bound_multi_join(1, [2]), "multi-join bound needs at least two tables"),
        (lambda: bound_multi_join(3, [2, 2]), "expected 3 per-table dimensions, got 2"),
        (lambda: bound_multi_join(2, [2, 1]), "per-table dimensions must be at least 2"),
        (lambda: bound_general(0, 1, 1), "u must be at least 1"),
        (lambda: bound_general(2, 0, 1), "m must be at least 1"),
        (lambda: bound_general(2, 1, 0), "b must be at least 1"),
    ],
    ids=[
        "c_prime 0",
        "d 0",
        "c NaN",
        "c_prime NaN",
        "d NaN",
        "epsilon NaN",
        "delta NaN",
        "p NaN",
        "p 1",
        "combination h 0",
        "select_boolean m 0",
        "select_boolean b 0",
        "multi_join u 1",
        "multi_join dims length",
        "multi_join dim 1",
        "general u 0",
        "general m 0",
        "general b 0",
    ],
)
def test_argument_check_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestSampleSizeRel:
    def test_hand_arithmetic_value(self):
        # ceil(400 * (2*ln 2 + ln 20)) = ceil(400 * 4.38176...) = 1753
        spec = SampleSizeSpec(epsilon=0.05, delta=0.05, d=2, p=0.5, c_prime=0.5)
        assert sample_size_rel(spec) == 1753
        assert sample_size_rel(spec) == math.ceil(400 * (2 * math.log(2) + math.log(20)))

    def test_linear_in_c_prime(self):
        base = SampleSizeSpec(epsilon=0.05, delta=0.05, d=2, p=0.5, c_prime=0.5)
        double = SampleSizeSpec(epsilon=0.05, delta=0.05, d=2, p=0.5, c_prime=1.0)
        assert sample_size_rel(double) == pytest.approx(2 * sample_size_rel(base), abs=1)

    def test_size_is_at_least_one(self):
        # (c'/(eps^2 * p)) * (d*ln(1/p) + ln(1/delta)) underflows to 0 here.
        spec = SampleSizeSpec(epsilon=0.5, delta=1 - 1e-12, d=5e-324, p=0.5, c_prime=5e-324)
        assert sample_size_rel(spec) == 1

    # As c in sample_size_eps: c' sizes a sample as epsilon * sqrt(0.5/c') does at 0.5.
    @given(epsilon=_coarse, delta=_unit, d=st.integers(1, 1000), p=_coarse, c_prime=st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_c_prime_is_a_smaller_epsilon(self, epsilon, delta, d, p, c_prime):
        at_half = epsilon * math.sqrt(0.5 / c_prime)
        assume(at_half < 1.0)
        size = sample_size_rel(SampleSizeSpec(epsilon, delta, d, p=p, c_prime=c_prime))
        assert abs(size - sample_size_rel(SampleSizeSpec(at_half, delta, d, p=p))) <= 1

    def test_requires_p(self):
        with pytest.raises(ValueError, match="p"):
            sample_size_rel(SampleSizeSpec(epsilon=0.05, delta=0.05, d=2))


class TestReport:
    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            VcBoundReport(0.5, "x")

    def test_fields(self):
        rep = bound_select_boolean(2, 3)
        assert rep.formula_id == "select_boolean"

    def test_reference_parameter_combos_finite_positive(self):
        select_combos = [(1, 1), (1, 2), (1, 3), (1, 5), (1, 8), (2, 2), (2, 3), (2, 5), (2, 8), (5, 5)]
        for m, b in select_combos:
            v = bound_select_boolean(m, b).bound
            assert math.isfinite(v) and v > 0
            v = bound_general(2, m, b).bound
            assert math.isfinite(v) and v > 0


def _outcome(call):
    """What call() returns, or the type and text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _chain_by_hand(epsilon, delta, u_m_b, d, p):
    """The size built step by step: the class's bound_general dimension, a
    SampleSizeSpec, then the absolute or the relative formula."""
    if u_m_b is not None:
        d = bound_general(*u_m_b).dimension
    spec = SampleSizeSpec(epsilon=epsilon, delta=delta, d=d, p=p)
    return sample_size_rel(spec) if p is not None else sample_size_eps(spec)


class TestSizeSample:
    @given(
        epsilon=_unit,
        delta=_unit,
        u_m_b=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
        d=st.integers(1, 10**6),
        p=st.none() | _unit,
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_chain_by_hand(self, epsilon, delta, u_m_b, d, p):
        # u_m_b None means the dimension d is given directly.
        d = d if u_m_b is None else None
        sizing = _outcome(lambda: size_sample(epsilon, delta, u_m_b=u_m_b, d=d, p=p))
        by_hand = _outcome(lambda: _chain_by_hand(epsilon, delta, u_m_b, d, p))
        if isinstance(sizing, Sizing):
            assert sizing.size == by_hand
            spec = SampleSizeSpec(epsilon, delta, sizing.spec.d, p=p)
            assert sizing.spec == spec and sizing.u_m_b == u_m_b
            if u_m_b is None:
                assert sizing.report is None and sizing.spec.d == d
            else:
                assert sizing.report == bound_general(*u_m_b)
                assert sizing.spec.d == sizing.report.dimension
        else:
            assert sizing == by_hand

    def test_record(self):
        sizing = size_sample(0.05, 0.05, u_m_b=(1, 2, 5))
        assert sizing.size == 35800 == sample_size_eps(SampleSizeSpec(0.05, 0.05, 176))
        assert sizing.report.formula_id == "select_boolean"
        assert (sizing.u_m_b, sizing.spec.d) == ((1, 2, 5), 176)
        assert size_sample(0.05, 0.05, d=2) == Sizing(1000, SampleSizeSpec(0.05, 0.05, 2), None, None)
        assert size_sample(0.05, 0.05, d=2, p=0.5).size == 1753

    @pytest.mark.parametrize("given", [{}, {"u_m_b": (1, 1, 1), "d": 2}], ids=["neither", "both"])
    def test_takes_exactly_one_of_class_and_dimension(self, given):
        with pytest.raises(ValueError, match="^size_sample takes exactly one of u_m_b and d$"):
            size_sample(0.05, 0.05, **given)
