import functools
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import cfx.engine as engine_module
from cfx.engine import (
    ConvergentState,
    ExpansionSpec,
    CoefficientRule,
    TailSequence,
    convergents,
    depth_cap,
    equivalence_transform,
    estimate_limit,
    raw_table,
    euler_wallis_step,
    waadeland_limit,
)
from cfx.families import (
    _linear,
    make_confluent_1f1,
    make_e_euler,
    make_exp_n,
    make_exp_n_shifted,
    make_family,
    make_inc_gamma,
    make_m_fraction,
    make_m_fraction_diagonal,
    shifted_tail,
)
from cfx.kernel import (
    ComplexParam,
    NonConvergenceError,
    ParameterError,
    SingularError,
    round_quotient,
    to_mp,
)
from cfx.oracle import exp_series, hyp_1f1, hyp_2f2

E_EULER_TABLE = [
    Fraction(3),
    Fraction(11, 4),
    Fraction(49, 18),
    Fraction(87, 32),
    Fraction(1631, 600),
    Fraction(11743, 4320),
]


def test_convergents_e_euler_table():
    convs = convergents(make_e_euler(), 5)
    assert [c.value for c in convs] == E_EULER_TABLE


def test_raw_table_matches_the_convergents_raw_pairs():
    for spec in (make_e_euler(), make_exp_n(3), make_m_fraction(Fraction(1, 2), ComplexParam(2, 3))):
        assert raw_table(spec, 12) == [(c.p_raw, c.q_raw) for c in convergents(spec, 12)]
    for depth in (-1, True, 2.0, "3"):
        with pytest.raises(ParameterError, match="depth must be >= 0"):
            raw_table(make_exp_n(3), depth)


def test_convergents_exp_n_depth0():
    convs = convergents(make_exp_n(1), 0)
    assert convs[0].value == 3


def test_convergents_exp2_limit_close_to_e_squared():
    convs = convergents(make_exp_n(2), 40)
    with mp.workdps(60):
        target = exp_series(2, 50).value
        v = mpf(convs[40].value.numerator) / convs[40].value.denominator
        assert abs(v - target) < mpf(10) ** -30


def test_package_root_exports_no_test_only_helper():
    import cfx
    from cfx import engine, families, oracle

    for name in ("ConvergentState", "euler_wallis_step", "equivalence_transform",
                 "successive_difference", "iter_convergents", "same_convergents",
                 "unshift_first_step", "sigma_partial"):
        assert not hasattr(cfx, name), name
    for name in ("ConvergentState", "euler_wallis_step", "equivalence_transform"):
        assert hasattr(engine, name), name
    for name in ("iter_convergents", "successive_difference", "unshift_first_step"):
        assert not hasattr(engine, name), name
    assert not hasattr(oracle, "sigma_partial")
    assert hasattr(families, "same_convergents")


def test_euler_wallis_step_first_two():
    state = ConvergentState.initial(3)
    state = euler_wallis_step(state, -1, 4)
    assert (state.p_cur, state.q_cur) == (11, 4)
    state = euler_wallis_step(state, -2, 5)
    assert (state.p_cur, state.q_cur) == (49, 18)


def test_euler_wallis_rejects_zero_numerator():
    with pytest.raises(ParameterError):
        euler_wallis_step(ConvergentState.initial(1), 0, 1)


def test_determinant_identity_exact_to_200():
    for spec in (make_e_euler(), make_exp_n(3)):
        state = ConvergentState.initial(spec.head)
        prod = 1
        for k in range(1, 201):
            a_k, b_k = spec.rule.a(k), spec.rule.b(k)
            state = euler_wallis_step(state, a_k, b_k)
            prod *= a_k
            det = state.p_cur * state.q_prev - state.p_prev * state.q_cur
            assert det == (-1) ** (k - 1) * prod


def successive_difference(spec, k):
    """C_k - C_{k-1} in lowest terms."""
    if k < 1:
        raise ParameterError("difference requires k >= 1")
    convs = convergents(spec, k)
    a, b = convs[k - 1].value, convs[k].value
    if a is None or b is None:
        raise SingularError(f"singular convergent near index {k} of {spec.name}")
    return b - a


def test_successive_differences_e_euler():
    spec = make_e_euler()
    assert successive_difference(spec, 1) == Fraction(-1, 4)
    assert successive_difference(spec, 2) == Fraction(-1, 36)
    # the printed table says -1/784 here; exact subtraction disagrees
    assert successive_difference(spec, 3) == Fraction(-1, 288)
    assert successive_difference(spec, 4) == Fraction(-1, 2400)


def test_successive_difference_requires_k_ge_1():
    with pytest.raises(ParameterError):
        successive_difference(make_e_euler(), 0)


def test_monotone_decrease_e_euler_to_200():
    convs = convergents(make_e_euler(), 200)
    values = [c.value for c in convs]
    assert all(values[k] < values[k - 1] for k in range(1, 201))


def test_equivalence_transform_identity():
    spec = make_e_euler()
    same = equivalence_transform(spec, lambda m: 1)
    for c1, c2 in zip(convergents(spec, 20), convergents(same, 20)):
        assert c1.value == c2.value and c1.p_raw == c2.p_raw


def test_equivalence_transform_sign_flip_preserves_values():
    spec = make_e_euler()
    flipped = equivalence_transform(spec, lambda m: -1)
    for c1, c2 in zip(convergents(spec, 20), convergents(flipped, 20)):
        assert c1.value == c2.value


def test_equivalence_transform_scaling_changes_raw_q():
    spec = make_exp_n(2)
    scaled = equivalence_transform(spec, lambda m: Fraction(1, 2))
    c_orig = convergents(spec, 20)
    c_new = convergents(scaled, 20)
    for k in range(21):
        assert c_orig[k].value == c_new[k].value
    assert any(c_orig[k].q_raw != c_new[k].q_raw for k in range(1, 21))


@given(
    factors=st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(lambda f: f != 0),
        min_size=12,
        max_size=12,
    )
)
@settings(max_examples=25, deadline=None)
def test_equivalence_transform_invariance_random(factors):
    spec = make_exp_n(2)
    transformed = equivalence_transform(spec, lambda m: factors[(m - 1) % len(factors)])
    for c1, c2 in zip(convergents(spec, 12), convergents(transformed, 12)):
        assert c1.value == c2.value


def test_equivalence_transform_rejects_zero_factor():
    spec = make_e_euler()
    bad = equivalence_transform(spec, lambda m: 0)
    with pytest.raises(ParameterError):
        convergents(bad, 2)


def test_tail_sequence_recursion_thm2_families():
    for n in range(1, 11):
        rule = make_exp_n_shifted(n).rule
        tail = TailSequence(shifted_tail(n))
        for j in range(1, 201):
            assert tail.satisfies(rule, j)


def test_waadeland_limit_trivial():
    assert waadeland_limit(Fraction(-7), 1) == 0
    with pytest.raises(SingularError):
        waadeland_limit(1, 0)


def unshift_first_step(a1, b1, tail_value):
    """Value a1/(b1 + t) of a fraction whose tail from index 2 has value t."""
    denom = b1 + tail_value
    if denom == 0:
        raise SingularError("b1 + tail_value vanishes")
    return a1 / denom


def test_waadeland_reconstructs_e():
    with mp.workdps(60):
        sigma = hyp_2f2(1, 1, 3, 3, 1, 50).value
        f1 = waadeland_limit(mpf(-4), sigma)
        # e = 3 + K, and K = a1/(b1 + f1) with a1 = -1, b1 = 4
        k_value = unshift_first_step(mpf(-1), mpf(4), f1)
        target = exp_series(1, 50).value
        assert abs(3 + k_value - target) < mpf(10) ** -45


def test_waadeland_matches_shifted_cf_limit_n2():
    with mp.workdps(50):
        sigma = hyp_2f2(1, 1, 3, 4, 2, 40).value
        f1 = waadeland_limit(mpf(-6), sigma)
        cf_value, _ = estimate_limit(make_exp_n_shifted(2), 35)
        v = mpf(cf_value.numerator) / cf_value.denominator
        assert abs(v - f1) < mpf(10) ** -30


def test_unshift_first_step():
    assert unshift_first_step(1, 1, 0) == 1
    with pytest.raises(SingularError):
        unshift_first_step(1, 2, -2)


def test_unshift_first_step_value_is_e_minus_3():
    # Theorem-style rearrangement at n = 1: K = e - 3 (a negative number).
    with mp.workdps(60):
        sigma = hyp_2f2(1, 1, 3, 3, 1, 50).value
        f1 = waadeland_limit(mpf(-4), sigma)
        k_value = unshift_first_step(mpf(-1), mpf(4), f1)
        target = exp_series(1, 50).value - 3
        assert abs(k_value - target) < mpf(10) ** -45


def test_estimate_limit_e_euler_30_digits():
    value, depth = estimate_limit(make_e_euler(), 30)
    assert depth <= 40
    with mp.workdps(45):
        target = exp_series(1, 40).value
        v = mpf(value.numerator) / value.denominator
        assert abs(v - target) < mpf(10) ** -30


def test_estimate_limit_depth_cap(monkeypatch):
    monkeypatch.setenv("CFX_MAX_DEPTH", "5")
    with pytest.raises(NonConvergenceError):
        estimate_limit(make_e_euler(), 30)


@pytest.mark.parametrize("digits", [-1, 0, 2.5, Fraction(3), "10", None, True])
def test_estimate_limit_rejects_a_target_that_is_not_a_positive_int(digits):
    # 0 once returned 49/18 at depth 2; -1 and 2.5 failed with AttributeError.
    with pytest.raises(ParameterError, match="target_digits must be an integer >= 1"):
        estimate_limit(make_e_euler(), digits)


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5"])
def test_depth_cap_env_must_be_positive_integer(monkeypatch, value):
    monkeypatch.setenv("CFX_MAX_DEPTH", value)
    with pytest.raises(ParameterError):
        depth_cap()


def _norm2(x):
    return x.norm2() if isinstance(x, ComplexParam) else x * x


def _quotient(p, q):
    return p / q if isinstance(p, ComplexParam) or isinstance(q, ComplexParam) else Fraction(p, q)


def _reference_limit(spec, digits):
    """The earlier limit loop: reduce every convergent to the exact quotient
    p/q (a Fraction, or a Gaussian rational for complex z), then stop after two
    consecutive steps with |C_k - C_{k-1}| < 10^-digits * max(1, |C_k|),
    compared squared.  The limit is typed as estimate_limit types it, by its
    Moebius image: exact when the image's numerator and denominator are both
    real, else rounded as estimate_limit rounds it: each part of the exact
    Gaussian quotient once, by kernel.round_quotient."""
    alpha, beta, gamma, delta = spec.mobius
    threshold2 = Fraction(1, 100**digits)
    p_prev, p, q_prev, q = 1, spec.head, 0, 1
    prev, streak, k = None, 0, 0
    while True:
        value = None
        if q != 0:
            w = _quotient(p, q)
            if gamma * w + delta != 0:
                value = _quotient(alpha * w + beta, gamma * w + delta)
        if value is None:
            prev, streak = None, 0
        else:
            if prev is not None:
                if _norm2(value - prev) < threshold2 * max(1, _norm2(value)):
                    streak += 1
                    if streak == 2:
                        break
                else:
                    streak = 0
            prev = value
        k += 1
        a, b = spec.rule.a(k), spec.rule.b(k)
        p_prev, p = p, b * p + a * p_prev
        q_prev, q = q, b * q + a * q_prev
    if not isinstance(value, ComplexParam):
        return value, k
    if not any(ComplexParam.coerce(x).im for x in (alpha * p + beta * q, gamma * p + delta * q)):
        return value.re, k
    with mp.workdps(digits + max(10, digits // 4)):
        re, im = (round_quotient(x.numerator, x.denominator, mp.prec) for x in (value.re, value.im))
        return (mpc(re, im) if value.im else re), k


EXACT_FAMILIES = [
    ("e-euler", {}),
    ("exp-n", {"n": 1}),
    ("exp-n", {"n": 4}),
    ("exp-n-shifted", {"n": 2}),
    ("inc-gamma", {"z": Fraction(1, 2)}),
    ("confluent-1f1", {"z": 3}),
    ("m-fraction", {"b": 2, "z": 1}),
    ("m-fraction", {"b": Fraction(1, 2), "z": Fraction(-3, 2)}),
    ("m-fraction-diagonal", {"z": Fraction(7, 2)}),
    ("rat-exp", {"l": 2, "n": 3}),
    ("rat-exp", {"l": 3, "n": 7}),
    ("exp-inv-n", {"n": 4}),
    ("e-regular", {}),
    ("e-over", {}),
    ("e-sporadic", {}),
    ("e-squared", {}),
    ("e-one-over-M", {"M": 3}),
]


# inc-gamma with a non-integral head and with an odd denominator, a general
# M-fraction, and the diagonal M-fraction, whose Q_1 is singular (b = z).
COMPLEX_FAMILIES = [
    ("inc-gamma", {"z": ComplexParam(Fraction(-5, 2), Fraction(3, 4))}),
    ("inc-gamma", {"z": ComplexParam(Fraction(1, 3), Fraction(2))}),
    ("m-fraction", {"b": ComplexParam(Fraction(3, 4), Fraction(-2)),
                    "z": ComplexParam(Fraction(-5, 4), Fraction(1, 2))}),
    ("m-fraction-diagonal", {"z": ComplexParam(Fraction(-2), Fraction(1, 2))}),
]

REFERENCE_CASES = [
    pytest.param(family, params, digits, id=f"{family}-params{i}-{digits}")
    for i, (family, params) in enumerate(EXACT_FAMILIES + COMPLEX_FAMILIES)
    for digits in ((10, 100, 1000) if i < len(EXACT_FAMILIES) else (10, 100, 300))
] + [
    # Named ids, so that the ids above stay as they are: inc-gamma at a real
    # z with an odd denominator, and M-fractions with one of b, z real.
    pytest.param(family, params, digits, id=f"{name}-{digits}")
    for name, family, params, all_digits in (
        ("inc-gamma-real-z", "inc-gamma", {"z": Fraction(7, 3)}, (10, 100, 1000)),
        ("m-fraction-real-b", "m-fraction",
         {"b": Fraction(5, 3), "z": ComplexParam(Fraction(-3, 4), Fraction(5, 2))}, (10, 100, 300)),
        ("m-fraction-real-z", "m-fraction",
         {"b": ComplexParam(Fraction(1, 2), Fraction(-3, 2)), "z": Fraction(9, 4)}, (10, 100, 300)),
    )
    for digits in all_digits
]


@pytest.mark.parametrize("family,params,digits", REFERENCE_CASES)
def test_estimate_limit_matches_reference_loop(family, params, digits):
    spec = make_family(family, **params)
    value, depth = estimate_limit(spec, digits)
    assert type(value) is (Fraction if all(ComplexParam.coerce(x).is_real
                                           for x in params.values()) else mpc)
    assert (value, depth) == _reference_limit(spec, digits)


@pytest.mark.parametrize(
    "spec",
    [make_inc_gamma(ComplexParam(Fraction(1, 2), Fraction(1, 4))),
     make_m_fraction(Fraction(3, 4), Fraction(5, 2)),
     # real head and z, complex b: the loop turns complex at its first step
     make_m_fraction(ComplexParam(Fraction(1, 2), Fraction(-3, 2)), Fraction(9, 4)),
     # complex at the first step only: later real steps keep the imaginary parts
     ExpansionSpec(name="complex-then-real", head=Fraction(1, 2), rule=CoefficientRule(
         a=lambda m: ComplexParam(1, 1) if m == 1 else 1, b=lambda m: Fraction(m, 3)))],
)
def test_convergents_raw_table_matches_unscaled_recurrence(spec):
    # The engine steps on cleared coefficients; the table must still show the
    # raw P_k, Q_k of the coefficients as given.
    state = ConvergentState.initial(spec.head)
    for conv in convergents(spec, 40):
        if conv.k:
            state = euler_wallis_step(state, spec.rule.a(conv.k), spec.rule.b(conv.k))
        assert (conv.k, conv.p_raw, conv.q_raw) == (state.k, state.p_cur, state.q_cur)
        for x in (conv.p_raw, conv.q_raw):
            if isinstance(x, ComplexParam):
                assert type(x.re) is Fraction and type(x.im) is Fraction


def test_convergents_type_each_value_by_its_imaginary_part():
    # a_1 = 1 + i makes P_1 = 7/6 + i non-real, while Q_1 = b_1 Q_0 = 1/3 has
    # no imaginary part: it is the Fraction 1/3, not ComplexParam(1/3, 0).
    spec = ExpansionSpec(name="complex-then-real", head=Fraction(1, 2), rule=CoefficientRule(
        a=lambda m: ComplexParam(1, 1) if m == 1 else 1, b=lambda m: Fraction(m, 3)))
    conv = convergents(spec, 3)[1]
    state = euler_wallis_step(ConvergentState.initial(spec.head), spec.rule.a(1), spec.rule.b(1))
    assert type(conv.q_raw) is Fraction and conv.q_raw == Fraction(1, 3) == state.q_cur
    assert conv.p_raw == ComplexParam(Fraction(7, 6), Fraction(1)) == state.p_cur
    assert isinstance(conv.value, ComplexParam)
    # The other way round: P_1 = 1 is real and Q_1 = b_1 = 1 + i is not.
    spec = ExpansionSpec(name="real-over-complex", head=0, rule=CoefficientRule(
        a=lambda m: 1, b=lambda m: ComplexParam(1, 1) if m == 1 else 2))
    conv = convergents(spec, 1)[1]
    assert type(conv.p_raw) is int and conv.q_raw == ComplexParam(1, 1)
    assert conv.value == ComplexParam(Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize(
    "singular_at,digits",
    [pytest.param(k, 10, id=str(k)) for k in (3, 15, 16)]
    # Without the singular step the fraction stops at depth 54 at 40 digits:
    # the steps that bit lengths skip must not step over Q_K = 0 there.
    + [pytest.param(k, 40, id=f"{k}-40digits") for k in (52, 53, 54)],
)
def test_estimate_limit_singular_step_resets_streak(singular_at, digits):
    # b_m = 2 except one b_K chosen so that Q_K = 0, near where steps get small.
    q_prev, q = 0, 1
    for _ in range(1, singular_at):
        q_prev, q = q, 2 * q + q_prev
    b_k = Fraction(-q_prev, q)
    spec = ExpansionSpec(
        name="singular-deep",
        head=0,
        rule=CoefficientRule(a=lambda m: 1, b=lambda m: b_k if m == singular_at else 2),
    )
    assert convergents(spec, singular_at)[singular_at].value is None
    assert estimate_limit(spec, digits) == _reference_limit(spec, digits)


@pytest.mark.parametrize(
    "spec,digits",
    [
        pytest.param(make_exp_n(3), 5, id="exp-n-3-5"),
        pytest.param(make_exp_n(3), 25, id="exp-n-3-25"),
        # complex values through a Moebius map with det M = 14
        pytest.param(replace(make_inc_gamma(ComplexParam(Fraction(1, 2), Fraction(3, 2))),
                             mobius=(8, -3, 2, 1)), 10, id="inc-gamma-moebius-10"),
    ],
)
def test_estimate_limit_exact_branch(spec, digits):
    # At some step before the stop the two sides of the stopping test are
    # within a factor 2, where bit lengths cannot decide: the leading bits of
    # each magnitude decide, or the exact cross product where those are too
    # short to be worth forming.  The ties that only the cross product can
    # decide are test_estimate_limit_exact_tie's.
    expected = _reference_limit(spec, digits)
    values = [c.value for c in convergents(spec, expected[1])]
    ratios = [_norm2(b - a) * 100**digits / max(1, _norm2(b)) for a, b in zip(values, values[1:])]
    assert any(Fraction(1, 2) < r < 2 for r in ratios)
    assert estimate_limit(spec, digits) == expected


def _exact_tie(digits, gaussian_tie):
    """head 0, a_1 = b_1 = a_2 = 1 and b_2 = w - 1 with |w| = 10^d, then steps
    that are all small: C_1 = 1 and C_2 = 1 - 1/w, so |C_2 - C_1| = 10^-d
    while |C_2| < 1 (Re w > 1/2).  The step at 2 sits exactly on the stopping
    threshold: it is not small, and the fraction stops at depth 4."""
    w = ComplexParam(6 * 10 ** (digits - 1), 8 * 10 ** (digits - 1)) if gaussian_tie else 10**digits
    return ExpansionSpec(name="exact-tie", head=0, rule=CoefficientRule(
        a=lambda m: 1, b=lambda m: 1 if m == 1 else w - 1 if m == 2 else 10 ** (3 * digits)))


@pytest.mark.parametrize("gaussian_tie", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("digits", [10, 100, 157, 184, 263])
def test_estimate_limit_exact_tie(monkeypatch, gaussian_tie, digits):
    # Bit lengths leave the tie open.  From 155 digits on its leading bits
    # are formed; they agree to within float rounding, which leaves the two
    # sides +-2^-42 apart at 157, 184 and 263 digits (0 at most others), so
    # only the margin keeps them from deciding.  The cross product
    # num_k den_{k-1} - num_{k-1} den_k decides the tie, exactly.
    spec = _exact_tie(digits, gaussian_tie)
    calls, exact = [], engine_module._cross_small

    def counted(*args):
        calls.append(exact(*args))
        return calls[-1]

    expected = _reference_limit(spec, digits)
    monkeypatch.setattr("cfx.engine._cross_small", counted)
    assert estimate_limit(spec, digits) == expected
    assert expected[1] == 4 and calls == [False]


@pytest.mark.parametrize("k", [5, 10])
def test_estimate_limit_skip_reads_both_raw_pairs(k):
    # b_m = 2 except b_{K-1} = 10^12 and b_K = 0: the step to C_{K-1} is tiny,
    # and C_K = C_{K-2}, so the step to C_K is as tiny while the raw P_K, Q_K
    # are 10^12 times smaller than P_{K-1}, Q_{K-1}.  Raw parts within the
    # skip bound at K alone do not make the step at K large.
    spec = ExpansionSpec(
        name="zero-after-huge-b",
        head=0,
        rule=CoefficientRule(a=lambda m: 1,
                             b=lambda m: 10**12 if m == k - 1 else 0 if m == k else 2),
    )
    value, depth = estimate_limit(spec, 10)
    assert (value, depth) == _reference_limit(spec, 10)
    assert depth == k


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_SCALARS = st.one_of(
    st.integers(-4, 4),
    _SMALL,
    st.builds(ComplexParam, _SMALL, _SMALL.filter(lambda x: x != 0)),
)


@given(
    head=_SCALARS,
    a=st.lists(_SCALARS.filter(lambda x: x != 0), min_size=1, max_size=4),
    b=st.lists(_SCALARS, min_size=1, max_size=4),
    m=st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda m: m[2] or m[3]),
    digits=st.integers(1, 60),
)
@settings(max_examples=150, deadline=None)
def test_estimate_limit_matches_reference_random(head, a, b, m, digits):
    # Cycled coefficients: b_1 and b_2 may vanish or nearly cancel, so raw
    # Q_k and the Moebius denominators can hit zero early; from k = 3 on,
    # |b_k| >= 8 > |a_k| + 2 keeps the fraction converging fast.  Entries of
    # M of either sign let its image cancel.
    spec = ExpansionSpec(
        name="random",
        head=head,
        rule=CoefficientRule(a=lambda k: a[k % len(a)],
                             b=lambda k: b[k % len(b)] + (0 if k <= 2 else 12)),
        mobius=m,
    )
    assert estimate_limit(spec, digits) == _reference_limit(spec, digits)


def test_estimate_limit_real_image_of_complex_coefficients_is_exact():
    # a_k = i for odd k makes P_1 = i non-real, but the constant map w -> 1/3
    # reads only Q, which stays real: the image's cleared imaginary parts are
    # zero, so the limit is the exact Fraction, not a rounded mpf.
    spec = ExpansionSpec(
        name="complex-coefficients-real-image",
        head=0,
        rule=CoefficientRule(a=lambda k: ComplexParam(0, 1) if k % 2 else 1,
                             b=lambda k: 0 if k <= 2 else 12),
        mobius=(0, 1, 0, 3),
    )
    assert convergents(spec, 1)[1].p_raw == ComplexParam(0, 1)
    value, depth = estimate_limit(spec, 1)
    assert (value, depth) == (Fraction(1, 3), 4) and type(value) is Fraction
    assert (value, depth) == _reference_limit(spec, 1)
    # The same with a non-real head and real coefficients.
    spec = replace(spec, head=ComplexParam(0, 1), rule=CoefficientRule(a=lambda k: 1,
                                                                       b=lambda k: 12))
    assert estimate_limit(spec, 30) == (Fraction(1, 3), 2) == _reference_limit(spec, 30)


def test_estimate_limit_imaginary_part_dominates():
    # |Im C_k| is about 10^12 |Re C_k|, so the stopping test's bit-length
    # screen must read the imaginary parts of num and den.
    spec = ExpansionSpec(
        name="imaginary-head",
        head=ComplexParam(1, 10**12),
        rule=CoefficientRule(a=lambda m: 1, b=lambda m: 2),
    )
    for digits in (10, 40):
        assert estimate_limit(spec, digits) == _reference_limit(spec, digits)


@pytest.mark.xfail(strict=True, reason="open defect: the stopping test takes a plateau of "
                   "the M-fraction with a large real z for the limit")
def test_estimate_limit_m_fraction_large_real_z():
    # The convergents sit near -1/z for a dozen steps before they climb to
    # 1F1(1; 2; 30) ~ 3.562e11 (past depth ~90); at 10 digits two of those
    # steps pass the stopping test at depth 14.
    value, _ = estimate_limit(make_m_fraction(1, 30), 10)
    with mp.workdps(30):
        target = hyp_1f1(2, 30, 20).value
        assert abs(to_mp(value) - target) <= mpf(10) ** -8 * abs(target)


@pytest.mark.xfail(strict=True, reason="open defect: the stopping test stops the M-fraction "
                   "short near a negative half-integer b")
def test_estimate_limit_m_fraction_negative_half_integer_b():
    # 1F1(1; -61/2; 1): at 33, 36 and 40 digits two steps pass the stopping
    # test at depths 20, 23 and 28, each a relative 6.0e-33 from the limit.
    spec = make_m_fraction(Fraction(-63, 2), 1)
    with mp.workdps(60):
        target = mp.hyp1f1(1, mpf(-61) / 2, 1)
        for digits in (33, 36, 40):
            value, _ = estimate_limit(spec, digits)
            assert abs(to_mp(value) - target) <= mpf(10) ** -33 * abs(target)


@pytest.mark.xfail(strict=True, reason="open defect: the stopping test stops the M-fraction "
                   "short at z = -20+3i")
def test_estimate_limit_m_fraction_z_minus_20_plus_3i():
    # At 10 digits two steps pass the stopping test at depths 21, 19 and 20
    # for b = 0.5, 1 and 1+i, each a relative 3.1e-10, 1.2e-10 and 1.15e-10
    # from 1F1(1; b+1; z); at 12 and 15 digits all three meet their target.
    for b in ("0.5", "1", "1+1i"):
        value, _ = estimate_limit(make_m_fraction(b, "-20+3i"), 10)
        with mp.workdps(40):
            bv, zv = ComplexParam.parse(b).to_mp(), ComplexParam.parse("-20+3i").to_mp()
            target = mp.hyp1f1(1, bv + 1, zv)
            assert abs(value - target) <= mpf(10) ** -10 * max(1, abs(target))


def test_estimate_limit_constant_family():
    # Every step of the z = 0 M-fraction is zero: two small steps at depth 2.
    assert estimate_limit(make_m_fraction(3, 0), 50) == (1, 2)


@pytest.mark.parametrize(
    "spec,b,z",
    [
        (make_inc_gamma("2+3i"), None, "2+3i"),
        (make_inc_gamma("-1.5+2i"), None, "-1.5+2i"),
        (make_m_fraction_diagonal("-2+0.5i"), None, "-2+0.5i"),
        (make_m_fraction("1.5-1i", "2+3i"), "1.5-1i", "2+3i"),
        (make_m_fraction("0.75+2i", "-2.5-1i"), "0.75+2i", "-2.5-1i"),
        (make_m_fraction("3", "-1+0.25i"), "3", "-1+0.25i"),
    ],
)
def test_estimate_limit_complex_matches_hyp1f1(spec, b, z):
    digits = 300
    value, depth = estimate_limit(spec, digits)
    assert isinstance(value, mpc)
    with mp.workdps(digits + 20):
        zv = ComplexParam.parse(z).to_mp()
        bv = zv if b is None else ComplexParam.parse(b).to_mp()
        target = mp.hyp1f1(1, bv + 1, zv)
        assert abs(value - target) <= mpf(10) ** -(digits - 2) * max(1, abs(target))


def test_singular_convergent_is_recorded_not_fatal():
    # b_1 = 0 makes Q_1 = 0: the index-1 convergent has no value.
    spec = ExpansionSpec(
        name="singular-demo",
        head=0,
        rule=CoefficientRule(a=lambda m: 1, b=lambda m: 0 if m == 1 else 1),
    )
    convs = convergents(spec, 3)
    assert convs[1].value is None
    assert convs[2].value is not None


def _per_step(spec):
    """The spec with its rule re-wrapped as plain lambdas, which carry no
    progression: the engine then takes each coefficient from a rule call."""
    rule = spec.rule
    return replace(spec, rule=CoefficientRule(a=lambda m: rule.a(m), b=lambda m: rule.b(m)))


# Rules on a Gaussian-integer progression: complex, Gaussian-integer and
# real Fraction parameters, Re z < 0, b = z (Q_1 = 0), M-fractions whose
# a_1 = b is not the progression's value 0 at m = 1, the integer families
# (e and e^n as the incomplete-gamma rule at z = 1 and n, the shifted,
# rational-exponent and e-over rules), e-sporadic, whose a_1 and b_1 are
# exceptions, and the regular fixtures, whose b has period 3 or 5.
PROGRESSION_SPECS = [
    make_e_euler(),
    *(make_exp_n(n) for n in range(1, 5)),
    make_exp_n_shifted(2),
    make_family("rat-exp", l=2, n=5),
    make_family("exp-inv-n", n=3),
    make_family("e-over"),
    make_family("e-sporadic"),
    make_inc_gamma(ComplexParam(Fraction(-5, 2), Fraction(3, 4))),
    make_inc_gamma(ComplexParam(2, 3)),
    make_inc_gamma(Fraction(7, 3)),
    make_confluent_1f1(ComplexParam(Fraction(-3, 2), -2)),
    make_confluent_1f1(Fraction(1, 2)),
    make_m_fraction_diagonal(ComplexParam(Fraction(-2), Fraction(1, 2))),
    make_m_fraction_diagonal(3),
    make_m_fraction(ComplexParam(Fraction(3, 4), -2), ComplexParam(Fraction(-5, 4), Fraction(1, 2))),
    make_m_fraction(Fraction(1, 2), ComplexParam(2, 3)),
    make_m_fraction(ComplexParam(1, 1), ComplexParam(1, 1)),
    make_m_fraction(Fraction(-63, 2), 1),
    make_m_fraction(Fraction(5, 3), Fraction(9, 4)),
    make_family("e-regular"),
    make_family("e-squared"),
    *(make_family("e-one-over-M", M=M) for M in (2, 3, 7)),
]


def _big_mobius(spec):
    """The spec behind a Moebius map whose entries have up to 635 bits: the
    run certificate's 4(mb + 1) term then takes about 2500 bits."""
    return replace(spec, name=spec.name + "~big-mobius",
                   mobius=(3**400 + 1, 2**300, 5**200 - 3, 7**150))


# The specs also compared at 3000 digits, where runs of hundreds of steps
# are built as product trees (or, for complex z, stepped in the loop).
DEEP_SPECS = {"e-euler", "exp-n(n=3)", "rat-exp(l=2,n=5)", "inc-gamma(z=2+3i)",
              "e-regular", "e-squared", "e-euler~big-mobius", "inc-gamma(z=2+3i)~big-mobius"}


@pytest.mark.parametrize(
    "spec",
    PROGRESSION_SPECS + [_big_mobius(make_e_euler()),
                         _big_mobius(make_inc_gamma(ComplexParam(2, 3)))],
    ids=lambda spec: spec.name)
def test_progression_path_matches_the_per_step_path(spec):
    assert hasattr(spec.rule.a, "progression") and hasattr(spec.rule.b, "progression")
    plain = _per_step(spec)
    # repr compares the types too: int or Fraction, and ComplexParam parts.
    assert repr(raw_table(spec, 60)) == repr(raw_table(plain, 60))
    assert repr(convergents(spec, 8)) == repr(convergents(plain, 8))
    for digits in (10, 100, 1000) + ((3000,) if spec.name in DEEP_SPECS else ()):
        got, want = estimate_limit(spec, digits), estimate_limit(plain, digits)
        assert got == want and type(got[0]) is type(want[0])


_QUARTERS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_GAUSSIAN = st.one_of(_QUARTERS, st.builds(ComplexParam, _QUARTERS, _QUARTERS))


_GROWTH = st.sampled_from([1, 2, 3, Fraction(3, 2), ComplexParam(1, 1), ComplexParam(2, -1)])


def _periodic(pieces, first=None):
    """_linear of the pieces (alpha_r, beta_r), r < p; given as two values
    when p = 1, else as two tuples."""
    return _linear(*(pieces[0] if len(pieces) == 1 else zip(*pieces)), first=first)


@given(a=st.lists(st.tuples(_GAUSSIAN, _GAUSSIAN), min_size=1, max_size=4),
       b=st.lists(st.tuples(_GAUSSIAN, _GROWTH), min_size=1, max_size=4),
       first=st.one_of(st.none(), _GAUSSIAN), head=_GAUSSIAN,
       m=st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]),
       digits=st.integers(150, 400))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_progressions_match_the_per_step_path(monkeypatch, a, b, first, head, m, digits):
    # a_m and b_m on progressions of periods 1 to 4 each, a with an optional
    # exception at m = 1.  Every residue of b_m grows as fast as m, so the
    # fraction converges, at 150 to 400 digits, where runs are taken.  The
    # depth cap bounds the odd slow case; both paths must then agree on the
    # error too.  raw_table is compared by value: the per-step path types a
    # row int or Fraction by its own scale.
    monkeypatch.setenv("CFX_MAX_DEPTH", "2000")
    spec = ExpansionSpec(name="random-progression", head=head, mobius=m, rule=CoefficientRule(
        a=_periodic(a, first), b=_periodic(b)))
    outcomes, tables = [], []
    for target in (spec, _per_step(spec)):
        try:
            got = estimate_limit(target, digits)
            outcomes.append((got, type(got[0])))
        except (NonConvergenceError, ParameterError) as exc:
            outcomes.append((type(exc), str(exc)))
        try:
            tables.append(raw_table(target, 80))
        except ParameterError as exc:
            tables.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert tables[0] == tables[1]


def _record_runs(monkeypatch):
    """The runs (k, n) that estimate_limit asks of the recurrence, in order:
    steps k+1..k+n at once."""
    runs, walk = [], engine_module._raw_convergents

    def recording(spec, form):
        rows = walk(spec, form)
        row = next(rows)
        while True:
            n = yield row
            if n:
                runs.append((row[0], n))
            row = rows.send(n)

    monkeypatch.setattr("cfx.engine._raw_convergents", recording)
    return runs


def _small(spec, digits, depth):
    """For k = 1..depth: is step k small under the exact stopping test
    (None for a singular C_k or C_{k-1})?  From the raw table, as
    _reference_limit decides it."""
    alpha, beta, gamma, delta = spec.mobius
    values = []
    for p, q in raw_table(spec, depth):
        w = None if q == 0 else _quotient(p, q)
        den = None if w is None else gamma * w + delta
        values.append(None if w is None or den == 0 else _quotient(alpha * w + beta, den))
    threshold2 = Fraction(1, 100**digits)
    return [None if a is None or b is None else _norm2(b - a) < threshold2 * max(1, _norm2(b))
            for a, b in zip(values, values[1:])]


@pytest.mark.parametrize(
    "spec,digits",
    [pytest.param(spec, digits, id=f"{spec.name}-{digits}") for spec, digits in (
        (make_e_euler(), 3000),
        (make_exp_n(3), 1000),
        (make_family("rat-exp", l=2, n=5), 1000),
        (make_family("e-sporadic"), 1000),
        (make_family("e-over"), 1000),
        (make_family("e-regular"), 3000),
        (make_family("e-squared"), 1000),
        (make_m_fraction(Fraction(9, 4), Fraction(9, 4)), 1000),
        (make_inc_gamma(ComplexParam(2, 3)), 1000),
        (make_inc_gamma(ComplexParam(Fraction(-5, 2), Fraction(3, 4))), 500),
        (_big_mobius(make_e_euler()), 1000),
    )],
)
def test_every_step_in_a_run_is_not_small(monkeypatch, spec, digits):
    form = engine_module._progression(spec.rule)
    walk = engine_module._raw_convergents(spec, form)
    runs = _record_runs(monkeypatch)
    depth = estimate_limit(spec, digits)[1]
    assert runs
    small = _small(spec, digits, depth)
    assert small[-2:] == [True, True] and True not in map(all, zip(small, small[1:-1]))
    rows = [next(walk) for _ in range(depth + 1)]
    alpha, beta, gamma, delta = spec.mobius
    mb = max(x.bit_length() for x in spec.mobius)
    tol_bits = (100**digits).bit_length() - 1
    for k, n in runs:
        assert k + n < depth
        assert not any(small[k:k + n]), (k, n)  # steps k+1..k+n
        # The run is the one the certificate gives at k, with the exact
        # log2 |D_k|^2 = log2 |det M (P'_k Q'_{k-1} - P'_{k-1} Q'_k)|^2.
        _, pr, pi, qr, qi, ppr, ppi, qpr, qpi, *_ = rows[k]
        xr = pr * qpr - pi * qpi - ppr * qr + ppi * qi
        xi = pr * qpi + pi * qpr - ppr * qi - ppi * qr
        log_d2 = math.log2((alpha * delta - beta * gamma) ** 2 * (xr * xr + xi * xi))
        err = (k + 2) * (log_d2 + 1) * 2.0**-52
        parts = (pr, pi, qr, qi, ppr, ppi, qpr, qpi)
        u = max(x.bit_length() for x in parts) + bool(pi or qi or ppi or qpi)
        slack = math.floor(log_d2 - err - 1) + tol_bits - 4 * (mb + 1 + u)
        assert n == engine_module._certified_run(form, k, slack), k


def _a_b(form, i):
    """The cleared a'_i and b'_i of a progression form, as (re, im) pairs."""
    _, d, pieces = form
    j, r = divmod(i, len(pieces))
    a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i = pieces[r]
    return (d * (a0r + a1r * j), d * (a0i + a1i * j)), (b0r + b1r * j, b0i + b1i * j)


def _cost(form, k, n):
    """bits(c^4) - gain for a run of n steps after k.  With j = (k+1) // p,
    c = c0 + ((k+n) // p - j) c1 for c0 the largest sum of the parts of a'
    and b' over the residues at j and c1 the largest sum of their steps;
    gain is the least bits(|a'|^2) - 1 over the residues at j."""
    _, d, pieces = form
    p = len(pieces)
    j = (k + 1) // p
    c0 = c1 = 0
    gain = math.inf
    for r, (_, _, a1r, a1i, _, _, b1r, b1i) in enumerate(pieces):
        a, b = _a_b(form, p * j + r)
        c0 = max(c0, sum(map(abs, a + b)))
        c1 = max(c1, d * abs(a1r) + d * abs(a1i) + abs(b1r) + abs(b1i))
        gain = min(gain, (a[0] ** 2 + a[1] ** 2).bit_length() - 1)
    return ((c0 + ((k + n) // p - j) * c1) ** 4).bit_length() - gain


_PARTS = st.integers(-40, 40)


@given(d=st.integers(1, 4), pieces=st.lists(st.tuples(*[_PARTS] * 8), min_size=1, max_size=5),
       k=st.integers(1, 60), slack=st.integers(-50, 5000))
@settings(max_examples=300, deadline=None)
def test_certified_run_is_the_largest_the_bound_proves(d, pieces, k, slack):
    form = (1, d, pieces)
    n = engine_module._certified_run(form, k, slack)
    p = len(pieces)
    j = (k + 1) // p
    norms = [[x * x + y * y for x, y in (_a_b(form, p * jj + r)[0] for jj in (j, j + 1))]
             for r in range(p)]
    if slack <= 0 or any(not now or later < now for now, later in norms):
        assert n == 0  # some |a'| may fall, or is zero at j: no run
        return
    assert n == 0 or n * _cost(form, k, n) <= slack
    assert (n + 1) * _cost(form, k, n + 1) > slack
    # No a'_i in the run is zero, and every step of it is within the bound
    # with exact logs: sum of 4 log2 c_i - log2 |a'_i|^2 <= slack.
    used = 0.0
    for i in range(k + 1, k + n + 1):
        a, b = _a_b(form, i)
        assert a != (0, 0)
        used += 4 * math.log2(sum(map(abs, a + b))) - math.log2(a[0] ** 2 + a[1] ** 2)
        assert used <= slack + 1e-9


def test_a_run_never_passes_the_depth_cap(monkeypatch):
    # e-euler stops at depth 1141 at 3000 digits, after runs of hundreds of
    # steps: a lower cap still raises, and the cap at the depth does not.
    depth = estimate_limit(make_e_euler(), 3000)[1]
    assert depth == 1141
    for cap in (40, 500, depth - 1):
        monkeypatch.setenv("CFX_MAX_DEPTH", str(cap))
        runs = _record_runs(monkeypatch)
        with pytest.raises(NonConvergenceError, match=f"within depth {cap}$"):
            estimate_limit(make_e_euler(), 3000)
        assert all(k + n <= cap for k, n in runs)
    monkeypatch.setenv("CFX_MAX_DEPTH", str(depth))
    assert estimate_limit(make_e_euler(), 3000)[1] == depth


@pytest.mark.parametrize("zero_at", [5, 40, 300])
def test_a_zero_partial_numerator_raises_at_its_index(monkeypatch, zero_at):
    # a_m = m - zero_at on a progression: the per-step path raises at
    # m = zero_at, and so does the progression path, with the same message.
    # |a'_j| falls towards the zero, so no run is taken before it.
    spec = ExpansionSpec(name="zero-a", head=1, rule=CoefficientRule(
        a=_linear(-zero_at, 1), b=_linear(1000, 1)))
    for target in (_per_step(spec), spec):
        with pytest.raises(ParameterError, match=f"^partial numerator a_{zero_at} is zero$"):
            estimate_limit(target, 3000)
    with pytest.raises(ParameterError, match=f"a_{zero_at} is zero"):
        raw_table(spec, zero_at)
    assert len(raw_table(spec, zero_at - 1)) == zero_at


@pytest.mark.parametrize("a, zero_at", [
    (_linear(1, 1, first=0), 1),  # a_1 = 0, from a rule call
    (_linear(-2, 1, first=5), 2),  # a_2 = 0 on the progression's start step
    (_linear(ComplexParam(-3, -3), ComplexParam(1, 1)), 3),  # a_m = (m - 3)(1 + i)
    (_linear(0, ComplexParam(0, 1)), None),  # a_m = i m: Re a'_k = 0, never zero
])
def test_a_zero_partial_numerator_is_found_on_both_paths(a, zero_at):
    # The progression path and the per-step path raise at the same index
    # with the same message, through raw_table and estimate_limit alike, and
    # agree on every row before it; row 0 takes no coefficient.
    spec = ExpansionSpec(name="zero-a", head=1, rule=CoefficientRule(a=a, b=_linear(1000, 1)))
    step = _per_step(spec)
    assert raw_table(spec, 0) == raw_table(step, 0) == [(1, 1)]
    if zero_at is None:
        assert raw_table(spec, 80) == raw_table(step, 80)
        for digits in (300, 3000):
            assert estimate_limit(spec, digits) == estimate_limit(step, digits)
        return
    assert raw_table(spec, zero_at - 1) == raw_table(step, zero_at - 1)
    for target in (spec, step):
        with pytest.raises(ParameterError, match=f"^partial numerator a_{zero_at} is zero$"):
            raw_table(target, zero_at)
        for digits in (300, 3000):
            with pytest.raises(ParameterError, match=f"^partial numerator a_{zero_at} is zero$"):
                estimate_limit(target, digits)


@pytest.mark.parametrize("zero_at", [7, 41, 300])
def test_a_zero_partial_numerator_in_a_later_residue_raises_at_its_index(zero_at):
    # a_m has period 3, and only its residue r = zero_at % 3 (1, 2 and 0
    # here) reaches zero, at m = zero_at; residue 1 falls otherwise.
    r, j = zero_at % 3, zero_at // 3
    pieces = [(1000, 1), (2 * j + 5, -1), (500, 3)]
    pieces[r] = (-j, 1)
    spec = ExpansionSpec(name="zero-a-periodic", head=1, rule=CoefficientRule(
        a=_periodic(pieces), b=_linear(1000, 1)))
    for target in (_per_step(spec), spec):
        with pytest.raises(ParameterError, match=f"^partial numerator a_{zero_at} is zero$"):
            estimate_limit(target, 3000)
        with pytest.raises(ParameterError, match=f"a_{zero_at} is zero"):
            raw_table(target, zero_at)
    assert raw_table(spec, zero_at - 1) == raw_table(_per_step(spec), zero_at - 1)


def test_a_traced_rule_still_steps_on_its_progression():
    # A tracer that rewraps each coefficient callable with functools.wraps
    # keeps its attributes, so the engine still steps on the progression:
    # the only rule calls are the exceptions a_1 and b_1 of the M-fraction
    # and of e-sporadic, and e-regular's period-3 rule takes none.
    calls = []

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(m):
            calls.append(m)
            return fn(m)
        return wrapper

    for spec in (make_inc_gamma(ComplexParam(2, 3)), make_e_euler(), make_family("e-sporadic"),
                 make_family("e-regular"),
                 make_m_fraction(Fraction(1, 2), ComplexParam(Fraction(-5, 4), Fraction(1, 2)))):
        traced = replace(spec, rule=type(spec.rule)(a=counted(spec.rule.a), b=counted(spec.rule.b)))
        calls.clear()
        assert estimate_limit(traced, 100) == estimate_limit(spec, 100)
        assert calls == ([] if spec.rule.a.start == 1 else [1, 1])


# Gaussian runs: complex z and b, a purely imaginary a_m = i m, and a
# period-20 rule that is real for m < 20 and Gaussian from m = 20 on, so a run
# from k = 0 starts real and turns Gaussian inside its second leaf.
GAUSSIAN_RUN_SPECS = [
    make_inc_gamma(ComplexParam(2, 3)),
    make_m_fraction(ComplexParam(1, 1), ComplexParam(1, 1)),
    ExpansionSpec(name="a=i*m", head=1, rule=CoefficientRule(
        a=_linear(0, ComplexParam(0, 1)), b=_linear(1, 2))),
    ExpansionSpec(name="real-then-gaussian", head=Fraction(1, 2), rule=CoefficientRule(
        a=_linear(tuple(Fraction(r + 1, 3) for r in range(20)),
                  tuple(ComplexParam(r - 7, 1) for r in range(20))),
        b=_linear(tuple(range(1, 21)), (20,) * 20))),
    make_e_euler(),
]


@pytest.mark.parametrize("spec", GAUSSIAN_RUN_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("before", [0, 5])
def test_a_run_equals_its_steps(spec, before):
    # send(n) after row `before` gives the row that n plain steps give, with
    # la the sum of log2 of each full leaf's product of |a'_j|^2 and an the
    # last leaf's product; the row after the run is the plain one again.
    form = engine_module._progression(spec.rule)
    plain = list(itertools.islice(engine_module._raw_convergents(spec, form), before + 102))
    if spec.name == "real-then-gaussian":
        assert not any(row[2] or row[4] for row in plain[:20]) and plain[20][2]
    for n in (1, 15, 16, 17, 32, 33, 100):
        walk = engine_module._raw_convergents(spec, form)
        for _ in range(before + 1):
            next(walk)
        got = walk.send(n)
        want = plain[before + n]
        norms = [row[10] for row in plain[before + 1:before + n + 1]]
        leaves = [math.prod(norms[i:i + engine_module._LEAF])
                  for i in range(0, n, engine_module._LEAF)]
        la = 0.0
        for x in leaves[:-1]:
            la += math.log2(x)
        assert got == (*want[:9], la, leaves[-1], want[11]), n
        assert next(walk) == plain[before + n + 1], n
