import random
import signal
from fractions import Fraction
from itertools import count
from math import prod

import pytest
from mpmath import mp, mpc, mpf

from cfx.kernel import (
    ComplexParam,
    gaussian,
    ParameterError,
    PrecisionError,
    factorial,
    pochhammer,
    to_mp,
)
from cfx.oracle import (
    _ratio_bound,
    beta_exp_integral,
    exp_rational_integral,
    exp_series,
    hyp_1f1,
    hyp_2f2,
    hyp_sum,
    inc_gamma_normalized,
)


def test_exp_series_values():
    with mp.workdps(50):
        e = exp_series(1, 40)
        assert abs(e.value - mpf(
            "2.71828182845904523536028747135266249775724709369996"
        )) < mpf(10) ** -40
        assert e.tail_bound < mpf(10) ** -40
        assert abs(exp_series(0, 40).value - 1) == 0
        assert abs(exp_series(2, 40).value - e.value**2) < mpf(10) ** -38
        assert abs(exp_series(-1, 40).value * e.value - 1) < mpf(10) ** -38


def test_exp_series_rational_argument():
    with mp.workdps(45):
        half = exp_series(Fraction(1, 2), 35).value
        assert abs(half**2 - exp_series(1, 35).value) < mpf(10) ** -33


def test_inc_gamma_normalized_consistent_with_gamma():
    # gamma(z, z) / (z^{z-1} e^{-z}) checked against mpmath's gamma(2, 2) at z = 2.
    with mp.workdps(45):
        direct = inc_gamma_normalized(2, 35).value
        via_gamma = mp.gammainc(2, 0, 2) / (mpf(2) ** 1 * exp_series(-2, 35).value)
        assert abs(direct - via_gamma) < mpf(10) ** -32


def test_hyp_1f1_values():
    with mp.workdps(45):
        e = exp_series(1, 35).value
        # 1F1(1; 2; 1) = e - 1; 1F1(1; 3; 1) = 2(e - 2)
        assert abs(hyp_1f1(2, 1, 35).value - (e - 1)) < mpf(10) ** -33
        assert abs(hyp_1f1(3, 1, 35).value - 2 * (e - 2)) < mpf(10) ** -33
    with pytest.raises(ParameterError):
        hyp_1f1(0, 1, 20)


def test_hyp_2f2_special_values():
    with mp.workdps(45):
        e = exp_series(1, 35).value
        e2 = exp_series(2, 35).value
        # 2F2(1,1;3,3;1) = 4(3 - e)
        assert abs(hyp_2f2(1, 1, 3, 3, 1, 35).value - 4 * (3 - e)) < mpf(10) ** -33
        # 2F2(1,1;3,4;2) = (3/2)(3 - (e^2 - 3)/2)
        assert abs(
            hyp_2f2(1, 1, 3, 4, 2, 35).value - mpf(3) / 2 * (3 - (e2 - 3) / 2)
        ) < mpf(10) ** -32
    # Terminating series: 1 - 1 and 1 - 2 + 1/2.
    assert hyp_2f2(-1, 1, 1, 1, 1, 20).value == 0
    assert hyp_2f2(-2, 1, 1, 1, 1, 20).value == mpf(-1) / 2
    with pytest.raises(ParameterError):
        hyp_2f2(1, 1, 0, 3, 1, 20)


def test_nonpositive_integer_denominator_parameter_is_a_pole():
    # ComplexParam.is_nonpositive_integer decides the poles of hyp_1f1,
    # hyp_2f2 and the M-fraction's b alike.
    for b in (0, -2):
        with pytest.raises(ParameterError):
            hyp_1f1(b, 1, 20)
    for b1, b2 in ((-3, 2), (2, -3)):
        with pytest.raises(ParameterError):
            hyp_2f2(1, 1, b1, b2, 1, 20)
    cases = (0, -2, Fraction(-1, 2), 1, ComplexParam(-2, 1), ComplexParam(-2, 0))
    assert ([ComplexParam.coerce(x).is_nonpositive_integer for x in cases]
            == [True, True, False, False, False, True])
    with mp.workdps(30):
        assert abs(hyp_1f1(ComplexParam(-2, 1), 1, 20).value
                   - mp.hyp1f1(1, mp.mpc(-2, 1), 1)) < mpf(10) ** -18


def sigma_partial(param, depth: int) -> Fraction:
    """Exact partial sum Sigma_l of the tail-product series.

    ``param`` is an integer n (the integer-power case, with the sum equal to
    the 2F2(1,1;3,n+2;n) partial sum) or a pair (l, n) with 1 <= l < n (the
    rational case, z = l/n, matching 2F2((n-1)z+1, 1; nz+2, (n-1)z+3; z)).
    Each term is computed both as the product prod (b_j + t_j)/(-t_j) and as
    the hypergeometric term, and the two are asserted equal.
    """
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    if isinstance(param, tuple):
        l, n = param
        if not (1 <= l < n):
            raise ParameterError("rational variant requires 1 <= l < n")
        z = Fraction(l, n)
        b = lambda j: j + (n + 1) * z + 2
        t = lambda j: -Fraction((j + 1 + n * z) * (j + 2 + (n - 1) * z), 1) / (j + 1 + (n - 1) * z)
        # (1)_k / k! = 1, so the hypergeometric term collapses to a single ratio.
        hyp = lambda k: (
            pochhammer((n - 1) * z + 1, k)
            / (pochhammer(n * z + 2, k) * pochhammer((n - 1) * z + 3, k))
            * z**k
        )
    else:
        n = param
        b = lambda j: Fraction(j + 2 * n + 2)
        t = lambda j: -Fraction((j + n + 1) * (j + 2), j + 1)
        hyp = lambda k: (
            pochhammer(Fraction(1), k) ** 2
            / (pochhammer(Fraction(3), k) * pochhammer(Fraction(n + 2), k))
            * Fraction(n**k, factorial(k))
        )

    total = Fraction(0)
    prod = Fraction(1)
    for k in range(depth + 1):
        if k > 0:
            prod *= (b(k) + t(k)) / (-t(k))
        if prod != hyp(k):
            raise PrecisionError(
                f"tail-product term {k} disagrees with hypergeometric term: {prod} vs {hyp(k)}"
            )
        total += prod
    return total


def test_sigma_partial_integer_case():
    assert sigma_partial(1, 0) == 1
    assert sigma_partial(1, 1) == Fraction(10, 9)
    # n = 2: terms 1, 2/(3*4), ...
    assert sigma_partial(2, 1) == 1 + Fraction(2, 12)
    with pytest.raises(ParameterError):
        sigma_partial(1, -1)


def test_sigma_partial_converges_to_2f2():
    with mp.workdps(45):
        target = hyp_2f2(1, 1, 3, 3, 1, 35).value
        partial = sigma_partial(1, 60)
        assert abs(mpf(partial.numerator) / partial.denominator - target) < mpf(10) ** -30


def test_sigma_partial_rational_case():
    # Exact cross-validation product-vs-hypergeometric runs inside the call.
    s = sigma_partial((1, 2), 40)
    with mp.workdps(45):
        # (x+1, 1; l+2, x+3; z) with z = 1/2, n = 2, l = 1, x = (n-1)z = 1/2
        target = hyp_2f2(
            Fraction(3, 2), 1, 3, Fraction(7, 2), Fraction(1, 2), 35
        ).value
        assert abs(mpf(s.numerator) / s.denominator - target) < mpf(10) ** -25
    with pytest.raises(ParameterError):
        sigma_partial((2, 2), 5)


def test_taylor_remainder_matches_series():
    # n^n/(n-1)! int_0^1 (1-t)^{n-1} e^{nt} dt = e^n - sum_{k<n} n^k/k!.
    with mp.workdps(40):
        for n in (1, 2, 3):
            r = Fraction(n**n, factorial(n - 1)) * beta_exp_integral(n, 30).value
            partial = sum(Fraction(n**k, factorial(k)) for k in range(n))
            expected = mp.exp(n) - to_mp(partial)
            assert abs(to_mp(r) - expected) < mpf(10) ** -28 * expected


def test_exp_rational_integral_identity():
    with mp.workdps(40):
        for l, n in ((1, 2), (2, 3), (1, 5)):
            lhs = to_mp(exp_rational_integral(l, n, 25).value)
            rhs = n * exp_series(Fraction(l, n), 30).value
            assert abs(lhs - rhs) < mpf(10) ** -22
    with pytest.raises(ParameterError):
        exp_rational_integral(2, 2, 20)


def test_beta_exp_integral_values():
    with mp.workdps(40):
        # n = 1: int_0^1 e^t dt = e - 1.
        assert abs(to_mp(beta_exp_integral(1, 25).value) - (exp_series(1, 30).value - 1)) < mpf(10) ** -22
        # n = 2: int_0^1 (1-t) e^{2t} dt = (e^2 - 3)/4.
        assert abs(
            to_mp(beta_exp_integral(2, 25).value) - (exp_series(2, 30).value - 3) / 4
        ) < mpf(10) ** -22
    with pytest.raises(ParameterError):
        beta_exp_integral(0, 20)


def _quad_beta(n):
    return mp.quad(lambda t: (1 - t) ** (n - 1) * mp.exp(n * t), [0, 1])


def _quad_rational(l, n):
    # t = u^p with p = n/(n-l) removes the t^{-l/n} endpoint singularity.
    p = mpf(n) / (n - l)
    return mp.quad(lambda u: p * mp.exp(mpf(l) / n * u**p) * (l * (u**p - 1) + n), [0, 1])


@pytest.mark.parametrize(
    "series, quadrature, args",
    [pytest.param(beta_exp_integral, _quad_beta, (n,), id=f"beta-n{n}") for n in range(1, 13)]
    + [
        pytest.param(exp_rational_integral, _quad_rational, (l, n), id=f"kernel-l{l}-n{n}")
        for n in range(2, 13)
        for l in range(1, n)
    ],
)
def test_integral_series_within_tail_bound_of_quadrature(series, quadrature, args):
    result = series(*args, 50)
    # The sum omits only positive terms, so it lies below the integral by at
    # most the certified tail; mp.quad at 60 digits is a third witness.
    with mp.workdps(60):
        gap = abs(to_mp(result.value) - quadrature(*args))
        assert gap <= to_mp(result.tail_bound) + mpf(10) ** -55
    assert result.tail_bound * 10**50 < result.value


def _reference_certified_sum(terms, digits):
    """The stopping rule on reduced Fractions: terms yields (t_k, tail bound)."""
    total = Fraction(0)
    for k, (term, tail) in enumerate(terms):
        total += term
        if tail * 10**digits < total:
            return total, k + 1, tail


def _reference_beta(n, digits):
    def terms():
        t, k = Fraction(1, n), 0
        while True:
            yield t, t * n / (k + 1)
            k += 1
            t = t * n / (n + k)

    return _reference_certified_sum(terms(), digits)


def _reference_rational(l, n, digits):
    def terms():
        power, k = Fraction(1), 0
        while True:
            t = power * (Fraction(l * n, n * (k + 2) - l) + Fraction(n * (n - l), n * (k + 1) - l))
            yield t, t * l / (n * (k + 1) - l)
            k += 1
            power = power * Fraction(l, n) / k

    return _reference_certified_sum(terms(), digits)


@pytest.mark.parametrize("digits", [1, 5, 25, 200])
def test_integral_series_match_fraction_reference(digits):
    for n in range(1, 13):
        r = beta_exp_integral(n, digits)
        assert (r.value, r.terms_used, r.tail_bound) == _reference_beta(n, digits)
        for l in range(1, n):
            r = exp_rational_integral(l, n, digits)
            assert (r.value, r.terms_used, r.tail_bound) == _reference_rational(l, n, digits)


def test_integral_series_stop_at_requested_digits():
    for digits in (10, 40, 200):
        beta = beta_exp_integral(4, digits)
        kernel = exp_rational_integral(3, 7, digits)
        for result in (beta, kernel):
            assert isinstance(result.value, Fraction) and isinstance(result.tail_bound, Fraction)
            assert 0 < result.tail_bound * 10**digits < result.value
    # More digits need more terms.
    assert beta_exp_integral(4, 200).terms_used > beta_exp_integral(4, 40).terms_used


# Arguments for the float oracles: real x from -1 to -300, large |z|, complex
# z with Re z < 0, and points 10^-10 from the cut.
NEAR_CUT = (ComplexParam(Fraction(-3), Fraction(1, 10**10)),
            ComplexParam(Fraction(-3), Fraction(-1, 10**10)))
REAL_NEGATIVE = (-1, Fraction(-7, 2), -50, -100, -200, -300)
LEFT_COMPLEX = (ComplexParam(Fraction(-1), Fraction(2)), ComplexParam(Fraction(-20), Fraction(5)),
                ComplexParam(Fraction(-45, 2), Fraction(-3, 4)))
LARGE = (150, 300, ComplexParam(Fraction(0), Fraction(60)))


def _mp_value(x):
    return ComplexParam.coerce(x).to_mp()


def _assert_relative(value, reference, digits):
    assert abs(value - reference) <= mpf(10) ** (1 - digits) * abs(reference)


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("x", REAL_NEGATIVE + LEFT_COMPLEX + LARGE + NEAR_CUT, ids=str)
def test_exp_series_against_mp_exp(x, digits):
    value = exp_series(x, digits).value
    with mp.workdps(digits + 20):
        _assert_relative(value, mp.exp(_mp_value(x)), digits)


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("b, z", [(b, z) for b in (2, Fraction(3, 2), ComplexParam(Fraction(3), Fraction(1)))
                                  for z in REAL_NEGATIVE + LEFT_COMPLEX + LARGE]
                         + [(z + 1, z) for z in NEAR_CUT], ids=str)
def test_hyp_1f1_against_mp_hyp1f1(b, z, digits):
    value = hyp_1f1(b, z, digits).value
    with mp.workdps(digits + 20):
        _assert_relative(value, mp.hyp1f1(1, _mp_value(b), _mp_value(z)), digits)


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("z", (-1, Fraction(-7, 2), Fraction(-101, 2), Fraction(-201, 2), 100)
                         + LEFT_COMPLEX + NEAR_CUT, ids=str)
def test_hyp_2f2_against_mp_hyp2f2(z, digits):
    # Lemma 2.3's 2F2(1, 1; 3, z + 2; z), which has a pole at every integer
    # z <= -2, and a rational-exponent 2F2.
    z = ComplexParam.coerce(z)
    for params in ((1, 1, 3, z + 2), (Fraction(3, 2), 1, 3, Fraction(7, 2))):
        value = hyp_2f2(*params, z, digits).value
        with mp.workdps(digits + 20):
            reference = mp.hyp2f2(*(_mp_value(p) for p in params), _mp_value(z))
            _assert_relative(value, reference, digits)


@pytest.mark.parametrize("digits", (30, 100))
@pytest.mark.parametrize("z", (Fraction(1, 2), 40, 150) + LEFT_COMPLEX + NEAR_CUT, ids=str)
def test_inc_gamma_normalized_against_mp_gammainc(z, digits):
    value = inc_gamma_normalized(z, digits).value
    with mp.workdps(digits + 40):
        zv = _mp_value(z)
        reference = mp.gammainc(zv, 0, zv) / (zv ** (zv - 1) * mp.exp(-zv))
        _assert_relative(value, reference, digits)


def test_negative_real_arguments_sum_positive_terms():
    # 1/e^(-x) and Kummer's form cost what the positive argument costs; an
    # alternating sum at x = -300 would run on until its terms fell about 130
    # digits further.  Kummer's form sums each factor to one digit more.
    assert exp_series(-300, 30).terms_used == exp_series(300, 30).terms_used
    kummer = hyp_1f1(2, -300, 30).terms_used
    assert kummer == exp_series(300, 31).terms_used + hyp_sum((1,), (2, 1), 300, 31).terms_used


def test_guard_widens_until_it_covers_the_cancellation():
    # e^(400i) has modulus 1 and terms up to 10^172.  The exact sum loses
    # nothing to that cancellation; the one rounding at the end keeps 5 + 15
    # digits of the modulus-1 value.
    value = exp_series(ComplexParam(Fraction(0), Fraction(400)), 5).value
    with mp.workdps(200):
        _assert_relative(value, mp.exp(400j), 5)


def test_divergent_series_exhausts_its_term_budget():
    # sum k! z^k: no term ratio ever falls below 1/2, so the budget ends it.
    with pytest.raises(PrecisionError, match="series failed to converge"):
        hyp_sum((1, 1), (1,), 1, 10)


# Points for hyp_sum's exact summer.  With Re z < 0 and Im z != 0 the terms
# are far larger than their sum; an exact sum loses no digits to that.
RING_Z = (ComplexParam(-20, 3), ComplexParam(-40, Fraction(1, 4)),
          ComplexParam(Fraction(-5, 2), Fraction(3, 4)), ComplexParam(Fraction(-3, 2), -2),
          30, ComplexParam(45, 1), ComplexParam(0, 25), ComplexParam(-60, Fraction(1, 2)))
RING_B = (Fraction(1, 2), ComplexParam(1, 1), 3)


def _within_tail(result, reference, digits):
    # The truncation is certified by tail_bound; the one rounding at
    # digits + 15 working digits is far below 10^-(digits+8).
    gap = abs(result.value - reference)
    assert result.tail_bound < mpf(10) ** -digits * abs(result.value)
    assert gap <= result.tail_bound + mpf(10) ** -(digits + 8) * abs(result.value)
    assert gap <= mpf(10) ** -digits * abs(reference)


@pytest.mark.parametrize("digits", (10, 60))
@pytest.mark.parametrize("z", RING_Z, ids=str)
def test_fixed_point_sums_match_mpmath_within_their_tail(z, digits):
    z = ComplexParam.coerce(z)
    for b in RING_B:
        b = ComplexParam.coerce(b)
        result = hyp_1f1(b, z, digits)
        with mp.workdps(digits + 40):
            _within_tail(result, mp.hyp1f1(1, b.to_mp(), z.to_mp()), digits)
    result = hyp_2f2(1, 1, 3, z + 2, z, digits)
    with mp.workdps(digits + 40):
        _within_tail(result, mp.hyp2f2(1, 1, 3, (z + 2).to_mp(), z.to_mp()), digits)
    # hyp_sum directly, with the 1 for k! appended: 1F1(b - 1; b; z) of Kummer's form.
    b = ComplexParam(2, 1)
    result = hyp_sum((b - 1,), (b, 1), z, digits)
    with mp.workdps(digits + 40):
        _within_tail(result, mp.hyp1f1((b - 1).to_mp(), b.to_mp(), z.to_mp()), digits)


@pytest.mark.parametrize("b, digits", [(Fraction(-21, 2), 6), (Fraction(-41, 2), 18),
                                       (Fraction(-61, 2), 33)], ids=str)
def test_stop_waits_for_a_certified_tail(b, digits):
    # In 1F1(1; b; 1) the ratio 1/(b + k) is below 1/2 and the terms fall
    # below 10^-digits of the sum before k ~ -b, where they grow again; no
    # stop comes before Re b + k > 0 and rho_k certifies the rest.
    result = hyp_1f1(b, 1, digits)
    with mp.workdps(digits + 40):
        _within_tail(result, mp.hyp1f1(1, mpf(b.numerator) / b.denominator, 1), digits)


def test_a_term_keeps_its_digits_through_a_deep_dip():
    # 1F1(1; -797/2; 200): the terms fall to about 10^-33 near k = 199, far
    # below 10^-10 of the sum, then rise to about 10^140 past the pole near
    # k = 398; no stop comes before Re b + k > 0, and the exact terms lose
    # nothing through the dip.
    result = hyp_1f1(Fraction(-797, 2), 200, 10)
    with mp.workdps(60):
        _within_tail(result, mp.hyp1f1(1, mpf(-797) / 2, 200), 10)
    # The same dip in a complex sum.
    z = ComplexParam(200, 1)
    result = hyp_1f1(Fraction(-797, 2), z, 10)
    with mp.workdps(60):
        _within_tail(result, mp.hyp1f1(1, mpf(-797) / 2, z.to_mp()), 10)


@pytest.mark.parametrize("z", (Fraction(53, 4), 29, ComplexParam(1, Fraction(13, 2))), ids=str)
def test_low_digit_lemma23_sums_run_to_a_certified_tail(z):
    # At 5 digits Lemma 2.3's 2F2 has a term below 10^-5 of the sum before
    # rho_k, loose by its pairing, certifies the terms after it.
    z = ComplexParam.coerce(z)
    result = hyp_2f2(1, 1, 3, z + 2, z, 5)
    with mp.workdps(50):
        _within_tail(result, mp.hyp2f2(1, 1, 3, (z + 2).to_mp(), z.to_mp()), 5)


@pytest.mark.parametrize("digits", (5, 20))
@pytest.mark.parametrize("a", (8, ComplexParam(6, 4)), ids=str)
def test_tail_bound_pairs_each_numerator_with_a_denominator(a, digits):
    # |a + k| > |b + k| here, so rho_k needs its 1 + |a - b|/(Re b + k) factor.
    a, b = ComplexParam.coerce(a), ComplexParam(Fraction(1, 2))
    for z in (5, ComplexParam(0, 6), ComplexParam(Fraction(9, 2), 1)):
        z = ComplexParam.coerce(z)
        result = hyp_sum((a,), (b, 1), z, digits)
        with mp.workdps(digits + 40):
            _within_tail(result, mp.hyp1f1(a.to_mp(), b.to_mp(), z.to_mp()), digits)


def test_growing_terms_are_rescaled():
    # Terms of e^5000 reach 10^2170; the exact sum is cut to its leading bits
    # once, before its one rounding, and the cut is inside tail_bound.
    result = hyp_sum((), (1,), 5000, 30)
    with mp.workdps(60):
        _within_tail(result, mp.exp(5000), 30)


def test_complex_terminating_series_is_exact():
    # sum_k (-3)_k z^k/k! = (1 - z)^3; the zero ratio at k = 3 ends the sum.
    result = hyp_sum((-3,), (1,), ComplexParam(2, 1), 20)
    assert result.value == mpc(2, -2)
    assert (result.terms_used, result.tail_bound) == (5, 0)
    # 1 - 3/2 + 1/2 - 1/24: the partial sum is exactly 0 at a stop candidate.
    result = hyp_sum((-3,), (2, 1), 1, 20)
    with mp.workdps(60):
        _within_tail(result, mpf(-1) / 24, 20)
    # (1 - z)^40 = 3^-40 at z = 1 + i/3, from terms up to 10^12: 31 digits
    # cancel, and the exact sum loses none of them.
    result = hyp_sum((-40,), (1,), ComplexParam(1, Fraction(1, 3)), 20)
    with mp.workdps(60):
        _within_tail(result, mpf(3) ** -40, 20)


def _within_seconds(seconds, fn, *args):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_terminating_series_with_exact_sum_zero_returns_zero():
    # 1 - 4 + 36/7 - 18/7 + 3/7 = 0.  The exact sum is 0, so the value is 0
    # and the terminated series omits nothing.
    result = _within_seconds(5, hyp_2f2, 1, -4, 6, 1, 6, 8)
    assert (result.value, result.tail_bound) == (0, 0)
    assert type(result.value) is type(mpf(0))


def test_terminating_series_with_a_tiny_sum_keeps_its_digits():
    # At z = 6 + 10^-6 the same four terms leave about 4.8e-8, which the
    # exact sum keeps to full relative precision.
    z = 6 + Fraction(1, 10**6)
    exact = sum(Fraction(pochhammer(-4, k), pochhammer(6, k) * factorial(k)) * z**k
                for k in range(5))
    result = _within_seconds(5, hyp_2f2, 1, -4, 6, 1, z, 8)
    assert result.tail_bound == 0
    with mp.workdps(40):
        assert abs(result.value - to_mp(exact)) <= mpf(10) ** -8 * abs(to_mp(exact))


def test_value_types_follow_the_arguments():
    for value in (exp_series(2, 20).value, exp_series(-300, 20).value,
                  hyp_1f1(3, Fraction(-5, 2), 20).value, hyp_2f2(1, 1, 3, 4, 2, 20).value):
        assert type(value) is type(mpf(1))
    for value in (exp_series(ComplexParam(0, 2), 20).value,
                  hyp_1f1(ComplexParam(1, 1), 2, 20).value,
                  hyp_2f2(1, 1, 3, ComplexParam(2, 1), -1, 20).value):
        assert type(value) is type(mpc(1))


def test_kummer_product_meets_its_digit_target():
    # Kummer's form sums e^z and 1F1(b - 1; b; -z) to one digit more each, so
    # that their product, under its composed bound, meets the 10 digits asked.
    b, z = Fraction(-115, 2), Fraction(-141, 4)
    result = hyp_1f1(b, z, 10)
    with mp.workdps(50):
        reference = mp.hyp1f1(1, to_mp(b), to_mp(z))
        gap = abs(result.value - reference)
        assert gap <= result.tail_bound
        assert gap < mpf(10) ** -10 * abs(reference)


def _random_series(rng, count, z_range, digits_choices):
    """Seeded (kind, parameters, z, digits): 1F1(1; b; z), 2F2 and hyp_sum's
    1F1(a; b; z), with quarter-valued parts, a third of the parameters and
    two fifths of the z non-real, and no pole among the lower parameters."""
    quarter = lambda lo, hi: Fraction(rng.randint(4 * lo, 4 * hi), 4)
    param = lambda lo, hi: ComplexParam(quarter(lo, hi), quarter(-5, 5) if rng.random() < 0.3 else 0)
    points = []
    while len(points) < count:
        z = ComplexParam(quarter(-z_range, z_range), quarter(-10, 10) if rng.random() < 0.4 else 0)
        kind = rng.choice(("1f1", "2f2", "sum"))
        params = {"1f1": lambda: (param(-30, 30),), "sum": lambda: (param(-30, 30), param(-30, 30)),
                  "2f2": lambda: tuple(param(-10, 10) for _ in range(4))}[kind]()
        if not any(x.is_nonpositive_integer for x in params[len(params) // 2:]):
            points.append((kind, params, z, rng.choice(digits_choices)))
    return points


def _series_and_reference(kind, params, z, digits):
    if kind == "1f1":
        return hyp_1f1(params[0], z, digits), lambda: mp.hyp1f1(1, params[0].to_mp(), z.to_mp())
    if kind == "2f2":
        return hyp_2f2(*params, z, digits), lambda: mp.hyp2f2(*(x.to_mp() for x in params), z.to_mp())
    return (hyp_sum((params[0],), (params[1], 1), z, digits),
            lambda: mp.hyp1f1(params[0].to_mp(), params[1].to_mp(), z.to_mp()))


def test_random_sums_lie_within_their_bound_of_mpmath():
    # The value omits at most tail_bound and is rounded once at digits + 15.
    misses = []
    for kind, params, z, digits in _random_series(random.Random(26), 320, 100, (10, 30, 80)):
        result, reference = _series_and_reference(kind, params, z, digits)
        with mp.workdps(digits + 15):
            rounding = mp.ldexp(abs(result.value), 1 - mp.prec)
        with mp.workdps(digits + 40):
            if abs(result.value - reference()) > result.tail_bound + rounding:
                misses.append((kind, [str(x) for x in params], str(z), digits))
    assert not misses


def _reference_hyp_sum(a, b, z, digits):
    """hyp_sum's stop on exact Gaussian rationals, from k = 0: the partial sum
    and its terms_used, or the exact sum of a terminated series."""
    a, b, z = [ComplexParam.coerce(x) for x in a], [ComplexParam.coerce(x) for x in b], ComplexParam.coerce(z)
    rho = _ratio_bound(gaussian(z), [gaussian(x) for x in a], [gaussian(x) for x in b])
    norm = lambda x: x.re * x.re + x.im * x.im
    term = total = ComplexParam(1)
    for k in count():
        numerator = z * prod(x + k for x in a)
        if numerator == 0:
            return total, k + 2
        bound = rho(k)
        if bound:
            u, v = bound
            if norm(term) * (v * 10**digits) ** 2 < norm(total) * (v - u) ** 2:
                return total, k + 1
        term = term * numerator / prod(y + k for y in b)
        total += term


@pytest.mark.parametrize("a, b, z, digits", [
    ((), (Fraction(-41, 2),), Fraction(1, 4), 5),  # the stop comes at k0 itself
    ((), (Fraction(-21, 2), 1), ComplexParam(Fraction(1, 2), Fraction(1, 3)), 8),
    ((-6,), (Fraction(3, 2), 1), Fraction(-5, 2), 30),  # terminates
    # At the stop the bit lengths leave one bit of slack, real and Gaussian.
    ((), (Fraction(-13, 2),), -15, 10),
    ((Fraction(71, 4),), (ComplexParam(Fraction(5, 2), Fraction(-5, 2)), 1), ComplexParam(-15, Fraction(5, 2)), 5),
    ((), (1,), 0, 10),
] + [{"1f1": ((), params), "sum": (params[:1], params[1:] + (1,)), "2f2": (params[:2], params[2:] + (1,))}[kind]
     + (z, digits) for kind, params, z, digits in _random_series(random.Random(1), 60, 30, (5, 10, 30))],
    ids=str)
def test_stop_is_the_first_index_the_bound_allows(a, b, z, digits):
    result = hyp_sum(a, b, z, digits)
    total, terms = _reference_hyp_sum(a, b, z, digits)
    assert result.terms_used == terms
    with mp.workdps(digits + 15):
        rounding = mp.ldexp(abs(result.value), 1 - mp.prec)
    with mp.workdps(digits + 40):
        assert abs(result.value - total.to_mp()) <= rounding
