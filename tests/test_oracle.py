from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cfx.kernel import ParameterError, factorial, to_mp
from cfx.oracle import (
    beta_exp_integral,
    exp_rational_integral,
    exp_series,
    hyp_1f1,
    hyp_2f2,
    inc_gamma_normalized,
    sigma_partial,
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
    with pytest.raises(ParameterError):
        hyp_2f2(1, 1, 0, 3, 1, 20)


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


def test_integral_series_stop_at_requested_digits():
    for digits in (10, 40, 200):
        beta = beta_exp_integral(4, digits)
        kernel = exp_rational_integral(3, 7, digits)
        for result in (beta, kernel):
            assert isinstance(result.value, Fraction) and isinstance(result.tail_bound, Fraction)
            assert 0 < result.tail_bound * 10**digits < result.value
    # More digits need more terms.
    assert beta_exp_integral(4, 200).terms_used > beta_exp_integral(4, 40).terms_used
