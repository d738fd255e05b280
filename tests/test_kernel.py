import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from cfx.kernel import (
    ComplexParam,
    DomainError,
    ParameterError,
    agrees,
    arg_in_cut_plane,
    factorial,
    gaussian,
    pochhammer,
)


def test_pochhammer_basics():
    assert pochhammer(Fraction(5, 7), 0) == 1
    assert pochhammer(2, 3) == 24
    assert pochhammer(1, 5) == 120


def test_pochhammer_rational_is_exact():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


def test_pochhammer_rejects_negative_k():
    with pytest.raises(ParameterError):
        pochhammer(2, -1)


@given(
    a=st.fractions(min_value=-50, max_value=50, max_denominator=9),
    j=st.integers(min_value=0, max_value=50),
    k=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_pochhammer_addition_formula(a, j, k):
    assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    # oracle: direct product
    prod = 1
    for i in range(1, 21):
        prod *= i
    assert factorial(20) == prod == 2432902008176640000
    with pytest.raises(ParameterError):
        factorial(-1)


@given(
    a=st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9),
    b=st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9),
)
@settings(max_examples=100, deadline=None)
def test_big_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a


def test_high_prec_real_two_precision_agreement():
    # exp(1) summed at 30 and at 40 digits agrees to 28 digits
    from cfx.oracle import exp_series

    lo = exp_series(1, 30).value
    hi = exp_series(1, 40).value
    assert abs(mpf(lo) - mpf(hi)) < mpf(10) ** -28


def test_arg_in_cut_plane():
    assert arg_in_cut_plane(ComplexParam(Fraction(1))) is True
    assert arg_in_cut_plane(ComplexParam(Fraction(-2))) is False
    assert arg_in_cut_plane(ComplexParam(Fraction(-1), Fraction(1))) is True
    with pytest.raises(DomainError):
        arg_in_cut_plane(ComplexParam(Fraction(0)))


def test_arg_in_cut_plane_near_axis():
    assert arg_in_cut_plane(ComplexParam(Fraction(-1), Fraction(1, 10**30))) is False
    assert arg_in_cut_plane(ComplexParam(Fraction(-1), Fraction(1, 10**5))) is True


def test_agrees_compares_fractions_exactly():
    a = Fraction(1, 3)
    b = a + Fraction(1, 10**41)
    assert agrees(a, b, 40)
    assert agrees(a, b, 41)  # |a - b| = 10^-41 max(1, |a|) exactly
    assert not agrees(a, b, 42)
    assert agrees(3, 3, 1000) and not agrees(Fraction(10**50 + 1), 10**50, 51)


def test_agrees_rounds_a_fraction_to_the_digits_it_decides():
    # At the default 15 digits a Fraction would round to about 16 digits.
    with mp.workdps(60):
        third = mpf(1) / 3
    assert agrees(Fraction(1, 3), third, 55)
    assert not agrees(Fraction(1, 3), mpf(1) / 3, 20)


def test_agrees_on_1000_digit_mpc_at_default_precision():
    with mp.workdps(1000):
        a = mpc(mp.pi, mp.e)
        b = a * (1 + mpf(10) ** -990)
    assert mp.dps == 15
    assert agrees(a, b, 985)
    assert not agrees(a, b, 995)


def test_complex_param_parsing():
    z = ComplexParam.parse("2+3i")
    assert z.re == 2 and z.im == 3
    z = ComplexParam.parse("-3+0i")
    assert z.re == -3 and z.im == 0
    z = ComplexParam.parse("-1.5-2.25i")
    assert z.re == Fraction(-3, 2) and z.im == Fraction(-9, 4)
    assert ComplexParam.parse("7").is_real
    with pytest.raises(ParameterError):
        ComplexParam.parse("2 + 3i")
    with pytest.raises(ParameterError):
        ComplexParam.parse("i")


def test_complex_param_roundtrip_str():
    assert str(ComplexParam.parse("2+3i")) == "2+3i"
    assert str(ComplexParam.parse("-3")) == "-3"


_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_gaussian = st.builds(ComplexParam, _rationals, _rationals)


@given(a=_gaussian, b=_gaussian, c=_gaussian, r=_rationals)
@settings(max_examples=100, deadline=None)
def test_complex_param_ring_identities(a, b, c, r):
    zero = ComplexParam(Fraction(0))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a and a + (-a) == zero
    assert (a * b).norm2() == a.norm2() * b.norm2()
    # Mixed operands act as the embedded real number r + 0i.
    rc = ComplexParam(r)
    assert a + r == r + a == a + rc
    assert a - r == a - rc and r - a == rc - a
    assert a * r == r * a == a * rc
    if b != 0:
        assert (a * b) / b == a
        assert r / b == rc / b
    if r != 0:
        assert a / r == a / rc


@given(r=_rationals)
@settings(max_examples=100, deadline=None)
def test_complex_param_real_equality_and_hash(r):
    z = ComplexParam(r)
    assert z == r and r == z and hash(z) == hash(r)
    assert z.value == r and type(z.value) is Fraction
    assert {r: "hit"}[z] == "hit"
    if r.denominator == 1:
        assert z == int(r) and hash(z) == hash(int(r))
    w = ComplexParam(r, Fraction(1, 3))
    assert w != r and w.value is w
    assert len({w, ComplexParam(r, Fraction(2, 6))}) == 1


def test_complex_param_division_with_int_parts_is_exact():
    q = ComplexParam(1, 2) / ComplexParam(3, 4)
    assert q == ComplexParam(Fraction(11, 25), Fraction(2, 25))
    assert type(q.re) is Fraction and type(q.im) is Fraction
    q = ComplexParam(3, 4) / 5
    assert q == ComplexParam(Fraction(3, 5), Fraction(4, 5))
    assert type(q.re) is Fraction and type(q.im) is Fraction
    assert str(7 / ComplexParam(1, 1)) == "7/2-7/2i"


@given(a=_gaussian)
@settings(max_examples=100, deadline=None)
def test_gaussian_clears_the_least_denominator(a):
    p, q, d = gaussian(a)
    assert d > 0 and ComplexParam(p, q) / d == a
    assert math.gcd(p, q, d) == 1  # else d / gcd would also clear a
    assert gaussian(a.re) == gaussian(ComplexParam(a.re))
    assert gaussian(-7) == (-7, 0, 1)
