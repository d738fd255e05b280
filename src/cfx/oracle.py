"""Independent series and quadrature oracles.

These evaluators never touch the continued-fraction engine: every value comes
from a power series summed term by term (with a geometric tail majorant once
the term ratio drops below 1/2) or from high-precision quadrature checked by
the two-precision policy.  They are the ground truth the fraction families
are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import exp as mp_exp
from mpmath import mp, mpf, power, quad

from .kernel import (
    ComplexParam,
    DomainError,
    ParameterError,
    PrecisionError,
    Scalar,
    arg_in_cut_plane,
    pochhammer,
    to_mp,
)

_GUARD = 15


@dataclass(frozen=True)
class SeriesResult:
    value: Scalar
    terms_used: int
    tail_bound: mpf


def _is_nonpositive_integer(x) -> bool:
    x = ComplexParam.coerce(x) if isinstance(x, (int, Fraction, complex, str, ComplexParam)) else x
    if isinstance(x, ComplexParam):
        return x.is_real and x.re <= 0 and x.re.denominator == 1
    return x.imag == 0 and x.real <= 0 and x.real == int(x.real)


def _sum_series(term_iter, digits: int) -> SeriesResult:
    """Sum terms until |t_k| < 10^-digits with term ratio < 1/2.

    Once |t_{k+1}| <= |t_k|/2 the remaining tail is at most |t_k| by the
    geometric majorant, so |t_k| itself is reported as the tail bound.
    """
    threshold = mpf(10) ** (-digits)
    total = None
    prev_abs = None
    k = 0
    for term in term_iter:
        total = term if total is None else total + term
        t_abs = abs(term)
        if prev_abs is not None and t_abs <= prev_abs / 2 and t_abs < threshold:
            return SeriesResult(total, k + 1, t_abs)
        prev_abs = t_abs
        k += 1
        if k > 100000:
            raise PrecisionError("series failed to converge")


def exp_series(x, digits: int) -> SeriesResult:
    """exp(x) = sum x^k / k!."""
    with mp.workdps(digits + _GUARD):
        xv = to_mp(ComplexParam.coerce(x).to_mp() if isinstance(x, (str, complex)) else x)

        def terms():
            t = mpf(1)
            k = 0
            while True:
                yield t
                k += 1
                t = t * xv / k

        return _sum_series(terms(), digits)


def lower_inc_gamma(s, x, digits: int) -> SeriesResult:
    """gamma(s, x) = x^s e^{-x} sum_k x^k / (s)_{k+1}, principal branch x^s."""
    s = ComplexParam.coerce(s)
    x = ComplexParam.coerce(x)
    if _is_nonpositive_integer(s):
        raise ParameterError(f"s = {s} is a non-positive integer")
    if x == 0 or not arg_in_cut_plane(x):
        raise DomainError(f"x = {x} is not in the cut plane")
    with mp.workdps(digits + _GUARD):
        sv, xv = s.to_mp(), x.to_mp()

        def terms():
            t = mpf(1) / sv
            k = 0
            while True:
                yield t
                k += 1
                t = t * xv / (sv + k)

        inner = _sum_series(terms(), digits + 5)
        value = power(xv, sv) * mp_exp(-xv) * inner.value
        return SeriesResult(value, inner.terms_used, inner.tail_bound)


def inc_gamma_normalized(z, digits: int) -> SeriesResult:
    """gamma(z, z) / (z^{z-1} e^{-z}), the fraction families' target value.

    Equals z * sum_k z^k / (z)_{k+1}: the power and exponential factors
    cancel, so no branch choices enter.
    """
    z = ComplexParam.coerce(z)
    if not arg_in_cut_plane(z):
        raise DomainError(f"z = {z} is not in the cut plane")
    with mp.workdps(digits + _GUARD):
        zv = z.to_mp()

        def terms():
            t = zv / zv  # one, in the right type
            k = 0
            while True:
                yield t
                k += 1
                t = t * zv / (zv + k)

        inner = _sum_series(terms(), digits + 5)
        return SeriesResult(inner.value, inner.terms_used, inner.tail_bound)


def hyp_1f1(b_den, z, digits: int) -> SeriesResult:
    """1F1(1; b_den; z) = sum_k z^k / (b_den)_k (numerator parameter 1)."""
    b_den = ComplexParam.coerce(b_den)
    if _is_nonpositive_integer(b_den):
        raise ParameterError(f"b = {b_den} is a pole of 1F1")
    z = ComplexParam.coerce(z)
    with mp.workdps(digits + _GUARD):
        bv, zv = b_den.to_mp(), z.to_mp()

        def terms():
            t = mpf(1)
            k = 0
            while True:
                yield t
                t = t * zv / (bv + k)
                k += 1

        return _sum_series(terms(), digits)


def hyp_2f2(a1, a2, b1, b2, z, digits: int) -> SeriesResult:
    """2F2(a1, a2; b1, b2; z) = sum_k (a1)_k (a2)_k / ((b1)_k (b2)_k) z^k / k!."""
    for b in (b1, b2):
        if _is_nonpositive_integer(b):
            raise ParameterError(f"denominator parameter {b} is a pole of 2F2")
    vals = [ComplexParam.coerce(v) for v in (a1, a2, b1, b2, z)]
    with mp.workdps(digits + _GUARD):
        a1v, a2v, b1v, b2v, zv = (v.to_mp() for v in vals)

        def terms():
            t = mpf(1)
            k = 0
            while True:
                yield t
                t = t * (a1v + k) * (a2v + k) / ((b1v + k) * (b2v + k)) * zv / (k + 1)
                k += 1

        return _sum_series(terms(), digits)


def sigma_partial(param, depth: int) -> Fraction:
    """Exact partial sum Sigma_l of the tail-product series.

    ``param`` is an integer n (the integer-power case, with the sum equal to
    the 2F2(1,1;3,n+2;n) partial sum) or a pair (l, n) with 1 <= l < n (the
    rational case, z = l/n, matching 2F2((n-1)z+1, 1; nz+2, (n-1)z+3; z)).
    Each term is computed both as the product prod (b_j + t_j)/(-t_j) and as
    the hypergeometric term, and the two are asserted equal.
    """
    from .kernel import factorial

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


def quad_two_precision(make_integrand, a, b, digits: int):
    """Quadrature at two precisions; raises if the runs disagree.

    ``make_integrand`` is called under each precision so any embedded
    constants are rebuilt at the ambient dps.
    """
    with mp.workdps(digits + _GUARD):
        lo = quad(make_integrand(), [a, b])
    with mp.workdps(digits + 2 * _GUARD):
        hi = quad(make_integrand(), [a, b])
        if abs(hi - lo) > mpf(10) ** (-(digits - 2)) * max(1, abs(hi)):
            raise PrecisionError(f"quadrature runs disagree at {digits} digits")
    return hi


def taylor_remainder(n: int, digits: int) -> SeriesResult:
    """Both sides of R_n = (n^n/(n-1)!) int_0^1 (1-t)^{n-1} e^{nt} dt
    = e^n - sum_{k<n} n^k/k!; asserts their agreement and returns the value.
    """
    if n < 1:
        raise ParameterError("taylor_remainder requires n >= 1")
    from .kernel import factorial

    def make_integrand():
        nv = mpf(n)
        return lambda t: (1 - t) ** (n - 1) * mp_exp(nv * t)

    integral = quad_two_precision(make_integrand, 0, 1, digits)
    with mp.workdps(digits + _GUARD):
        integral_side = mpf(n) ** n / factorial(n - 1) * integral
        series = exp_series(n, digits + 5)
        partial = sum(Fraction(n**k, factorial(k)) for k in range(n))
        series_side = series.value - to_mp(partial)
        if abs(integral_side - series_side) > mpf(10) ** (-(digits - 2)) * max(
            1, abs(series_side)
        ):
            raise PrecisionError(
                f"Taylor remainder sides disagree at n={n}: {integral_side} vs {series_side}"
            )
        return SeriesResult(series_side, series.terms_used, series.tail_bound)


def exp_rational_integral(l: int, n: int, digits: int):
    """int_0^1 t^{-l/n} e^{t l/n} (l(t-1) + n) dt, claimed to equal n e^{l/n}.

    The endpoint singularity t^{-l/n} is removed by the substitution
    t = u^{n/(n-l)}, after which the integrand is smooth on [0, 1].
    """
    if not (1 <= l < n):
        raise ParameterError("requires 1 <= l < n")

    def make_integrand():
        p = mpf(n) / (n - l)
        zl = mpf(l) / n

        def f(u):
            t = u**p
            return p * mp_exp(zl * t) * (l * (t - 1) + n)

        return f

    return quad_two_precision(make_integrand, 0, 1, digits)


def beta_exp_integral(n: int, digits: int):
    """int_0^1 (1-t)^{n-1} e^{tn} dt (smooth; direct quadrature)."""
    if n < 1:
        raise ParameterError("requires n >= 1")

    def make_integrand():
        nv = mpf(n)
        return lambda t: (1 - t) ** (n - 1) * mp_exp(nv * t)

    return quad_two_precision(make_integrand, 0, 1, digits)
