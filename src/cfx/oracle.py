"""Independent series oracles.

These evaluators never touch the continued-fraction engine.  Every value is
a power series summed term by term, in one of two ways:

* the float series (``exp_series``, ``hyp_1f1``, ``hyp_2f2``,
  ``inc_gamma_normalized``) run in mpmath at ``_GUARD`` digits above the
  target and stop once the term ratio is below 1/2 and the term below
  10^-digits;
* the integral series (``beta_exp_integral``, ``exp_rational_integral``)
  integrate ``e^{ct}`` term by term in exact ``Fraction``s and stop once a
  certified geometric bound on the positive tail is below 10^-digits of the
  partial sum.

They are the ground truth the fraction families are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Nothing in cfx integrates numerically.  The name stays importable because
# benchmarks/tracing.py wraps ``oracle.quad`` to count quadrature calls.
from mpmath import quad  # noqa: F401

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
    """A partial sum, the number of terms in it and a bound on what it omits.

    The float series give an ``mpf`` bound; the exact integral series give a
    certified ``Fraction``.
    """

    value: Scalar
    terms_used: int
    tail_bound: Scalar


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


def _certified_sum(terms, digits: int) -> SeriesResult:
    """Sum exact positive terms until the tail is below 10^-digits of the sum.

    ``terms`` yields pairs (t_k, b_k) where b_k bounds sum_{j>k} t_j.  The
    series below get b_k from a geometric majorant: if r_k < 1 bounds every
    ratio t_{j+1}/t_j with j >= k, the tail is at most t_k r_k/(1 - r_k).
    """
    scale = 10**digits
    total = Fraction(0)
    for k, (term, tail) in enumerate(terms):
        total += term
        if tail * scale < total:
            return SeriesResult(total, k + 1, tail)


def beta_exp_integral(n: int, digits: int) -> SeriesResult:
    """int_0^1 (1-t)^{n-1} e^{nt} dt = sum_k n^k (n-1)!/(n+k)!, exactly.

    Termwise B(k+1, n) = k!(n-1)!/(n+k)!.  The term ratio n/(n+k+1) falls,
    so r_k = n/(n+k+1) and the tail after t_k is at most t_k n/(k+1).
    Scaled by n^n/(n-1)!, the sum is the Taylor remainder
    e^n - sum_{k<n} n^k/k!.
    """
    if n < 1:
        raise ParameterError("requires n >= 1")

    def terms():
        t = Fraction(1, n)
        k = 0
        while True:
            yield t, t * n / (k + 1)
            k += 1
            t = t * n / (n + k)

    return _certified_sum(terms(), digits)


def exp_rational_integral(l: int, n: int, digits: int) -> SeriesResult:
    """int_0^1 t^{-l/n} e^{tl/n} (l(t-1) + n) dt, claimed to equal n e^{l/n}.

    Integrating e^{tl/n} term by term gives, exactly,
    sum_k (l/n)^k/k! [ln/(n(k+2)-l) + n(n-l)/(n(k+1)-l)].  The bracket falls
    in k, so every ratio t_{j+1}/t_j with j >= k is at most
    r_k = (l/n)/(k+1), and the tail after t_k is at most t_k l/(n(k+1)-l).
    """
    if not (1 <= l < n):
        raise ParameterError("requires 1 <= l < n")
    z = Fraction(l, n)

    def terms():
        power = Fraction(1)  # z^k / k!
        k = 0
        while True:
            t = power * (Fraction(l * n, n * (k + 2) - l) + Fraction(n * (n - l), n * (k + 1) - l))
            yield t, t * l / (n * (k + 1) - l)
            k += 1
            power = power * z / k

    return _certified_sum(terms(), digits)
