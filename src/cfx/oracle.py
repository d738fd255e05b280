"""Independent series oracles.

These evaluators never touch the continued-fraction engine.  Every value is
a hypergeometric series summed by one exact summer, :func:`_exact_sum`, which
keeps the partial sum as one exact Gaussian-integer fraction (binary splitting
for the prefix before a tail bound can hold, then one term at a time) and
stops once a certified tail bound is below 10^-digits of the sum.  The sum is

* rounded once to an mpmath value by :func:`hyp_sum`, which ``exp_series``,
  ``hyp_1f1``, ``hyp_2f2`` and ``inc_gamma_normalized`` wrap (1/e^(-x) and
  Kummer's transformation keep the terms positive for real x < 0), or
* reduced once to a ``Fraction`` value and tail bound by the two integral
  representations, ``beta_exp_integral`` (a 1F1) and ``exp_rational_integral``
  (a 2F2).

They are the ground truth the fraction families are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from mpmath import mp, mpc, mpf

# Nothing in cfx integrates numerically.  The name stays importable because
# benchmarks/tracing.py wraps ``oracle.quad`` to count quadrature calls.
from mpmath import quad  # noqa: F401

from .kernel import (
    ComplexParam,
    ParameterError,
    PrecisionError,
    Scalar,
    cut_plane_point,
    gaussian,
    round_quotient,
)

# The float series round at 15 digits past their target.
_EXTRA = 15


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum, the number of terms in it and a bound on what it omits.

    The bound is certified for truncation.  It is an ``mpf`` for the rounded
    series, and then also covers cutting the exact sum to its leading bits but
    not its one rounding, or a ``Fraction`` for the exact integral series.
    """

    value: Scalar
    terms_used: int
    tail_bound: Scalar


def _ceil_sqrt(x: int) -> int:
    r = isqrt(x)
    return r + (r * r < x)


def _ratio_bound(z, a, b):
    """k -> (u, v) with u < v and every term ratio |t_{j+1}/t_j|, j >= k, at
    most u/v; None where that bound does not hold or is not below 1.

    All arguments are (p, q, d) triples.  Pairing a_i with b_i, |a_i + k| <=
    |b_i + k| + |a_i - b_i| and |b_j + k| >= Re b_j + k give rho_k = |z|
    prod_i (1 + |a_i - b_i|/(Re b_i + k)) prod_{j>p} 1/(Re b_j + k) once every
    Re b_j + k > 0; it does not increase with k.  |z| and |a_i - b_i| are
    rounded up, so rho_k is an exact upper bound.  With more a than b there is
    no bound."""
    if len(a) > len(b):
        return lambda k: None
    zp, zq, zd = z
    cz = _ceil_sqrt(zp * zp + zq * zq)
    pairs = [(da, pb, db, _ceil_sqrt((pa * db - pb * da) ** 2 + (qa * db - qb * da) ** 2))
             for (pa, qa, da), (pb, qb, db) in zip(a, b)]
    rest = b[len(a):]

    def rho(k: int):
        u, v = cz, zd
        # 1 + c/(da (Re b + k)) = (da r + c)/(da r) with r = db (Re b + k).
        for da, pb, db, c in pairs:
            r = pb + k * db
            if r <= 0:
                return None
            u, v = u * (da * r + c), v * da * r
        for pb, _, db in rest:
            r = pb + k * db
            if r <= 0:
                return None
            u, v = u * db, v * r
        return (u, v) if u < v else None

    return rho


def _least(holds, last: int) -> int:
    """The least k <= last with holds(k), or last if there is none; holds(k)
    implies holds(k + 1).  Doubling, then bisection."""
    if holds(0):
        return 0
    lo, hi = 0, 1
    while hi < last and not holds(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _split(ratios, lo: int, hi: int):
    """Binary splitting over ratios[lo:hi], each (mr, mi, q) for (mr + i mi)/q:
    (pr, pi, q, tr, ti) with (pr + i pi)/q their product and (tr + i ti)/q the
    sum of their prefix products (Haible & Papanikolaou 1998)."""
    if hi - lo == 1:
        mr, mi, q = ratios[lo]
        return mr, mi, q, mr, mi
    mid = (lo + hi) // 2
    ar, ai, aq, atr, ati = _split(ratios, lo, mid)
    br, bi, bq, btr, bti = _split(ratios, mid, hi)
    return (ar * br - ai * bi, ar * bi + ai * br, aq * bq,
            atr * bq + ar * btr - ai * bti, ati * bq + ar * bti + ai * btr)


def _exact_sum(a, b, z, digits: int):
    """sum_k prod_i (a_i)_k / prod_j (b_j)_k z^k, exactly, for z and parameters
    given as kernel.gaussian triples (p, q, d), with no b_j a nonpositive integer.

    The term ratio z prod (a_i + k) / prod (b_j + k) is an exact quotient N/D
    of Gaussian integers, taken as N conj(D)/|D|^2 (N/D, on plain ints for a
    real series), so t_k = P_k/Q_k over the running real product Q_k and the
    partial sum is one exact S_k/Q_k.  No stop comes before k0, the least k at
    which :func:`_ratio_bound` gives rho_k = u/v < 1: t_0 ... t_k0 are summed
    by binary splitting, then one term at a time to the first k with
    |t_k| v/w < 10^-digits |S_k/Q_k|, w = v - u (an exact test on the ints, on
    their squares for a non-real series, behind a bit-length test it implies);
    the terms after t_k sum to at most |t_k| u/w.  The series ends exactly at
    the first N = 0.  The ratio test cannot hold before k ~ |z|, so the term
    budget grows with |z|; a sum that outruns it raises PrecisionError.
    Returns (cplx, sr, si, pr, pi, q, terms, (u, w) or None at an exact end):
    whether the series is non-real, S_k = (sr + i si)/q, t_k = (pr + i pi)/q
    and the number of terms."""
    zp, zq, zd = z
    cplx = bool(zq) or any(q for _, q, _ in a + b)
    # The denominators of z and of the parameters are constant factors of N/D.
    n0, d0 = prod(d for *_, d in b), zd * prod(d for *_, d in a)
    zr, zi = zp * n0, zq * n0

    if cplx:
        def ratio(k: int):
            nr, ni, dr, di = zr, zi, d0, 0
            for p, q, d in a:
                x = p + k * d
                nr, ni = nr * x - ni * q, nr * q + ni * x
            for p, q, d in b:
                x = p + k * d
                dr, di = dr * x - di * q, dr * q + di * x
            if di:
                return nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
            return (nr, ni, dr) if dr > 0 else (-nr, -ni, -dr)
    else:
        def ratio(k: int):
            nr, dr = zr, d0
            for p, _, d in a:
                nr *= p + k * d
            for p, _, d in b:
                dr *= p + k * d
            return (nr, 0, dr) if dr > 0 else (-nr, 0, -dr)

    budget = 100000 + 4 * (abs(zp) + abs(zq)) // zd
    # The first zero ratio: z = 0, or a nonpositive integer a_i.
    ends = [-p // d for p, q, d in a if not q and p <= 0 and not p % d]
    end = min(ends, default=None) if zp or zq else 0
    rho = _ratio_bound(z, a, b)
    k = _least(lambda j: rho(j) is not None, budget if end is None else min(end, budget))
    if k != end and rho(k) is None:
        raise PrecisionError("series failed to converge")
    pr, pi, q, sr, si = _split([ratio(j) for j in range(k)], 0, k) if k else (1, 0, 1, 0, 0)
    sr += q
    ten = 10**digits
    lead = ten.bit_length() - 2
    while k != end:
        if k > budget:
            raise PrecisionError("series failed to converge")
        # The stop implies |t_k| 10^digits < |S_k/Q_k|, so these bit lengths.
        if cplx:
            bp, bs = max(pr.bit_length(), pi.bit_length()), max(sr.bit_length(), si.bit_length())
        else:
            bp, bs = pr.bit_length(), sr.bit_length()
        if bp + lead <= bs:
            u, v = rho(k)
            vt, w = v * ten, v - u
            if (abs(pr) * vt < abs(sr) * w if not cplx else
                    (pr * pr + pi * pi) * vt * vt < (sr * sr + si * si) * w * w):
                return cplx, sr, si, pr, pi, q, k + 1, (u, w)
        mr, mi, d = ratio(k)
        if cplx:
            pr, pi = pr * mr - pi * mi, pr * mi + pi * mr
            si = si * d + pi
        else:
            pr *= mr
        sr = sr * d + pr
        q *= d
        k += 1
    return cplx, sr, si, pr, pi, q, k + 2, None


def hyp_sum(a, b, z, digits: int) -> SeriesResult:
    """sum_k prod_i (a_i)_k / prod_j (b_j)_k z^k; a pFq appends 1 to b for k!.

    :func:`_exact_sum`'s sum rounded once, at digits + 15 working digits, to an
    mpf (an mpc when z or a parameter is non-real); tail_bound is |t_k| u/w plus
    the cut of S_k and Q_k to their leading bits.  A pole b_j raises ParameterError."""
    if poles := [x for x in b if ComplexParam.coerce(x).is_nonpositive_integer]:
        raise ParameterError(f"lower parameter {poles[0]} is a pole")
    cplx, sr, si, pr, pi, q, terms, factor = _exact_sum(
        [gaussian(x) for x in a], [gaussian(x) for x in b], gaussian(z), digits)
    with mp.workdps(digits + _EXTRA):
        prec = mp.prec
        rounded = lambda re, im: (
            mpc(round_quotient(re, q, prec), round_quotient(im, q, prec)) if cplx
            else round_quotient(re, q, prec))
        value = rounded(sr, si)
        # The cut of S and Q to their leading bits, in the bound.
        cut = max(q.bit_length(), sr.bit_length(), si.bit_length()) > prec + 64
        tail = mp.ldexp(abs(value), -prec - 60) if cut else mpf(0)
        if factor:
            tail += abs(rounded(pr, pi)) * factor[0] / factor[1]
        return SeriesResult(value, terms, tail)


def exp_series(x, digits: int) -> SeriesResult:
    """exp(x) = sum x^k / k!; for real x < 0, 1/exp(-x)."""
    x = ComplexParam.coerce(x)
    if not (x.is_real and x.re < 0):
        return hyp_sum((), (1,), x, digits)
    pos = hyp_sum((), (1,), -x, digits)
    with mp.workdps(digits + _EXTRA):
        # e^(-x) lies in p +- tau, so 1/e^(-x) lies within tau/(p(p - tau)) of 1/p.
        p, tau = pos.value, pos.tail_bound
        return SeriesResult(1 / p, pos.terms_used, tau / (p * (p - tau)))


def inc_gamma_normalized(z, digits: int) -> SeriesResult:
    """gamma(z, z) / (z^{z-1} e^{-z}), the fraction families' target value.

    Equals z * sum_k z^k / (z)_{k+1} = 1F1(1; z+1; z): the power and
    exponential factors cancel, so no branch choices enter.
    """
    z = cut_plane_point(z)
    return hyp_1f1(z + 1, z, digits + 5)


def hyp_1f1(b_den, z, digits: int) -> SeriesResult:
    """1F1(1; b_den; z) = sum_k z^k / (b_den)_k; for real z < 0 it is summed
    as e^z 1F1(b_den - 1; b_den; -z) (Kummer, DLMF 13.2.39)."""
    b_den, z = ComplexParam.coerce(b_den), ComplexParam.coerce(z)
    if not (z.is_real and z.re < 0):
        return hyp_sum((), (b_den,), z, digits)
    # Each factor to one digit more, so that their product meets digits; f first, for its pole test.
    f, e = hyp_sum((b_den - 1,), (b_den, 1), -z, digits + 1), exp_series(z, digits + 1)
    with mp.workdps(digits + _EXTRA):
        tail = e.value * f.tail_bound + abs(f.value) * e.tail_bound + e.tail_bound * f.tail_bound
        return SeriesResult(e.value * f.value, e.terms_used + f.terms_used, tail)


def hyp_2f2(a1, a2, b1, b2, z, digits: int) -> SeriesResult:
    """2F2(a1, a2; b1, b2; z) = sum_k (a1)_k (a2)_k / ((b1)_k (b2)_k) z^k / k!."""
    return hyp_sum((a1, a2), (b1, b2, 1), z, digits)


def _exact_fraction(num: int, den: int, a, b, z, digits: int) -> SeriesResult:
    """num/den times a real series of :func:`_exact_sum` that does not end, in reduced Fractions."""
    _, s, _, t, _, q, terms, (u, w) = _exact_sum(a, b, z, digits)
    return SeriesResult(Fraction(num * s, den * q), terms, Fraction(num * t * u, den * q * w))


def beta_exp_integral(n: int, digits: int) -> SeriesResult:
    """int_0^1 (1-t)^{n-1} e^{nt} dt = sum_k n^k (n-1)!/(n+k)!, exactly.

    Termwise B(k+1, n) = k!(n-1)!/(n+k)!, so the sum is 1F1(1; n+1; n)/n:
    the incomplete-gamma target gamma(z,z)/(z^{z-1}e^{-z}) at z = n, over n.
    Scaled by n^n/(n-1)!, it is the Taylor remainder e^n - sum_{k<n} n^k/k!.
    """
    if n < 1:
        raise ParameterError("requires n >= 1")
    return _exact_fraction(1, n, [], [(n + 1, 0, 1)], (n, 0, 1), digits)


def exp_rational_integral(l: int, n: int, digits: int) -> SeriesResult:
    """int_0^1 t^{-l/n} e^{tl/n} (l(t-1) + n) dt, claimed to equal n e^{l/n}.

    Integrating e^{tl/n} term by term gives, exactly, with c = 1 - l/n,
    sum_k (l/n)^k/k! [l/(k+c+1) + (n-l)/(k+c)]; the bracket is
    n (k+2c)/((k+c)(k+c+1)) = 2n/(c+1) (2c+1)_k (c)_k/((2c)_k (c+2)_k), so
    the integral is 2n^2/(2n-l) 2F2(2c+1, c; 2c, c+2; l/n).
    """
    if not (1 <= l < n):
        raise ParameterError("requires 1 <= l < n")
    # 2c + 1, c; 2c, c + 2, 1 (for k!); l/n, each over n.
    return _exact_fraction(2 * n * n, 2 * n - l, [(3 * n - 2 * l, 0, n), (n - l, 0, n)],
                           [(2 * n - 2 * l, 0, n), (3 * n - l, 0, n), (1, 0, 1)], (l, 0, n), digits)
