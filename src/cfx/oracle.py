"""Independent series oracles.

These evaluators never touch the continued-fraction engine.  Every value is
a power series summed exactly, in one of two ways:

* the float series (``exp_series``, ``hyp_1f1``, ``hyp_2f2``, ``inc_gamma_normalized``)
  wrap one summer, :func:`hyp_sum`, which keeps the partial sum as one exact
  Gaussian-integer fraction (binary splitting for the prefix before a tail
  bound can hold, then one term at a time), stops once a certified tail bound
  is below 10^-digits of the sum, and rounds once to an mpmath value
  (1/e^(-x) and Kummer's transformation keep the terms positive for real x < 0);
* the integral series (``beta_exp_integral``, ``exp_rational_integral``)
  integrate ``e^{ct}`` term by term as exact integer series, every term over
  one running integer denominator, and stop once a certified geometric bound
  on the positive tail is below 10^-digits of the partial sum; the sum and
  the bound are reduced to ``Fraction``s once, at the end.

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
)

# The float series round at 15 digits past their target.
_EXTRA = 15


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum, the number of terms in it and a bound on what it omits.

    Both bounds are certified for truncation.  The float series give an
    ``mpf``, which also covers cutting the exact sum to its leading bits
    before it is rounded to the working precision; the rounding is not in
    it.  The exact integral series give a ``Fraction``.
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


def _quotient(num: int, den: int, prec: int) -> mpf:
    """num/den for den > 0, rounded to prec bits once, from the leading
    prec + 64 bits of each: the cut moves it by under 2^-(prec+61) of itself."""
    cn, cd = max(num.bit_length() - prec - 64, 0), max(den.bit_length() - prec - 64, 0)
    num, den = num >> cn, den >> cd
    shift = max(prec + 64 + den.bit_length() - num.bit_length(), 0)
    return mpf(((num << shift) // den, cn - cd - shift))


def hyp_sum(a, b, z, digits: int) -> SeriesResult:
    """sum_k prod_i (a_i)_k / prod_j (b_j)_k z^k; a pFq appends 1 to b for k!.

    The term ratio z prod (a_i + k) / prod (b_j + k) is an exact quotient N/D
    of Gaussian integers, taken as N conj(D)/|D|^2 (as N/D for a real D).  So
    t_k = P_k/Q_k with a Gaussian integer P_k over the running real product
    Q_k, and the partial sum is one exact S_k/Q_k.

    No stop comes before k0, the least k at which :func:`_ratio_bound` gives
    rho_k < 1: t_0 ... t_k0 are summed by binary splitting, then one term at a
    time.  The sum stops at the first k >= k0 with |t_k|/(1 - rho_k) <
    10^-digits |S_k/Q_k|, an exact test on the ints (on their squares for a
    non-real series) behind a bit-length test that it implies; the reported
    bound is |t_k| rho_k/(1 - rho_k), which the terms after t_k do not exceed.
    The series terminates, exactly, at the first N = 0.  S_k/Q_k is rounded
    once, at digits + 15 working digits, to an mpf (an mpc when z or a
    parameter is non-real).  The ratio test cannot hold before k ~ |z|, so the
    term budget grows with |z|; a sum that outruns it raises PrecisionError."""
    (zp, zq, zd), a, b = gaussian(z), [gaussian(x) for x in a], [gaussian(x) for x in b]
    cplx = bool(zq) or any(q for _, q, _ in a + b)
    # The denominators of z and of the parameters are constant factors of N/D.
    n0, d0 = prod(d for *_, d in b), zd * prod(d for *_, d in a)
    zr, zi = zp * n0, zq * n0

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

    budget = 100000 + 4 * (abs(zp) + abs(zq)) // zd
    # The first zero ratio: z = 0, or a nonpositive integer a_i.
    ends = [-p // d for p, q, d in a if not q and p <= 0 and not p % d]
    end = min(ends, default=None) if zp or zq else 0
    rho = _ratio_bound((zp, zq, zd), a, b)
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
                break
        mr, mi, d = ratio(k)
        if cplx:
            pr, pi = pr * mr - pi * mi, pr * mi + pi * mr
            si = si * d + pi
        else:
            pr *= mr
        sr = sr * d + pr
        q *= d
        k += 1
    with mp.workdps(digits + _EXTRA):
        prec = mp.prec
        value = _quotient(sr, q, prec)
        if cplx:
            value = mpc(value, _quotient(si, q, prec))
        # The cut of S and Q to their leading bits, in the bound.
        cut = max(q.bit_length(), sr.bit_length(), si.bit_length()) > prec + 64
        tail = mp.ldexp(abs(value), -prec - 60) if cut else mpf(0)
        if k == end:
            return SeriesResult(value, k + 2, tail)
        term = _quotient(pr, q, prec)
        if cplx:
            term = mpc(term, _quotient(pi, q, prec))
        return SeriesResult(value, k + 1, tail + abs(term) * u / w)
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
    if b_den.is_nonpositive_integer:
        raise ParameterError(f"b = {b_den} is a pole of 1F1")
    if not (z.is_real and z.re < 0):
        return hyp_sum((), (b_den,), z, digits)
    # Each factor to one digit more, so that their product meets digits.
    e, f = exp_series(z, digits + 1), hyp_sum((b_den - 1,), (b_den, 1), -z, digits + 1)
    with mp.workdps(digits + _EXTRA):
        tail = e.value * f.tail_bound + abs(f.value) * e.tail_bound + e.tail_bound * f.tail_bound
        return SeriesResult(e.value * f.value, e.terms_used + f.terms_used, tail)


def hyp_2f2(a1, a2, b1, b2, z, digits: int) -> SeriesResult:
    """2F2(a1, a2; b1, b2; z) = sum_k (a1)_k (a2)_k / ((b1)_k (b2)_k) z^k / k!."""
    for b in (b1, b2):
        if ComplexParam.coerce(b).is_nonpositive_integer:
            raise ParameterError(f"denominator parameter {b} is a pole of 2F2")
    return hyp_sum((a1, a2), (b1, b2, 1), z, digits)


def _certified_sum(steps, digits: int) -> SeriesResult:
    """Sum exact positive terms until the tail is below 10^-digits of the sum.

    ``steps`` yields triples (f_k, T_k, (u_k, v_k)) of positive ints: the term
    is t_k = T_k/D_k over the running denominator D_k = f_0 f_1 ... f_k, and
    t_k u_k/v_k bounds sum_{j>k} t_j.  The partial sum is kept as S_k/D_k with
    S_k = S_{k-1} f_k + T_k, and the stopping test t_k (u_k/v_k) 10^digits <
    S_k/D_k is the integer test T_k u_k 10^digits < S_k v_k, so no gcd is taken
    before the two Fractions returned.  The series below get u_k/v_k from a
    geometric majorant: if r_k < 1 bounds every ratio t_{j+1}/t_j with j >= k,
    the tail is at most t_k r_k/(1 - r_k).
    """
    scale = 10**digits
    total, den = 0, 1
    for k, (factor, term, (u, v)) in enumerate(steps):
        den *= factor
        total = total * factor + term
        if term * u * scale < total * v:
            return SeriesResult(Fraction(total, den), k + 1, Fraction(term * u, den * v))


def beta_exp_integral(n: int, digits: int) -> SeriesResult:
    """int_0^1 (1-t)^{n-1} e^{nt} dt = sum_k n^k (n-1)!/(n+k)!, exactly.

    Termwise B(k+1, n) = k!(n-1)!/(n+k)!, so t_k = n^k/D_k with
    D_k = n(n+1)...(n+k).  The term ratio n/(n+k+1) falls, so
    r_k = n/(n+k+1) and the tail after t_k is at most t_k n/(k+1).
    Scaled by n^n/(n-1)!, the sum is the Taylor remainder
    e^n - sum_{k<n} n^k/k!.
    """
    if n < 1:
        raise ParameterError("requires n >= 1")

    def steps():
        power = 1  # n^k
        k = 0
        while True:
            yield n + k, power, (n, k + 1)
            k += 1
            power *= n

    return _certified_sum(steps(), digits)


def exp_rational_integral(l: int, n: int, digits: int) -> SeriesResult:
    """int_0^1 t^{-l/n} e^{tl/n} (l(t-1) + n) dt, claimed to equal n e^{l/n}.

    Integrating e^{tl/n} term by term gives, exactly,
    sum_k (l/n)^k/k! [ln/f(k+1) + n(n-l)/f(k)] with f(j) = n(j+1) - l > 0.
    Over D_k = n^k k! f(0)...f(k+1), which absorbs both bracket denominators,
    the term numerator is l^k f(0)...f(k-1) [ln f(k) + n(n-l) f(k+1)].  The
    bracket falls in k, so every ratio t_{j+1}/t_j with j >= k is at most
    r_k = (l/n)/(k+1), and the tail after t_k is at most t_k l/f(k).
    """
    if not (1 <= l < n):
        raise ParameterError("requires 1 <= l < n")

    def steps():
        f = lambda j: n * (j + 1) - l
        lead = 1  # l^k f(0)...f(k-1)
        factor = f(0) * f(1)  # D_0
        k = 0
        while True:
            yield factor, lead * (l * n * f(k) + n * (n - l) * f(k + 1)), (l, f(k))
            lead *= l * f(k)
            k += 1
            factor = n * k * f(k + 1)

    return _certified_sum(steps(), digits)
