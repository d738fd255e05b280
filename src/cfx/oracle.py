"""Independent series oracles.

These evaluators never touch the continued-fraction engine.  Every value is
a power series summed term by term, in one of two ways:

* the float series (``exp_series``, ``hyp_1f1``, ``hyp_2f2``, ``inc_gamma_normalized``)
  wrap one loop, :func:`hyp_sum`, which sums on scaled Gaussian integers, stops
  once a certified tail bound is below 10^-digits of the sum, and returns an
  mpmath value; its guard digits grow with the cancellation among its terms
  (1/e^(-x) and Kummer's transformation avoid it for real x < 0);
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
from math import ceil, isqrt, log10, prod

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
    factorial,
    gaussian,
    pochhammer,
)

_GUARD = 15
_SPARE = 7  # guard digits that cancellation may use up; the rest covers rounding


@dataclass(frozen=True)
class SeriesResult:
    """A partial sum, the number of terms in it and a bound on what it omits.

    Both bounds are certified for truncation: the float series give an
    ``mpf`` (their rounding is covered by the guard digits), the exact
    integral series a ``Fraction``.
    """

    value: Scalar
    terms_used: int
    tail_bound: Scalar


def _ceil_sqrt(x: int) -> int:
    r = isqrt(x)
    return r + (r * r < x)


def _mag(re: int, im: int) -> int:
    """mp.mag of re + i im: the bit length of the larger part, plus one when
    both parts are nonzero."""
    bits = max(abs(re), abs(im)).bit_length()
    return bits + 1 if re and im else bits


def _floor_log2(p: int, q: int) -> int:
    """floor(log2(p/q)) for positive ints p and q."""
    if p >= q:
        return (p // q).bit_length() - 1
    return -(-(-q // p) - 1).bit_length()


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


def _lift(w: int, bits: int, n_norm: int, d_norm: int) -> int:
    """A left shift of a term of ``bits`` bits after which its product with N/D
    has at least 3w/2 bits: |N/D| >= 2^((nb - db - 1)/2) for nb, db the bit
    lengths of |N|^2 and |D|^2."""
    return w + w // 2 + 2 - bits - (n_norm.bit_length() - d_norm.bit_length()) // 2


def _sums_to_zero(a, b, z, terms: int) -> bool:
    """Whether the first ``terms`` terms of the series of :func:`hyp_sum` add
    up to exactly 0, in exact Gaussian-rational arithmetic."""
    a, b = [ComplexParam.coerce(x) for x in a], [ComplexParam.coerce(x) for x in b]
    z = ComplexParam.coerce(z)
    term = total = 1
    for k in range(terms - 1):
        term = term * z * prod(x + k for x in a) / prod(y + k for y in b)
        total += term
    return total == 0


def hyp_sum(a, b, z, digits: int) -> SeriesResult:
    """sum_k prod_i (a_i)_k / prod_j (b_j)_k z^k; a pFq appends 1 to b for k!.

    The term ratio z prod (a_i + k) / prod (b_j + k) is an exact quotient N/D of
    Gaussian integers, so the sum is kept as (re, im) ints in units of
    2^(e-w), w = mp.prec at digits + guard, and the term as (re, im) ints in
    units of 2^x of those, x <= 0.  Both start at 1, which is 2^w units.  Each
    step is t <- t N conj(D) // |D|^2, on one real int while t and N conj(D)
    are real.  A quotient of under w bits is taken again from the term shifted
    left, with x lowered to match: the term keeps w bits however far it falls
    below a unit of the sum, so a later rise loses none.  Once a growing term
    passes 2^(2w), it is shifted right to w bits; x takes the shift up to 0,
    and the rest shifts the sum and is added to e.  The sum becomes an mpf (an
    mpc once a ratio was non-real) only at the end.

    The series terminates, exactly, at the first N = 0.  Otherwise it stops at
    the first |t_k| <= |t_{k-1}|/2 with |t_k| < 10^-digits |sum| (an exact
    test on the ints) whose certified tail is below 10^-digits |sum| too: with
    rho_k < 1 from :func:`_ratio_bound`, the terms after t_k sum to at most
    (|t_k| + 2^(e-w)) rho_k/(1 - rho_k), the reported bound.  A sum whose
    largest term exceeds it by more digits than the guard can spare is redone
    with the guard raised by the digits lost, until it covers them; so is a
    sum of under 10^(digits+1) units once a term falls below one unit.  A
    terminated series is not redone when its exact terms cancel
    (:func:`_sums_to_zero`): no guard would cover that loss, since the sum
    left is all rounding, so the value is 0 with tail bound 0.  The ratio
    test cannot hold before k ~ 2|z|, so the term budget grows with |z|; a
    sum that outruns it raises PrecisionError."""
    params = a, b, z
    (zp, zq, zd), a, b = gaussian(z), [gaussian(x) for x in a], [gaussian(x) for x in b]
    # The denominators of z and of the parameters are constant factors of N/D.
    n0, d0 = prod(d for *_, d in b), zd * prod(d for *_, d in a)
    budget = 100000 + 4 * (abs(zp) + abs(zq)) // zd
    rho = _ratio_bound((zp, zq, zd), a, b)
    ten, ten2 = 10**digits, 100**digits
    guard = _GUARD
    while True:
        with mp.workdps(digits + guard):
            w = mp.prec
            tr, ti, x = 1 << w, 0, 0  # the term, (tr + i ti) 2^x units
            sr, si, e = 1 << w, 0, 0  # the sum; a unit is 2^(e-w)
            big = 1  # mp.mag of the largest term
            cut = None  # 1 + mp.mag(10^-digits |sum|) in units at the last test
            tail = None  # the tail bound in units, as (numerator, denominator)
            cplx = False
            k = 0
            while True:
                nr, ni, dr, di = zp * n0, zq * n0, d0, 0
                for p, q, d in a:
                    nr, ni = nr * (p + k * d) - ni * q, nr * q + ni * (p + k * d)
                for p, q, d in b:
                    dr, di = dr * (p + k * d) - di * q, dr * q + di * (p + k * d)
                n_norm, d_norm = nr * nr + ni * ni, dr * dr + di * di
                k += 1
                if not n_norm:
                    tail = 0, 1
                    break
                re, im = nr * dr + ni * di, ni * dr - nr * di  # N conj(D)
                if im or cplx:
                    cplx = True
                    qr, qi = (tr * re - ti * im) // d_norm, (tr * im + ti * re) // d_norm
                    if max(qr.bit_length(), qi.bit_length()) < w:
                        lift = _lift(w, max(tr.bit_length(), ti.bit_length()), n_norm, d_norm)
                        tr, ti, x = tr << lift, ti << lift, x - lift
                        qr, qi = (tr * re - ti * im) // d_norm, (tr * im + ti * re) // d_norm
                    tr, ti = qr, qi
                    si += ti >> -x
                else:
                    q = tr * re // d_norm
                    if q.bit_length() < w:
                        lift = _lift(w, tr.bit_length(), n_norm, d_norm)
                        tr, x = tr << lift, x - lift
                        q = tr * re // d_norm
                    tr = q
                sr += tr >> -x
                if 4 * n_norm > d_norm:  # |t_k| > |t_{k-1}|/2
                    if n_norm > d_norm:
                        bits = _mag(tr, ti)
                        big = max(big, bits + x + e - w)
                        if bits > 2 * w:
                            drop, shift = bits - w, max(bits - w + x, 0)
                            tr, ti, x = tr >> drop, ti >> drop, x + drop - shift
                            sr, si, e = sr >> shift, si >> shift, e + shift
                elif cut is None or _mag(tr, ti) + x <= cut:
                    t2, s2 = tr * tr + ti * ti, sr * sr + si * si
                    # |t_k| is sqrt(t2) 2^x units.
                    bound = rho(k) if t2 * ten2 < s2 << -2 * x else None
                    if bound:
                        u, v = bound
                        num, den = (-(-_ceil_sqrt(t2) >> -x) + 1) * u, v - u
                        if num * ten < isqrt(s2) * den:
                            tail = num, den
                            break
                    if _mag(tr, ti) + x <= 0 and s2 < 100 * ten2:
                        break  # a sum of few units and a term below one: more guard
                    cut = _floor_log2(s2, ten2) // 2 + 2 if s2 else 0
                if k > budget:
                    raise PrecisionError("series failed to converge")
            # A zero sum of a terminated series is exact.  A loss beyond the spare
            # guard is redone, unless the terms of the terminated series cancel
            # exactly: then the sum left is all rounding, and the value is 0.
            lost = (big - _mag(sr, si) - e + w) * log10(2) if sr or si or n_norm else 0
            spare = guard - _GUARD + _SPARE
            if lost > spare and not n_norm and _sums_to_zero(*params, k):
                sr = si = lost = 0
            if tail and lost <= spare:
                value = mp.ldexp(mpf(sr), e - w)
                if cplx:
                    value = mpc(value, mp.ldexp(mpf(si), e - w))
                return SeriesResult(value, k + 1, mp.ldexp(mpf(tail[0]) / tail[1], e - w))
            guard = max(guard + 1, _GUARD + ceil(lost))


def exp_series(x, digits: int) -> SeriesResult:
    """exp(x) = sum x^k / k!; for real x < 0, 1/exp(-x)."""
    x = ComplexParam.coerce(x)
    if not (x.is_real and x.re < 0):
        return hyp_sum((), (1,), x, digits)
    pos = hyp_sum((), (1,), -x, digits)
    with mp.workdps(digits + _GUARD):
        # A tail tau omitted from e^(-x) moves 1/e^(-x) by at most tau e^(2x).
        return SeriesResult(1 / pos.value, pos.terms_used, pos.tail_bound / pos.value**2)


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
    e, f = exp_series(z, digits), hyp_sum((b_den - 1,), (b_den, 1), -z, digits)
    with mp.workdps(digits + _GUARD):
        tail = e.value * f.tail_bound + abs(f.value) * e.tail_bound
        return SeriesResult(e.value * f.value, e.terms_used + f.terms_used, tail)


def hyp_2f2(a1, a2, b1, b2, z, digits: int) -> SeriesResult:
    """2F2(a1, a2; b1, b2; z) = sum_k (a1)_k (a2)_k / ((b1)_k (b2)_k) z^k / k!."""
    for b in (b1, b2):
        if ComplexParam.coerce(b).is_nonpositive_integer:
            raise ParameterError(f"denominator parameter {b} is a pole of 2F2")
    return hyp_sum((a1, a2), (b1, b2, 1), z, digits)


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
