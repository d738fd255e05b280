"""Generalized continued fractions b0 + K(a_m/b_m) and their convergents.

Convergents come from the Euler-Wallis recurrence

    P_k = b_k P_{k-1} + a_k P_{k-2},   Q_k = b_k Q_{k-1} + a_k Q_{k-2},

with P_{-1} = 1, Q_{-1} = 0, P_0 = b0, Q_0 = 1.  An :class:`ExpansionSpec`
maps w = P_k/Q_k through a Moebius matrix, so the convergent at depth k is the
value of the whole expansion truncated after the k-th partial fraction.  All
families take coefficients in one exact ring: ints, Fractions and Gaussian
rationals (:class:`~cfx.kernel.ComplexParam`).  The one recurrence loop,
:func:`_raw_convergents`, clears their denominators with an equivalence
transformation (Lorentzen & Waadeland, *Continued Fractions with
Applications*, 1992): it steps on ints or Gaussian integers, on P'_k = s_k P_k
and Q'_k = s_k Q_k for a running scale s_k, and no convergent changes.  A
Gaussian integer is a (re, im) pair of ints in local variables; while every
imaginary part is zero, the step is the real one on ints alone.  A rule whose
callables carry a ``progression`` (the complex-parameter families, through
:func:`~cfx.families._linear`) is stepped on it: a_m = (A0 + A1 m)/D and
b_m = (B0 + B1 m)/D over one D, from the index ``start`` on (2 for the
M-fraction's a, whose a_1 = b is the exception), so each step adds A1 and B1
with the constant scale r_m = D and makes no rule call, gcd or Fraction.
:func:`convergents` divides the scale back out, so tables show the raw P_k,
Q_k of the fraction as given: closed forms for denominators refer to them,
while reduced values match printed convergent tables.  :func:`raw_table`
gives those pairs alone, with no convergent reduced.  A value whose cleared
form has a nonzero imaginary part is a ComplexParam, and every other value an
int or a Fraction.  :func:`estimate_limit` works on the pairs and
reduces only at return.  Its stopping test rests on the determinant identity
P_k Q_{k-1} - P_{k-1} Q_k = (-1)^{k-1} a_1...a_k: a float sum of the
log2 |a_k|^2 bounds the step from below, so on the steps where raw bit
lengths show that the test cannot pass it forms no Moebius image and no
product, and the cross product of two consecutive images decides the few
steps that bit lengths leave open.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional

from mpmath import mp

from .kernel import (
    ComplexParam,
    NonConvergenceError,
    ParameterError,
    Scalar,
    SingularError,
    gaussian,
)

DEFAULT_DEPTH_CAP = 10**6
IDENTITY = (1, 0, 0, 1)  # the Moebius matrix of w -> w


def depth_cap() -> int:
    """Iteration cap for limit estimation; CFX_MAX_DEPTH overrides."""
    env = os.environ.get("CFX_MAX_DEPTH")
    if not env:
        return DEFAULT_DEPTH_CAP
    if not env.isdecimal() or int(env) < 1:
        raise ParameterError(f"CFX_MAX_DEPTH must be a positive integer, not {env!r}")
    return int(env)


@dataclass(frozen=True)
class CoefficientRule:
    """Partial numerators a(m) and denominators b(m) for m >= 1.

    a(m) must be nonzero; this is checked lazily at each step.
    """

    a: Callable[[int], Scalar]
    b: Callable[[int], Scalar]


def mobius(alpha, beta=0, gamma=0, delta=1) -> tuple[int, int, int, int]:
    """Integer matrix of w -> (alpha w + beta)/(gamma w + delta), rational entries
    scaled by the lcm of their denominators (the same map, in the integers)."""
    entries = [Fraction(x) for x in (alpha, beta, gamma, delta)]
    scale = math.lcm(*(x.denominator for x in entries))
    return tuple(x.numerator * (scale // x.denominator) for x in entries)


@dataclass(frozen=True)
class ExpansionSpec:
    """One continued-fraction family: M(b0 + K(a_m/b_m)) for the Moebius matrix
    ``mobius``; an affine finisher prefix + scale w is ``mobius(scale, prefix)``.
    With no ``rule`` every convergent equals M(head)."""

    name: str
    head: Scalar
    rule: Optional[CoefficientRule]
    mobius: tuple = IDENTITY


@dataclass(frozen=True)
class ConvergentState:
    """Euler-Wallis running state after k steps, for one-step use with
    :func:`euler_wallis_step`; the engine's own loop steps on local variables."""

    p_prev: Scalar
    p_cur: Scalar
    q_prev: Scalar
    q_cur: Scalar
    k: int

    @staticmethod
    def initial(b0: Scalar) -> "ConvergentState":
        return ConvergentState(p_prev=1, p_cur=b0, q_prev=0, q_cur=1, k=0)


def euler_wallis_step(state: ConvergentState, a_k: Scalar, b_k: Scalar) -> ConvergentState:
    """Advance the recurrence by one partial fraction."""
    if a_k == 0:
        raise ParameterError(f"partial numerator a_{state.k + 1} is zero")
    return ConvergentState(
        p_prev=state.p_cur,
        p_cur=b_k * state.p_cur + a_k * state.p_prev,
        q_prev=state.q_cur,
        q_cur=b_k * state.q_cur + a_k * state.q_prev,
        k=state.k + 1,
    )


@dataclass(frozen=True)
class Convergent:
    """Raw P_k, Q_k plus the finished (reduced) expansion value.

    ``value`` is None when the convergent is singular (Q_k = 0 or the
    Moebius image has a vanishing denominator); evaluation continues past it.
    """

    k: int
    p_raw: Scalar
    q_raw: Scalar
    value: Optional[Scalar]


def _raw_convergents(spec: ExpansionSpec) -> Iterator[tuple]:
    """Yield (k, Re P'_k, Im P'_k, Re Q'_k, Im Q'_k, |a'_k|^2, s_k)
    for k = 0, 1, ...: the Euler-Wallis recurrence of the equivalent fraction
    whose head and coefficients are ints or Gaussian integers, stepped on
    (re, im) int pairs.

    With r_0 = 1 and a scale r_m > 0 that clears a_m and b_m it steps on
    a'_m = r_m r_{m-1} a_m and b'_m = r_m b_m.  The head's denominator s_0
    starts the vectors at (P'_{-1}, P'_0, Q'_{-1}, Q'_0) = (s_0, s_0 b_0, 0, s_0),
    so P'_k = s_k P_k and Q'_k = s_k Q_k with the running scale
    s_k = s_0 r_1...r_k, and a'_0 = s_0^2 makes a'_0...a'_k = s_k s_{k-1} a_1...a_k.

    When both of the rule's callables carry a ``progression``
    (Re A0, Im A0, Re A1, Im A1, e), the cleared form x_m = (A0 + A1 m)/e that
    :func:`~cfx.families._linear` attaches, and the index ``start`` it holds
    from, then from the larger start on r_m is the constant D = lcm of the two
    e: D a_m and D b_m are Gaussian integers, and each step adds D A1/e to
    them, with no rule call, gcd, lcm or Fraction.  Before that index (the
    M-fraction's a_1 = b), and for every other rule,
    r_m = lcm(den a_m, den b_m), each value taken as x = (re + i im)/den from
    :func:`gaussian`; for int coefficients every r_m is 1.  Until an
    imaginary part turns up, the step is the real one on ints alone.  A spec
    with no rule has P_k = head, Q_k = 1 and a_k = 0 for k >= 1: every step
    is zero."""
    pr, pi, s = gaussian(spec.head)
    if spec.rule is None:
        yield from ((k, pr, pi, s, 0, 0 if k else s**4, s) for k in itertools.count())
    rule = spec.rule
    forms = [getattr(f, "progression", None) for f in (rule.a, rule.b)]
    start = math.inf  # the first k stepped on the progressions
    if None not in forms:
        start = max(rule.a.start, rule.b.start)
        d = math.lcm(forms[0][4], forms[1][4])
        # D a_k = xr + i xi and D b_k = yr + i yi at k = start, and their steps
        (xr, xi, dxr, dxi), (yr, yi, dyr, dyi) = (
            [c * (d // e) for c in (a0r + a1r * start, a0i + a1i * start, a1r, a1i)]
            for a0r, a0i, a1r, a1i, e in forms)
    real = not pi
    ppr, ppi, qpr, qpi, qr, qi = s, 0, 0, 0, s, 0  # P'_{k-1}, Q'_{k-1}, Q'_k
    a2, r_prev, k = s**4, 1, 0
    while True:
        yield k, pr, pi, qr, qi, a2, s
        k += 1
        if k >= start:
            ar, ai, br, bi, r, s = xr, xi, yr, yi, d, s * d
            xr, xi, yr, yi = xr + dxr, xi + dxi, yr + dyr, yi + dyi
        else:
            a, b = rule.a(k), rule.b(k)
            if type(a) is int and type(b) is int:
                ar, ai, br, bi, r = a, 0, b, 0, 1
            else:
                (ar, ai, da), (br, bi, db) = gaussian(a), gaussian(b)
                r = math.lcm(da, db)
                if r != 1:
                    ra, rb, s = r // da, r // db, s * r
                    ar, ai, br, bi = ar * ra, ai * ra, br * rb, bi * rb
        if not ar and not ai:
            raise ParameterError(f"partial numerator a_{k} is zero")
        if r_prev != 1:
            ar, ai = ar * r_prev, ai * r_prev
        r_prev = r
        if real and not ai and not bi:
            ppr, pr = pr, br * pr + ar * ppr
            qpr, qr = qr, br * qr + ar * qpr
            a2 = ar * ar
            continue
        real = False
        pr, pi, ppr, ppi = (br * pr - bi * pi + ar * ppr - ai * ppi,
                            br * pi + bi * pr + ar * ppi + ai * ppr, pr, pi)
        qr, qi, qpr, qpi = (br * qr - bi * qi + ar * qpr - ai * qpi,
                            br * qi + bi * qr + ar * qpi + ai * qpr, qr, qi)
        a2 = ar * ar + ai * ai


def _image(m: tuple, pr: int, pi: int, qr: int, qi: int) -> tuple[int, int, int, int]:
    """Numerator and denominator of M(p/q), without dividing, as (re, im) pairs."""
    if m == IDENTITY:
        return pr, pi, qr, qi
    alpha, beta, gamma, delta = m
    return (alpha * pr + beta * qr, alpha * pi + beta * qi,
            gamma * pr + delta * qr, gamma * pi + delta * qi)


def _quotient(nr: int, ni: int, dr: int, di: int) -> Scalar:
    """Exact (nr + i ni)/(dr + i di): a reduced Fraction when ni and di are 0,
    else a ComplexParam with Fraction parts."""
    if not (ni or di):
        return Fraction(nr, dr)
    n2 = dr * dr + di * di
    return ComplexParam(Fraction(nr * dr + ni * di, n2), Fraction(ni * dr - nr * di, n2))


def _unscaled(re: int, im: int, s: int) -> Scalar:
    """(re + i im)/s: the raw P_k or Q_k of the fraction as given, from its
    cleared value and the running scale s; an int or a Fraction when im is 0,
    else a ComplexParam."""
    if not im:
        return re if s == 1 else Fraction(re, s)
    if s == 1:
        return ComplexParam(re, im)
    return ComplexParam(Fraction(re, s), Fraction(im, s))


def _rows(spec: ExpansionSpec, depth: int) -> Iterator[tuple]:
    """The rows k = 0..depth (inclusive) of :func:`_raw_convergents`."""
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    return itertools.islice(_raw_convergents(spec), depth + 1)


def raw_table(spec: ExpansionSpec, depth: int) -> list[tuple[Scalar, Scalar]]:
    """The raw (P_k, Q_k) of the fraction as given, k = 0..depth (inclusive);
    no convergent is formed or reduced."""
    return [(_unscaled(pr, pi, s), _unscaled(qr, qi, s)) for _, pr, pi, qr, qi, _, s in _rows(spec, depth)]


def convergents(spec: ExpansionSpec, depth: int) -> list[Convergent]:
    """Convergents 0..depth (inclusive)."""
    out = []
    for k, pr, pi, qr, qi, _, s in _rows(spec, depth):
        nr, ni, dr, di = _image(spec.mobius, pr, pi, qr, qi)
        singular = not (qr or qi) or not (dr or di)
        value = None if singular else _quotient(nr, ni, dr, di)
        out.append(Convergent(k, _unscaled(pr, pi, s), _unscaled(qr, qi, s), value))
    return out


def successive_difference(spec: ExpansionSpec, k: int) -> Scalar:
    """C_k - C_{k-1} in lowest terms."""
    if k < 1:
        raise ParameterError("difference requires k >= 1")
    convs = convergents(spec, k)
    a, b = convs[k - 1].value, convs[k].value
    if a is None or b is None:
        raise SingularError(f"singular convergent near index {k} of {spec.name}")
    return b - a


def equivalence_transform(spec: ExpansionSpec, r: Callable[[int], Scalar]) -> ExpansionSpec:
    """Rescale a_m -> r_m r_{m-1} a_m, b_m -> r_m b_m (r_0 = 1).

    Convergent values are unchanged; raw P_k, Q_k generally differ.
    """
    rule = spec.rule

    def r_checked(m: int) -> Scalar:
        v = r(m) if m >= 1 else 1
        if v == 0:
            raise ParameterError(f"equivalence factor r_{m} is zero")
        return v

    new_rule = CoefficientRule(
        a=lambda m: r_checked(m) * r_checked(m - 1) * rule.a(m),
        b=lambda m: r_checked(m) * rule.b(m),
    )
    return replace(spec, rule=new_rule, name=spec.name + "~equiv")


def waadeland_limit(t0: Scalar, sigma_inf: Scalar) -> Scalar:
    """Fraction value from a tail sequence start and the tail-product sum.

    Returns t0 * (1 - 1/sigma_inf).
    """
    if sigma_inf == 0:
        raise SingularError("sigma_inf must be nonzero")
    return t0 * (1 - 1 / sigma_inf)


def unshift_first_step(a1: Scalar, b1: Scalar, tail_value: Scalar) -> Scalar:
    """Value a1/(b1 + t) of a fraction whose tail from index 2 has value t."""
    denom = b1 + tail_value
    if denom == 0:
        raise SingularError("b1 + tail_value vanishes")
    return a1 / denom


@dataclass(frozen=True)
class TailSequence:
    """Candidate tail values t_j, j >= 0, for a coefficient rule."""

    t: Callable[[int], Scalar]

    def satisfies(self, rule: CoefficientRule, j: int) -> bool:
        # t_{j-1} = a_j / (b_j + t_j), rearranged to avoid division.
        return self.t(j - 1) * (rule.b(j) + self.t(j)) == rule.a(j)


def estimate_limit(spec: ExpansionSpec, target_digits: int) -> tuple[Scalar, int]:
    """Iterate convergents until two consecutive steps move by < 10^-digits.

    The stopping test is |C_k - C_{k-1}| < 10^-target_digits * max(1, |C_k|)
    at two consecutive depths.  With C_k = num_k/den_k and the cross product
    x_k = num_k den_{k-1} - num_{k-1} den_k it reads
    |x_k|^2 10^2d < |den_{k-1}|^2 max(|num_k|^2, |den_k|^2), on squared
    magnitudes (no square root for Gaussian values).  It runs on the cleared
    recurrence of :func:`_raw_convergents`, on ints or Gaussian integers held
    as (re, im) int pairs: both sides scale by (s_k s_{k-1})^2, so the depth is
    that of the fraction as given, and no Fraction or ComplexParam is formed
    before the one reduction at return.

    By the determinant identity |x_k| = |D_k| for D_k = det M a'_0...a'_k, and
    |D_k| never falls, since |a'_j| >= 1 for a nonzero Gaussian integer.  No
    product is kept: ``log_step`` sums log2 det(M)^2 and each log2 |a'_j|^2 in
    floats.  Each of the k + 2 terms is within about an ulp, and recursive
    summation adds at most (k + 1) 2^-53 log_step, so log_step is within
    err = (k + 2)(log_step + 1) 2^-52 of log2 |D_k|^2: for e-euler at the depth
    cap of 10^6, under 0.01 bit.  The rules below allow err plus one bit.

    - Skip.  After a check finds a step not small, with mb the largest bit
      length of the Moebius entries, let
      X = floor((log_step - 1 - err + floor(log2 10^2d) - 6)/4) - mb.  While
      every part of the raw P', Q' at both k and k-1 has at most X bits, every
      part of num_k, den_k and den_{k-1} is below 2^(X+mb+1), so the right-hand
      side is below 2^(4(X+mb)+6) <= |D_k|^2 10^2d: the step is not small.  It
      resets the streak and forms no image and no product.  No step is
      skipped before the first such check.
    - Check.  Otherwise the images at k and k-1 are formed.  A singular
      convergent (raw Q' = 0 or a zero image denominator) at either takes no
      test and resets the streak.  log_step and the bit lengths of the image
      parts decide (with e the larger bit length of a value's parts,
      2^(e-1) <= |x| < 2^(e+1)) unless the two sides are within 10 + err
      bits; then x_k decides exactly, on |.| with no squares when every
      imaginary part is zero.  A zero det M or a'_j (a spec with no
      rule) makes log_step -inf and every nonsingular step small.

    Returns the reduced Fraction when the image's cleared imaginary parts are
    zero; otherwise the limit is rounded once, to an mpc when it is non-real,
    at target_digits + max(10, target_digits // 4) digits.
    """
    cap = depth_cap()
    scale = 10**target_digits
    tol = scale * scale  # 10^d, squared
    tol_bits = tol.bit_length() - 1  # floor(log2 tol)
    m = spec.mobius
    alpha, beta, gamma, delta = m
    det = alpha * delta - beta * gamma
    mb = max(x.bit_length() for x in m)
    log_step = math.log2(det * det) if det else -math.inf  # ~ log2 |D_k|^2
    lo = hi = 0  # (-2^X, 2^X): a step whose raw parts lie in it at k and k-1 is skipped
    prev, prev_in = (-1, 1, 0, 0, 0), False  # raw k-1: P_{-1} = 1, Q_{-1} = 0 is singular
    small_streak = 0
    for raw in _raw_convergents(spec):
        k, pr, pi, qr, qi, a2, _ = raw
        if k > cap:
            raise NonConvergenceError(f"{spec.name} did not converge within depth {cap}")
        log_step += math.log2(a2) if a2 else -math.inf
        cur_in = lo < pr < hi and lo < qr < hi and lo < pi < hi and lo < qi < hi
        if cur_in and prev_in:  # not small, provably: no image, no product
            small_streak = 0
            prev = raw
            continue
        nr, ni, dr, di = _image(m, pr, pi, qr, qi)
        npr, npi, dpr, dpi = _image(m, *prev[1:5])
        if not ((qr or qi) and (dr or di) and (prev[3] or prev[4]) and (dpr or dpi)):
            small = False  # C_k or C_{k-1} is singular: no test
        elif log_step == -math.inf:
            small = True  # det M or an a'_j is zero: x_k = 0
        else:
            err = (k + 2) * (log_step + 1) * 2.0**-52
            lhs = log_step + tol_bits
            rhs = 2 * (max(dpr.bit_length(), dpi.bit_length())
                       + max(nr.bit_length(), ni.bit_length(), dr.bit_length(), di.bit_length()))
            if abs(lhs - rhs) >= 10 + err:
                small = lhs < rhs
            elif not (ni or di or npi or dpi):  # real: the same test on |.|, no squares
                small = (abs(nr * dpr - npr * dr) * scale
                         < abs(dpr) * max(abs(nr), abs(dr)))
            else:
                xr = nr * dpr - ni * dpi - npr * dr + npi * di
                xi = nr * dpi + ni * dpr - npr * di - npi * dr
                small = ((xr * xr + xi * xi) * tol
                         < (dpr * dpr + dpi * dpi) * max(nr * nr + ni * ni, dr * dr + di * di))
            if not small:
                x_bits = math.floor((log_step - 1 - err + tol_bits - 6) / 4) - mb
                hi = 1 << x_bits if x_bits > 0 else 0
                lo = -hi
                cur_in = lo < pr < hi and lo < qr < hi and lo < pi < hi and lo < qi < hi
        small_streak = small_streak + 1 if small else 0
        if small_streak >= 2:
            break
        prev, prev_in = raw, cur_in
    value = _quotient(nr, ni, dr, di)
    if not isinstance(value, ComplexParam):
        return value, k
    with mp.workdps(target_digits + max(10, target_digits // 4)):
        return value.to_mp(), k
