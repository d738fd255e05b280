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
callables carry a ``progression`` (every registry family, through
:func:`~cfx.families._linear`) is stepped on it: a_m = (A0_R + A1_R J)/D and
b_m = (B0_R + B1_R J)/D for m = p J + R over one D, from the index ``start``
on (2 after an exception at m = 1, as the M-fraction's a_1 = b), so the
cleared coefficients are counted up, one stream per residue R in turn, with
the constant scale r_m = D and no rule call, gcd or Fraction.  Any other
rule (an equivalence transform) is cleared value by value.  The loop can
also advance many steps at once with no row in between (a run); a long real
run is one 2x2 matrix from a balanced product tree of short stretches of the
same steps (binary splitting, Haible & Papanikolaou 1998).
:func:`convergents` divides the scale back out, so tables show the raw P_k,
Q_k of the fraction as given: closed forms for denominators refer to them,
while reduced values match printed convergent tables.  :func:`raw_table`
gives those pairs alone, with no convergent reduced.  A value whose cleared
form has a nonzero imaginary part is a ComplexParam, and every other value an
int or a Fraction.  :func:`estimate_limit` works on the pairs and
reduces only at return.  Its stopping test rests on the determinant identity
P_k Q_{k-1} - P_{k-1} Q_k = (-1)^{k-1} a_1...a_k: a float sum of the
log2 |a_k|^2 bounds the step from below.  For a rule with a progression, an
integer bound from the raw parts at k and k-1 and from the progression then
proves a number of following steps not small, and the loop advances over
them in one run; for any other rule, the steps whose raw bit lengths show
that the test cannot pass form no Moebius image and no product.  Bit
lengths decide most of the steps that are checked, the 64 leading bits of
each magnitude most of the rest, and the cross product of two consecutive
images the few that both leave open.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Generator, Iterator, Optional

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


def _progression(rule: Optional[CoefficientRule]) -> Optional[tuple]:
    """(start, D, pieces) when both of the rule's callables carry the
    ``progression`` (e, pieces) of :func:`~cfx.families._linear`, the form
    x_m = (A0_r + A1_r j)/e for m = q j + r, q = len(pieces), from the index
    ``start`` on, else (or with no rule) None.  The two are merged to the
    period p = lcm of the q, over D = lcm of the e: D a_m = A0 + A1 J and
    D b_m = B0 + B1 J for m = p J + R, with pieces[R] = (Re A0, Im A0,
    Re A1, Im A1, Re B0, Im B0, Re B1, Im B1)."""
    if rule is None:
        return None
    fa, fb = getattr(rule.a, "progression", None), getattr(rule.b, "progression", None)
    if fa is None or fb is None:
        return None
    (ea, pa), (eb, pb) = fa, fb
    qa, qb = len(pa), len(pb)
    d, p = math.lcm(ea, eb), math.lcm(qa, qb)
    fa, fb, sa, sb = d // ea, d // eb, p // qa, p // qb
    pieces = []
    for r in range(p):  # m = p J + r is m = q (J p/q + r // q) + r % q
        (x0, y0, x1, y1), ja, (u0, v0, u1, v1), jb = pa[r % qa], r // qa, pb[r % qb], r // qb
        pieces.append((fa * (x0 + x1 * ja), fa * (y0 + y1 * ja), fa * sa * x1, fa * sa * y1,
                       fb * (u0 + u1 * jb), fb * (v0 + v1 * jb), fb * sb * u1, fb * sb * v1))
    return max(rule.a.start, rule.b.start), d, pieces


# A run of _TREE_MIN or more real steps is built as a balanced product tree of
# _LEAF-step leaves; a shorter run, and every Gaussian run, steps in the
# loop.  Chosen on the exact-deep benchmark items (1000 to 5000 digits,
# in-process timing): leaves of 8, 16, 32 and 64 steps were within 4% of each
# other, trees from 16 to 64 steps up within 1%, from 128 up 4% slower.
_LEAF = 16
_TREE_MIN = 64
# estimate_limit looks for a run only where the two sides of the stopping test
# are at least _RUN_BITS bits apart; nearer the stop the skip test is cheaper.
# Chosen on the estimate_limit calls of the cli-burst and verify-suite
# benchmarks (20 to 205 digits), where 128 read 11% slower than 1024, and on
# exact-deep, where 512 to 1024 were fastest.
_RUN_BITS = 1024
# The leading-bit test is used where the right-hand side of the stopping test
# has at least _LEADING_MIN bits (parts of about 256 bits); below that the
# exact cross product costs no more (measured on random parts).
_LEADING_MIN = 1024


def _product(ms: list) -> tuple:
    """M_1 M_2 ... M_n for 2x2 int matrices (m00, m01, m10, m11), multiplied
    pairwise up a balanced tree."""
    while len(ms) > 1:
        pairs = iter(ms)
        ms = [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
              for (a, b, c, d), (e, f, g, h) in zip(pairs, pairs)] + ms[len(ms) & ~1:]
    return ms[0]


def _cleared(rule: CoefficientRule, stop, last: Optional[tuple] = None) -> Iterator[tuple]:
    """(Re a'_k, Im a'_k, Re b'_k, Im b'_k, r_k) for k = 1 .. stop - 1 from
    rule calls: r_k = lcm(den a_k, den b_k), a'_k = r_k r_{k-1} a_k and
    b'_k = r_k b_k, each value taken as x = (re + i im)/den from
    :func:`gaussian`.  Then, when ``last`` = (Re, Im of D a_k, Re, Im of
    D b_k, D) is given for k = stop, that step, with a'_k = r_{k-1} D a_k."""
    r_prev = 1
    for k in itertools.count(1) if stop == math.inf else range(1, stop):
        (ar, ai, da), (br, bi, db) = gaussian(rule.a(k)), gaussian(rule.b(k))
        r = math.lcm(da, db)
        if r != 1:
            ra, rb = r // da, r // db
            ar, ai, br, bi = ar * ra, ai * ra, br * rb, bi * rb
        if not ar and not ai:
            raise ParameterError(f"partial numerator a_{k} is zero")
        if r_prev != 1:
            ar, ai = ar * r_prev, ai * r_prev
        yield ar, ai, br, bi, r
        r_prev = r
    if last is not None:
        ar, ai, br, bi, r = last
        if not ar and not ai:
            raise ParameterError(f"partial numerator a_{stop} is zero")
        yield ar * r_prev, ai * r_prev, br, bi, r


def _zero_at(k: int) -> Iterator[tuple]:
    """An iterator that raises at its first item: a'_k = 0."""
    raise ParameterError(f"partial numerator a_{k} is zero")
    yield


def _coefficients(rule: CoefficientRule, form: Optional[tuple]) -> Iterator[tuple]:
    """The cleared (Re a'_k, Im a'_k, Re b'_k, Im b'_k, r_k) for k = 1, 2, ...

    With no progression every step comes from :func:`_cleared`.  With the
    :func:`_progression` ``form``, so do the steps before its start; at the
    start and after it r_k = D, and past the start a'_k = D (A0 + A1 J) and
    b'_k = B0 + B1 J for k = p J + R are counted up with no rule call, one
    stream per residue R, taken in turn, up to a zero a'_k, where the
    iterator raises."""
    if form is None:
        return _cleared(rule, math.inf)
    start, d, pieces = form
    p, count, streams, zero = len(pieces), itertools.count, [], math.inf
    for k in range(start + 1, start + p + 1):
        j, r = divmod(k, p)
        a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i = pieces[r]
        streams.append(zip(count(d * (a0r + a1r * j), d * a1r), count(d * (a0i + a1i * j), d * a1i),
                           count(b0r + b1r * j, b1r), count(b0i + b1i * j, b1i),
                           itertools.repeat(d)))
        # this residue's first zero a'_k past the start: A0 + A1 J = 0 in both parts
        a0, a1 = (a0r, a1r) if a1r or a0r else (a0i, a1i)
        z = -a0 // a1 if a1 and not a0 % a1 else None if a1 or a0 else j
        if z is not None and z >= j and not (a0r + a1r * z or a0i + a1i * z):
            zero = min(zero, k + p * (z - j))
    later = streams[0] if p == 1 else itertools.chain.from_iterable(zip(*streams))
    if zero != math.inf:
        later = itertools.chain(itertools.islice(later, zero - start - 1), _zero_at(zero))
    j, r = divmod(start, p)
    a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i = pieces[r]
    last = (a0r + a1r * j, a0i + a1i * j, b0r + b1r * j, b0i + b1i * j, d)
    return itertools.chain(_cleared(rule, start, last), later)


def _raw_convergents(spec: ExpansionSpec,
                     form: Optional[tuple]) -> Generator[tuple, Optional[int], None]:
    """Yield rows (k, Re P'_k, Im P'_k, Re Q'_k, Im Q'_k, Re P'_{k-1},
    Im P'_{k-1}, Re Q'_{k-1}, Im Q'_{k-1}, la, an, s_k), starting at k = 0:
    the Euler-Wallis recurrence of the equivalent fraction whose head and
    coefficients are ints or Gaussian integers, stepped on (re, im) int pairs,
    with ``form`` the rule's :func:`_progression`.  Iterating gives every k;
    ``send(n)`` advances n steps at once (a run) and yields the row at its
    end.  The product of |a'_j|^2 over the steps a row advanced is 2^la an:
    an is |a'_k|^2 after one step, and a run multiplies at most _LEAF of them
    into an int, adding log2 of each full product to la.

    With r_0 = 1 and a scale r_m > 0 that clears a_m and b_m it steps on
    a'_m = r_m r_{m-1} a_m and b'_m = r_m b_m, from :func:`_coefficients`.
    The head's denominator s_0 starts the vectors at
    (P'_{-1}, P'_0, Q'_{-1}, Q'_0) = (s_0, s_0 b_0, 0, s_0), so P'_k = s_k P_k
    and Q'_k = s_k Q_k with the running scale s_k = s_0 r_1...r_k, and
    a'_0 = s_0^2 makes a'_0...a'_k = s_k s_{k-1} a_1...a_k.  While every
    imaginary part is zero, the step is the real one on ints alone.

    A real run of _TREE_MIN or more steps on the progression is one 2x2
    matrix.  Its leaves are stretches of _LEAF of the same steps, each run
    from the identity (P'_k, P'_{k-1}, Q'_k, Q'_{k-1}) = (1, 0, 0, 1), which
    leaves there the rows of the stretch's matrix; :func:`_product`
    multiplies them, and the run's end applies the product to both columns,
    so it gives P'_{k-1} and Q'_{k-1} as well.  Every other run is the same
    steps with no row in between.  A spec with no rule has P_k = head,
    Q_k = 1 and a_k = 0 for k >= 1: every step is zero."""
    pr, pi, s = gaussian(spec.head)
    if spec.rule is None:
        n, k = (yield 0, pr, pi, s, 0, s, 0, 0, 0, 0.0, s**4, s), 0
        while True:
            k += n or 1
            n = yield k, pr, pi, s, 0, pr, pi, s, 0, 0.0, 0, s
    start = form[0] if form else math.inf
    real = not pi
    ppr, ppi, qpr, qpi, qr, qi = s, 0, 0, 0, s, 0  # P'_{k-1}, Q'_{k-1}, Q'_k
    k, end, tree, leaf, tree_min, log2 = 0, 0, False, _LEAF, _TREE_MIN, math.log2
    n = yield 0, pr, pi, qr, qi, ppr, ppi, qpr, qpi, 0.0, s**4, s
    for ar, ai, br, bi, r in _coefficients(spec.rule, form):
        if n:  # a run to k + n: an holds the product of |a'_j|^2 up to mark
            end, la, an, n = k + n, 0.0, 1, None
            mark = min(k + leaf, end)
            tree = (end - k >= tree_min and k >= start and real
                    and not any(x for piece in form[2] for x in piece[1::2]))
            if tree:
                column, leaves = (pr, ppr, qr, qpr), []
                pr, ppr, qr, qpr = 1, 0, 0, 1
        k += 1
        s *= r
        if real and not ai and not bi:
            ppr, pr = pr, br * pr + ar * ppr
            qpr, qr = qr, br * qr + ar * qpr
            a2 = ar * ar
        else:
            real = False
            pr, pi, ppr, ppi = (br * pr - bi * pi + ar * ppr - ai * ppi,
                                br * pi + bi * pr + ar * ppi + ai * ppr, pr, pi)
            qr, qi, qpr, qpi = (br * qr - bi * qi + ar * qpr - ai * qpi,
                                br * qi + bi * qr + ar * qpi + ai * qpr, qr, qi)
            a2 = ar * ar + ai * ai
        if not end:
            n = yield k, pr, pi, qr, qi, ppr, ppi, qpr, qpi, 0.0, a2, s
            continue
        an *= a2
        if k != mark:
            continue
        if tree:
            leaves.append((pr, ppr, qr, qpr))
            pr, ppr, qr, qpr = 1, 0, 0, 1
        if k != end:
            la, an, mark = la + log2(an), 1, min(k + leaf, end)
            continue
        if tree:
            (m00, m01, m10, m11), (p, pp, q, qp) = _product(leaves), column
            pr, ppr = p * m00 + pp * m10, p * m01 + pp * m11
            qr, qpr = q * m00 + qp * m10, q * m01 + qp * m11
        end = 0
        n = yield k, pr, pi, qr, qi, ppr, ppi, qpr, qpi, la, an, s


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
    return itertools.islice(_raw_convergents(spec, _progression(spec.rule)), depth + 1)


def raw_table(spec: ExpansionSpec, depth: int) -> list[tuple[Scalar, Scalar]]:
    """The raw (P_k, Q_k) of the fraction as given, k = 0..depth (inclusive);
    no convergent is formed or reduced."""
    return [(_unscaled(pr, pi, s), _unscaled(qr, qi, s))
            for _, pr, pi, qr, qi, _, _, _, _, _, _, s in _rows(spec, depth)]


def convergents(spec: ExpansionSpec, depth: int) -> list[Convergent]:
    """Convergents 0..depth (inclusive)."""
    out = []
    for k, pr, pi, qr, qi, _, _, _, _, _, _, s in _rows(spec, depth):
        nr, ni, dr, di = _image(spec.mobius, pr, pi, qr, qi)
        singular = not (qr or qi) or not (dr or di)
        value = None if singular else _quotient(nr, ni, dr, di)
        out.append(Convergent(k, _unscaled(pr, pi, s), _unscaled(qr, qi, s), value))
    return out


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


@dataclass(frozen=True)
class TailSequence:
    """Candidate tail values t_j, j >= 0, for a coefficient rule."""

    t: Callable[[int], Scalar]

    def satisfies(self, rule: CoefficientRule, j: int) -> bool:
        # t_{j-1} = a_j / (b_j + t_j), rearranged to avoid division.
        return self.t(j - 1) * (rule.b(j) + self.t(j)) == rule.a(j)


def _log2_norm(re: int, im: int) -> float:
    """log2(re^2 + im^2) from the 64 leading bits of the larger part, to a
    relative 2^-50 of re^2 + im^2; -inf for 0."""
    shift = max(re.bit_length(), im.bit_length()) - 64
    if shift > 0:
        re, im = re >> shift, im >> shift
    else:
        shift = 0
    return math.log2(re * re + im * im) + 2 * shift if re or im else -math.inf


def _cross_small(nr: int, ni: int, dr: int, di: int, npr: int, npi: int, dpr: int, dpi: int,
                 scale: int, tol: int) -> bool:
    """The exact stopping test |x_k| 10^d < |den_{k-1}| max(|num_k|, |den_k|)
    for x_k = num_k den_{k-1} - num_{k-1} den_k, scale = 10^d and
    tol = scale^2: on |.| with no squares when every imaginary part is zero,
    else on squared magnitudes."""
    if not (ni or di or npi or dpi):
        return abs(nr * dpr - npr * dr) * scale < abs(dpr) * max(abs(nr), abs(dr))
    xr = nr * dpr - ni * dpi - npr * dr + npi * di
    xi = nr * dpi + ni * dpr - npr * di - npi * dr
    return ((xr * xr + xi * xi) * tol
            < (dpr * dpr + dpi * dpi) * max(nr * nr + ni * ni, dr * dr + di * di))


def _certified_run(form: tuple, k: int, slack: int) -> int:
    """The number of steps after k that provably cannot be small, for the
    progression ``form`` of :func:`_progression` (k >= its start) and the
    bit budget ``slack`` of :func:`estimate_limit`: the largest n with
    n cost(n) <= slack, where cost(n) = bits(c^4) - gain bounds the bits that
    each step of a run of n uses up.

    Step i = p J + R of the run has j <= J <= j + e for j = (k+1) // p and
    e = (k+n) // p - j.  Each part of a'_i = D (A0 + A1 J) and
    b'_i = B0 + B1 J is x + (J - j) dx for its value x at j, at most
    |x| + e |dx|, so c_i = |a'_i|_1 + |b'_i|_1 <= c = c0 + e c1 for c0 and c1
    the largest sums of the |x| and of the |dx| over the residues, and
    4 log2 c_i < bits(c^4).  Each residue's |a'|^2 is a convex quadratic in
    J; a run is taken only where none falls (each rise from j to j + 1 is
    >= 0), so |a'_i|^2 >= 2^gain on the whole run, gain the least
    bits(|a'|^2 at j) - 1, and a zero a'_i ends every run before it.
    cost(n) does not fall as n grows, so n cost(n) <= slack holds up to the
    answer and fails past it: a few evaluations of cost bracket the answer
    and a bisection finds it."""
    _, d, pieces = form
    j, c0, c1, gain = (k + 1) // len(pieces), 0, 0, math.inf
    for a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i in pieces:
        ur, ui, vr, vi = d * (a0r + a1r * j), d * (a0i + a1i * j), d * a1r, d * a1i
        a2 = ur * ur + ui * ui
        if slack <= 0 or not a2 or 2 * (ur * vr + ui * vi) + vr * vr + vi * vi < 0:
            return 0
        gain = min(gain, a2.bit_length() - 1)  # log2 |a'_i|^2 >= gain on the whole run
        c0 = max(c0, abs(ur) + abs(ui) + abs(b0r + b1r * j) + abs(b0i + b1i * j))
        c1 = max(c1, abs(vr) + abs(vi) + abs(b1r) + abs(b1i))

    def cost(n):  # -g for a run of n steps
        return ((c0 + ((k + n) // len(pieces) - j) * c1) ** 4).bit_length() - gain

    # n cost(n) <= slack holds up to some n and fails past it, as cost(n)
    # does not fall; it holds at lo, and no n past hi can satisfy it.
    hi = slack // cost(1)
    lo = min(hi, slack // cost(hi)) if hi else 0
    if lo:
        hi = min(hi, slack // cost(lo))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * cost(mid) <= slack:
            lo = mid
        else:
            hi = mid - 1
    return lo


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
    product is kept: ``log_step`` is a float sum of log2 det(M)^2 and of
    log2 of integers x >= 1, each the product of |a'_j|^2 over one or more
    consecutive steps (the steps since the last check, or at most _LEAF
    steps of a run), T <= k + 2 terms in all.  math.log2 of an int is within
    2^-52 (1 + log2 x) of log2 x (the int rounded to a double, then log2
    within an ulp), and each addition of terms >= 0 rounds by at most
    2^-53 log_step, so log_step is within err = (k + 2)(log_step + 1) 2^-52 of
    log2 |D_k|^2: for e-euler at the depth cap of 10^6, under 0.01 bit.

    - Check.  The images at k and k-1 are formed.  A singular convergent
      (raw Q' = 0 or a zero image denominator) at either takes no test and
      resets the streak.  log_step and the bit lengths of the image parts
      decide (with e the larger bit length of a value's parts,
      2^(e-1) <= |x| < 2^(e+1)) unless the two sides are within 10 + err
      bits.  Then, where the right-hand side has _LEADING_MIN bits or more,
      log2 of each magnitude from its 64 leading bits (:func:`_log2_norm`)
      decides unless the sides are within err + 10^-6 bits, which covers
      those logs' relative 2^-50 and the float sums for sides below 2^30
      bits.  Only then does x_k decide exactly (:func:`_cross_small`).
      A zero det M or a'_j (a spec with no rule) makes log_step -inf and
      every nonsingular step small.
    - Run.  For a rule with a :func:`_progression`, a check that finds the
      step not small with the two sides at least _RUN_BITS bits apart leads
      to a run: at once if k is at least the progression's start, else after
      the checks up to it.  Let mb be the largest bit length of the Moebius
      entries, mu_k the largest |Re| + |Im| of P'_k, P'_{k-1}, Q'_k, Q'_{k-1}
      (below 2^u, u their largest bit length, plus 1 when one is not real)
      and c_j = |a'_j|_1 + |b'_j|_1.  Since |xy|_1 <= |x|_1 |y|_1,
      mu_j <= c_j mu_{j-1}, and every part of an image at j or j-1 is below
      2^(mb+1) mu_j, so the right-hand side at j is below 2^(4(mb+1)) mu_j^4.
      Step j > k is therefore not small when
      4(mb + 1 + u + sum_{i=k+1..j} log2 c_i) <= log_step - err + tol_bits
      + sum_{i=k+1..j} log2 |a'_i|^2, with tol_bits = floor(log2 10^2d).
      :func:`_certified_run` gives the n steps after k that this proves not
      small, for slack = floor(log_step - err - 1) + tol_bits - 4(mb + 1 + u),
      at most depth_cap() - k.  The walk advances them at once (a product
      tree for a long real run), and the loop goes on with step k + n + 1,
      which is checked.  Every step in the run would only have reset the
      streak, which is 0 after the run too, and that check sees the same
      pairs at k + n + 1 and k + n as step by step: no depth or value moves.
    - Skip.  After any other check that finds a step not small, let
      X = floor((log_step - 1 - err + tol_bits - 6)/4) - mb.  While every part
      of the raw P', Q' at both k and k-1 has at most X bits, every part of
      num_k, den_k and den_{k-1} is below 2^(X+mb+1), so the right-hand side
      is below 2^(4(X+mb)+6) <= |D_k|^2 10^2d: the step is not small.  It
      resets the streak and forms no image and no product.  No step is
      skipped before the first such check.

    Returns the reduced Fraction when the image's cleared imaginary parts are
    zero.  Otherwise the limit is the exact Gaussian rational num_k/den_k,
    reduced, converted by :meth:`~cfx.kernel.ComplexParam.to_mp` at
    target_digits + max(10, target_digits // 4) digits: each part's reduced
    numerator is rounded to that precision and then divided by its
    denominator, so the part is rounded twice, not once.  The result is an
    mpc when the limit is non-real.
    """
    if not isinstance(target_digits, int) or target_digits < 1:
        raise ParameterError("target_digits must be an integer >= 1")
    cap = depth_cap()
    scale = 10**target_digits
    tol = scale * scale  # 10^d, squared
    tol_bits = tol.bit_length() - 1  # floor(log2 tol)
    m = spec.mobius
    alpha, beta, gamma, delta = m
    det = alpha * delta - beta * gamma
    mb = max(x.bit_length() for x in m)
    log_step = math.log2(det * det) if det else -math.inf  # ~ log2 |D_k|^2
    form = _progression(spec.rule)
    lo = hi = 0  # (-2^X, 2^X): a step whose raw parts lie in it at k and k-1 is skipped
    prev_in = False
    small_streak = 0
    walk = _raw_convergents(spec, form)
    held = 1  # the product of |a'_j|^2 not yet in log_step
    for k, pr, pi, qr, qi, ppr, ppi, qpr, qpi, _, an, _ in walk:
        if k > cap:
            raise NonConvergenceError(f"{spec.name} did not converge within depth {cap}")
        held *= an
        cur_in = lo < pr < hi and lo < qr < hi and lo < pi < hi and lo < qi < hi
        if cur_in and prev_in:  # not small, provably: no image, no product
            small_streak = 0
            continue
        log_step += math.log2(held) if held else -math.inf
        held = 1
        nr, ni, dr, di = _image(m, pr, pi, qr, qi)
        npr, npi, dpr, dpi = _image(m, ppr, ppi, qpr, qpi)
        if not ((qr or qi) and (dr or di) and (qpr or qpi) and (dpr or dpi)):
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
            else:
                side = 0.0  # lhs - rhs from the leading bits, where worth forming
                if rhs >= _LEADING_MIN:
                    side = (log_step + math.log2(tol) - _log2_norm(dpr, dpi)
                            - max(_log2_norm(nr, ni), _log2_norm(dr, di)))
                if abs(side) > err + 1e-6:
                    small = side < 0
                else:
                    small = _cross_small(nr, ni, dr, di, npr, npi, dpr, dpi, scale, tol)
            if not small:
                # a run now, or at the progression's start; else the skip test
                soon = form is not None and lhs - rhs >= _RUN_BITS
                run = 0
                if soon and k >= form[0]:
                    u = max(pr.bit_length(), qr.bit_length(), ppr.bit_length(), qpr.bit_length())
                    if pi or qi or ppi or qpi:
                        u = 1 + max(u, pi.bit_length(), qi.bit_length(), ppi.bit_length(),
                                    qpi.bit_length())
                    slack = math.floor(log_step - err - 1) + tol_bits - 4 * (mb + 1 + u)
                    run = min(_certified_run(form, k, slack), cap - k)
                if run:  # steps k+1..k+run at once; the loop checks k+run+1
                    la, an = walk.send(run)[9:11]
                    log_step += la + math.log2(an)
                    cur_in = False  # the next row's k-1 is k+run, not k
                elif not soon or k >= form[0]:
                    x_bits = math.floor((log_step - 1 - err + tol_bits - 6) / 4) - mb
                    hi = 1 << x_bits if x_bits > 0 else 0
                    lo = -hi
                    cur_in = lo < pr < hi and lo < qr < hi and lo < pi < hi and lo < qi < hi
        small_streak = small_streak + 1 if small else 0
        if small_streak >= 2:
            break
        prev_in = cur_in
    value = _quotient(nr, ni, dr, di)
    if not isinstance(value, ComplexParam):
        return value, k
    with mp.workdps(target_digits + max(10, target_digits // 4)):
        return value.to_mp(), k
