"""The family registry: :data:`FAMILIES` holds, for every continued-fraction
family the library handles, its parameters, its constructor, the constant it
converges to and an independent oracle for that constant.

Every family runs in one exact ring, so identity checks against them are
exact equalities.  A free complex parameter is stored exactly (as
:class:`ComplexParam`).  Every rule but those of the three regular fixtures
(e-regular, e-squared and e-one-over-M, whose partial denominators run in
periodic blocks) is affine in m past at most one exception at m = 1, and
:func:`_linear` builds each such rule from the paper's formula: it takes
the two coefficients once, at build time, in the integer form (p + iq)/d of
:func:`~cfx.kernel.gaussian`, and reduces each value once, to a Fraction when
every parameter is real, else to a ComplexParam with one Fraction per part.
Each such rule also carries that cleared form, the progression
(A0 + A1 m)/D with the index it holds from (2 after an exception at m = 1,
as the M-fraction's a_1 = b), and the engine steps on it by addition with the
constant scale D.  The paper's e and e^n fractions are the incomplete-gamma
fraction 1 + z + K(-z(m+z-1)/(m+2z+1)) at z = 1 (head 3, with the prefix 1
folded in) and at z = n (with a finisher); :func:`_gamma_rule` is that rule.
Finishers are Moebius matrices (:func:`~cfx.engine.mobius`).

The rational-exponent family deserves a note.  The printed closed form for
e^{l/n} scales the inner fraction K by n inside the bracket denominator, but
that form does not reproduce e^{l/n}; back-solving the (numerically exact)
identity in its derivation shows the factor must be (n-1)^2/n:

    e^{l/n} = sum_{k<=l} l^k/(k! n^k)
              + c * [ 1/(n(n-1)) - 1/((n-1)(n+l(n-1)) + ((n-1)^2/n) K) ],

with c = l^{l-1}/(n^{l-1}(l-1)!) and K the fraction with
a_m = -l n (m-1+l), b_m = n(m+1) + (n+1) l.  This module implements the
corrected form, folded into one Moebius matrix; the verification suite
confirms it against the series oracle for every admissible (l, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from . import oracle
from .engine import (
    CoefficientRule,
    Convergent,
    ExpansionSpec,
    convergents,
    mobius,
    waadeland_limit,
)
from .kernel import ComplexParam, ParameterError, Scalar, cut_plane_point, factorial, gaussian


def _linear(alpha, beta, first=None):
    """The rule m -> alpha + beta m for int, Fraction or ComplexParam alpha
    and beta, with the value ``first`` at m = 1 when it is given.  Each other
    value is one reduced Fraction per part: a ComplexParam exactly when alpha
    or beta is one, as ComplexParam arithmetic would give it, else a Fraction.

    The rule carries alpha and beta cleared over one denominator d, as the
    attributes ``progression`` = (Re, Im of d alpha, Re, Im of d beta, d) and
    ``start``, the first m it holds for (2 with ``first``, else 1):
    :func:`~cfx.engine._raw_convergents` steps on it by adding d beta, and
    calls the rule only before ``start``."""
    (pa, qa, da), (pb, qb, db) = gaussian(alpha), gaussian(beta)
    d = math.lcm(da, db)
    pa, qa, pb, qb = pa * (d // da), qa * (d // da), pb * (d // db), qb * (d // db)
    is_complex = isinstance(alpha, ComplexParam) or isinstance(beta, ComplexParam)
    start = 1 if first is None else 2

    def rule(m: int) -> Scalar:
        if m < start:
            return first
        re = Fraction(pa + pb * m, d)
        return ComplexParam(re, Fraction(qa + qb * m, d)) if is_complex else re

    rule.progression, rule.start = (pa, qa, pb, qb, d), start
    return rule


def _gamma_rule(z) -> CoefficientRule:
    """The rule K(-z(m+z-1)/(m+2z+1)) of the incomplete-gamma fraction
    1 + z + K(...); e and e^n take it at z = 1 and z = n."""
    return CoefficientRule(a=_linear(-z * (z - 1), -z), b=_linear(2 * z + 1, 1))


def make_e_euler() -> ExpansionSpec:
    """e = 3 - 1/4 - 2/5 - 3/6 - ..., the n = 1 case of :func:`make_exp_n`."""
    return ExpansionSpec(name="e-euler", head=3, rule=_gamma_rule(1))


def make_exp_n(n: int) -> ExpansionSpec:
    """e^n = sum_{k<n} n^k/k! + (n^{n-1}/(n-1)!) (1 + n + K(-n(m+n-1)/(m+2n+1)))."""
    if n < 1:
        raise ParameterError("exp-n requires n >= 1")
    prefix = sum(Fraction(n**k, factorial(k)) for k in range(n))
    scale = Fraction(n ** (n - 1), factorial(n - 1))
    return ExpansionSpec(name=f"exp-n(n={n})", head=1 + n, rule=_gamma_rule(n),
                         mobius=mobius(scale, prefix))


def make_exp_n_shifted(n: int) -> ExpansionSpec:
    """The index-shifted fraction K(-n(m+n)/(m+2n+2)); converges to the
    Waadeland value -2(n+1)(1 - 1/Sigma_inf)."""
    if n < 1:
        raise ParameterError("exp-n-shifted requires n >= 1")
    return ExpansionSpec(name=f"exp-n-shifted(n={n})", head=0,
                         rule=CoefficientRule(a=_linear(-n * n, -n), b=_linear(2 * n + 2, 1)))


def shifted_tail(n: int):
    """The tail sequence t_j = -(j+n+1)(j+2)/(j+1) of the shifted fraction."""
    return lambda j: Fraction(-(j + n + 1) * (j + 2), j + 1)


def make_inc_gamma(z) -> ExpansionSpec:
    """gamma(z,z)/(z^{z-1} e^{-z}) = 1 + z + K(-z(m+z-1)/(m+2z+1)) on the cut plane."""
    z = cut_plane_point(z)
    return ExpansionSpec(f"inc-gamma(z={z})", 1 + z.value, _gamma_rule(z.value))


def make_confluent_1f1(z) -> ExpansionSpec:
    """1F1(1; z+1; z), same fraction as the incomplete-gamma family."""
    z = cut_plane_point(z)
    return ExpansionSpec(f"confluent-1f1(z={z})", 1 + z.value, _gamma_rule(z.value))


def make_m_fraction(b, z) -> ExpansionSpec:
    """M-fraction b/(b-z) + K(mz/(b+m-z)) for 1F1(1; b+1; z).

    Modeled with head 0, a_1 = b, b_1 = b - z, a_{m+1} = m z,
    b_{m+1} = b + m - z.  For b = z the first partial denominator is zero;
    the index-1 convergent is singular but the fraction still converges.
    """
    b = ComplexParam.coerce(b)
    z = ComplexParam.coerce(z)
    if b.is_nonpositive_integer:
        raise ParameterError(f"b = {b} is a non-positive integer")
    if z == 0:
        # 1F1(1; b+1; 0) = 1: no K terms remain.
        return ExpansionSpec(name=f"m-fraction(b={b},z=0)", head=1, rule=None)
    b, z = b.value, z.value
    return ExpansionSpec(name=f"m-fraction(b={b},z={z})", head=0,
                         rule=CoefficientRule(a=_linear(-z, z, first=b), b=_linear(b - z - 1, 1)))


def make_m_fraction_diagonal(z) -> ExpansionSpec:
    """The b = z specialization of the M-fraction, valid on the cut plane."""
    z = cut_plane_point(z)
    return replace(make_m_fraction(z, z), name=f"m-fraction-diagonal(z={z})")


def make_rat_exp(l: int, n: int) -> ExpansionSpec:
    """e^{l/n} for integers 1 <= l < n, via the corrected two-level bracket."""
    if not (1 <= l < n):
        raise ParameterError("rat-exp requires 1 <= l < n")
    prefix = sum(Fraction(l**k, factorial(k) * n**k) for k in range(l + 1))
    scale = Fraction(l ** (l - 1), n ** (l - 1) * factorial(l - 1))
    base = Fraction(1, n * (n - 1))
    shift = Fraction((n - 1) * (n + l * (n - 1)))
    cf_coeff = Fraction((n - 1) ** 2, n)
    # prefix + scale * (base - 1/(shift + cf_coeff * w)) as one matrix.
    return ExpansionSpec(
        name=f"rat-exp(l={l},n={n})",
        head=0,
        rule=CoefficientRule(a=_linear(-l * n * (l - 1), -l * n), b=_linear(n + (n + 1) * l, n)),
        mobius=mobius(
            cf_coeff * (scale * base + prefix),
            scale * (base * shift - 1) + prefix * shift,
            cf_coeff,
            shift,
        ),
    )


def make_exp_inv_n(n: int) -> ExpansionSpec:
    """e^{1/n} for n > 2: the l = 1 specialization of the rational family."""
    if n <= 2:
        raise ParameterError("exp-inv-n requires n > 2")
    return replace(make_rat_exp(1, n), name=f"exp-inv-n(n={n})")


def _regular(name: str, head: int, blocks: tuple) -> ExpansionSpec:
    """The regular fraction [head; b_1, b_2, ...] whose partial denominators
    run in blocks of len(blocks): b_{j len(blocks) + r + 1} = c + s j for
    blocks[r] = (c, s) and j = 0, 1, ..."""
    size = len(blocks)

    def b(m: int) -> int:
        j, r = divmod(m - 1, size)
        c, s = blocks[r]
        return c + s * j

    return ExpansionSpec(name=name, head=head, rule=CoefficientRule(a=lambda m: 1, b=b))


def _e_one_over_m(M: int) -> ExpansionSpec:
    if M <= 1:
        raise ParameterError("e-one-over-M requires M > 1")
    # Blocks ((2j+1)M - 1, 1, 1).
    return _regular(f"e-one-over-M(M={M})", 1, ((M - 1, 2 * M), (1, 0), (1, 0)))


# Parse type of every family parameter (a CLI flag of the same name), in the
# order the CLI echoes them.
PARAMS = {"n": int, "l": int, "M": int, "z": ComplexParam.parse, "b": ComplexParam.parse}


@dataclass(frozen=True)
class Family:
    """One continued-fraction family.

    ``params`` names the parameters of ``build``, in its argument order.
    ``label(params)`` names the constant the family converges to: families
    with equal labels have equal limits.  ``oracle(params, digits)`` is an
    independent series value of that constant at the ambient mpmath
    precision.
    """

    id: str
    params: tuple[str, ...]
    build: Callable[..., ExpansionSpec]
    label: Callable[[dict], str]
    oracle: Callable[[dict, int], object]


def _exp(exponent: Callable[[dict], "int | Fraction"]) -> dict:
    """``label`` and ``oracle`` of a family converging to e^exponent(params)."""

    def label(params: dict) -> str:
        x = Fraction(exponent(params))
        if x == 1:
            return "e"
        return f"e^{x}" if x.denominator == 1 else f"e^({x})"

    return {"label": label,
            "oracle": lambda params, digits: oracle.exp_series(exponent(params), digits).value}


_E = _exp(lambda p: 1)
# gamma(z,z)/(z^(z-1)e^(-z)) = 1F1(1; z+1; z), the target of three families.
_DIAG = {"label": lambda p: "1f1-diag",
         "oracle": lambda p, digits: oracle.inc_gamma_normalized(p["z"], digits).value}

# The five classical e fixtures the paper's families are compared with.  The
# sqrt-style e^{1/M} fraction continues its displayed terms with the period-3
# pattern ((2j+1)M-1, 1, 1); the sporadic expansion continues its
# denominators 1, 6, 10, 14, ... as 4m-2 for m >= 2.  Both continuations are
# inferred from the printed initial terms and are validated against the
# series oracle in the test suite.
_CLASSICAL = (
    # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, 1, ...], triples (1, 2j+2, 1).
    Family("e-regular", (), lambda: _regular("e-regular", 2, ((1, 0), (2, 2), (1, 0))), **_E),
    Family("e-over", (), lambda: ExpansionSpec(
        "e-over", 2, CoefficientRule(a=_linear(1, 1), b=_linear(1, 1))), **_E),
    Family("e-sporadic", (), lambda: ExpansionSpec("e-sporadic", 1, CoefficientRule(
        a=_linear(1, 0, first=2), b=_linear(-2, 4, first=1))), **_E),
    # e^2 = [7; 3j+2, 1, 1, 3j+3, 12j+18], j = 0, 1, 2, ...
    Family("e-squared", (), lambda: _regular(
        "e-squared", 7, ((2, 3), (1, 0), (1, 0), (3, 3), (18, 12))), **_exp(lambda p: 2)),
    Family("e-one-over-M", ("M",), _e_one_over_m, **_exp(lambda p: Fraction(1, p["M"]))),
)
FAMILIES = {family.id: family for family in (
    Family("e-euler", (), make_e_euler, **_E),
    Family("exp-n", ("n",), make_exp_n, **_exp(lambda p: p["n"])),
    # The Waadeland value from the tail's first term t_0 = -2(n+1) and
    # Lemma 2.3's tail-product sum Sigma_inf = 2F2(1,1;3,n+2;n).
    Family("exp-n-shifted", ("n",), make_exp_n_shifted, lambda p: f"shifted({p['n']})",
           lambda p, digits: waadeland_limit(shifted_tail(p["n"])(0), oracle.hyp_2f2(
               1, 1, 3, p["n"] + 2, p["n"], digits).value)),
    Family("inc-gamma", ("z",), make_inc_gamma, **_DIAG),
    Family("confluent-1f1", ("z",), make_confluent_1f1, **_DIAG),
    Family("m-fraction", ("b", "z"), make_m_fraction, lambda p: f"1f1(b={p['b']})",
           lambda p, digits: oracle.hyp_1f1(ComplexParam.coerce(p["b"]) + 1, p["z"],
                                            digits).value),
    Family("m-fraction-diagonal", ("z",), make_m_fraction_diagonal, **_DIAG),
    Family("rat-exp", ("l", "n"), make_rat_exp, **_exp(lambda p: Fraction(p["l"], p["n"]))),
    Family("exp-inv-n", ("n",), make_exp_inv_n, **_exp(lambda p: Fraction(1, p["n"]))),
    *_CLASSICAL,
)}
FAMILY_IDS = tuple(FAMILIES)


def make_family(family_id: str, **params) -> ExpansionSpec:
    """Build a family from its id and parameters; parameters it does not take
    are ignored."""
    family = FAMILIES.get(family_id)
    if family is None:
        raise ParameterError(f"unknown family {family_id!r}")
    for key in family.params:
        if params.get(key) is None:
            raise ParameterError(f"missing required parameter --{key}")
    return family.build(*(params[key] for key in family.params))


def make_classical(family_id: str, **params) -> ExpansionSpec:
    """One of the five classical comparison fixtures, by id."""
    if not any(family.id == family_id for family in _CLASSICAL):
        raise ParameterError(f"unknown classical family {family_id!r}")
    return make_family(family_id, **params)


def first_differing_index(table_a: list[Convergent], table_b: list[Convergent]) -> Optional[int]:
    """The first k at which two convergent tables differ in reduced value,
    exactly, or None if they agree at every k both hold."""
    return next((a.k for a, b in zip(table_a, table_b) if a.value != b.value), None)


def same_convergents(
    spec_a: ExpansionSpec,
    spec_b: ExpansionSpec,
    depth: int,
) -> tuple[bool, Optional[int]]:
    """Compare reduced convergent values at depths 0..depth, exactly.

    Returns (True, None) on full agreement, else (False, first_index).
    """
    k = first_differing_index(convergents(spec_a, depth), convergents(spec_b, depth))
    return k is None, k
