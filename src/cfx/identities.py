"""The claim registry: executable checks for the closed-form structural
claims, and :data:`CLAIMS`, which gives each claim id of the verification
suite its parameter grid and the digits it checks.

Each check produces a :class:`VerificationReport`.  Exact-ring claims are
checked by exact equality, never tolerances.  A claim checked against a
series oracle checks ``--digits`` less the claim's margin, with no upper cap,
by :func:`kernel.agrees`; one helper rounds, compares and prints its values
at the claim's working precision.  The ``integrals`` claim sums both integral
representations as exact series with certified tails (no quadrature) and
reports the tail bound in its witness.
The printed difference table has one wrong entry (-1/784 where exact
subtraction gives -1/288); the difference check reports -1/288 and records
the discrepancy as a note rather than failing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from mpmath import mp, mpf

from .engine import convergents, estimate_limit, raw_table
from .families import (
    first_differing_index,
    make_classical,
    make_confluent_1f1,
    make_e_euler,
    make_exp_n,
    make_inc_gamma,
    make_m_fraction_diagonal,
    make_rat_exp,
)
from .kernel import ComplexParam, ParameterError, agrees, factorial, pochhammer, to_mp
from . import oracle

# z sample set for the cut-plane checks.
CUT_PLANE_SAMPLES = (
    ComplexParam(Fraction(1, 2)),
    ComplexParam(Fraction(1)),
    ComplexParam(Fraction(2)),
    ComplexParam(Fraction(7, 2)),
    ComplexParam(Fraction(1), Fraction(1)),
    ComplexParam(Fraction(2), Fraction(3)),
    ComplexParam(Fraction(-1), Fraction(2)),
)

DIFF_TABLE_NOTE = (
    "printed difference table lists C_3 - C_2 = -1/784; exact subtraction of "
    "the printed convergents 49/18 and 87/32 gives -1/288, which also matches "
    "the closed-form difference formula. Treated as a typo; -1/288 asserted."
)


@dataclass
class VerificationReport:
    claim_id: str
    params: dict
    expected: str
    actual: str
    passed: bool
    witness: dict = field(default_factory=dict)
    note: Optional[str] = None


def _oracle_report(claim_id: str, params: dict, expected, actual, agree: int,
                   shown: int = 25, **witness) -> VerificationReport:
    """The report that ``actual`` agrees with the oracle value ``expected`` to
    ``agree`` digits.

    Call it inside the claim's working precision: both values are rounded
    there, printed to ``shown`` digits, and their difference is the witness
    ``abs_diff``, next to the extra ``witness`` fields.
    """
    x, y = to_mp(expected), to_mp(actual)
    return VerificationReport(
        claim_id=claim_id,
        params=params,
        expected=mp.nstr(x, shown),
        actual=mp.nstr(y, shown),
        passed=agrees(expected, actual, agree),
        witness={"abs_diff": mp.nstr(abs(x - y), 5), **witness},
    )


def check_recurrence_solution_thm2(n: int, k_max: int) -> VerificationReport:
    """X_k = (k+2)(k+n+1)! solves X_k = (k+2n+2)X_{k-1} - n(k+n)X_{k-2}."""
    if n < 1 or k_max < 2:
        raise ParameterError("requires n >= 1 and k_max >= 2")
    x = lambda k: (k + 2) * factorial(k + n + 1)
    bad = [
        k
        for k in range(2, k_max + 1)
        if x(k) != (k + 2 * n + 2) * x(k - 1) - n * (k + n) * x(k - 2)
    ]
    return VerificationReport(
        claim_id="recurrence2",
        params={"n": n, "k_max": k_max},
        expected="recurrence holds for 2 <= k <= k_max",
        actual="holds" if not bad else f"fails at k={bad[:5]}",
        passed=not bad,
        witness={"X_2": x(2), "X_3": x(3)},
    )


def _sec4_ratio(a: int, c: int, n: int, k: int) -> tuple[int, int]:
    """r_k = (k+1+nz)(k+2+(n-1)z)/(k+1+(n-1)z) at z = a/c as an unreduced
    integer pair (numerator, denominator)."""
    return (
        (c * (k + 1) + n * a) * (c * (k + 2) + (n - 1) * a),
        c * (c * (k + 1) + (n - 1) * a),
    )


def check_recurrence_solution_sec4(z: Fraction, n: int, k_max: int) -> VerificationReport:
    """Ratio form of X_k = Gamma(k+2+nz)(k+2+(n-1)z) against its recurrence.

    With r_k = X_k / X_{k-1} = (k+1+nz)(k+2+(n-1)z)/(k+1+(n-1)z) the
    recurrence divided through by X_{k-1} reads
    r_k = (k + z(n+1) + 2) - z(k + nz)/r_{k-1}.  With z = a/c, both sides
    are kept as unreduced integer pairs and compared by cross-multiplication,
    so the equality stays exact without a gcd per step.
    """
    if k_max < 2:
        raise ParameterError("requires k_max >= 2")
    z = Fraction(z)
    a, c = z.numerator, z.denominator
    r = {k: _sec4_ratio(a, c, n, k) for k in range(1, k_max + 1)}
    for k, (num, den) in r.items():
        if den == 0:
            raise ParameterError(f"ratio has a zero denominator k+1+(n-1)z at k={k}")
        if num == 0:
            raise ParameterError(f"ratio hits a pole at k={k}")
    bad = []
    for k in range(2, k_max + 1):
        # The right side (k + z(n+1) + 2) - z(k + nz)/r_{k-1}, as an integer pair.
        head = c * (k + 2) + a * (n + 1)
        prev_num, prev_den = r[k - 1]
        tail_num, tail_den = a * (c * k + n * a) * prev_den, c * c * prev_num
        rhs_num, rhs_den = head * tail_den - tail_num * c, c * tail_den
        num, den = r[k]
        if num * rhs_den != rhs_num * den:
            bad.append(k)
    return VerificationReport(
        claim_id="recurrence4",
        params={"z": str(z), "n": n, "k_max": k_max},
        expected="ratio-form recurrence holds for 2 <= k <= k_max",
        actual="holds" if not bad else f"fails at k={bad[:5]}",
        passed=not bad,
        witness={"r_2": str(Fraction(*r[2]))},
    )


def check_q_closed_form(n: int, k_max: int) -> VerificationReport:
    """Raw Euler-Wallis Q_k of the e^n fraction equals (1/n)(k+1)(n)_{k+1}.

    Q_k comes from the engine's raw table, so no convergent is reduced.
    The rising factorial is kept as a running integer product, and each
    Q_k is compared by the integer cross-multiplication n Q_k = (k+1)(n)_{k+1}.
    """
    if n < 1:
        raise ParameterError("requires n >= 1")
    q_raw = [q for _, q in raw_table(make_exp_n(n), k_max)]
    bad = []
    poch = 1
    for k, q in enumerate(q_raw):
        poch *= n + k
        if q * n != (k + 1) * poch:
            bad.append(k)
    return VerificationReport(
        claim_id="qform",
        params={"n": n, "k_max": k_max},
        expected="(1/n)(k+1)(n)_{k+1}",
        actual="all raw Q_k match" if not bad else f"mismatch at k={bad[:5]}",
        passed=not bad,
        witness={"Q_raw": [str(q) for q in q_raw[:6]]},
    )


def difference_formula(n: int, k: int) -> Fraction:
    """-n^{n+k+1} / ((n-1)! (n)_{k+1} (k+1) k)."""
    return -Fraction(
        n ** (n + k + 1),
        factorial(n - 1) * pochhammer(n, k + 1) * (k + 1) * k,
    )


def difference_rows(n: int, depth: int) -> Iterator[tuple[int, Fraction, Fraction, bool]]:
    """(k, C_k - C_{k-1}, closed form, n | raw numerator) of exp-n for
    k = 1..depth, from the engine's raw table.

    exp-n's finisher (alpha, beta, 0, delta) maps P/Q to
    (alpha P + beta Q)/(delta Q), so C_k - C_{k-1} is
    alpha x_k/(delta Q_k Q_{k-1}) with x_k = P_k Q_{k-1} - P_{k-1} Q_k: one
    Fraction per row, and no convergent reduced.  The closed form is
    :func:`difference_formula`, with n^{n+k+1} and (n)_{k+1} kept as running
    integer products."""
    spec = make_exp_n(n)
    alpha, _, _, delta = spec.mobius
    table = raw_table(spec, depth)
    power, poch, fact = n ** (n + 1), n, factorial(n - 1)
    for k in range(1, depth + 1):
        power *= n
        poch *= n + k
        (p_prev, q_prev), (p, q) = table[k - 1], table[k]
        # The unreduced numerator x_k of the raw convergents is divisible by n.
        raw = p * q_prev - p_prev * q
        formula = -Fraction(power, fact * poch * (k + 1) * k)
        yield k, Fraction(alpha * raw, delta * q * q_prev), formula, raw % n == 0


def check_difference_formula(n: int, k_max: int) -> VerificationReport:
    """Exact convergent subtraction against the closed-form difference."""
    if n < 1 or k_max < 1:
        raise ParameterError("requires n >= 1 and k_max >= 1")
    rows = list(difference_rows(n, k_max))
    bad = [k for k, direct, formula, divisible in rows if direct != formula or not divisible]
    note = DIFF_TABLE_NOTE if n == 1 and k_max >= 3 else None
    return VerificationReport(
        claim_id="diff",
        params={"n": n, "k_max": k_max},
        expected="C_k - C_{k-1} = -n^{n+k+1}/((n-1)!(n)_{k+1}(k+1)k), n | numerator",
        actual="exact match for all k" if not bad else f"mismatch at k={bad[:5]}",
        passed=not bad,
        witness={"first_differences": [str(direct) for _, direct, _, _ in rows[:4]]},
        note=note,
    )


def rate_constant(n: int) -> Fraction:
    """Observed big-O constant of the convergence-rate bound.

    The difference formula telescopes to
    |e^n - C_k| ~ (n^{n+1}/(n-1)!) * n^{k+1}/((k+1)(k+2)(n)_{k+2})
    as k grows, so any admissible constant must scale like n^{n+1}/(n-1)!;
    a fixed n-independent constant cannot work beyond n = 2.  The suite
    uses 10x this value as its explicit, falsifiable constant.
    """
    return 10 * Fraction(n ** (n + 1), factorial(n - 1))


def check_rate_bound(n: int, k_max: int, digits: int = 40, big_o_constant=None) -> VerificationReport:
    """|e^n - C_k| <= A n^{k+1} / ((k+1)(k+2)(n)_{k+2}) with explicit A.

    ``big_o_constant`` defaults to :func:`rate_constant`.  Also asserts the
    exact integer identity (k+1)(k+2)(1)_{k+2} = k!(k+1)^2(k+2)^2 behind the
    n = 1 rate shape.
    """
    if n < 1 or k_max < 1:
        raise ParameterError("requires n >= 1 and k_max >= 1")
    if big_o_constant is None:
        big_o_constant = rate_constant(n)
    spec = make_exp_n(n)
    convs = convergents(spec, k_max)
    algebra_ok = all(
        (k + 1) * (k + 2) * pochhammer(1, k + 2)
        == factorial(k) * (k + 1) ** 2 * (k + 2) ** 2
        for k in range(1, k_max + 1)
    )
    # The error at depth k_max decays factorially; the oracle needs enough
    # digits that the measured error is not precision-floor noise.
    eff_digits = digits + 2 * k_max + 30
    with mp.workdps(eff_digits + 15):
        target = oracle.exp_series(n, eff_digits).value
        a_const = to_mp(big_o_constant)
        max_ratio = mpf(0)
        offending = None
        poch = pochhammer(mpf(n), 2)  # (n)_{k+2}, one factor more each k
        for k in range(1, k_max + 1):
            err = abs(target - to_mp(convs[k].value))
            poch *= n + k + 1
            bound = mpf(n) ** (k + 1) / ((k + 1) * (k + 2) * poch)
            ratio = err / bound
            if ratio > max_ratio:
                max_ratio = ratio
            if err > a_const * bound and offending is None:
                offending = k
    passed = offending is None and algebra_ok
    return VerificationReport(
        claim_id="rate",
        params={"n": n, "k_max": k_max, "A": str(big_o_constant)},
        expected=f"|e^n - C_k| <= {big_o_constant} * n^(k+1)/((k+1)(k+2)(n)_(k+2))",
        actual=(
            f"max observed ratio {mp.nstr(max_ratio, 6)}"
            if passed
            else f"bound violated at k={offending}" if offending is not None else "algebraic identity failed"
        ),
        passed=passed,
        witness={"max_ratio": mp.nstr(max_ratio, 8), "algebra_ok": algebra_ok},
    )


def check_lemma23(z: ComplexParam, digits: int = 40, agree: int = 35) -> VerificationReport:
    """2F2(1,1;3,z+2;z) = (2(z+1)/z^2)(1 + z - gamma(z,z)/(z^{z-1}e^{-z}))."""
    with mp.workdps(digits + 15):
        zv = z.to_mp()
        lhs = oracle.hyp_2f2(1, 1, 3, z + 2, z, digits).value
        g = oracle.inc_gamma_normalized(z, digits).value
        rhs = 2 * (zv + 1) / zv**2 * (1 + zv - g)
        params = {"z": str(z), "digits": digits, "agree": agree}
        return _oracle_report("lemma23", params, lhs, rhs, agree, shown=min(agree, 25))


def check_lemma42(l: int, n: int, digits: int = 40, agree: int = 35) -> VerificationReport:
    """The rational-exponent 2F2 special value against its bracket form.

    The gamma-function ratio Gamma(x+3)/Gamma(x+1) with x = (n-1)l/n is
    (x+1)(x+2), kept exact.  The bracket's e^{l/n} less its Taylor polynomial
    of degree l is summed as (l/n)^{l+1}/(l+1)! 1F1(1; l+2; l/n), so no
    digits cancel.
    """
    if not (1 <= l < n):
        raise ParameterError("requires 1 <= l < n")
    x = Fraction((n - 1) * l, n)
    with mp.workdps(digits + 15):
        z = Fraction(l, n)
        lhs = oracle.hyp_2f2(x + 1, 1, l + 2, x + 3, z, digits).value
        gamma_ratio = (x + 1) * (x + 2)
        pref = to_mp(Fraction(factorial(l + 1) * n ** (l + 1), l ** (l + 1)) * gamma_ratio)
        remainder = to_mp(z ** (l + 1) / factorial(l + 1)) * oracle.hyp_1f1(l + 2, z, digits).value
        bracket = (
            -mpf(n) / l * remainder
            + to_mp(Fraction(l ** (l - 1), factorial(l - 1) * n ** (l - 1)))
            * to_mp(Fraction(1, (n + 1) * (l + 1) - 1 - 2 * l))
        )
        params = {"l": l, "n": n, "digits": digits, "agree": agree}
        return _oracle_report("lemma42", params, lhs, pref * bracket, agree)


def check_thm31(z: ComplexParam, digits: int = 40, agree: int = 30) -> VerificationReport:
    """Fraction limit against the normalized incomplete-gamma series.

    Also cross-checks that series, 1F1(1; z+1; z), against its Kummer form
    e^z 1F1(z; z+1; -z), the first display of the confluent-function corollary.
    """
    spec = make_inc_gamma(z)
    value, depth = estimate_limit(spec, digits)
    with mp.workdps(digits + 15):
        target = oracle.inc_gamma_normalized(z, digits).value
        kummer = oracle.exp_series(z, digits).value * oracle.hyp_sum((z,), (z + 1, 1), -z, digits).value
        params = {"z": str(z), "digits": digits, "agree": agree}
        report = _oracle_report("thm31", params, target, value, agree, depth=depth)
    report.passed = report.passed and agrees(target, kummer, agree)
    return report


def _exp_value(z: Fraction, digits: int, sums: Optional[dict]):
    """exp_series(z, digits).value, summed once per (z, digits) in ``sums``
    when a claim's grid passes one: l/n and 2l/2n are the same sum."""
    if sums is None:
        return oracle.exp_series(z, digits).value
    if (z, digits) not in sums:
        sums[z, digits] = oracle.exp_series(z, digits).value
    return sums[z, digits]


def check_thm41(l: int, n: int, digits: int = 30, exp_sums: Optional[dict] = None) -> VerificationReport:
    """Rational-exponent fraction against exp_series(l/n).

    ``exp_sums`` is a dict that the checks of one grid share, so that each
    reduced ratio l/n is summed once."""
    spec = make_rat_exp(l, n)
    value, depth = estimate_limit(spec, digits + 5)
    with mp.workdps(digits + 15):
        target = _exp_value(Fraction(l, n), digits + 5, exp_sums)
        params = {"l": l, "n": n, "digits": digits}
        return _oracle_report("thm41", params, target, value, digits, depth=depth)


# The integral checks sum their series to ``digits`` and compare
# ``digits - INTEGRAL_MARGIN`` digits, the margin of the integrals claim.
INTEGRAL_MARGIN = 3


def check_rational_integral(l: int, n: int, digits: int = 25,
                            exp_sums: Optional[dict] = None) -> VerificationReport:
    """int_0^1 t^{-l/n} e^{tl/n} (l(t-1)+n) dt = n e^{l/n}: the certified
    integral series against exp_series(l/n), to ``digits`` - 3 digits.
    ``exp_sums`` is as in :func:`check_thm41`."""
    series = oracle.exp_rational_integral(l, n, digits)
    with mp.workdps(digits + 15):
        rhs = n * _exp_value(Fraction(l, n), digits, exp_sums)
        params = {"kind": "rational-kernel", "l": l, "n": n, "digits": digits}
        return _oracle_report("integrals", params, rhs, series.value, digits - INTEGRAL_MARGIN,
                              shown=20, tail_bound=mp.nstr(to_mp(series.tail_bound), 5))


def check_beta_integral(n: int, digits: int = 25) -> VerificationReport:
    """int_0^1 (1-t)^{n-1} e^{tn} dt = (1/n)(1 + n + K): the certified
    integral series against the fraction, to ``digits`` - 3 digits."""
    series = oracle.beta_exp_integral(n, digits)
    spec = make_exp_n(n)
    cf_value, depth = estimate_limit(spec, digits + 5)
    # Invert the affine finisher C = (alpha w + beta)/delta:
    # (1/n)(1+n+K) = w/n = (C delta - beta)/(alpha n).
    alpha, beta, _, delta = spec.mobius
    cf_side = (cf_value * delta - beta) / (alpha * n)
    with mp.workdps(digits + 15):
        params = {"kind": "beta-exp", "n": n, "digits": digits}
        return _oracle_report("integrals", params, cf_side, series.value, digits - INTEGRAL_MARGIN,
                              shown=20, cf_depth=depth, tail_bound=mp.nstr(to_mp(series.tail_bound), 5))


# The nonequiv claim compares convergents at depths 0..NONEQUIV_DEPTH and
# limits to NONEQUIV_DIGITS digits, whatever the suite's grid.
NONEQUIV_DEPTH = 10
NONEQUIV_DIGITS = 25


def check_nonequivalence() -> VerificationReport:
    """All e-expansions differ pairwise as sequences; so do the two
    1F1 expansions at z = 1.  Limits of each group agree to NONEQUIV_DIGITS
    digits."""
    groups = (
        [make_e_euler(), *(make_classical(fid) for fid in ("e-regular", "e-over", "e-sporadic"))],
        [make_confluent_1f1(1), make_m_fraction_diagonal(1)],
    )
    pair_results = {}
    limits_ok = True
    for specs in groups:
        tables = [convergents(s, NONEQUIV_DEPTH) for s in specs]
        for (a, table_a), (b, table_b) in itertools.combinations(zip(specs, tables), 2):
            pair_results[f"{a.name} vs {b.name}"] = first_differing_index(table_a, table_b)
        limits = [estimate_limit(s, NONEQUIV_DIGITS + 3)[0] for s in specs]
        limits_ok &= all(agrees(limits[0], v, NONEQUIV_DIGITS) for v in limits[1:])
    all_differ = None not in pair_results.values()
    return VerificationReport(
        claim_id="nonequiv",
        params={"depth": NONEQUIV_DEPTH, "digits": NONEQUIV_DIGITS},
        expected="every pair differs; limits agree",
        actual="ok" if all_differ and limits_ok else f"differ={all_differ}, limits={limits_ok}",
        passed=all_differ and limits_ok,
        witness={"first_differing_index": pair_results},
    )


@dataclass(frozen=True)
class Claim:
    """One claim of the verification suite.

    ``grid(max_n, k_max, digits, agree)`` yields the claim's reports over its
    parameter grid.  A claim checked against an oracle to a tolerance checks
    ``agree = digits - margin`` digits, however large ``digits`` is; an
    exact claim has ``margin = None`` and gets ``agree = None``.  ``min_n`` is
    the smallest ``max_n`` the claim accepts: 1, as on the command line, or 2
    for a grid over (l, n), which yields no report below it.
    """

    id: str
    grid: Callable[[int, int, int, Optional[int]], Iterable[VerificationReport]]
    margin: Optional[int] = None
    min_n: int = 1

    def agree(self, digits: int) -> Optional[int]:
        return None if self.margin is None else digits - self.margin


def _pairs(max_n: int):
    """The (l, n) grid 1 <= l < n <= max_n, by n then l."""
    return ((l, n) for n in range(2, max_n + 1) for l in range(1, n))


def _thm41_grid(max_n, k_max, digits, agree):
    sums = {}  # one exp_series per reduced l/n in this grid
    return (check_thm41(l, n, digits=agree, exp_sums=sums) for l, n in _pairs(max_n))


def _integrals_grid(max_n, k_max, digits, agree):
    sums = {}  # one exp_series per reduced l/n in this grid
    return itertools.chain(
        (check_beta_integral(n, digits) for n in range(1, max_n + 1)),
        (check_rational_integral(l, n, digits, exp_sums=sums) for l, n in _pairs(max_n)),
    )


# The grids name their check functions in their bodies, so that a check is
# looked up when the grid runs, not bound once at import.
CLAIMS = {claim.id: claim for claim in (
    Claim("recurrence2", lambda max_n, k_max, digits, agree: (
        check_recurrence_solution_thm2(n, k_max) for n in range(1, max_n + 1))),
    Claim("recurrence4", lambda max_n, k_max, digits, agree: (
        check_recurrence_solution_sec4(Fraction(l, n), n, k_max) for l, n in _pairs(max_n)),
        min_n=2),
    Claim("qform", lambda max_n, k_max, digits, agree: (
        check_q_closed_form(n, k_max) for n in range(1, max_n + 1))),
    Claim("diff", lambda max_n, k_max, digits, agree: (
        check_difference_formula(n, k_max) for n in range(1, max_n + 1))),
    # The rate oracle sums to digits + 2 k_max + 30 digits: the grid stops at depth 40.
    Claim("rate", lambda max_n, k_max, digits, agree: (
        check_rate_bound(n, min(k_max, 40), digits) for n in range(1, max_n + 1))),
    Claim("lemma23", lambda max_n, k_max, digits, agree: (
        check_lemma23(z, digits, agree=agree) for z in CUT_PLANE_SAMPLES), margin=5),
    Claim("lemma42", lambda max_n, k_max, digits, agree: (
        check_lemma42(l, n, digits, agree=agree) for l, n in _pairs(max_n)),
        margin=5, min_n=2),
    Claim("thm31", lambda max_n, k_max, digits, agree: (
        check_thm31(z, digits, agree=agree) for z in CUT_PLANE_SAMPLES), margin=10),
    Claim("thm41", _thm41_grid, margin=0, min_n=2),
    Claim("integrals", _integrals_grid, margin=INTEGRAL_MARGIN),
    Claim("nonequiv", lambda max_n, k_max, digits, agree: [check_nonequivalence()]),
)}
SUITE_IDS = tuple(CLAIMS)


def run_suite(
    selection,
    max_n: int = 6,
    k_max: int = 50,
    digits: int = 40,
) -> list[VerificationReport]:
    """Run the selected checks over the default parameter grid.

    ``selection`` is an iterable of suite ids (see SUITE_IDS), the string
    "all", or one id as a string.  Reports come back sorted by claim id then
    parameters.  An unknown or repeated id, a claim that would check fewer than
    one digit at ``digits``, or one whose ``min_n`` exceeds ``max_n`` is a ParameterError.
    """
    if isinstance(selection, str):
        selection = SUITE_IDS if selection == "all" else [selection]
    selection = list(selection)
    unknown = [s for s in selection if s not in CLAIMS]
    if unknown:
        raise ParameterError(f"unknown suite ids: {unknown}")
    repeated = sorted({s for s in selection if selection.count(s) > 1})
    if repeated:
        raise ParameterError(f"repeated suite ids: {repeated}")
    claims = [CLAIMS[s] for s in selection]
    for claim in claims:
        if max_n < claim.min_n:
            raise ParameterError(f"{claim.id} needs --max-n >= {claim.min_n}, not {max_n}")
        agree = claim.agree(digits)
        if agree is not None and agree < 1:
            raise ParameterError(
                f"{claim.id} would check {agree} digits; it needs --digits >= {claim.margin + 1}"
            )
    reports: list[VerificationReport] = []
    for claim in claims:
        reports.extend(claim.grid(max_n, k_max, digits, claim.agree(digits)))
    reports.sort(key=lambda r: (r.claim_id, sorted(r.params.items(), key=str).__repr__()))
    return reports
