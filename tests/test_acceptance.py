"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Lines are written to the real stdout (bypassing capture) so the gate's verdict
is always visible in the test log, for passing and failing criteria alike.
"""

import json
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cfx import cli
from cfx.engine import (
    ConvergentState,
    TailSequence,
    convergents,
    equivalence_transform,
    estimate_limit,
    euler_wallis_step,
)
from cfx.families import (
    make_classical,
    make_confluent_1f1,
    make_e_euler,
    make_exp_inv_n,
    make_exp_n,
    make_exp_n_shifted,
    make_inc_gamma,
    make_m_fraction_diagonal,
    make_rat_exp,
    same_convergents,
    shifted_tail,
)
from cfx.identities import (
    CUT_PLANE_SAMPLES,
    check_beta_integral,
    check_difference_formula,
    check_lemma23,
    check_lemma42,
    check_q_closed_form,
    check_rate_bound,
    check_recurrence_solution_sec4,
    check_recurrence_solution_thm2,
    check_thm31,
    check_thm41,
    difference_formula,
)
from cfx.kernel import ComplexParam, DomainError, to_mp
from cfx.oracle import exp_series, hyp_1f1, inc_gamma_normalized


def report(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d}: {verdict} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


def run_cli_json(capsys, *argv):
    status = cli.main(list(argv))
    return status, capsys.readouterr().out


def test_criterion_01_convergent_table(capsys):
    start = time.monotonic()
    status, out = run_cli_json(
        capsys,
        "convergents", "--expansion", "e-euler", "--depth", "5", "--format", "json",
    )
    elapsed = time.monotonic() - start
    values = [r["value"] for r in json.loads(out)["rows"]]
    expected = ["3", "11/4", "49/18", "87/32", "1631/600", "11743/4320"]
    ok = status == 0 and values == expected and elapsed < 1.0
    report(1, ok, f"e-euler table exact, {elapsed:.3f}s")
    assert ok, (status, values, elapsed)


def test_criterion_02_difference_formula():
    ok = all(check_difference_formula(n, 50).passed for n in range(1, 7))
    d = {k: difference_formula(1, k) for k in (1, 2, 3, 4)}
    headline = (
        d[1] == Fraction(-1, 4)
        and d[2] == Fraction(-1, 36)
        and d[4] == Fraction(-1, 2400)
    )
    # The printed -1/784 entry must NOT reproduce; the exact value is -1/288
    # and the suite carries a discrepancy note for it.
    r1 = check_difference_formula(1, 50)
    typo_handled = d[3] != Fraction(-1, 784) and d[3] == Fraction(-1, 288) and r1.note
    ok = ok and headline and bool(typo_handled)
    report(2, ok, "exact differences n<=6, k<=50; -1/288 reported with note")
    assert ok


def test_criterion_03_denominator_closed_form():
    ok = all(check_q_closed_form(n, 100).passed for n in range(1, 11))
    report(3, ok, "raw Q_k = (1/n)(k+1)(n)_{k+1} for n<=10, k<=100")
    assert ok


def test_criterion_04_exp_n_limits_40_digits():
    start = time.monotonic()
    ok = True
    max_depth = 0
    with mp.workdps(60):
        for n in range(1, 7):
            value, depth = estimate_limit(make_exp_n(n), 40)
            max_depth = max(max_depth, depth)
            target = exp_series(n, 50).value
            ok &= abs(to_mp(value) - target) < mpf(10) ** -40 * max(1, abs(target))
            ok &= depth <= 120
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(4, ok, f"40-digit limits n=1..6, max depth {max_depth}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_rate_bound_constant_10():
    # Literal criterion: A = 10 for every n <= 4, k <= 40.  The observed
    # error/bound ratio grows like n^{n+1}/(n-1)! (about 54 at n = 3 and 243
    # at n = 4), so this criterion cannot hold as stated; it is left to fail
    # rather than weakening the constant.
    results = {n: check_rate_bound(n, 40, big_o_constant=10) for n in range(1, 5)}
    ok = all(r.passed for r in results.values())
    failing = [n for n, r in results.items() if not r.passed]
    ratios = {n: r.witness["max_ratio"] for n, r in results.items()}
    report(
        5,
        ok,
        f"|e^n - C_k| <= 10*bound for n<=4: failing n={failing}, "
        f"max error/bound ratios {ratios}",
    )
    assert ok, (
        "fixed constant A=10 is violated for n in "
        f"{failing}; measured max error/bound ratios {ratios} show the "
        "admissible constant must scale like n^(n+1)/(n-1)!"
    )


def test_criterion_06_recurrence_solutions():
    ok = all(check_recurrence_solution_thm2(n, 100).passed for n in range(1, 11))
    for n in range(2, 7):
        for l in range(1, n):
            ok &= check_recurrence_solution_sec4(Fraction(l, n), n, 50).passed
    report(6, ok, "recurrence solutions exact: n<=10 k<=100 and l/n grid k<=50")
    assert ok


def test_criterion_07_lemma23():
    ok = all(check_lemma23(z, digits=40, agree=35).passed for z in CUT_PLANE_SAMPLES)
    report(7, ok, "2F2 vs incomplete-gamma bracket to 35/40 digits on z set")
    assert ok


def test_criterion_08_thm31_and_domain():
    ok = all(check_thm31(z, digits=40, agree=30).passed for z in CUT_PLANE_SAMPLES)
    rejected = False
    try:
        make_inc_gamma(-3)
    except DomainError:
        rejected = True
    ok = ok and rejected
    report(8, ok, "fraction vs gamma oracle to 30/40 digits; z=-3 rejected")
    assert ok


def test_criterion_09_corollary32():
    ok = True
    with mp.workdps(55):
        for z in CUT_PLANE_SAMPLES:
            f1 = hyp_1f1(ComplexParam(z.re + 1, z.im), z, 40).value
            target = inc_gamma_normalized(z, 40).value
            ok &= abs(f1 - target) < mpf(10) ** -30 * max(1, abs(target))
    for n in range(1, 7):
        ok &= check_beta_integral(n, digits=23).passed
    report(9, ok, "1F1 display on z set; beta-exp integral to 20 digits n<=6")
    assert ok


def test_criterion_10_rational_exponent():
    ok = True
    for n in range(2, 7):
        for l in range(1, n):
            ok &= check_thm41(l, n, digits=30).passed
    for n in range(3, 11):
        same, _ = same_convergents(make_rat_exp(1, n), make_exp_inv_n(n), 100)
        ok &= same
    report(10, ok, "e^{l/n} to 30 digits; l=1 specialization identical to depth 100")
    assert ok


def test_criterion_11_lemma42():
    ok = all(
        check_lemma42(l, n, digits=40, agree=35).passed
        for n in range(2, 7)
        for l in range(1, n)
    )
    report(11, ok, "rational 2F2 special value to 35/40 digits on l/n grid")
    assert ok


def test_criterion_12_nonequivalence():
    e_specs = [
        make_e_euler(),
        make_classical("e-regular"),
        make_classical("e-over"),
        make_classical("e-sporadic"),
    ]
    ok = True
    for i in range(len(e_specs)):
        for j in range(i + 1, len(e_specs)):
            same, idx = same_convergents(e_specs[i], e_specs[j], 10)
            ok &= (not same) and idx is not None
    same, idx = same_convergents(make_confluent_1f1(1), make_m_fraction_diagonal(1), 10)
    ok &= (not same) and idx is not None
    with mp.workdps(40):
        limits = [to_mp(estimate_limit(s, 28)[0]) for s in e_specs]
        ok &= all(abs(limits[0] - v) < mpf(10) ** -25 * limits[0] for v in limits[1:])
        va = to_mp(estimate_limit(make_confluent_1f1(1), 28)[0])
        vb = to_mp(estimate_limit(make_m_fraction_diagonal(1), 28)[0])
        ok &= abs(va - vb) < mpf(10) ** -25 * max(1, abs(va))
    report(12, ok, "all expansion pairs differ; limits agree to 25 digits")
    assert ok


def test_criterion_13_property_suites(capsys):
    ok = True
    # Euler-Wallis determinant identity, exact to k = 200.
    for spec in (make_e_euler(), make_exp_n(3)):
        state = ConvergentState.initial(spec.head)
        prod = 1
        for k in range(1, 201):
            a_k, b_k = spec.rule.a(k), spec.rule.b(k)
            state = euler_wallis_step(state, a_k, b_k)
            prod *= a_k
            ok &= state.p_cur * state.q_prev - state.p_prev * state.q_cur == (-1) ** (k - 1) * prod
    # Tail-sequence recursion, exact to j = 200.
    for n in range(1, 7):
        tail = TailSequence(shifted_tail(n))
        rule = make_exp_n_shifted(n).rule
        ok &= all(tail.satisfies(rule, j) for j in range(1, 201))
    # Equivalence-transform value invariance, exact to depth 50.
    spec = make_exp_n(2)
    transformed = equivalence_transform(spec, lambda m: Fraction(2, 3) if m % 2 else 3)
    for c1, c2 in zip(convergents(spec, 50), convergents(transformed, 50)):
        ok &= c1.value == c2.value
    # Full verification suite wall-clock budget.
    start = time.monotonic()
    status, out = run_cli_json(capsys, "verify", "--suite", "all")
    elapsed = time.monotonic() - start
    failed = json.loads(out)["diagnostics"]["failed"]
    ok = ok and status == 0 and failed == 0 and elapsed < 60.0
    report(13, ok, f"property suites exact; full verify in {elapsed:.2f}s, {failed} failed")
    assert ok
