import dataclasses
import itertools
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cfx import identities, oracle
from cfx.engine import convergents, estimate_limit, raw_table
from cfx.families import (
    make_classical,
    make_confluent_1f1,
    make_e_euler,
    make_exp_n,
    make_m_fraction_diagonal,
    same_convergents,
)
from cfx.identities import (
    VerificationReport,
    CLAIMS,
    CUT_PLANE_SAMPLES,
    DIFF_TABLE_NOTE,
    SUITE_IDS,
    check_beta_integral,
    check_difference_formula,
    check_lemma23,
    check_lemma42,
    check_nonequivalence,
    check_q_closed_form,
    check_rate_bound,
    check_rational_integral,
    check_recurrence_solution_sec4,
    check_recurrence_solution_thm2,
    check_thm31,
    check_thm41,
    difference_formula,
    rate_constant,
    run_suite,
)
from cfx.kernel import ComplexParam, ParameterError, agrees, factorial, pochhammer, to_mp
from cfx.oracle import exp_series


def test_recurrence_solution_thm2_passes():
    for n in (1, 2, 5, 10):
        assert check_recurrence_solution_thm2(n, 100).passed


def test_recurrence_solution_sec4_passes():
    for n in range(2, 7):
        for l in range(1, n):
            assert check_recurrence_solution_sec4(Fraction(l, n), n, 50).passed


def test_q_closed_form_passes():
    for n in (1, 2, 5, 10):
        assert check_q_closed_form(n, 100).passed
    assert check_q_closed_form(3, 0).witness == {"Q_raw": ["1"]}
    for depth in (-1, True, 2.0, "3"):
        with pytest.raises(ParameterError, match="depth must be >= 0"):
            check_q_closed_form(3, depth)


def reference_sec4(z, n, k_max):
    """The ratio-form recurrence check in Fraction arithmetic, r_k rebuilt at every use."""
    z = Fraction(z)
    r = lambda k: Fraction((k + 1 + n * z) * (k + 2 + (n - 1) * z), 1) / (k + 1 + (n - 1) * z)
    for k in range(1, k_max + 1):
        if r(k) == 0:
            raise ParameterError(f"ratio hits a pole at k={k}")
    bad = [
        k
        for k in range(2, k_max + 1)
        if r(k) != (k + z * (n + 1) + 2) - z * (k + n * z) / r(k - 1)
    ]
    return VerificationReport(
        claim_id="recurrence4",
        params={"z": str(z), "n": n, "k_max": k_max},
        expected="ratio-form recurrence holds for 2 <= k <= k_max",
        actual="holds" if not bad else f"fails at k={bad[:5]}",
        passed=not bad,
        witness={"r_2": str(r(2))},
    )


def reference_qform(n, k_max):
    """The closed-form Q_k check with a Fraction Pochhammer symbol recomputed per k."""
    convs = convergents(make_exp_n(n), k_max)
    closed = lambda k: Fraction((k + 1) * pochhammer(Fraction(n), k + 1), n)
    bad = [k for k in range(k_max + 1) if convs[k].q_raw != closed(k)]
    return VerificationReport(
        claim_id="qform",
        params={"n": n, "k_max": k_max},
        expected="(1/n)(k+1)(n)_{k+1}",
        actual="all raw Q_k match" if not bad else f"mismatch at k={bad[:5]}",
        passed=not bad,
        witness={"Q_raw": [str(c.q_raw) for c in convs[: min(6, k_max + 1)]]},
    )


@pytest.mark.parametrize("k_max", [2, 50, 200])
def test_exact_claims_match_fraction_reference(k_max):
    for n in range(2, 9):
        for l in range(1, n):
            z = Fraction(l, n)
            assert check_recurrence_solution_sec4(z, n, k_max) == reference_sec4(z, n, k_max)
    for n in range(1, 9):
        assert check_q_closed_form(n, k_max) == reference_qform(n, k_max)


@pytest.mark.parametrize("z, n", [(Fraction(7, 3), 4), (Fraction(-5, 7), 3), (Fraction(1, 9), 1)])
def test_recurrence_sec4_matches_reference_off_grid(z, n):
    assert check_recurrence_solution_sec4(z, n, 40) == reference_sec4(z, n, 40)


def test_q_closed_form_reports_a_wrong_q(monkeypatch):
    table = identities.raw_table

    def off_by_one(spec, depth):
        rows = table(spec, depth)
        rows[7] = rows[7][0], rows[7][1] + 1
        return rows

    monkeypatch.setattr(identities, "raw_table", off_by_one)
    report = check_q_closed_form(3, 20)
    assert not report.passed
    assert report.actual == "mismatch at k=[7]"


def test_recurrence_sec4_reports_a_wrong_ratio(monkeypatch):
    ratio = identities._sec4_ratio

    def perturbed(a, c, n, k):
        num, den = ratio(a, c, n, k)
        return (num + den, den) if k == 5 else (num, den)

    monkeypatch.setattr(identities, "_sec4_ratio", perturbed)
    report = check_recurrence_solution_sec4(Fraction(1, 3), 3, 20)
    assert not report.passed
    # r_5 enters the equation at k = 5 and, as r_{k-1}, at k = 6.
    assert report.actual == "fails at k=[5, 6]"


@pytest.mark.parametrize(
    "z, n, k_max, message",
    [
        (Fraction(1, 2), 2, 1, "requires k_max >= 2"),
        (Fraction(-2), 2, 5, "zero denominator k\\+1\\+\\(n-1\\)z at k=1"),
        (Fraction(-1), 2, 5, "pole at k=1"),
    ],
)
def test_recurrence_sec4_rejects(z, n, k_max, message):
    with pytest.raises(ParameterError, match=message):
        check_recurrence_solution_sec4(z, n, k_max)


def test_difference_formula_passes_and_is_negative():
    for n in range(1, 6):
        report = check_difference_formula(n, 50)
        assert report.passed
        assert all(difference_formula(n, k) < 0 for k in range(1, 51))


def test_difference_formula_tests_the_raw_numerator(monkeypatch):
    # Reduced pairs leave every value, so every difference, unchanged; only
    # the divisibility of the raw numerator P_k Q_{k-1} - P_{k-1} Q_k by n
    # can tell them from the engine's raw table.
    def reduced(spec, depth):
        pairs = [Fraction(p, q) for p, q in raw_table(spec, depth)]
        return [(w.numerator, w.denominator) for w in pairs]

    monkeypatch.setattr(identities, "raw_table", reduced)
    rows = list(identities.difference_rows(2, 10))
    assert all(direct == formula for _, direct, formula, _ in rows)
    assert [k for k, _, _, divisible in rows if not divisible] == [2, 3, 4, 6, 7, 8]
    report = check_difference_formula(2, 10)
    assert not report.passed
    assert report.actual == "mismatch at k=[2, 3, 4, 6, 7]"


def test_difference_formula_note_on_n1():
    assert check_difference_formula(1, 5).note == DIFF_TABLE_NOTE
    assert check_difference_formula(2, 5).note is None
    assert check_difference_formula(1, 2).note is None


def test_difference_formula_telescopes():
    # C_K = C_0 + sum of the closed-form differences, exactly.
    for n in range(1, 5):
        convs = convergents(make_exp_n(n), 30)
        total = convs[0].value + sum(difference_formula(n, k) for k in range(1, 31))
        assert total == convs[30].value


def test_difference_rows_match_closed_form():
    for n in range(1, 7):
        rows = list(identities.difference_rows(n, 60))
        assert [k for k, *_ in rows] == list(range(1, 61))
        assert all(formula == difference_formula(n, k) for k, _, formula, _ in rows)


def reference_rate(n, k_max, digits=40, big_o_constant=None):
    """The rate-bound report with (n)_{k+2} recomputed by kernel.pochhammer per k."""
    a = rate_constant(n) if big_o_constant is None else big_o_constant
    convs = convergents(make_exp_n(n), k_max)
    algebra_ok = all(
        (k + 1) * (k + 2) * pochhammer(1, k + 2) == factorial(k) * (k + 1) ** 2 * (k + 2) ** 2
        for k in range(1, k_max + 1)
    )
    eff_digits = digits + 2 * k_max + 30
    with mp.workdps(eff_digits + 15):
        target = exp_series(n, eff_digits).value
        ratios = []
        for k in range(1, k_max + 1):
            err = abs(target - to_mp(convs[k].value))
            bound = mpf(n) ** (k + 1) / ((k + 1) * (k + 2) * pochhammer(mpf(n), k + 2))
            ratios.append((err / bound, err > to_mp(a) * bound))
        max_ratio = max(mpf(0), *(r for r, _ in ratios))
        offending = next((k for k, (_, over) in enumerate(ratios, 1) if over), None)
    passed = offending is None and algebra_ok
    return VerificationReport(
        claim_id="rate",
        params={"n": n, "k_max": k_max, "A": str(a)},
        expected=f"|e^n - C_k| <= {a} * n^(k+1)/((k+1)(k+2)(n)_(k+2))",
        actual=(
            f"max observed ratio {mp.nstr(max_ratio, 6)}"
            if passed
            else f"bound violated at k={offending}" if offending is not None else "algebraic identity failed"
        ),
        passed=passed,
        witness={"max_ratio": mp.nstr(max_ratio, 8), "algebra_ok": algebra_ok},
    )


@pytest.mark.parametrize("big_o_constant", [None, 10])
def test_rate_bound_matches_pochhammer_reference(big_o_constant):
    for n in range(1, 5):
        report = check_rate_bound(n, 40, big_o_constant=big_o_constant)
        assert report == reference_rate(n, 40, big_o_constant=big_o_constant)


def test_rate_bound_with_suite_constant():
    for n in (1, 2, 3):
        assert check_rate_bound(n, 30).passed


@pytest.mark.parametrize("k_max", [0, -1])
def test_rate_bound_rejects_empty_depth_range(k_max):
    with pytest.raises(ParameterError, match="k_max >= 1"):
        check_rate_bound(2, k_max)
    with pytest.raises(ParameterError, match="k_max >= 1"):
        run_suite(["rate"], max_n=2, k_max=k_max)


def test_rate_bound_scaling_constant_required():
    # A constant of 10 works for n <= 2 but not beyond: the observed ratio
    # grows like n^{n+1}/(n-1)!.
    assert check_rate_bound(1, 40, big_o_constant=10).passed
    assert check_rate_bound(2, 40, big_o_constant=10).passed
    assert not check_rate_bound(3, 40, big_o_constant=10).passed
    assert rate_constant(3) == Fraction(10 * 81, 2)


def test_lemma23_passes_on_sample_set():
    for z in CUT_PLANE_SAMPLES:
        assert check_lemma23(z).passed


def test_lemma42_passes():
    for n in range(2, 7):
        for l in range(1, n):
            assert check_lemma42(l, n).passed


def test_thm31_passes_on_sample_set():
    for z in CUT_PLANE_SAMPLES:
        assert check_thm31(z).passed


def test_thm31_cross_check_sees_a_wrong_exp_series(monkeypatch):
    # inc_gamma_normalized never calls exp_series on the cut plane, so only the
    # Kummer form e^z 1F1(z; z+1; -z) of the cross-check moves.
    exact = oracle.exp_series

    def off(x, digits):
        result = exact(x, digits)
        return dataclasses.replace(result, value=result.value * (1 + mpf(10) ** -20))

    monkeypatch.setattr(oracle, "exp_series", off)
    for z in CUT_PLANE_SAMPLES:
        assert check_thm31(z).passed is False


def test_lemma42_checks_200_digits():
    # Summed as e^(l/n) - sum_{k<=l} (l/n)^k/k!, the bracket cancelled up to 8 digits.
    assert check_lemma42(10, 12, 200, agree=195).passed


def test_oracle_claims_print_values_at_working_precision():
    # The checks run at the default 15 digits; the 25 printed digits must
    # still be those of the claim's working precision.
    reports = [check_thm31(z) for z in CUT_PLANE_SAMPLES if z.is_real]
    reports += [check_thm41(l, n) for n in range(2, 5) for l in range(1, n)]
    with mp.workdps(30):
        for r in reports:
            assert abs(mpf(r.actual) - mpf(r.expected)) < mpf(10) ** -23, r


def test_thm41_sees_a_wrong_exp_series_at_200_digits(monkeypatch):
    exact = oracle.exp_series

    def off(x, digits):
        result = exact(x, digits)
        return dataclasses.replace(result, value=result.value * (1 + mpf(10) ** -100))

    monkeypatch.setattr(oracle, "exp_series", off)
    reports = run_suite(["thm41"], max_n=3, digits=200)
    assert len(reports) == 3 and not any(r.passed for r in reports)


@pytest.mark.parametrize("claim_id, check", [
    ("thm41", lambda l, n, digits: check_thm41(l, n, digits=digits)),
    ("integrals", lambda l, n, digits: check_rational_integral(l, n, digits)),
])
def test_grid_sums_each_reduced_ratio_once(monkeypatch, claim_id, check):
    # 2/4, 3/6, 2/6 and 4/6 reduce to ratios seen before in the (l, n) grid.
    alone = {repr(check(l, n, 30)) for n in range(2, 7) for l in range(1, n)}
    summed = []
    exact = oracle.exp_series

    def counted(x, digits):
        summed.append((Fraction(x), digits))
        return exact(x, digits)

    monkeypatch.setattr(oracle, "exp_series", counted)
    reports = [r for r in run_suite([claim_id], max_n=6, digits=30) if "l" in r.params]
    assert {repr(r) for r in reports} == alone and len(reports) == 15
    assert len(summed) == len(set(summed)) == 11


def test_thm41_passes():
    for n in range(2, 7):
        for l in range(1, n):
            assert check_thm41(l, n).passed


def test_integrals_pass():
    assert check_beta_integral(3).passed
    assert check_rational_integral(2, 5).passed


def test_integrals_check_full_digits_with_certified_tail():
    # No cap: the claim checks digits - 3 however large digits is.
    assert CLAIMS["integrals"].agree(200) == 197
    reports = run_suite(["integrals"], max_n=3, k_max=10, digits=120)
    assert len(reports) == 3 + 3
    for r in reports:
        assert r.passed and r.params["digits"] == 120
        assert mpf(r.witness["tail_bound"]) < mpf(10) ** -119
        assert mpf(r.witness["abs_diff"]) < mpf(10) ** -116


@pytest.mark.parametrize(
    "claim_id, margin", [("lemma23", 5), ("lemma42", 5), ("thm31", 10), ("thm41", 0), ("integrals", 3)]
)
def test_oracle_claims_check_all_digits_but_their_margin(claim_id, margin):
    # No claim has an upper cap on the digits it checks.
    assert CLAIMS[claim_id].agree(200) == 200 - margin
    reports = run_suite([claim_id], max_n=12, digits=200)
    assert reports and all(r.passed for r in reports)
    assert all(r.params.get("agree", r.params["digits"]) >= 200 - margin for r in reports)


@pytest.mark.parametrize("check, args, series", [
    (check_beta_integral, (4,), "beta_exp_integral"),
    (check_rational_integral, (3, 5), "exp_rational_integral"),
])
def test_integrals_report_a_wrong_series(monkeypatch, check, args, series):
    exact = getattr(oracle, series)

    def off(*a):
        result = exact(*a)
        return dataclasses.replace(result, value=result.value + Fraction(1, 10**30))

    monkeypatch.setattr(oracle, series, off)
    assert check(*args, digits=40).passed is False
    assert check(*args, digits=25).passed


def test_integrals_use_no_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(oracle, "quad", no_quadrature)
    monkeypatch.setattr(mp, "quad", no_quadrature)
    reports = run_suite(["integrals"], max_n=4)
    assert len(reports) == 4 + 6 and all(r.passed for r in reports)


def test_nonequivalence_passes():
    report = check_nonequivalence()
    assert report.passed
    # Every pair records a concrete first differing index.
    assert all(idx is not None for idx in report.witness["first_differing_index"].values())


def test_nonequivalence_matches_same_convergents_reference():
    # The report as built pair by pair from same_convergents, each pair's
    # tables rebuilt, and from each group's limits to 25 digits.
    e_specs = [make_e_euler(),
               *(make_classical(fid) for fid in ("e-regular", "e-over", "e-sporadic"))]
    groups = (e_specs, [make_confluent_1f1(1), make_m_fraction_diagonal(1)])
    witness, all_differ, limits_ok = {}, True, True
    for specs in groups:
        for a, b in itertools.combinations(specs, 2):
            same, idx = same_convergents(a, b, 10)
            witness[f"{a.name} vs {b.name}"] = idx
            all_differ &= not same
        limits = [estimate_limit(spec, 28)[0] for spec in specs]
        limits_ok &= all(agrees(limits[0], v, 25) for v in limits[1:])
    assert all_differ and limits_ok
    reference = VerificationReport(
        claim_id="nonequiv", params={"depth": 10, "digits": 25},
        expected="every pair differs; limits agree", actual="ok", passed=True,
        witness={"first_differing_index": witness},
    )
    report = check_nonequivalence()
    assert report == reference
    assert list(report.witness["first_differing_index"]) == list(witness)


def test_run_suite_empty_selection():
    assert run_suite([]) == []


def test_run_suite_diff_selection():
    reports = run_suite(["diff"], max_n=5, k_max=10)
    assert len(reports) == 5
    assert all(r.claim_id == "diff" and r.passed for r in reports)
    assert any(r.note == DIFF_TABLE_NOTE for r in reports)


@pytest.mark.parametrize(
    "claim_id, max_n, floor", [("diff", 0, 1), ("qform", -1, 1), ("lemma42", 1, 2),
                               ("recurrence4", 1, 2), ("thm41", 1, 2)]
)
def test_run_suite_rejects_grid_without_reports(claim_id, max_n, floor):
    assert not list(CLAIMS[claim_id].grid(max_n, 10, 30, CLAIMS[claim_id].agree(30)))
    with pytest.raises(ParameterError, match=f"{claim_id} needs --max-n >= {floor}, not {max_n}"):
        run_suite([claim_id], max_n=max_n, k_max=10, digits=30)


def test_run_suite_single_id_string():
    assert run_suite("diff", max_n=3, k_max=10) == run_suite(["diff"], max_n=3, k_max=10)
    with pytest.raises(ParameterError, match=r"unknown suite ids: \['bogus'\]"):
        run_suite("bogus")


def test_run_suite_rejects_unknown_id():
    with pytest.raises(ParameterError):
        run_suite(["diff", "bogus"])


def test_run_suite_rejects_repeated_id():
    with pytest.raises(ParameterError, match=r"repeated suite ids: \['diff'\]"):
        run_suite(["diff", "qform", "diff"], max_n=2, k_max=5)


def test_suite_ids_cover_all_dispatch_branches():
    reports = run_suite(["recurrence2", "qform"], max_n=2, k_max=10)
    assert {r.claim_id for r in reports} == {"recurrence2", "qform"}
    assert set(SUITE_IDS) >= {r.claim_id for r in reports}


@pytest.mark.parametrize("claim", CLAIMS.values(), ids=SUITE_IDS)
def test_claim_runs_on_smoke_grid(claim):
    reports = run_suite([claim.id], max_n=3, k_max=20, digits=30)
    assert reports
    assert all(r.claim_id == claim.id and r.passed for r in reports)


@pytest.mark.parametrize(
    "claim_id, floor", [("thm31", 11), ("lemma23", 6), ("lemma42", 6), ("integrals", 4)]
)
def test_run_suite_rejects_digits_below_claim_floor(claim_id, floor):
    with pytest.raises(ParameterError, match=f"{claim_id} .*--digits >= {floor}"):
        run_suite([claim_id], max_n=3, k_max=20, digits=floor - 1)
    assert CLAIMS[claim_id].agree(floor) == 1
