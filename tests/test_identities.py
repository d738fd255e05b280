import dataclasses
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cfx import identities, oracle
from cfx.engine import convergents
from cfx.families import make_exp_n
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
from cfx.kernel import ComplexParam, ParameterError, pochhammer
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
    def off_by_one(spec, depth):
        convs = convergents(spec, depth)
        convs[7] = dataclasses.replace(convs[7], q_raw=convs[7].q_raw + 1)
        return convs

    monkeypatch.setattr(identities, "convergents", off_by_one)
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
    # can tell them from the engine's raw convergents.
    def reduced(spec, depth):
        return [
            dataclasses.replace(c, p_raw=c.value.numerator, q_raw=c.value.denominator)
            for c in convergents(spec, depth)
        ]

    monkeypatch.setattr(identities, "convergents", reduced)
    report = check_difference_formula(2, 10)
    assert not report.passed
    assert report.actual == "mismatch at k=[7, 8]"


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
