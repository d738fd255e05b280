from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cfx.engine import convergents
from cfx.families import make_exp_n
from cfx.identities import (
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
from cfx.kernel import ComplexParam, ParameterError
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


def test_difference_formula_passes_and_is_negative():
    for n in range(1, 6):
        report = check_difference_formula(n, 50)
        assert report.passed
        assert all(difference_formula(n, k) < 0 for k in range(1, 51))


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
