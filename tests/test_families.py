from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cfx.engine import convergents, estimate_limit, mobius, waadeland_limit
from cfx.families import (
    FAMILIES,
    FAMILY_IDS,
    first_differing_index,
    make_classical,
    make_confluent_1f1,
    make_e_euler,
    make_exp_inv_n,
    make_exp_n,
    make_exp_n_shifted,
    make_family,
    make_inc_gamma,
    make_m_fraction,
    make_m_fraction_diagonal,
    make_rat_exp,
    same_convergents,
)
from cfx.kernel import (
    ComplexParam,
    DomainError,
    ParameterError,
    agrees,
    arg_in_cut_plane,
    factorial,
    to_mp,
)
from cfx.oracle import exp_series, hyp_1f1, inc_gamma_normalized, sigma_partial


def _limit_close(spec, target, digits=25):
    value, _ = estimate_limit(spec, digits + 5)
    with mp.workdps(digits + 15):
        assert abs(to_mp(value) - target) < mpf(10) ** -digits * max(1, abs(target))


def test_exp_n_1_equals_e_euler_to_depth_100():
    same, idx = same_convergents(make_exp_n(1), make_e_euler(), 100)
    assert same and idx is None


def test_exp_n_coefficients_match_documented_rule():
    spec = make_exp_n(3)
    assert spec.head == 4
    assert spec.rule.a(1) == -9 and spec.rule.b(1) == 8
    # prefix + scale * w with prefix = 1 + 3 + 9/2 and scale = 9/2
    assert spec.mobius == mobius(Fraction(9, 2), 1 + 3 + Fraction(9, 2))


def test_exp_n_limits_match_oracle():
    for n in range(1, 5):
        with mp.workdps(45):
            _limit_close(make_exp_n(n), exp_series(n, 35).value, digits=30)


def test_exp_n_rejects_bad_n():
    with pytest.raises(ParameterError):
        make_exp_n(0)


def test_rat_exp_matches_exp_inv_n_depth_100():
    for n in range(3, 11):
        same, idx = same_convergents(make_rat_exp(1, n), make_exp_inv_n(n), 100)
        assert same and idx is None


def test_rat_exp_limits_match_oracle():
    with mp.workdps(45):
        for l, n in ((1, 2), (1, 3), (2, 3), (3, 5)):
            _limit_close(make_rat_exp(l, n), exp_series(Fraction(l, n), 35).value, digits=28)


def test_rat_exp_mobius_matches_bracket():
    # The printed two-level bracket, evaluated directly, against the matrix.
    for l, n in ((1, 2), (1, 3), (2, 3), (3, 5)):
        prefix = sum(Fraction(l**k, factorial(k) * n**k) for k in range(l + 1))
        scale = Fraction(l ** (l - 1), n ** (l - 1) * factorial(l - 1))
        shift, cf_coeff = (n - 1) * (n + l * (n - 1)), Fraction((n - 1) ** 2, n)
        alpha, beta, gamma, delta = make_rat_exp(l, n).mobius
        for w in (Fraction(0), Fraction(-7, 3), Fraction(5, 11)):
            bracket = prefix + scale * (Fraction(1, n * (n - 1)) - 1 / (shift + cf_coeff * w))
            assert (alpha * w + beta) / (gamma * w + delta) == bracket


def test_rat_exp_rejects_bad_params():
    for l, n in ((0, 2), (2, 2), (3, 2), (-1, 4)):
        with pytest.raises(ParameterError):
            make_rat_exp(l, n)
    with pytest.raises(ParameterError):
        make_exp_inv_n(2)


def test_classical_limits_match_oracle():
    with mp.workdps(45):
        e = exp_series(1, 35).value
        _limit_close(make_classical("e-regular"), e, digits=28)
        _limit_close(make_classical("e-over"), e, digits=28)
        _limit_close(make_classical("e-sporadic"), e, digits=28)
        _limit_close(make_classical("e-squared"), exp_series(2, 35).value, digits=28)
        # M = 2 gives the square root of e.
        _limit_close(
            make_classical("e-one-over-M", M=2),
            exp_series(Fraction(1, 2), 35).value,
            digits=28,
        )
        _limit_close(
            make_classical("e-one-over-M", M=5),
            exp_series(Fraction(1, 5), 35).value,
            digits=28,
        )


def test_e_regular_partial_denominators():
    spec = make_classical("e-regular")
    assert [spec.rule.b(m) for m in range(1, 10)] == [1, 2, 1, 1, 4, 1, 1, 6, 1]


def test_e_sporadic_initial_convergents_approach_e():
    convs = convergents(make_classical("e-sporadic"), 4)
    assert convs[0].value == 1
    assert convs[1].value == 3
    # 1 + 2/(1 + 1/6) = 19/7, then 193/71, ...
    assert convs[2].value == Fraction(19, 7)
    assert convs[3].value == Fraction(193, 71)


CLASSICAL_PARAMS = {"e-regular": {}, "e-over": {}, "e-sporadic": {}, "e-squared": {},
                    "e-one-over-M": {"M": 3}}


@pytest.mark.parametrize("family_id", CLASSICAL_PARAMS)
def test_make_classical_is_make_family(family_id):
    params = CLASSICAL_PARAMS[family_id]
    a, b = make_classical(family_id, **params), make_family(family_id, **params)
    assert a.name == b.name
    assert [c.value for c in convergents(a, 40)] == [c.value for c in convergents(b, 40)]


def test_make_classical_rejects_a_paper_family():
    with pytest.raises(ParameterError, match="unknown classical family 'e-euler'"):
        make_classical("e-euler")


@pytest.mark.parametrize("z", [-3, Fraction(-1, 2), 0, ComplexParam(-1, Fraction(1, 10**16))],
                         ids=["-3", "-1/2", "0", "-1+1e-16i"])
def test_cut_plane_families_and_oracle_share_one_error(z):
    messages = set()
    for build in (make_inc_gamma, make_confluent_1f1, make_m_fraction_diagonal,
                  lambda z: inc_gamma_normalized(z, 20)):
        with pytest.raises(DomainError) as excinfo:
            build(z)
        messages.add(str(excinfo.value))
    assert messages == {f"z = {ComplexParam.coerce(z)} is not in the cut plane"}


def test_classical_rejects_bad_m():
    with pytest.raises(ParameterError):
        make_classical("e-one-over-M", M=1)
    with pytest.raises(ParameterError):
        make_classical("no-such-family")


def test_inc_gamma_real_is_exact_ring():
    spec = make_inc_gamma(Fraction(1))
    assert isinstance(estimate_limit(spec, 25)[0], Fraction)
    convs = convergents(spec, 3)
    assert convs[0].value == 2
    with mp.workdps(40):
        _limit_close(spec, inc_gamma_normalized(1, 30).value, digits=25)


def test_inc_gamma_complex_matches_oracle():
    z = ComplexParam.parse("1+1i")
    spec = make_inc_gamma(z)
    convs = convergents(spec, 3)
    assert all(isinstance(c.value, ComplexParam) for c in convs)
    assert convs[0].value == ComplexParam(Fraction(2), Fraction(1))
    with mp.workdps(45):
        value, _ = estimate_limit(spec, 30)
        target = inc_gamma_normalized(z, 30).value
        assert abs(value - target) < mpf(10) ** -25


# Parameters of the complex families: ints, real Fractions and Gaussian
# rationals, with negative real parts and odd denominators among them.
_PART = st.fractions(min_value=-6, max_value=6, max_denominator=15)
_PARAM = st.one_of(st.integers(-6, 6), _PART, st.builds(ComplexParam, _PART, _PART))


def _check_rule(spec, head, a, b):
    """The spec's head and rule equal the paper's formulas for m <= 60, in
    type too: a ComplexParam, with Fraction parts, exactly where the formula
    gives one."""
    pairs = [(spec.head, head)]
    pairs += [(spec.rule.a(m), a(m)) for m in range(1, 61)]
    pairs += [(spec.rule.b(m), b(m)) for m in range(1, 61)]
    for got, want in pairs:
        assert got == want and type(got) is type(want)
        if isinstance(got, ComplexParam):
            assert type(got.re) is Fraction and type(got.im) is Fraction


@given(z=_PARAM)
@settings(max_examples=60, deadline=None)
def test_complex_cf_rule_matches_paper_formula(z):
    assume(z != 0 and arg_in_cut_plane(z))
    # z as a Fraction when real, else in ComplexParam arithmetic.
    zv = ComplexParam.coerce(z).value
    for make in (make_inc_gamma, make_confluent_1f1):
        # 1 + z + K(-z(m+z-1)/(m+2z+1))
        _check_rule(make(z), 1 + zv, lambda m: -zv * (m + zv - 1), lambda m: m + 2 * zv + 1)


@given(b=_PARAM, z=_PARAM)
@settings(max_examples=60, deadline=None)
def test_m_fraction_rule_matches_paper_formula(b, z):
    bc, zc = ComplexParam.coerce(b), ComplexParam.coerce(z)
    assume(zc != 0 and not (bc.is_real and bc.re <= 0 and bc.re.denominator == 1))
    # head 0, a_1 = b, a_m = (m-1)z, b_1 = b - z, b_m = b + m - 1 - z
    cases = [(make_m_fraction(b, z), bc.value, zc.value)]
    if arg_in_cut_plane(zc):
        cases.append((make_m_fraction_diagonal(z), zc.value, zc.value))
    for spec, bv, zv in cases:
        _check_rule(spec, 0, lambda m: bv if m == 1 else (m - 1) * zv, lambda m: bv + (m - 1) - zv)


def _printed_rules():
    """(spec, head, a, b) of the integer-parameter families, each rule from
    the paper's printed formula with the parameters taken as Fractions: every
    value is a Fraction, but e-sporadic's a_1 = 2 and b_1 = 1 are ints."""
    one = Fraction(1)
    yield make_e_euler(), 3, lambda m: -m * one, lambda m: m + 3 * one
    for n in range(1, 5):
        yield (make_exp_n(n), 1 + n, lambda m, n=n * one: -n * (m + n - 1),
               lambda m, n=n * one: m + 2 * n + 1)
    yield (make_exp_n_shifted(2), 0, lambda m, n=2 * one: -n * (m + n),
           lambda m, n=2 * one: m + 2 * n + 2)
    for spec, l, n in ((make_rat_exp(2, 5), 2 * one, 5), (make_exp_inv_n(3), one, 3)):
        yield (spec, 0, lambda m, l=l, n=n: -l * n * (m - 1 + l),
               lambda m, l=l, n=n: n * (m + 1) + (n + 1) * l)
    yield make_family("e-over"), 2, lambda m: m + one, lambda m: m + one
    yield (make_family("e-sporadic"), 1, lambda m: 2 if m == 1 else one,
           lambda m: 1 if m == 1 else 4 * m - 2 * one)


@pytest.mark.parametrize("spec,head,a,b", [pytest.param(*r, id=r[0].name) for r in _printed_rules()])
def test_integer_family_rules_match_printed_formulas(spec, head, a, b):
    _check_rule(spec, head, a, b)


def test_every_affine_family_carries_a_progression():
    # Every family but the three periodic regular fixtures builds its rule
    # with _linear, and so steps on a progression.
    params = {"n": 3, "l": 2, "M": 3, "z": ComplexParam(2, 3), "b": Fraction(1, 2)}
    for fid in FAMILY_IDS:
        rule = make_family(fid, **params).rule
        affine = fid not in ("e-regular", "e-squared", "e-one-over-M")
        assert all(hasattr(f, "progression") == affine for f in (rule.a, rule.b)), fid


def test_complex_rules_keep_complex_type_where_an_imaginary_part_cancels():
    # Im a_2 = 0 at z = -1/2 + i, and b_1 = b - z = -1 at b = 1+i, z = 2+i:
    # each value stays a ComplexParam, as the formula in ComplexParam gives it.
    z = ComplexParam(Fraction(-1, 2), Fraction(1))
    assert make_inc_gamma(z).rule.a(2).im == 0
    for zv in (z, ComplexParam(Fraction(2), Fraction(3))):  # and a Gaussian integer
        for make in (make_inc_gamma, make_confluent_1f1):
            _check_rule(make(zv), 1 + zv, lambda m: -zv * (m + zv - 1),
                        lambda m: m + 2 * zv + 1)
    for bv, zv in ((ComplexParam(Fraction(1), Fraction(1)), ComplexParam(Fraction(2), Fraction(1))),
                   (Fraction(1, 2), ComplexParam(Fraction(3), Fraction(2)))):
        spec = make_m_fraction(bv, zv)
        _check_rule(spec, 0, lambda m: bv if m == 1 else (m - 1) * zv, lambda m: bv + (m - 1) - zv)
    assert make_m_fraction(ComplexParam(Fraction(1), Fraction(1)),
                           ComplexParam(Fraction(2), Fraction(1))).rule.b(1) == -1


@pytest.mark.parametrize("spec", [
    make_inc_gamma(ComplexParam(Fraction(-5, 2), Fraction(3, 4))),
    make_confluent_1f1(Fraction(1, 3)),
    make_m_fraction(Fraction(1, 2), ComplexParam(2, 3)),
    make_m_fraction_diagonal(ComplexParam(Fraction(-2), Fraction(1, 2))),
], ids=lambda spec: spec.name)
def test_complex_rules_carry_their_progression(spec):
    # From its start index on, each rule is (A0 + A1 m)/D with Gaussian-integer
    # A0, A1; the M-fraction's a starts at 2, after its exception a_1 = b.
    for f in (spec.rule.a, spec.rule.b):
        a0r, a0i, a1r, a1i, d = f.progression
        for m in range(f.start, 61):
            assert f(m) == ComplexParam(Fraction(a0r + a1r * m, d), Fraction(a0i + a1i * m, d))
    assert spec.rule.a.start == (2 if spec.name.startswith("m-fraction") else 1)


def test_inc_gamma_rejects_cut():
    for z in (0, -3, Fraction(-1, 2)):
        with pytest.raises(DomainError):
            make_inc_gamma(z)
        with pytest.raises(DomainError):
            make_confluent_1f1(z)
        with pytest.raises(DomainError):
            make_m_fraction_diagonal(z)


def test_m_fraction_b2_z1_matches_1f1():
    spec = make_m_fraction(2, 1)
    with mp.workdps(40):
        target = hyp_1f1(3, 1, 30).value  # 1F1(1; 3; 1) = 2(e - 2)
        _limit_close(spec, target, digits=25)
        assert abs(target - 2 * (exp_series(1, 30).value - 2)) < mpf(10) ** -25


def test_m_fraction_z0_is_constant_one():
    spec = make_m_fraction(3, 0)
    assert spec.rule is None
    convs = convergents(spec, 4)
    assert all(c.value == 1 for c in convs)


def test_m_fraction_rejects_nonpositive_integer_b():
    for b in (0, -1, -5):
        with pytest.raises(ParameterError):
            make_m_fraction(b, 1)
    assert make_m_fraction(ComplexParam(-2, 1), 1).rule.a(1) == ComplexParam(-2, 1)


def test_m_fraction_diagonal_first_convergent_singular():
    convs = convergents(make_m_fraction_diagonal(1), 3)
    assert convs[1].value is None
    assert convs[2].value is not None


def test_m_fraction_diagonal_limit_matches_confluent():
    with mp.workdps(40):
        va, _ = estimate_limit(make_m_fraction_diagonal(2), 28)
        vb, _ = estimate_limit(make_confluent_1f1(2), 28)
        target = inc_gamma_normalized(2, 30).value
        assert abs(to_mp(va) - target) < mpf(10) ** -24
        assert abs(to_mp(vb) - target) < mpf(10) ** -24


def test_confluent_and_diagonal_convergents_differ():
    same, idx = same_convergents(make_confluent_1f1(1), make_m_fraction_diagonal(1), 10)
    assert not same
    assert idx is not None


def test_make_family_dispatch_roundtrip():
    assert make_family("e-euler").name == "e-euler"
    assert make_family("exp-n", n=2).name == "exp-n(n=2)"
    assert make_family("rat-exp", l=1, n=3).name == "rat-exp(l=1,n=3)"
    assert make_family("e-one-over-M", M=3).name == "e-one-over-M(M=3)"
    with pytest.raises(ParameterError):
        make_family("exp-n")  # missing n
    with pytest.raises(ParameterError):
        make_family("nope")


SAMPLE_PARAMS = {
    "exp-n": {"n": 2},
    "exp-n-shifted": {"n": 2},
    "inc-gamma": {"z": 1},
    "confluent-1f1": {"z": 1},
    "m-fraction": {"b": 2, "z": 1},
    "m-fraction-diagonal": {"z": 1},
    "rat-exp": {"l": 1, "n": 3},
    "exp-inv-n": {"n": 3},
    "e-one-over-M": {"M": 2},
}


def test_family_ids_all_constructible():
    for fid in FAMILY_IDS:
        spec = make_family(fid, **SAMPLE_PARAMS.get(fid, {}))
        assert spec.name.startswith(fid)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILY_IDS)
def test_registry_entry_builds_labels_and_matches_oracle(family):
    params = SAMPLE_PARAMS.get(family.id, {})
    assert set(params) == set(family.params)
    spec = make_family(family.id, **params)
    label = family.label(params)
    assert isinstance(label, str) and label
    value, _ = estimate_limit(spec, 30)
    with mp.workdps(45):
        target = family.oracle(params, 30)
        assert abs(to_mp(value) - target) <= mpf(10) ** -28 * max(1, abs(target))


@pytest.mark.parametrize("n", range(1, 9))
def test_exp_n_shifted_oracle_matches_exact_tail_product_sum(n):
    # A second witness for Lemma 2.3's 2F2: the exact partial sum of the tail
    # products, which omits less than 10^-60 at 80 terms for n <= 8.
    exact = waadeland_limit(-2 * (n + 1), sigma_partial(n, 80))
    with mp.workdps(55):
        assert agrees(FAMILIES["exp-n-shifted"].oracle({"n": n}, 40), exact, 38)


_E_IDS = ("e-euler", "e-regular", "e-over", "e-sporadic")
_DIAG_IDS = ("inc-gamma", "confluent-1f1", "m-fraction-diagonal")


@pytest.mark.parametrize("ids, params, depth", [
    *((_E_IDS, {}, depth) for depth in range(5, 21)),
    (_DIAG_IDS, {"z": ComplexParam(1, 1)}, 12),
    (_DIAG_IDS, {"z": ComplexParam(-1, 2)}, 12),
])
def test_first_differing_index_matches_same_convergents(ids, params, depth):
    specs = [make_family(fid, **params) for fid in ids]
    tables = [convergents(spec, depth) for spec in specs]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            idx = first_differing_index(tables[i], tables[j])
            # The index-by-index loop same_convergents ran on its own tables.
            assert idx == next((k for k in range(depth + 1)
                                if tables[i][k].value != tables[j][k].value), None)
            assert same_convergents(specs[i], specs[j], depth) == (idx is None, idx)
    assert first_differing_index(tables[0], tables[0]) is None
