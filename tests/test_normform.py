import numpy as np
import pytest

from qosc.errors import ParamMismatch
from qosc.normform import (
    LaurentPoly,
    NCPoly,
    casimir_element,
    check_evaluation_homomorphism,
    check_identities_symbolic,
    delta_poly,
    evaluate,
    ladder_coefficient_lower,
    ladder_coefficient_raise,
    nf_commutator,
    nf_product,
)
from qosc.qcore import make_params, qnum
from qosc.repbuild import build_rep

P_UNI = make_params("unimodular", 0.9, 0)
P_REAL = make_params("realline", 1.0, 1)

DELTA_PLUS_UNI09 = complex(0.49999999999999994, 0.24152753280828915)
DELTA_MINUS_UNI09 = complex(0.5, -0.24152753280828915)


# ---------------------------------------------------------------------------
# Laurent layer


def test_laurent_arithmetic():
    s = LaurentPoly.variable()
    p = (s + LaurentPoly.one()) * (s - LaurentPoly.one())
    assert p == s * s - LaurentPoly.one()
    assert p(2.0) == pytest.approx(3.0)
    assert (p - p).is_zero()


def test_laurent_substitution_scales_by_degree():
    # s -> mu*s maps the degree-d coefficient c to c*mu^d
    p = LaurentPoly({2: 3.0, -1: 5.0})
    q = p.subs_scale(2.0)
    assert q == LaurentPoly({2: 12.0, -1: 2.5})
    x = 1.7
    assert q(x) == pytest.approx(p(2.0 * x))


def test_laurent_substitution_out_of_range_is_overflow():
    # Python reports these negative powers as ZeroDivisionError
    p = LaurentPoly({2: 1.0, -2: 1.0})
    for mu in (0j, complex(1e-200, 0.0), complex(1e200, 0.0)):
        with pytest.raises(OverflowError):
            p.subs_scale(mu)


def test_delta_poly_frozen_coefficients():
    d = delta_poly(P_UNI)
    assert d.coeffs[2] == pytest.approx(DELTA_PLUS_UNI09)
    assert d.coeffs[-2] == pytest.approx(DELTA_MINUS_UNI09)


@pytest.mark.parametrize("params", [P_UNI, P_REAL])
def test_delta_poly_evaluates_to_bracket_step(params):
    """delta(q^(nu/2)) = [nu+1] - [nu] for any eigenvalue nu."""
    d = delta_poly(params)
    for nu in (0.0, 1.0, 2.5, -3.0):
        s = params.qpow(nu / 2.0)
        expect = qnum(nu + 1, params.log_q) - qnum(nu, params.log_q)
        assert d(s) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# noncommutative layer


def test_product_reorders_lowering_past_raising():
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    prod = nf_product(a, abar)
    expect = NCPoly(P_UNI, {(1, 1): LaurentPoly.one(), (0, 0): delta_poly(P_UNI)})
    assert prod.close_to(expect)
    # abar * a is already normal ordered
    assert nf_product(abar, a).close_to(NCPoly.monomial(P_UNI, 1, 1))


def test_commutator_equals_delta():
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    comm = nf_commutator(a, abar)
    assert comm.close_to(NCPoly(P_UNI, {(0, 0): delta_poly(P_UNI)}))


def test_generators_drag_coefficients_past_them():
    s = NCPoly.gen_s(P_UNI)
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    mu = P_UNI.qpow(0.5)
    # a s = mu s a  and  abar s = s abar / mu
    assert nf_product(a, s).close_to(nf_product(s, a).scale(mu))
    assert nf_product(abar, s).close_to(nf_product(s, abar).scale(1.0 / mu))


def test_monomial_multiplication_adds_exponents():
    m1 = NCPoly.monomial(P_REAL, 2, 0)
    m2 = NCPoly.monomial(P_REAL, 1, 0)
    assert (m1 * m2).close_to(NCPoly.monomial(P_REAL, 3, 0))


def test_mixed_params_rejected():
    with pytest.raises(ParamMismatch):
        nf_product(NCPoly.gen_a(P_UNI), NCPoly.gen_a(P_REAL))


@pytest.mark.parametrize("params", [P_UNI, P_REAL])
def test_symbolic_identities_vanish(params):
    reports = check_identities_symbolic(params, n_max=8)
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-12


def test_symbolic_identity_names_cover_each_order():
    names = {r.name for r in check_identities_symbolic(P_UNI, n_max=3)}
    assert {"ladder_raise_sym_n1", "ladder_lower_sym_n3", "casimir_central_a",
            "casimir_central_abar", "casimir_central_s"} <= names


def test_tampered_rewrite_is_caught():
    reports = check_identities_symbolic(P_UNI, n_max=3, tamper=1e-3)
    assert any(not r.passed for r in reports)


def test_n_max_cap_enforced():
    with pytest.raises(ValueError):
        check_identities_symbolic(P_UNI, n_max=17)
    with pytest.raises(ValueError):
        check_identities_symbolic(P_UNI, n_max=0)


def test_casimir_element_is_central():
    c = casimir_element(P_REAL)
    for gen in (NCPoly.gen_a(P_REAL), NCPoly.gen_abar(P_REAL), NCPoly.gen_s(P_REAL)):
        assert nf_commutator(c, gen).is_zero(1e-12)


def test_ladder_coefficients_match_bracket_difference():
    """Telescoping the elementary rewrite n times gives the coefficients
    [nu+1]-[nu-n+1] (pulling a left past abar^n) and -([nu+n]-[nu])
    (pulling abar left past a^n), read at the target s-eigenvalue."""
    params = P_UNI
    for n in (1, 2, 3):
        raise_c = ladder_coefficient_raise(params, n)
        lower_c = ladder_coefficient_lower(params, n)
        for nu in (0.0, 1.5, -2.0):
            s = params.qpow(nu / 2.0)
            assert raise_c(s) == pytest.approx(
                qnum(nu + 1, params.log_q) - qnum(nu - n + 1, params.log_q)
            )
            assert lower_c(s) == pytest.approx(
                qnum(nu, params.log_q) - qnum(nu + n, params.log_q)
            )


# ---------------------------------------------------------------------------
# evaluation bridge


@pytest.mark.parametrize("params,k", [(P_UNI, 4), (P_REAL, 3)])
def test_evaluate_generators_match_rep(params, k):
    rep = build_rep(params, k)
    assert np.allclose(evaluate(NCPoly.gen_a(params), rep), rep.A)
    assert np.allclose(evaluate(NCPoly.gen_abar(params), rep), rep.Abar)
    svals = np.diag(evaluate(NCPoly.gen_s(params), rep))
    assert np.allclose(svals, [params.qpow(nu / 2.0) for nu in np.diag(rep.Nmat)])


def test_evaluate_casimir_element_matches_matrix_casimir():
    from qosc.algcheck import casimir

    rep = build_rep(P_UNI, 3)
    assert np.allclose(evaluate(casimir_element(P_UNI), rep), casimir(rep).matrix, atol=1e-13)


def test_evaluation_respects_products():
    rng = np.random.default_rng(11)

    def random_poly(params):
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            key = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            coeffs = {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-2, 3, size=2)}
            terms[key] = LaurentPoly(coeffs)
        return NCPoly(params, terms)

    for trial in range(20):
        params = (P_UNI, P_REAL)[trial % 2]
        rep = build_rep(params, int(rng.integers(2, 7)))
        rpt = check_evaluation_homomorphism(random_poly(params), random_poly(params), rep)
        assert rpt.passed


def test_evaluate_rejects_foreign_rep():
    rep = build_rep(P_REAL, 2)
    with pytest.raises(ParamMismatch):
        evaluate(NCPoly.gen_a(P_UNI), rep)
