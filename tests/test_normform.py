import cmath
import math

import numpy as np
import pytest

import qosc
from qosc import normform
from qosc.errors import ParamMismatch
from qosc.normform import (
    N_MAX_CAP,
    ExactPoly,
    LaurentPoly,
    NCPoly,
    casimir_element,
    check_evaluation_homomorphism,
    check_identities_symbolic,
    evaluate,
    exact_defects,
    nf_commutator,
    nf_product,
)
from qosc.qcore import make_params, qnum
from qosc.repbuild import build_rep

P_UNI = make_params("unimodular", 0.9, 0)
P_REAL = make_params("realline", 1.0, 1)

DELTA_PLUS_UNI09 = complex(0.49999999999999994, 0.24152753280828915)
DELTA_MINUS_UNI09 = complex(0.5, -0.24152753280828915)


def _at(c, params, s):
    """Value of an exact coefficient at ``q`` and ``s`` (tau = 0)."""
    return sum(v * s**e for e, v in normform._s_coeffs(c, params).items())


# ---------------------------------------------------------------------------
# exact coefficients


def test_delta_poly_frozen_coefficients():
    d = normform._s_coeffs(normform._DELTA, P_UNI)
    assert d[2] == pytest.approx(DELTA_PLUS_UNI09)
    assert d[-2] == pytest.approx(DELTA_MINUS_UNI09)


@pytest.mark.parametrize("params", [P_UNI, P_REAL])
def test_delta_poly_evaluates_to_bracket_step(params):
    """delta(q^(nu/2)) = [nu+1] - [nu] for any eigenvalue nu."""
    for nu in (0.0, 1.0, 2.5, -3.0):
        s = params.qpow(nu / 2.0)
        expect = qnum(nu + 1, params.log_q) - qnum(nu, params.log_q)
        assert _at(normform._DELTA, params, s) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# noncommutative layer


def test_product_reorders_lowering_past_raising():
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    prod = nf_product(a, abar)
    expect = NCPoly(P_UNI, {(1, 1): ExactPoly.one(), (0, 0): normform._DELTA.at_tau(0.0)})
    assert prod.close_to(expect)
    # abar * a is already normal ordered
    assert nf_product(abar, a).close_to(NCPoly.monomial(P_UNI, 1, 1))


def test_commutator_equals_delta():
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    comm = nf_commutator(a, abar)
    assert comm.close_to(NCPoly(P_UNI, {(0, 0): normform._DELTA.at_tau(0.0)}))


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


@pytest.mark.parametrize("params", [P_UNI, P_REAL, make_params("realline", 200.0, 1)])
def test_casimir_element_commutes_exactly(params):
    c = casimir_element(params)
    for gen in (NCPoly.gen_a(params), NCPoly.gen_abar(params), NCPoly.gen_s(params)):
        assert nf_commutator(c, gen).terms == {}


@pytest.mark.parametrize("params", [P_UNI, P_REAL])
@pytest.mark.parametrize("x", [1e-3, -0.37])
def test_tampered_commutator_adds_the_tamper_on_s_squared(params, x):
    a, abar = NCPoly.gen_a(params), NCPoly.gen_abar(params)
    tampered, clean = nf_commutator(a, abar, x), nf_commutator(a, abar)
    shift = NCPoly.gen_s(params, 2).scale(x)
    assert tampered.close_to(clean + shift, tol=1e-14)
    assert not tampered.close_to(clean, tol=abs(x) / 2)
    rep = build_rep(params, 4)
    assert np.allclose(evaluate(tampered, rep), evaluate(clean, rep) + evaluate(shift, rep),
                       rtol=0.0, atol=1e-13)


def test_public_names_resolve_once():
    assert len(set(qosc.__all__)) == len(qosc.__all__)
    for name in qosc.__all__:
        assert getattr(qosc, name) is not None, name
    assert "LaurentPoly" not in qosc.__all__


def test_ladder_coefficients_match_bracket_difference():
    """Telescoping the elementary rewrite n times gives the coefficients
    [nu+1]-[nu-n+1] (pulling a left past abar^n) and -([nu+n]-[nu])
    (pulling abar left past a^n), read at the target s-eigenvalue."""
    params = P_UNI
    for n in (1, 2, 3):
        for nu in (0.0, 1.5, -2.0):
            s = params.qpow(nu / 2.0)
            assert _at(normform._ladder_raise(n), params, s) == pytest.approx(
                qnum(nu + 1, params.log_q) - qnum(nu - n + 1, params.log_q)
            )
            assert _at(normform._ladder_lower(n), params, s) == pytest.approx(
                qnum(nu, params.log_q) - qnum(nu + n, params.log_q)
            )


# ---------------------------------------------------------------------------
# exact normal form


def _float_rewriter_residuals(mode, eps, n_max, tamper):
    """Residuals of check_identities_symbolic as a float rewriter computes them:
    every coefficient a ``{s power: complex}`` dict at this q, rewritten per
    call, with no code shared with the package."""
    log_q = 1j * eps if mode == "unimodular" else complex(eps)

    def qpow(x):
        return cmath.exp(x * log_q)

    def qnum(n, h):
        return (cmath.exp(n * h) - cmath.exp(-n * h)) / (cmath.exp(h) - cmath.exp(-h))

    q, t = qpow(1.0), qpow(0.5)
    den = q - 1.0 / q
    delta = {2: (q - 1.0) / den + tamper, -2: (1.0 - 1.0 / q) / den}

    def add(x, y, sign=1.0):
        out = dict(x)
        for e, c in y.items():
            out[e] = out.get(e, 0.0) + sign * c
        return out

    def mul(x, y):
        out = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                out[e1 + e2] = out.get(e1 + e2, 0.0) + c1 * c2
        return out

    def shifted(x, m):
        """s -> q^(m/2) s"""
        mu = qpow(m / 2.0)
        return {e: c * mu**e for e, c in x.items()}

    def word_terms(word):
        out, stack = {}, [({0: 1.0}, word)]
        while stack:
            coeff, w = stack.pop()
            swap_at = next((i for i in range(len(w) - 1) if w[i:i + 2] == ("A", "B")), None)
            if swap_at is None:
                key = (w.count("B"), w.count("A"))
                out[key] = add(out.get(key, {}), coeff)
                continue
            stack.append((coeff, w[:swap_at] + ("B", "A") + w[swap_at + 2:]))
            prefix = w[:swap_at]
            m = prefix.count("A") - prefix.count("B")
            stack.append((mul(coeff, shifted(delta, m)), prefix + w[swap_at + 2:]))
        return out

    def product(p, r):
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in r.items():
                coeff = mul(c1, shifted(c2, j1 - i1))
                word = ("B",) * i1 + ("A",) * j1 + ("B",) * i2 + ("A",) * j2
                for key, wc in word_terms(word).items():
                    out[key] = add(out.get(key, {}), mul(coeff, wc))
        return out

    def defect(lhs, *rhs):
        out = dict(lhs)
        for part in rhs:
            for key, c in part.items():
                out[key] = add(out.get(key, {}), c, -1.0)
        return max((abs(v) for c in out.values() for v in c.values()), default=0.0)

    one = {0: 1.0}
    a, abar = {(0, 1): one}, {(1, 0): one}
    residuals = {}
    for n in range(1, n_max + 1):
        bran = qnum(n, log_q / 2.0) / (t + 1.0 / t)
        raise_c = {2: bran * qpow((2.0 - n) / 2.0), -2: bran * qpow((n - 2.0) / 2.0)}
        lower_c = {2: -bran * qpow(n / 2.0), -2: -bran * qpow(-n / 2.0)}
        abar_n, a_n = {(n, 0): one}, {(0, n): one}
        residuals[f"ladder_raise_sym_n{n}"] = defect(
            product(a, abar_n), product(abar_n, a), {(n - 1, 0): raise_c})
        residuals[f"ladder_lower_sym_n{n}"] = defect(
            product(abar, a_n), product(a_n, abar), {(0, n - 1): lower_c})
    central = {(1, 1): one, (0, 0): {2: -1.0 / den, -2: 1.0 / den}}
    for name, gen in (("a", a), ("abar", abar), ("s", {(0, 0): {1: 1.0}})):
        residuals[f"casimir_central_{name}"] = defect(product(central, gen), product(gen, central))
    return residuals


def test_untampered_defects_cancel_exactly():
    for defect in exact_defects(N_MAX_CAP):
        # every term carries the tamper variable: the tau^0 part is identically zero
        assert all(u > 0 for group in defect.groups for _, u, _ in group), defect.name
        if defect.name.startswith("ladder"):
            assert defect.groups, defect.name  # so the tamper reaches every ladder identity
    for mode, eps in (("unimodular", 0.1), ("unimodular", 6.0), ("realline", -0.6),
                      ("realline", 30.0), ("realline", 200.0)):
        reports = check_identities_symbolic(make_params(mode, eps, 1), n_max=N_MAX_CAP)
        assert {r.residual for r in reports} == {0.0}


@pytest.mark.parametrize("tamper", [1e-3, -0.37])
def test_tampered_residuals_match_the_float_rewriter(tamper):
    grid = [("unimodular", eps, N_MAX_CAP) for eps in (0.1, 0.3, 0.9, 2.5, 6.0)]
    grid += [("realline", eps, 8) for eps in (0.1, 0.3, 0.9)]
    for mode, eps, n_max in grid:
        params = make_params(mode, eps, 1)
        expect = _float_rewriter_residuals(mode, eps, n_max, tamper)
        reports = check_identities_symbolic(params, n_max, tamper=tamper)
        assert [r.name for r in reports] == list(expect)
        for r in reports:
            assert r.residual == pytest.approx(expect[r.name], rel=1e-9, abs=0.0), (mode, eps, r)


def test_shifted_ladder_coefficient_fails_every_n(monkeypatch):
    original = normform._ladder_raise

    def shifted(n):
        # one t-exponent off by one: t^(2-n) s^2 becomes t^(3-n) s^2
        num = original(n).num
        key = next(e for e in num if e[0] == 2)
        num = {e: c for e, c in num.items() if e != key}
        num[(key[0], key[1] + 1, key[2])] = original(n).num[key]
        return ExactPoly(num, original(n).den)

    normform.exact_defects.cache_clear()
    try:
        monkeypatch.setattr(normform, "_ladder_raise", shifted)
        defects = exact_defects(N_MAX_CAP)
        reports = check_identities_symbolic(P_UNI, n_max=N_MAX_CAP)
    finally:
        monkeypatch.undo()
        normform.exact_defects.cache_clear()
    for defect, r in zip(defects, reports):
        untampered = [term for group in defect.groups for term in group if term[1] == 0]
        assert bool(untampered) == defect.name.startswith("ladder"), defect.name
        assert r.passed == defect.name.startswith("casimir"), r


def test_exact_defects_memo_is_bounded_and_immutable():
    for n in range(1, N_MAX_CAP + 1):
        exact_defects(n)
    info = exact_defects.cache_info()
    assert info.maxsize == N_MAX_CAP and info.currsize <= N_MAX_CAP
    # tolerance, tamper and params do not enter the memo
    for params in (P_UNI, P_REAL):
        for n in (1, 8, N_MAX_CAP):
            check_identities_symbolic(params, n, tol=1e-3, tamper=0.5)
    assert exact_defects.cache_info().currsize == info.currsize
    assert exact_defects.cache_info().misses == info.misses
    defects = exact_defects(3)
    assert exact_defects(3) is defects
    with pytest.raises(TypeError):
        defects[0] = defects[1]
    with pytest.raises(AttributeError):
        defects[0].den = 2
    with pytest.raises(TypeError):
        defects[0].groups[0][0] = (0, 0, 0)


def test_non_finite_tamper_rejected():
    a, abar = NCPoly.gen_a(P_UNI), NCPoly.gen_abar(P_UNI)
    for tamper in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            check_identities_symbolic(P_UNI, n_max=2, tamper=tamper)
        for p, r in ((a, abar), (NCPoly(P_UNI), abar)):
            with pytest.raises(ValueError, match="finite"):
                nf_product(p, r, tamper)


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
