import math

import numpy as np
import pytest

from qosc.errors import DimensionTooLarge, ModeMismatch, NoSolution
from qosc.hopfstar import (
    Flavor,
    InvolutionKind,
    _swap_factors,
    check_hopf_axioms,
    check_star_structure,
    coproduct,
    derive_involutions,
    involution,
    parity_metric,
    with_flavor,
)
from qosc.qcore import make_params
from qosc.repbuild import build_rep

PI = math.pi

ETA_REAL_1_L1 = complex(0.0, -9.42477796076938)
ETA_REAL_07_L1 = complex(0.0, -13.463968515384828)

POINTS = [
    ("unimodular", PI / 5, 0, 3),
    ("unimodular", 0.9, 0, 2),
    ("unimodular", -1.1, 1, 3),
    ("realline", 1.0, 1, 3),
    ("realline", -0.7, 0, 2),
]


def _rep(mode, eps, l, k):
    return build_rep(make_params(mode, eps, l), k)


def _by_name(reports):
    return {r.name: r for r in reports}


# ---------------------------------------------------------------------------
# coproduct structure


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_coproduct_of_lowering_matches_hand_kron(mode, eps, l, k):
    """Delta(a) = a (x) K + K^-1 (x) a with K = q^((N+gamma)/2) group-like."""
    rep = _rep(mode, eps, l, k)
    p = rep.params
    # N + gamma has the real eigenvalues n - k/2 in both modes
    kmat = np.diag([p.qpow((n - k / 2.0) / 2.0) for n in range(k + 1)])
    expect = np.kron(rep.A, kmat) + np.kron(np.linalg.inv(kmat), rep.A)
    assert np.allclose(coproduct(rep, "a").realized, expect, atol=1e-12)


def test_coproduct_of_number_is_additive_with_shift():
    rep = _rep("unimodular", 0.9, 0, 2)
    p = rep.params
    eye = np.eye(3)
    expect = (
        np.kron(rep.Nmat, eye)
        + np.kron(eye, rep.Nmat)
        + p.gamma * np.kron(eye, eye)
    )
    assert np.allclose(coproduct(rep, "N").realized, expect, atol=1e-12)


def test_swap_matrix_exchanges_tensor_factors():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    assert np.allclose(_swap_factors(np.kron(x, y), 3), np.kron(y, x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_hopf_axioms(mode, eps, l, k):
    reports = check_hopf_axioms(_rep(mode, eps, l, k))
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-12
    names = {r.name for r in reports}
    assert {"homomorphism_commutator", "coassoc_a", "counit_left_N", "antipode_right_abar"} <= names


def test_coassociativity_cap():
    rep = _rep("unimodular", 0.9, 0, 2)
    with pytest.raises(DimensionTooLarge):
        check_hopf_axioms(rep, coassoc_cap=8)


# ---------------------------------------------------------------------------
# involutions


def test_canonical_involution_is_nonstandard():
    inv = involution("canonical", make_params("unimodular", 0.9, 0))
    assert inv.alpha == 1.0 and inv.beta == 1.0 and inv.eta == 0.0
    assert inv.flavor is Flavor.NONSTANDARD


def test_imaginary_involutions_real_line_only():
    p = make_params("realline", 1.0, 1)
    minus = involution(InvolutionKind.IMAGINARY_MINUS, p)
    plus = involution("imaginary_plus", p)
    assert minus.alpha == pytest.approx(-1j)
    assert plus.alpha == pytest.approx(1j)
    assert minus.eta == pytest.approx(ETA_REAL_1_L1)
    assert plus.flavor is Flavor.STANDARD
    with pytest.raises(ModeMismatch):
        involution("imaginary_plus", make_params("unimodular", 0.9, 0))


def test_involution_shift_scales_with_epsilon():
    p = make_params("realline", 0.7, 1)
    assert involution("imaginary_minus", p).eta == pytest.approx(ETA_REAL_07_L1)


def test_with_flavor_overrides_only_flavor():
    inv = involution("canonical", make_params("unimodular", 0.9, 0))
    forced = with_flavor(inv, "standard")
    assert forced.flavor is Flavor.STANDARD
    assert (forced.alpha, forced.beta, forced.eta) == (inv.alpha, inv.beta, inv.eta)


def test_involution_spec_validates_involutivity():
    from qosc.hopfstar import InvolutionSpec

    with pytest.raises(ValueError):
        InvolutionSpec(2j, 2j, 0.0, Flavor.STANDARD, "bad")


# ---------------------------------------------------------------------------
# the conjugation dichotomy


def test_canonical_star_all_arms_pass_at_unit_modulus():
    rep = _rep("unimodular", 0.9, 0, 3)
    reports = check_star_structure(rep, involution("canonical", rep.params))
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-13


def test_forced_standard_flavor_breaks_ladder_compat_at_unit_modulus():
    rep = _rep("unimodular", 0.9, 0, 3)
    forced = with_flavor(involution("canonical", rep.params), Flavor.STANDARD)
    by = _by_name(check_star_structure(rep, forced))
    for name in ("coproduct_standard_a", "coproduct_standard_abar",
                 "antipode_standard_a", "antipode_standard_abar"):
        assert not by[name].passed
        assert by[name].residual > 1e-2
    # the number component never feels the flavor mismatch
    assert by["coproduct_standard_N"].passed
    assert by["antipode_standard_N"].passed
    assert by["star_matrix_a"].passed


def test_imaginary_minus_is_standard_star_on_real_line():
    rep = _rep("realline", 1.0, 1, 3)
    reports = check_star_structure(rep, involution("imaginary_minus", rep.params))
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-13


def test_imaginary_plus_needs_parity_reflected_adjoint():
    rep = _rep("realline", 1.0, 1, 3)
    plus = involution("imaginary_plus", rep.params)
    plain = _by_name(check_star_structure(rep, plus))
    assert not plain["star_matrix_a"].passed
    twisted = check_star_structure(rep, plus, metric=parity_metric(rep.dim))
    assert all(r.passed for r in twisted)


def test_canonical_involution_fails_on_real_line():
    """With real q the canonical conjugation breaks the number-operator star
    (and with it every coproduct component), while the ladder relations
    conjugate consistently."""
    rep = _rep("realline", 1.0, 1, 2)
    by = _by_name(check_star_structure(rep, involution("canonical", rep.params)))
    assert by["algebra_compat_commutator"].passed
    assert by["counit_a"].passed
    for name in ("star_matrix_N", "counit_N", "coproduct_nonstandard_a",
                 "coproduct_nonstandard_N", "antipode_nonstandard_abar"):
        assert not by[name].passed
        assert by[name].residual > 1e-2


# ---------------------------------------------------------------------------
# involution recovery


@pytest.mark.parametrize("eps,l,k", [(1.0, 1, 2), (1.0, 1, 5), (0.7, 1, 3), (-0.9, 0, 4)])
def test_derive_involutions_recovers_imaginary_pair(eps, l, k):
    rep = _rep("realline", eps, l, k)
    minus, plus = derive_involutions(rep)
    shift = complex(0.0, -(2 * l + 1) * PI / eps)
    for inv, sign in ((minus, -1j), (plus, 1j)):
        assert inv.alpha == pytest.approx(sign, abs=1e-10)
        assert inv.beta == pytest.approx(sign, abs=1e-10)
        assert inv.eta == pytest.approx(shift, abs=1e-10)
        assert inv.flavor is Flavor.STANDARD


def test_derive_involutions_guards():
    with pytest.raises(ModeMismatch):
        derive_involutions(_rep("unimodular", 0.9, 0, 2))
    with pytest.raises(NoSolution):
        derive_involutions(_rep("realline", 1.0, 1, 0))
