import math

import numpy as np
import pytest

from qosc.algcheck import (
    CheckReport,
    casimir,
    casimir_scalar_closed_form,
    check_defining_relations,
    check_ladder_identities,
    compare,
    norm_profile,
    residual_of,
)
from qosc.qcore import make_params, qnum
from qosc.repbuild import auto_params, build_generic_window, build_rep, nu0

PI = math.pi

CAS_UNI_09_L0_K3 = 0.29004760579607136
CAS_UNI_PI5_L0_K0 = -1.6180339887498947
CAS_REAL_1_L1_K2 = complex(0.0, 2.0017079866549667)

GRID = [
    ("unimodular", PI / 5, 0, 4),
    ("unimodular", 0.9, 0, 6),
    ("unimodular", 2.0, 0, 6),
    ("unimodular", -1.1, 1, 5),
    ("realline", 1.0, 1, 6),
    ("realline", -0.7, 0, 5),
]


def _worst(reports):
    return max(r.residual for r in reports)


@pytest.mark.parametrize("mode,eps,l,k", GRID)
def test_defining_relations_hold(mode, eps, l, k):
    rep = build_rep(make_params(mode, eps, l), k)
    reports = check_defining_relations(rep)
    assert {r.name for r in reports} == {
        "rel_commutator",
        "rel_number_raise",
        "rel_number_lower",
    }
    assert all(r.passed for r in reports)
    assert _worst(reports) < 1e-14


def test_relations_hold_on_generic_window_interior():
    # unnormalized, off-lattice window: relations only away from the cut
    p = make_params("unimodular", 0.9, 0)
    rep = build_generic_window(0.23 + 0j, 1.1 + 0j, p, 7)
    assert all(r.passed for r in check_defining_relations(rep))


def test_report_pass_is_strict_tolerance_comparison():
    r = CheckReport(name="x", residual=1e-10, tolerance=1e-10, passed=False)
    assert not r.passed
    good = compare("eq", np.eye(2), np.eye(2), tol=1e-12)
    assert good.passed and good.residual == 0.0
    bad = compare("neq", np.eye(2), 2 * np.eye(2), tol=1e-12)
    assert not bad.passed


def test_residual_is_normalized_by_operand_scale():
    a = np.full((3, 3), 1e8)
    defect = np.full((3, 3), 1.0)
    assert residual_of(defect, a, a) == pytest.approx(1.0 / 1e16)
    # small operands do not inflate the residual
    assert residual_of(defect, 1e-8 * a) == pytest.approx(1.0)


@pytest.mark.parametrize("mode,eps,l,k", GRID)
def test_casimir_scalar_and_two_forms(mode, eps, l, k):
    p = make_params(mode, eps, l)
    rep = build_rep(p, k)
    result = casimir(rep)
    assert all(r.passed for r in result.reports)
    assert np.allclose(result.matrix, result.scalar * np.eye(k + 1), atol=1e-12)
    assert result.scalar == pytest.approx(-qnum(nu0(p, k), p.log_q))
    if mode == "unimodular":
        assert result.scalar == pytest.approx(casimir_scalar_closed_form(p, k))


def test_casimir_frozen_values():
    rep = build_rep(make_params("unimodular", 0.9, 0), 3)
    assert casimir(rep).scalar == pytest.approx(CAS_UNI_09_L0_K3)
    rep = build_rep(make_params("unimodular", PI / 5, 0), 0)
    assert casimir(rep).scalar == pytest.approx(CAS_UNI_PI5_L0_K0)
    rep = build_rep(make_params("realline", 1.0, 1), 2)
    assert casimir(rep).scalar == pytest.approx(CAS_REAL_1_L1_K2)


def test_real_line_casimir_is_purely_imaginary():
    for k in range(5):
        scalar = casimir(build_rep(make_params("realline", 0.8, 1), k)).scalar
        assert abs(scalar.real) < 1e-12


@pytest.mark.parametrize("mode,eps,l,k", GRID)
def test_ladder_identities_matrix_route(mode, eps, l, k):
    rep = build_rep(make_params(mode, eps, l), k)
    reports = check_ladder_identities(rep, n_max=k + 1)
    assert len(reports) == 2 * (k + 1)
    assert all(r.passed for r in reports)
    # large powers on the real line lose a couple of digits to cancellation
    assert _worst(reports) < 1e-11


def test_ladder_identities_cap():
    rep = build_rep(make_params("unimodular", 0.9, 0), 2)
    with pytest.raises(ValueError):
        check_ladder_identities(rep, n_max=4)


def test_ladder_powers_out_of_double_range_overflow():
    # at eps=40 the real-line ladder entries are ~e**100, so Abar**8 leaves the
    # double range at k=9, while every power stays finite at k=8
    params = make_params("realline", 40.0, 1)
    reports = check_ladder_identities(build_rep(params, 8), n_max=8)
    assert all(r.passed for r in reports)
    assert all(math.isfinite(r.residual) for r in reports)
    with pytest.raises(OverflowError, match="order 8"):
        check_ladder_identities(build_rep(params, 9), n_max=8)


def test_norm_profile_positive_and_monotone_start():
    profile, rpt = norm_profile(auto_params("unimodular", 0.3), 8)
    assert rpt.passed
    assert len(profile) == 9
    assert profile[0] == 1.0
    assert all(v > 0 for v in profile)


def test_norm_profile_flags_positivity_loss():
    """Past k*eps/2 = pi a bracket factor changes sign; the profile check
    reports it instead of raising."""
    profile, rpt = norm_profile(auto_params("unimodular", 2.0), 6)
    assert min(profile) < 0
    assert not rpt.passed
