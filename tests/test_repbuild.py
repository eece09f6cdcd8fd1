import math

import numpy as np
import pytest

from qosc.errors import DegenerateParameter, DimensionTooLarge, ParityViolation
from qosc.hopfstar import involution
from qosc.qcore import make_params, qnum
from qosc.repbuild import (
    MAX_K,
    auto_params,
    build_generic_window,
    build_rep,
    choose_branch,
    lambda_seq,
    norm_factors,
    nu0,
    require_parity,
    truncation_admissible,
    truncation_condition,
)

PI = math.pi

# hand values for the frozen parameter points
NU0_UNI_09_L0_K3 = -0.25467074800567047
NU0_REAL_1_L1_K2 = complex(-1.5, 4.71238898038469)
LAM_UNI_09_L0_K3 = [1.0835987536383884, 1.5666538192549668, 1.0835987536383884]
LAM_REAL_1_L1_K2 = [1.0421906109874945, 1.0421906109874945]
ABAR_REAL_1_L1_K1 = 0.6797919955839504


def test_worked_unimodular_two_dim():
    """At eps = pi/2 the k = 1 block is the undeformed 2x2 ladder."""
    rep = build_rep(make_params("unimodular", PI / 2, 0), 1)
    assert np.allclose(rep.A, [[0, 1], [0, 0]])
    assert np.allclose(rep.Abar, [[0, 0], [1, 0]])
    assert np.allclose(rep.Nmat, np.diag([0.0, 1.0]))
    assert rep.nu0 == pytest.approx(0.0)
    assert rep.lambdas == pytest.approx((1.0,))


def test_worked_real_line_two_dim():
    rep = build_rep(make_params("realline", 1.0, 1), 1)
    assert rep.Abar[1, 0] == pytest.approx(ABAR_REAL_1_L1_K1)
    assert rep.A[0, 1] == pytest.approx(1j * ABAR_REAL_1_L1_K1)
    assert np.allclose(np.diag(rep.Nmat), [complex(-1, 1.5 * PI), complex(0, 1.5 * PI)])
    assert rep.lambdas[0] == pytest.approx(1j * math.tanh(0.5))


def test_nu0_closed_forms():
    assert nu0(make_params("unimodular", 0.9, 0), 3) == pytest.approx(NU0_UNI_09_L0_K3)
    assert nu0(make_params("realline", 1.0, 1), 2) == pytest.approx(NU0_REAL_1_L1_K2)


@pytest.mark.parametrize("l", [0, 1, 2000000, 2000001])
@pytest.mark.parametrize("mode,eps", [("unimodular", 0.9), ("unimodular", -0.7),
                                      ("unimodular", 3.1415937), ("unimodular", 1000000000.3),
                                      ("realline", 700.0)])
def test_branch_shift_is_one_formula_to_the_bit(mode, eps, l):
    """gamma, nu0 and the imaginary involutions' eta carry the same branch shift."""
    shift = (2 * l + 1) * PI / (2 * eps)
    p, k = make_params(mode, eps, l), 3
    base = -(k + 1) / 2.0
    if mode == "unimodular":
        assert p.gamma == complex(0.5 - shift, 0.0)
        assert nu0(p, k) == complex(base + shift, 0.0)
        return
    assert p.gamma == complex(0.5, -shift)
    assert nu0(p, k) == complex(base, shift)
    for kind in ("imaginary_plus", "imaginary_minus"):
        # halving and doubling are exact, so eta is -(2l+1)pi/eps to the bit
        eta = involution(kind, p).eta
        assert eta == complex(0.0, -2.0 * shift) == complex(0.0, -(2 * l + 1) * PI / eps)


def test_lambda_seq_frozen_values():
    p = make_params("unimodular", 0.9, 0)
    assert lambda_seq(p, 3) == pytest.approx(LAM_UNI_09_L0_K3)
    p = make_params("realline", 1.0, 1)
    assert lambda_seq(p, 2) == pytest.approx([1j * v for v in LAM_REAL_1_L1_K2])


def test_lambda_seq_symmetric_under_reflection():
    # the product [n][k+1-n] is invariant under n -> k+1-n
    p = make_params("unimodular", 0.7, 0)
    lams = lambda_seq(p, 5)
    assert lams == pytest.approx(lams[::-1])


@pytest.mark.parametrize(
    "mode,eps,l_good,l_bad",
    [
        ("unimodular", 0.9, 0, 1),
        ("unimodular", -0.9, 1, 0),
        ("unimodular", 4.0, 1, 0),  # tan(eps/2) < 0 on this arc
        # just past each side of the guard bands at pi and 2 pi, and a large epsilon
        ("unimodular", PI - 2e-6, 0, 1),
        ("unimodular", PI + 2e-6, 1, 0),
        ("unimodular", 2 * PI - 2e-6, 1, 0),
        ("unimodular", 2 * PI + 2e-6, 0, 1),
        ("unimodular", 1000000000.3, 0, 1),
        ("realline", 1.0, 1, 0),
        ("realline", -1.0, 0, 1),
        ("realline", 2e-6, 1, 0),
        ("realline", -2e-6, 0, 1),
        ("realline", 700.0, 1, 0),
        ("realline", -700.0, 0, 1),
    ],
)
def test_branch_sign_rule(mode, eps, l_good, l_bad):
    assert choose_branch(mode, eps) == l_good
    require_parity(make_params(mode, eps, l_good))
    with pytest.raises(ParityViolation):
        require_parity(make_params(mode, eps, l_bad))
    with pytest.raises(ParityViolation):
        build_rep(make_params(mode, eps, l_bad), 2)


def test_choose_branch_guards():
    with pytest.raises(DegenerateParameter):
        choose_branch("unimodular", 0.0)
    with pytest.raises(DegenerateParameter):
        choose_branch("unimodular", PI)
    with pytest.raises(DegenerateParameter):
        choose_branch("realline", 1e-9)
    for mode in ("unimodular", "realline"):
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(DegenerateParameter):
                choose_branch(mode, eps)


@pytest.mark.parametrize("mode,eps", [("unimodular", 0.4), ("realline", 1.3), ("realline", -0.6)])
def test_norm_factors_positive_under_rule(mode, eps):
    p = auto_params(mode, eps)
    assert all(f > 0 for f in norm_factors(p, 6))


def test_rep_matrices_are_frozen_views():
    rep = build_rep(make_params("unimodular", 0.9, 0), 2)
    with pytest.raises(ValueError):
        rep.A[0, 0] = 5.0
    assert rep.dim == 3
    assert rep.normalized


def test_ladder_shape_and_number_diagonal():
    p = make_params("unimodular", 0.9, 0)
    rep = build_rep(p, 4)
    assert np.allclose(rep.A, np.triu(rep.A, 1))
    assert np.allclose(rep.Abar, np.tril(rep.Abar, -1))
    base = nu0(p, 4)
    assert np.allclose(np.diag(rep.Nmat), [base + n for n in range(5)])
    # shifted by gamma the number operator is real in both modes
    assert np.allclose((np.diag(rep.Nmat) + p.gamma).imag, 0.0)


def test_a_abar_product_reproduces_lambdas():
    p = make_params("realline", 0.8, 1)
    rep = build_rep(p, 4)
    prod = rep.A @ rep.Abar
    assert np.allclose(np.diag(prod)[:-1], rep.lambdas)
    # the highest state is annihilated by raising
    assert abs(prod[4, 4]) == 0.0


def test_dimension_cap():
    p = make_params("unimodular", 0.9, 0)
    with pytest.raises(DimensionTooLarge):
        build_rep(p, MAX_K + 1)
    with pytest.raises(ValueError):
        build_rep(p, -1)


def test_truncation_condition_vanishes_on_distinguished_base():
    for mode, eps, l, k in [("unimodular", 0.9, 0, 3), ("realline", 1.0, 1, 5)]:
        p = make_params(mode, eps, l)
        rpt = truncation_admissible(p, k)
        assert rpt.admissible
        assert abs(rpt.condition_value) < 1e-10


def test_truncation_condition_generic_base_fails():
    p = make_params("unimodular", 0.9, 0)
    value = truncation_condition(p, 3, nu0(p, 3) + 0.37)
    assert abs(value) > 1e-3


def test_generic_window_reproduces_recurrence():
    """Off the truncation lattice the lowering eigenvalues follow the
    first-order recurrence lambda_n - lambda_{n-1} = [nu0 + n] - [nu0 + n - 1]."""
    p = make_params("unimodular", 0.9, 0)
    base, lam0 = 0.31 + 0.0j, 0.8 + 0.0j
    rep = build_generic_window(base, lam0, p, 6)
    assert not rep.normalized
    for n in range(1, 6):
        expect = lam0 + qnum(base + n, p.log_q) - qnum(base, p.log_q)
        assert rep.lambdas[n - 1] == pytest.approx(expect)
    with pytest.raises(ValueError):
        build_generic_window(base, lam0, p, 2)
