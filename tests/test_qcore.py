import cmath
import math

import pytest

from qosc.errors import DegenerateParameter
from qosc.qcore import Mode, bracket_step, make_params, qnum, qnumber

PI = math.pi

# hand values: gamma = 1/2 - (2l+1)*pi/(2*eps), imaginary on the real line
GAMMA_UNI_PI5_L0 = -2.0
GAMMA_UNI_09_L0 = -1.2453292519943295
GAMMA_REAL_1_L1 = complex(0.5, -4.71238898038469)
GAMMA_REAL_M07_L0 = complex(0.5, 2.243994752564138)


def test_unimodular_params_fields():
    p = make_params("unimodular", PI / 5, 0)
    assert p.mode is Mode.UNIMODULAR
    assert p.gamma == pytest.approx(GAMMA_UNI_PI5_L0)
    assert p.q == pytest.approx(cmath.exp(1j * PI / 5))
    assert p.sqrt_q == pytest.approx(cmath.exp(1j * PI / 10))
    assert p.log_q == pytest.approx(1j * PI / 5)


def test_real_line_params_fields():
    p = make_params(Mode.REAL_LINE, 1.0, 1)
    assert p.gamma == pytest.approx(GAMMA_REAL_1_L1)
    assert p.q == pytest.approx(math.e)
    assert p.log_q == pytest.approx(1.0)


@pytest.mark.parametrize(
    "mode,eps,l,gamma",
    [
        ("unimodular", 0.9, 0, GAMMA_UNI_09_L0),
        ("realline", -0.7, 0, GAMMA_REAL_M07_L0),
    ],
)
def test_gamma_closed_form(mode, eps, l, gamma):
    assert make_params(mode, eps, l).gamma == pytest.approx(gamma)


@pytest.mark.parametrize(
    "mode,eps,l",
    [
        ("unimodular", PI / 5, 0),
        ("unimodular", 2.0, 3),
        ("realline", 1.0, 1),
        ("realline", -0.4, 2),
    ],
)
def test_group_like_exponent_squares_to_minus_one(mode, eps, l):
    """q^(2*gamma - 1) = -1 pins gamma to the branch lattice in both modes."""
    p = make_params(mode, eps, l)
    assert p.qpow(2 * p.gamma - 1) == pytest.approx(-1.0)


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_zero_epsilon_rejected(mode):
    with pytest.raises(DegenerateParameter):
        make_params(mode, 0.0)
    with pytest.raises(DegenerateParameter):
        make_params(mode, 1e-9)
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateParameter):
            make_params(mode, eps)


def test_unimodular_pi_multiples_rejected():
    for eps in (PI, -PI, 2 * PI, 3 * PI + 1e-8):
        with pytest.raises(DegenerateParameter):
            make_params("unimodular", eps)
    # the real line has no such locus
    make_params("realline", PI, 1)


def test_qpow_is_exponential_in_chosen_branch():
    p = make_params("unimodular", 0.9)
    assert p.qpow(2.5) == pytest.approx(cmath.exp(2.5j * 0.9))
    assert p.qpow(0) == 1.0


# deformed numbers against the sine/sinh ratio route
@pytest.mark.parametrize(
    "mode,eps,x,value",
    [
        ("unimodular", 0.9, 2.5, 0.9932930776729467),
        ("unimodular", PI / 5, 2.0, 1.6180339887498947),
        ("realline", 0.9, 2.5, 4.569987208598066),
        ("realline", 1.0, 3.0, 8.524391382167265),
    ],
)
def test_qnum_matches_ratio_form(mode, eps, x, value):
    p = make_params(mode, eps, l=1 if mode == "realline" else 0)
    assert qnum(x, p.log_q) == pytest.approx(value)
    assert qnumber(x, p.q) == pytest.approx(value)


def test_qnum_limits_to_plain_number():
    assert qnum(5.0, 1e-8) == pytest.approx(5.0)


def test_qnumber_rejects_degenerate_base():
    with pytest.raises(DegenerateParameter):
        qnumber(2.0, 1.0)
    with pytest.raises(DegenerateParameter):
        qnumber(2.0, -1.0)


def test_qnum_integer_values_are_chebyshev_like():
    # [2]_q = q + 1/q and [3]_q = q^2 + 1 + q^-2 for any base
    p = make_params("realline", 0.7, 1)
    q = p.q
    assert qnum(2, p.log_q) == pytest.approx(q + 1 / q)
    assert qnum(3, p.log_q) == pytest.approx(q * q + 1 + 1 / (q * q))


@pytest.mark.parametrize("mode,eps,l", [("unimodular", 0.9, 0), ("realline", 1.0, 1)])
def test_bracket_step_telescopes(mode, eps, l):
    """bracket_step(nu) = [nu+1] - [nu]; summing recovers [m] from [0] = 0."""
    p = make_params(mode, eps, l)
    total = 0.0
    for n in range(6):
        total += bracket_step(float(n), p)
    assert total == pytest.approx(qnum(6.0, p.log_q))


def test_params_are_frozen():
    p = make_params("unimodular", 0.9)
    with pytest.raises(AttributeError):
        p.epsilon = 1.0
