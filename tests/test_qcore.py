import cmath
import math

import numpy as np
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


# ---------------------------------------------------------------------------
# the power table of a batch


@pytest.mark.parametrize("k", [0, 3, 9])
def test_table_rows_equal_their_batch_of_one_rows(k):
    from qosc.repbuild import RepBatch, build_generic_window, build_rep

    reps = [build_rep(make_params("unimodular", eps, l), k) for eps, l in
            ((0.9, 0), (-1.1, 1), (1e9 + 0.3, 0), (2.5, 2))]
    if k >= 2:  # a window of the same k, whose root is one exp
        p = make_params("unimodular", 0.9, 0)
        reps.append(build_generic_window(complex(0.3, 0.2), complex(0.7, -0.4), p, k + 1))
    batch = RepBatch(tuple(reps))
    table = batch.powers
    for i, rep in enumerate(batch.reps):
        alone = RepBatch((rep,)).powers
        assert (alone.span, alone.center) == (table.span, table.center) == (4 * k + 4, 2 * k + 2)
        for field in ("powers", "offsets", "unit", "root"):
            mine, single = getattr(table, field)[i], getattr(alone, field)[0]
            assert mine.tobytes() == single.tobytes(), (k, i, field)
        if rep.normalized:
            assert table.unit[i] == (1j if rep.params.l % 2 == 0 else -1j) and table.root[i] == 1


@pytest.mark.parametrize("mode,eps,l", [("unimodular", 0.9, 0), ("unimodular", -2.5, 1),
                                        ("realline", 1.0, 1), ("realline", -0.7, 0)])
def test_table_scalars_match_the_cmath_formulas(mode, eps, l):
    """Every scalar a check reads from the table agrees with the scalar formula it replaced:
    steps, deformed numbers, ``K``, the star steps, the Delta(N) steps of the Hopf check,
    the ladder coefficients ``[n]' G_n`` and ``-[n]' H_n``, and the su(2) brackets."""
    from qosc.algcheck import ladder_factors
    from qosc.repbuild import RepBatch, build_generic_window, build_rep
    from qosc.sumap import _spin_map, _su2_numbers

    p = make_params(mode, eps, l)
    k = 5
    close = lambda got, want: np.allclose(got[0], want, rtol=1e-13, atol=1e-13)  # noqa: E731
    for rep in (build_rep(p, k), build_generic_window(complex(0.3, 0.2), 0.7 + 0j, p, k + 1)):
        pw, n = RepBatch((rep,)).powers, np.arange(k + 1)
        nvals = [rep.nu0 + j for j in range(k + 1)]
        assert close(pw.step(4 * n), [bracket_step(v, p) for v in nvals])
        assert close(pw.number(4 * n + 4, spectral=True), [qnum(v + 1.0, p.log_q) for v in nvals])
        assert close(pw.root[:, None] * pw(2 * n - k), [p.qpow((v + p.gamma) / 2.0) for v in nvals])
        conj = p.log_q.conjugate()
        for eta in (0.0, complex(0.0, -3 * PI / eps)):
            sign = -1 if mode == "unimodular" else 1
            got = pw.step(4 * n, sign, np.array([cmath.exp(conj * eta)]))
            assert close(got, [qnum(v + eta + 1.0, conj) - qnum(v + eta, conj) for v in nvals])
        # the diagonal block of Delta(N) holds 2 nu0 + gamma + i + j
        ij = np.add.outer(n, n)
        got = pw.step(4 * ij - 2 * k, shift=pw.root * pw.root)
        assert close(got, np.vectorize(lambda s: bracket_step(2 * rep.nu0 + p.gamma + s, p))(ij))
        half = p.log_q / 2.0
        den = p.qpow(0.5) + p.qpow(-0.5)
        brackets, raising, lowering = ladder_factors(pw, k + 1, k + 1)
        for order in range(1, k + 2):
            g = [(p.qpow(v - order / 2 + 1) + p.qpow(-(v - order / 2 + 1))) / den for v in nvals]
            h = [(p.qpow(v + order / 2) + p.qpow(-(v + order / 2))) / den for v in nvals]
            c = brackets[:, order - 1, None]
            assert close(c * raising[:, order - 1], qnum(order, half) * np.array(g))
            assert close(c * lowering[:, order - 1], -qnum(order, half) * np.array(h))
    lg = cmath.log(p.sqrt_q)
    ms = np.arange(k + 1) - k / 2.0
    steps, casimirs, targets = _su2_numbers(_spin_map(build_rep(p, k)).powers, k + 1)
    assert close(steps, [qnum(2 * m, lg) for m in ms])
    assert close(casimirs, [qnum(m, lg) * qnum(m + 1, lg) for m in ms])
    assert close(targets, [qnum(k / 2.0, lg) * qnum(k / 2.0 + 1, lg)])


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_deformed_numbers_keep_their_digits_near_q_equal_one(mode):
    from qosc.algcheck import ladder_factors
    from qosc.repbuild import RepBatch, build_rep

    eps = 2e-6
    pw = RepBatch((build_rep(make_params(mode, eps, 0 if mode == "unimodular" else 1), 3),)).powers
    gap = complex(0.0, 2.0 * math.sin(eps)) if mode == "unimodular" else 2.0 * math.sinh(eps)
    assert (pw.offset(4) - pw.offset(-4))[0] == pytest.approx(gap, rel=1e-15)
    # [x] at base q: 1 at x = 1, q + 1/q at x = 2, and [1/2] = 1 / (q**(1/2) + q**(-1/2))
    two = 2.0 * (math.cos(eps) if mode == "unimodular" else math.cosh(eps))
    half = 0.5 / (math.cos(eps / 2) if mode == "unimodular" else math.cosh(eps / 2))
    for m, want in ((4, 1.0), (8, two), (2, half)):
        assert pw.number(np.array([m]))[0, 0] == pytest.approx(want, rel=1e-15)
    # the ladder bracket (t**n - t**-n) / (t**2 - t**-2), t = q**(1/2)
    sin = math.sin if mode == "unimodular" else math.sinh
    brackets = ladder_factors(pw, 4, 4)[0][0]
    for order in (1, 2, 3, 4):
        assert brackets[order - 1] == pytest.approx(sin(order * eps / 2) / sin(eps), rel=1e-15)
