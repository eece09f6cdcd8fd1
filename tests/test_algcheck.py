import itertools
import math

import numpy as np
import pytest

from qosc.algcheck import (
    DEFAULT_TOL,
    Arms,
    CheckReport,
    report,
    casimir,
    casimir_scalar_closed_form,
    check_defining_relations,
    check_ladder_identities,
    compare,
    ladder_factors,
    norm_profile,
    residual_of,
)
from qosc.qcore import make_params, qnum
from qosc.repbuild import RepBatch, auto_params, build_generic_window, build_rep, nu0

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


_EDGE_NORMS = [0.0, 5e-324, 1e-200, 1.0, 1e200, math.inf, math.nan]


@pytest.mark.parametrize("operands", [0, 1, 2])
def test_residual_rule_is_the_python_float_rule_at_its_edges(operands):
    """``d / max(1.0, n1 * n2)`` in Python floats, an absent operand reading 1.0, bit for bit,
    from ``residual_of`` and from a batched ``Arms`` block: subnormal, overflowing, infinite
    and NaN norms included."""
    cases = list(itertools.product(_EDGE_NORMS, repeat=1 + operands))
    padded = [case + (1.0,) * (2 - operands) for case in cases]
    want = [(d / max(1.0, n1 * n2)).hex() for d, n1, n2 in padded]
    norms = np.array(cases).reshape(len(cases), 1 + operands, 1, 1)  # one 1x1 matrix per norm
    assert [residual_of(*row).hex() for row in norms] == want
    arms = Arms(len(cases))
    arms.add("edge", *(norms[:, j] for j in range(1 + operands)))
    block = arms.block(DEFAULT_TOL, {})
    assert [x.hex() for x in block.residuals[:, 0].tolist()] == want


def test_an_arm_takes_at_most_two_operands():
    m = np.ones((1, 2, 2))
    with pytest.raises(TypeError):
        residual_of(m[0], m[0], m[0], m[0])
    with pytest.raises(TypeError):
        Arms(1).add("three", m, m, m, m)


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


def test_casimir_closed_form_refuses_the_real_line():
    with pytest.raises(ValueError, match="unimodular mode only"):
        casimir_scalar_closed_form(make_params("realline", 1.0, 1), 2)


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
    for n_max in (0, -1, 4):  # the admitted depths are 1..k+1
        for reps in (rep, RepBatch((rep, rep))):
            with pytest.raises(ValueError, match=r"outside 1\.\.k\+1 = 1\.\.3"):
                check_ladder_identities(reps, n_max=n_max)


def test_ladder_powers_out_of_double_range_overflow():
    # at eps=40 the real-line ladder entries are ~e**100, so Abar**8 leaves the
    # double range at k=9, while every power stays finite at k=8
    params = make_params("realline", 40.0, 1)
    reports = check_ladder_identities(build_rep(params, 8), n_max=8)
    assert all(r.passed for r in reports)
    assert all(math.isfinite(r.residual) for r in reports)
    with pytest.raises(OverflowError, match="order 8"):
        check_ladder_identities(build_rep(params, 9), n_max=8)


def test_a_ladder_coefficient_out_of_double_range_overflows_off_its_power():
    # at eps=300, k=2 the order-3 raising coefficient is inf at state 0, a row Abar**2
    # never reaches: the member drops all the same, as an inf times a row of zeros is NaN
    rep = build_rep(make_params("realline", 300.0, 1), 2)
    with pytest.raises(OverflowError) as exc:
        check_ladder_identities(rep, 3)
    assert str(exc.value) == "ladder powers of order 3 leave the double range"


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


# ---------------------------------------------------------------------------
# batches: one pass over same-k, same-mode reps


# members differ in epsilon and in branch l
BATCH_MEMBERS = {
    "unimodular": [(0.9, 0), (0.9, 2), (-1.1, 1), (PI / 5, 0), (2.5, 0)],
    "realline": [(1.0, 1), (1.0, 3), (-0.7, 0), (-0.7, 2), (2.0, 1)],
}


# Single-rep references: the per-point 2D matrix code the batched checks
# replaced, with residual_of's formula in Python floats, on the scalar data of
# the rep's own batch-of-one power table (test_table_scalars_match_the_cmath_formulas
# checks those scalars against the cmath formulas).


def _table(rep):
    return RepBatch((rep,)).powers


def ref_residual(defect, *operands):
    scale = 1.0
    for op in operands:
        scale *= float(np.abs(op).max())
    return float(np.abs(defect).max()) / max(1.0, scale)


def _ref_interior(defect, rep):
    if rep.normalized:
        return defect
    trimmed = defect.copy()
    trimmed[:, 0] = 0.0
    trimmed[:, -1] = 0.0
    return trimmed


def _ref_relations(rep):
    A, Abar, N = rep.A, rep.Abar, rep.Nmat
    step = np.diag(_table(rep).step(4 * np.arange(rep.dim))[0])
    return [
        report("rel_commutator",
               ref_residual(_ref_interior((A @ Abar - Abar @ A) - step, rep), A, Abar), DEFAULT_TOL),
        report("rel_number_raise", ref_residual((N @ Abar - Abar @ N) - Abar, N, Abar), DEFAULT_TOL),
        report("rel_number_lower", ref_residual((N @ A - A @ N) + A, N, A), DEFAULT_TOL),
    ]


def _ref_casimir(rep):
    numbers = _table(rep).number(4 * np.arange(rep.dim + 1), spectral=True)[0]  # [N], [N+1]
    c_low = rep.Abar @ rep.A - np.diag(numbers[:-1])
    c_high = rep.A @ rep.Abar - np.diag(numbers[1:])
    scalar = complex(c_low[1, 1] if not rep.normalized and rep.dim > 1 else c_low[0, 0])
    defect = _ref_interior(c_low - scalar * np.eye(rep.dim), rep)
    return c_low, scalar, (
        report("casimir_two_forms",
               ref_residual(_ref_interior(c_low - c_high, rep), rep.A, rep.Abar), DEFAULT_TOL),
        report("casimir_scalar", ref_residual(defect, c_low), DEFAULT_TOL, detail=f"scalar={scalar!r}"),
    )


def _ref_ladder(rep, n_max):
    out = []
    raise_pow = lower_pow = np.eye(rep.dim, dtype=complex)
    brackets, raising, lowering = (x[0] for x in ladder_factors(_table(rep), rep.dim, n_max))
    for n in range(1, n_max + 1):
        c_raise, c_lower = brackets[n - 1] * raising[n - 1], brackets[n - 1] * lowering[n - 1]
        raise_n, lower_n = raise_pow @ rep.Abar, lower_pow @ rep.A
        d_raise = rep.A @ raise_n - raise_n @ rep.A - c_raise[:, None] * raise_pow
        d_lower = rep.Abar @ lower_n - lower_n @ rep.Abar - c_lower[:, None] * lower_pow
        out.append(report(f"ladder_raise_n{n}", ref_residual(d_raise, rep.A, raise_n), DEFAULT_TOL))
        out.append(report(f"ladder_lower_n{n}", ref_residual(d_lower, rep.Abar, lower_n), DEFAULT_TOL))
        raise_pow, lower_pow = raise_n, lower_n
    return out


def _bits(reports):
    """Every field of each report, residual and tolerance to the bit."""
    return [(r.name, r.residual.hex(), r.tolerance.hex(), r.passed, r.detail) for r in reports]


def _assert_casimir_equal(got, want):
    assert got.scalar == want.scalar
    assert np.array_equal(got.matrix, want.matrix)
    assert _bits(got.reports) == _bits(want.reports)


def _members(block):
    """Each member's materialized reports, or the error that dropped it."""
    count = len(block.alive) + len(block.errors)
    assert sorted([*block.alive, *block.errors]) == list(range(count))
    return [block.errors[i] if i in block.errors else block.reports(i) for i in range(count)]


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_batched_checks_equal_single_rep_calls(mode):
    for k in range(10):
        reps = [build_rep(make_params(mode, eps, l), k) for eps, l in BATCH_MEMBERS[mode]]
        batch = RepBatch(tuple(reps))
        relations = check_defining_relations(batch)
        ladder = check_ladder_identities(batch, k + 1)
        cas = casimir(batch)
        assert relations.alive == ladder.alive == cas.alive == tuple(range(len(reps)))
        assert relations.residuals.shape == (len(reps), 3)
        for i, rep in enumerate(reps):
            assert _bits(relations.reports(i)) == _bits(check_defining_relations(rep))
            assert relations.reports(i) == _ref_relations(rep)
            assert _bits(ladder.reports(i)) == _bits(check_ladder_identities(rep, k + 1))
            assert ladder.reports(i) == _ref_ladder(rep, k + 1)
            _assert_casimir_equal(cas.result(i), casimir(rep))
            c_low, scalar, reports = _ref_casimir(rep)
            assert np.array_equal(cas.result(i).matrix, c_low)
            assert (cas.result(i).scalar, cas.result(i).reports) == (scalar, reports)


def test_batch_of_windows_trims_only_the_window_members():
    p = make_params("unimodular", 0.9, 0)
    reps = [build_generic_window(0.23 + 0j, 1.1 + 0j, p, 7), build_rep(p, 6),
            build_generic_window(-0.4 + 0j, 0.3 + 0j, p, 7)]
    batch = RepBatch(tuple(reps))
    for rep, got in zip(reps, _members(check_defining_relations(batch))):
        assert got == check_defining_relations(rep) == _ref_relations(rep)
    cas = casimir(batch)
    for i, rep in enumerate(reps):
        _assert_casimir_equal(cas.result(i), casimir(rep))
        assert cas.result(i).reports == _ref_casimir(rep)[2]


def test_batch_member_whose_ladder_powers_overflow_is_dropped_alone():
    # at eps=40 the k=9 ladder powers leave the double range at order 8
    reps = [build_rep(make_params("realline", eps, 1), 9) for eps in (1.0, 40.0, 2.0)]
    block = check_ladder_identities(RepBatch(tuple(reps)), 8)
    results = _members(block)
    assert block.alive == (0, 2) and block.residuals.shape == (2, 16)
    assert isinstance(results[1], OverflowError)
    assert str(results[1]) == "ladder powers of order 8 leave the double range"
    with pytest.raises(OverflowError, match="order 8"):
        block.reports(1)
    assert _bits(results[0]) == _bits(check_ladder_identities(reps[0], 8))
    assert _bits(results[2]) == _bits(check_ladder_identities(reps[2], 8))
    for rep, got in zip(reps, _members(check_defining_relations(RepBatch(tuple(reps))))):
        assert got == check_defining_relations(rep)  # finite there: every member stays
    # a member stops at the first order whose scalar coefficients (cmath's error)
    # or, failing those, whose matrix powers overflow, as its single-rep call does
    for k, epsilons in ((4, (1.0, 200.0, 250.0, 350.0)), (9, (40.0, 1.0, 100.0, 150.0))):
        reps = [build_rep(make_params("realline", eps, 1), k) for eps in epsilons]
        n_max = min(8, k + 1)
        messages = set()
        for rep, got in zip(reps, _members(check_ladder_identities(RepBatch(tuple(reps)), n_max))):
            try:
                want = check_ladder_identities(rep, n_max)
            except OverflowError as exc:
                want = str(exc)
                got = str(got)
                messages.add(want.split(" of order")[0])
            assert got == want, (k, rep.params.epsilon)
        assert messages == {"math range error", "ladder powers"}
