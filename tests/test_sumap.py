import cmath
import math

import numpy as np
import pytest

from qosc.algcheck import DEFAULT_TOL, report
from qosc.errors import DegenerateParameter
from qosc.qcore import make_params, qnum
from qosc.repbuild import RepBatch, band, build_rep
from qosc.sumap import (
    SuTriple,
    _reference,
    _spin_map,
    _su2_numbers,
    check_equivalence,
    check_su2,
    su2_direct,
    to_su2,
)

PI = math.pi

POINTS = [
    ("unimodular", PI / 5, 0, 4),
    ("unimodular", 0.9, 0, 6),
    ("unimodular", 2.0, 0, 6),
    ("realline", 1.0, 1, 6),
    ("realline", -0.7, 0, 5),
]


def _rep(mode, eps, l, k):
    return build_rep(make_params(mode, eps, l), k)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("base", [np.exp(0.45j), np.exp(0.3), 1.3 * np.exp(0.4j)])
def test_direct_spin_matrices_satisfy_deformed_relations(j, base):
    triple = su2_direct(j, base)
    assert all(r.passed for r in check_su2(triple))
    assert triple.Jp.shape == (int(2 * j) + 1,) * 2


def test_direct_spin_half_is_undeformed():
    t = su2_direct(0.5, np.exp(0.2j))
    assert np.allclose(t.Jp @ t.Jm - t.Jm @ t.Jp, np.diag([-1.0, 1.0]))
    assert np.allclose(np.diag(t.J0), [-0.5, 0.5])


@pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan, -0.5, 0.3])
def test_direct_spin_block_refuses_j_off_the_half_integers(j):
    with pytest.raises(ValueError, match=f"j={j}"):
        su2_direct(j, 1j)


@pytest.mark.parametrize("j,Q", [(0.5, 1.0), (1.0, 1 + 1e-15), (0.5, 0.0), (2.0, 0j),
                                 (1.5, complex(math.nan, 0.0)), (1.5, math.inf)])
def test_direct_spin_block_refuses_a_base_without_deformed_numbers(j, Q):
    with pytest.raises(DegenerateParameter, match="Q="):
        su2_direct(j, Q)


@pytest.mark.parametrize("j,Q", [(1.5, 1e300 + 1e300j), (32.0, np.exp(350.0))])
def test_direct_spin_block_raises_where_its_weights_overflow(j, Q):
    with pytest.raises(OverflowError, match="double range"):
        su2_direct(j, Q)


def _scalar_bracket(x, Q):
    """``[x]`` at base ``Q``, entry by entry in ``math`` and ``cmath``: exactly real on the unit
    circle and on the positive real axis."""
    if abs(abs(Q) - 1.0) < 1e-14:
        theta = cmath.phase(Q)
        return complex(math.sin(x * theta) / math.sin(theta), 0.0)
    if abs(Q.imag) < 1e-14 and Q.real > 0.0:
        t = math.log(Q.real)
        return complex(math.sinh(x * t) / math.sinh(t), 0.0)
    return qnum(x, cmath.log(Q))


def _scalar_reference(j, Q):
    """The weights of ``Jp``, ``Jm`` and ``J0`` of the spin-j block, one closed form per entry."""
    ms = [-j + n for n in range(round(2 * j) + 1)]
    Jp = [cmath.sqrt(_scalar_bracket(j - m, Q) * _scalar_bracket(j + m + 1, Q)) for m in ms[:-1]]
    Jm = [cmath.sqrt(_scalar_bracket(j + m, Q) * _scalar_bracket(j - m + 1, Q)) for m in ms[1:]]
    return np.array([Jp + [0j], [0j] + Jm, ms], dtype=complex)


# the unit circle and the positive real axis of both modes, and the three bases of
# test_direct_spin_matrices_satisfy_deformed_relations
REFERENCE_BASES = [make_params(mode, eps).sqrt_q for mode, eps in
                   (("unimodular", 0.9), ("unimodular", -2.5), ("realline", 1.0),
                    ("realline", -0.7), ("realline", 9.0))]
REFERENCE_BASES += [np.exp(0.45j), np.exp(0.3), 1.3 * np.exp(0.4j)]
# numpy's sinh may round differently from math's, and its complex division multiplies by a
# reciprocal: 4 ulp at most on the real line and 2.5 off both axes were seen, so allow twice
REFERENCE_ULPS = 8


def _mixed_reference_batch():
    """Every base at every k 0..64, shuffled into one batch of D = 65."""
    rows = [(k / 2.0, complex(Q)) for Q in REFERENCE_BASES for k in range(65)]
    rows = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
    return rows, _reference(np.array([j for j, _ in rows]), [Q for _, Q in rows], 65)


def test_batched_reference_is_within_ulps_of_the_scalar_closed_form():
    rows, refs = _mixed_reference_batch()
    for i, (j, Q) in enumerate(rows):
        want, got = _scalar_reference(j, Q), refs[:, i]
        d = want.shape[1]
        assert not got[:, d:].any()
        bound = REFERENCE_ULPS * np.spacing(np.abs(want))
        assert np.all(np.abs(got[:, :d] - want) <= bound), (j, Q)


def test_direct_spin_block_is_one_row_of_a_mixed_batch_to_the_bit():
    rows, refs = _mixed_reference_batch()
    for i, (j, Q) in enumerate(rows):
        t = su2_direct(j, Q)
        weights = [band(x[None], degree)[0] for x, degree in ((t.Jp, 1), (t.Jm, -1), (t.J0, 0))]
        assert np.array(weights).tobytes() == refs[:, i, :t.dim].tobytes(), (j, Q)


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_mapped_generators_satisfy_spin_relations(mode, eps, l, k):
    t = to_su2(_rep(mode, eps, l, k))
    reports = check_su2(t)
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-13


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_map_equals_direct_construction(mode, eps, l, k):
    """The rescaled ladder equals the spin-(k/2) matrices at base sqrt(q)."""
    rep = _rep(mode, eps, l, k)
    rpt = check_equivalence(rep)
    assert rpt.passed
    assert rpt.residual < 1e-13
    t = to_su2(rep)
    assert t.j == pytest.approx(k / 2)
    direct = su2_direct(k / 2, rep.params.sqrt_q)
    assert np.allclose(t.Jp, direct.Jp, atol=1e-12)
    assert np.allclose(t.J0, direct.J0, atol=1e-12)


def test_j0_spectrum_is_centered_integer_ladder():
    t = to_su2(_rep("realline", 1.0, 1, 4))
    assert np.allclose(np.diag(t.J0), [-2, -1, 0, 1, 2])


def test_su_casimir_scalar_value():
    # Jm Jp + [J0][J0+1] = [j][j+1] at base sqrt(q)
    rep = _rep("unimodular", 0.9, 0, 5)
    t = to_su2(rep)
    half = rep.params.log_q / 2.0
    expect = qnum(2.5, half) * qnum(3.5, half)
    lhs = t.Jm @ t.Jp + np.diag(
        [qnum(m, half) * qnum(m + 1, half) for m in np.diag(t.J0).real]
    )
    assert np.allclose(lhs, expect * np.eye(6), atol=1e-12)


def _rescaled(rep, factor, lower_phase):
    """The rep's triple under a given prefactor, built here rather than by the spin map."""
    root = cmath.sqrt(complex(factor))
    return SuTriple(Jp=root * rep.Abar, Jm=lower_phase * root * rep.A,
                    J0=rep.Nmat + rep.params.gamma * np.eye(rep.dim), Q=rep.params.sqrt_q,
                    j=rep.k / 2.0)


def _direct_residual(t):
    """Largest relative entrywise distance of a triple from the reference block."""
    ref = su2_direct(t.j, t.Q)
    return max(_ref_residual(mine - want, mine, want)
               for mine, want in ((t.Jp, ref.Jp), (t.Jm, ref.Jm), (t.J0, ref.J0)))


@pytest.mark.parametrize("eps,l", [(PI / 2, 0), (3 * PI / 2, 1), (PI / 2 + 1e-8, 0)])
def test_half_pi_loci_rejected_by_default(eps, l):
    rep = _rep("unimodular", eps, l, 2)
    with pytest.raises(DegenerateParameter):
        to_su2(rep)
    # the map's own prefactor, applied past the guard, still lands on the spin block
    t = _rescaled(rep, (-1.0) ** l / math.tan(eps / 2.0), 1.0)
    assert all(r.passed for r in check_su2(t))
    assert _direct_residual(t) < 1e-12


def test_real_line_has_no_singular_loci():
    t = to_su2(_rep("realline", PI / 2, 1, 3))
    assert all(r.passed for r in check_su2(t))


def test_alternate_reading_fails_equivalence():
    """Reading the real-line prefactor as a circular cotangent does not land
    on the spin matrices."""
    rep = _rep("realline", 1.0, 1, 4)
    assert check_equivalence(rep).passed
    assert _direct_residual(to_su2(rep)) < 1e-13
    cot = _rescaled(rep, -1.0 / math.tan(0.5), -1j)  # (-1)**(l+1) / tan(eps/2) at l = 1
    assert _direct_residual(cot) > 1e-2


# members differ in epsilon and in branch l
BATCH_MEMBERS = {
    "unimodular": [(0.9, 0), (0.9, 2), (-1.1, 1), (PI / 5, 0), (2.5, 0)],
    "realline": [(1.0, 1), (1.0, 3), (-0.7, 0), (-0.7, 2), (2.0, 1)],
}


def _ref_residual(defect, *operands):
    scale = 1.0
    for op in operands:
        scale *= float(np.abs(op).max())
    return float(np.abs(defect).max()) / max(1.0, scale)


def _ref_su2(t):
    """The per-point 2D spin checks the batched ones replaced, on the triple's own scalars
    (test_table_scalars_match_the_cmath_formulas checks those against the cmath formulas)."""
    steps, casimirs, targets = (x[0] for x in _su2_numbers(_spin_map(t).powers, t.dim))
    step2 = np.diag(steps)
    cas = t.Jm @ t.Jp + np.diag(casimirs)
    target = targets[0] * np.eye(t.dim)
    pairs = (("su_raise", t.J0 @ t.Jp - t.Jp @ t.J0, t.Jp),
             ("su_lower", t.J0 @ t.Jm - t.Jm @ t.J0, -t.Jm))
    out = [report(name, _ref_residual(lhs - rhs, lhs, rhs), DEFAULT_TOL) for name, lhs, rhs in pairs]
    out.append(report("su_commutator",
                      _ref_residual((t.Jp @ t.Jm - t.Jm @ t.Jp) - step2, t.Jp, t.Jm), DEFAULT_TOL))
    out.append(report("su_casimir", _ref_residual(cas - target, cas, target), DEFAULT_TOL))
    return out


def _ref_equivalence(rep):
    t = to_su2(rep)
    ref = su2_direct(t.j, t.Q)
    res = max(_ref_residual(t.Jp - ref.Jp, t.Jp, ref.Jp),
              _ref_residual(t.Jm - ref.Jm, t.Jm, ref.Jm),
              _ref_residual(t.J0 - ref.J0, t.J0, ref.J0))
    return report("su_equivalence", res, DEFAULT_TOL)


def _bits(reports):
    """Every field of each report, residual and tolerance to the bit."""
    return [(r.name, r.residual.hex(), r.tolerance.hex(), r.passed, r.detail) for r in reports]


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_batched_spin_checks_equal_single_rep_calls(mode):
    for k in range(10):
        reps = [_rep(mode, eps, l, k) for eps, l in BATCH_MEMBERS[mode]]
        batch = RepBatch(tuple(reps))
        relations, equivalence = check_su2(batch), check_equivalence(batch)
        assert relations.alive == equivalence.alive == tuple(range(len(reps)))
        for i, rep in enumerate(reps):
            got_rel, (got_eq,) = relations.reports(i), equivalence.reports(i)
            assert _bits(got_rel) == _bits(check_su2(rep)) == _bits(check_su2(to_su2(rep)))
            assert got_rel == _ref_su2(to_su2(rep))
            assert _bits([got_eq]) == _bits([check_equivalence(rep)])
            assert got_eq == _ref_equivalence(rep)


def test_batch_member_at_half_pi_locus_is_dropped_alone():
    reps = [_rep("unimodular", eps, l, 3) for eps, l in ((0.9, 0), (PI / 2 + 1e-8, 0), (2.5, 0))]
    batch = RepBatch(tuple(reps))
    for check in (check_su2, check_equivalence):
        block = check(batch)
        assert block.alive == (0, 2) and isinstance(block.errors[1], DegenerateParameter)
        with pytest.raises(DegenerateParameter):
            check(reps[1])
        for i in (0, 2):
            single = check(reps[i])
            assert block.reports(i) == (single if check is check_su2 else [single])


def test_both_spin_checks_share_one_spin_map_and_keep_their_own_drops(monkeypatch):
    import qosc.sumap as sumap

    reps = [_rep("unimodular", eps, 0, 3) for eps in (0.9, 1.2, 2.5)]
    batch = RepBatch(tuple(reps))
    rescaled = []
    rescaling, batched, su2_numbers = sumap._rescaling, sumap._reference, sumap._su2_numbers

    def counted(p):
        rescaled.append(p.epsilon)
        return rescaling(p)

    def reference(j, Q, D):
        refs = batched(j, Q, D)
        refs[0, 1, 0] = np.inf  # a reference weight of member 1 leaves the double range
        return refs

    def numbers(pw, d):
        steps, casimirs, targets = su2_numbers(pw, d)
        steps[0] = np.inf  # the su(2) scalars of member 0 leave the double range
        return steps, casimirs, targets

    monkeypatch.setattr(sumap, "_rescaling", counted)
    monkeypatch.setattr(sumap, "_reference", reference)
    monkeypatch.setattr(sumap, "_su2_numbers", numbers)
    equivalence = check_equivalence(batch)
    relations = check_su2(batch)
    assert check_equivalence(batch).alive == equivalence.alive  # su2's drop stays in su2
    assert rescaled == [0.9, 1.2, 2.5]  # one spin map per batch, not one per check
    assert equivalence.alive == (0, 2) and set(equivalence.errors) == {1}
    assert relations.alive == (1, 2) and set(relations.errors) == {0}
    assert isinstance(equivalence.errors[1], OverflowError)
    assert equivalence.errors[1] is not relations.errors[0]
    assert isinstance(relations.errors[0], OverflowError)
    assert str(relations.errors[0]) == "math range error"
    monkeypatch.undo()
    assert relations.reports(1) == check_su2(reps[1])
    assert equivalence.reports(0) == [check_equivalence(reps[0])]
