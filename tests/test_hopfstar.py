import dataclasses
import itertools
import math

import numpy as np
import pytest

from qosc import hopfstar
from qosc.algcheck import DEFAULT_TOL, compare, residual_of
from qosc.algcheck import casimir, check_defining_relations, check_ladder_identities
from qosc.errors import ModeMismatch, NoSolution
from qosc.hopfstar import (
    Flavor,
    InvolutionKind,
    RepBatch,
    _coassociativity_defects,
    _compose,
    _graded_sum,
    _COPRODUCT,
    _otimes,
    _Plan,
    _realize,
    _star_table,
    _swap,
    _Tape,
    check_hopf_axioms,
    check_star_arms,
    check_star_structure,
    coproduct,
    derive_involutions,
    involution,
    parity_metric,
    with_flavor,
)
import qosc.cli as cli
from qosc.cli import main
from qosc.qcore import make_params
from qosc.repbuild import build_generic_window, build_rep
from qosc.repbuild import band, shift
from qosc.repbuild import shift_weights as _shift_weights
from qosc.sumap import check_equivalence, check_su2, to_su2

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


def _dense_symbols(rep):
    """Dense matrix of every symbol of the Hopf table on one rep, from its weights: entry
    ``(j + m, j)`` of a symbol of degree ``m`` holds ``w[j]``."""
    weights = _realize(rep).weights[:, 0]
    return {sym: np.eye(rep.dim, k=-m) @ np.diag(w)
            for (sym, m), w in zip(hopfstar._DEGREE.items(), weights)}


def _by_name(reports):
    return {r.name: r for r in reports}


# ---------------------------------------------------------------------------
# coproduct structure


def _unstack(blocks):
    """The only member of graded blocks with a batch axis of length one."""
    return {deg: w[0] for deg, w in blocks.items()}


def _dense(blocks, d):
    """Dense matrix of a graded tensor square: ``(S^m1 (x) S^m2) diag(weights)`` per block."""
    return sum(
        np.kron(np.eye(d, k=-m1), np.eye(d, k=-m2)) @ np.diag(w.ravel())
        for (m1, m2), w in blocks.items()
    )


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_coproduct_of_lowering_matches_hand_kron(mode, eps, l, k):
    """Delta(a) = a (x) K + K^-1 (x) a with K = q^((N+gamma)/2) group-like."""
    rep = _rep(mode, eps, l, k)
    p = rep.params
    # N + gamma has the real eigenvalues n - k/2 in both modes
    kmat = np.diag([p.qpow((n - k / 2.0) / 2.0) for n in range(k + 1)])
    expect = np.kron(rep.A, kmat) + np.kron(np.linalg.inv(kmat), rep.A)
    assert np.allclose(_dense(coproduct(rep, "a"), rep.dim), expect, atol=1e-12)


def test_coproduct_of_number_is_additive_with_shift():
    rep = _rep("unimodular", 0.9, 0, 2)
    p = rep.params
    eye = np.eye(3)
    expect = (
        np.kron(rep.Nmat, eye)
        + np.kron(eye, rep.Nmat)
        + p.gamma * np.kron(eye, eye)
    )
    assert np.allclose(_dense(coproduct(rep, "N"), rep.dim), expect, atol=1e-12)


def _evaluate(build, inputs, d):
    """Compile the graded operators ``build(tape)`` names into a plan, run it on ``inputs``
    and read every block of its only member."""
    tape = _Tape()
    ops = build(tape)
    plan = _Plan(tape, [(name, (op,)) for name, op in ops.items()])
    ws = plan.run(1, d, inputs)
    return {name: {deg: ws[w.rank][plan.slot[w.id], 0] for deg, w in op.items()}
            for name, op in ops.items()}


def test_plan_swap_exchanges_tensor_factors():
    rng = np.random.default_rng(3)
    wx, wy = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x, y = np.diag(wx, -1), np.diag(wy, 1)  # a raising and a lowering shift

    def build(t):
        blocks = _graded_sum([_otimes(((1,), t.input(1, "x")), ((-1,), t.input(1, "y")))])
        return {"xy": blocks, "yx": _swap(blocks)}

    # the plan's inputs carry a member axis after the slot axis: a batch of one here
    weights = np.stack([_shift_weights("x", x[None], 1), _shift_weights("y", y[None], -1)])
    got = _evaluate(build, {1: [weights]}, 3)
    assert np.array_equal(_dense(got["xy"], 3), np.kron(x, y))
    assert np.allclose(_dense(got["yx"], 3), np.kron(y, x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode,eps,l,k", POINTS)
def test_graded_coproduct_densifies_to_kron_sum(mode, eps, l, k):
    rep = _rep(mode, eps, l, k)
    cop = _COPRODUCT
    realize = _dense_symbols(rep)
    for gen in ("a", "abar", "N"):
        expect = sum(np.kron(realize[le], realize[ri]) for le, ri in cop[gen])
        assert np.array_equal(_dense(coproduct(rep, gen), rep.dim), expect)


LARGE_K_POINTS = [(mode, eps, l, k) for k in (16, 32, 64)
                  for mode, eps, l in (("unimodular", 0.9, 0), ("realline", 2.0, 1))]


@pytest.mark.parametrize("mode,eps,l,k", POINTS + LARGE_K_POINTS)
def test_hopf_axioms(mode, eps, l, k):
    reports = check_hopf_axioms(_rep(mode, eps, l, k))
    assert all(r.passed for r in reports)
    assert max(r.residual for r in reports) < 1e-13
    names = {r.name for r in reports}
    assert {"homomorphism_commutator", "coassoc_a", "counit_left_N", "antipode_right_abar"} <= names


def _antipode_residuals(rep, gen, monkeypatch, factor):
    """The ``antipode_*_{gen}`` residuals with the antipode coefficient of ``gen`` times
    ``factor``, from a plan compiled on the tampered table and dropped afterwards."""
    table = hopfstar._hopf_table

    def tampered(*values):
        counit, antipode = table(*values)
        coef, sym, const = antipode[gen]
        return counit, {**antipode, gen: (coef * factor, sym, const)}

    hopfstar._plan.cache_clear()  # a plan reads the table when it compiles
    try:
        with monkeypatch.context() as patch:
            patch.setattr(hopfstar, "_hopf_table", tampered)
            reports = _by_name(check_hopf_axioms(rep))
    finally:
        hopfstar._plan.cache_clear()
    return [reports[f"antipode_{side}_{gen}"].residual for side in ("left", "right")]


@pytest.mark.parametrize("mode,eps,l,k,gens", [
    ("realline", 2.0, 1, 9, ("a", "abar")),
    ("unimodular", 0.9, 0, 9, ("a", "abar")),
    ("realline", 100.0, 1, 2, ("abar",)),
    ("realline", 300.0, 1, 1, ("abar",)),
])
def test_antipode_arms_read_a_relative_tamper(mode, eps, l, k, gens, monkeypatch):
    """Each antipode side is scaled by its first product, so a zero target still
    reads a relative change of the antipode, here at 1e-9."""
    rep = _rep(mode, eps, l, k)
    for gen in gens:
        untampered = _antipode_residuals(rep, gen, monkeypatch, 1.0)
        assert max(untampered) <= 1e-15
        assert min(_antipode_residuals(rep, gen, monkeypatch, 1.0 + 1e-9)) >= 5e-10
        plain = _by_name(check_hopf_axioms(rep))  # no tampered plan is left cached
        assert [plain[f"antipode_{side}_{gen}"].residual for side in ("left", "right")] == untampered


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


@pytest.mark.parametrize("alpha,beta,eta", [
    (float("nan"), float("nan"), 0j),
    (1j, 1j, complex(0.0, math.inf)),
    (complex(math.inf, 0.0), 0j, 0j),
])
def test_involution_spec_rejects_non_finite_data(alpha, beta, eta):
    from qosc.hopfstar import InvolutionSpec

    with pytest.raises(ValueError, match="involution data must be finite"):
        InvolutionSpec(alpha, beta, eta, Flavor.STANDARD, "x")


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


# ---------------------------------------------------------------------------
# graded tensor arms against the dense Kronecker formulas


def _dense_coassoc(rep):
    """Coassociativity residuals from dense Kronecker cubes."""
    cop = _COPRODUCT
    realize = _dense_symbols(rep)
    out = {}
    for gen in ("a", "abar", "N"):
        left = sum(np.kron(np.kron(realize[l1], realize[l2]), realize[ri])
                   for le, ri in cop[gen] for l1, l2 in cop[le])
        right = sum(np.kron(realize[le], np.kron(realize[r1], realize[r2]))
                    for le, ri in cop[gen] for r1, r2 in cop[ri])
        out[f"coassoc_{gen}"] = compare("", left, right, 1.0).residual
    return out


def _dense_homomorphism(rep):
    """Homomorphism residuals and pass flags from dense Kronecker squares multiplied with ``@``."""
    cop = _COPRODUCT
    realize = _dense_symbols(rep)
    da, dab, dn = (sum(np.kron(realize[le], realize[ri]) for le, ri in cop[gen])
                   for gen in ("a", "abar", "N"))
    # the bracket steps of the diagonal block, from the rep's own power table
    pw, ij = RepBatch((rep,)).powers, np.add.outer(np.arange(rep.dim), np.arange(rep.dim))
    step = np.diag(pw.step(4 * ij - 2 * rep.k, shift=pw.root * pw.root)[0].ravel())
    residuals = {
        "homomorphism_commutator": residual_of((da @ dab - dab @ da) - step, da, dab),
        "homomorphism_raise": residual_of((dn @ dab - dab @ dn) - dab, dn, dab),
        "homomorphism_lower": residual_of((dn @ da - da @ dn) + da, dn, da),
    }
    return {name: (res, res < DEFAULT_TOL) for name, res in residuals.items()}


def _assert_homomorphism_matches_dense(rep):
    by = _by_name(check_hopf_axioms(rep))
    for name, (residual, passed) in _dense_homomorphism(rep).items():
        assert abs(by[name].residual - residual) <= 2.0**-50, (rep.k, name)
        assert by[name].passed == passed, (rep.k, name)


def _dense_star_coproduct(rep, inv, metric=None):
    """Star-coproduct residuals from dense Kronecker squares and a reshape swap."""
    cop = _COPRODUCT
    realize = _dense_symbols(rep)
    star = _star_table(inv.alpha, inv.beta, inv.eta)
    d = rep.dim

    def adjoint(m):
        h = m.conj().T
        return h if metric is None else np.linalg.inv(metric) @ h @ metric

    out = {}
    for gen in ("a", "abar", "N"):
        dag = sum(np.kron(adjoint(realize[le]), adjoint(realize[ri])) for le, ri in cop[gen])
        coef, target, const = star[gen]
        image = sum(np.kron(coef * realize[le], realize[ri]) for le, ri in cop[target])
        image[np.diag_indices(d * d)] += const
        if inv.flavor is Flavor.NONSTANDARD:
            image = image.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        out[f"coproduct_{inv.flavor.value}_{gen}"] = compare("", dag, image, 1.0).residual
    return out


EQUIV_EPS = {"unimodular": (0.3, 0.9, -1.1, 2.5), "realline": (0.5, 1.0, -0.7, 3.0)}


def _branch(mode, eps):
    if mode == "unimodular":
        return 0 if math.tan(eps / 2.0) > 0 else 1
    return 1 if eps > 0 else 0


def _assert_coassociativity_is_exact(rep):
    """The report reads the table's exact 0.0; the dense cubes agree up to rounding."""
    by = _by_name(check_hopf_axioms(rep))
    for name, residual in _dense_coassoc(rep).items():
        assert by[name].residual == 0.0, (rep.k, name)
        assert residual <= 2.0**-50, (rep.k, name)


@pytest.mark.parametrize("mode,eps", [(m, e) for m, es in EQUIV_EPS.items() for e in es])
def test_graded_coassociativity_equals_dense(mode, eps):
    for k in range(10):
        _assert_coassociativity_is_exact(_rep(mode, eps, _branch(mode, eps), k))


def test_coassociativity_of_the_coproduct_table():
    assert _coassociativity_defects(_COPRODUCT) == {"a": 0, "abar": 0, "N": 0}
    flipped = {**_COPRODUCT, "qp": (("qp", "qm"),), "qm": (("qm", "qp"),)}
    assert _coassociativity_defects(flipped) == {"a": 4, "abar": 4, "N": 0}
    grown = {**_COPRODUCT, "a": (*_COPRODUCT["a"], ("a", "a"))}
    assert _coassociativity_defects(grown)["a"] == 2
    # gone is gamma * one, so D(N) stays coassociative without its gamma term; the
    # homomorphism arms are what test gamma
    plain = {**_COPRODUCT, "N": _COPRODUCT["N"][:2]}
    assert _coassociativity_defects(plain) == {"a": 0, "abar": 0, "N": 0}


#: the star arm sets the CLI forms, as plan keys: per arm, its flavor and the arms that give
#: its star values, its adjoint and its step_bar
ARM_SETS = {
    "canonical_pair": ((Flavor.NONSTANDARD, 0, 0, 0), (Flavor.STANDARD, 0, 0, 0)),  # the circle
    "canonical": ((Flavor.NONSTANDARD, 0, 0, 0),),  # the real line, star:canonical alone
    "imaginary_pair": ((Flavor.STANDARD, 0, 0, 0), (Flavor.STANDARD, 1, 1, 0)),
    "real_line": ((Flavor.NONSTANDARD, 0, 0, 0), (Flavor.STANDARD, 1, 0, 1),
                  (Flavor.STANDARD, 2, 2, 1)),
}


def _plan_of(family):
    """The plan of ``"hopf"``, ``"coproduct"``, an arm set or a flavor's one-arm set."""
    return hopfstar._plan(((family, 0, 0, 0),) if isinstance(family, Flavor) else family)


@pytest.mark.parametrize("family", ["coproduct", "hopf", Flavor.STANDARD, Flavor.NONSTANDARD])
def test_no_plan_has_a_rank_three_slot(family):
    plan = _plan_of(family)
    assert max(plan.nodes[i][1] for i in plan.slot) <= 2
    # the d x d arms run on weights: no matrix product, and no dense operator as an input
    assert "matmul" not in {node[0] for node in plan.nodes}
    rank_two = [node[3] for node in plan.nodes if node[:2] == ("in", 2)]
    assert rank_two == (["steps"] if family == "hopf" else [])


def test_plans_leave_every_slot_zero_past_each_members_block(monkeypatch):
    """On a mixed-k batch every input is 0 past a member's block, and so is every weight
    a plan computes, so one run on the padded batch keeps each member's bits.  The real
    line's standard stars carry a constant eta != 0 into the star coproduct.  A shift
    reads ``w[j - 1]`` at the first column past a block too, but it is only ever a factor
    beside a weight that is 0 there."""
    reps = [_rep("realline", 1.0, 1, 0), _rep("realline", 1.0, 1, 3), _rep("realline", -0.7, 0, 1)]
    batch = RepBatch(tuple(reps))
    spaces = []
    run = _Plan.run

    def recording(plan, count, d, inputs):
        spaces.append(run(plan, count, d, inputs))
        return spaces[-1]

    monkeypatch.setattr(_Plan, "run", recording)
    check_hopf_axioms(batch)
    arms = _cli_star_arms(batch)
    check_star_arms(batch, arms)
    assert arms[1][2][2].any()  # eta
    coproduct_plan = hopfstar._plan("coproduct")
    coproduct_plan.run(len(reps), batch.dim, {1: [batch.derived(hopfstar._Realization).weights]})
    assert len(spaces) == 3  # hopf, the three star arms, the coproduct
    plans = [hopfstar._plan(family) for family in ("hopf", ARM_SETS["real_line"], "coproduct")]
    for plan, ws in zip(plans, spaces):
        shifts = {i for i in plan.slot if plan.nodes[i][0] == "shift"}
        for i in plan.slot:
            op, rank, args, _ = plan.nodes[i]
            if shifts & set(args):
                assert op == "mul" and len(shifts & set(args)) == 1
            if i not in shifts and rank:
                for member, rep in enumerate(reps):
                    values = ws[rank][plan.slot[i], member]
                    assert not values[rep.dim:].any() and not values[..., rep.dim:].any()


@pytest.mark.parametrize("mode,eps", [(m, e) for m, es in EQUIV_EPS.items() for e in es])
def test_graded_homomorphism_matches_dense(mode, eps):
    for k in range(10):
        _assert_homomorphism_matches_dense(_rep(mode, eps, _branch(mode, eps), k))


def _dense_counit_antipode(rep):
    """Counit and antipode residuals from the dense matrices, multiplied with ``@``."""
    cop = _COPRODUCT
    realize = _dense_symbols(rep)
    counit, antipode = hopfstar._hopf_table(*hopfstar._hopf_values(RepBatch((rep,)))[:, 0])

    def affine(elem):
        coef, sym, const = elem
        return coef * realize[sym] + const * realize["one"]

    out = {}
    for gen in ("a", "abar", "N"):
        for side, lhs in (("left", sum(counit[le] * realize[ri] for le, ri in cop[gen])),
                          ("right", sum(realize[le] * counit[ri] for le, ri in cop[gen]))):
            out[f"counit_{side}_{gen}"] = residual_of(lhs - realize[gen], lhs, realize[gen])
        target = counit[gen] * realize["one"]
        for side, products in (
            ("left", [affine(antipode[le]) @ realize[ri] for le, ri in cop[gen]]),
            ("right", [realize[le] @ affine(antipode[ri]) for le, ri in cop[gen]]),
        ):
            out[f"antipode_{side}_{gen}"] = residual_of(sum(products) - target, products[0])
    return out


def _assert_counit_antipode_match_dense(rep):
    by = _by_name(check_hopf_axioms(rep))
    for name, residual in _dense_counit_antipode(rep).items():
        assert abs(by[name].residual - residual) <= 2.0**-50, (rep.k, name)


@pytest.mark.parametrize("mode,eps", [(m, e) for m, es in EQUIV_EPS.items() for e in es])
def test_graded_counit_and_antipode_match_dense(mode, eps):
    for k in range(10):
        _assert_counit_antipode_match_dense(_rep(mode, eps, _branch(mode, eps), k))


@pytest.mark.parametrize("metric", [parity_metric(4), np.diag([1.0, 3.0, 49.0, 0.7])],
                         ids=["parity", "diag_1_3_49_0.7"])
def test_graded_adjoint_is_the_dense_twisted_adjoint_to_the_bit(metric):
    """Each symbol's adjoint weights are the band of the dense ``G^-1 M^H G``, whose entry
    (i, j) is ``M^H[i, j] * ((1 / g_i) * g_j)``.  At ``g = (1, 3, 49, 0.7)`` even the
    twist of the diagonal is not 1: ``(1 / 49) * 49 == 0.9999999999999999``."""
    g = np.diagonal(metric)
    twist = np.array([[(1.0 / gi) * gj for gj in g] for gi in g])
    for rep in (_rep("realline", 1.0, 1, 3), _rep("unimodular", 0.9, 0, 3)):
        weights = _realize(rep).weights
        dense = (rep.A, rep.Abar, rep.Nmat, *(np.diag(w[0]) for w in weights[3:]))
        got = hopfstar._adjoint(weights, metric)
        for m, x, w in zip(hopfstar._DEGREE.values(), dense, got):
            want = band((x.conj().T * twist)[None], -m)
            assert np.array_equal(_words(w, True), _words(want, True))


def test_plan_compose_matches_dense_product():
    rng = np.random.default_rng(7)
    d = 4

    def random_operator(degrees):
        blocks = {}
        for m1, m2 in degrees:
            w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rows = np.arange(d)
            w[(rows + m1 < 0) | (rows + m1 >= d), :] = 0  # slots whose row leaves the block
            w[:, (rows + m2 < 0) | (rows + m2 >= d)] = 0
            blocks[(m1, m2)] = w
        return blocks

    x = random_operator([(-1, 0), (0, 1), (1, 1), (0, 0)])
    y = random_operator([(1, 0), (0, -1), (-1, 1)])

    def build(t):
        gx = {deg: t.input(2, ("x", deg)) for deg in x}
        gy = {deg: t.input(2, ("y", deg)) for deg in y}
        return {"xy": _compose(gx, gy), "yx": _compose(gy, gx)}

    weights = np.stack([w[None] for w in (*x.values(), *y.values())])  # batch of one
    got = _evaluate(build, {2: [weights]}, d)
    assert np.allclose(_dense(got["xy"], d), _dense(x, d) @ _dense(y, d), rtol=0, atol=1e-14)
    assert np.allclose(_dense(got["yx"], d), _dense(y, d) @ _dense(x, d), rtol=0, atol=1e-14)


def test_plans_compile_once_per_key(capsys):
    hopfstar._plan.cache_clear()
    argv = ["sweep", "--mode", "unimodular", "--epsilon-grid", "0.2:1.0:0.2", "--k", "0..3"]
    for _ in range(2):
        assert main(argv) == 0
    capsys.readouterr()
    # hopf, and the canonical pair's arm set, each once for every k
    assert hopfstar._plan.cache_info().misses == hopfstar._plan.cache_info().currsize == 2
    hopfstar._plan(ARM_SETS["canonical_pair"])
    assert hopfstar._plan.cache_info().misses == 2  # that arm set is the key compiled
    reps = [_rep("unimodular", eps, 0, 3) for eps in (0.3, 0.5, 0.7, 0.9, 1.1)]
    for batch in (RepBatch(tuple(reps)), RepBatch(tuple(reps[:1]))):
        check_hopf_axioms(batch)
        check_star_arms(batch, cli._star_arms(batch, "star:canonical"))
    assert hopfstar._plan.cache_info().misses == 2  # a batch of 5 and of 1 share a plan
    # the real line's three star arms are one more key, whatever the batch
    for _ in range(2):
        assert main(["sweep", "--mode", "realline", "--epsilon-grid", "0.5:2:0.5",
                     "--k", "0..3"]) == 0
    capsys.readouterr()
    assert hopfstar._plan.cache_info().misses == 3
    hopfstar._plan(ARM_SETS["real_line"])
    assert hopfstar._plan.cache_info().misses == 3


@pytest.mark.parametrize("family", ["coproduct", "hopf", Flavor.STANDARD, Flavor.NONSTANDARD,
                                    *(pytest.param(key, id=name) for name, key in ARM_SETS.items())])
def test_plan_steps_are_a_valid_schedule(family):
    """Every kept computed node runs in exactly one step of its own kind, after its operands."""
    plan = _plan_of(family)
    nodes = plan.nodes
    keep, stack = set(), [sym.id for _, term in plan.arms for op in term
                          for sym in hopfstar._operand_blocks(op)]
    while stack:
        i = stack.pop()
        if i not in keep:
            keep.add(i)
            stack.extend(nodes[i][2])
    node_at = {(nodes[i][1], slot): i for i, slot in plan.slot.items()}
    given = {i for i in plan.slot if nodes[i][0] in ("in", "lit")}
    done = set(given)
    for step in plan.steps:
        group = [node_at[step.rank, slot] for slot in range(step.out.start, step.out.stop)]
        kinds = {(nodes[i][0], nodes[i][1], tuple(nodes[arg][1] for arg in nodes[i][2]))
                 for i in group}
        assert kinds == {(step.op, step.rank, tuple(step.ranks))}
        assert all(set(nodes[i][2]) <= done for i in group)  # inputs, literals, earlier steps
        assert step.slots == [[plan.slot[nodes[i][2][j]] for i in group]
                              for j in range(len(step.ranks))]
        assert not done & set(group)
        done.update(group)
    assert done - given == keep - given


def test_star_rejects_a_metric_with_a_non_finite_diagonal():
    params = make_params("realline", 0.9, 1)
    rep = build_rep(params, 3)
    with pytest.raises(ValueError, match="finite, diagonal and invertible 4x4 matrix"):
        check_star_structure(rep, involution("imaginary_plus", params),
                             metric=np.diag([1.0, np.inf, 1.0, 1.0]))


def test_star_rejects_a_metric_of_the_wrong_size():
    params = make_params("realline", 0.9, 1)
    rep = build_rep(params, 3)
    wrong_size = r"diagonal and invertible 4x4 matrix, got one of shape \(5, 5\)"
    with pytest.raises(ValueError, match=wrong_size):
        check_star_structure(rep, involution("imaginary_plus", params), metric=parity_metric(5))


@pytest.mark.parametrize("metric,why", [
    (np.diag([1.0, 1e-320, 1.0, 1.0]), "one whose twist g_j / g_i overflows"),
    (np.diag([1e300, 1e-300, 1.0, 1.0]), "one whose twist g_j / g_i overflows"),
    (np.diag([1.0, np.nan, 1.0, 1.0]), "one with a non-finite entry on its diagonal"),
    (np.diag([1.0, 1.0, 0.0, 1.0]), "one with a zero on its diagonal"),
    (np.eye(4) + 0.1 * np.eye(4, k=1), "one with a nonzero entry off its diagonal"),
    (np.eye(3), "one of shape (3, 3)"),
], ids=["subnormal_entry", "wide_range", "nan_entry", "zero_entry", "off_diagonal", "shape"])
def test_star_metric_refusal_names_the_condition_it_breaks(metric, why):
    params = make_params("realline", 0.9, 1)
    rep = build_rep(params, 3)
    with pytest.raises(ValueError) as err:
        check_star_structure(rep, involution("imaginary_plus", params), metric=metric)
    assert str(err.value) == ("the metric must be a finite, diagonal and invertible 4x4 matrix, "
                              f"got {why}")


def _star_arms(rep):
    canonical = involution("canonical", rep.params)
    if rep.params.mode.value == "unimodular":
        return [(canonical, None), (with_flavor(canonical, Flavor.STANDARD), None)]
    return [
        (canonical, None),
        (involution("imaginary_minus", rep.params), None),
        (involution("imaginary_plus", rep.params), parity_metric(rep.dim)),
    ]


def _assert_star_equal(rep):
    for inv, metric in _star_arms(rep):
        by = _by_name(check_star_structure(rep, inv, metric=metric))
        for name, residual in _dense_star_coproduct(rep, inv, metric).items():
            assert by[name].residual == residual, (rep.k, inv.label, inv.flavor, name)


@pytest.mark.parametrize("mode,eps", [(m, e) for m, es in EQUIV_EPS.items() for e in es])
def test_graded_star_coproduct_equals_dense(mode, eps):
    for k in (0, 1, 2, 5, 9, 14, 20):
        _assert_star_equal(_rep(mode, eps, _branch(mode, eps), k))


@pytest.mark.parametrize("mode,eps,l", [("unimodular", 0.9, 0), ("realline", 1.0, 1)])
def test_graded_arms_equal_dense_on_generic_window(mode, eps, l):
    params = make_params(mode, eps, l)
    rep = build_generic_window(complex(0.3, 0.2), complex(0.7, -0.4), params, 6)
    _assert_star_equal(rep)
    _assert_coassociativity_is_exact(rep)
    _assert_homomorphism_matches_dense(rep)
    _assert_counit_antipode_match_dense(rep)


def test_graded_arms_reject_non_shift_input():
    rep = _rep("unimodular", 0.9, 0, 3)
    inv = involution("canonical", rep.params)
    for field, bad in (("A", rep.A + np.eye(4)), ("Abar", rep.Abar + rep.A),
                       ("Nmat", rep.Nmat + np.eye(4, k=1))):
        broken = dataclasses.replace(rep, **{field: bad})
        with pytest.raises(ValueError, match="weighted shift"):
            check_hopf_axioms(broken)
        with pytest.raises(ValueError, match="weighted shift"):
            check_star_structure(broken, inv)
        for check in (check_defining_relations, casimir, check_su2,
                      lambda r: check_ladder_identities(r, 2)):
            with pytest.raises(ValueError, match="weighted shift"):
                check(broken)
    triple = to_su2(rep)
    with pytest.raises(ValueError, match="Jp is not a weighted shift"):
        check_su2(dataclasses.replace(triple, Jp=triple.Jp + np.eye(4, k=2)))
    metric = parity_metric(4) + 0.1 * np.eye(4, k=1)
    with pytest.raises(ValueError, match="diagonal"):
        check_star_structure(rep, inv, metric=metric)
    with pytest.raises(ValueError, match="invertible"):
        check_star_structure(rep, inv, metric=parity_metric(4) * np.array([1, 1, 0, 1]))


def test_mixed_k_batch_weights_are_each_members_bands_and_refuse_non_shift_input():
    reps = [_rep("unimodular", 0.9, 0, k) for k in (1, 3, 2)]
    weights = RepBatch(tuple(reps)).weights
    for i, rep in enumerate(reps):
        for w, (m, degree) in zip(weights[:, i], ((rep.A, -1), (rep.Abar, 1), (rep.Nmat, 0))):
            assert w[:rep.dim].tobytes() == band(m[None], degree)[0].tobytes()
            assert not w[rep.dim:].any()
    head = reps[0]  # the k 1 member of the padded stacks
    for field, bad in (("A", head.A + np.eye(2)), ("Abar", head.Abar + head.A),
                       ("Nmat", head.Nmat + np.eye(2, k=1))):
        batch = RepBatch((dataclasses.replace(head, **{field: bad}), *reps[1:]))
        invs = [involution("canonical", rep.params) for rep in batch.reps]
        for check in (check_hopf_axioms, lambda b: check_star_structure(b, invs),
                      check_defining_relations, casimir, check_su2, check_equivalence,
                      lambda b: check_ladder_identities(b, 2)):
            with pytest.raises(ValueError, match="weighted shift"):
                check(batch)


# ---------------------------------------------------------------------------
# batches: one pass over same-k, same-mode reps


# members differ in epsilon and in branch l
BATCH_MEMBERS = {
    "unimodular": [(0.9, 0), (0.9, 2), (-1.1, 1), (PI / 5, 0), (2.5, 0)],
    "realline": [(1.0, 1), (1.0, 3), (-0.7, 0), (-0.7, 2), (2.0, 1)],
}


def _words(x, signed_zeros):
    """The bits of ``x``; a ``-0.0`` reads as ``0.0`` unless ``signed_zeros``."""
    return np.ascontiguousarray(x if signed_zeros else x + 0.0).view(np.uint64)


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_products_of_weights_equal_dense_products_to_the_bit(mode):
    # every entry of a normalized rep's ladder matrices has an exactly-zero real or
    # imaginary part, also where a negative lambda makes the roots imaginary (eps 2.5 and
    # 0.9 at k 9 on the circle), so each entry of a product, one nonzero term, rounds as
    # in a matmul.  A product with N may differ in the sign of a zero part, which a dense
    # sum turns to 0.0; a residual reads only magnitudes
    reps = [build_rep(make_params(mode, eps, l), k)
            for eps, l in BATCH_MEMBERS[mode] for k in range(10)]
    for rep in reps:
        triple = to_su2(rep)
        for m in (rep.A, rep.Abar, triple.Jp, triple.Jm):
            assert np.all((m.real == 0.0) | (m.imag == 0.0))
    degrees = (-1, 1, 0)

    def products(weights):
        return {(a, b): shift(weights[a], degrees[b]) * weights[b]
                for a, b in itertools.product(range(3), repeat=2)}

    mixed = products(RepBatch(tuple(reps)).weights)
    for i, rep in enumerate(reps):
        dense = (rep.A, rep.Abar, rep.Nmat)
        single = products(RepBatch((rep,)).weights)
        for (a, b), got in single.items():
            signed = 2 not in (a, b)
            want = _words(band((dense[a] @ dense[b])[None], degrees[a] + degrees[b]), signed)
            assert np.array_equal(_words(got, signed), want)
            row = mixed[a, b][i]
            assert np.array_equal(_words(row[:rep.dim], signed), want[0])
            assert not row[rep.dim:].any()


def _batch_star_arms(mode, params, dim):
    """Each star arm as one involution per member and the shared metric."""
    canonical = [involution("canonical", p) for p in params]
    if mode == "unimodular":
        return [(canonical, None), ([with_flavor(c, Flavor.STANDARD) for c in canonical], None)]
    return [
        (canonical, None),
        ([involution("imaginary_minus", p) for p in params], None),
        ([involution("imaginary_plus", p) for p in params], parity_metric(dim)),
    ]


def _cli_star_arms(batch, families=("star:canonical", "star:imaginary")):
    """The star arms the CLI runs for ``families`` over ``batch``, in its order."""
    return [arm for family in families for arm in cli._star_arms(batch, family)]


#: mixed-k members ``(eps, l, k)`` of each mode; star drops the real line's eps 400 member
MIXED_MEMBERS = {
    "unimodular": [(0.9, 0, 0), (-1.1, 1, 1), (PI / 5, 0, 3), (2.5, 0, 9), (0.9, 0, 20)],
    "realline": [(1.0, 1, 0), (-0.7, 0, 1), (2.0, 1, 3), (400.0, 1, 3), (1.0, 3, 9),
                 (-0.7, 2, 20)],
}

#: every arm set the CLI forms: mode, the star families selected, its plan key
CLI_ARM_SETS = [
    pytest.param("unimodular", ("star:canonical",), "canonical_pair", id="canonical_pair"),
    pytest.param("realline", ("star:canonical",), "canonical", id="canonical"),
    pytest.param("realline", ("star:imaginary",), "imaginary_pair", id="imaginary_pair"),
    pytest.param("realline", ("star:canonical", "star:imaginary"), "real_line", id="real_line"),
]


@pytest.mark.parametrize("mode,families,arm_set", CLI_ARM_SETS)
def test_multi_arm_run_equals_each_arms_own_call_to_the_bit(mode, families, arm_set, monkeypatch):
    """One plan run gives every arm the block of its own one-arm call: names, members,
    errors and residuals, bit for bit, on a mixed-k batch, a dropped member included."""
    batch = RepBatch(tuple(_rep(mode, eps, l, k) for eps, l, k in MIXED_MEMBERS[mode]))
    arms = _cli_star_arms(batch, families)
    runs = []
    run = _Plan.run
    monkeypatch.setattr(_Plan, "run", lambda plan, *args: runs.append(plan) or run(plan, *args))
    blocks = check_star_arms(batch, arms)
    assert runs == [hopfstar._plan(ARM_SETS[arm_set])]
    monkeypatch.undo()
    assert len(blocks) == len(arms) == len(ARM_SETS[arm_set])
    for (label, flavor, values, metric), block in zip(arms, blocks):
        kind = "canonical" if label == "canonical_standard" else label
        invs = [with_flavor(involution(kind, p), flavor) for p in batch.params]
        assert np.array_equal(values, np.array([[i.alpha, i.beta, i.eta] for i in invs]).T)
        want = check_star_structure(batch, invs, metric=metric, label=label)
        assert block.names == want.names and block.alive == want.alive, label
        assert ({i: (type(e), str(e)) for i, e in block.errors.items()}
                == {i: (type(e), str(e)) for i, e in want.errors.items()}), label
        assert block.residuals.shape == want.residuals.shape
        assert block.residuals.tobytes() == want.residuals.tobytes(), label
        if mode == "realline":
            assert 3 not in block.alive and isinstance(block.errors[3], OverflowError)


def _bits(reports):
    """Every field of each report, residual and tolerance to the bit."""
    return [(r.name, r.residual.hex(), r.tolerance.hex(), r.passed, r.detail) for r in reports]


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_batched_arms_equal_single_rep_calls(mode):
    for k in range(10):
        reps = [_rep(mode, eps, l, k) for eps, l in BATCH_MEMBERS[mode]]
        batch = RepBatch(tuple(reps))
        assert batch.dim == k + 1 and batch.params == tuple(r.params for r in reps)
        hopf = check_hopf_axioms(batch)
        assert hopf.alive == tuple(range(len(reps))) and not hopf.errors
        for i, rep in enumerate(reps):
            assert _bits(hopf.reports(i)) == _bits(check_hopf_axioms(rep)), (k, rep.params)
        for invs, metric in _batch_star_arms(mode, batch.params, batch.dim):
            star = check_star_structure(batch, invs, metric=metric, label="arm")
            assert star.names[0] == "arm.algebra_compat_commutator"
            for i, (rep, inv) in enumerate(zip(reps, invs)):
                want = check_star_structure(rep, inv, metric=metric, label="arm")
                assert _bits(star.reports(i)) == _bits(want), (k, inv.label)


def test_batch_member_overflow_drops_only_that_member():
    # at eps=301 the bracket steps of the k=2 tensor square leave the double range
    reps = [_rep("realline", eps, 1, 2) for eps in (1.0, 301.0, 2.0)]
    with pytest.raises(OverflowError):
        check_hopf_axioms(reps[1])
    block = check_hopf_axioms(RepBatch(tuple(reps)))
    assert block.alive == (0, 2) and isinstance(block.errors[1], OverflowError)
    assert block.reports(0) == check_hopf_axioms(reps[0])
    assert block.reports(2) == check_hopf_axioms(reps[2])
    # at eps=150 the conjugated bracket steps of the k=9 star arms overflow
    reps = [_rep("realline", eps, 1, 9) for eps in (150.0, 1.0)]
    invs = [involution("imaginary_minus", r.params) for r in reps]
    block = check_star_structure(RepBatch(tuple(reps)), invs)
    assert block.alive == (1,) and isinstance(block.errors[0], OverflowError)
    assert block.reports(1) == check_star_structure(reps[1], invs[1])


def test_batch_needs_one_mode_and_matching_involutions():
    uni2, uni3 = _rep("unimodular", 0.9, 0, 2), _rep("unimodular", 0.9, 0, 3)
    real2 = _rep("realline", 1.0, 1, 2)
    mixed = RepBatch((uni3, uni2))  # members of any k share a batch, padded to the largest
    assert (mixed.dim, mixed.ks.tolist()) == (4, [3, 2])
    for members in ((uni2, real2), ()):
        with pytest.raises(ValueError):
            RepBatch(members)
    batch = RepBatch((uni2, _rep("unimodular", -1.1, 1, 2)))
    canonical = [involution("canonical", r.params) for r in batch.reps]
    with pytest.raises(ValueError, match="involutions for"):
        check_star_structure(batch, canonical[:1])
    with pytest.raises(ValueError, match="one flavor"):
        check_star_structure(batch, [canonical[0], with_flavor(canonical[1], Flavor.STANDARD)])
