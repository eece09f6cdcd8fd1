"""Report blocks: every batched check family against its single-rep calls."""

import math

import numpy as np
import pytest

from qosc.algcheck import (
    ReportBlock,
    casimir,
    check_defining_relations,
    check_ladder_identities,
    max_rule,
)
from qosc.errors import DegenerateParameter
from qosc.hopfstar import (
    Flavor,
    check_hopf_axioms,
    check_star_structure,
    involution,
    parity_metric,
    with_flavor,
)
from qosc.normform import check_identities_symbolic, symbolic_block
from qosc.qcore import make_params
from qosc.repbuild import RepBatch, build_rep
from qosc.sumap import check_equivalence, check_su2

PI = math.pi


def _bits(reports):
    """Every field of each report, residual and tolerance to the bit."""
    return [(r.name, r.residual.hex(), r.tolerance.hex(), r.passed, r.detail) for r in reports]


def _families(batch):
    """Per family: the batched call, and the single-rep call that materializes member i.

    The ladder runs each member to depth ``min(8, k+1)``; ``imaginary_plus`` takes the
    parity metric of the batch's padded dimension, and a single rep that of its own.
    """
    mode = batch.mode.value
    depths = [min(8, rep.k + 1) for rep in batch.reps]
    out = {
        "algebra": (check_defining_relations, check_defining_relations),
        "ladder": (lambda b: check_ladder_identities(b, depths),
                   lambda r: check_ladder_identities(r, min(8, r.k + 1))),
        "casimir": (casimir, lambda r: list(casimir(r).reports)),
        "hopf": (check_hopf_axioms, check_hopf_axioms),
        "su2": (check_su2, check_su2),
        "equivalence": (check_equivalence, lambda r: [check_equivalence(r)]),
        "symbolic": (lambda b: symbolic_block(b.params),
                     lambda r: check_identities_symbolic(r.params)),
    }
    arms = [("canonical", lambda p: involution("canonical", p), None)]
    if mode == "unimodular":
        arms.append(("canonical_standard",
                     lambda p: with_flavor(involution("canonical", p), Flavor.STANDARD), None))
    else:
        arms += [("imaginary_minus", lambda p: involution("imaginary_minus", p), None),
                 ("imaginary_plus", lambda p: involution("imaginary_plus", p), parity_metric)]
    for label, inv, metric in arms:
        out[f"star:{label}"] = (
            lambda b, inv=inv, metric=metric, label=label: check_star_structure(
                b, [inv(p) for p in b.params], metric=metric and metric(b.dim), label=label),
            lambda r, inv=inv, metric=metric, label=label: check_star_structure(
                r, inv(r.params), metric=metric and metric(r.dim), label=label),
        )
    return out


def _assert_members_match(batch, dropped_by):
    """Each family's block holds every member once; each matches its single-rep call.

    ``dropped_by`` maps a family to the members it must drop, with their error type.
    """
    for family, (batched, single) in _families(batch).items():
        block = batched(batch)
        assert isinstance(block, ReportBlock)
        assert sorted([*block.alive, *block.errors]) == list(range(len(batch.reps)))
        assert block.residuals.shape == (len(block.alive), len(block.names))
        want_dropped = dropped_by.get(family, {})
        assert {i: type(e) for i, e in block.errors.items()} == want_dropped, family
        for j, i in enumerate(block.alive):
            reports = block.reports(i)
            width = len(block.names) if block.widths is None else block.widths[j]
            assert tuple(r.name for r in reports) == block.names[:width]
            assert _bits(reports) == _bits(single(batch.reps[i])), (family, i)
        for i, error in block.errors.items():
            with pytest.raises(type(error)) as raised:
                single(batch.reps[i])
            assert str(raised.value) == str(error), (family, i)
            with pytest.raises(type(error)):
                block.reports(i)


def test_an_overflowing_ladder_member_drops_only_itself_in_every_family():
    # at eps=40 the k=9 ladder powers leave the double range at order 8
    batch = RepBatch(tuple(build_rep(make_params("realline", eps, l), 9)
                           for eps, l in ((1.0, 1), (40.0, 1), (-0.7, 2))))
    _assert_members_match(batch, {"ladder": {1: OverflowError}})


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_a_batch_of_every_k_matches_its_single_rep_calls(mode):
    # k 0..9 in one batch, each member padded to the largest block; the extra member
    # overflows (real line) or sits on the spin-map locus (unimodular), and joins the
    # middle of the k-1 members, so two k groups are not runs of the batch
    members = {"unimodular": [(0.9, 0), (-1.1, 1), (2.5, 0)],
               "realline": [(1.0, 1), (-0.7, 0), (2.0, 1)]}[mode]
    reps = [build_rep(make_params(mode, eps, l), k) for k in range(10) for eps, l in members]
    if mode == "realline":
        extra = build_rep(make_params(mode, 301.0, 1), 2)
        overflow = {4: OverflowError}
        dropped_by = {"ladder": overflow, "hopf": overflow}
    else:
        extra = build_rep(make_params(mode, PI / 2 + 1e-8, 0), 2)
        degenerate = {4: DegenerateParameter}
        dropped_by = {"su2": degenerate, "equivalence": degenerate}
    reps.insert(4, extra)
    batch = RepBatch(tuple(reps))
    assert batch.dim == 10 and [d for d, _ in batch.groups] == list(range(1, 11))
    _assert_members_match(batch, dropped_by)
    block = check_ladder_identities(batch, [min(8, rep.k + 1) for rep in reps])
    assert block.widths[0] == 2 and block.residuals[0, 2:].tolist() == [0.0] * 14


def test_a_guard_band_member_drops_only_itself_from_the_spin_map():
    batch = RepBatch(tuple(build_rep(make_params("unimodular", eps, l), 3)
                           for eps, l in ((0.9, 0), (PI / 2 + 1e-8, 0), (-1.1, 1))))
    degenerate = {1: DegenerateParameter}
    _assert_members_match(batch, {"su2": degenerate, "equivalence": degenerate})


@pytest.mark.parametrize("tamper", [1e-3, -0.37])
def test_a_tampered_symbolic_member_matches_its_batch_of_one(tamper):
    # at real-line eps 200 the powers of t = q**(1/2) leave the double range
    params = [make_params("realline", eps, 1) for eps in (1.0, 200.0, -0.7, 3.0)]
    params += [make_params("unimodular", eps, l) for eps, l in ((0.9, 0), (-2.5, 1))]
    block = symbolic_block(params, tamper=tamper)
    assert list(block.errors) == [1] and str(block.errors[1]) == "math range error"
    assert block.alive == (0, 2, 3, 4, 5)
    with pytest.raises(OverflowError, match="math range error"):
        check_identities_symbolic(params[1], tamper=tamper)
    for i in block.alive:
        reports = block.reports(i)
        assert _bits(reports) == _bits(symbolic_block([params[i]], tamper=tamper).reports(0))
        assert _bits(reports) == _bits(check_identities_symbolic(params[i], tamper=tamper))
        assert not all(r.passed for r in reports)


def _assert_every_member_dropped(block, names, batch, error):
    """The block keeps its names, has no row and drops every member with ``error``."""
    assert block.names == names
    assert block.alive == () and block.residuals.shape == (0, len(names))
    assert set(block.errors) == set(range(len(batch.reps)))
    assert all(isinstance(exc, error) for exc in block.errors.values())


def test_a_batch_whose_every_member_is_dropped_keeps_its_names():
    # at real-line eps 600, k 2 every scalar of these families leaves the double range
    batch = RepBatch(tuple(build_rep(make_params("realline", eps, 1), 2)
                           for eps in (600.0, 650.0)))
    finite = RepBatch((build_rep(make_params("realline", 1.0, 1), 2),))
    for check in (casimir, check_defining_relations, check_hopf_axioms):
        _assert_every_member_dropped(check(batch), check(finite).names, batch, OverflowError)
        for rep in batch.reps:
            with pytest.raises(OverflowError):
                check(rep)
    batch = RepBatch(tuple(build_rep(make_params("unimodular", eps, l), 3)
                           for eps, l in ((PI / 2 + 1e-8, 0), (-PI / 2 - 1e-8, 1))))
    finite = RepBatch((build_rep(make_params("unimodular", 0.9, 0), 3),))
    for check in (check_su2, check_equivalence):
        _assert_every_member_dropped(check(batch), check(finite).names, batch,
                                     DegenerateParameter)
        for rep in batch.reps:
            with pytest.raises(DegenerateParameter):
                check(rep)


@pytest.mark.parametrize("mode", ["unimodular", "realline"])
def test_every_family_matches_its_single_rep_calls(mode):
    members = {"unimodular": [(0.9, 0), (0.9, 2), (-1.1, 1), (2.5, 0)],
               "realline": [(1.0, 1), (1.0, 3), (-0.7, 0), (2.0, 1)]}[mode]
    for k in range(10):
        batch = RepBatch(tuple(build_rep(make_params(mode, eps, l), k) for eps, l in members))
        _assert_members_match(batch, {})


def test_casimir_block_carries_each_members_scalar_and_matrix():
    reps = [build_rep(make_params("unimodular", eps, 0), 3) for eps in (0.9, 2.5)]
    block = casimir(RepBatch(tuple(reps)))
    for i, rep in enumerate(reps):
        single = casimir(rep)
        assert block.scalars[i] == single.scalar
        assert np.array_equal(block.matrices[i], single.matrix)
        assert block.reports(i)[1].detail == f"scalar={single.scalar!r}"


def test_max_rule_is_pythons_max_in_column_order():
    rng = np.random.default_rng(3)
    values = rng.random((400, 5))
    values[rng.random((400, 5)) < 0.3] = np.nan  # leading, trailing and all-NaN rows
    values[::7, 3] = values[::7, 1]  # ties
    want = [max(row) for row in values.tolist()]
    assert [x.hex() for x in max_rule(values).tolist()] == [x.hex() for x in want]
