"""Hopf structure on the deformed oscillator and its star structures.

The coproduct is
``D(a) = a (x) K + K^-1 (x) a`` (same for the raising generator) and
``D(N) = N (x) 1 + 1 (x) N + gamma 1 (x) 1``, where ``K = q**((N+gamma)/2)``
is group-like.  The branch value of ``gamma`` satisfies
``q**(2*gamma-1) = -1``, which is exactly what makes ``D`` an algebra map.

Two star flavors are checked: the standard one, where the involution
commutes with the coproduct, and the nonstandard one, where it lands on
the opposite coproduct.  On the unit circle the canonical involution
(exchanging the ladder pair, fixing N) is nonstandard; on the real line
the workable involutions pick up factors ``-+i`` and shift N by an
imaginary constant, and are standard.

Every tensor-square and tensor-cube arm (homomorphism, coassociativity and
the star coproduct) runs on graded data: each symbol is a weighted shift
``diag(w) S^m`` of one N-degree, so these arms cost O(d**2) / O(d**3) instead
of the dense O(d**4) / O(d**6), and :func:`coproduct` returns graded blocks.
The rep's dense ``A``/``Abar``/``Nmat`` remain the public and JSON view and
serve the d*d arms (counit, antipode, star matrices).

:func:`check_hopf_axioms` and :func:`check_star_structure` take either one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` (defined
in :mod:`qosc.repbuild`, re-exported here) of representations that share
``k`` and the mode, under the batch contract of :mod:`qosc.algcheck`: every
weight, graded block and dense matrix carries a leading batch axis, and
:class:`~qosc.algcheck.Arms` turns them into one
:class:`~qosc.algcheck.ReportBlock` of residuals in one pass.  The graded
structure depends on neither epsilon nor the branch, so a sweep evaluates
each arm once per ``k``.  The scalar data are ``(members, ...)`` arrays:
``K``, the antipode constants and the bracket steps are read from the
batch's :class:`~qosc.qcore.PowerTable`, and the star steps take one
``q**eta`` per member on top.  So a member's residuals are bit for bit those
of the single-rep call.  Every check evaluates every member, and a member
whose scalars leave the double range leaves only when the block is cut.  A
single rep is the batch of one and gets its reports.
"""

from __future__ import annotations

import cmath
import dataclasses
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .algcheck import (
    DEFAULT_TOL,
    Arms,
    CheckReport,
    ReportBlock,
    as_batch,
    diag_stack,
    finite_members,
    residual_of,
    unbatch,
)
from .errors import ModeMismatch, NoSolution
from .qcore import Mode, QParams, _rows
from .repbuild import Rep, RepBatch

_GENERATORS = ("a", "abar", "N")


class Flavor(str, Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"


class InvolutionKind(str, Enum):
    CANONICAL = "canonical"
    IMAGINARY_PLUS = "imaginary_plus"
    IMAGINARY_MINUS = "imaginary_minus"


# Graded operators.  Every symbol is homogeneous in the N-grading, so its d*d
# matrix is a weighted shift of one degree m: entry ``(j+m, j)`` holds
# ``w[j]``, and slots whose row leaves the block hold exact zeros.  A tensor
# product of shifts is a pair ``(degrees, weights)`` whose weights are the
# outer product of the factors' weights; a sum of such products is a dict
# ``{degrees: weights}``.  Distinct degree tuples never share a dense entry,
# so sums, the factor swap and max-abs norms act block by block and give
# exactly the dense values at O(d**2) / O(d**3) cost.  Weights carry the
# batch axis first: ``(B, d)`` per symbol, ``(B, d, d)`` per square block.

#: N-grading degree of the symbols that are not diagonal
_DEGREE = {"a": -1, "abar": 1}


def _band(m: np.ndarray, degree: int) -> np.ndarray:
    """Weights of a stack of weighted shifts of the given degree."""
    band = np.diagonal(m, -degree, axis1=1, axis2=2)
    if degree == 0:
        return band
    pad = np.zeros((len(m), abs(degree)), dtype=m.dtype)
    return np.concatenate((band, pad) if degree > 0 else (pad, band), axis=1)


def _shift_weights(name: str, m: np.ndarray, degree: int) -> np.ndarray:
    """:func:`_band` of a stack whose every entry off the band must be zero."""
    if np.count_nonzero(m) != np.count_nonzero(np.diagonal(m, -degree, axis1=1, axis2=2)):
        raise ValueError(f"{name} is not a weighted shift of degree {degree}")
    return _band(m, degree)


def _otimes(left: tuple, right: tuple) -> tuple:
    (ld, lw), (rd, rw) = left, right
    return ld + rd, lw[(...,) + (None,) * len(rd)] * rw[(slice(None),) + (None,) * len(ld)]


def _graded_sum(terms) -> dict[tuple[int, ...], np.ndarray]:
    """Add weights per degree, in term order (the dense sum's order on every entry)."""
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for degrees, weights in terms:
        acc[degrees] = acc[degrees] + weights if degrees in acc else weights
    return acc


def _swap(blocks: dict) -> dict:
    """Conjugate by the factor swap ``A (x) B -> B (x) A``: reverse degrees, transpose weights."""
    return {(m2, m1): w.transpose(0, 2, 1) for (m1, m2), w in blocks.items()}


def _read_at(weights: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """``weights[:, j + n]`` along each grade axis; slots whose ``j + n`` leaves ``0..size-1`` read zero."""
    spans = [(max(-n, 0), max(-n, 0, size - max(n, 0)))
             for n, size in zip(offsets, weights.shape[1:])]
    out = np.zeros_like(weights)
    out[(slice(None),) + tuple(slice(lo, hi) for lo, hi in spans)] = weights[
        (slice(None),) + tuple(slice(lo + n, hi + n) for (lo, hi), n in zip(spans, offsets))]
    return out


def _compose(left: dict, right: dict) -> dict:
    """Operator product ``left @ right``: degrees add, left weights are read where right lands."""
    return _graded_sum(
        (tuple(ml + mr for ml, mr in zip(left_deg, right_deg)), _read_at(wl, right_deg) * wr)
        for left_deg, wl in left.items()
        for right_deg, wr in right.items()
    )


def _minus(lhs: dict, rhs: dict) -> dict:
    return {key: lhs.get(key, 0) - rhs.get(key, 0) for key in lhs.keys() | rhs.keys()}


def _commutator(x: dict, y: dict) -> dict:
    return _minus(_compose(x, y), _compose(y, x))


def _affine(elem: tuple, dense: dict[str, np.ndarray]) -> np.ndarray:
    """Dense stack of ``coef * symbol + const * 1``."""
    coef, sym, const = elem
    image = _rows(coef, 2) * dense[sym]
    if isinstance(const, float) and not const:
        return image
    return image + _rows(const, 2) * dense["one"]


#: coproduct of every symbol of the Hopf table, as sums of symbol pairs
_COPRODUCT = {
    "a": (("a", "qp"), ("qm", "a")),
    "abar": (("abar", "qp"), ("qm", "abar")),
    "N": (("N", "one"), ("one", "N"), ("gone", "one")),
    "qp": (("qp", "qp"),),
    "qm": (("qm", "qm"),),
    "one": (("one", "one"),),
    "gone": (("gone", "one"),),
}


def _hopf_table(batch: RepBatch):
    """Counit and antipode of every symbol, one coefficient per member.

    Every antipode image is affine, ``(coef, symbol, const)`` standing for
    ``coef * symbol + const * 1``; the antipode of ``a`` and ``abar`` takes
    ``-q**(-+1/2)`` from the batch's power table.
    """
    gamma = np.array([p.gamma for p in batch.params], dtype=complex)
    pw = batch.powers
    counit = {
        "a": 0.0, "abar": 0.0, "N": -gamma,
        "qp": 1.0, "qm": 1.0, "one": 1.0, "gone": gamma,
    }
    antipode = {
        "a": (-pw(-2), "a", 0.0),
        "abar": (-pw(2), "abar", 0.0),
        "N": (-1.0, "N", -2.0 * gamma),
        "qp": (1.0, "qm", 0.0),
        "qm": (1.0, "qp", 0.0),
        "one": (1.0, "one", 0.0),
        "gone": (1.0, "gone", 0.0),
    }
    return counit, antipode


class _Realization:
    """Dense stacks and graded weights of every symbol of :func:`_hopf_table`.

    ``qp``, ``qm`` are ``K``, ``K^-1``, read from the batch's power table;
    a member whose powers leave the double range keeps its
    ``OverflowError`` in ``overflow``.  The rep's own ``A``, ``Abar`` and
    ``Nmat`` are validated as weighted shifts here, once per member.
    """

    def __init__(self, batch: RepBatch) -> None:
        reps = batch.reps
        d = batch.dim
        eye = np.eye(d, dtype=complex)
        gamma = np.array([rep.params.gamma for rep in reps], dtype=complex)[:, None, None]
        self.dense = {
            "a": batch.A,
            "abar": batch.Abar,
            "N": batch.Nmat,
            "one": np.repeat(eye[None], len(reps), axis=0),
            "gone": gamma * eye,
        }
        self.graded = {
            sym: ((_DEGREE.get(sym, 0),), _shift_weights(sym, m, _DEGREE.get(sym, 0)))
            for sym, m in self.dense.items() if sym in _GENERATORS
        }
        self.graded.update(
            (sym, ((0,), _band(self.dense[sym], 0))) for sym in ("one", "gone"))
        pw, twice = batch.powers, 2 * np.arange(d) - batch.k  # K = q**((N + gamma)/2)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = {"qp": pw.root[:, None] * pw(twice), "qm": pw(-twice) / pw.root[:, None]}
        self.overflow = finite_members(*powers.values())
        for sym, weights in powers.items():
            self.dense[sym] = diag_stack(weights)
            self.graded[sym] = ((0,), weights)


def _coproduct(cop_terms, graded: dict[str, tuple]) -> dict:
    return _graded_sum(_otimes(graded[le], graded[ri]) for le, ri in cop_terms)


def _realize(rep: Rep) -> _Realization:
    """The realization of a single rep, raising the overflow of its ``K`` powers."""
    real = RepBatch((rep,)).derived(_Realization)
    if real.overflow:
        raise real.overflow[0]
    return real


def coproduct(rep: Rep, gen: str) -> dict[tuple[int, int], np.ndarray]:
    """Coproduct of a generator on the tensor square, as graded blocks ``{(m1, m2): weights}``."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    blocks = _coproduct(_COPRODUCT[gen], _realize(rep).graded)
    return {deg: w[0] for deg, w in blocks.items()}


@np.errstate(over="ignore", invalid="ignore")  # a non-finite scalar drops its member below
def check_hopf_axioms(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Algebra-map property of the coproduct plus the three Hopf axioms.

    Runs at every ``k`` a rep admits (the cube arms cost O(d**3)).  Each
    antipode side is scaled by its first product, where its products cancel.

    A :class:`RepBatch` gives one :class:`~qosc.algcheck.ReportBlock`, which
    drops a member with the ``OverflowError`` its scalar data raised.  A
    single rep gives its reports and raises its overflow.
    """
    batch = as_batch(reps)
    d = batch.dim
    cop = _COPRODUCT
    real = batch.derived(_Realization)
    pw = batch.powers
    # the diagonal block of D(N) holds 2 nu0 + gamma + i + j = nu0 + eta + (4(i+j) - 2k)/4,
    # with q**eta = root**2
    ij = np.add.outer(np.arange(d), np.arange(d))
    steps = pw.step(4 * ij - 2 * batch.k, shift=pw.root * pw.root)
    counit, antipode = _hopf_table(batch)
    counit = {sym: _rows(c, 2) for sym, c in counit.items()}
    dense, graded = real.dense, real.graded
    arms = Arms(len(batch.reps), ("hopf", batch.mode, batch.k))

    # every tensor square of the table, shared by the coproducts and both coassociativity sides
    pairs = {term: _otimes(graded[term[0]], graded[term[1]]) for terms in cop.values()
             for term in terms}
    da, dab, dn = (_graded_sum(pairs[term] for term in cop[gen]) for gen in _GENERATORS)
    relations = (
        ("homomorphism_commutator", _minus(_commutator(da, dab), {(0, 0): steps}),
         (da, dab)),
        ("homomorphism_raise", _minus(_commutator(dn, dab), dab), (dn, dab)),
        ("homomorphism_lower", _minus(_commutator(da, dn), da), (dn, da)),  # -([DN, Da] + Da)
    )
    for name, defect, ops in relations:
        arms.add(name, (defect, *ops))

    for gen in _GENERATORS:
        left = _graded_sum(
            _otimes(pairs[term], graded[ri]) for le, ri in cop[gen] for term in cop[le]
        )
        right = _graded_sum(
            _otimes(graded[le], pairs[term]) for le, ri in cop[gen] for term in cop[ri]
        )
        arms.add(f"coassoc_{gen}", (_minus(left, right), left, right))

    for gen in _GENERATORS:
        lhs_l = sum(counit[le] * dense[ri] for le, ri in cop[gen])
        lhs_r = sum(dense[le] * counit[ri] for le, ri in cop[gen])
        arms.compare(f"counit_left_{gen}", lhs_l, dense[gen])
        arms.compare(f"counit_right_{gen}", lhs_r, dense[gen])

    s_image = {sym: _affine(antipode[sym], dense) for sym in cop}
    for gen in _GENERATORS:
        target = counit[gen] * dense["one"]
        for side, products in (
            ("left", [s_image[le] @ dense[ri] for le, ri in cop[gen]]),
            ("right", [dense[le] @ s_image[ri] for le, ri in cop[gen]]),
        ):
            arms.add(f"antipode_{side}_{gen}", (sum(products) - target, products[0]))
    return unbatch(reps, arms.block(tol, finite_members(steps, errors=real.overflow)))


@dataclasses.dataclass(frozen=True)
class InvolutionSpec:
    """Conjugate-linear anti-automorphism data.

    Images: ``a -> alpha * abar``, ``abar -> beta * a``, ``N -> N + eta``.
    Involutivity forces ``alpha * conj(beta) = 1`` and ``eta`` purely
    imaginary.
    """

    alpha: complex
    beta: complex
    eta: complex
    flavor: Flavor
    label: str

    def __post_init__(self):
        if abs(self.alpha * self.beta.conjugate() - 1.0) > 1e-9:
            raise ValueError(
                f"not involutive: alpha*conj(beta) = {self.alpha * self.beta.conjugate()}"
            )
        if abs(self.eta.real) > 1e-9:
            raise ValueError(f"eta must be purely imaginary, got {self.eta}")


def involution(kind: InvolutionKind | str, params: QParams) -> InvolutionSpec:
    """Named involution for the given parameters.

    The canonical exchange works in either mode (its coproduct behavior
    differs); the imaginary pair exists on the real line only.
    """
    kind = InvolutionKind(kind)
    if kind is InvolutionKind.CANONICAL:
        return InvolutionSpec(1.0, 1.0, 0.0, Flavor.NONSTANDARD, kind.value)
    if params.mode is not Mode.REAL_LINE:
        raise ModeMismatch(f"{kind.value} involution requires the real-line mode")
    eta = complex(0.0, -(2 * params.l + 1) * np.pi / params.epsilon)
    sign = 1.0 if kind is InvolutionKind.IMAGINARY_PLUS else -1.0
    return InvolutionSpec(sign * 1j, sign * 1j, eta, Flavor.STANDARD, kind.value)


def with_flavor(inv: InvolutionSpec, flavor: Flavor | str) -> InvolutionSpec:
    return dataclasses.replace(inv, flavor=Flavor(flavor))


def _star_table(*invs: InvolutionSpec):
    """Star image of each generator, affine as in the antipode table, one value per involution."""
    alpha, beta, eta = (np.array([getattr(inv, name) for inv in invs], dtype=complex)
                        for name in ("alpha", "beta", "eta"))
    return {"a": (alpha, "abar", 0.0), "abar": (beta, "a", 0.0), "N": (1.0, "N", eta)}


def _star_affine(elem, star):
    c, gen, d = elem
    coef, target, const = star[gen]
    cc = c.conjugate()
    return (cc * coef, target, cc * const + d.conjugate())


def _s_affine(elem, antipode):
    c, gen, d = elem
    coef, target, const = antipode[gen]
    return (c * coef, target, c * const + d)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite scalar drops its member below
def check_star_structure(
    reps: Union[Rep, RepBatch],
    inv: Union[InvolutionSpec, Sequence[InvolutionSpec]],
    tol: float = DEFAULT_TOL,
    metric: np.ndarray | None = None,
    label: Optional[str] = None,
) -> Union[list[CheckReport], ReportBlock]:
    """All compatibility arms of one involution on one representation.

    ``metric`` twists the matrix adjoint to ``G^-1 M^H G``; the default is
    the plain conjugate transpose.  Arms: conjugated defining relations,
    matrix realization of the star, coproduct compatibility in the
    involution's flavor, counit reality, and the flavor's antipode axiom.
    A ``label`` names every report ``label.arm``.

    For a :class:`RepBatch`, ``inv`` holds one involution per member, all of
    one flavor, ``metric`` serves every member, and the result is one block
    as in :func:`check_hopf_axioms`.
    """
    batch = as_batch(reps)
    invs = tuple(inv) if isinstance(reps, RepBatch) else (inv,)
    if len(invs) != len(batch.reps):
        raise ValueError(f"{len(invs)} involutions for {len(batch.reps)} representations")
    flavor = invs[0].flavor
    if any(spec.flavor is not flavor for spec in invs):
        raise ValueError("the involutions of a batch must share one flavor")
    cop = _COPRODUCT
    real = batch.derived(_Realization)
    if metric is not None:
        g = np.diagonal(metric)
        if not np.count_nonzero(metric) == np.count_nonzero(g) == len(g):
            raise ValueError("the metric must be diagonal and invertible")
        twist = (1.0 / g)[:, None] * g  # G^-1 M^H G scales entry (i, j) of M^H by g_j / g_i
    # conjugated defining relations: steps at base conj(q), which is 1/q on the
    # unit circle and q on the real line, taken at N + eta
    pw = batch.powers
    shift = None if all(spec.eta == 0 for spec in invs) else np.array(
        [cmath.exp(p.log_q.conjugate() * spec.eta) for p, spec in zip(batch.params, invs)])
    step_bar = pw.step(4 * np.arange(batch.dim), -1 if batch.mode is Mode.UNIMODULAR else 1, shift)
    counit, antipode = _hopf_table(batch)
    star = _star_table(*invs)
    counit_defects = []
    antipode_sides = []
    for gen in _GENERATORS:
        coef, target, const = star[gen]
        counit_defects.append(abs(coef * counit[target] + const - np.conjugate(counit[gen])))
        start = (1.0, gen, 0.0)
        if flavor is Flavor.STANDARD:
            lhs = _star_affine(
                _s_affine(_star_affine(_s_affine(start, antipode), star), antipode), star
            )
            antipode_sides += [lhs, start]
        else:
            antipode_sides += [_s_affine(_star_affine(start, star), antipode),
                               _star_affine(_s_affine(start, antipode), star)]
    dense, graded = real.dense, real.graded
    arms = Arms(len(batch.reps), ("star", batch.mode, batch.k, flavor))

    img = {gen: _affine(star[gen], dense) for gen in _GENERATORS}
    lhs = img["abar"] @ img["a"] - img["a"] @ img["abar"]
    arms.compare("algebra_compat_commutator", lhs, diag_stack(step_bar))
    arms.compare("algebra_compat_raise",
                 img["abar"] @ img["N"] - img["N"] @ img["abar"], img["abar"])
    arms.compare("algebra_compat_lower", img["a"] @ img["N"] - img["N"] @ img["a"], -img["a"])

    def adjoint(m: np.ndarray) -> np.ndarray:
        h = m.conj().transpose(0, 2, 1)
        return h if metric is None else h * twist

    adj = {sym: adjoint(m) for sym, m in dense.items()}
    for gen in _GENERATORS:
        arms.compare(f"star_matrix_{gen}", adj[gen], img[gen])

    # the adjoint of a weighted shift is one of the opposite degree
    graded_adj = {sym: ((-deg,), _band(adj[sym], -deg)) for sym, ((deg,), _) in graded.items()}
    empty = np.zeros((len(batch.reps), batch.dim, batch.dim), dtype=complex)
    for gen in _GENERATORS:
        coef, target, const = star[gen]
        dag = _coproduct(cop[gen], graded_adj)
        image = _graded_sum(
            _otimes((graded[le][0], _rows(coef, 1) * graded[le][1]), graded[ri])
            for le, ri in cop[target]
        )
        # the coproduct of 1 is 1 (x) 1
        image[(0, 0)] = image.get((0, 0), empty) + _rows(const, 2)
        if flavor is Flavor.NONSTANDARD:
            image = _swap(image)
        arms.add(f"coproduct_{flavor.value}_{gen}", (_minus(dag, image), dag, image))

    for gen, defect in zip(_GENERATORS, counit_defects):
        arms.absolute(f"counit_{gen}", defect)

    sides = [_affine(side, dense) for side in antipode_sides]
    for j, gen in enumerate(_GENERATORS):
        arms.compare(f"antipode_{flavor.value}_{gen}", sides[2 * j], sides[2 * j + 1])
    return unbatch(reps, arms.block(tol, finite_members(step_bar, errors=real.overflow), label))


def parity_metric(dim: int) -> np.ndarray:
    """Alternating-sign reflection ``diag(+1, -1, +1, ...)``."""
    return np.diag([(-1.0) ** n for n in range(dim)]).astype(complex)


def derive_involutions(rep: Rep, tol: float = DEFAULT_TOL) -> list[InvolutionSpec]:
    """Recover the imaginary involution pair from a real-line representation.

    Solves ``adjoint(A) = alpha * Abar``, ``adjoint(Abar) = beta * A`` and
    ``adjoint(N) = N + eta`` in the least-squares sense.  The plain adjoint
    realizes exactly one sign; its twin (same ``eta``, flipped ``alpha``
    and ``beta``) is realized by the parity-reflected adjoint, so both are
    returned, each re-verified in its realizing form.
    """
    if rep.params.mode is not Mode.REAL_LINE:
        raise ModeMismatch("involution recovery is defined on the real-line mode")
    if rep.k < 1:
        raise NoSolution("k = 0 leaves the ladder equations degenerate")
    adj_a = rep.A.conj().T
    adj_abar = rep.Abar.conj().T
    alpha = complex(np.vdot(rep.Abar, adj_a) / np.vdot(rep.Abar, rep.Abar))
    beta = complex(np.vdot(rep.A, adj_abar) / np.vdot(rep.A, rep.A))
    eta_diag = np.diag(rep.Nmat.conj().T - rep.Nmat)
    eta = complex(np.mean(eta_diag))
    res = max(
        residual_of(adj_a - alpha * rep.Abar, rep.Abar),
        residual_of(adj_abar - beta * rep.A, rep.A),
        float(np.max(np.abs(eta_diag - eta))),
    )
    if res > tol:
        raise NoSolution(f"matrix equations inconsistent, residual {res:.3e}")
    if abs(alpha * np.conjugate(beta) - 1.0) > tol:
        raise NoSolution(f"solved pair not involutive: alpha={alpha}, beta={beta}")

    def build(al: complex, be: complex) -> InvolutionSpec:
        label = (InvolutionKind.IMAGINARY_MINUS if al.imag < 0
                 else InvolutionKind.IMAGINARY_PLUS).value
        return InvolutionSpec(al, be, eta, Flavor.STANDARD, label)

    solved, twin = build(alpha, beta), build(-alpha, -beta)
    for spec, metric in ((solved, None), (twin, parity_metric(rep.dim))):
        bad = [r for r in check_star_structure(rep, spec, tol, metric=metric) if not r.passed]
        if bad:
            raise NoSolution(
                f"recovered {spec.label} fails re-verification: "
                + ", ".join(f"{r.name}={r.residual:.3e}" for r in bad)
            )
    return sorted((solved, twin), key=lambda s: s.alpha.imag)
