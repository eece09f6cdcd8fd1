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
:class:`~qosc.repbuild.Rep` or a :class:`RepBatch` of representations that
share ``k`` and the mode.  A batch is evaluated in one pass: every weight,
graded block and dense matrix carries a leading batch axis, and residuals
are maxima over every axis but that one.  The graded structure depends on
neither epsilon nor the branch, so a sweep evaluates each arm once per
``k``.  Each member's scalar data (q-powers, bracket steps, counit,
antipode and star coefficients) still comes from the scalar ``cmath``
formulas, one member at a time, so a member's residuals are bit for bit
those of the single-rep call; an ``OverflowError`` there drops only that
member.  A single rep is the batch of one.
"""

from __future__ import annotations

import dataclasses
import functools
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .algcheck import DEFAULT_TOL, CheckReport, report, residual_of
from .errors import DimensionTooLarge, ModeMismatch, NoSolution
from .qcore import Mode, QParams, bracket_step, qnum
from .repbuild import Rep

#: largest allowed dimension (k+1)**3 for the coassociativity check
COASSOC_CAP = 1000

_GENERATORS = ("a", "abar", "N")


class Flavor(str, Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"


class InvolutionKind(str, Enum):
    CANONICAL = "canonical"
    IMAGINARY_PLUS = "imaginary_plus"
    IMAGINARY_MINUS = "imaginary_minus"


@dataclasses.dataclass(frozen=True, eq=False)
class RepBatch:
    """Representations of one ``k`` and one mode, checked together.

    Member ``i`` sits at index ``i`` of the leading axis of every stacked
    array; the members may differ in epsilon and branch.
    """

    reps: tuple[Rep, ...]

    def __post_init__(self) -> None:
        if not self.reps:
            raise ValueError("a batch needs at least one representation")
        head = self.reps[0]
        for rep in self.reps[1:]:
            if rep.k != head.k or rep.params.mode is not head.params.mode:
                raise ValueError(
                    f"a batch needs one k and one mode: k={rep.k}, "
                    f"mode={rep.params.mode.value} joins k={head.k}, "
                    f"mode={head.params.mode.value}"
                )

    @property
    def k(self) -> int:
        return self.reps[0].k

    @property
    def dim(self) -> int:
        return self.k + 1

    @property
    def mode(self) -> Mode:
        return self.reps[0].params.mode

    @property
    def params(self) -> tuple[QParams, ...]:
        return tuple(rep.params for rep in self.reps)

    @functools.cached_property
    def _realization(self) -> "_Realization":
        """Stacked symbols of the members, built once and shared by every check of the batch."""
        return _Realization(self)


#: per-member outcome of a batched check: its reports, or the overflow that dropped it
MemberResult = Union[list[CheckReport], OverflowError]


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


def _diag(w: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices with the rows of ``w`` on their diagonals."""
    b, d = w.shape
    out = np.zeros((b, d, d), dtype=complex)
    out.reshape(b, d * d)[:, :: d + 1] = w
    return out


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


class _Arms:
    """The named arms of one batched check.

    Most arms compare two operands, each a dense stack or a graded operator
    (whose blocks never overlap, so their maxima suffice).  The max-norms
    of all operands are taken in one pass, over every axis but the batch
    axis, and an arm's residual is :func:`~qosc.algcheck.residual_of`'s
    ``defect / max(1, lhs * rhs)`` in float arithmetic: every member sees
    exactly the scalar operations of the single-rep call.
    """

    def __init__(self) -> None:
        # name and, per arm, the number of its defect operand or its residuals
        self._arms: list[tuple[str, Union[int, Sequence[float]]]] = []
        self._blocks: list[np.ndarray] = []  # every operand block, flattened to (B, -1)
        self._starts: list[int] = []  # first column of each operand
        self._width = 0

    def add(self, name: str, defect, lhs, rhs) -> None:
        """An arm with the given defect; its operands are numbered consecutively."""
        self._arms.append((name, len(self._starts)))
        for op in (defect, lhs, rhs):
            self._starts.append(self._width)
            for block in op.values() if isinstance(op, dict) else (op,):
                self._blocks.append(block.reshape(len(block), -1))
                self._width += self._blocks[-1].shape[1]

    def compare(self, name: str, lhs, rhs) -> None:
        graded = isinstance(lhs, dict)
        self.add(name, _minus(lhs, rhs) if graded else lhs - rhs, lhs, rhs)

    def absolute(self, name: str, residuals: Sequence[float]) -> None:
        """An arm whose residuals, one per member, are given."""
        self._arms.append((name, residuals))

    def report(self, results: list, alive: list[int], tol: float) -> None:
        """Put each survivor's reports into its slot of ``results``."""
        flat = np.abs(np.concatenate(self._blocks, axis=1))
        norms = np.maximum.reduceat(flat, self._starts, axis=1).tolist()
        for j, (i, row) in enumerate(zip(alive, norms)):
            results[i] = [
                report(name, row[at] / max(1.0, row[at + 1] * row[at + 2])
                       if isinstance(at, int) else at[j], tol)
                for name, at in self._arms
            ]


def _table(elems: Sequence[Sequence[tuple]]) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Affine elements ``(coef, symbol, const)`` as coefficient columns and symbols.

    ``elems[i][j]`` is member ``i``'s element ``j``; the members share each
    element's symbol.
    """
    coefs = np.array([[c for c, _, _ in row] for row in elems], dtype=complex)
    consts = np.array([[c for _, _, c in row] for row in elems], dtype=complex)
    return coefs, [sym for _, sym, _ in elems[0]], consts


def _affine(table: tuple, dense: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Dense stack of ``coef * symbol + const * 1`` for each element of a :func:`_table`."""
    coefs, syms, consts = table
    return [coefs[:, j, None, None] * dense[sym] + consts[:, j, None, None] * dense["one"]
            for j, sym in enumerate(syms)]


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


def _hopf_table(p: QParams):
    """Coproduct, counit and antipode of every symbol.

    Coproducts are sums of symbol pairs.  Every antipode image is affine,
    ``(coef, symbol, const)`` standing for ``coef * symbol + const * 1``.
    """
    counit = {
        "a": 0.0, "abar": 0.0, "N": -p.gamma,
        "qp": 1.0, "qm": 1.0, "one": 1.0, "gone": p.gamma,
    }
    antipode = {
        "a": (-p.qpow(-0.5), "a", 0.0),
        "abar": (-p.qpow(0.5), "abar", 0.0),
        "N": (-1.0, "N", -2.0 * p.gamma),
        "qp": (1.0, "qm", 0.0),
        "qm": (1.0, "qp", 0.0),
        "one": (1.0, "one", 0.0),
        "gone": (1.0, "gone", 0.0),
    }
    return _COPRODUCT, counit, antipode


def _stack(matrices: list[np.ndarray]) -> np.ndarray:
    return matrices[0][None] if len(matrices) == 1 else np.stack(matrices)  # a view for one


class _Realization:
    """Dense stacks and graded weights of every symbol of :func:`_hopf_table`.

    ``qp``, ``qm`` are ``K``, ``K^-1``, from each member's scalar powers; a
    member whose powers overflow keeps the error in ``overflow`` and zeros
    in their place.  The rep's own ``A``, ``Abar`` and ``Nmat`` are
    validated as weighted shifts here, once per member.
    """

    def __init__(self, batch: RepBatch) -> None:
        reps = batch.reps
        d = batch.dim
        eye = np.eye(d, dtype=complex)
        gamma = np.array([rep.params.gamma for rep in reps], dtype=complex)[:, None, None]
        self.dense = {
            "a": _stack([rep.A for rep in reps]),
            "abar": _stack([rep.Abar for rep in reps]),
            "N": _stack([rep.Nmat for rep in reps]),
            "one": _stack([eye] * len(reps)),
            "gone": gamma * eye,
        }
        self.graded = {
            sym: ((_DEGREE.get(sym, 0),), _shift_weights(sym, m, _DEGREE.get(sym, 0)))
            for sym, m in self.dense.items() if sym in _GENERATORS
        }
        self.graded.update(
            (sym, ((0,), _band(self.dense[sym], 0))) for sym in ("one", "gone"))
        shifted = self.graded["N"][1] + gamma[:, :, 0]  # N + gamma, the exponent of K
        self.overflow: dict[int, OverflowError] = {}
        powers: dict[str, list] = {"qp": [], "qm": []}
        for i, rep in enumerate(reps):
            p = rep.params
            try:
                member = ([p.qpow(0.5 * v) for v in shifted[i]],
                          [p.qpow(-0.5 * v) for v in shifted[i]])
            except OverflowError as exc:
                self.overflow[i] = exc
                member = ([0j] * d, [0j] * d)
            powers["qp"].append(member[0])
            powers["qm"].append(member[1])
        for sym, values in powers.items():
            weights = np.array(values, dtype=complex)
            self.dense[sym] = _diag(weights)
            self.graded[sym] = ((0,), weights)

    def select(self, alive: list[int]) -> tuple[dict, dict]:
        """Dense stacks and graded weights of the members ``alive``."""
        if len(alive) == len(self.dense["a"]):
            return self.dense, self.graded
        return ({sym: m[alive] for sym, m in self.dense.items()},
                {sym: (deg, w[alive]) for sym, (deg, w) in self.graded.items()})


def _members(
    real: _Realization, scalars: Callable[[int], tuple]
) -> tuple[list, list[int], list[tuple]]:
    """Each member's ``scalars(i)``; an ``OverflowError`` there or in its ``K`` powers drops it.

    Returns the per-member result slots (the error, or ``None`` for a
    survivor), the surviving indices and their scalar data.
    """
    results: list = [None] * len(real.dense["a"])
    alive: list[int] = []
    data: list[tuple] = []
    for i in range(len(results)):
        if i in real.overflow:
            results[i] = real.overflow[i]
            continue
        try:
            data.append(scalars(i))
        except OverflowError as exc:
            results[i] = exc
            continue
        alive.append(i)
    return results, alive, data


def _as_batch(reps: Union[Rep, RepBatch]) -> RepBatch:
    return reps if isinstance(reps, RepBatch) else RepBatch((reps,))


def _unbatch(reps: Union[Rep, RepBatch], results: list[MemberResult]):
    """A batch's results as they are; a single rep's reports, or its overflow raised."""
    if isinstance(reps, RepBatch):
        return results
    (result,) = results
    if isinstance(result, OverflowError):
        raise result
    return result


def _coproduct(cop_terms, graded: dict[str, tuple]) -> dict:
    return _graded_sum(_otimes(graded[le], graded[ri]) for le, ri in cop_terms)


def _realize(rep: Rep) -> _Realization:
    """The realization of a single rep, raising the overflow of its ``K`` powers."""
    real = RepBatch((rep,))._realization
    if real.overflow:
        raise real.overflow[0]
    return real


def coproduct(rep: Rep, gen: str) -> dict[tuple[int, int], np.ndarray]:
    """Coproduct of a generator on the tensor square, as graded blocks ``{(m1, m2): weights}``."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    blocks = _coproduct(_COPRODUCT[gen], _realize(rep).graded)
    return {deg: w[0] for deg, w in blocks.items()}


def check_hopf_axioms(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], list[MemberResult]]:
    """Algebra-map property of the coproduct plus the three Hopf axioms.

    A :class:`RepBatch` gives one result per member, in order: its reports,
    or the ``OverflowError`` its scalar data raised.  A single rep gives its
    reports and raises its overflow.
    """
    batch = _as_batch(reps)
    d = batch.dim
    if d**3 > COASSOC_CAP:
        raise DimensionTooLarge(f"coassociativity needs dimension {d ** 3} > cap {COASSOC_CAP}")
    params = batch.params
    cop = _COPRODUCT
    real = batch._realization
    dn00 = _coproduct(cop["N"], real.graded)[(0, 0)]  # where the bracket steps are taken

    def scalars(i: int) -> tuple:
        p = params[i]
        _, counit, antipode = _hopf_table(p)
        # a step depends on its argument alone, and arguments repeat along anti-diagonals
        step = functools.cache(lambda v: bracket_step(v, p))
        steps = [step(v) for v in dn00[i].ravel()]
        return [counit[sym] for sym in cop], [antipode[sym] for sym in cop], steps

    results, alive, data = _members(real, scalars)
    if not alive:
        return _unbatch(reps, results)
    counits, antipodes, steps = zip(*data)
    counits = np.array(counits, dtype=complex)
    counit = {sym: counits[:, j, None, None] for j, sym in enumerate(cop)}
    dense, graded = real.select(alive)
    arms = _Arms()

    # every tensor square of the table, shared by the coproducts and both coassociativity sides
    pairs = {term: _otimes(graded[term[0]], graded[term[1]]) for terms in cop.values()
             for term in terms}
    da, dab, dn = (_graded_sum(pairs[term] for term in cop[gen]) for gen in _GENERATORS)
    step = np.array(steps, dtype=complex).reshape(len(alive), d, d)
    relations = (
        ("homomorphism_commutator", _minus(_commutator(da, dab), {(0, 0): step}), (da, dab)),
        ("homomorphism_raise", _minus(_commutator(dn, dab), dab), (dn, dab)),
        ("homomorphism_lower", _minus(_commutator(da, dn), da), (dn, da)),  # -([DN, Da] + Da)
    )
    for name, defect, ops in relations:
        arms.add(name, defect, *ops)

    for gen in _GENERATORS:
        left = _graded_sum(
            _otimes(pairs[term], graded[ri]) for le, ri in cop[gen] for term in cop[le]
        )
        right = _graded_sum(
            _otimes(graded[le], pairs[term]) for le, ri in cop[gen] for term in cop[ri]
        )
        arms.compare(f"coassoc_{gen}", left, right)

    for gen in _GENERATORS:
        lhs_l = sum(counit[le] * dense[ri] for le, ri in cop[gen])
        lhs_r = sum(dense[le] * counit[ri] for le, ri in cop[gen])
        arms.compare(f"counit_left_{gen}", lhs_l, dense[gen])
        arms.compare(f"counit_right_{gen}", lhs_r, dense[gen])

    s_image = dict(zip(cop, _affine(_table(antipodes), dense)))
    for gen in _GENERATORS:
        target = counit[gen] * dense["one"]
        lhs_l = sum(s_image[le] @ dense[ri] for le, ri in cop[gen])
        lhs_r = sum(dense[le] @ s_image[ri] for le, ri in cop[gen])
        arms.compare(f"antipode_left_{gen}", lhs_l, target)
        arms.compare(f"antipode_right_{gen}", lhs_r, target)
    arms.report(results, alive, tol)
    return _unbatch(reps, results)


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


def _star_table(inv: InvolutionSpec):
    """Star image of each generator, affine as in the antipode table."""
    return {"a": (inv.alpha, "abar", 0.0), "abar": (inv.beta, "a", 0.0),
            "N": (1.0, "N", inv.eta)}


def _star_affine(elem, star):
    c, gen, d = elem
    coef, target, const = star[gen]
    cc = c.conjugate()
    return (cc * coef, target, cc * const + d.conjugate())


def _s_affine(elem, antipode):
    c, gen, d = elem
    coef, target, const = antipode[gen]
    return (c * coef, target, c * const + d)


def check_star_structure(
    reps: Union[Rep, RepBatch],
    inv: Union[InvolutionSpec, Sequence[InvolutionSpec]],
    tol: float = DEFAULT_TOL,
    metric: np.ndarray | None = None,
) -> Union[list[CheckReport], list[MemberResult]]:
    """All compatibility arms of one involution on one representation.

    ``metric`` twists the matrix adjoint to ``G^-1 M^H G``; the default is
    the plain conjugate transpose.  Arms: conjugated defining relations,
    matrix realization of the star, coproduct compatibility in the
    involution's flavor, counit reality, and the flavor's antipode axiom.

    For a :class:`RepBatch`, ``inv`` holds one involution per member, all of
    one flavor, ``metric`` serves every member, and the result has one entry
    per member as in :func:`check_hopf_axioms`.
    """
    batch = _as_batch(reps)
    invs = tuple(inv) if isinstance(reps, RepBatch) else (inv,)
    if len(invs) != len(batch.reps):
        raise ValueError(f"{len(invs)} involutions for {len(batch.reps)} representations")
    flavor = invs[0].flavor
    if any(spec.flavor is not flavor for spec in invs):
        raise ValueError("the involutions of a batch must share one flavor")
    params = batch.params
    cop = _COPRODUCT
    real = batch._realization
    if metric is not None:
        g = np.diagonal(metric)
        if not np.count_nonzero(metric) == np.count_nonzero(g) == len(g):
            raise ValueError("the metric must be diagonal and invertible")
        twist = (1.0 / g)[:, None] * g  # G^-1 M^H G scales entry (i, j) of M^H by g_j / g_i
    nvals = real.graded["N"][1]

    def scalars(i: int) -> tuple:
        p, spec = params[i], invs[i]
        _, counit, antipode = _hopf_table(p)
        star = _star_table(spec)
        # conjugated defining relations, with q replaced by conj(q)
        lgc = p.log_q.conjugate()
        step_bar = [qnum(v + spec.eta + 1.0, lgc) - qnum(v + spec.eta, lgc) for v in nvals[i]]
        counit_defects = []
        antipode_sides = []
        for gen in _GENERATORS:
            coef, target, const = star[gen]
            counit_defects.append(abs(coef * counit[target] + const - counit[gen].conjugate()))
            start = (1.0, gen, 0.0)
            if flavor is Flavor.STANDARD:
                lhs = _star_affine(
                    _s_affine(_star_affine(_s_affine(start, antipode), star), antipode), star
                )
                antipode_sides.append((lhs, start))
            else:
                antipode_sides.append((_s_affine(_star_affine(start, star), antipode),
                                       _star_affine(_s_affine(start, antipode), star)))
        return [star[gen] for gen in _GENERATORS], step_bar, counit_defects, antipode_sides

    results, alive, data = _members(real, scalars)
    if not alive:
        return _unbatch(reps, results)
    stars, step_bars, counit_defects, antipode_sides = zip(*data)
    dense, graded = real.select(alive)
    arms = _Arms()

    star = _table(stars)
    img = dict(zip(_GENERATORS, _affine(star, dense)))
    lhs = img["abar"] @ img["a"] - img["a"] @ img["abar"]
    arms.compare("algebra_compat_commutator", lhs, _diag(np.array(step_bars, dtype=complex)))
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
    coefs, targets, consts = star
    empty = np.zeros((len(alive), batch.dim, batch.dim), dtype=complex)
    for j, (gen, target) in enumerate(zip(_GENERATORS, targets)):
        dag = _coproduct(cop[gen], graded_adj)
        image = _graded_sum(
            _otimes((graded[le][0], coefs[:, j, None] * graded[le][1]), graded[ri])
            for le, ri in cop[target]
        )
        # the coproduct of 1 is 1 (x) 1
        image[(0, 0)] = image.get((0, 0), empty) + consts[:, j, None, None]
        if flavor is Flavor.NONSTANDARD:
            image = _swap(image)
        arms.compare(f"coproduct_{flavor.value}_{gen}", dag, image)

    for j, gen in enumerate(_GENERATORS):
        arms.absolute(f"counit_{gen}", [c[j] for c in counit_defects])

    sides = _affine(_table([[e for pair in row for e in pair] for row in antipode_sides]), dense)
    for j, gen in enumerate(_GENERATORS):
        arms.compare(f"antipode_{flavor.value}_{gen}", sides[2 * j], sides[2 * j + 1])
    arms.report(results, alive, tol)
    return _unbatch(reps, results)


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
