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
"""

from __future__ import annotations

import dataclasses
from enum import Enum

import numpy as np

from .algcheck import DEFAULT_TOL, CheckReport, compare, report, residual_of
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


# Graded operators.  Every symbol is homogeneous in the N-grading, so its d*d
# matrix is a weighted shift of one degree m: entry ``(j+m, j)`` holds
# ``w[j]``, and slots whose row leaves the block hold exact zeros.  A tensor
# product of shifts is a pair ``(degrees, weights)`` whose weights are the
# outer product of the factors' weights; a sum of such products is a dict
# ``{degrees: weights}``.  Distinct degree tuples never share a dense entry,
# so sums, the factor swap and max-abs norms act block by block and give
# exactly the dense values at O(d**2) / O(d**3) cost.

#: N-grading degree of the symbols that are not diagonal
_DEGREE = {"a": -1, "abar": 1}


def _shift_weights(name: str, m: np.ndarray, degree: int) -> np.ndarray:
    """Weights of a single-offset matrix of the given degree; anything else is rejected."""
    band = np.diagonal(m, -degree)
    if np.count_nonzero(m) != np.count_nonzero(band):
        raise ValueError(f"{name} is not a weighted shift of degree {degree}")
    pad = np.zeros(abs(degree), dtype=m.dtype)
    return np.concatenate((band, pad) if degree > 0 else (pad, band))


def _graded(matrices: dict[str, np.ndarray], sign: int = 1) -> dict[str, tuple]:
    """One-factor graded form of each symbol; ``sign=-1`` reads adjoints, which flip the degree."""
    degrees = {sym: sign * _DEGREE.get(sym, 0) for sym in matrices}
    return {sym: ((deg,), _shift_weights(sym, matrices[sym], deg)) for sym, deg in degrees.items()}


def _otimes(left: tuple, right: tuple) -> tuple:
    return left[0] + right[0], np.multiply.outer(left[1], right[1])


def _graded_sum(terms) -> dict[tuple[int, ...], np.ndarray]:
    """Add weights per degree, in term order (the dense sum's order on every entry)."""
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for degrees, weights in terms:
        acc[degrees] = acc[degrees] + weights if degrees in acc else weights
    return acc


def _swap(blocks: dict) -> dict:
    """Conjugate by the factor swap ``A (x) B -> B (x) A``: reverse degrees, transpose weights."""
    return {(m2, m1): w.T for (m1, m2), w in blocks.items()}


def _read_at(weights: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """``weights[j + n]`` along each axis; slots whose ``j + n`` leaves ``0..size-1`` read zero."""
    spans = [(max(-n, 0), max(-n, 0, size - max(n, 0))) for n, size in zip(offsets, weights.shape)]
    out = np.zeros_like(weights)
    out[tuple(slice(lo, hi) for lo, hi in spans)] = weights[
        tuple(slice(lo + n, hi + n) for (lo, hi), n in zip(spans, offsets))]
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


def _residual_of(defect: dict, *operands: dict) -> float:
    """:func:`residual_of` of graded operators; blocks never overlap, so their maxima suffice."""
    maxima = [np.array([np.abs(w).max() for w in op.values()]) for op in (defect, *operands)]
    return residual_of(*maxima)


def _compare_graded(name: str, lhs: dict, rhs: dict, tol: float) -> CheckReport:
    return report(name, _residual_of(_minus(lhs, rhs), lhs, rhs), tol)


def _hopf_table(p: QParams):
    """Coproduct, counit and antipode of every symbol.

    Coproducts are sums of symbol pairs.  Every antipode image is affine,
    ``(coef, symbol, const)`` standing for ``coef * symbol + const * 1``.
    """
    cop = {
        "a": (("a", "qp"), ("qm", "a")),
        "abar": (("abar", "qp"), ("qm", "abar")),
        "N": (("N", "one"), ("one", "N"), ("gone", "one")),
        "qp": (("qp", "qp"),),
        "qm": (("qm", "qm"),),
        "one": (("one", "one"),),
        "gone": (("gone", "one"),),
    }
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
    return cop, counit, antipode


def _realize(rep: Rep) -> dict[str, np.ndarray]:
    """Matrix of every symbol of :func:`_hopf_table`; ``qp``, ``qm`` are ``K``, ``K^-1``."""
    p = rep.params
    shifted = np.diag(rep.Nmat) + p.gamma
    eye = np.eye(rep.dim, dtype=complex)
    return {
        "a": rep.A,
        "abar": rep.Abar,
        "N": rep.Nmat,
        "qp": np.diag([p.qpow(0.5 * v) for v in shifted]),
        "qm": np.diag([p.qpow(-0.5 * v) for v in shifted]),
        "one": eye,
        "gone": p.gamma * eye,
    }


def _affine_matrix(elem, realize: dict[str, np.ndarray]) -> np.ndarray:
    c, gen, const = elem
    return c * realize[gen] + const * realize["one"]


def _coproduct(cop_terms, graded: dict[str, tuple]) -> dict:
    return _graded_sum(_otimes(graded[le], graded[ri]) for le, ri in cop_terms)


def coproduct(rep: Rep, gen: str) -> dict[tuple[int, int], np.ndarray]:
    """Coproduct of a generator on the tensor square, as graded blocks ``{(m1, m2): weights}``."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    cop, _, _ = _hopf_table(rep.params)
    return _coproduct(cop[gen], _graded(_realize(rep)))


def check_hopf_axioms(rep: Rep, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Algebra-map property of the coproduct plus the three Hopf axioms."""
    if rep.dim**3 > COASSOC_CAP:
        raise DimensionTooLarge(
            f"coassociativity needs dimension {rep.dim ** 3} > cap {COASSOC_CAP}"
        )
    p = rep.params
    cop, counit, antipode = _hopf_table(p)
    realize = _realize(rep)
    graded = _graded(realize)

    da, dab, dn = (_coproduct(cop[gen], graded) for gen in _GENERATORS)
    step = np.reshape([bracket_step(v, p) for v in dn[(0, 0)].ravel()], (rep.dim, rep.dim))
    relations = (
        ("homomorphism_commutator", _minus(_commutator(da, dab), {(0, 0): step}), (da, dab)),
        ("homomorphism_raise", _minus(_commutator(dn, dab), dab), (dn, dab)),
        ("homomorphism_lower", _minus(_commutator(da, dn), da), (dn, da)),  # -([DN, Da] + Da)
    )
    out = [report(name, _residual_of(defect, *ops), tol) for name, defect, ops in relations]

    for gen in _GENERATORS:
        left = _graded_sum(
            _otimes(_otimes(graded[l1], graded[l2]), graded[ri])
            for le, ri in cop[gen]
            for l1, l2 in cop[le]
        )
        right = _graded_sum(
            _otimes(graded[le], _otimes(graded[r1], graded[r2]))
            for le, ri in cop[gen]
            for r1, r2 in cop[ri]
        )
        out.append(_compare_graded(f"coassoc_{gen}", left, right, tol))

    for gen in _GENERATORS:
        lhs_l = sum(counit[le] * realize[ri] for le, ri in cop[gen])
        lhs_r = sum(realize[le] * counit[ri] for le, ri in cop[gen])
        out.append(compare(f"counit_left_{gen}", lhs_l, realize[gen], tol))
        out.append(compare(f"counit_right_{gen}", lhs_r, realize[gen], tol))

    s_image = {sym: _affine_matrix(elem, realize) for sym, elem in antipode.items()}
    for gen in _GENERATORS:
        target = counit[gen] * realize["one"]
        lhs_l = sum(s_image[le] @ realize[ri] for le, ri in cop[gen])
        lhs_r = sum(realize[le] @ s_image[ri] for le, ri in cop[gen])
        out.append(compare(f"antipode_left_{gen}", lhs_l, target, tol))
        out.append(compare(f"antipode_right_{gen}", lhs_r, target, tol))
    return out


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
    cc = np.conjugate(c)
    return (cc * coef, target, cc * const + np.conjugate(d))


def _s_affine(elem, antipode):
    c, gen, d = elem
    coef, target, const = antipode[gen]
    return (c * coef, target, c * const + d)


def check_star_structure(
    rep: Rep,
    inv: InvolutionSpec,
    tol: float = DEFAULT_TOL,
    metric: np.ndarray | None = None,
) -> list[CheckReport]:
    """All compatibility arms of one involution on one representation.

    ``metric`` twists the matrix adjoint to ``G^-1 M^H G``; the default is
    the plain conjugate transpose.  Arms: conjugated defining relations,
    matrix realization of the star, coproduct compatibility in the
    involution's flavor, counit reality, and the flavor's antipode axiom.
    """
    p = rep.params
    cop, counit, antipode = _hopf_table(p)
    realize = _realize(rep)
    graded = _graded(realize)
    star = _star_table(inv)
    if metric is not None and np.count_nonzero(metric) != np.count_nonzero(np.diagonal(metric)):
        raise ValueError("the metric must be diagonal")
    minv = None if metric is None else np.linalg.inv(metric)

    def adjoint(m: np.ndarray) -> np.ndarray:
        h = m.conj().T
        return h if metric is None else minv @ h @ metric

    img = {gen: _affine_matrix(star[gen], realize) for gen in _GENERATORS}
    out: list[CheckReport] = []

    # conjugated defining relations, with q replaced by conj(q)
    lgc = np.conjugate(p.log_q)
    step_bar = np.diag(
        [qnum(v + inv.eta + 1.0, lgc) - qnum(v + inv.eta, lgc) for v in np.diag(rep.Nmat)]
    )
    lhs = img["abar"] @ img["a"] - img["a"] @ img["abar"]
    out.append(compare("algebra_compat_commutator", lhs, step_bar, tol))
    out.append(compare("algebra_compat_raise",
                       img["abar"] @ img["N"] - img["N"] @ img["abar"], img["abar"], tol))
    out.append(compare("algebra_compat_lower",
                       img["a"] @ img["N"] - img["N"] @ img["a"], -img["a"], tol))

    adj = {sym: adjoint(m) for sym, m in realize.items()}
    for gen in _GENERATORS:
        out.append(compare(f"star_matrix_{gen}", adj[gen], img[gen], tol))

    graded_adj = _graded(adj, sign=-1)
    empty = np.zeros((rep.dim, rep.dim), dtype=complex)
    for gen in _GENERATORS:
        dag = _coproduct(cop[gen], graded_adj)
        coef, target, const = star[gen]
        image = _graded_sum(
            _otimes((graded[le][0], coef * graded[le][1]), graded[ri]) for le, ri in cop[target]
        )
        image[(0, 0)] = image.get((0, 0), empty) + const  # the coproduct of 1 is 1 (x) 1
        if inv.flavor is Flavor.NONSTANDARD:
            image = _swap(image)
        out.append(_compare_graded(f"coproduct_{inv.flavor.value}_{gen}", dag, image, tol))

    for gen in _GENERATORS:
        coef, target, const = star[gen]
        diff = abs(coef * counit[target] + const - np.conjugate(counit[gen]))
        out.append(report(f"counit_{gen}", diff, tol))

    for gen in _GENERATORS:
        start = (1.0, gen, 0.0)
        if inv.flavor is Flavor.STANDARD:
            lhs_e = _star_affine(
                _s_affine(_star_affine(_s_affine(start, antipode), star), antipode), star
            )
            rhs_m = _affine_matrix(start, realize)
        else:
            lhs_e = _s_affine(_star_affine(start, star), antipode)
            rhs_m = _affine_matrix(_star_affine(_s_affine(start, antipode), star), realize)
        out.append(compare(f"antipode_{inv.flavor.value}_{gen}",
                           _affine_matrix(lhs_e, realize), rhs_m, tol))
    return out


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
