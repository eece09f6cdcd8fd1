"""Normal ordering in the exponentiated presentation.

Words in the raising/lowering pair and Laurent polynomials in
``s = q**(N/2)`` are rewritten to the canonical form ``c(s) abar^i a^j``
(coefficients left, raising before lowering) using
``a abar = abar a + delta(s)`` with
``delta(s) = (q s^2 - s^2/q - ... )`` the step of the deformed number, and
the shift rules ``a c(s) = c(q**(1/2) s) a``, ``abar c(s) = c(s/q**(1/2)) abar``.
The number generator itself only enters through ``s``; its commutators
with the ladder pair are matrix-level statements, not expressible here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algcheck import CheckReport, report, residual_of
from .errors import ParamMismatch
from .qcore import QParams, qnum
from .repbuild import Rep

DEFAULT_SYMBOLIC_TOL = 1e-12

#: hard cap on the reordering depth of the per-n identity checks
N_MAX_CAP = 16


class LaurentPoly:
    """Laurent polynomial in one variable with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, complex] | None = None):
        self.coeffs: dict[int, complex] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    self.coeffs[int(e)] = complex(c)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def variable(cls, power: int = 1) -> "LaurentPoly":
        return cls({power: 1.0})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0.0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: complex) -> "LaurentPoly":
        return LaurentPoly({e: c * v for e, v in self.coeffs.items()})

    def subs_scale(self, mu: complex) -> "LaurentPoly":
        """Substitute ``s -> mu * s``.

        Raises ``OverflowError`` when a power of ``mu`` leaves the double
        range; Python reports ``mu**-e`` as ``ZeroDivisionError`` when
        ``mu**e`` underflows to zero."""
        try:
            return LaurentPoly({e: v * mu**e for e, v in self.coeffs.items()})
        except ZeroDivisionError:
            raise OverflowError(f"rescaling factor {mu} has no finite power") from None

    def __call__(self, s: complex) -> complex:
        return sum(c * s**e for e, c in self.coeffs.items())

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self, tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return self.max_abs() < tol

    def close_to(self, other: "LaurentPoly", tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})*s^{e}" if e else f"({c})" for e, c in sorted(self.coeffs.items())
        )


def delta_poly(params: QParams, tamper: float = 0.0) -> LaurentPoly:
    """Reordering defect ``a abar - abar a`` as a polynomial in ``s``.

    ``tamper`` adds a spurious multiple of ``s^2``; nonzero values exist
    only to prove the identity checks can fail.
    """
    q = params.q
    den = q - 1.0 / q
    return LaurentPoly({2: (q - 1.0) / den + tamper, -2: (1.0 - 1.0 / q) / den})


@dataclass(frozen=True)
class NCPoly:
    """Normal-ordered element: sum of ``c(s) * abar^i * a^j`` terms."""

    params: QParams
    terms: dict[tuple[int, int], LaurentPoly] = field(default_factory=dict)

    def __post_init__(self):
        pruned = {
            (int(i), int(j)): c
            for (i, j), c in self.terms.items()
            if c.coeffs
        }
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def scalar(cls, params: QParams, c: complex) -> "NCPoly":
        return cls(params, {(0, 0): LaurentPoly({0: c})})

    @classmethod
    def gen_a(cls, params: QParams) -> "NCPoly":
        return cls(params, {(0, 1): LaurentPoly.one()})

    @classmethod
    def gen_abar(cls, params: QParams) -> "NCPoly":
        return cls(params, {(1, 0): LaurentPoly.one()})

    @classmethod
    def gen_s(cls, params: QParams, power: int = 1) -> "NCPoly":
        return cls(params, {(0, 0): LaurentPoly.variable(power)})

    @classmethod
    def monomial(cls, params: QParams, i: int, j: int,
                 coeff: LaurentPoly | None = None) -> "NCPoly":
        return cls(params, {(i, j): coeff if coeff is not None else LaurentPoly.one()})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        _require_same_params(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, LaurentPoly.zero()) + c
        return NCPoly(self.params, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        return nf_product(self, other)

    def scale(self, c: complex) -> "NCPoly":
        return NCPoly(self.params, {k: p.scale(c) for k, p in self.terms.items()})

    def max_abs(self) -> float:
        return max((p.max_abs() for p in self.terms.values()), default=0.0)

    def is_zero(self, tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return self.max_abs() < tol

    def close_to(self, other: "NCPoly", tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            word = "*".join(([f"abar^{i}"] if i else []) + ([f"a^{j}"] if j else []))
            bits.append(f"[{c!r}]" + (f"*{word}" if word else ""))
        return " + ".join(bits)


def _require_same_params(p: NCPoly, r: NCPoly) -> None:
    if p.params != r.params:
        raise ParamMismatch("operands built with different deformation parameters")


def _normal_order_word(word: tuple[str, ...], params: QParams,
                       tamper: float = 0.0) -> dict[tuple[int, int], LaurentPoly]:
    """Reduce a word in {'A', 'B'} (lowering, raising) to canonical terms."""
    delta = delta_poly(params, tamper)
    out: dict[tuple[int, int], LaurentPoly] = {}
    stack: list[tuple[LaurentPoly, tuple[str, ...]]] = [(LaurentPoly.one(), word)]
    while stack:
        coeff, w = stack.pop()
        swap_at = next(
            (t for t in range(len(w) - 1) if w[t] == "A" and w[t + 1] == "B"), None
        )
        if swap_at is None:
            key = (w.count("B"), w.count("A"))
            out[key] = out.get(key, LaurentPoly.zero()) + coeff
            continue
        swapped = w[:swap_at] + ("B", "A") + w[swap_at + 2:]
        stack.append((coeff, swapped))
        prefix = w[:swap_at]
        shift = (prefix.count("A") - prefix.count("B")) / 2.0
        shifted_delta = delta.subs_scale(params.qpow(shift))
        stack.append((coeff * shifted_delta, prefix + w[swap_at + 2:]))
    return out


def nf_product(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    """Product in the algebra, returned in canonical normal-ordered form."""
    _require_same_params(p, r)
    params = p.params
    out: dict[tuple[int, int], LaurentPoly] = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in r.terms.items():
            # drag c2 left through abar^i1 a^j1
            coeff = c1 * c2.subs_scale(params.qpow((j1 - i1) / 2.0))
            word = ("B",) * i1 + ("A",) * j1 + ("B",) * i2 + ("A",) * j2
            for key, wc in _normal_order_word(word, params, tamper).items():
                out[key] = out.get(key, LaurentPoly.zero()) + coeff * wc
    return NCPoly(params, out)


def nf_commutator(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    return nf_product(p, r, tamper) - nf_product(r, p, tamper)


def casimir_element(params: QParams) -> NCPoly:
    """Central element ``abar a - [N]`` with ``[N] = (s^2 - s^-2)/(q - 1/q)``."""
    den = params.q - 1.0 / params.q
    number_part = LaurentPoly({2: -1.0 / den, -2: 1.0 / den})
    return NCPoly(params, {(1, 1): LaurentPoly.one(), (0, 0): number_part})


def _half_denominator(params: QParams) -> complex:
    return params.qpow(0.5) + params.qpow(-0.5)


def ladder_coefficient_raise(params: QParams, n: int) -> LaurentPoly:
    """Coefficient of ``abar^(n-1)`` in the reordering of ``a abar^n``."""
    den = _half_denominator(params)
    bran = qnum(n, params.log_q / 2.0)
    return LaurentPoly({
        2: bran * params.qpow((2.0 - n) / 2.0) / den,
        -2: bran * params.qpow((n - 2.0) / 2.0) / den,
    })


def ladder_coefficient_lower(params: QParams, n: int) -> LaurentPoly:
    """Coefficient of ``a^(n-1)`` in the reordering of ``abar a^n`` (sign included)."""
    den = _half_denominator(params)
    bran = qnum(n, params.log_q / 2.0)
    return LaurentPoly({
        2: -bran * params.qpow(n / 2.0) / den,
        -2: -bran * params.qpow(-n / 2.0) / den,
    })


def check_identities_symbolic(
    params: QParams,
    n_max: int = 8,
    tol: float = DEFAULT_SYMBOLIC_TOL,
    tamper: float = 0.0,
) -> list[CheckReport]:
    """Per-n reordering identities and centrality of the Casimir element.

    Each defect is a normal-ordered polynomial whose coefficients must all
    vanish; residuals are absolute max coefficients.
    """
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max={n_max} outside 1..{N_MAX_CAP}")
    a = NCPoly.gen_a(params)
    abar = NCPoly.gen_abar(params)
    out: list[CheckReport] = []
    for n in range(1, n_max + 1):
        abar_n = NCPoly.monomial(params, n, 0)
        a_n = NCPoly.monomial(params, 0, n)
        defect_raise = (
            nf_product(a, abar_n, tamper)
            - nf_product(abar_n, a, tamper)
            - NCPoly.monomial(params, n - 1, 0, ladder_coefficient_raise(params, n))
        )
        defect_lower = (
            nf_product(abar, a_n, tamper)
            - nf_product(a_n, abar, tamper)
            - NCPoly.monomial(params, 0, n - 1, ladder_coefficient_lower(params, n))
        )
        out.append(report(f"ladder_raise_sym_n{n}", defect_raise.max_abs(), tol))
        out.append(report(f"ladder_lower_sym_n{n}", defect_lower.max_abs(), tol))
    c2 = casimir_element(params)
    for name, gen in (("a", a), ("abar", abar), ("s", NCPoly.gen_s(params))):
        out.append(report(
            f"casimir_central_{name}", nf_commutator(c2, gen, tamper).max_abs(), tol
        ))
    return out


def evaluate(p: NCPoly, rep: Rep) -> np.ndarray:
    """Realize a normal-ordered element on a representation."""
    if p.params != rep.params:
        raise ParamMismatch("element and representation parameters differ")
    svals = [rep.params.qpow(v / 2.0) for v in np.diag(rep.Nmat)]
    max_i = max((i for i, _ in p.terms), default=0)
    max_j = max((j for _, j in p.terms), default=0)
    abar_pows = [np.eye(rep.dim, dtype=complex)]
    a_pows = [np.eye(rep.dim, dtype=complex)]
    for _ in range(max_i):
        abar_pows.append(abar_pows[-1] @ rep.Abar)
    for _ in range(max_j):
        a_pows.append(a_pows[-1] @ rep.A)
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (i, j), c in p.terms.items():
        acc += np.diag([c(s) for s in svals]) @ abar_pows[i] @ a_pows[j]
    return acc


def check_evaluation_homomorphism(p: NCPoly, r: NCPoly, rep: Rep,
                                  tol: float = 1e-11) -> CheckReport:
    """Evaluation respects products: E(p*r) = E(p) @ E(r)."""
    left = evaluate(nf_product(p, r), rep)
    ep, er = evaluate(p, rep), evaluate(r, rep)
    return report("evaluation_homomorphism", residual_of(left - ep @ er, ep, er), tol)
