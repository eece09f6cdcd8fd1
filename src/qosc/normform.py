"""Normal ordering in the exponentiated presentation.

Words in the raising/lowering pair and Laurent polynomials in
``s = q**(N/2)`` are rewritten to the canonical form ``c(s) abar^i a^j``
(coefficients left, raising before lowering) using
``a abar = abar a + delta(s)`` and the shift rules ``a c(s) = c(t s) a``,
``abar c(s) = c(s/t) abar``, where ``t = q**(1/2)``.

Every identity checked here holds over ``Z[t^±1, s^±1]`` with powers of
``D = t^2 - t^-2`` as denominators.  There the reordering step is

    delta(s) = ((t^2 - 1) s^2 + (1 - t^-2) s^-2) / D + tau s^2,

which at ``s = q**(nu/2)`` and ``tau = 0`` is ``[nu+1] - [nu]``; the tamper
variable ``tau`` exists only to prove that the checks can fail.
:class:`ExactPoly` is that ring.  :func:`check_identities_symbolic`
normal-orders its defects in it once per depth and per process, then
evaluates them at ``t`` and ``tau``: untampered, every defect cancels
exactly.  :class:`LaurentPoly` and :class:`NCPoly` are the numeric view at
one ``q``; the same rewriting loop serves both rings.  The number
generator itself only enters through ``s``; its commutators with the
ladder pair are matrix-level statements, not expressible here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from .algcheck import CheckReport, ReportBlock, report, residual_of
from .errors import ParamMismatch
from .qcore import QParams
from .repbuild import Rep

DEFAULT_SYMBOLIC_TOL = 1e-12

#: hard cap on the reordering depth of the per-n identity checks
N_MAX_CAP = 16

#: a coefficient ring of the rewriter: LaurentPoly or ExactPoly
C = TypeVar("C")


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


# exponents of an ExactPoly term: powers of s, t and the tamper variable tau
Exps = tuple[int, int, int]


def _times(x: dict[Exps, int], y: dict[Exps, int]) -> dict[Exps, int]:
    out: dict[Exps, int] = {}
    for (s1, t1, u1), c1 in x.items():
        for (s2, t2, u2), c2 in y.items():
            key = (s1 + s2, t1 + t2, u1 + u2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


#: numerator of D = t^2 - t^-2
_D = {(0, 2, 0): 1, (0, -2, 0): -1}


class ExactPoly:
    """Integer Laurent polynomial in ``s``, ``t`` and ``tau``, divided by ``D**den``.

    The ring is an integral domain, so a value is zero exactly when its
    numerator has no terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict[Exps, int], den: int = 0):
        self.num = {e: c for e, c in num.items() if c}
        self.den = den

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls({(0, 0, 0): 1})

    def over(self, den: int) -> dict[Exps, int]:
        """A fresh numerator of this value over ``D**den``, ``den >= self.den``."""
        num = dict(self.num)
        for _ in range(den - self.den):
            num = _times(num, _D)
        return num

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        den = max(self.den, other.den)
        out = self.over(den)
        for e, c in other.over(den).items():
            out[e] = out.get(e, 0) + c
        return ExactPoly(out, den)

    def __mul__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly(_times(self.num, other.num), self.den + other.den)

    def scale(self, c: int) -> "ExactPoly":
        return ExactPoly({e: c * v for e, v in self.num.items()}, self.den)

    def shift(self, m: int) -> "ExactPoly":
        """Substitute ``s -> t**m s``."""
        return ExactPoly({(a, b + m * a, u): c for (a, b, u), c in self.num.items()}, self.den)


# The three formulas of this module, each stated once and exactly.

#: the reordering step delta(s), tampered by tau s^2
_DELTA = (
    ExactPoly({(2, 2, 0): 1, (2, 0, 0): -1, (-2, 0, 0): 1, (-2, -2, 0): -1}, den=1)
    + ExactPoly({(2, 0, 1): 1})
)

#: number part -[N] = (s^-2 - s^2) / D of the central element abar a - [N]
_NUMBER_PART = ExactPoly({(-2, 0, 0): 1, (2, 0, 0): -1}, den=1)


def _ladder_raise(n: int) -> ExactPoly:
    """Coefficient of ``abar^(n-1)`` in ``a abar^n - abar^n a``:
    ``(t^n - t^-n)/D * (t^(2-n) s^2 + t^(n-2) s^-2)``."""
    bracket = ExactPoly({(0, n, 0): 1, (0, -n, 0): -1}, den=1)
    return bracket * ExactPoly({(2, 2 - n, 0): 1, (-2, n - 2, 0): 1})


def _ladder_lower(n: int) -> ExactPoly:
    """Coefficient of ``a^(n-1)`` in ``abar a^n - a^n abar``: the raising one
    at ``s -> t^(n-1) s``, negated."""
    return _ladder_raise(n).shift(n - 1).scale(-1)


# Terms of one s-power: (t-power, tau-power, integer coefficient) triples.
Group = tuple[tuple[int, int, int], ...]


def _by_s_power(num: dict[Exps, int]) -> dict[int, Group]:
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for (a, b, u), c in sorted(num.items()):
        groups.setdefault(a, []).append((b, u, c))
    return {a: tuple(g) for a, g in groups.items()}


def _values(groups: Iterable[Group], den: int, params: QParams, tamper: float) -> list[complex]:
    """Each group's sum of ``c t**b tau**u``, over ``D**den``, at ``t = q**(1/2)``.

    A term whose ``tamper**u`` is zero is skipped, so no ``0 * inf`` enters.
    Raises ``ValueError`` for a non-finite ``tamper`` and ``OverflowError``
    when a value is not finite.
    """
    if not math.isfinite(tamper):
        raise ValueError(f"tamper must be finite, got {tamper}")
    values = []
    for group in groups:
        acc = 0j
        for b, u, c in group:
            weight = tamper**u
            if weight:
                acc += c * weight * params.qpow(b / 2.0)
        values.append(acc)
    if den and any(values):
        scale = (params.qpow(1.0) - params.qpow(-1.0)) ** den
        values = [v / scale for v in values]
    if not all(math.isfinite(abs(v)) for v in values):
        raise OverflowError(f"symbolic coefficient leaves the double range at q={params.q}")
    return values


def _numeric(x: ExactPoly, params: QParams, tamper: float = 0.0) -> LaurentPoly:
    """The Laurent polynomial in ``s`` that ``x`` is at these parameters."""
    groups = _by_s_power(x.num)
    return LaurentPoly(dict(zip(groups, _values(groups.values(), x.den, params, tamper))))


def delta_poly(params: QParams, tamper: float = 0.0) -> LaurentPoly:
    """Reordering defect ``a abar - abar a`` as a polynomial in ``s``.

    ``tamper`` adds a spurious multiple of ``s^2``; nonzero values exist
    only to prove the identity checks can fail.
    """
    return _numeric(_DELTA, params, tamper)


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


Terms = dict[tuple[int, int], C]


def _accumulate(out: Terms, key: tuple[int, int], c: C) -> None:
    out[key] = out[key] + c if key in out else c


def _normal_order_word(word: tuple[str, ...], one: C,
                       shifted_delta: Callable[[int], C]) -> Terms:
    """Reduce a word in {'A', 'B'} (lowering, raising) to canonical terms.

    ``one`` is the unit of the coefficient ring and ``shifted_delta(m)`` the
    reordering step at ``s -> t**m s``.
    """
    out: Terms = {}
    stack: list[tuple[C, tuple[str, ...]]] = [(one, word)]
    while stack:
        coeff, w = stack.pop()
        swap_at = next(
            (t for t in range(len(w) - 1) if w[t] == "A" and w[t + 1] == "B"), None
        )
        if swap_at is None:
            _accumulate(out, (w.count("B"), w.count("A")), coeff)
            continue
        swapped = w[:swap_at] + ("B", "A") + w[swap_at + 2:]
        stack.append((coeff, swapped))
        prefix = w[:swap_at]
        delta = shifted_delta(prefix.count("A") - prefix.count("B"))
        stack.append((coeff * delta, prefix + w[swap_at + 2:]))
    return out


def _product_terms(p: Terms, r: Terms, one: C, shift: Callable[[C, int], C], delta: C) -> Terms:
    """Normal-ordered product of two term dicts over one coefficient ring;
    ``shift(c, m)`` substitutes ``s -> t**m s`` in ``c``."""
    def shifted_delta(m: int) -> C:
        return shift(delta, m)

    out: Terms = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in r.items():
            # drag c2 left through abar^i1 a^j1
            coeff = c1 * shift(c2, j1 - i1)
            word = ("B",) * i1 + ("A",) * j1 + ("B",) * i2 + ("A",) * j2
            for key, wc in _normal_order_word(word, one, shifted_delta).items():
                _accumulate(out, key, coeff * wc)
    return out


def nf_product(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    """Product in the algebra, returned in canonical normal-ordered form."""
    _require_same_params(p, r)
    params = p.params

    def shift(c: LaurentPoly, m: int) -> LaurentPoly:
        return c.subs_scale(params.qpow(m / 2.0))

    delta = delta_poly(params, tamper)
    return NCPoly(params, _product_terms(p.terms, r.terms, LaurentPoly.one(), shift, delta))


def nf_commutator(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    return nf_product(p, r, tamper) - nf_product(r, p, tamper)


def casimir_element(params: QParams) -> NCPoly:
    """Central element ``abar a - [N]`` with ``[N] = (s^2 - s^-2)/(q - 1/q)``."""
    return NCPoly(params, {(1, 1): LaurentPoly.one(), (0, 0): _numeric(_NUMBER_PART, params)})


def ladder_coefficient_raise(params: QParams, n: int) -> LaurentPoly:
    """Coefficient of ``abar^(n-1)`` in the reordering of ``a abar^n``."""
    return _numeric(_ladder_raise(n), params)


def ladder_coefficient_lower(params: QParams, n: int) -> LaurentPoly:
    """Coefficient of ``a^(n-1)`` in the reordering of ``abar a^n`` (sign included)."""
    return _numeric(_ladder_lower(n), params)


# ---------------------------------------------------------------------------
# the identity checks, normal-ordered exactly


class Defect(NamedTuple):
    """One named defect: every coefficient group must vanish."""

    name: str
    den: int  # the groups are over D**den
    groups: tuple[Group, ...]  # one per (abar power, a power, s power)


def _exact_product(p: Terms, r: Terms) -> Terms:
    return _product_terms(p, r, ExactPoly.one(), ExactPoly.shift, _DELTA)


def _defect(name: str, lhs: Terms, *rhs: Terms) -> Defect:
    """The defect ``lhs - sum(rhs)``, over one common power of ``D``."""
    terms = dict(lhs)
    for part in rhs:
        for key, c in part.items():
            _accumulate(terms, key, c.scale(-1))
    den = max((c.den for c in terms.values()), default=0)
    groups = tuple(g for c in terms.values() for g in _by_s_power(c.over(den)).values())
    return Defect(name, den, groups)


@functools.lru_cache(maxsize=N_MAX_CAP)
def exact_defects(n_max: int) -> tuple[Defect, ...]:
    """Defects of every identity that :func:`check_identities_symbolic`
    reports at depth ``n_max``, in report order.

    Cached for the process, one entry per depth; the values are immutable.
    """
    one = ExactPoly.one()
    a, abar = {(0, 1): one}, {(1, 0): one}
    out = []
    for n in range(1, n_max + 1):
        abar_n, a_n = {(n, 0): one}, {(0, n): one}
        out.append(_defect(
            f"ladder_raise_sym_n{n}",
            _exact_product(a, abar_n),
            _exact_product(abar_n, a),
            {(n - 1, 0): _ladder_raise(n)},
        ))
        out.append(_defect(
            f"ladder_lower_sym_n{n}",
            _exact_product(abar, a_n),
            _exact_product(a_n, abar),
            {(0, n - 1): _ladder_lower(n)},
        ))
    central = {(1, 1): one, (0, 0): _NUMBER_PART}
    for name, gen in (("a", a), ("abar", abar), ("s", {(0, 0): ExactPoly({(1, 0, 0): 1})})):
        out.append(_defect(
            f"casimir_central_{name}", _exact_product(central, gen), _exact_product(gen, central)
        ))
    return tuple(out)


def symbolic_block(params: QParams, n_max: int = 8, tol: float = DEFAULT_SYMBOLIC_TOL,
                   tamper: float = 0.0) -> ReportBlock:
    """:func:`check_identities_symbolic` as a one-member :class:`~qosc.algcheck.ReportBlock`."""
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max={n_max} outside 1..{N_MAX_CAP}")
    defects = exact_defects(n_max)
    residuals = [max(map(abs, _values(d.groups, d.den, params, tamper)), default=0.0)
                 for d in defects]
    return ReportBlock(tuple(d.name for d in defects), (0,), np.array([residuals]),
                       float(tol), {}, {})


def check_identities_symbolic(
    params: QParams,
    n_max: int = 8,
    tol: float = DEFAULT_SYMBOLIC_TOL,
    tamper: float = 0.0,
) -> list[CheckReport]:
    """Per-n reordering identities and centrality of the Casimir element.

    Each defect is a normal-ordered polynomial whose coefficients must all
    vanish; residuals are absolute max coefficients.  The defects are
    normal-ordered exactly (:func:`exact_defects`) and evaluated here at
    ``t = q**(1/2)`` and ``tamper``: untampered, every residual is exactly 0.
    A non-finite ``tamper`` raises ``ValueError``.
    """
    return symbolic_block(params, n_max, tol, tamper).reports(0)


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
