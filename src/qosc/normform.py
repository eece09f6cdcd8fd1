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
:class:`~qosc.qcore.ExactPoly` is that ring, and the only coefficient ring
here.  It lives in :mod:`qosc.qcore` with the ladder coefficients, which the
matrix ladder check evaluates too.  One rewriter serves the identity checks,
which normal-order their defects once per depth and per process and
evaluate them at ``t`` and ``tau`` for a whole batch of parameters at once
(:func:`symbolic_block`; untampered, every defect cancels exactly), and
:func:`nf_product`, which sets ``tau`` to its tamper afterwards.
:class:`NCPoly` keeps exact coefficients; ``q`` enters only where one is
evaluated.  The number generator itself only enters through ``s``; its
commutators with the ladder pair are matrix-level statements, not
expressible here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .algcheck import CheckReport, ReportBlock, cut, finite_members, report, residual_of
from .errors import ParamMismatch
from .qcore import (
    ExactPoly,
    Group,
    QParams,
    _by_s_power,
    _ladder_lower,
    _ladder_raise,
    _values,
)
from .repbuild import Rep

DEFAULT_SYMBOLIC_TOL = 1e-12

#: hard cap on the reordering depth of the per-n identity checks
N_MAX_CAP = 16

def LaurentPoly(coeffs: dict[int, complex]) -> ExactPoly:
    """The polynomial ``sum(c * s**e)`` as an :class:`ExactPoly`."""
    return ExactPoly({(e, 0, 0): c for e, c in coeffs.items()})


# The three formulas of this module, each stated once and exactly.

#: the reordering step delta(s), tampered by tau s^2
_DELTA = (
    ExactPoly({(2, 2, 0): 1, (2, 0, 0): -1, (-2, 0, 0): 1, (-2, -2, 0): -1}, den=1)
    + ExactPoly({(2, 0, 1): 1})
)

#: number part -[N] = (s^-2 - s^2) / D of the central element abar a - [N]
_NUMBER_PART = ExactPoly({(-2, 0, 0): 1, (2, 0, 0): -1}, den=1)


def _s_coeffs(c: ExactPoly, params: QParams) -> dict[int, complex]:
    """The coefficient of each power of ``s`` in ``c`` at these parameters and ``tau = 0``;
    ``OverflowError`` if one is not finite."""
    groups = _by_s_power(c.num)
    values = _values(groups.values(), c.den, lambda b: params.qpow(b / 2.0), 0.0)
    if not all(math.isfinite(abs(v)) for v in values):
        raise OverflowError(f"symbolic coefficient leaves the double range at q={params.q}")
    return dict(zip(groups, values))


@dataclass(frozen=True)
class NCPoly:
    """Normal-ordered element: sum of ``c(s) * abar^i * a^j`` terms with exact
    coefficients; ``params`` enters only where one is evaluated."""

    params: QParams
    terms: dict[tuple[int, int], ExactPoly] = field(default_factory=dict)

    def __post_init__(self):
        pruned = {(int(i), int(j)): c for (i, j), c in self.terms.items() if c.num}
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def scalar(cls, params: QParams, c: complex) -> "NCPoly":
        return cls(params, {(0, 0): ExactPoly({(0, 0, 0): c})})

    @classmethod
    def gen_a(cls, params: QParams) -> "NCPoly":
        return cls(params, {(0, 1): ExactPoly.one()})

    @classmethod
    def gen_abar(cls, params: QParams) -> "NCPoly":
        return cls(params, {(1, 0): ExactPoly.one()})

    @classmethod
    def gen_s(cls, params: QParams, power: int = 1) -> "NCPoly":
        return cls(params, {(0, 0): ExactPoly({(power, 0, 0): 1})})

    @classmethod
    def monomial(cls, params: QParams, i: int, j: int,
                 coeff: ExactPoly | None = None) -> "NCPoly":
        return cls(params, {(i, j): coeff if coeff is not None else ExactPoly.one()})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        _require_same_params(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return NCPoly(self.params, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        return nf_product(self, other)

    def scale(self, c: complex) -> "NCPoly":
        return NCPoly(self.params, {k: p.scale(c) for k, p in self.terms.items()})

    def max_abs(self) -> float:
        return max((abs(v) for c in self.terms.values()
                    for v in _s_coeffs(c, self.params).values()), default=0.0)

    def is_zero(self, tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return self.max_abs() < tol

    def close_to(self, other: "NCPoly", tol: float = DEFAULT_SYMBOLIC_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __str__(self) -> str:
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            word = "*".join(([f"abar^{i}"] if i else []) + ([f"a^{j}"] if j else []))
            coeff = " + ".join(f"({v})*s^{e}" if e else f"({v})"
                               for e, v in _s_coeffs(c, self.params).items() if v)
            bits.append(f"[{coeff or 0}]" + (f"*{word}" if word else ""))
        return " + ".join(bits) or "0"


def _require_same_params(p: NCPoly, r: NCPoly) -> None:
    if p.params != r.params:
        raise ParamMismatch("operands built with different deformation parameters")


Terms = dict[tuple[int, int], ExactPoly]


def _accumulate(out: Terms, key: tuple[int, int], c: ExactPoly) -> None:
    out[key] = out[key] + c if key in out else c


def _normal_order_word(word: tuple[str, ...]) -> Terms:
    """Reduce a word in {'A', 'B'} (lowering, raising) to canonical terms."""
    out: Terms = {}
    stack: list[tuple[ExactPoly, tuple[str, ...]]] = [(ExactPoly.one(), word)]
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
        delta = _DELTA.shift(prefix.count("A") - prefix.count("B"))
        stack.append((coeff * delta, prefix + w[swap_at + 2:]))
    return out


def _product_terms(p: Terms, r: Terms) -> Terms:
    """Normal-ordered product of two term dicts, exactly and with ``tau`` kept."""
    out: Terms = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in r.items():
            # drag c2 left through abar^i1 a^j1
            coeff = c1 * c2.shift(j1 - i1)
            word = ("B",) * i1 + ("A",) * j1 + ("B",) * i2 + ("A",) * j2
            for key, wc in _normal_order_word(word).items():
                _accumulate(out, key, coeff * wc)
    return out


def nf_product(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    """Product in the algebra, in canonical normal-ordered form: rewritten
    exactly, then with ``tau = tamper`` (a debug offset of every ``delta``)."""
    _require_same_params(p, r)
    if not math.isfinite(tamper):  # also when an operand is zero and no at_tau runs
        raise ValueError(f"tamper must be finite, got {tamper}")
    terms = _product_terms(p.terms, r.terms)
    return NCPoly(p.params, {key: c.at_tau(tamper) for key, c in terms.items()})


def nf_commutator(p: NCPoly, r: NCPoly, tamper: float = 0.0) -> NCPoly:
    return nf_product(p, r, tamper) - nf_product(r, p, tamper)


def casimir_element(params: QParams) -> NCPoly:
    """Central element ``abar a - [N]`` with ``[N] = (s^2 - s^-2)/(q - 1/q)``."""
    return NCPoly(params, {(1, 1): ExactPoly.one(), (0, 0): _NUMBER_PART})


# ---------------------------------------------------------------------------
# the identity checks, normal-ordered exactly


class Defect(NamedTuple):
    """One named defect: every coefficient group must vanish."""

    name: str
    den: int  # the groups are over D**den
    groups: tuple[Group, ...]  # one per (abar power, a power, s power)


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
            _product_terms(a, abar_n),
            _product_terms(abar_n, a),
            {(n - 1, 0): _ladder_raise(n)},
        ))
        out.append(_defect(
            f"ladder_lower_sym_n{n}",
            _product_terms(abar, a_n),
            _product_terms(a_n, abar),
            {(0, n - 1): _ladder_lower(n)},
        ))
    central = {(1, 1): one, (0, 0): _NUMBER_PART}
    for name, gen in (("a", a), ("abar", abar), ("s", {(0, 0): ExactPoly({(1, 0, 0): 1})})):
        out.append(_defect(
            f"casimir_central_{name}", _product_terms(central, gen), _product_terms(gen, central)
        ))
    return tuple(out)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value drops its member below
def symbolic_block(params: Sequence[QParams], n_max: int = 8, tol: float = DEFAULT_SYMBOLIC_TOL,
                   tamper: float = 0.0) -> ReportBlock:
    """:func:`check_identities_symbolic` at each of ``params``, as one block.

    Each defect is evaluated once for every distinct ``q`` among the members,
    ``t**b`` as ``exp(log_q * b/2)``, and each member reads its ``q``'s row;
    a member with a non-finite value leaves with an ``OverflowError`` when the block is cut.
    """
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max={n_max} outside 1..{N_MAX_CAP}")
    defects = exact_defects(n_max)
    distinct: dict[complex, int] = {}  # log q -> its row
    rows = [distinct.setdefault(p.log_q, len(distinct)) for p in params]
    log_q = np.array(list(distinct))
    residuals = np.zeros((len(log_q), len(defects)))
    for c, d in enumerate(defects):
        # a group whose every tamper**u is 0 stays the scalar 0j, which cannot raise the max
        values = [v for v in _values(d.groups, d.den, lambda b: np.exp(log_q * (b / 2)), tamper)
                  if isinstance(v, np.ndarray)]
        if values:
            residuals[:, c] = np.abs(values).max(axis=0)  # a NaN propagates
    residuals = residuals[rows]
    return cut(tuple(d.name for d in defects), residuals, tol, finite_members(residuals))


def check_identities_symbolic(
    params: QParams,
    n_max: int = 8,
    tol: float = DEFAULT_SYMBOLIC_TOL,
    tamper: float = 0.0,
) -> list[CheckReport]:
    """Per-n reordering identities and centrality of the Casimir element.

    Each defect is a normal-ordered polynomial whose coefficients must all
    vanish; residuals are absolute max coefficients.  The defects are
    normal-ordered exactly (:func:`exact_defects`) and evaluated at ``t = q**(1/2)``
    and ``tamper`` as row 0 of a one-member :func:`symbolic_block`: untampered,
    every residual is exactly 0.  A non-finite ``tamper`` raises ``ValueError``.
    """
    return symbolic_block([params], n_max, tol, tamper).reports(0)


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
        coeffs = _s_coeffs(c, rep.params).items()
        acc += np.diag([sum(v * s**e for e, v in coeffs) for s in svals]) @ abar_pows[i] @ a_pows[j]
    return acc


def check_evaluation_homomorphism(p: NCPoly, r: NCPoly, rep: Rep,
                                  tol: float = 1e-11) -> CheckReport:
    """Evaluation respects products: E(p*r) = E(p) @ E(r)."""
    left = evaluate(nf_product(p, r), rep)
    ep, er = evaluate(p, rep), evaluate(r, rep)
    return report("evaluation_homomorphism", residual_of(left - ep @ er, ep, er), tol)
