"""Numeric checks of the defining relations on a matrix representation.

:func:`check_defining_relations`, :func:`casimir` and
:func:`check_ladder_identities` take either one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` of
representations that share ``k`` and the mode.  A batch is evaluated in one
pass: every matrix carries a leading batch axis, and residuals are maxima
over every axis but that one.  The scalar data (bracket steps, deformed
numbers, ladder coefficients) are indexed arithmetic on the batch's
:class:`~qosc.qcore.PowerTable`, with no transcendental function, so a
member's residuals are bit for bit those of the single-rep call.

The batch contract is shared by every check family (the Hopf and star
checks of :mod:`qosc.hopfstar`, the spin map of :mod:`qosc.sumap`), and so
is its one drop rule: every check evaluates every member, and a member with
a non-finite scalar (:func:`finite_members`), or one the spin map rejects,
leaves only when the block is cut (:func:`cut`, which :meth:`Arms.block`
and :func:`~qosc.normform.symbolic_block` call).
:class:`Arms` takes the max-norms of all of a check's operands in one pass
and computes each residual with :func:`residual_of`'s formula.  A batch
gives one :class:`ReportBlock` per check: the report names, shared by every
member, a ``(members, names)`` array of residuals, and the error that
dropped each other member.  :class:`CheckReport` objects are built from a
block only on request (:meth:`ReportBlock.reports`); a single rep is the
batch of one, and its call returns its reports or raises its error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateParameter
from .qcore import Mode, PowerTable, QParams, _by_s_power, _ladder_factors, _lowered, _values
from .repbuild import Rep, RepBatch, norm_factors

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; ``passed`` iff ``residual < tolerance``."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str | None = None


def report(name: str, residual: float, tol: float, detail: str | None = None) -> CheckReport:
    return CheckReport(
        name=name, residual=float(residual), tolerance=float(tol),
        passed=bool(residual < tol), detail=detail,
    )


def _maxabs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if m.size else 0.0  # method form: no np.max dispatch


def _relative(norms: np.ndarray, first: Sequence[int],
              gathers: Sequence[Sequence[int]]) -> np.ndarray:
    """Per row of ``norms`` and per term, ``defect / max(1, product of operand norms)``.

    Term ``t`` has its defect's max-norm in column ``first[t]``; ``gathers[o][t]``
    is the column of its operand ``o``, or ``-1`` past its last operand.  The
    arithmetic is float arithmetic, in operand order.
    """
    # a column of ones pads every term to the most operands: x * 1.0 == x
    padded = np.concatenate((norms, np.ones((len(norms), 1))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, which never warns
        scale = np.ones((len(norms), len(first)))
        for gather in gathers:
            scale = scale * padded[:, gather]
        return padded[:, first] / np.fmax(1.0, scale)  # fmax(1, nan) == max(1.0, nan)


def residual_of(defect: np.ndarray, *operands: np.ndarray) -> float:
    """Max-abs of the defect relative to ``max(1, prod of operand max-norms)``."""
    norms = np.array([[_maxabs(m) for m in (defect, *operands)]])
    return float(_relative(norms, [0], [[j] for j in range(1, 1 + len(operands))])[0, 0])


def compare(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckReport:
    return report(name, residual_of(lhs - rhs, lhs, rhs), tol)


# ---------------------------------------------------------------------------
# the batch contract

#: why a batched check dropped a member
MemberError = Union[OverflowError, DegenerateParameter]


@dataclass(frozen=True, eq=False)
class ReportBlock:
    """The reports of one batched check, as columns.

    ``names`` is shared by every member.  Row ``j`` of ``residuals`` holds
    member ``alive[j]``'s residual under each name; ``errors`` holds the
    error that dropped each other member, and ``details`` one detail per row
    for the columns that carry one.  Report ``c`` of a member passes iff its
    residual is below ``tol``.
    """

    names: tuple[str, ...]
    alive: tuple[int, ...]
    residuals: np.ndarray
    tol: float
    errors: dict[int, MemberError]
    details: dict[int, tuple[str, ...]]

    def reports(self, member: int) -> list[CheckReport]:
        """The reports of batch member ``member``; raises the error that dropped it."""
        if member in self.errors:
            raise self.errors[member]
        j = self.alive.index(member)
        return [
            report(name, residual, self.tol, self.details[c][j] if c in self.details else None)
            for c, (name, residual) in enumerate(zip(self.names, self.residuals[j].tolist()))
        ]


@dataclass(frozen=True, eq=False)
class CasimirBlock(ReportBlock):
    """A :func:`casimir` block with each member's Casimir matrix and scalar."""

    matrices: np.ndarray
    scalars: tuple[complex, ...]

    def result(self, member: int) -> CasimirResult:
        """The result of batch member ``member``; raises the error that dropped it."""
        reports = tuple(self.reports(member))
        return CasimirResult(matrix=self.matrices[member], scalar=self.scalars[member],
                             reports=reports)


def as_batch(reps: Union[Rep, RepBatch]) -> RepBatch:
    return reps if isinstance(reps, RepBatch) else RepBatch((reps,))


def unbatch(reps: Union[Rep, RepBatch], block: ReportBlock):
    """A batch's block as it is; a single rep's reports, or its error raised."""
    return block if isinstance(reps, RepBatch) else block.reports(0)


def cut(names: tuple[str, ...], residuals: np.ndarray, tol: float, errors: dict[int, MemberError],
        details: dict[int, Sequence[str]], kind: type = ReportBlock, **extra: Any) -> ReportBlock:
    """The block of every member's row of ``residuals``, less the rows of members in ``errors``.

    ``details`` holds one detail per member for the columns that carry one.
    This cut is the only place a member leaves a check.
    """
    keep = [i for i in range(len(residuals)) if i not in errors]
    details = {c: tuple(rows[i] for i in keep) for c, rows in details.items()}
    return kind(names, tuple(keep), residuals[keep], float(tol), errors, details, **extra)


def finite_members(*scalars: np.ndarray, errors: Optional[dict[int, MemberError]] = None
                   ) -> dict[int, MemberError]:
    """The errors of the members whose ``scalars`` (one row per member) are not all finite.

    Such a member gets an ``OverflowError``, as ``cmath`` raises one;
    members in ``errors`` keep the error given there.
    """
    errors = dict(errors) if errors else {}
    if not all(np.isfinite(values).all() for values in scalars):
        finite = np.ones(len(scalars[0]), dtype=bool)
        for values in scalars:
            finite &= np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        for i in np.flatnonzero(~finite).tolist():
            errors.setdefault(i, OverflowError("math range error"))
    return errors


def diag_stack(w: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices with the rows of ``w`` on their diagonals."""
    b, d = w.shape
    out = np.zeros((b, d, d), dtype=complex)
    out.reshape(b, d * d)[:, :: d + 1] = w
    return out


def max_rule(values: np.ndarray) -> np.ndarray:
    """Per row, Python's ``max`` of the columns in order: a leading NaN wins, a later one loses.

    ``fmax`` skips NaNs and equal values are equal bits (no residual is
    ``-0.0``), so only a leading NaN needs putting back.
    """
    return np.where(np.isnan(values[:, 0]), values[:, 0], np.fmax.reduce(values, axis=1))


class _Layout:
    """Where every term of a check's arms sits among its operand columns.

    Operand ``o`` spans the columns from ``starts[o]`` to the next start, and
    ``width(op)`` counts an operand's columns: its entries for :class:`Arms`,
    its blocks for a compiled plan.  Term ``t`` has its defect in operand
    ``first[t]`` and its other operands where :func:`_relative`'s ``gathers``
    point; arm ``a`` has the terms ``arm_terms[a]``.
    """

    def __init__(self, arms: Sequence[tuple[str, tuple]], width: Callable[[Any], int]) -> None:
        starts: list[int] = []
        first: list[int] = []
        size: list[int] = []
        self.width = 0
        self.arm_terms: list[range] = []
        for _, terms in arms:
            for term in terms:
                first.append(len(starts))
                size.append(len(term))
                for op in term:
                    starts.append(self.width)
                    self.width += width(op)
            self.arm_terms.append(range(len(first) - len(terms), len(first)))
        self.names = tuple(name for name, _ in arms)
        self.starts = np.array(starts)
        self.first = np.array(first)
        sizes = np.array(size)
        self.gathers = [np.where(offset < sizes, self.first + offset, -1)
                        for offset in range(1, max(size))]
        self.one_term_each = len(first) == len(arms)

    def residuals(self, columns: np.ndarray) -> np.ndarray:
        """Per row of the operands' ``columns``, the residual of every arm."""
        norms = np.maximum.reduceat(columns, self.starts, axis=1)
        terms = _relative(norms, self.first, self.gathers)
        if self.one_term_each:
            return terms
        return np.stack([max_rule(terms[:, given]) for given in self.arm_terms], axis=1)


def _entries(op: Any) -> int:
    """The entries of an operand past its batch axis: a dense stack, or a dict of blocks."""
    return sum(math.prod(block.shape[1:]) for block in
               (op.values() if isinstance(op, dict) else (op,)))


#: every check's layout, by the key its :class:`Arms` carry
_LAYOUTS: dict[tuple, _Layout] = {}


class Arms:
    """The named arms of one batched check, reduced to one block in one pass.

    Row ``i`` of every operand belongs to batch member ``i``, of ``count``.  An
    operand is a dense stack or a graded operator, a dict of blocks that
    never overlap, so their maxima suffice.  The max-norms of all operands
    are taken in one pass, over every axis but the batch axis, and a term's
    residual is :func:`residual_of`'s ``defect / max(1, product of operand
    norms)`` in float arithmetic, for every row at once: each member sees
    exactly the scalar operations of a single-rep :func:`residual_of`.  An
    arm of several terms reports the largest of their residuals, in term
    order by :func:`max_rule`.

    ``key`` names the check and every size its operands depend on (mode, k,
    flavor, depth): the term layout is worked out once per key.
    """

    def __init__(self, count: int, key: tuple) -> None:
        self.count = count
        self.key = key
        self._arms: list[tuple[str, tuple]] = []  # name and terms of each arm
        self._details: dict[int, Sequence[str]] = {}

    def add(self, name: str, *terms: tuple, details: Optional[Sequence[str]] = None) -> None:
        """An arm of terms ``(defect, *operands)``; ``details`` holds one detail per member."""
        if details is not None:
            self._details[len(self._arms)] = details
        self._arms.append((name, terms))

    def compare(self, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self.add(name, (lhs - rhs, lhs, rhs))

    def _residuals(self, layout: _Layout) -> np.ndarray:
        """Per row, the residual of every arm."""
        flat = np.abs(np.concatenate(
            [block.reshape(self.count, -1) for _, terms in self._arms for term in terms
             for op in term for block in (op.values() if isinstance(op, dict) else (op,))],
            axis=1))
        if flat.shape[1] != layout.width:
            raise RuntimeError(f"the operands of {self.key} changed their layout")
        return layout.residuals(flat)

    def block(self, tol: float, errors: dict[int, MemberError], label: Optional[str] = None,
              kind: type = ReportBlock, **extra: Any) -> ReportBlock:
        """The arms' block, with the rows of members in ``errors`` :func:`cut`;
        ``label.`` prefixes names."""
        layout = _LAYOUTS.get(self.key)
        if layout is None:
            layout = _LAYOUTS[self.key] = _Layout(self._arms, _entries)
        names = layout.names if label is None else tuple(f"{label}.{n}" for n in layout.names)
        return cut(names, self._residuals(layout), tol, errors, self._details, kind, **extra)


# ---------------------------------------------------------------------------
# the checks


def _interior(defect: np.ndarray, reps: Sequence[Rep]) -> np.ndarray:
    """Zero the boundary columns of the window reps, where truncation bites."""
    windows = [j for j, rep in enumerate(reps) if not rep.normalized]
    if not windows:
        return defect
    trimmed = defect.copy()
    trimmed[windows, :, 0] = 0.0
    trimmed[windows, :, -1] = 0.0
    return trimmed


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step drops its member below
def check_defining_relations(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Commutators of the ladder pair and the number operator.

    For generic windows only the interior columns are checked; the two
    boundary columns carry the truncation artifact by construction.  A
    :class:`~qosc.repbuild.RepBatch` gives one :class:`ReportBlock`, which
    drops a member with the ``OverflowError`` its scalar data raised.  A
    single rep gives its reports and raises its overflow.
    """
    batch = as_batch(reps)
    steps = batch.powers.step(4 * np.arange(batch.dim))
    A, Abar, N = batch.A, batch.Abar, batch.Nmat
    arms = Arms(len(batch.reps), ("algebra", batch.mode, batch.k))
    arms.add("rel_commutator",
             (_interior((A @ Abar - Abar @ A) - diag_stack(steps), batch.reps), A, Abar))
    arms.add("rel_number_raise", ((N @ Abar - Abar @ N) - Abar, N, Abar))
    arms.add("rel_number_lower", ((N @ A - A @ N) + A, N, A))
    return unbatch(reps, arms.block(tol, finite_members(steps)))


@dataclass(frozen=True)
class CasimirResult:
    matrix: np.ndarray
    scalar: complex
    reports: tuple[CheckReport, ...]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite number drops its member below
def casimir(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[CasimirResult, CasimirBlock]:
    """Central element ``abar*a - [N]``; scalar on an irreducible block.

    Reports: agreement of the two equivalent forms, and deviation from the
    scalar.  For truncated reps the scalar is ``-[nu0]``.  A
    :class:`~qosc.repbuild.RepBatch` gives one :class:`CasimirBlock`, which
    also holds each member's matrix and scalar; a single rep gives its
    :class:`CasimirResult`.  Overflows drop members as in
    :func:`check_defining_relations`.
    """
    batch = as_batch(reps)
    numbers = batch.powers.number(4 * np.arange(batch.dim + 1), spectral=True)  # [N], [N+1]
    c_low = batch.Abar @ batch.A - diag_stack(numbers[:, :-1])
    c_high = batch.A @ batch.Abar - diag_stack(numbers[:, 1:])
    scalars = [
        complex(c_low[i, 1, 1] if not rep.normalized and rep.dim > 1 else c_low[i, 0, 0])
        for i, rep in enumerate(batch.reps)
    ]
    scalar_defect = c_low - np.array(scalars)[:, None, None] * np.eye(batch.dim)
    arms = Arms(len(batch.reps), ("casimir", batch.mode, batch.k))
    arms.add("casimir_two_forms", (_interior(c_low - c_high, batch.reps), batch.A, batch.Abar))
    arms.add("casimir_scalar", (_interior(scalar_defect, batch.reps), c_low),
             details=[f"scalar={scalar!r}" for scalar in scalars])
    block = arms.block(tol, finite_members(numbers), kind=CasimirBlock, matrices=c_low,
                       scalars=tuple(scalars))
    return block if isinstance(reps, RepBatch) else block.result(0)


def casimir_scalar_closed_form(params: QParams, k: int) -> complex:
    """Unimodular closed form ``-(-1)**l * cos(eps*(k+1)/2) / sin(eps)``."""
    if params.mode is not Mode.UNIMODULAR:
        raise ValueError("closed form applies to the unimodular mode only")
    eps = params.epsilon
    return complex(
        -((-1.0) ** params.l) * math.cos(eps * (k + 1) / 2.0) / math.sin(eps), 0.0
    )


def ladder_factors(pw: PowerTable, d: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of the ladder coefficients of orders 1..n_max, one row per member of ``pw``.

    The t-only brackets ``(rows, n_max)``, read from the offsets
    ``t**b - 1``, and the raising and lowering factors in ``s`` on the
    spectrum ``s = q**(N/2)`` of the ``d`` states ``(rows, n_max, d)``,
    where ``t**b s**(2*sign) = q**(sign * N + b/2)``.
    """
    (bracket, den), raising, lowering = _ladder_groups(n_max)
    (value,) = _values(bracket.values(), den, lambda b: pw.offset(2 * np.atleast_1d(b)), 0.0,
                       offset=True)
    n4 = 4 * np.arange(d)

    def on_spectrum(groups: dict) -> np.ndarray:
        return sum(
            _values([group], 0, lambda b, sign=a // 2: pw.nu(n4 + 2 * sign * b[:, None], sign),
                    0.0)[0]
            for a, group in groups.items())

    return value, on_spectrum(raising), on_spectrum(lowering)


@functools.cache
def _ladder_groups(n_max: int) -> tuple[tuple[dict, int], dict, dict]:
    """The polynomials of :func:`ladder_factors` by power of ``s``, with the bracket's ``den``.

    The orders differ only in their exponents of ``t``, so each term holds
    its exponents for orders 1..n_max as one array, and one evaluation
    serves every order (per order, it costs ~0.1 ms of numpy calls).
    """
    def stacked(polys) -> dict:
        orders = [_by_s_power(p.num) for p in polys]
        return {a: tuple((np.array([o[a][i][0] for o in orders]), u, c)
                         for i, (_, u, c) in enumerate(terms)) for a, terms in orders[0].items()}

    factors = [_ladder_factors(n) for n in range(1, n_max + 1)]
    brackets, shapes = zip(*factors)
    lowered = [_lowered(shape, n) for n, shape in enumerate(shapes, 1)]
    return (stacked(brackets), brackets[0].den), stacked(shapes), stacked(lowered)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite factor drops its member below
def check_ladder_identities(
    reps: Union[Rep, RepBatch], n_max: int, tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Reordering identities for powers of the ladder operators.

    For each n, ``a*abar^n - abar^n*a = c_n(s) * abar^(n-1)`` and
    ``abar*a^n - a^n*abar = c'_n(s) * a^(n-1)`` on the spectrum of
    ``s = q**(N/2)``, with the coefficients
    :func:`~qosc.qcore._ladder_raise` and :func:`~qosc.qcore._ladder_lower`
    that the symbolic identities normal-order.  Each is evaluated as the
    product of its two factors (:func:`ladder_factors`): the bracket, read
    from the offsets ``t**b - 1`` so that its numerator and ``q - 1/q``
    keep their digits as ``q -> 1``, and the factor in ``s``, which
    vanishes exactly where the block truncates.  A coefficient or power outside the double
    range raises ``OverflowError``; ``n_max`` outside ``1..k+1`` raises
    ``ValueError``.  A :class:`~qosc.repbuild.RepBatch`
    gives one block, as :func:`check_defining_relations` does; a member's
    error is the first one its single-rep call would raise, order by order.
    """
    batch = as_batch(reps)
    if not 1 <= n_max <= batch.k + 1:
        raise ValueError(f"n_max={n_max} outside 1..k+1 = 1..{batch.k + 1}")
    count, d = len(batch.reps), batch.dim
    errors: dict[int, MemberError] = {}
    A, Abar = batch.A, batch.Abar
    arms = Arms(count, ("ladder", batch.mode, batch.k, n_max))
    raise_pow = np.repeat(np.eye(d, dtype=complex)[None], count, axis=0)  # Abar^(n-1)
    lower_pow = raise_pow                                                 # A^(n-1)
    brackets, raising, lowering = ladder_factors(batch.powers, d, n_max)
    for n in range(1, n_max + 1):
        bracket, up, down = brackets[:, n - 1, None], raising[:, n - 1], lowering[:, n - 1]
        errors = finite_members(bracket, up, down, errors=errors)
        c_raise, c_lower = bracket * up, bracket * down
        raise_n = raise_pow @ Abar                  # Abar^n
        lower_n = lower_pow @ A                     # A^n
        d_raise = A @ raise_n - raise_n @ A - c_raise[:, :, None] * raise_pow
        d_lower = Abar @ lower_n - lower_n @ Abar - c_lower[:, :, None] * lower_pow
        # a power with a non-finite entry makes its defect non-finite too
        finite = np.isfinite(d_raise).all(axis=(1, 2)) & np.isfinite(d_lower).all(axis=(1, 2))
        for i in np.flatnonzero(~finite).tolist():
            errors.setdefault(
                i, OverflowError(f"ladder powers of order {n} leave the double range"))
        arms.add(f"ladder_raise_n{n}", (d_raise, A, raise_n))
        arms.add(f"ladder_lower_n{n}", (d_lower, Abar, lower_n))
        raise_pow, lower_pow = raise_n, lower_n
    return unbatch(reps, arms.block(tol, errors))


def norm_profile(params: QParams, k: int) -> tuple[list[float], CheckReport]:
    """Squared norms of the unnormalized ladder states, n = 0..k.

    Strictly positive exactly when the branch sign rule holds and the
    bracket products stay positive; the report flags any nonpositive entry.
    """
    profile = [1.0]
    for f in norm_factors(params, k):
        profile.append(profile[-1] * f)
    worst = min(profile)
    residual = 0.0 if worst > 0.0 else abs(worst) + 1.0
    return profile, report(
        "norm_positivity", residual, 1.0, detail=f"min={worst!r}"
    )
