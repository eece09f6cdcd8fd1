"""Numeric checks of the defining relations on a matrix representation.

:func:`check_defining_relations`, :func:`casimir` and
:func:`check_ladder_identities` take either one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` of
representations of one mode and any ``k``.  A batch is evaluated in one
pass: every operand carries a leading batch axis, zero-padded to the largest
block, and residuals are maxima over every axis but that one.  An operand is
the weights of a weighted shift (:attr:`~qosc.repbuild.RepBatch.weights`), and
a product of two is a product of weights (:func:`~qosc.repbuild.shift`), left
factor first, as a matrix product multiplies.  The scalar
data (bracket steps, deformed numbers, ladder coefficients) are indexed
arithmetic on the batch's :class:`~qosc.qcore.PowerTable`, at each
member's own ``k`` and with no transcendental function, and are set to 0
past a member's block.  So a member's residuals are bit for bit those of
the single-rep call, and a ladder member reports the orders up to its own
depth (:attr:`ReportBlock.widths`).

The batch contract is shared by every check family (the Hopf and star
checks of :mod:`qosc.hopfstar`, the spin map of :mod:`qosc.sumap`), and so
is its one drop rule: every check evaluates every member, and a member with
a non-finite scalar (:func:`finite_members`), or one the spin map rejects,
leaves only when the block is cut (:func:`cut`, the one block constructor
every check calls, directly or through :meth:`Arms.block`).
Every arm is ``(defect, lhs, rhs)``, with one or both operands absent, and
one rule gives its residual, ``|defect| / max(1, |lhs| |rhs|)`` in
max-norms, for :func:`residual_of`, :class:`Arms` and the compiled hopf and
star plans alike.  A batch gives one :class:`ReportBlock` per check: the
report names, shared by every member, a ``(members, names)`` array of
residuals, and the error that dropped each other member; :func:`casimir`
wraps its block in a :class:`CasimirBlock`.  :class:`CheckReport` objects are built from a block only on request
(:meth:`ReportBlock.reports`); a single rep is the batch of one, and its
call returns its reports or raises its error.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateParameter
from .qcore import Mode, PowerTable, QParams, _by_s_power, _ladder_factors, _lowered, _values
from .repbuild import Rep, RepBatch, blank, norm_factors, shift

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


def _relative(norms: np.ndarray) -> np.ndarray:
    """``defect / max(1, lhs * rhs)`` in float arithmetic, over the last axis of the max-norms
    ``(defect, lhs, rhs)`` of arms; an absent operand reads ``1.0``, and ``1.0 * x == x``."""
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, which never warns
        # fmax(1, nan) == max(1.0, nan) == 1
        return norms[..., 0] / np.fmax(1.0, norms[..., 1] * norms[..., 2])


def residual_of(defect: np.ndarray, lhs: Optional[np.ndarray] = None,
                rhs: Optional[np.ndarray] = None) -> float:
    """Max-abs of the defect relative to ``max(1, product of operand max-norms)``."""
    norms = [1.0 if m is None else np.abs(m).max(initial=0.0) for m in (defect, lhs, rhs)]
    return float(_relative(np.array(norms)))


def _columns(arms: Sequence[tuple[str, tuple]]) -> np.ndarray:
    """Per arm ``(name, (defect, *operands))``, the columns of its operands, -1 if absent."""
    sizes = [len(term) for _, term in arms]
    return np.array([(*range(at, at + n), *(-1,) * (3 - n))
                     for at, n in zip(itertools.accumulate(sizes, initial=0), sizes)])


def _arm_residuals(maxima: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Per member, every arm's residual from the ``(members, operands)`` max-norms
    of its operands, placed by :func:`_columns`."""
    padded = np.concatenate((maxima, np.ones((len(maxima), 1))), axis=1)  # column -1 reads 1.0
    return _relative(padded[:, columns])


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
    error that dropped each other member.  Report ``c`` of a member passes
    iff its residual is below ``tol``.  Where ``widths`` is given, row ``j``
    reports only its first ``widths[j]`` names and reads 0 under the others.
    """

    names: tuple[str, ...]
    alive: tuple[int, ...]
    residuals: np.ndarray
    tol: float
    errors: dict[int, MemberError]
    widths: Optional[tuple[int, ...]] = field(default=None, kw_only=True)

    def reports(self, member: int) -> list[CheckReport]:
        """The reports of batch member ``member``; raises the error that dropped it."""
        if member in self.errors:
            raise self.errors[member]
        j = self.alive.index(member)
        width = len(self.names) if self.widths is None else self.widths[j]
        return [report(name, residual, self.tol)
                for name, residual in zip(self.names[:width], self.residuals[j, :width].tolist())]


@dataclass(frozen=True, eq=False)
class CasimirBlock(ReportBlock):
    """A :func:`casimir` block with each member's Casimir matrix and scalar; its
    ``casimir_scalar`` report names the scalar in its detail."""

    matrices: tuple[np.ndarray, ...]
    scalars: tuple[complex, ...]

    def reports(self, member: int) -> list[CheckReport]:
        two_forms, scalar = super().reports(member)
        return [two_forms, report(scalar.name, scalar.residual, self.tol,
                                  f"scalar={self.scalars[member]!r}")]

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
        widths: Optional[Sequence[int]] = None) -> ReportBlock:
    """The block of every member's row of ``residuals``, less the rows of members in ``errors``.

    ``widths`` (if given) holds the number of names each member reports; its
    row's other residuals are set to 0.  Every check ends in this cut, the
    only place a member leaves a check.
    """
    keep = [i for i in range(len(residuals)) if i not in errors]
    if widths is not None:
        residuals[np.arange(len(names)) >= np.asarray(widths)[:, None]] = 0.0
        widths = tuple(int(widths[i]) for i in keep)
    return ReportBlock(names, tuple(keep), residuals[keep], float(tol), errors, widths=widths)


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


class Arms:
    """The named arms of one batched check, reduced to one block in one pass.

    An arm is ``(defect, lhs, rhs)``, with one or both operands absent, and
    row ``i`` of every ``(count, ...)`` operand, of one shape, belongs to batch member
    ``i``, of ``count``.  The max-norms of all operands are taken in one
    pass, over every axis but the batch axis, and an arm's residual is
    :func:`residual_of`'s ``defect / max(1, lhs * rhs)`` in float
    arithmetic, for every row at once: each member sees exactly the scalar
    operations of a single-rep :func:`residual_of`.  :meth:`block` hands the
    residuals to :func:`cut`, so an arm carries a name and a residual only.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self._arms: list[tuple[str, tuple]] = []  # name and (defect, *operands) of each arm

    def add(self, name: str, defect: np.ndarray, lhs: Optional[np.ndarray] = None,
            rhs: Optional[np.ndarray] = None) -> None:
        """An arm ``(defect, lhs, rhs)``."""
        self._arms.append((name, tuple(m for m in (defect, lhs, rhs) if m is not None)))

    def compare(self, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self.add(name, lhs - rhs, lhs, rhs)

    def _residuals(self) -> np.ndarray:
        """Per row, the residual of every arm."""
        operands = [op for _, term in self._arms for op in term]
        maxima = np.abs(np.concatenate(operands)).reshape(len(operands), self.count, -1).max(axis=2)
        return _arm_residuals(maxima.T, _columns(self._arms))

    def block(self, tol: float, errors: dict[int, MemberError],
              widths: Optional[Sequence[int]] = None) -> ReportBlock:
        """The arms' block, with the rows of members in ``errors`` :func:`cut`."""
        names = tuple(name for name, _ in self._arms)
        return cut(names, self._residuals(), tol, errors, widths)


# ---------------------------------------------------------------------------
# the checks


def _interior(defect: np.ndarray, reps: Sequence[Rep]) -> np.ndarray:
    """Zero the weights of the boundary columns of the window reps, where truncation bites."""
    windows = [j for j, rep in enumerate(reps) if not rep.normalized]
    if not windows:
        return defect
    trimmed = defect.copy()
    for j in windows:
        trimmed[j, [0, reps[j].dim - 1]] = 0.0
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
    steps = blank(batch.powers.step(4 * np.arange(batch.dim)), batch.groups)
    A, Abar, N = batch.weights
    arms = Arms(len(batch.reps))
    arms.add("rel_commutator", _interior(
        (shift(A, 1) * Abar - shift(Abar, -1) * A) - steps, batch.reps), A, Abar)
    arms.add("rel_number_raise", (shift(N, 1) * Abar - Abar * N) - Abar, N, Abar)
    arms.add("rel_number_lower", (shift(N, -1) * A - A * N) + A, N, A)
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
    high = blank(numbers[:, 1:].copy(), batch.groups)
    low = blank(numbers[:, :-1], batch.groups)
    A, Abar, _ = batch.weights
    c_low = shift(Abar, -1) * A - low  # Abar a - [N]
    c_high = shift(A, 1) * Abar - high  # a Abar - [N+1]
    scalars = [complex(c_low[i, 1] if not rep.normalized and rep.dim > 1 else c_low[i, 0])
               for i, rep in enumerate(batch.reps)]
    scalar_defect = c_low - np.array(scalars)[:, None] * batch.one
    arms = Arms(len(batch.reps))
    arms.add("casimir_two_forms", _interior(c_low - c_high, batch.reps), A, Abar)
    arms.add("casimir_scalar", _interior(scalar_defect, batch.reps), c_low)
    matrices = tuple(np.diag(c_low[i, :rep.dim]) for i, rep in enumerate(batch.reps))
    block = CasimirBlock(**vars(arms.block(tol, finite_members(low, high))), matrices=matrices,
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
    reps: Union[Rep, RepBatch], n_max: Union[int, Sequence[int]], tol: float = DEFAULT_TOL
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
    gives one block, as :func:`check_defining_relations` does; ``n_max`` is
    one depth for every member or one per member, and a member reports the
    orders up to its own.  A member's error is the first one its single-rep
    call would raise, order by order.
    """
    batch = as_batch(reps)
    count, d = len(batch.reps), batch.dim
    depths = np.broadcast_to(np.asarray(n_max), (count,))
    limits = np.broadcast_to(batch.ks, (count,)) + 1
    outside = np.flatnonzero((depths < 1) | (depths > limits))
    if len(outside):
        i = outside[0]
        raise ValueError(f"n_max={depths[i]} outside 1..k+1 = 1..{limits[i]}")
    top, low = int(depths.max()), int(depths.min())
    groups = batch.groups
    errors: dict[int, MemberError] = {}
    A, Abar, _ = batch.weights
    arms = Arms(count)
    raise_pow = lower_pow = batch.one  # Abar^(n-1), A^(n-1)
    brackets, raising, lowering = ladder_factors(batch.powers, d, top)
    blank(raising.swapaxes(0, 1), groups), blank(lowering.swapaxes(0, 1), groups)  # orders first
    idle = np.zeros(count, dtype=bool)  # the members past their own depth
    for n in range(1, top + 1):
        bracket, up, down = brackets[:, n - 1, None], raising[:, n - 1], lowering[:, n - 1]
        if n > low:  # a member past its own depth reads 0 at this order
            idle = depths < n
            for values in (bracket, up, down):
                values[idle] = 0.0
        errors = finite_members(bracket, up, down, errors=errors)
        c_raise, c_lower = bracket * up, bracket * down
        raise_n = shift(raise_pow, 1) * Abar  # Abar^n, of degree n
        lower_n = shift(lower_pow, -1) * A  # A^n, of degree -n
        d_raise = ((shift(A, n) * raise_n - shift(raise_n, -1) * A)
                   - shift(c_raise, n - 1) * raise_pow)
        d_lower = ((shift(Abar, -n) * lower_n - shift(lower_n, 1) * Abar)
                   - shift(c_lower, 1 - n) * lower_pow)
        # a power with a non-finite entry makes its defect non-finite too; a non-finite
        # coefficient drops its member even at a state its power never reaches
        finite = np.isfinite(np.hstack((d_raise, d_lower, c_raise, c_lower))).all(axis=1)
        for i in np.flatnonzero(~(finite | idle)).tolist():
            errors.setdefault(
                i, OverflowError(f"ladder powers of order {n} leave the double range"))
        arms.add(f"ladder_raise_n{n}", d_raise, A, raise_n)
        arms.add(f"ladder_lower_n{n}", d_lower, Abar, lower_n)
        raise_pow, lower_pow = raise_n, lower_n
    widths = None if low == top else 2 * depths
    return unbatch(reps, arms.block(tol, errors, widths=widths))


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
