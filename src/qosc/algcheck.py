"""Numeric checks of the defining relations on a matrix representation.

:func:`check_defining_relations`, :func:`casimir` and
:func:`check_ladder_identities` take either one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` of
representations that share ``k`` and the mode.  A batch is evaluated in one
pass: every matrix carries a leading batch axis, and residuals are maxima
over every axis but that one.  Each member's scalar data (bracket steps,
deformed numbers, ladder coefficients) still comes from the scalar
``cmath`` formulas, one member at a time, so a member's residuals are bit
for bit those of the single-rep call; an ``OverflowError`` there drops only
that member.  A single rep is the batch of one.

The batch contract is shared by every check family (the Hopf and star
checks of :mod:`qosc.hopfstar`, the spin map of :mod:`qosc.sumap`):
:class:`Arms` takes the max-norms of all of a check's operands in one pass
and computes each residual with :func:`residual_of`'s formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateParameter
from .qcore import Mode, QParams, bracket_step, qnum
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


def _relative(norms: np.ndarray, first: Sequence[int], size: Sequence[int]) -> np.ndarray:
    """Per row of ``norms`` and per term, ``defect / max(1, product of operand norms)``.

    Term ``t`` has its defect's max-norm in column ``first[t]`` and its
    operands' in the ``size[t] - 1`` columns after it.  The arithmetic is
    float arithmetic, in operand order.
    """
    first, size = np.asarray(first), np.asarray(size)
    # a column of ones pads every term to the most operands: x * 1.0 == x
    padded = np.concatenate((norms, np.ones((len(norms), 1))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, which never warns
        scale = np.ones((len(norms), len(first)))
        for offset in range(1, size.max()):
            scale = scale * padded[:, np.where(offset < size, first + offset, -1)]
        return padded[:, first] / np.fmax(1.0, scale)  # fmax(1, nan) == max(1.0, nan)


def residual_of(defect: np.ndarray, *operands: np.ndarray) -> float:
    """Max-abs of the defect relative to ``max(1, prod of operand max-norms)``."""
    norms = np.array([[_maxabs(m) for m in (defect, *operands)]])
    return float(_relative(norms, [0], [1 + len(operands)])[0, 0])


def compare(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckReport:
    return report(name, residual_of(lhs - rhs, lhs, rhs), tol)


# ---------------------------------------------------------------------------
# the batch contract

#: per-member outcome of a batched check: its reports, or the error that dropped it
MemberResult = Union[list[CheckReport], OverflowError, DegenerateParameter]


def as_batch(reps: Union[Rep, RepBatch]) -> RepBatch:
    return reps if isinstance(reps, RepBatch) else RepBatch((reps,))


def unbatch(reps: Union[Rep, RepBatch], results: list):
    """A batch's results as they are; a single rep's result, or its error raised."""
    if isinstance(reps, RepBatch):
        return results
    (result,) = results
    if isinstance(result, (OverflowError, DegenerateParameter)):
        raise result
    return result


def member_scalars(
    count: int, scalars: Callable[[int], Any], dropped: Optional[dict[int, Exception]] = None
) -> tuple[list, list[int], list]:
    """Each member's ``scalars(i)``; an ``OverflowError`` or ``DegenerateParameter`` drops it.

    Members in ``dropped`` keep the error given there.  Returns the result
    slots (the error, or ``None`` for a survivor), the surviving indices and
    their scalar data.
    """
    results: list = [None] * count
    alive: list[int] = []
    data: list = []
    for i in range(count):
        if dropped and i in dropped:
            results[i] = dropped[i]
            continue
        try:
            data.append(scalars(i))
        except (OverflowError, DegenerateParameter) as exc:
            results[i] = exc
            continue
        alive.append(i)
    return results, alive, data


def diag_stack(w: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices with the rows of ``w`` on their diagonals."""
    b, d = w.shape
    out = np.zeros((b, d, d), dtype=complex)
    out.reshape(b, d * d)[:, :: d + 1] = w
    return out


class Arms:
    """The named arms of one batched check, reported in one pass.

    Row ``j`` of every operand belongs to batch member ``rows[j]``.  An
    operand is a dense stack or a graded operator, a dict of blocks that
    never overlap, so their maxima suffice.  The max-norms of all operands
    are taken in one pass, over every axis but the batch axis, and a term's
    residual is :func:`residual_of`'s ``defect / max(1, product of operand
    norms)`` in float arithmetic, for every row at once: each member sees
    exactly the scalar operations of a single-rep :func:`residual_of`.  An
    arm of several terms reports the largest of their residuals.
    """

    def __init__(self, rows: Sequence[int]) -> None:
        self.rows = rows
        # name, one detail per row or None, and the indices of its terms, or
        # the residuals given per row
        self._arms: list[tuple[str, Optional[Sequence[str]], Union[range, Sequence[float]]]] = []
        self._first: list[int] = []  # per term, the number of its defect operand
        self._size: list[int] = []  # per term, its defect and operand count
        self._blocks: list[np.ndarray] = []  # every operand block, flattened to (B, -1)
        self._starts: list[int] = []  # first column of each operand
        self._width = 0

    def add(self, name: str, *terms: tuple, details: Optional[Sequence[str]] = None) -> None:
        """An arm of terms ``(defect, *operands)``; ``details`` holds one detail per row."""
        first = len(self._first)
        for term in terms:
            self._first.append(len(self._starts))
            self._size.append(len(term))
            for op in term:
                self._starts.append(self._width)
                for block in op.values() if isinstance(op, dict) else (op,):
                    self._blocks.append(block.reshape(len(block), -1))
                    self._width += self._blocks[-1].shape[1]
        self._arms.append((name, details, range(first, len(self._first))))

    def compare(self, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        self.add(name, (lhs - rhs, lhs, rhs))

    def absolute(self, name: str, residuals: Sequence[float]) -> None:
        """An arm whose residuals, one per row, are given."""
        self._arms.append((name, None, residuals))

    def _residuals(self) -> list[list[float]]:
        """Per row, the residual of every term."""
        if not self._first:
            return [[] for _ in self.rows]
        flat = np.abs(np.concatenate(self._blocks, axis=1))
        norms = np.maximum.reduceat(flat, self._starts, axis=1)
        return _relative(norms, self._first, self._size).tolist()

    def report(self, results: list, tol: float, label: Optional[str] = None) -> None:
        """Fill each row's empty slot of ``results`` with its reports, named ``label.name``."""
        names = [name if label is None else f"{label}.{name}" for name, _, _ in self._arms]
        for j, (i, row) in enumerate(zip(self.rows, self._residuals())):
            if results[i] is None:
                results[i] = [
                    report(
                        named,
                        given[j] if not isinstance(given, range)
                        else row[given[0]] if len(given) == 1 else max(row[t] for t in given),
                        tol,
                        None if details is None else details[j],
                    )
                    for named, (_, details, given) in zip(names, self._arms)
                ]


# ---------------------------------------------------------------------------
# the checks


def qnum_diag(rep: Rep, shift: float = 0.0) -> np.ndarray:
    """Diagonal matrix of deformed numbers of the number-operator spectrum."""
    return np.diag(_qnums(rep, shift))


def _qnums(rep: Rep, shift: float) -> list[complex]:
    return [qnum(v + shift, rep.params.log_q) for v in np.diag(rep.Nmat)]


def _interior(defect: np.ndarray, reps: Sequence[Rep]) -> np.ndarray:
    """Zero the boundary columns of the window reps, where truncation bites."""
    windows = [j for j, rep in enumerate(reps) if not rep.normalized]
    if not windows:
        return defect
    trimmed = defect.copy()
    trimmed[windows, :, 0] = 0.0
    trimmed[windows, :, -1] = 0.0
    return trimmed


def check_defining_relations(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], list[MemberResult]]:
    """Commutators of the ladder pair and the number operator.

    For generic windows only the interior columns are checked; the two
    boundary columns carry the truncation artifact by construction.  A
    :class:`~qosc.repbuild.RepBatch` gives one result per member, in order:
    its reports, or the ``OverflowError`` its scalar data raised.  A single
    rep gives its reports and raises its overflow.
    """
    batch = as_batch(reps)

    def scalars(i: int) -> list[complex]:
        rep = batch.reps[i]
        return [bracket_step(v, rep.params) for v in np.diag(rep.Nmat)]

    results, alive, steps = member_scalars(len(batch.reps), scalars)
    if not alive:
        return unbatch(reps, results)
    live = batch.subset(alive)
    A, Abar, N = live.A, live.Abar, live.Nmat
    step = diag_stack(np.array(steps, dtype=complex))
    arms = Arms(alive)
    arms.add("rel_commutator", (_interior((A @ Abar - Abar @ A) - step, live.reps), A, Abar))
    arms.add("rel_number_raise", ((N @ Abar - Abar @ N) - Abar, N, Abar))
    arms.add("rel_number_lower", ((N @ A - A @ N) + A, N, A))
    arms.report(results, tol)
    return unbatch(reps, results)


@dataclass(frozen=True)
class CasimirResult:
    matrix: np.ndarray
    scalar: complex
    reports: tuple[CheckReport, ...]


def casimir(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[CasimirResult, list[Union[CasimirResult, OverflowError]]]:
    """Central element ``abar*a - [N]``; scalar on an irreducible block.

    Reports: agreement of the two equivalent forms, and deviation from the
    scalar.  For truncated reps the scalar is ``-[nu0]``.  A
    :class:`~qosc.repbuild.RepBatch` gives one :class:`CasimirResult` or
    ``OverflowError`` per member, as :func:`check_defining_relations` does.
    """
    batch = as_batch(reps)
    results, alive, data = member_scalars(
        len(batch.reps), lambda i: (_qnums(batch.reps[i], 0.0), _qnums(batch.reps[i], 1.0)))
    if not alive:
        return unbatch(reps, results)
    live = batch.subset(alive)
    low, high = (diag_stack(np.array(side, dtype=complex)) for side in zip(*data))
    c_low = live.Abar @ live.A - low
    c_high = live.A @ live.Abar - high
    scalars = [
        complex(c_low[j, 1, 1] if not rep.normalized and rep.dim > 1 else c_low[j, 0, 0])
        for j, rep in enumerate(live.reps)
    ]
    eye = np.eye(live.dim)
    scalar_defect = c_low - np.array(scalars)[:, None, None] * eye
    arms = Arms(alive)
    arms.add("casimir_two_forms", (_interior(c_low - c_high, live.reps), live.A, live.Abar))
    arms.add("casimir_scalar", (_interior(scalar_defect, live.reps), c_low),
             details=[f"scalar={scalar!r}" for scalar in scalars])
    arms.report(results, tol)
    for j, i in enumerate(alive):
        results[i] = CasimirResult(matrix=c_low[j], scalar=scalars[j], reports=tuple(results[i]))
    return unbatch(reps, results)


def casimir_scalar_closed_form(params: QParams, k: int) -> complex:
    """Unimodular closed form ``-(-1)**l * cos(eps*(k+1)/2) / sin(eps)``."""
    if params.mode is not Mode.UNIMODULAR:
        raise ValueError("closed form applies to the unimodular mode only")
    eps = params.epsilon
    return complex(
        -((-1.0) ** params.l) * math.cos(eps * (k + 1) / 2.0) / math.sin(eps), 0.0
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow is detected and raised below
def check_ladder_identities(
    reps: Union[Rep, RepBatch], n_max: int, tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], list[MemberResult]]:
    """Reordering identities for powers of the ladder operators.

    For each n:  ``a*abar^n - abar^n*a = [n]' * G_n(N) * abar^(n-1)`` and
    ``abar*a^n - a^n*abar = -[n]' * H_n(N) * a^(n-1)``, where ``[.]'`` is
    the deformed number at base ``sqrt(q)`` and G, H are exponential
    functions of N.  A power or defect outside the double range raises
    ``OverflowError``, as the scalar formulas do.  A
    :class:`~qosc.repbuild.RepBatch` gives one result per member, as
    :func:`check_defining_relations` does; a member's error is the first one
    its single-rep call would raise.
    """
    batch = as_batch(reps)
    if n_max > batch.k + 1:
        raise ValueError(f"n_max={n_max} exceeds k+1={batch.k + 1}")
    count, d = len(batch.reps), batch.dim
    # per member and order: [n]', the diagonals of G_n and H_n; an overflow
    # in them stops the member at that order, before its matrices
    bran = np.zeros((count, n_max), dtype=complex)
    g = np.zeros((count, n_max, d), dtype=complex)
    h = np.zeros((count, n_max, d), dtype=complex)
    stops: dict[int, tuple[int, OverflowError]] = {}
    for i, rep in enumerate(batch.reps):
        p = rep.params
        half = p.log_q / 2.0
        nvals = np.diag(rep.Nmat)
        n = 1
        try:
            den = p.qpow(0.5) + p.qpow(-0.5)
            for n in range(1, n_max + 1):
                bran[i, n - 1] = qnum(n, half)
                g[i, n - 1] = [(p.qpow(v - n / 2.0 + 1.0) + p.qpow(-(v - n / 2.0 + 1.0))) / den
                               for v in nvals]
                h[i, n - 1] = [(p.qpow(v + n / 2.0) + p.qpow(-(v + n / 2.0))) / den
                               for v in nvals]
        except OverflowError as exc:
            stops[i] = (n, exc)
    results: list = [None] * count
    A, Abar = batch.A, batch.Abar
    arms = Arms(range(count))
    raise_pow = np.repeat(np.eye(d, dtype=complex)[None], count, axis=0)  # Abar^(n-1)
    lower_pow = raise_pow                                                 # A^(n-1)
    for n in range(1, n_max + 1):
        for i, (order, exc) in stops.items():
            if order == n and results[i] is None:
                results[i] = exc
        b = bran[:, n - 1, None, None]
        raise_n = raise_pow @ Abar                  # Abar^n
        lower_n = lower_pow @ A                     # A^n
        d_raise = A @ raise_n - raise_n @ A - b * (diag_stack(g[:, n - 1]) @ raise_pow)
        d_lower = Abar @ lower_n - lower_n @ Abar + b * (diag_stack(h[:, n - 1]) @ lower_pow)
        # a power with a non-finite entry makes its defect non-finite too
        finite = np.isfinite(d_raise).all(axis=(1, 2)) & np.isfinite(d_lower).all(axis=(1, 2))
        for i in np.flatnonzero(~finite).tolist():
            if results[i] is None:
                results[i] = OverflowError(f"ladder powers of order {n} leave the double range")
        arms.add(f"ladder_raise_n{n}", (d_raise, A, raise_n))
        arms.add(f"ladder_lower_n{n}", (d_lower, Abar, lower_n))
        raise_pow, lower_pow = raise_n, lower_n
    arms.report(results, tol)
    return unbatch(reps, results)


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
