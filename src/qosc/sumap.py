"""Rescaling of the truncated oscillator onto a deformed su(2) triple.

The (k+1)-dimensional block maps onto the spin-j block of su_Q(2) with
``j = k/2`` and ``Q = sqrt(q)``: the ladder pair is rescaled by a mode-
dependent square root and the number operator is shifted by ``gamma``.
The identification degenerates on the unit circle when ``eps`` approaches
a multiple of pi or an odd multiple of pi/2, so those loci are rejected.

:func:`check_su2` and :func:`check_equivalence` take one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` under the
batch contract of :mod:`qosc.algcheck`: the rescaled triples of all members
are stacked on a leading batch axis and checked in one pass, into one
:class:`~qosc.algcheck.ReportBlock` per check.  A triple is held as the
weights of ``Jp``, ``Jm`` and ``J0``, of degrees +1, -1 and 0, and multiplied
as in :mod:`qosc.algcheck` (:func:`~qosc.repbuild.shift`).  :func:`check_su2` reads its
deformed numbers from a :class:`~qosc.qcore.PowerTable` of a fourth root of ``Q``;
:func:`check_equivalence` compares the map with the closed-form spin-``j``
blocks of all members at once (:func:`_reference`), of which
:func:`su2_direct` is the one-row view.  So a member's residuals are bit for
bit those of the single-rep call.  The two checks share one spin map per
batch, and :func:`to_su2` is its row 0.  Every check evaluates every member,
and a member leaves only when the block is cut: one at a singular locus with
its ``DegenerateParameter``, one whose scalars or reference weights overflow
with its ``OverflowError``; a single rep gets its reports and raises them.
:func:`check_su2` also takes a :class:`SuTriple`, the batch of one triple.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algcheck import (
    DEFAULT_TOL,
    Arms,
    CheckReport,
    MemberError,
    ReportBlock,
    as_batch,
    cut,
    finite_members,
    max_rule,
    unbatch,
)
from .errors import DegenerateParameter
from .qcore import GUARD_BAND, Mode, PowerTable, QParams
from .repbuild import Group, Rep, RepBatch, _groups, _parity_factor, blank, require_parity
from .repbuild import shift, shift_weights


@dataclass(frozen=True)
class SuTriple:
    """Spin block: raising ``Jp``, lowering ``Jm``, diagonal ``J0``."""

    Jp: np.ndarray
    Jm: np.ndarray
    J0: np.ndarray
    Q: complex
    j: float

    @property
    def dim(self) -> int:
        return self.Jp.shape[0]


def _dense(weights: Sequence[np.ndarray], Q: complex, j: float) -> SuTriple:
    """The triple whose ``Jp``, ``Jm`` and ``J0`` have the given weights, of degrees +1, -1, 0."""
    return SuTriple(*(np.diag(w[max(0, -m):len(w) - max(0, m)], -m)  # entry (j + m, j) is w[j]
                      for w, m in zip(weights, (1, -1, 0))), Q=Q, j=j)


#: the bracket ``[x] = f(x * p) / f(p)`` at base ``Q`` as ``(p(Q), f)``: on the unit circle,
#: on the positive real axis and elsewhere (as :func:`~qosc.qcore.qnum` forms it).  ``x`` is
#: an integer, so on the first two the brackets are exactly real, which keeps the principal
#: square roots of negative products on a stable branch.
_BRANCHES = (
    (cmath.phase, np.sin),
    (lambda Q: math.log(Q.real), np.sinh),
    (cmath.log, lambda z: np.exp(z) - np.exp(-z)),
)


def _branch(Q: complex) -> int:
    """The index in :data:`_BRANCHES` of the first branch ``Q`` lies on."""
    return 0 if abs(abs(Q) - 1.0) < 1e-14 else 1 if abs(Q.imag) < 1e-14 and Q.real > 0.0 else 2


def _brackets(Q: Sequence[complex], x: np.ndarray) -> np.ndarray:
    """``[x]`` at base ``Q``, for ``x`` of shape ``(..., members, n)`` with one ``Q`` per
    member.  Only the branches some member lies on are evaluated."""
    branch = [_branch(q) for q in Q]
    values = np.empty(x.shape, dtype=complex)
    for b in set(branch):
        param, f = _BRANCHES[b]
        rows = [i for i, c in enumerate(branch) if c == b]
        p = np.array([param(Q[i]) for i in rows])[:, None]
        # a real p divides as a real: numpy's complex division rounds differently
        values[..., rows, :] = f(x[..., rows, :] * p) / f(p)
    return values


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the caller drops non-finite
def _reference(j: Union[float, np.ndarray], Q: Sequence[complex], D: int) -> np.ndarray:
    """The weights ``(3, members, D)`` of ``Jp``, ``Jm`` and ``J0`` of each member's spin-``j``
    block of su_Q(2) at its own ``Q``, 0 past its ``2j + 1`` states: on the basis
    ``m = -j .. j`` ascending, ``Jp|j,m> = sqrt([j-m][j+m+1]) |j,m+1>``,
    ``Jm|j,m> = sqrt([j+m][j-m+1]) |j,m-1>`` and ``J0|j,m> = m|j,m>``."""
    j = (np.zeros(len(Q)) + j)[:, None]  # one j per member, also from one shared j
    n = np.arange(D)  # the state of m = n - j
    m = -j + n
    pm = np.stack([j - m, j + m])
    b = _brackets(Q, np.concatenate([pm, pm[::-1] + 1]))  # [j-m], [j+m], [j+m+1], [j-m+1]
    last = np.rint(2 * j) - [[[1]], [[0]], [[0]]]  # the last state of Jp, Jm and J0
    refs = np.where(n <= last, np.concatenate([np.sqrt(b[:2] * b[2:]), m[None]]), 0)
    refs[1, :, 0] = 0  # Jm lowers no state past m = -j
    return refs


def su2_direct(j: float, Q: complex) -> SuTriple:
    """Reference spin-j block of su_Q(2) on basis m = -j .. j ascending: the one row of
    :func:`_reference`, made dense.  Raises ``ValueError`` unless ``j`` is a finite
    nonnegative half-integer, ``DegenerateParameter`` at ``Q = 0``, a non-finite ``Q`` or
    where the brackets divide by 0, and ``OverflowError`` where a weight is not finite."""
    if not math.isfinite(j) or abs(2 * j - round(2 * j)) > 1e-12 or round(2 * j) < 0:
        raise ValueError(f"j={j} is not a nonnegative half-integer")
    Q = complex(Q)
    param, f = _BRANCHES[_branch(Q)]
    if Q == 0 or not cmath.isfinite(Q) or f(param(Q)) == 0:
        raise DegenerateParameter(f"Q={Q} is not a base of deformed numbers")
    weights = _reference(j, [Q], round(2 * j) + 1)[:, 0]
    if not np.isfinite(weights).all():
        raise OverflowError(f"the spin-{j} block at Q={Q} leaves the double range")
    return _dense(weights, Q, j)


def _locus_distance(eps: float) -> float:
    """Distance to the nearest of ``p*pi`` and ``(2p+1)*pi/2``."""
    return min(
        abs(math.remainder(eps, math.pi)),
        abs(math.remainder(eps - math.pi / 2.0, math.pi)),
    )


def _rescaling(p: QParams) -> tuple[complex, complex]:
    """Factors of the raising and lowering generators under the spin map."""
    root = cmath.sqrt(complex(1.0 / _parity_factor(p.mode, p.epsilon, p.l)))
    if p.mode is Mode.UNIMODULAR:
        return root, root
    return root, -1j * root


@dataclass(frozen=True)
class _Triples:
    """The weights ``(members, D)`` of every member's triple at its spin ``k/2``, padded
    (:class:`~qosc.repbuild.RepBatch`); the error of each one the spin map rejects."""

    errors: dict[int, MemberError]
    Jp: np.ndarray
    Jm: np.ndarray
    J0: np.ndarray
    Q: list[complex]
    k: Union[int, np.ndarray]  # each member's k: an int when they share it
    groups: tuple[Group, ...]
    one: np.ndarray  # the weights of the members' identities

    @property
    def j(self) -> Union[float, np.ndarray]:
        return self.k / 2.0

    @functools.cached_property
    def powers(self) -> PowerTable:
        """Powers of a fourth root ``u`` of each ``Q``: every scalar read (``[2m]``,
        ``[m][m+1]``, ``[j][j+1]`` at base ``Q = u**4``) is the same for every fourth root."""
        return PowerTable.build([cmath.log(Q) / 4.0 for Q in self.Q], 4 * self.J0.shape[1])


def _triples(batch: RepBatch) -> _Triples:
    """The spin map of a batch; a member at a singular locus gets a ``DegenerateParameter``."""
    for rep in batch.reps:
        if not rep.normalized:
            raise ValueError("the spin map is defined for normalized truncated reps")
        require_parity(rep.params)
    errors: dict[int, MemberError] = {
        i: DegenerateParameter(
            f"epsilon={p.epsilon} inside guard band of a spin-map singular locus")
        for i, p in enumerate(batch.params)
        if p.mode is Mode.UNIMODULAR and _locus_distance(p.epsilon) < GUARD_BAND}
    params = batch.params
    factors = [_rescaling(p) for p in params]
    raising, lowering = (np.array([f[side] for f in factors], dtype=complex)[:, None]
                         for side in (0, 1))
    gamma = np.array([p.gamma for p in params], dtype=complex)[:, None]
    A, Abar, N = batch.weights
    return _Triples(errors, raising * Abar, lowering * A, N + gamma * batch.one,
                    [p.sqrt_q for p in params], batch.ks, batch.groups, batch.one)


def to_su2(rep: Rep) -> SuTriple:
    """Rescale a normalized truncated rep onto the spin-(k/2) block: row 0 of its spin map.

    Raises ``DegenerateParameter`` at the singular unimodular loci.
    """
    spins = _triples(RepBatch((rep,)))
    if spins.errors:
        raise spins.errors[0]
    return _dense((spins.Jp[0], spins.Jm[0], spins.J0[0]), spins.Q[0], spins.j)


def _spin_map(source: Union[SuTriple, Rep, RepBatch]) -> _Triples:
    """The stacked spin map of a source; a batch's map is built once, for both checks."""
    if isinstance(source, SuTriple):
        t, d = source, source.dim
        return _Triples({}, shift_weights("Jp", t.Jp[None], 1), shift_weights("Jm", t.Jm[None], -1),
                        shift_weights("J0", t.J0[None], 0), [complex(t.Q)], d - 1, _groups([d]),
                        np.ones((1, d), dtype=complex))
    return as_batch(source).derived(_triples)


def _su2_numbers(pw: PowerTable, d: Union[int, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[2m]`` and ``[m][m+1]`` at the states ``m = -j .. j`` and ``[j][j+1]``,
    at base ``Q = u**4`` for the ``u`` of each row of ``pw``.  ``d = 2j + 1`` is one
    dimension or one per row; a row's entries past its own ``d`` states are not its numbers."""
    k = d - 1
    m4 = 4 * np.arange(np.max(d))  # 4m + 2k
    with np.errstate(over="ignore", invalid="ignore"):
        return (pw.number(2 * m4, at=-4 * k),
                pw.number(m4, at=-2 * k) * pw.number(m4 + 4, at=-2 * k),
                pw.number(np.array([0]), at=2 * k) * pw.number(np.array([4]), at=2 * k))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite number drops its member below
def check_su2(
    t: Union[SuTriple, Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Deformed su(2) relations and the Casimir on a triple, or on the spin map of reps.

    The deformed numbers at base ``Q`` are read from the power table of a
    fourth root of ``Q`` (:meth:`~qosc.qcore.PowerTable.number`) at the
    states ``m = -j .. j``.  A
    :class:`~qosc.repbuild.RepBatch` gives one
    :class:`~qosc.algcheck.ReportBlock`, which drops a member with the error
    that stopped it.  A triple or a single rep gives its reports and raises
    its error.
    """
    spins = _spin_map(t)
    steps, casimirs, targets = _su2_numbers(spins.powers, spins.k + 1)
    steps, casimirs = blank(steps, spins.groups), blank(casimirs, spins.groups)
    Jp, Jm, J0 = spins.Jp, spins.Jm, spins.J0
    arms = Arms(len(spins.Q))
    arms.compare("su_raise", shift(J0, 1) * Jp - Jp * J0, Jp)
    arms.compare("su_lower", shift(J0, -1) * Jm - Jm * J0, -Jm)
    arms.add("su_commutator", (shift(Jp, -1) * Jm - shift(Jm, 1) * Jp) - steps, Jp, Jm)
    cas = shift(Jm, 1) * Jp + casimirs
    arms.compare("su_casimir", cas, targets * spins.one)
    errors = finite_members(steps, casimirs, targets, errors=spins.errors)
    return unbatch(t, arms.block(tol, errors))


def check_equivalence(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[CheckReport, ReportBlock]:
    """Entrywise agreement of the rescaled rep with the reference block.

    ``su_equivalence`` is the largest of the ``Jp``, ``Jm`` and ``J0``
    comparisons, in that order by :func:`~qosc.algcheck.max_rule`.  A
    :class:`~qosc.repbuild.RepBatch` gives one block of that one report, as
    :func:`check_su2` does; a single rep gives its report.
    """
    spins = _spin_map(reps)
    refs = _reference(spins.j, spins.Q, spins.J0.shape[1])
    arms = Arms(len(spins.Q))
    for mine, ref in zip((spins.Jp, spins.Jm, spins.J0), refs):
        arms.compare("su_equivalence", mine, ref)
    errors = finite_members(refs.swapaxes(0, 1), errors=spins.errors)
    block = cut(("su_equivalence",), max_rule(arms._residuals())[:, None], tol, errors)
    return block if isinstance(reps, RepBatch) else block.reports(0)[0]
