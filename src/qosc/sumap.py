"""Rescaling of the truncated oscillator onto a deformed su(2) triple.

The (k+1)-dimensional block maps onto the spin-j block of su_Q(2) with
``j = k/2`` and ``Q = sqrt(q)``: the ladder pair is rescaled by a mode-
dependent square root and the number operator is shifted by ``gamma``.
The identification degenerates on the unit circle when ``eps`` approaches
a multiple of pi or an odd multiple of pi/2, so those loci are rejected
by default.

:func:`check_su2` and :func:`check_equivalence` take one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` under the
batch contract of :mod:`qosc.algcheck`: the rescaled triples of all members
are stacked on a leading batch axis and checked in one pass, into one
:class:`~qosc.algcheck.ReportBlock` per check, while each member's scale
factors, deformed numbers and reference block come from the scalar
formulas, so its residuals are bit for bit those of the single-rep call.
The two checks share one spin map per batch.  A member at a singular locus
is dropped with its ``DegenerateParameter``, one whose scalars overflow
with its ``OverflowError``; a single rep gets its reports and raises them.
:func:`check_su2` also takes a :class:`SuTriple`, the batch of one triple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np

from .algcheck import (
    DEFAULT_TOL,
    Arms,
    CheckReport,
    MemberError,
    ReportBlock,
    as_batch,
    diag_stack,
    dropped,
    member_scalars,
    unbatch,
)
from .errors import DegenerateParameter
from .qcore import GUARD_BAND, Mode, qnum
from .repbuild import Rep, RepBatch, require_parity


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


def su2_direct(j: float, Q: complex) -> SuTriple:
    """Reference spin-j block of su_Q(2) on basis m = -j .. j ascending.

    ``Jp|j,m> = sqrt([j-m][j+m+1]) |j,m+1>``,
    ``Jm|j,m> = sqrt([j+m][j-m+1]) |j,m-1>``, ``J0|j,m> = m|j,m>``,
    with deformed numbers at base Q.
    """
    d = round(2 * j) + 1
    if abs(2 * j - round(2 * j)) > 1e-12 or d < 1:
        raise ValueError(f"j={j} is not a nonnegative half-integer")
    Q = complex(Q)
    lg = cmath.log(Q)

    # j +- m is an integer, so the brackets are exactly real whenever Q sits
    # on the unit circle or the positive real axis; computing them that way
    # keeps principal square roots of negative products on a stable branch.
    if abs(abs(Q) - 1.0) < 1e-14:
        theta = cmath.phase(Q)

        def qn(x: float) -> complex:
            return complex(math.sin(x * theta) / math.sin(theta), 0.0)

    elif abs(Q.imag) < 1e-14 and Q.real > 0.0:
        t = math.log(Q.real)

        def qn(x: float) -> complex:
            return complex(math.sinh(x * t) / math.sinh(t), 0.0)

    else:

        def qn(x: float) -> complex:
            return qnum(x, lg)

    Jp = np.zeros((d, d), dtype=complex)
    Jm = np.zeros((d, d), dtype=complex)
    ms = [-j + n for n in range(d)]
    for n, m in enumerate(ms[:-1]):
        Jp[n + 1, n] = cmath.sqrt(qn(j - m) * qn(j + m + 1))
    for n, m in enumerate(ms):
        if n > 0:
            Jm[n - 1, n] = cmath.sqrt(qn(j + m) * qn(j - m + 1))
    return SuTriple(Jp=Jp, Jm=Jm, J0=np.diag(ms).astype(complex), Q=complex(Q), j=j)


def _locus_distance(eps: float) -> float:
    """Distance to the nearest of ``p*pi`` and ``(2p+1)*pi/2``."""
    return min(
        abs(math.remainder(eps, math.pi)),
        abs(math.remainder(eps - math.pi / 2.0, math.pi)),
    )


def _rescaling(
    rep: Rep, realline_reading: str = "coth", enforce_loci: bool = True
) -> tuple[complex, complex]:
    """Factors of the raising and lowering generators under :func:`to_su2`."""
    p = rep.params
    if not rep.normalized:
        raise ValueError("the spin map is defined for normalized truncated reps")
    require_parity(p)
    half = p.epsilon / 2.0
    if p.mode is Mode.UNIMODULAR:
        if enforce_loci and _locus_distance(p.epsilon) < GUARD_BAND:
            raise DegenerateParameter(
                f"epsilon={p.epsilon} inside guard band of a spin-map singular locus"
            )
        factor = (-1.0) ** p.l / math.tan(half)
        lower_phase = 1.0
    else:
        if realline_reading == "coth":
            factor = (-1.0) ** (p.l + 1) / math.tanh(half)
        elif realline_reading == "cot":
            factor = (-1.0) ** (p.l + 1) / math.tan(half)
        else:
            raise ValueError(f"unknown realline_reading {realline_reading!r}")
        lower_phase = -1j
    root = cmath.sqrt(complex(factor))
    return root, lower_phase * root


def to_su2(
    rep: Rep,
    *,
    realline_reading: str = "coth",
    enforce_loci: bool = True,
) -> SuTriple:
    """Rescale a normalized truncated rep onto the spin-(k/2) block.

    ``realline_reading`` selects the hyperbolic prefactor ("coth", the
    consistent reading) or the circular one ("cot", kept only so the
    equivalence check can discriminate).  ``enforce_loci`` rejects the
    degenerate unimodular loci; disable only for off-grid experiments.
    """
    raising, lowering = _rescaling(rep, realline_reading, enforce_loci)
    eye = np.eye(rep.dim, dtype=complex)
    return SuTriple(
        Jp=raising * rep.Abar,
        Jm=lowering * rep.A,
        J0=rep.Nmat + rep.params.gamma * eye,
        Q=rep.params.sqrt_q,
        j=rep.k / 2.0,
    )


@dataclass(frozen=True)
class _Triples:
    """Stacked triples of the members a spin map admits, at spin ``j``; the errors of the rest."""

    errors: dict[int, MemberError]
    alive: list[int]
    Jp: np.ndarray
    Jm: np.ndarray
    J0: np.ndarray
    Q: list[complex]
    j: float

    def narrow(self, scalars: Callable[[int], Any]) -> tuple["_Triples", list]:
        """The triples without the rows whose ``scalars(row)`` overflow, and the others' data."""
        more, kept, data = member_scalars(len(self.alive), scalars)
        if not more:
            return self, data
        errors = {**self.errors, **{self.alive[row]: exc for row, exc in more.items()}}
        return _Triples(errors, [self.alive[row] for row in kept], self.Jp[kept], self.Jm[kept],
                        self.J0[kept], [self.Q[row] for row in kept], self.j), data


def _triples(batch: RepBatch, **to_su2_kwargs) -> _Triples:
    errors, alive, factors = member_scalars(
        len(batch.reps), lambda i: _rescaling(batch.reps[i], **to_su2_kwargs))
    raising, lowering = (np.array([f[side] for f in factors], dtype=complex)[:, None, None]
                         for side in (0, 1))
    params = [batch.params[i] for i in alive]
    gamma = np.array([p.gamma for p in params], dtype=complex)[:, None, None]
    return _Triples(
        errors, alive, raising * batch.Abar[alive], lowering * batch.A[alive],
        batch.Nmat[alive] + gamma * np.eye(batch.dim, dtype=complex),
        [p.sqrt_q for p in params], batch.k / 2.0,
    )


def _spin_map(source: Union[SuTriple, Rep, RepBatch], **to_su2_kwargs) -> _Triples:
    """The stacked spin map of a source; a batch's default map is built once, for both checks."""
    if isinstance(source, SuTriple):
        t = source
        return _Triples({}, [0], t.Jp[None], t.Jm[None], t.J0[None], [complex(t.Q)], t.j)
    batch = as_batch(source)
    return _triples(batch, **to_su2_kwargs) if to_su2_kwargs else batch.derived(_triples)


def check_su2(
    t: Union[SuTriple, Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Deformed su(2) relations and the Casimir on a triple, or on the spin map of reps.

    A :class:`~qosc.repbuild.RepBatch` gives one
    :class:`~qosc.algcheck.ReportBlock`, which drops a member with the error
    that stopped it.  A triple or a single rep gives its reports and raises
    its error.
    """
    spins = _spin_map(t)

    def scalars(row: int) -> tuple:
        lg = cmath.log(complex(spins.Q[row]))
        mvals = np.diag(spins.J0[row])
        return ([qnum(2.0 * m, lg) for m in mvals],
                [qnum(m, lg) * qnum(m + 1.0, lg) for m in mvals],
                qnum(spins.j, lg) * qnum(spins.j + 1.0, lg))

    live, data = spins.narrow(scalars)
    if not data:
        return unbatch(t, dropped(live.errors, tol))
    steps, casimirs, targets = (np.array(x, dtype=complex) for x in zip(*data))
    Jp, Jm, J0 = live.Jp, live.Jm, live.J0
    arms = Arms(live.alive, ("su2", J0.shape[1]))
    arms.compare("su_raise", J0 @ Jp - Jp @ J0, Jp)
    arms.compare("su_lower", J0 @ Jm - Jm @ J0, -Jm)
    arms.add("su_commutator", ((Jp @ Jm - Jm @ Jp) - diag_stack(steps), Jp, Jm))
    cas = Jm @ Jp + diag_stack(casimirs)
    arms.compare("su_casimir", cas, targets[:, None, None] * np.eye(J0.shape[1]))
    return unbatch(t, arms.block(tol, live.errors))


def check_equivalence(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL, **to_su2_kwargs
) -> Union[CheckReport, ReportBlock]:
    """Entrywise agreement of the rescaled rep with the reference block.

    A :class:`~qosc.repbuild.RepBatch` gives one block of the one report
    ``su_equivalence``, as :func:`check_su2` does; a single rep gives its
    report.
    """
    spins = _spin_map(reps, **to_su2_kwargs)
    live, refs = spins.narrow(lambda row: su2_direct(spins.j, spins.Q[row]))
    if not refs:
        block = dropped(live.errors, tol)
    else:
        arms = Arms(live.alive, ("equivalence", live.J0.shape[1]))
        arms.add("su_equivalence", *(
            (mine - ref, mine, ref) for mine, ref in (
                (live.Jp, np.stack([r.Jp for r in refs])),
                (live.Jm, np.stack([r.Jm for r in refs])),
                (live.J0, np.stack([r.J0 for r in refs])),
            )))
        block = arms.block(tol, live.errors)
    if isinstance(reps, RepBatch):
        return block
    (result,) = block.reports(0)
    return result
