"""Rescaling of the truncated oscillator onto a deformed su(2) triple.

The (k+1)-dimensional block maps onto the spin-j block of su_Q(2) with
``j = k/2`` and ``Q = sqrt(q)``: the ladder pair is rescaled by a mode-
dependent square root and the number operator is shifted by ``gamma``.
The identification degenerates on the unit circle when ``eps`` approaches
a multiple of pi or an odd multiple of pi/2, so those loci are rejected
by default.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algcheck import DEFAULT_TOL, CheckReport, compare, report, residual_of
from .errors import DegenerateParameter
from .qcore import GUARD_BAND, Mode, qnum
from .repbuild import Rep, require_parity


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
    eye = np.eye(rep.dim, dtype=complex)
    return SuTriple(
        Jp=root * rep.Abar,
        Jm=lower_phase * root * rep.A,
        J0=rep.Nmat + p.gamma * eye,
        Q=p.sqrt_q,
        j=rep.k / 2.0,
    )


def check_su2(t: SuTriple, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Deformed su(2) relations and the Casimir on a triple."""
    lg = cmath.log(complex(t.Q))
    mvals = np.diag(t.J0)
    step2 = np.diag([qnum(2.0 * m, lg) for m in mvals])
    out = [
        compare("su_raise", t.J0 @ t.Jp - t.Jp @ t.J0, t.Jp, tol),
        compare("su_lower", t.J0 @ t.Jm - t.Jm @ t.J0, -t.Jm, tol),
        report(
            "su_commutator",
            residual_of((t.Jp @ t.Jm - t.Jm @ t.Jp) - step2, t.Jp, t.Jm),
            tol,
        ),
    ]
    cas = t.Jm @ t.Jp + np.diag([qnum(m, lg) * qnum(m + 1.0, lg) for m in mvals])
    target = qnum(t.j, lg) * qnum(t.j + 1.0, lg) * np.eye(t.dim)
    out.append(compare("su_casimir", cas, target, tol))
    return out


def check_equivalence(rep: Rep, tol: float = DEFAULT_TOL, **to_su2_kwargs) -> CheckReport:
    """Entrywise agreement of the rescaled rep with the reference block."""
    t = to_su2(rep, **to_su2_kwargs)
    ref = su2_direct(t.j, t.Q)
    res = max(
        residual_of(t.Jp - ref.Jp, t.Jp, ref.Jp),
        residual_of(t.Jm - ref.Jm, t.Jm, ref.Jm),
        residual_of(t.J0 - ref.J0, t.J0, ref.J0),
    )
    return report("su_equivalence", res, tol)
