"""Deformation parameters and q-number arithmetic.

Two parameter regimes are supported: ``q = exp(i*eps)`` on the unit circle
and ``q = exp(eps)`` on the real line.  Both carry a shift ``gamma`` whose
branch is indexed by an integer ``l``; the shift is exactly what makes the
coproduct of the number operator multiplicative, so it is stored alongside
``q`` rather than recomputed by callers.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateParameter

#: half-width of the interval around each singular locus that is rejected
GUARD_BAND = 1e-6

#: largest ``x`` with a finite ``exp(x)``
_EXP_LIMIT = math.log(sys.float_info.max)


class Mode(str, Enum):
    UNIMODULAR = "unimodular"
    REAL_LINE = "realline"


@dataclass(frozen=True)
class QParams:
    """Validated deformation data.  Construct through :func:`make_params`."""

    mode: Mode
    epsilon: float
    l: int
    q: complex
    sqrt_q: complex
    gamma: complex

    @property
    def log_q(self) -> complex:
        """Exact exponent: ``q == exp(log_q)`` and ``q**x := exp(x*log_q)``."""
        if self.mode is Mode.UNIMODULAR:
            return complex(0.0, self.epsilon)
        return complex(self.epsilon, 0.0)

    def qpow(self, x: complex) -> complex:
        """``q**x`` on the branch fixed by ``log_q``."""
        return cmath.exp(self.log_q * x)


def guard_epsilon(mode: Mode, epsilon: float) -> None:
    """Reject a non-finite ``epsilon``, a real-line one whose ``q`` or ``1/q``
    overflows, or one inside a guard band of its mode."""
    if not math.isfinite(epsilon):
        raise DegenerateParameter(f"epsilon={epsilon} is not finite")
    if mode is Mode.REAL_LINE and abs(epsilon) > _EXP_LIMIT:
        raise DegenerateParameter(f"exp(|epsilon|) is not finite at epsilon={epsilon}")
    if abs(epsilon) < GUARD_BAND:
        raise DegenerateParameter(f"epsilon={epsilon} inside guard band of 0")
    if mode is Mode.UNIMODULAR and abs(math.remainder(epsilon, math.pi)) < GUARD_BAND:
        raise DegenerateParameter(f"epsilon={epsilon} inside guard band of a multiple of pi")


def make_params(mode: Mode | str, epsilon: float, l: int = 0) -> QParams:
    """Validate ``epsilon`` and derive ``q``, ``sqrt_q`` and ``gamma``.

    ``l`` may be any integer; the sign rule tying it to ``epsilon`` is
    enforced where positivity actually matters (ladder construction and
    norm profiles), not here.
    """
    mode = Mode(mode)
    epsilon = float(epsilon)
    if not isinstance(l, int):
        raise TypeError(f"l must be an integer, got {l!r}")
    guard_epsilon(mode, epsilon)
    if mode is Mode.UNIMODULAR:
        q = cmath.exp(1j * epsilon)
        sqrt_q = cmath.exp(0.5j * epsilon)
        gamma = complex(0.5 - (2 * l + 1) * math.pi / (2 * epsilon), 0.0)
    else:
        q = complex(math.exp(epsilon), 0.0)
        sqrt_q = complex(math.exp(0.5 * epsilon), 0.0)
        gamma = complex(0.5, -(2 * l + 1) * math.pi / (2 * epsilon))
    return QParams(mode=mode, epsilon=epsilon, l=l, q=q, sqrt_q=sqrt_q, gamma=gamma)


def qnumber(x: complex, q: complex) -> complex:
    """Symmetric deformed number ``(q**x - q**-x) / (q - 1/q)``.

    Powers use the principal branch of the given ``q``.  Invariant under
    ``q -> 1/q`` and antisymmetric in ``x``; tends to ``x`` as ``q -> 1``.
    """
    q = complex(q)
    if abs(q - 1.0) < GUARD_BAND or abs(q + 1.0) < GUARD_BAND:
        raise DegenerateParameter(f"q={q} too close to +-1 for a deformed number")
    return qnum(x, cmath.log(q))


def qnum(x: complex, log_q: complex) -> complex:
    """Deformed number on a fixed exponent branch: powers are ``exp(x*log_q)``."""
    num = cmath.exp(log_q * x) - cmath.exp(-log_q * x)
    den = cmath.exp(log_q) - cmath.exp(-log_q)
    return num / den


def bracket_step(nu: complex, params: QParams) -> complex:
    """Difference of consecutive deformed numbers, ``[nu+1] - [nu]``.

    Equals ``(q**(nu+1/2) + q**(-nu-1/2)) / (q**(1/2) + q**(-1/2))``, the
    identity behind the commutator of the ladder pair.
    """
    lg = params.log_q
    return qnum(nu + 1.0, lg) - qnum(nu, lg)
