"""Deformation parameters and q-number arithmetic.

Two parameter regimes are supported: ``q = exp(i*eps)`` on the unit circle
and ``q = exp(eps)`` on the real line.  Both carry a shift ``gamma`` whose
branch is indexed by an integer ``l``; the shift is exactly what makes the
coproduct of the number operator multiplicative, so it is stored alongside
``q`` rather than recomputed by callers.

Every q-power the matrix checks take is an integer power of ``u = q**(1/4)``
times a per-point factor: :class:`PowerTable` holds those powers, and their
offsets from 1 for the deformed numbers, for a stack of points.
:class:`ExactPoly` is the exact ring ``Z[s, t, tau]/D**n`` of the
normal-ordered coefficients, with ``t = q**(1/2)`` and
``D = t**2 - t**-2``; the ladder coefficients are stated there once
(:func:`_ladder_raise`, :func:`_ladder_lower`) and evaluated by
:func:`_values` from whatever powers of ``t`` a caller passes in.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

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


def _branch_shift(l: int, epsilon: float) -> float:
    """The shift ``(2l+1)*pi/(2*epsilon)`` that the branch value ``q**(2*gamma-1) = -1``
    puts into ``gamma``, into ``nu0`` and into the ``eta`` of the imaginary involutions."""
    return (2 * l + 1) * math.pi / (2 * epsilon)


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
    shift = _branch_shift(l, epsilon)
    if mode is Mode.UNIMODULAR:
        q = cmath.exp(1j * epsilon)
        sqrt_q = cmath.exp(0.5j * epsilon)
        gamma = complex(0.5 - shift, 0.0)
    else:
        q = complex(math.exp(epsilon), 0.0)
        sqrt_q = complex(math.exp(0.5 * epsilon), 0.0)
        gamma = complex(0.5, -shift)
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


# ---------------------------------------------------------------------------
# integer powers of u = q**(1/4)


def _rows(x: Any, ndim: int) -> Any:
    """``x``, one value per row, broadcast against ``ndim`` axes after the
    rows; a scalar as it is."""
    if not isinstance(x, np.ndarray):
        return x
    return x.reshape((-1,) + (1,) * ndim)


def _expm1(z: complex) -> complex:
    """``exp(z) - 1``, which keeps its digits as ``z -> 0``."""
    a, b = z.real, z.imag
    return complex(math.expm1(a) * math.cos(b) - 2.0 * math.sin(0.5 * b) ** 2,
                   math.exp(a) * math.sin(b))


@dataclass(frozen=True, eq=False)
class PowerTable:
    """Powers ``u**j``, ``|j| <= span``, of one ``u`` per row, and their offsets ``u**j - 1``.

    ``table(j)`` reads ``u**j`` and ``table.offset(j)`` reads ``u**j - 1``,
    for an integer or an integer array ``j``, every row at once, in shape
    ``(rows, *j.shape)``; every read takes an ``at``, an int or one int per
    row, that moves each row's reads by its own amount.  Both come from one
    ``exp`` of ``log u`` and one ``expm1`` of ``+-log u`` per row, by
    products and sums (:meth:`build`),
    so a row does not depend on the others, and the offsets keep their
    digits as ``u -> 1``.  An entry past the double range is not finite (or
    0) and makes non-finite only the scalars that use it.

    On the spectrum ``nu0 + n`` of a (k+1)-dimensional block, ``unit`` is
    ``q**(nu0 + (k+1)/2)``, exactly ``i**(2l+1)`` on a truncated block, and
    ``root`` is ``q**((nu0 + gamma + k/2)/2)``, exactly 1 there, with
    ``q = u**4``.  ``center`` is ``2k + 2``, an int or one per row when the
    rows' blocks differ in ``k``.
    """

    powers: np.ndarray  # (rows, 2*span + 1): u**j in column span + j
    offsets: np.ndarray  # (rows, 2*span + 1): u**j - 1 in column span + j
    span: int
    unit: Optional[np.ndarray] = None  # (rows,)
    root: Optional[np.ndarray] = None  # (rows,)
    center: Any = 0  # 2k + 2: q**(nu0 + m/4) = unit * u**(m - center)

    @classmethod
    def build(cls, logs: Sequence[complex], span: int, **factors: Any) -> "PowerTable":
        """The table of ``u = exp(log)`` for each of ``logs``.

        Row by row, ``u**j`` is a running product of ``u`` (or ``1/u``), and
        ``u**j - 1 = (u - 1)(1 + u + ... + u**(j-1))``, with ``u - 1`` from
        ``expm1``, so no digit cancels as ``u -> 1``.
        """
        up = [cmath.exp(z) for z in logs]
        # the rows of u, then of 1/u
        base = np.array(up + [1.0 / x for x in up], dtype=complex)[:, None]
        first = np.array([_expm1(s * z) for s in (1, -1) for z in logs], dtype=complex)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.cumprod(np.repeat(base, span, axis=1), axis=1)
            sums = np.cumsum(np.concatenate((np.ones_like(base), products[:, :-1]), axis=1), axis=1)
            offsets = first * sums
            # near u**j = 1 the offset holds the digits; far from it, the product does
            powers = np.where(np.abs(offsets) <= 0.5, 1.0 + offsets, products)
        rows = len(logs)

        def columns(values: np.ndarray, one: float) -> np.ndarray:  # j = -span .. span
            return np.concatenate((values[rows:, ::-1], np.full((rows, 1), one, dtype=complex),
                                   values[:rows]), axis=1)

        return cls(columns(powers, 1.0), columns(offsets, 0.0), span, **factors)

    def _take(self, values: np.ndarray, j: Any, at: Any) -> np.ndarray:
        """``values[r, span + j + at[r]]`` for every row ``r``: ``j`` an int or an index
        array shared by the rows, ``at`` an int or one int per row."""
        if not isinstance(at, np.ndarray):
            return values[:, self.span + at + (j if isinstance(j, int) else np.asarray(j))]
        j = np.asarray(j)
        starts = np.arange(0, values.size, values.shape[1]) + (self.span + at)
        # a read past its row's span (a padded entry, which callers zero) is clipped into range
        return values.take(starts.reshape((-1,) + (1,) * j.ndim) + j, mode="clip")

    def __call__(self, j: Any, at: Any = 0) -> np.ndarray:
        return self._take(self.powers, j, at)

    def offset(self, j: Any, at: Any = 0) -> np.ndarray:
        return self._take(self.offsets, j, at)

    def nu(self, m: Any, sign: int = 1, at: Any = 0) -> np.ndarray:
        """``q**(sign * (nu0 + (m + at)/4))`` for the integers ``m``."""
        m = np.asarray(m)
        unit, shift = _rows(self.unit, m.ndim), at - self.center
        return unit * self(m, shift) if sign > 0 else self(-m, -shift) / unit

    def number(self, m: Any, spectral: bool = False, at: Any = 0) -> np.ndarray:
        """``[x] = (q**x - q**-x) / (q - 1/q)`` at each ``x = (m + at)/4``, or at
        ``x = nu0 + (m + at)/4`` if ``spectral``.

        With ``q**x = unit * u**j`` (``unit = 1`` off the spectrum) the
        numerator is ``(unit - 1/unit) + unit (u**j - 1) - (u**-j - 1)/unit``
        and the denominator ``(u**4 - 1) - (u**-4 - 1)``: as ``q -> 1`` no
        digits cancel but exact ones.
        """
        m = np.asarray(m)
        if not spectral:
            top = self.offset(m, at) - self.offset(-m, -at)
        else:
            j, unit = at - self.center, _rows(self.unit, m.ndim)  # reads at m + j
            top = (unit - 1.0 / unit) + (unit * self.offset(m, j) - self.offset(-m, -j) / unit)
        return top / _rows(self.offset(4) - self.offset(-4), m.ndim)

    def step(self, m: Any, sign: int = 1, shift: Optional[np.ndarray] = None,
             at: Any = 0) -> np.ndarray:
        """``[x+1] - [x] = (q**(x+1) + q**-x) / (q + 1)`` at each ``x = nu0 + eta + (m + at)/4``.

        ``shift`` is ``q**eta``, one value per row (``None``: ``eta = 0``);
        ``sign=-1`` takes the step at base ``1/q``.  The form has no
        cancellation as ``q -> 1``, and overflows exactly where ``[x+1]`` or
        ``[x]`` would.
        """
        up, down = self.nu(np.asarray(m) + 4, sign, at), self.nu(m, -sign, at)
        if shift is not None:
            shift = _rows(shift, np.ndim(m))
            up, down = shift * up, down / shift
        return (up + down) / _rows(self(4 * sign) + 1.0, np.ndim(m))


def unit_of_branch(l: int) -> complex:
    """``i**(2l+1)``, the exact value of ``q**(nu0 + (k+1)/2)`` on a truncated block."""
    return 1j if l % 2 == 0 else -1j


# ---------------------------------------------------------------------------
# the exact coefficient ring

# exponents of an ExactPoly term: powers of s, t and the tamper variable tau
Exps = tuple[int, int, int]


def _times(x: dict[Exps, complex], y: dict[Exps, complex]) -> dict[Exps, complex]:
    out: dict[Exps, complex] = {}
    for (s1, t1, u1), c1 in x.items():
        for (s2, t2, u2), c2 in y.items():
            key = (s1 + s2, t1 + t2, u1 + u2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


#: numerator of D = t^2 - t^-2
_D = {(0, 2, 0): 1, (0, -2, 0): -1}


class ExactPoly:
    """Laurent polynomial in ``s``, ``t`` and ``tau``, divided by ``D**den``.

    Over integer numerators the ring is an integral domain, so a value is
    zero exactly when its numerator has no terms; complex numerators carry
    the coefficients a caller gives an :class:`~qosc.normform.NCPoly`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict[Exps, complex], den: int = 0):
        self.num = {e: c for e, c in num.items() if c}
        self.den = den

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls({(0, 0, 0): 1})

    def over(self, den: int) -> dict[Exps, complex]:
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

    def scale(self, c: complex) -> "ExactPoly":
        return ExactPoly({e: c * v for e, v in self.num.items()}, self.den)

    def shift(self, m: int) -> "ExactPoly":
        """Substitute ``s -> t**m s``."""
        return ExactPoly({(a, b + m * a, u): c for (a, b, u), c in self.num.items()}, self.den)

    def at_tau(self, x: float) -> "ExactPoly":
        """Substitute ``tau -> x``; a non-finite ``x`` raises ``ValueError``."""
        if not math.isfinite(x):
            raise ValueError(f"tamper must be finite, got {x}")
        out: dict[Exps, complex] = {}
        for (a, b, u), c in self.num.items():
            if x or not u:
                out[a, b, 0] = out.get((a, b, 0), 0) + (c * x**u if u else c)
        return ExactPoly(out, self.den)


def _ladder_factors(n: int) -> tuple[ExactPoly, ExactPoly]:
    """The raising ladder coefficient of order ``n`` as ``bracket * shape``:
    ``(t^n - t^-n)/D`` and ``t^(2-n) s^2 + t^(n-2) s^-2``."""
    return (ExactPoly({(0, n, 0): 1, (0, -n, 0): -1}, den=1),
            ExactPoly({(2, 2 - n, 0): 1, (-2, n - 2, 0): 1}))


def _ladder_raise(n: int) -> ExactPoly:
    """Coefficient of ``abar^(n-1)`` in ``a abar^n - abar^n a``: the product of its factors."""
    bracket, shape = _ladder_factors(n)
    return bracket * shape


def _lowered(c: ExactPoly, n: int) -> ExactPoly:
    """``c`` at ``s -> t^(n-1) s``, negated: the raising coefficient of order ``n``
    (or its factor in ``s``) becomes the lowering one."""
    return c.shift(n - 1).scale(-1)


def _ladder_lower(n: int) -> ExactPoly:
    """Coefficient of ``a^(n-1)`` in ``abar a^n - a^n abar``: the raising one, lowered."""
    return _lowered(_ladder_raise(n), n)


# Terms of one s-power: (t-power, tau-power, coefficient) triples.
Group = tuple[tuple[int, int, complex], ...]


def _by_s_power(num: dict[Exps, complex]) -> dict[int, Group]:
    groups: dict[int, list[tuple[int, int, complex]]] = {}
    for (a, b, u), c in sorted(num.items()):
        groups.setdefault(a, []).append((b, u, c))
    return {a: tuple(g) for a, g in groups.items()}


def _values(groups: Iterable[Group], den: int, t_power: Callable[[int], Any],
            tamper: float, offset: bool = False) -> list:
    """Each group's sum of ``c t**b tau**u``, over ``D**den``, with ``t**b = t_power(b)``.

    ``t_power`` gives one value, or one array of values, per ``b``.  With
    ``offset`` it gives ``t**b - 1`` instead and each sum starts from its
    coefficients, so a sum whose coefficients cancel keeps its digits as
    ``t -> 1``; ``D = t_power(2) - t_power(-2)`` holds either way.  A term
    whose ``tamper**u`` is zero is skipped, so no ``0 * inf`` enters, and
    ``D`` is not taken when every sum is zero.  Raises ``ValueError`` for a
    non-finite ``tamper``.
    """
    if not math.isfinite(tamper):
        raise ValueError(f"tamper must be finite, got {tamper}")
    values = []
    for group in groups:
        acc = sum(c * tamper**u for _, u, c in group) if offset else 0j
        for b, u, c in group:
            weight = tamper**u
            if weight:
                acc = acc + c * weight * t_power(b)
        values.append(acc)
    if den and any(v.any() if isinstance(v, np.ndarray) else v for v in values):
        scale = (t_power(2) - t_power(-2)) ** den
        values = [v / scale for v in values]
    return values
