"""Finite ladder representations of the deformed oscillator.

The algebra has generators ``a`` (lowering), ``abar`` (raising) and ``N``
(number).  A highest-weight-free two-sided ladder truncates to a
(k+1)-dimensional block exactly when the number eigenvalue base ``nu0``
sits on a distinguished branch; :func:`build_rep` produces the normalized
block, :func:`build_generic_window` a window of the untruncated ladder.
A :class:`RepBatch` holds representations of one mode and any ``k``, which
every check family evaluates in one pass over their stacked arrays and
the one :class:`~qosc.qcore.PowerTable` of their q-powers, zero-padded to
the largest block.  ``a``, ``abar`` and ``N`` are weighted shifts of N-degree
-1, +1 and 0 (entry ``(j + m, j)`` holds ``w[j]``), held as the weights
:attr:`RepBatch.weights`, which :func:`shift_weights` validates once per batch.
``X @ Y`` for degrees ``mx``, ``my`` has the weights ``shift(x, my) * y``
(:func:`shift`), of degree ``mx + my``: one nonzero term per entry, so a
member keeps the bits of its own ``d x d`` matmul.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import DimensionTooLarge, ParityViolation
from .qcore import (
    Mode,
    PowerTable,
    QParams,
    _branch_shift,
    guard_epsilon,
    make_params,
    qnum,
    unit_of_branch,
)

#: default cap on the truncation index
MAX_K = 64

_T = TypeVar("_T")


@dataclass(frozen=True)
class Rep:
    """Matrix realization on basis ``e_0 .. e_k`` (column = input state)."""

    params: QParams
    k: int
    A: np.ndarray
    Abar: np.ndarray
    Nmat: np.ndarray
    nu0: complex
    lambdas: tuple[complex, ...]
    normalized: bool

    @property
    def dim(self) -> int:
        return self.k + 1


def _freeze(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


#: one k group of a batch: its dimension ``d`` and its members, a slice where they are
#: consecutive, else their indices
Group = tuple[int, Union[slice, np.ndarray]]


def _groups(dims: Sequence[int]) -> tuple[Group, ...]:
    """The members of each dimension, by ascending dimension."""
    members: dict[int, list[int]] = {}
    for i, d in enumerate(dims):
        members.setdefault(d, []).append(i)
    if len(members) == 1:
        return ((dims[0], slice(None)),)
    return tuple((d, slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1
                  else np.array(rows)) for d, rows in sorted(members.items()))


def band(m: np.ndarray, degree: int) -> np.ndarray:
    """Weights of a stack of weighted shifts of the given degree."""
    weights = np.diagonal(m, -degree, axis1=1, axis2=2)
    if degree == 0:
        return weights
    pad = np.zeros((len(m), m.shape[-1] - weights.shape[-1]), dtype=m.dtype)
    return np.concatenate((weights, pad) if degree > 0 else (pad, weights), axis=1)


def shift_weights(name: str, m: np.ndarray, degree: int) -> np.ndarray:
    """:func:`band` of a stack whose every entry off the band must be zero."""
    if np.count_nonzero(m) != np.count_nonzero(np.diagonal(m, -degree, axis1=1, axis2=2)):
        raise ValueError(f"{name} is not a weighted shift of degree {degree}")
    return band(m, degree)


def shift(w: np.ndarray, m: int) -> np.ndarray:
    """``w[..., j + m]`` at each ``j``, 0 where ``j + m`` leaves the last axis."""
    if m == 0:
        return w
    out = np.zeros_like(w)
    if m > 0:
        out[..., :-m] = w[..., m:]
    else:
        out[..., -m:] = w[..., :m]
    return out


def blank(values: np.ndarray, groups: Sequence[Group], axes: int = 1) -> np.ndarray:
    """``values``, whose last ``axes`` axes run over the padded states and whose member
    axis precedes them, with each member's entries past its dimension set to 0, in place."""
    for d, rows in groups[:-1]:  # the last group spans the padded dimension
        for axis in range(axes):
            values[(..., rows) + tuple(slice(d, None) if a == axis else slice(None)
                                       for a in range(axes))] = 0
    return values


@dataclass(frozen=True, eq=False)
class RepBatch:
    """Representations of one mode, checked together.

    Member ``i`` sits at index ``i`` of the leading axis of every stacked
    array; the members may differ in epsilon, branch and ``k``.  A stack is
    ``(B, D, D)`` for the largest dimension ``D``: each member's block is
    the direct sum of its own with the zero representation, so every
    symbol, step and identity is exactly 0 past a member's own block.
    The eager checks run on :attr:`weights`, once on the padded stack.
    """

    reps: tuple[Rep, ...]

    def __post_init__(self) -> None:
        if not self.reps:
            raise ValueError("a batch needs at least one representation")
        head = self.reps[0]
        for rep in self.reps[1:]:
            if rep.params.mode is not head.params.mode:
                raise ValueError(
                    f"a batch needs one mode: mode={rep.params.mode.value} joins "
                    f"mode={head.params.mode.value}"
                )

    @functools.cached_property
    def ks(self) -> Union[int, np.ndarray]:
        """Each member's ``k``: an int when they share it, else ``(B,)`` ints."""
        ks = [rep.k for rep in self.reps]
        return ks[0] if len(set(ks)) == 1 else np.array(ks)

    @functools.cached_property
    def groups(self) -> tuple[Group, ...]:
        """The members of each ``k``, by ascending ``k``, with their dimension."""
        return _groups([rep.dim for rep in self.reps])

    @property
    def k(self) -> int:
        """The largest member ``k``."""
        return self.groups[-1][0] - 1

    @property
    def dim(self) -> int:
        """The padded dimension ``D``, the largest member's."""
        return self.k + 1

    @property
    def mode(self) -> Mode:
        return self.reps[0].params.mode

    @property
    def params(self) -> tuple[QParams, ...]:
        return tuple(rep.params for rep in self.reps)

    def _stack(self, name: str) -> np.ndarray:
        if len(self.groups) == 1:
            matrices = [getattr(rep, name) for rep in self.reps]
            return _freeze(matrices[0][None] if len(matrices) == 1 else np.stack(matrices))
        out = np.zeros((len(self.reps), self.dim, self.dim), dtype=complex)
        for i, rep in enumerate(self.reps):
            out[i, :rep.dim, :rep.dim] = getattr(rep, name)
        return _freeze(out)

    @functools.cached_property
    def A(self) -> np.ndarray:
        """The members' lowering matrices, stacked ``(B, D, D)``."""
        return self._stack("A")

    @functools.cached_property
    def Abar(self) -> np.ndarray:
        """The members' raising matrices, stacked ``(B, D, D)``."""
        return self._stack("Abar")

    @functools.cached_property
    def Nmat(self) -> np.ndarray:
        """The members' number matrices, stacked ``(B, D, D)``."""
        return self._stack("Nmat")

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The weights ``(3, B, D)`` of ``A``, ``Abar`` and ``Nmat``, of degrees -1, +1, 0;
        raises ``ValueError`` unless each is a weighted shift of its degree."""
        return _freeze(np.stack([shift_weights("a", self.A, -1),
                                 shift_weights("abar", self.Abar, 1),
                                 shift_weights("N", self.Nmat, 0)]))

    @functools.cached_property
    def one(self) -> np.ndarray:
        """The weights ``(B, D)`` of the members' identities, 0 past each block."""
        return _freeze(blank(np.ones((len(self.reps), self.dim), dtype=complex), self.groups))

    @functools.cached_property
    def powers(self) -> PowerTable:
        """Each member's ``u**j`` for ``|j| <= 4(k+1)``, the most any check reads,
        centred on its own ``k``.

        A truncated member's spectral factors are exact; a window's root
        costs one ``exp``.
        """
        roots = [1.0 if rep.normalized else
                 rep.params.qpow((rep.nu0 + rep.params.gamma + rep.k / 2.0) / 2.0)
                 for rep in self.reps]
        units = [r * r * unit_of_branch(rep.params.l) for r, rep in zip(roots, self.reps)]
        return PowerTable.build(
            [p.log_q / 4.0 for p in self.params], 4 * self.dim, center=2 * self.ks + 2,
            unit=np.array(units, dtype=complex), root=np.array(roots, dtype=complex))

    def derived(self, build: Callable[["RepBatch"], _T]) -> _T:
        """``build(self)``, computed once per batch and shared by every check that asks."""
        memo = self.__dict__.setdefault("_derived", {})
        if build not in memo:
            memo[build] = build(self)
        return memo[build]


def nu0(params: QParams, k: int) -> complex:
    """Base number eigenvalue of the truncated (k+1)-dimensional block."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    base = -(k + 1) / 2.0
    offset = _branch_shift(params.l, params.epsilon)
    if params.mode is Mode.UNIMODULAR:
        return complex(base + offset, 0.0)
    return complex(base, offset)


def _parity_factor(mode: Mode, epsilon: float, l: int) -> float:
    """Sign-carrying prefactor of the squared-norm ratios; positive iff the
    branch index obeys the sign rule."""
    if mode is Mode.UNIMODULAR:
        return (-1.0) ** l * math.tan(epsilon / 2.0)
    return (-1.0) ** (l + 1) * math.tanh(epsilon / 2.0)


def require_parity(params: QParams) -> float:
    factor = _parity_factor(params.mode, params.epsilon, params.l)
    if factor <= 0.0:
        raise ParityViolation(
            f"l={params.l} gives nonpositive norm prefactor {factor} "
            f"for mode={params.mode.value}, epsilon={params.epsilon}"
        )
    return factor


def choose_branch(mode: Mode | str, epsilon: float) -> int:
    """Smallest nonnegative branch index satisfying the sign rule."""
    mode = Mode(mode)
    guard_epsilon(mode, epsilon)
    return 0 if _parity_factor(mode, epsilon, 0) > 0.0 else 1


def _half_bracket_real(params: QParams, n: float) -> float:
    """Real value of the deformed number of ``n`` at base ``sqrt(q)``."""
    h = params.epsilon / 2.0
    if params.mode is Mode.UNIMODULAR:
        if abs(h) > math.pi:  # n * h would round: take the half-angle reduced exactly
            h = cmath.phase(params.sqrt_q)
        return math.sin(n * h) / math.sin(h)
    return math.sinh(n * h) / math.sinh(h)


def norm_factors(params: QParams, k: int) -> list[float]:
    """Positive real factors ``|psi_n|^2 / |psi_{n-1}|^2`` for n = 1..k."""
    factor = require_parity(params)
    return [
        factor * _half_bracket_real(params, n) * _half_bracket_real(params, k + 1 - n)
        for n in range(1, k + 1)
    ]


def lambda_seq(params: QParams, k: int) -> list[complex]:
    """Eigenvalues of ``a*abar`` on the truncated block, n = 1..k.

    Real (and positive while ``k*|eps|/2 < pi``) in the unimodular mode,
    purely imaginary with positive imaginary part on the real line.
    """
    factors = norm_factors(params, k)
    if params.mode is Mode.UNIMODULAR:
        return [complex(f, 0.0) for f in factors]
    return [complex(0.0, f) for f in factors]


def lambda_generic(nu0_value: complex, lambda0: complex, n: int, params: QParams) -> complex:
    """Ladder eigenvalue from the first-order recurrence, off any truncation."""
    half = params.log_q / 2.0
    num = params.qpow(nu0_value + n / 2.0) + params.qpow(-nu0_value - n / 2.0)
    den = cmath.exp(half) + cmath.exp(-half)
    return lambda0 + qnum(n, half) * num / den


def build_rep(params: QParams, k: int) -> Rep:
    """Normalized truncated representation on ``e_0 .. e_k``.

    Raising entries sit on the subdiagonal and are real nonnegative in the
    positivity regime; lowering entries carry an extra factor ``i`` on the
    real line so that the adjoint realizes the ``-i`` involution there.
    """
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > MAX_K:
        raise DimensionTooLarge(f"k={k} exceeds the cap {MAX_K}")
    lambdas = lambda_seq(params, k)
    base = nu0(params, k)
    d = k + 1
    A = np.zeros((d, d), dtype=complex)
    Abar = np.zeros((d, d), dtype=complex)
    if params.mode is Mode.UNIMODULAR:
        roots = [cmath.sqrt(lam) for lam in lambdas]
        lower = roots
    else:
        roots = [cmath.sqrt(lam.imag) for lam in lambdas]
        lower = [1j * r for r in roots]
    for n in range(k):
        Abar[n + 1, n] = roots[n]
        A[n, n + 1] = lower[n]
    Nmat = np.diag([base + n for n in range(d)])
    return Rep(
        params=params,
        k=k,
        A=_freeze(A),
        Abar=_freeze(Abar),
        Nmat=_freeze(Nmat),
        nu0=base,
        lambdas=tuple(lambdas),
        normalized=True,
    )


def build_generic_window(
    nu0_value: complex, lambda0: complex, params: QParams, span: int
) -> Rep:
    """Unnormalized window ``e_0 .. e_{span-1}`` of the two-sided ladder.

    Raising acts with coefficient 1, lowering with the recurrence
    eigenvalue.  The two boundary columns are truncation artifacts: the
    defining relations hold only on ``e_1 .. e_{span-2}``.
    """
    if span < 3:
        raise ValueError(f"span={span} too small for an interior")
    d = span
    A = np.zeros((d, d), dtype=complex)
    Abar = np.zeros((d, d), dtype=complex)
    lambdas = [lambda_generic(nu0_value, lambda0, n, params) for n in range(1, d)]
    for n in range(d - 1):
        Abar[n + 1, n] = 1.0
        A[n, n + 1] = lambdas[n]
    Nmat = np.diag([nu0_value + n for n in range(d)])
    return Rep(
        params=params,
        k=d - 1,
        A=_freeze(A),
        Abar=_freeze(Abar),
        Nmat=_freeze(Nmat),
        nu0=complex(nu0_value),
        lambdas=tuple(lambdas),
        normalized=False,
    )


@dataclass(frozen=True)
class TruncationReport:
    condition_value: complex
    admissible: bool


def truncation_condition(params: QParams, k: int, nu0_value: complex) -> complex:
    """Raw truncation condition at an arbitrary base eigenvalue.

    Unimodular: ``cos(eps*(2*nu0+k+1)/2) * sin(eps*(k+1)/2)``.  Real line:
    ``cosh(eps*(mu0+k+1)) - cosh(eps*mu0)`` with ``mu0`` the real part of
    ``nu0`` (its imaginary part is pinned by the mode).
    """
    eps = params.epsilon
    if params.mode is Mode.UNIMODULAR:
        return cmath.cos(eps * (2.0 * nu0_value + k + 1) / 2.0) * cmath.sin(
            eps * (k + 1) / 2.0
        )
    mu0 = complex(nu0_value).real
    return cmath.cosh(eps * (mu0 + k + 1)) - cmath.cosh(eps * mu0)


def truncation_admissible(params: QParams, k: int, tol: float = 1e-10) -> TruncationReport:
    """Whether the distinguished ``nu0`` satisfies the truncation condition."""
    value = truncation_condition(params, k, nu0(params, k))
    return TruncationReport(condition_value=value, admissible=abs(value) < tol)


def auto_params(mode: Mode | str, epsilon: float) -> QParams:
    """Parameters with the branch index picked by :func:`choose_branch`."""
    return make_params(mode, epsilon, choose_branch(mode, epsilon))
