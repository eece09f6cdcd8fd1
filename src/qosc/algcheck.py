"""Numeric checks of the defining relations on a matrix representation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import Mode, QParams, bracket_step, qnum
from .repbuild import Rep, norm_factors

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


def residual_of(defect: np.ndarray, *operands: np.ndarray) -> float:
    """Max-abs of the defect relative to ``max(1, prod of operand max-norms)``."""
    scale = 1.0
    for op in operands:
        scale *= _maxabs(op)
    return _maxabs(defect) / max(1.0, scale)


def compare(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckReport:
    return report(name, residual_of(lhs - rhs, lhs, rhs), tol)


def qnum_diag(rep: Rep, shift: float = 0.0) -> np.ndarray:
    """Diagonal matrix of deformed numbers of the number-operator spectrum."""
    vals = [qnum(v + shift, rep.params.log_q) for v in np.diag(rep.Nmat)]
    return np.diag(vals)


def _interior(defect: np.ndarray, rep: Rep) -> np.ndarray:
    """Zero the boundary columns of a window rep, where truncation bites."""
    if rep.normalized:
        return defect
    trimmed = defect.copy()
    trimmed[:, 0] = 0.0
    trimmed[:, -1] = 0.0
    return trimmed


def check_defining_relations(rep: Rep, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Commutators of the ladder pair and the number operator.

    For generic windows only the interior columns are checked; the two
    boundary columns carry the truncation artifact by construction.
    """
    A, Abar, N = rep.A, rep.Abar, rep.Nmat
    step = np.diag([bracket_step(v, rep.params) for v in np.diag(N)])
    d1 = _interior((A @ Abar - Abar @ A) - step, rep)
    d2 = (N @ Abar - Abar @ N) - Abar
    d3 = (N @ A - A @ N) + A
    return [
        report("rel_commutator", residual_of(d1, A, Abar), tol),
        report("rel_number_raise", residual_of(d2, N, Abar), tol),
        report("rel_number_lower", residual_of(d3, N, A), tol),
    ]


@dataclass(frozen=True)
class CasimirResult:
    matrix: np.ndarray
    scalar: complex
    reports: tuple[CheckReport, ...]


def casimir(rep: Rep, tol: float = DEFAULT_TOL) -> CasimirResult:
    """Central element ``abar*a - [N]``; scalar on an irreducible block.

    Reports: agreement of the two equivalent forms, and deviation from the
    scalar.  For truncated reps the scalar is ``-[nu0]``.
    """
    c_low = rep.Abar @ rep.A - qnum_diag(rep)
    c_high = rep.A @ rep.Abar - qnum_diag(rep, 1.0)
    form_defect = _interior(c_low - c_high, rep)
    scalar = complex(c_low[1, 1] if not rep.normalized and rep.dim > 1 else c_low[0, 0])
    scalar_defect = _interior(c_low - scalar * np.eye(rep.dim), rep)
    reports = (
        report("casimir_two_forms", residual_of(form_defect, rep.A, rep.Abar), tol),
        report(
            "casimir_scalar",
            residual_of(scalar_defect, c_low),
            tol,
            detail=f"scalar={scalar!r}",
        ),
    )
    return CasimirResult(matrix=c_low, scalar=scalar, reports=reports)


def casimir_scalar_closed_form(params: QParams, k: int) -> complex:
    """Unimodular closed form ``-(-1)**l * cos(eps*(k+1)/2) / sin(eps)``."""
    if params.mode is not Mode.UNIMODULAR:
        raise ValueError("closed form applies to the unimodular mode only")
    eps = params.epsilon
    return complex(
        -((-1.0) ** params.l) * math.cos(eps * (k + 1) / 2.0) / math.sin(eps), 0.0
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow is detected and raised below
def check_ladder_identities(rep: Rep, n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Reordering identities for powers of the ladder operators.

    For each n:  ``a*abar^n - abar^n*a = [n]' * G_n(N) * abar^(n-1)`` and
    ``abar*a^n - a^n*abar = -[n]' * H_n(N) * a^(n-1)``, where ``[.]'`` is
    the deformed number at base ``sqrt(q)`` and G, H are exponential
    functions of N.  A power or defect outside the double range raises
    ``OverflowError``, as the scalar formulas do.
    """
    if n_max > rep.k + 1:
        raise ValueError(f"n_max={n_max} exceeds k+1={rep.k + 1}")
    p = rep.params
    half = p.log_q / 2.0
    den = p.qpow(0.5) + p.qpow(-0.5)
    nvals = np.diag(rep.Nmat)
    out: list[CheckReport] = []
    raise_pow = np.eye(rep.dim, dtype=complex)      # Abar^(n-1)
    lower_pow = np.eye(rep.dim, dtype=complex)      # A^(n-1)
    for n in range(1, n_max + 1):
        bran = qnum(n, half)
        g = np.diag([(p.qpow(v - n / 2.0 + 1.0) + p.qpow(-(v - n / 2.0 + 1.0))) / den
                     for v in nvals])
        h = np.diag([(p.qpow(v + n / 2.0) + p.qpow(-(v + n / 2.0))) / den
                     for v in nvals])
        raise_n = raise_pow @ rep.Abar              # Abar^n
        lower_n = lower_pow @ rep.A                 # A^n
        d_raise = rep.A @ raise_n - raise_n @ rep.A - bran * (g @ raise_pow)
        d_lower = rep.Abar @ lower_n - lower_n @ rep.Abar + bran * (h @ lower_pow)
        # a power with a non-finite entry makes its defect non-finite too
        if not (np.isfinite(d_raise).all() and np.isfinite(d_lower).all()):
            raise OverflowError(f"ladder powers of order {n} leave the double range")
        out.append(report(f"ladder_raise_n{n}", residual_of(d_raise, rep.A, raise_n), tol))
        out.append(report(f"ladder_lower_n{n}", residual_of(d_lower, rep.Abar, lower_n), tol))
        raise_pow, lower_pow = raise_n, lower_n
    return out


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
