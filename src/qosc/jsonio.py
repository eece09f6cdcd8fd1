"""JSON schemas for matrices, representations, involutions and reports.

Complex scalars serialize as two-element ``[re, im]`` arrays; matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with row-major data.
Serialization is deterministic: key order is fixed by construction and
floats are written with 17 significant digits, and negative zero as
``-0.0``, which is lossless for IEEE doubles and byte-stable across runs.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .algcheck import CheckReport
from .hopfstar import Flavor, InvolutionSpec
from .qcore import Mode, QParams, make_params
from .repbuild import Rep, nu0


def cnum(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    rows, cols = m.shape
    data = np.ascontiguousarray(m, complex).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(doc: dict[str, Any]) -> np.ndarray:
    """Inverse of ``matrix_to_json``; data must be ``rows*cols`` finite pairs.

    ``np.fromiter`` over the flattened pairs, not ``np.array`` of the nested
    list: parsed JSON holds ints wherever a value is integral (``0``), and
    numpy's nested-list conversion of that int/float mix is slower than a
    per-entry loop."""
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    try:
        if len(data) == rows * cols and set(map(len, data)) <= {2}:
            pairs = np.fromiter(itertools.chain.from_iterable(data), np.float64, 2 * len(data))
            if np.isfinite(pairs).all():  # fromiter reads None as nan
                return pairs.view(complex).reshape(rows, cols)
    except TypeError:  # an entry or value that has no length or is not a number
        pass
    raise ValueError(f"matrix data must be {rows}*{cols} finite [re, im] pairs")


def params_to_json(p: QParams) -> dict[str, Any]:
    return {
        "mode": p.mode.value,
        "epsilon": p.epsilon,
        "l": p.l,
        "q": cnum(p.q),
        "sqrt_q": cnum(p.sqrt_q),
        "gamma": cnum(p.gamma),
    }


def params_from_json(doc: dict[str, Any]) -> QParams:
    return make_params(Mode(doc["mode"]), doc["epsilon"], doc["l"])


def rep_to_json(rep: Rep) -> dict[str, Any]:
    return {
        "params": params_to_json(rep.params),
        "k": rep.k,
        "nu0": cnum(rep.nu0),
        "lambdas": [cnum(lam) for lam in rep.lambdas],
        "normalized": rep.normalized,
        "A": matrix_to_json(rep.A),
        "Abar": matrix_to_json(rep.Abar),
        "N": matrix_to_json(rep.Nmat),
    }


def rep_from_json(doc: dict[str, Any]) -> Rep:
    """Inverse of ``rep_to_json``; a document that disagrees with itself raises ``ValueError``.

    ``k`` must be an int >= 0, ``A``, ``Abar`` and ``N`` each (k+1)x(k+1),
    ``lambdas`` k long, ``normalized`` a bool, ``diag(N)`` equal to
    ``nu0 + n`` and, for a normalized rep, ``nu0`` the one ``params`` give."""
    k = doc["k"]
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be an int >= 0, got {k!r}")
    a = matrix_from_json(doc["A"])
    abar = matrix_from_json(doc["Abar"])
    nmat = matrix_from_json(doc["N"])
    for name, m in (("A", a), ("Abar", abar), ("N", nmat)):
        if m.shape != (k + 1, k + 1):
            raise ValueError(
                f"{name} is {m.shape[0]}x{m.shape[1]}, but k={k} needs {k + 1}x{k + 1}")
        m.setflags(write=False)
    if len(doc["lambdas"]) != k:
        raise ValueError(f"{len(doc['lambdas'])} lambdas, but k={k} needs {k}")
    if type(doc["normalized"]) is not bool:
        raise ValueError(f"normalized must be a bool, got {doc['normalized']!r}")
    params, base = params_from_json(doc["params"]), complex(*doc["nu0"])
    if not np.array_equal(np.diag(nmat), base + np.arange(k + 1)):
        raise ValueError(f"diag(N) is not nu0 + n for nu0={base}")
    if doc["normalized"] and base != nu0(params, k):
        raise ValueError(f"nu0={base}, but these params give {nu0(params, k)}")
    return Rep(
        params=params,
        k=k,
        A=a,
        Abar=abar,
        Nmat=nmat,
        nu0=base,
        lambdas=tuple(complex(re, im) for re, im in doc["lambdas"]),
        normalized=doc["normalized"],
    )


def involution_to_json(inv: InvolutionSpec) -> dict[str, Any]:
    return {
        "alpha": cnum(inv.alpha),
        "beta": cnum(inv.beta),
        "eta": cnum(inv.eta),
        "flavor": inv.flavor.value,
        "label": inv.label,
    }


def involution_from_json(doc: dict[str, Any]) -> InvolutionSpec:
    return InvolutionSpec(
        alpha=complex(*doc["alpha"]),
        beta=complex(*doc["beta"]),
        eta=complex(*doc["eta"]),
        flavor=Flavor(doc["flavor"]),
        label=doc["label"],
    )


def report_to_json(r: CheckReport, expected: str | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": r.name,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
    }
    if expected is not None:
        doc["expected"] = expected
    return doc


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} has no JSON encoding")
    text = format(x, ".17g")
    # "-0" would parse back as the int 0 and lose the sign bit
    return "-0.0" if text == "-0" else text


def _pair_list(doc: list | tuple, level: int) -> str | None:
    """Encoding of a list whose items are all ``[float, float]`` pairs, with
    the bytes ``_fragment`` would write; None if any item is not such a pair.

    Each distinct pair is formatted once; the sign bits keep ``-0.0`` apart
    from ``0.0``, which compare equal."""
    outer, inner = "  " * (level + 1), "  " * (level + 2)
    head, mid, tail = outer + "[\n" + inner, ",\n" + inner, "\n" + outer + "]"
    memo: dict[tuple[float, float, float, float], str] = {}
    parts = []
    for item in doc:
        if type(item) not in (list, tuple) or len(item) != 2:
            return None
        re, im = item
        if type(re) is not float or type(im) is not float:
            return None
        key = (re, im, math.copysign(1.0, re), math.copysign(1.0, im))
        frag = memo.get(key)
        if frag is None:
            frag = memo[key] = head + _float_repr(re) + mid + _float_repr(im) + tail
        parts.append(frag)
    return "[\n" + ",\n".join(parts) + "\n" + "  " * level + "]"


def _fragment(doc: Any, level: int) -> str:
    pad = "  " * (level + 1)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (f'{pad}{json.dumps(key)}: {_fragment(val, level + 1)}' for key, val in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + "  " * level + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        pairs = _pair_list(doc, level)
        if pairs is not None:
            return pairs
        items = (pad + _fragment(val, level + 1) for val in doc)
        return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, float):
        return _float_repr(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, str):
        return json.dumps(doc, ensure_ascii=True)
    if doc is None:
        return "null"
    raise TypeError(f"cannot encode {type(doc).__name__}")


def dumps(doc: Any) -> str:
    """Deterministic encoding: construction key order, 2-space indent,
    floats at 17 significant digits.  Lists of ``[float, float]`` pairs
    (matrix data, eigenvalues) take a flat path with the same bytes."""
    return _fragment(doc, 0)
