"""JSON schemas for matrices, representations, involutions and reports.

Complex scalars serialize as two-element ``[re, im]`` arrays; matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with row-major data.
:func:`dumps_rep` writes a representation's document straight from its
matrix arrays, with the bytes of ``dumps(rep_to_json(rep))``.
Serialization is deterministic: key order is fixed by construction and
floats are written with 17 significant digits, and negative zero as
``-0.0``, which is lossless for IEEE doubles and byte-stable across runs.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Callable

import numpy as np

from .algcheck import CheckReport
from .errors import QoscError
from .hopfstar import Flavor, InvolutionSpec
from .qcore import Mode, QParams, make_params
from .repbuild import Rep, build_rep, nu0


def cnum(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_doc(m: np.ndarray) -> dict[str, Any]:
    """``matrix_to_json``'s document with its data left as the flat complex array,
    which :func:`dumps` encodes with the same bytes as the pair list."""
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": np.ascontiguousarray(m, complex).reshape(-1)}


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    doc = _matrix_doc(m)
    doc["data"] = doc["data"].view(np.float64).reshape(-1, 2).tolist()
    return doc


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
    if type(doc["epsilon"]) not in (int, float) or type(doc["l"]) is not int:
        raise ValueError("params.epsilon must be a number and params.l an int")
    return make_params(Mode(doc["mode"]), doc["epsilon"], doc["l"])


def _number_pairs(pairs: Any, field: str) -> list[complex]:
    """The ``[re, im]`` number pairs of a list as complex; else ``ValueError`` naming ``field``."""
    if type(pairs) is not list or not all(
            type(p) is list and len(p) == 2 and {*map(type, p)} <= {int, float} for p in pairs):
        raise ValueError(f"{field} must hold [re, im] number pairs")
    return [complex(re, im) for re, im in pairs]


def _rep_doc(rep: Rep, matrix: Callable[[np.ndarray], dict[str, Any]]) -> dict[str, Any]:
    """The rep document's key layout, with each matrix written by ``matrix``."""
    return {
        "params": params_to_json(rep.params),
        "k": rep.k,
        "nu0": cnum(rep.nu0),
        "lambdas": [cnum(lam) for lam in rep.lambdas],
        "normalized": rep.normalized,
        "A": matrix(rep.A),
        "Abar": matrix(rep.Abar),
        "N": matrix(rep.Nmat),
    }


def rep_to_json(rep: Rep) -> dict[str, Any]:
    return _rep_doc(rep, matrix_to_json)


def dumps_rep(rep: Rep) -> str:
    """``dumps(rep_to_json(rep))``, encoded from the matrix arrays without their pair lists."""
    return dumps(_rep_doc(rep, _matrix_doc))


def rep_from_json(doc: dict[str, Any]) -> Rep:
    """Inverse of ``rep_to_json``; a document that disagrees with itself raises ``ValueError``.

    ``k`` must be an int >= 0, ``A``, ``Abar`` and ``N`` each (k+1)x(k+1),
    ``lambdas`` k long, ``normalized`` a bool, ``diag(N)`` equal to
    ``nu0 + n`` and, for a normalized rep, ``nu0``, ``lambdas``, ``A``, ``Abar``
    and ``N`` the ones :func:`~qosc.repbuild.build_rep` gives at ``params``."""
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
    lambdas = _number_pairs(doc["lambdas"], "lambdas")
    if len(lambdas) != k:
        raise ValueError(f"{len(lambdas)} lambdas, but k={k} needs {k}")
    if type(doc["normalized"]) is not bool:
        raise ValueError(f"normalized must be a bool, got {doc['normalized']!r}")
    params, (base,) = params_from_json(doc["params"]), _number_pairs([doc["nu0"]], "nu0")
    if not np.array_equal(np.diag(nmat), base + np.arange(k + 1)):
        raise ValueError(f"diag(N) is not nu0 + n for nu0={base}")
    if doc["normalized"] and base != nu0(params, k):
        raise ValueError(f"nu0={base}, but these params give {nu0(params, k)}")
    rep = Rep(
        params=params,
        k=k,
        A=a,
        Abar=abar,
        Nmat=nmat,
        nu0=base,
        lambdas=tuple(lambdas),
        normalized=doc["normalized"],
    )
    if rep.normalized:
        try:
            built = build_rep(params, k)
        except QoscError as exc:
            raise ValueError(f"build_rep rejects these params: {exc}") from exc
        for name in ("lambdas", "A", "Abar", "Nmat"):
            if not np.array_equal(getattr(rep, name), getattr(built, name)):
                raise ValueError(f"{name} disagrees with build_rep at these params")
    return rep


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
    return check_to_json(r.name, r.residual, r.tolerance, r.passed, expected)


def check_to_json(name: str, residual: Any, tolerance: float, passed: Any,
                  expected: str | None = None) -> dict[str, Any]:
    """The document of one check's report, with or without its expected outcome."""
    doc: dict[str, Any] = {"name": name, "residual": residual, "tolerance": tolerance,
                           "pass": passed}
    if expected is not None:
        doc["expected"] = expected
    return doc


def float_to_json(x: float) -> str:
    """A float as :func:`dumps` writes it; a non-finite one raises ``ValueError``."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} has no JSON encoding")
    text = format(x, ".17g")
    # "-0" would parse back as the int 0 and lose the sign bit
    return "-0.0" if text == "-0" else text


def _pairs(view: np.ndarray, level: int) -> str:
    """Encoding of an ``(n, 2)`` float64 array as the list of its ``[re, im]``
    rows, with the bytes ``_fragment`` would write for that list.

    Only the rows with a set bit are formatted; every all-zero row shares one
    fragment.  ``-0.0`` has its sign bit set, so it keeps its sign."""
    outer, inner = "  " * (level + 1), "  " * (level + 2)
    head, mid, tail = f"{outer}[\n{inner}", f",\n{inner}", f"\n{outer}]"
    zero = float_to_json(0.0)
    parts = [f"{head}{zero}{mid}{zero}{tail}"] * len(view)
    bits = view.view(np.uint64)
    nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1])
    for i, (re, im) in zip(nonzero.tolist(), view[nonzero].tolist()):
        parts[i] = f"{head}{float_to_json(re)}{mid}{float_to_json(im)}{tail}"
    return _bracket(parts, level)


def _bracket(items: Any, level: int, brackets: str = "[]") -> str:
    """``items`` one per line between ``brackets``, built in one copy."""
    body = ",\n".join(items)
    return f"{brackets[0]}\n{body}\n{'  ' * level}{brackets[1]}"


def _float_pairs(doc: list | tuple) -> np.ndarray | None:
    """A non-empty list whose items are all ``[float, float]`` lists or tuples,
    as an ``(n, 2)`` float64 array; None for any other list."""
    if not set(map(type, doc)) <= {list, tuple} or set(map(len, doc)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(doc))
    if set(map(type, flat)) != {float}:
        return None
    return np.fromiter(flat, np.float64, len(flat)).reshape(-1, 2)


def _fragment(doc: Any, level: int) -> str:
    pad = "  " * (level + 1)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (f'{pad}{json.dumps(key)}: {_fragment(val, level + 1)}' for key, val in doc.items())
        return _bracket(items, level, "{}")
    if isinstance(doc, np.ndarray):
        if doc.dtype != complex or doc.ndim != 1:
            raise TypeError(f"cannot encode a {doc.ndim}-D {doc.dtype} ndarray")
        view = np.ascontiguousarray(doc).view(np.float64).reshape(-1, 2)
        return _pairs(view, level) if len(view) else "[]"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        pairs = _float_pairs(doc)
        if pairs is not None:
            return _pairs(pairs, level)
        items = (pad + _fragment(val, level + 1) for val in doc)
        return _bracket(items, level)
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, float):
        return float_to_json(doc)
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, str):
        return json.dumps(doc, ensure_ascii=True)
    if doc is None:
        return "null"
    raise TypeError(f"cannot encode {type(doc).__name__}")


def scalar_to_json(value: Any) -> str:
    """A float, bool, int, string or None as :func:`dumps` writes it."""
    return _fragment(value, 0)


def dumps(doc: Any) -> str:
    """Deterministic encoding: construction key order, 2-space indent,
    floats at 17 significant digits.  Lists of ``[float, float]`` pairs
    (matrix data, eigenvalues) and 1-D complex arrays, written as the list
    of their ``[re, im]`` pairs, take one array-fed path."""
    return _fragment(doc, 0)
