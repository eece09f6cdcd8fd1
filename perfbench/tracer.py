"""In-memory spans around the calls ``qosc.cli`` makes into each layer.

The tracer replaces, for the duration of a traced cycle, every function
that ``qosc.cli`` imported from another ``qosc`` module with a wrapper
that records one span per call: id, parent id, op id, name, layer, start
and end (``perf_counter_ns``) and, for the tensor checks, the dimension of
the representation.  Nothing inside the package is edited; calls a layer
makes to itself are part of the caller's span.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "qcore", "repbuild", "algcheck", "hopfstar", "sumap", "normform", "jsonio")

# Dense matrices the parent's tensor checks form, counted from its code:
# check_hopf_axioms builds 7 tensor-square krons for the three coproducts
# and 22 square + 22 cube krons for both sides of coassociativity;
# check_star_structure builds 15 tensor-square krons.  Complex entries are
# 16 bytes, so the computed footprint is 16 * (n_sq * d**4 + n_cube * d**6).
_DENSE_KRONS = {"check_hopf_axioms": (29, 22), "check_star_structure": (15, 0)}

# span fields
SID, PARENT, OP, NAME, LAYER, T0, T1, DIM = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str, layer: str, dim: int = 0) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op, name, layer, perf_counter_ns(), 0, dim])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][T1] = perf_counter_ns()
        while self._stack and self._stack.pop() != sid:
            pass

    def _wrap(self, fn, layer: str):
        tracer = self
        sized = fn.__name__ in _DENSE_KRONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(fn.__name__, layer, args[0].dim if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)

        return traced

    @contextmanager
    def installed(self, cli_module):
        """Wrap every layer function bound in ``cli_module`` while active."""
        originals = {
            name: obj
            for name, obj in vars(cli_module).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("qosc.")
            and obj.__module__ != cli_module.__name__
        }
        for name, fn in originals.items():
            setattr(cli_module, name, self._wrap(fn, fn.__module__.rsplit(".", 1)[1]))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli_module, name, fn)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "layer", "t0_ns", "t1_ns", "dim")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per op (and per built point)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[T1] - s[T0]
    layer_calls: Counter = Counter()
    self_ns: Counter = Counter()
    name_calls: Counter = Counter()
    name_ns: Counter = Counter()
    dense = write_ns = 0
    for s in spans:
        dur = s[T1] - s[T0]
        layer_calls[s[LAYER]] += 1
        self_ns[s[LAYER]] += dur - child_ns[s[SID]]
        name_calls[s[NAME]] += 1
        name_ns[s[NAME]] += dur
        if s[NAME] in _DENSE_KRONS:
            n_sq, n_cube = _DENSE_KRONS[s[NAME]]
            dense += 16 * (n_sq * s[DIM] ** 4 + n_cube * s[DIM] ** 6)
        if s[LAYER] == "jsonio" and s[NAME] != "read_back":
            write_ns += dur
    ops = max(name_calls["op"], 1)
    op_ns = name_ns["op"]
    points = name_calls["build_rep"]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (layer_calls[layer] / ops, "count/op")
        out[f"{layer}.self_ms"] = (self_ns[layer] / ops / 1e6, "ms/op")
        out[f"{layer}.share"] = (self_ns[layer] / op_ns if op_ns else 0.0, "share")
    out["hopfstar.hopf_ms"] = (name_ns["check_hopf_axioms"] / ops / 1e6, "ms/op")
    out["hopfstar.star_ms"] = (name_ns["check_star_structure"] / ops / 1e6, "ms/op")
    out["hopfstar.dense_bytes"] = (dense / points if points else 0.0, "B/point")
    out["algcheck.casimir_calls_per_point"] = (
        name_calls["casimir"] / points if points else 0.0, "count/point")
    out["jsonio.write_ms"] = (write_ns / ops / 1e6, "ms/op")
    out["jsonio.read_ms"] = (name_ns["read_back"] / ops / 1e6, "ms/op")
    return out
