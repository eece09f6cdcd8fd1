"""Workload generators and the output gate for the qosc benchmark.

A workload is a cycle of *slots*.  A slot fixes the kind of CLI call, the
mode and the input size (``k``, grid length); the set of slots is the same
for every seed, so every run measures the same mix of sizes.  The seed
draws the slot order and one offset per slot.  Repetition ``r`` of the
cycle places each slot's epsilon at ``frac(offset + r * PHI)`` inside the
slot's epsilon range (a Weyl sequence), so successive cycles cover the
range evenly and the share of failing points settles as a run gets longer
instead of depending on a handful of draws.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

# golden-ratio step of the low-discrepancy epsilon sequence
PHI = (math.sqrt(5.0) - 1.0) / 2.0

MODES = ("unimodular", "realline")

SWEEP_COLUMNS = [
    "mode", "epsilon", "l", "k", "status", "casimir_re", "casimir_im",
    "res_algebra", "res_ladder", "res_hopf", "res_star", "res_suq2",
]
SWEEP_STATUSES = {"ok", "fail", "skipped:singular", "skipped:parity"}


@dataclass(frozen=True)
class Slot:
    """One position of the cycle: what to call and at which size."""

    kind: str  # "verify", "star", "sweep" or "rep" ("symbolic" in the self-test)
    mode: str
    k: int  # verify/star/rep: the k; sweep: the highest k (grid is 0..k)
    eps_lo: float  # epsilon range of the slot (sweep: range of the grid)
    eps_hi: float
    n_eps: int = 1  # sweep only: epsilon points per op


@dataclass
class Op:
    """One CLI invocation with everything the gate needs to judge it."""

    slot: Slot
    argv: list[str]
    points: int  # parameter points the op asks for
    epsilons: tuple[float, ...]
    out_path: Optional[str] = None


@dataclass
class Outcome:
    """What one executed op returned."""

    code: Optional[int]  # exit code; None when main() raised
    stdout: str
    stderr: str
    error: Optional[str] = None
    output: bytes = b""  # the document the op produced (stdout or --out file)
    rep: object = None  # rep-json: the representation read back


@dataclass
class Verdict:
    """Gate result: ``gate_ok`` is False when the output itself is broken;
    ``mismatched`` counts points whose outcome missed its expectation."""

    gate_ok: bool
    points: int
    mismatched: int
    reason: str = ""
    json_bytes: int = 0


def _star_checks(mode: str) -> str:
    return "star:canonical" if mode == "unimodular" else "star:canonical,star:imaginary"


def _fmt(x: float) -> str:
    return repr(float(x))


def workload(name: str, tiny: bool = False) -> list[Slot]:
    """The slot list of a named workload; ``tiny`` shrinks every size."""
    if name == "verify-tensor":
        lo, hi = 0.1, 1.2
        if tiny:
            per_mode = [("star", 4), ("verify", 2), ("verify", 3)]
        else:
            per_mode = [("star", k) for k in range(12, 21)]
            per_mode += [("verify", k) for k in (6, 7, 8, 9, 9, 9)]
        return [Slot(kind, mode, k, lo, hi) for mode in MODES for kind, k in per_mode]
    if name == "sweep-grid":
        lo, hi = 0.1, 3.0
        n_eps, k_hi = (2, 1) if tiny else (5, 3)
        slots = []
        for mode, n_slots in zip(MODES, (2, 1) if tiny else (8, 4)):
            width = (hi - lo) / n_slots
            slots += [Slot("sweep", mode, k_hi, lo + i * width, lo + (i + 1) * width, n_eps)
                      for i in range(n_slots)]
        return slots
    if name == "rep-json":
        lo, hi = 0.1, 1.2
        ks = (4, 6) if tiny else range(32, 65, 2)
        return [Slot("rep", mode, k, lo, hi) for mode in MODES for k in ks]
    raise ValueError(f"unknown workload {name!r}")


def plan(name: str, slots: list[Slot], seed: int) -> tuple[list[Slot], list[float]]:
    """Seeded cycle: the first slot stays first (it is the warm-up op), the
    rest are shuffled; each slot gets its own offset in [0, 1)."""
    rng = random.Random(f"{name}:{seed}")
    rest = list(slots[1:])
    rng.shuffle(rest)
    order = [slots[0]] + rest
    offsets = [rng.random() for _ in order]
    return order, offsets


def make_op(slot: Slot, offset: float, rep_index: int, out_path: Optional[str]) -> Op:
    """The op a slot issues in cycle repetition ``rep_index``."""
    x = math.fmod(offset + rep_index * PHI, 1.0)
    if slot.kind == "sweep":
        step = (slot.eps_hi - slot.eps_lo) / slot.n_eps
        start = slot.eps_lo + x * step
        eps = tuple(start + i * step for i in range(slot.n_eps))
        # hi half a step past the last point, so the CLI's count is exact
        grid = f"{_fmt(start)}:{_fmt(start + (slot.n_eps - 0.5) * step)}:{_fmt(step)}"
        argv = ["sweep", "--mode", slot.mode, f"--epsilon-grid={grid}",
                "--k", f"0..{slot.k}", "--format", "csv"]
        return Op(slot, argv, slot.n_eps * (slot.k + 1), eps)
    eps = slot.eps_lo + x * (slot.eps_hi - slot.eps_lo)
    head = ["--mode", slot.mode, "--epsilon", _fmt(eps)]
    if slot.kind == "verify":
        argv = ["verify", *head, "--k", str(slot.k), "--format", "json"]
    elif slot.kind == "star":
        argv = ["verify", *head, "--k", str(slot.k), "--format", "json",
                "--checks", _star_checks(slot.mode)]
    elif slot.kind == "rep":
        argv = ["rep", *head, "--k", str(slot.k), "--format", "json", "--out", out_path]
        return Op(slot, argv, 1, (eps,), out_path)
    else:
        raise ValueError(f"unknown slot kind {slot.kind!r}")
    return Op(slot, argv, 1, (eps,))


# ---------------------------------------------------------------------------
# output gate


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _gate_checks_doc(doc: dict, code: int, need_expected: bool) -> Verdict:
    checks = doc["checks"]
    if not checks:
        return Verdict(False, 1, 1, "report lists no checks")
    if not _finite(c["residual"] for c in checks):
        return Verdict(False, 1, 1, "non-finite residual")
    if need_expected:
        missed = any(c["pass"] != (c["expected"] == "pass") for c in checks)
    else:
        missed = any(not c["pass"] for c in checks)
    if code != (1 if missed else 0):
        return Verdict(False, 1, 1, f"exit code {code} disagrees with the report")
    return Verdict(True, 1, int(missed))


def _gate_sweep(op: Op, text: str, code: int) -> Verdict:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return Verdict(False, op.points, op.points, "CSV header differs")
    body = rows[1:]
    if len(body) != op.points:
        return Verdict(False, op.points, op.points,
                       f"{len(body)} rows for a grid of {op.points}")
    want = [(e, k) for e in op.epsilons for k in range(op.slot.k + 1)]
    fails = 0
    for row, (eps, k) in zip(body, want):
        rec = dict(zip(SWEEP_COLUMNS, row))
        if rec["mode"] != op.slot.mode or int(rec["k"]) != k:
            return Verdict(False, op.points, op.points, "row order differs from the grid")
        if not math.isclose(float(rec["epsilon"]), eps, rel_tol=1e-12):
            return Verdict(False, op.points, op.points, "row epsilon differs from the grid")
        if rec["status"] not in SWEEP_STATUSES:
            return Verdict(False, op.points, op.points, f"unknown status {rec['status']!r}")
        cells = [rec[c] for c in SWEEP_COLUMNS[5:] if rec[c] != ""]
        if not _finite(float(c) for c in cells):
            return Verdict(False, op.points, op.points, "non-finite residual")
        fails += rec["status"] == "fail"
    if code != (1 if fails else 0):
        return Verdict(False, op.points, op.points, f"exit code {code} disagrees with the rows")
    return Verdict(True, op.points, fails)


def _reps_equal(a, b) -> bool:
    import numpy as np

    return (
        a.params == b.params
        and a.k == b.k
        and a.normalized == b.normalized
        and complex(a.nu0) == complex(b.nu0)
        and tuple(map(complex, a.lambdas)) == tuple(map(complex, b.lambdas))
        and all(np.array_equal(x, y) for x, y in ((a.A, b.A), (a.Abar, b.Abar), (a.Nmat, b.Nmat)))
    )


def _gate_rep(op: Op, out: Outcome) -> Verdict:
    from qosc.qcore import make_params
    from qosc.repbuild import build_rep, choose_branch

    if out.code != 0:
        return Verdict(False, 1, 1, f"exit code {out.code}")
    eps = op.epsilons[0]
    fresh = build_rep(make_params(op.slot.mode, eps, choose_branch(op.slot.mode, eps)), op.slot.k)
    if not _reps_equal(out.rep, fresh):
        return Verdict(False, 1, 1, "JSON round trip differs from build_rep", len(out.output))
    return Verdict(True, 1, 0, json_bytes=len(out.output))


def judge(op: Op, out: Outcome) -> Verdict:
    """Check one op's output.  A raised exception, an exit code outside
    {0, 1}, output that does not parse or disagrees with the exit code, a
    wrong row count or a non-finite residual fails the gate and counts all
    of the op's points as failed."""
    if out.error is not None:
        return Verdict(False, op.points, op.points, out.error)
    if op.slot.kind == "rep":
        return _gate_rep(op, out)
    if out.code not in (0, 1):
        first = out.stderr.strip().splitlines()[:1]
        return Verdict(False, op.points, op.points, f"exit code {out.code}: {first}")
    try:
        if op.slot.kind == "sweep":
            return _gate_sweep(op, out.stdout, out.code)
        doc = json.loads(out.stdout)
        verdict = _gate_checks_doc(doc, out.code, need_expected=op.slot.kind != "symbolic")
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, op.points, op.points, f"unparseable output: {exc!r}")
    verdict.json_bytes = len(out.output)
    return verdict

