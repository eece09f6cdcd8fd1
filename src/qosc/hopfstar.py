"""Hopf structure on the deformed oscillator and its star structures.

The coproduct is
``D(a) = a (x) K + K^-1 (x) a`` (same for the raising generator) and
``D(N) = N (x) 1 + 1 (x) N + gamma 1 (x) 1``, where ``K = q**((N+gamma)/2)``
is group-like.  The branch value of ``gamma`` satisfies
``q**(2*gamma-1) = -1``, which is exactly what makes ``D`` an algebra map.

Two star flavors are checked: the standard one, where the involution
commutes with the coproduct, and the nonstandard one, where it lands on
the opposite coproduct.  On the unit circle the canonical involution
(exchanging the ladder pair, fixing N) is nonstandard; on the real line
the workable involutions pick up factors ``-+i`` and shift N by an
imaginary constant, and are standard.

Every tensor-square and tensor-cube arm (homomorphism, coassociativity and
the star coproduct) runs on graded data: each symbol is a weighted shift
``diag(w) S^m`` of one N-degree, so these arms cost O(d**2) / O(d**3) instead
of the dense O(d**4) / O(d**6), and :func:`coproduct` returns graded blocks.
The rep's dense ``A``/``Abar``/``Nmat`` remain the public and JSON view and
serve the d*d arms (counit, antipode, star matrices).

:func:`check_hopf_axioms` and :func:`check_star_structure` take either one
:class:`~qosc.repbuild.Rep` or a :class:`~qosc.repbuild.RepBatch` (defined
in :mod:`qosc.repbuild`, re-exported here) of representations of one mode
and any ``k``, under the batch contract of :mod:`qosc.algcheck`, and give
one :class:`~qosc.algcheck.ReportBlock` of residuals.  Which weights
multiply which, at which offsets, and the order of every sum depend only on
the family (the Hopf check, a star flavor or the coproduct), so each family
is compiled once into a plan (:func:`_plan`): a fixed sequence of numpy
calls on ``(slots, members, ...)`` stacks, whatever ``k`` and the batch
size.  A plan runs once per k group of a batch, on the views of its
members' own blocks, so padding costs it nothing.  The scalar data, the
tables' values among them, are ``(members, ...)`` inputs: ``K``, the
antipode constants and the bracket steps are read from the batch's
:class:`~qosc.qcore.PowerTable` at each member's own ``k``, and the star
steps take one ``q**eta`` per member on top.  So a member's residuals are bit for bit those of the single-rep
call.  Every check evaluates every member, and a
member whose scalars leave the double range leaves only when the block is
cut.  A single rep is the batch of one and gets its reports.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
from enum import Enum
from typing import Any, Optional, Sequence, Union

import numpy as np

from .algcheck import (
    DEFAULT_TOL,
    CheckReport,
    ReportBlock,
    _arm_residuals,
    _columns,
    as_batch,
    cut,
    diag_stack,
    finite_members,
    residual_of,
    unbatch,
)
from .errors import ModeMismatch, NoSolution
from .qcore import Mode, QParams, _branch_shift
from .repbuild import Rep, RepBatch, blank

_GENERATORS = ("a", "abar", "N")


class Flavor(str, Enum):
    STANDARD = "standard"
    NONSTANDARD = "nonstandard"


class InvolutionKind(str, Enum):
    CANONICAL = "canonical"
    IMAGINARY_PLUS = "imaginary_plus"
    IMAGINARY_MINUS = "imaginary_minus"


# Graded operators.  Every symbol is homogeneous in the N-grading, so its d*d
# matrix is a weighted shift of one degree m: entry ``(j+m, j)`` holds
# ``w[j]``, and slots whose row leaves the block hold exact zeros.  A tensor
# product of shifts is a pair ``(degrees, weights)`` whose weights are the
# outer product of the factors' weights; a sum of such products is a dict
# ``{degrees: weights}``.  Distinct degree tuples never share a dense entry,
# so sums, the factor swap and max-abs norms act block by block and give
# exactly the dense values at O(d**2) / O(d**3) cost.
#
# This algebra runs once per family, on the symbolic values of a plan (:class:`_Sym`):
# it works out which weights multiply which, at which offsets, and the order
# of every sum.  A call runs the compiled :class:`_Plan` on stacked
# ``(slots, members, ...)`` arrays.

#: every symbol of the Hopf table, in the order of the realization's stacks
_SYMBOLS = (*_GENERATORS, "one", "gone", "qp", "qm")

#: N-grading degree of the symbols that are not diagonal
_DEGREE = {"a": -1, "abar": 1}


def _is_int_zero(x: Any) -> bool:
    return type(x) is int and x == 0


class _Sym:
    """A value of a plan being compiled: node ``id`` of ``tape``, of rank 0 (one
    scalar per member), 1 (weights ``(d,)``), 2 (``(d, d)``) or 3 (``(d, d, d)``).

    Arithmetic records nodes in operand order (a complex product does not
    commute to the bit).  A Python float stays a float until it meets a
    node, as it does in the tables.  The int 0 is the block a graded sum
    lacks: ``0 + x`` and ``x - 0`` are ``x``, and ``0 - x`` is ``-x``.
    """

    __slots__ = ("tape", "id", "rank")

    def __init__(self, tape: "_Tape", id: int, rank: int) -> None:
        self.tape, self.id, self.rank = tape, id, rank

    def _binary(self, op: str, other: Any, reverse: bool = False) -> "_Sym":
        if not isinstance(other, _Sym):
            other = self.tape.node("lit", 0, param=complex(other))
        x, y = (other, self) if reverse else (self, other)
        return self.tape.node(op, x.rank + y.rank if op == "outer" else max(x.rank, y.rank), x, y)

    def __add__(self, other: Any) -> "_Sym":
        return self._binary("add", other)

    def __radd__(self, other: Any) -> "_Sym":
        return self if _is_int_zero(other) else self._binary("add", other, True)

    def __sub__(self, other: Any) -> "_Sym":
        return self if _is_int_zero(other) else self._binary("sub", other)

    def __rsub__(self, other: Any) -> "_Sym":
        return -self if _is_int_zero(other) else self._binary("sub", other, True)

    def __mul__(self, other: Any) -> "_Sym":
        return self._binary("mul", other)

    def __rmul__(self, other: Any) -> "_Sym":
        return self._binary("mul", other, True)

    def __matmul__(self, other: "_Sym") -> "_Sym":
        return self._binary("matmul", other)

    def __neg__(self) -> "_Sym":
        return self.tape.node("neg", self.rank, self)

    def conjugate(self) -> "_Sym":
        return self.tape.node("conj", self.rank, self)

    def outer(self, other: "_Sym") -> "_Sym":
        return self._binary("outer", other)

    def swap(self) -> "_Sym":
        """The transposed weights of a tensor square."""
        return self.tape.node("T", 2, self)

    def shift(self, offsets: tuple[int, ...]) -> "_Sym":
        """``weights[:, j + n]`` along each grade axis, zero where ``j + n`` leaves the block."""
        return self.tape.node("shift", 2, self, param=offsets) if any(offsets) else self

    def band(self, degree: int) -> "_Sym":
        """:func:`~qosc.repbuild.band` of a stack of weighted shifts of the given degree."""
        return self.tape.node("band", 1, self, param=degree)


class _Tape:
    """The nodes ``(op, rank, args, param)`` of one plan; equal nodes are one node."""

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}

    def node(self, op: str, rank: int, *args: _Sym, param: Any = None) -> _Sym:
        key = (op, rank, tuple(arg.id for arg in args), param)
        i = self._ids.setdefault(key, len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append(key)
        return _Sym(self, i, rank)

    def input(self, rank: int, name: Any) -> _Sym:
        """An input; each rank's inputs fill its first slots, in the order they are made."""
        return self.node("in", rank, param=name)


def _otimes(left: tuple, right: tuple) -> tuple:
    (ld, lw), (rd, rw) = left, right
    return ld + rd, lw.outer(rw)


def _graded_sum(terms) -> dict:
    """Add weights per degree, in term order (the dense sum's order on every entry)."""
    acc: dict = {}
    for degrees, weights in terms:
        acc[degrees] = acc[degrees] + weights if degrees in acc else weights
    return acc


def _compose(left: dict, right: dict) -> dict:
    """Operator product ``left @ right``: degrees add, left weights are read where right lands."""
    return _graded_sum(
        (tuple(ml + mr for ml, mr in zip(left_deg, right_deg)), wl.shift(right_deg) * wr)
        for left_deg, wl in left.items()
        for right_deg, wr in right.items()
    )


def _minus(lhs: dict, rhs: dict) -> dict:
    return {key: lhs.get(key, 0) - rhs.get(key, 0) for key in lhs.keys() | rhs.keys()}


def _commutator(x: dict, y: dict) -> dict:
    return _minus(_compose(x, y), _compose(y, x))


def _swap(blocks: dict) -> dict:
    """Conjugate by the factor swap ``A (x) B -> B (x) A``: reverse degrees, transpose weights."""
    return {(m2, m1): w.swap() for (m1, m2), w in blocks.items()}


def _affine(elem: tuple, dense: dict) -> Any:
    """``coef * symbol + const * 1``."""
    coef, sym, const = elem
    image = coef * dense[sym]
    if isinstance(const, float) and not const:
        return image
    return image + const * dense["one"]


def _coproduct(cop_terms, graded: dict) -> dict:
    return _graded_sum(_otimes(graded[le], graded[ri]) for le, ri in cop_terms)


#: the largest stacked block, in bytes, a plan step forms at once; a larger
#: step runs node by node on views
_STEP_BYTES = 1 << 24

_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "outer": np.multiply,
           "matmul": np.matmul, "neg": np.negative, "conj": np.conjugate,
           "T": lambda x, out: np.copyto(out, x.swapaxes(-1, -2))}


class _Step:
    """One op over a run of nodes of one kind: one numpy call on stacked slots.

    Per operand, the slots of the nodes' operands are read as a slice where
    they are consecutive; two operands of one rank that are not are read in
    one gather.  A shift or band step takes, flat per member, the entries
    :meth:`_index` names in a copy padded by ``pad`` zeros.  A step whose
    output passes :data:`_STEP_BYTES` runs node by node on views.
    """

    def __init__(self, plan: "_Plan", nodes: list[int]) -> None:
        op, rank, args, _ = plan.nodes[nodes[0]]
        self.op, self.rank, self.count = op, rank, len(nodes)
        self.out = slice(plan.slot[nodes[0]], plan.slot[nodes[-1]] + 1)
        self.ranks = [plan.nodes[arg][1] for arg in args]
        self.slots = [[plan.slot[plan.nodes[i][2][j]] for i in nodes] for j in range(len(args))]
        reads = [_run(slots) or np.array(slots) for slots in self.slots]
        if op in ("shift", "band"):
            # a shift reads (j1 + n1, j2 + n2); a band, row j + degree of column j
            params = [plan.nodes[i][3] for i in nodes]
            self.offsets = np.array([p if op == "shift" else (p, 0) for p in params])
            self.pad = int(np.abs(self.offsets).max())
            self._indices: dict[int, np.ndarray] = {}
            self.read = reads[0]
            self.run = self._padded
            return
        ufunc = _UFUNCS[op]
        if len(args) == 2 and (op == "outer" or self.ranks[0] != self.ranks[1]):
            rx, ry = self.ranks  # a tensor product; a scalar broadcasts
            ex, ey = (...,) + (None,) * ry, (slice(None),) * 2 + (None,) * rx
            self.apply = lambda out, x, y: ufunc(x[ex], y[ey], out=out)
        else:
            self.apply = lambda out, *xs: ufunc(*xs, out=out)
        self.reads = list(zip(self.ranks, reads))
        self.run = self._cubes if rank == 3 else self._stacked
        if rank < 3 and len(args) == 2 and self.ranks[0] == self.ranks[1] and not any(
                isinstance(read, slice) for read in reads):
            self.read = np.concatenate(reads)  # one gather
            self.run = self._gathered

    def _gathered(self, ws: list[np.ndarray]) -> None:
        both = ws[self.ranks[0]][self.read]
        self.apply(ws[self.rank][self.out], both[:self.count], both[self.count:])

    def _stacked(self, ws: list[np.ndarray]) -> None:
        self.apply(ws[self.rank][self.out], *[ws[rank][at] for rank, at in self.reads])

    def _cubes(self, ws: list[np.ndarray]) -> None:
        out = ws[self.rank][self.out]
        if out.nbytes <= _STEP_BYTES or self.count == 1:
            self._stacked(ws)
            return
        for j, slots in enumerate(zip(*self.slots)):
            self.apply(out[j:j + 1], *[ws[rank][s:s + 1] for rank, s in zip(self.ranks, slots)])

    def _index(self, d: int) -> np.ndarray:
        """The flat entries a shift or band step takes, per member, at dimension ``d``."""
        index = self._indices.get(d)
        if index is None:
            size = d + 2 * self.pad
            rows, cols = (self.pad + self.offsets[:, axis, None] + np.arange(d) for axis in (0, 1))
            if self.op == "shift":
                rows, cols = rows[:, :, None], cols[:, None, :]
            which = np.arange(self.count).reshape((-1,) + (1,) * self.rank)
            index = self._indices[d] = ((which * size + rows) * size + cols).ravel()
        return index

    def _padded(self, ws: list[np.ndarray]) -> None:
        out = ws[self.rank][self.out]
        block = ws[self.ranks[0]][self.read].swapaxes(0, 1)  # members first
        d, pad = block.shape[-1], self.pad
        padded = np.zeros(block.shape[:2] + (d + 2 * pad,) * 2, dtype=complex)
        padded[:, :, pad:pad + d, pad:pad + d] = block
        taken = padded.reshape(len(padded), -1).take(self._index(d), axis=1)
        out[...] = taken.reshape((len(padded),) + out.shape[:1] + out.shape[2:]).swapaxes(0, 1)


def _run(slots: list[int]) -> Optional[slice]:
    if slots == list(range(slots[0], slots[0] + len(slots))):
        return slice(slots[0], slots[0] + len(slots))
    return None


def _operand_blocks(op: Any) -> list[_Sym]:
    return list(op.values()) if isinstance(op, dict) else [op]


class _Plan:
    """A check's arms compiled once per family, for every ``d`` and batch size.

    Every node of ``tape`` the arms need gets a slot in the stacked
    workspace of its rank, ``(slots, members, d, ...)``: the inputs first,
    then the literals, then each step's outputs in a run.  A step runs
    nodes of one kind (:func:`_schedule`), so a call makes a fixed number
    of numpy calls.  The residuals read the max-abs of every distinct
    operand block, fold them per operand with one ``np.maximum.reduceat``
    and take each arm ``(name, (defect, *operands))`` through
    :mod:`~qosc.algcheck`'s one residual rule.
    """

    def __init__(self, tape: _Tape, arms: list[tuple[str, tuple]]) -> None:
        self.arms = arms
        nodes = self.nodes = tape.nodes
        operands = [_operand_blocks(op) for _, term in arms for op in term]
        blocks = [sym.id for op in operands for sym in op]
        keep, stack = set(), list(blocks)
        while stack:
            i = stack.pop()
            if i not in keep:
                keep.add(i)
                stack.extend(nodes[i][2])
        self.slot: dict[int, int] = {}
        self.sizes = [0, 0, 0, 0]

        def place(group: list[int]) -> None:
            for i in group:
                self.slot[i] = self.sizes[nodes[i][1]]
                self.sizes[nodes[i][1]] += 1

        place([i for i, node in enumerate(nodes) if node[0] == "in"])  # every input holds its slot
        literals = [i for i in sorted(keep) if nodes[i][0] == "lit"]
        self.literals = (self.sizes[0], np.array([nodes[i][3] for i in literals]))
        place(literals)
        self.steps = []
        for group in _schedule(nodes, keep):
            group.sort(key=lambda i: [self.slot[arg] for arg in nodes[i][2]])
            place(group)
            self.steps.append(_Step(self, group))
        self.names = tuple(name for name, _ in arms)
        self.columns = _columns(arms)
        # the max-abs of each distinct operand block, rank by rank, read once per operand
        self.norms = []
        rows: dict[tuple[int, int], int] = {}  # (rank, slot) of a distinct block -> its row
        for rank in range(4):
            distinct = sorted({self.slot[i] for i in blocks if nodes[i][1] == rank})
            if distinct:
                base = len(rows)
                rows.update(((rank, slot), base + j) for j, slot in enumerate(distinct))
                self.norms.append((rank, np.array(distinct)))
        self.gather = np.array([rows[nodes[i][1], self.slot[i]] for i in blocks])
        self.starts = np.cumsum([0] + [len(op) for op in operands[:-1]])  # each operand's blocks

    def run(self, count: int, d: int, inputs: dict[int, list[np.ndarray]]) -> list[np.ndarray]:
        """The workspace after every step, ``(slots, count, d, ...)`` per rank; ``inputs``
        fill each rank's first slots."""
        ws = [np.empty((size, count) + (d,) * rank, dtype=complex)
              for rank, size in enumerate(self.sizes)]
        for rank, arrays in inputs.items():
            at = 0
            for array in arrays:
                ws[rank][at:at + len(array)] = array
                at += len(array)
        at, values = self.literals
        if len(values):
            ws[0][at:at + len(values)] = values[:, None]
        for step in self.steps:
            step.run(ws)
        return ws

    def residuals(self, batch: RepBatch, inputs: dict[int, list[np.ndarray]]) -> np.ndarray:
        """Per member of ``batch``, the residual of every arm.  ``inputs`` hold every
        member, ``(arrays, members, D, ...)``; the plan runs once per k group of the
        batch, on its members' own blocks."""
        if len(batch.groups) == 1:
            return self._residuals(len(batch.reps), batch.dim, inputs)
        out = np.empty((len(batch.reps), len(self.names)))
        for d, rows in batch.groups:
            own = (slice(None), rows) + (slice(d),) * 3
            group = {rank: [array[own[:2 + rank]] for array in arrays]
                     for rank, arrays in inputs.items()}
            out[rows] = self._residuals(group[1][0].shape[1], d, group)
        return out

    def _residuals(self, count: int, d: int, inputs: dict[int, list[np.ndarray]]) -> np.ndarray:
        ws = self.run(count, d, inputs)
        rows = []
        for rank, at in self.norms:  # a rank's slots are freed once read: a lower peak
            run = max(1, _STEP_BYTES // ws[rank][0].nbytes)  # blocks read at once
            rows += [np.abs(ws[rank][at[j:j + run]]).reshape(-1, count, d ** rank).max(axis=2)
                     for j in range(0, len(at), run)]
            ws[rank] = None
        flat = rows[0] if len(rows) == 1 else np.concatenate(rows)
        return _arm_residuals(np.maximum.reduceat(flat[self.gather], self.starts).T, self.columns)


def _schedule(nodes: list[tuple], keep: set[int]) -> list[list[int]]:
    """The computed nodes among ``keep`` in steps of one kind (op and operand ranks).

    The largest kind whose pending nodes are all ready runs next; if no kind
    is whole, the kind with the most ready nodes does.
    """
    kind: dict[int, tuple] = {}
    users: dict[int, list[int]] = {}
    waiting: dict[int, int] = {}
    pending: dict[tuple, int] = {}  # kind -> its nodes not yet run
    ready: dict[tuple, list[int]] = {}  # kind -> its nodes whose operands have run
    for i in sorted(keep):
        op, rank, args, _ = nodes[i]
        if op in ("in", "lit"):
            continue
        k = kind[i] = (op, rank, tuple(nodes[arg][1] for arg in args))
        pending[k] = pending.get(k, 0) + 1
        deps = {arg for arg in args if arg in kind}
        waiting[i] = len(deps)
        for arg in deps:
            users.setdefault(arg, []).append(i)
        if not deps:
            ready.setdefault(k, []).append(i)
    steps = []
    while ready:
        whole = [k for k, run in ready.items() if len(run) == pending[k]]
        k = max(whole or ready, key=lambda k: len(ready[k]))  # in a whole kind, ready = pending
        step = ready.pop(k)
        pending[k] -= len(step)
        for i in step:
            for user in users.get(i, ()):
                waiting[user] -= 1
                if not waiting[user]:
                    ready.setdefault(kind[user], []).append(user)
        steps.append(step)
    return steps


#: coproduct of every symbol of the Hopf table, as sums of symbol pairs
_COPRODUCT = {
    "a": (("a", "qp"), ("qm", "a")),
    "abar": (("abar", "qp"), ("qm", "abar")),
    "N": (("N", "one"), ("one", "N"), ("gone", "one")),
    "qp": (("qp", "qp"),),
    "qm": (("qm", "qm"),),
    "one": (("one", "one"),),
    "gone": (("gone", "one"),),
}


def _hopf_table(gamma: Any, k_minus: Any, k_plus: Any):
    """Counit and antipode of every symbol, at ``gamma`` and ``q**(-+1/2)``.

    Every antipode image is affine, ``(coef, symbol, const)`` standing for
    ``coef * symbol + const * 1``; the antipode of ``a`` and ``abar`` takes
    ``-q**(-+1/2)``.
    """
    counit = {
        "a": 0.0, "abar": 0.0, "N": -gamma,
        "qp": 1.0, "qm": 1.0, "one": 1.0, "gone": gamma,
    }
    antipode = {
        "a": (-k_minus, "a", 0.0),
        "abar": (-k_plus, "abar", 0.0),
        "N": (-1.0, "N", -2.0 * gamma),
        "qp": (1.0, "qm", 0.0),
        "qm": (1.0, "qp", 0.0),
        "one": (1.0, "one", 0.0),
        "gone": (1.0, "gone", 0.0),
    }
    return counit, antipode


def _hopf_values(batch: RepBatch) -> np.ndarray:
    """The values :func:`_hopf_table` takes, ``(values, members)``, from the batch."""
    pw = batch.powers
    return np.array([[p.gamma for p in batch.params], pw(-2), pw(2)], dtype=complex)


class _Realization:
    """Dense stacks and graded weights of every symbol of :func:`_hopf_table`.

    ``stack`` holds the ``(symbols, members, d, d)`` dense matrices and
    ``weights`` the ``(symbols, members, d)`` graded weights, in
    :data:`_SYMBOLS` order; ``dense`` names the stack's symbols.  ``qp``,
    ``qm`` are ``K``, ``K^-1``, read from the batch's power table; a member
    whose powers leave the double range keeps its ``OverflowError`` in
    ``overflow``.  The generators' weights are the batch's
    (:attr:`~qosc.repbuild.RepBatch.weights`), validated there.
    """

    def __init__(self, batch: RepBatch) -> None:
        count, d = len(batch.reps), batch.dim
        pw, twice = batch.powers, 2 * np.arange(d)  # K = q**((N + gamma)/2): u**(2n - k)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = (pw.root[:, None] * pw(twice, -batch.ks),
                      pw(-twice, batch.ks) / pw.root[:, None])
        self.overflow = finite_members(*(blank(p, batch.groups) for p in powers))
        self.stack = np.zeros((len(_SYMBOLS), count, d, d), dtype=complex)
        self.stack[:3] = batch.A, batch.Abar, batch.Nmat
        diagonals = self.stack.reshape(len(_SYMBOLS), count, d * d)[:, :, ::d + 1]
        diagonals[3] = 1.0
        diagonals[4] = np.array([p.gamma for p in batch.params], dtype=complex)[:, None]
        diagonals[5:] = powers
        self.dense = dict(zip(_SYMBOLS, self.stack))
        self.weights = np.concatenate((batch.weights, diagonals[3:]))


def _realize(rep: Rep) -> _Realization:
    """The realization of a single rep, raising the overflow of its ``K`` powers."""
    real = RepBatch((rep,)).derived(_Realization)
    if real.overflow:
        raise real.overflow[0]
    return real


def _symbols(t: _Tape) -> tuple[dict, dict]:
    """The graded weights and the dense matrices of every symbol, as inputs."""
    graded = {sym: ((_DEGREE.get(sym, 0),), t.input(1, sym)) for sym in _SYMBOLS}
    return graded, {sym: t.input(2, sym) for sym in _SYMBOLS}


@functools.lru_cache(maxsize=None)
def _plan(family: Union[str, Flavor]) -> _Plan:
    """The plan of one family: ``"hopf"``, a star flavor or ``"coproduct"``.

    Each table is built once, here, on rank-0 inputs: the Hopf table's values
    (:func:`_hopf_values`), then a star flavor's (:func:`_star_values`).
    """
    t = _Tape()
    graded, dense = _symbols(t)
    if family == "coproduct":
        arms = [(gen, (_coproduct(_COPRODUCT[gen], graded),)) for gen in _GENERATORS]
    elif family == "hopf":
        arms = _hopf_arms(t, graded, dense, *_hopf_table(*(t.input(0, j) for j in range(3))))
    else:
        arms = _star_arms(t, graded, dense, *_hopf_table(*(t.input(0, j) for j in range(3))),
                          _star_table(*(t.input(0, j) for j in range(3, 6))), family)
    return _Plan(t, arms)


def coproduct(rep: Rep, gen: str) -> dict[tuple[int, int], np.ndarray]:
    """Coproduct of a generator on the tensor square, as graded blocks ``{(m1, m2): weights}``."""
    if gen not in _GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    real = _realize(rep)
    plan = _plan("coproduct")
    ws = plan.run(1, rep.dim, {1: [real.weights], 2: [real.stack]})
    (blocks,) = dict(plan.arms)[gen]
    return {deg: ws[2][plan.slot[w.id], 0] for deg, w in blocks.items()}


def _hopf_arms(t: _Tape, graded: dict, dense: dict, counit: dict, antipode: dict) -> list:
    """The arms of :func:`check_hopf_axioms`, each ``(name, (defect, *operands))``."""
    cop = _COPRODUCT
    # the diagonal block of D(N) holds 2 nu0 + gamma + i + j = nu0 + eta + (4(i+j) - 2k)/4,
    # with q**eta = root**2
    steps = t.input(2, "steps")

    # every tensor square of the table, shared by the coproducts and both coassociativity sides
    pairs = {term: _otimes(graded[term[0]], graded[term[1]]) for terms in cop.values()
             for term in terms}
    da, dab, dn = (_graded_sum(pairs[term] for term in cop[gen]) for gen in _GENERATORS)
    arms = [
        ("homomorphism_commutator", (_minus(_commutator(da, dab), {(0, 0): steps}), da, dab)),
        ("homomorphism_raise", (_minus(_commutator(dn, dab), dab), dn, dab)),
        ("homomorphism_lower", (_minus(_commutator(da, dn), da), dn, da)),  # -([DN, Da] + Da)
    ]

    for gen in _GENERATORS:
        left = _graded_sum(
            _otimes(pairs[term], graded[ri]) for le, ri in cop[gen] for term in cop[le]
        )
        right = _graded_sum(
            _otimes(graded[le], pairs[term]) for le, ri in cop[gen] for term in cop[ri]
        )
        arms.append((f"coassoc_{gen}", (_minus(left, right), left, right)))

    for gen in _GENERATORS:
        lhs_l = sum(counit[le] * dense[ri] for le, ri in cop[gen])
        lhs_r = sum(dense[le] * counit[ri] for le, ri in cop[gen])
        arms.append((f"counit_left_{gen}", (lhs_l - dense[gen], lhs_l, dense[gen])))
        arms.append((f"counit_right_{gen}", (lhs_r - dense[gen], lhs_r, dense[gen])))

    s_image = {sym: _affine(antipode[sym], dense) for sym in cop}
    for gen in _GENERATORS:
        target = counit[gen] * dense["one"]
        for side, products in (
            ("left", [s_image[le] @ dense[ri] for le, ri in cop[gen]]),
            ("right", [dense[le] @ s_image[ri] for le, ri in cop[gen]]),
        ):
            arms.append((f"antipode_{side}_{gen}", (sum(products) - target, products[0])))
    return arms


@np.errstate(over="ignore", invalid="ignore")  # a non-finite scalar drops its member below
def check_hopf_axioms(
    reps: Union[Rep, RepBatch], tol: float = DEFAULT_TOL
) -> Union[list[CheckReport], ReportBlock]:
    """Algebra-map property of the coproduct plus the three Hopf axioms.

    Runs at every ``k`` a rep admits (the cube arms cost O(d**3)).  Each
    antipode side is scaled by its first product, where its products cancel.

    A :class:`RepBatch` gives one :class:`~qosc.algcheck.ReportBlock`, which
    drops a member with the ``OverflowError`` its scalar data raised.  A
    single rep gives its reports and raises its overflow.
    """
    batch = as_batch(reps)
    d = batch.dim
    real = batch.derived(_Realization)
    pw = batch.powers
    ij = np.add.outer(np.arange(d), np.arange(d))
    steps = blank(pw.step(4 * ij, shift=pw.root * pw.root, at=-2 * batch.ks), batch.groups, axes=2)
    plan = _plan("hopf")
    residuals = plan.residuals(batch, {
        0: [batch.derived(_hopf_values)], 1: [real.weights], 2: [real.stack, steps[None]]})
    return unbatch(reps, cut(plan.names, residuals, tol,
                             finite_members(steps, errors=real.overflow)))


@dataclasses.dataclass(frozen=True)
class InvolutionSpec:
    """Conjugate-linear anti-automorphism data.

    Images: ``a -> alpha * abar``, ``abar -> beta * a``, ``N -> N + eta``.
    Involutivity forces ``alpha * conj(beta) = 1`` and ``eta`` purely
    imaginary.
    """

    alpha: complex
    beta: complex
    eta: complex
    flavor: Flavor
    label: str

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.alpha, self.beta, self.eta))):
            raise ValueError(f"involution data must be finite, got {self}")
        if abs(self.alpha * self.beta.conjugate() - 1.0) > 1e-9:
            raise ValueError(
                f"not involutive: alpha*conj(beta) = {self.alpha * self.beta.conjugate()}"
            )
        if abs(self.eta.real) > 1e-9:
            raise ValueError(f"eta must be purely imaginary, got {self.eta}")


def involution(kind: InvolutionKind | str, params: QParams) -> InvolutionSpec:
    """Named involution for the given parameters.

    The canonical exchange works in either mode (its coproduct behavior
    differs); the imaginary pair exists on the real line only.
    """
    kind = InvolutionKind(kind)
    if kind is InvolutionKind.CANONICAL:
        return InvolutionSpec(1.0, 1.0, 0.0, Flavor.NONSTANDARD, kind.value)
    if params.mode is not Mode.REAL_LINE:
        raise ModeMismatch(f"{kind.value} involution requires the real-line mode")
    eta = complex(0.0, -2.0 * _branch_shift(params.l, params.epsilon))
    sign = 1.0 if kind is InvolutionKind.IMAGINARY_PLUS else -1.0
    return InvolutionSpec(sign * 1j, sign * 1j, eta, Flavor.STANDARD, kind.value)


def with_flavor(inv: InvolutionSpec, flavor: Flavor | str) -> InvolutionSpec:
    return dataclasses.replace(inv, flavor=Flavor(flavor))


def _star_table(alpha: Any, beta: Any, eta: Any):
    """Star image of each generator, affine as in the antipode table."""
    return {"a": (alpha, "abar", 0.0), "abar": (beta, "a", 0.0), "N": (1.0, "N", eta)}


def _star_values(invs: Sequence[InvolutionSpec]) -> np.ndarray:
    """The values :func:`_star_table` takes, ``(values, members)``, one member per involution."""
    return np.array([[inv.alpha, inv.beta, inv.eta] for inv in invs], dtype=complex).T


def _apply(elem, table, antilinear=False):
    """A table's image of the affine element ``c*gen + d``: the star's is antilinear."""
    c, gen, d = elem
    coef, target, const = table[gen]
    if antilinear:
        c, d = c.conjugate(), d.conjugate()
    return (c * coef, target, c * const + d)


def _star_arms(t: _Tape, graded: dict, dense: dict, counit: dict, antipode: dict, star: dict,
               flavor: Flavor) -> list:
    """The arms of :func:`check_star_structure`, each ``(name, (defect, *operands))``."""
    cop = _COPRODUCT
    adj = {sym: t.input(2, ("adjoint", sym)) for sym in _SYMBOLS}
    step_bar = t.input(2, "step_bar")
    counit_defects = []
    antipode_sides = []
    for gen in _GENERATORS:
        coef, target, const = star[gen]
        counit_defects.append(coef * counit[target] + const - counit[gen].conjugate())
        start = (1.0, gen, 0.0)
        if flavor is Flavor.STANDARD:
            lhs = start
            for _ in range(2):  # (star o S) twice
                lhs = _apply(_apply(lhs, antipode), star, antilinear=True)
            antipode_sides += [lhs, start]
        else:
            antipode_sides += [_apply(_apply(start, star, antilinear=True), antipode),
                               _apply(_apply(start, antipode), star, antilinear=True)]

    img = {gen: _affine(star[gen], dense) for gen in _GENERATORS}
    arms = []

    def compare(name: str, lhs: Any, rhs: Any) -> None:
        arms.append((name, (lhs - rhs, lhs, rhs)))

    compare("algebra_compat_commutator", img["abar"] @ img["a"] - img["a"] @ img["abar"], step_bar)
    compare("algebra_compat_raise", img["abar"] @ img["N"] - img["N"] @ img["abar"], img["abar"])
    compare("algebra_compat_lower", img["a"] @ img["N"] - img["N"] @ img["a"], -img["a"])
    for gen in _GENERATORS:
        compare(f"star_matrix_{gen}", adj[gen], img[gen])

    # the adjoint of a weighted shift is one of the opposite degree
    graded_adj = {sym: ((-deg,), adj[sym].band(-deg)) for sym, ((deg,), _) in graded.items()}
    for gen in _GENERATORS:
        coef, target, const = star[gen]
        dag = _coproduct(cop[gen], graded_adj)
        image = _graded_sum(
            _otimes((graded[le][0], coef * graded[le][1]), graded[ri]) for le, ri in cop[target]
        )
        if not (isinstance(const, float) and not const):  # the coproduct of 1 is 1 (x) 1
            image[(0, 0)] = image[(0, 0)] + const
        if flavor is Flavor.NONSTANDARD:
            image = _swap(image)
        arms.append((f"coproduct_{flavor.value}_{gen}", (_minus(dag, image), dag, image)))

    for gen, defect in zip(_GENERATORS, counit_defects):  # its max-abs is its residual
        arms.append((f"counit_{gen}", (defect,)))

    sides = [_affine(side, dense) for side in antipode_sides]
    for j, gen in enumerate(_GENERATORS):
        compare(f"antipode_{flavor.value}_{gen}", sides[2 * j], sides[2 * j + 1])
    return arms


@np.errstate(over="ignore", invalid="ignore")  # a non-finite scalar drops its member below
def check_star_structure(
    reps: Union[Rep, RepBatch],
    inv: Union[InvolutionSpec, Sequence[InvolutionSpec]],
    tol: float = DEFAULT_TOL,
    metric: np.ndarray | None = None,
    label: Optional[str] = None,
) -> Union[list[CheckReport], ReportBlock]:
    """All compatibility arms of one involution on one representation.

    ``metric`` twists the matrix adjoint to ``G^-1 M^H G``; the default is
    the plain conjugate transpose.  Arms: conjugated defining relations,
    matrix realization of the star, coproduct compatibility in the
    involution's flavor, counit reality, and the flavor's antipode axiom.
    A ``label`` names every report ``label.arm``.

    For a :class:`RepBatch`, ``inv`` holds one involution per member, all of
    one flavor, ``metric`` serves every member, and the result is one block
    as in :func:`check_hopf_axioms`.
    """
    batch = as_batch(reps)
    invs = tuple(inv) if isinstance(reps, RepBatch) else (inv,)
    if len(invs) != len(batch.reps):
        raise ValueError(f"{len(invs)} involutions for {len(batch.reps)} representations")
    flavor = invs[0].flavor
    if any(spec.flavor is not flavor for spec in invs):
        raise ValueError("the involutions of a batch must share one flavor")
    d = batch.dim
    real = batch.derived(_Realization)
    adjoint = real.stack.conj().swapaxes(-1, -2)
    if metric is not None:
        adjoint = adjoint * _twist(metric, d)
    # conjugated defining relations: steps at base conj(q), which is 1/q on the
    # unit circle and q on the real line, taken at N + eta
    pw = batch.powers
    shift = None if all(spec.eta == 0 for spec in invs) else np.array(
        [cmath.exp(p.log_q.conjugate() * spec.eta) for p, spec in zip(batch.params, invs)])
    step_bar = blank(pw.step(4 * np.arange(d), -1 if batch.mode is Mode.UNIMODULAR else 1, shift),
                     batch.groups)
    plan = _plan(flavor)
    residuals = plan.residuals(batch, {
        0: [batch.derived(_hopf_values), _star_values(invs)], 1: [real.weights],
        2: [real.stack, adjoint, diag_stack(step_bar)[None]]})
    names = plan.names if label is None else tuple(f"{label}.{name}" for name in plan.names)
    return unbatch(reps, cut(names, residuals, tol,
                             finite_members(step_bar, errors=real.overflow)))


def _twist(metric: np.ndarray, d: int) -> np.ndarray:
    """The factors ``g_j / g_i`` by which ``G^-1 M^H G`` scales entry (i, j) of ``M^H``.

    A metric that is not a finite, diagonal and invertible ``d x d`` matrix, or
    whose twist overflows, raises ``ValueError`` naming the condition it breaks.
    Runs under the caller's ``errstate``, which lets ``1.0 / g`` overflow."""
    shape = np.shape(metric)
    g = np.diagonal(metric) if shape == (d, d) else None
    if g is None:
        why = f"one of shape {shape}"
    elif np.count_nonzero(metric) != np.count_nonzero(g):
        why = "one with a nonzero entry off its diagonal"
    elif np.count_nonzero(g) != d:
        why = "one with a zero on its diagonal"
    elif not np.isfinite(g).all():
        why = "one with a non-finite entry on its diagonal"
    else:
        twist = (1.0 / g)[:, None] * g
        if np.isfinite(twist).all():
            return twist
        why = "one whose twist g_j / g_i overflows"
    raise ValueError(f"the metric must be a finite, diagonal and invertible {d}x{d} matrix, "
                     f"got {why}")


def parity_metric(dim: int) -> np.ndarray:
    """Alternating-sign reflection ``diag(+1, -1, +1, ...)``."""
    return np.diag([(-1.0) ** n for n in range(dim)]).astype(complex)


def derive_involutions(rep: Rep, tol: float = DEFAULT_TOL) -> list[InvolutionSpec]:
    """Recover the imaginary involution pair from a real-line representation.

    Solves ``adjoint(A) = alpha * Abar``, ``adjoint(Abar) = beta * A`` and
    ``adjoint(N) = N + eta`` in the least-squares sense.  The plain adjoint
    realizes exactly one sign; its twin (same ``eta``, flipped ``alpha``
    and ``beta``) is realized by the parity-reflected adjoint, so both are
    returned, each re-verified in its realizing form.
    """
    if rep.params.mode is not Mode.REAL_LINE:
        raise ModeMismatch("involution recovery is defined on the real-line mode")
    if rep.k < 1:
        raise NoSolution("k = 0 leaves the ladder equations degenerate")
    adj_a = rep.A.conj().T
    adj_abar = rep.Abar.conj().T
    alpha = complex(np.vdot(rep.Abar, adj_a) / np.vdot(rep.Abar, rep.Abar))
    beta = complex(np.vdot(rep.A, adj_abar) / np.vdot(rep.A, rep.A))
    eta_diag = np.diag(rep.Nmat.conj().T - rep.Nmat)
    eta = complex(np.mean(eta_diag))
    res = max(
        residual_of(adj_a - alpha * rep.Abar, rep.Abar),
        residual_of(adj_abar - beta * rep.A, rep.A),
        float(np.max(np.abs(eta_diag - eta))),
    )
    if res > tol:
        raise NoSolution(f"matrix equations inconsistent, residual {res:.3e}")
    if abs(alpha * np.conjugate(beta) - 1.0) > tol:
        raise NoSolution(f"solved pair not involutive: alpha={alpha}, beta={beta}")

    def build(al: complex, be: complex) -> InvolutionSpec:
        label = (InvolutionKind.IMAGINARY_MINUS if al.imag < 0
                 else InvolutionKind.IMAGINARY_PLUS).value
        return InvolutionSpec(al, be, eta, Flavor.STANDARD, label)

    solved, twin = build(alpha, beta), build(-alpha, -beta)
    for spec, metric in ((solved, None), (twin, parity_metric(rep.dim))):
        bad = [r for r in check_star_structure(rep, spec, tol, metric=metric) if not r.passed]
        if bad:
            raise NoSolution(
                f"recovered {spec.label} fails re-verification: "
                + ", ".join(f"{r.name}={r.residual:.3e}" for r in bad)
            )
    return sorted((solved, twin), key=lambda s: s.alpha.imag)
