"""Command-line front end: build representations, verify axioms, sweep grids.

Four subcommands share one configuration surface:

``rep``
    Build a single truncated representation and print its matrices.
``verify``
    Run the selected check families at one parameter point and report
    every check with its expected outcome.  The conjugation checks carry
    expectations of both signs: at unimodular q the coproduct and antipode
    compatibility of the canonical involution must *fail* in the standard
    flavor, and at real q the canonical involution must fail outright
    while the imaginary family passes.  Exit code 0 means every observed
    outcome matched its expectation.
``sweep``
    Repeat the verification over an epsilon and/or k grid and emit one
    row per point (CSV by default).
``symbolic``
    Run the normal-ordering identities on Laurent coefficients alone,
    with no matrices involved.

Exit codes: 0 all expectations met, 1 a check violated its expectation,
2 invalid or degenerate parameters.  The environment variable ``QOSC_TOL``
overrides the default tolerances; an explicit ``--tol`` wins over both.
JSON output is byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from .algcheck import (
    DEFAULT_TOL,
    ReportBlock,
    casimir,
    check_defining_relations,
    check_ladder_identities,
    dropped,
    max_rule,
    member_scalars,
)
from .errors import (
    DegenerateParameter,
    DimensionTooLarge,
    ModeMismatch,
    ParityViolation,
    QoscError,
)
from .hopfstar import (
    COASSOC_CAP,
    Flavor,
    RepBatch,
    check_hopf_axioms,
    check_star_structure,
    involution,
    parity_metric,
    with_flavor,
)
from .jsonio import dumps, params_to_json, rep_to_json, report_to_json
from .normform import DEFAULT_SYMBOLIC_TOL, N_MAX_CAP, symbolic_block
from .qcore import Mode, QParams, make_params
from .repbuild import MAX_K, Rep, build_rep, choose_branch
from .sumap import check_equivalence, check_su2

CHECK_FAMILIES = (
    "algebra",
    "ladder",
    "casimir",
    "hopf",
    "star:canonical",
    "star:imaginary",
    "suq2",
    "symbolic",
)

#: most parameter points one sweep may ask for
MAX_GRID_POINTS = 10_000

#: most tensor-cube entries, (k+1)**3 per point, that one batch of points stacks
_BATCH_CUBE_ENTRIES = 8192

# Runs the symbolic family at a point's params (it reads no k).
Symbolic = Callable[[QParams], ReportBlock]

# The star arms that must fail, by mode and arm label: {arm: generators}.
# At |q| = 1, forcing the standard flavor on the canonical involution breaks
# its ladder components; the N components stay compatible.  At real q the
# canonical involution is not even an algebra *-structure on the built
# representation, and its nonstandard compatibility breaks in every
# component that feels the complex gamma.
_EXPECTED_FAILS = {
    (Mode.UNIMODULAR, "canonical_standard"): {
        "coproduct_standard": "a abar", "antipode_standard": "a abar"},
    (Mode.REAL_LINE, "canonical"): {
        "star_matrix": "a abar N", "coproduct_nonstandard": "a abar N", "counit": "N",
        "antipode_nonstandard": "a abar N"},
}

_CSV_COLUMNS = (
    "mode",
    "epsilon",
    "l",
    "k",
    "status",
    "casimir_re",
    "casimir_im",
    "res_algebra",
    "res_ladder",
    "res_hopf",
    "res_star",
    "res_suq2",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters shared by every subcommand."""

    mode: Mode
    epsilons: tuple[float, ...]
    l: Optional[int]  # None = choose the branch automatically
    ks: tuple[int, ...]
    checks: tuple[str, ...]
    tol: float
    sym_tol: float
    fmt: str
    out: Optional[str]
    n_max: int
    tamper: float = 0.0

    @property
    def epsilon(self) -> float:
        return self.epsilons[0]

    @property
    def k(self) -> int:
        return self.ks[0]


# ---------------------------------------------------------------------------
# check family runners


def _star_arms(batch: RepBatch, family: str) -> list[tuple[str, list, Any]]:
    """Label, one involution per member and metric of each arm of a star family."""
    params = batch.params
    if family == "star:canonical":
        canonical = [involution("canonical", p) for p in params]
        if batch.mode is Mode.UNIMODULAR:
            standard = [with_flavor(inv, Flavor.STANDARD) for inv in canonical]
            return [("canonical", canonical, None), ("canonical_standard", standard, None)]
        return [("canonical", canonical, None)]
    return [
        ("imaginary_minus", [involution("imaginary_minus", p) for p in params], None),
        ("imaginary_plus", [involution("imaginary_plus", p) for p in params],
         parity_metric(batch.dim)),
    ]


@functools.lru_cache(maxsize=None)
def _expected_fails(names: tuple[str, ...], mode: Mode, one_state: bool) -> np.ndarray:
    """Mask of the reports among ``names`` that must fail, by mode and ``label.`` prefix.

    On one state ``a = abar = 0``, so only the ``N`` arms can fail.
    """
    mask = []
    for name in names:
        label, _, arm = name.partition(".")
        stem, _, gen = arm.rpartition("_")
        fails = _EXPECTED_FAILS.get((mode, label), {}).get(stem, "").split()
        mask.append(gen in fails and (gen == "N" or not one_state))
    out = np.array(mask, dtype=bool)
    out.setflags(write=False)  # one cached mask serves every caller
    return out


def _symbolic_family(cfg: RunConfig, params: QParams) -> ReportBlock:
    return symbolic_block(params, cfg.n_max, cfg.sym_tol, tamper=cfg.tamper)


def _symbolic_runs(batch: RepBatch, symbolic: Symbolic, tol: float) -> ReportBlock:
    """The symbolic rows of every member's params as one block; an overflow drops its member."""
    errors, alive, blocks = member_scalars(len(batch.reps), lambda i: symbolic(batch.params[i]))
    if not blocks:
        return dropped(errors, tol)
    return ReportBlock(blocks[0].names, tuple(alive),
                       np.concatenate([b.residuals for b in blocks]), blocks[0].tol, errors, {})


def _family_blocks(family: str, batch: RepBatch, cfg: RunConfig, symbolic: Symbolic
                   ) -> list[ReportBlock]:
    """The blocks of one family over the batch.  Not casimir: every point runs that first."""
    if family.startswith("star:"):
        return [check_star_structure(batch, invs, cfg.tol, metric=metric, label=label)
                for label, invs, metric in _star_arms(batch, family)]
    if family == "algebra":
        return [check_defining_relations(batch, cfg.tol)]
    if family == "ladder":
        return [check_ladder_identities(batch, min(cfg.n_max, batch.k + 1), cfg.tol)]
    if family == "hopf":
        return [check_hopf_axioms(batch, cfg.tol)]
    if family == "suq2":  # one spin map serves both
        return [check_su2(batch, cfg.tol), check_equivalence(batch, cfg.tol)]
    if family == "symbolic":
        return [_symbolic_runs(batch, symbolic, cfg.sym_tol)]
    raise ValueError(f"unknown check family {family!r}")


# ---------------------------------------------------------------------------
# parameter resolution and validation


def _resolve_params(cfg: RunConfig, epsilon: float) -> QParams:
    l = choose_branch(cfg.mode, epsilon) if cfg.l is None else cfg.l
    return make_params(cfg.mode, epsilon, l)


def _validate_selection(cfg: RunConfig) -> None:
    if "star:imaginary" in cfg.checks and cfg.mode is Mode.UNIMODULAR:
        raise ModeMismatch("star:imaginary checks exist only for real q")
    if min(cfg.ks) < 0:
        raise ValueError(f"k={min(cfg.ks)} is negative")
    k_max = max(cfg.ks)
    if k_max > MAX_K:
        raise DimensionTooLarge(f"k={k_max} exceeds the cap {MAX_K}")
    if "hopf" in cfg.checks and (k_max + 1) ** 3 > COASSOC_CAP:
        raise DimensionTooLarge(
            f"hopf coassociativity at k={k_max} needs dimension {(k_max + 1) ** 3} "
            f"> cap {COASSOC_CAP}; drop hopf from --checks or lower k"
        )


# ---------------------------------------------------------------------------
# output assembly


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        return
    with open(cfg.out, "w", newline="") as fh:
        fh.write(text)


def _report_params(params: QParams, k: Optional[int]) -> dict[str, Any]:
    doc = params_to_json(params)
    if k is not None:
        doc["k"] = k
    return doc


def _verify_text(doc: dict[str, Any]) -> str:
    p = doc["params"]
    lines = [
        "mode={mode} epsilon={epsilon:.12g} l={l} k={k}".format(**p),
        f"casimir = {doc['casimir'][0]:.12g} {doc['casimir'][1]:+.12g}i",
    ]
    bad = 0
    for chk in doc["checks"]:
        observed = "pass" if chk["pass"] else "fail"
        marker = "ok " if observed == chk["expected"] else "BAD"
        bad += marker == "BAD"
        lines.append(
            f"{marker} {chk['name']:<42} residual={chk['residual']:.3e} "
            f"tol={chk['tolerance']:.1e} expected={chk['expected']} observed={observed}"
        )
    lines.append(f"result: {'ok' if bad == 0 else f'{bad} unexpected outcome(s)'}")
    return "\n".join(lines) + "\n"


def _symbolic_text(doc: dict[str, Any]) -> str:
    p = doc["params"]
    lines = [f"mode={p['mode']} epsilon={p['epsilon']:.12g} n_max={doc['n_max']}"]
    for chk in doc["checks"]:
        marker = "ok " if chk["pass"] else "BAD"
        lines.append(
            f"{marker} {chk['name']:<24} defect={chk['residual']:.3e} tol={chk['tolerance']:.1e}"
        )
    failed = sum(not chk["pass"] for chk in doc["checks"])
    lines.append(f"result: {'ok' if failed == 0 else f'{failed} nonzero defect(s)'}")
    return "\n".join(lines) + "\n"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(rows: Sequence[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in _CSV_COLUMNS])
    return buf.getvalue()


def _table_text(rows: Sequence[dict[str, Any]]) -> str:
    def short(col: str, value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return format(value, ".6g" if col in ("epsilon", "casimir_re", "casimir_im") else ".2e")
        return str(value)

    cells = [list(_CSV_COLUMNS)] + [
        [short(col, row[col]) for col in _CSV_COLUMNS] for row in rows
    ]
    widths = [max(len(line[i]) for line in cells) for i in range(len(_CSV_COLUMNS))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in cells
    ) + "\n"


def _rep_text(rep: Rep) -> str:
    def matrix_lines(name: str, m) -> list[str]:
        body = [
            "  [" + ", ".join(f"{m[i, j]:.12g}" for j in range(m.shape[1])) + "]"
            for i in range(m.shape[0])
        ]
        return [f"{name} ="] + body

    p = rep.params
    lines = [
        f"mode={p.mode.value} epsilon={p.epsilon:.12g} l={p.l} k={rep.k}",
        f"nu0 = {rep.nu0:.12g}",
        f"lambda = [{', '.join(format(lam, '.12g') for lam in rep.lambdas)}]",
    ]
    for name, m in (("A", rep.A), ("Abar", rep.Abar), ("N", rep.Nmat)):
        lines.extend(matrix_lines(name, m))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(cfg: RunConfig) -> int:
    rep = build_rep(_resolve_params(cfg, cfg.epsilon), cfg.k)
    if cfg.fmt == "json":
        _emit(cfg, dumps(rep_to_json(rep)) + "\n")
    else:
        _emit(cfg, _rep_text(rep))
    return 0


@dataclass
class _Point:
    """One grid point on its way through :func:`_run_points`."""

    row: dict[str, Any]
    params: Optional[QParams] = None
    rep: Optional[Rep] = None
    cas: Optional[complex] = None  # the Casimir scalar
    skip: Optional[Exception] = None  # why the whole point is skipped
    singular: Optional[DegenerateParameter] = None  # su map rejected at a singular locus
    mismatch: bool = False  # some report missed its expected outcome
    worst: dict[str, float] = field(default_factory=dict)  # residual column -> its cell

    def drop(self, exc: Exception) -> None:
        """A singular spin map skips its family; the first overflow skips the point."""
        if isinstance(exc, DegenerateParameter):
            self.singular = exc
        elif self.skip is None:
            self.skip = exc
            self.row["status"] = "skipped:overflow"

    def finish(self) -> None:
        """Fill the row of a point that ran every family."""
        row = self.row
        row.update(casimir_re=self.cas.real, casimir_im=self.cas.imag, **self.worst)
        row["status"] = "fail" if self.mismatch else ("skipped:singular" if self.singular else "ok")


def _fold(live: Sequence[_Point], batch: RepBatch, blocks: list[ReportBlock],
          column: Optional[str]) -> None:
    """Fold one family's blocks over ``batch`` into the points of their rows.

    A member a block drops is dropped from its point.  A row gives its point
    a mismatch if one of its reports missed its expected outcome, and in
    ``column`` the largest residual of the reports that must pass, folded
    across blocks and families by Python ``max``'s rule.
    """
    for block in blocks:
        for i, exc in block.errors.items():
            live[i].drop(exc)
        if not block.alive:
            continue
        points = [live[i] for i in block.alive]
        fails = _expected_fails(block.names, batch.mode, batch.dim == 1)
        mismatch = ((block.residuals < block.tol) == fails).any(axis=1)
        for point, bad in zip(points, mismatch.tolist()):
            point.mismatch = point.mismatch or bad
        passing = block.residuals[:, ~fails]
        if column is None or not passing.shape[1]:
            continue
        for point, worst in zip(points, max_rule(passing).tolist()):
            prev = point.worst.get(column)
            point.worst[column] = worst if prev is None or worst > prev else prev


def _build_point(cfg: RunConfig, epsilon: float, k: int) -> _Point:
    """Build one point's rep; a point that cannot be built is skipped."""
    point = _Point({col: None for col in _CSV_COLUMNS})
    point.row.update(mode=cfg.mode.value, epsilon=epsilon, k=k, status="ok")
    try:
        point.params = _resolve_params(cfg, epsilon)
        point.rep = build_rep(point.params, k)
    except (DegenerateParameter, ParityViolation, OverflowError) as exc:
        reason = ("singular" if isinstance(exc, DegenerateParameter)
                  else "parity" if isinstance(exc, ParityViolation) else "overflow")
        point.row["status"] = f"skipped:{reason}"
        point.skip = exc
        return point
    point.row["l"] = point.params.l
    return point


def _run_batch(cfg: RunConfig, epsilons: Sequence[float], k: int, symbolic: Symbolic
               ) -> tuple[list[_Point], dict[str, list[ReportBlock]]]:
    """The points of one batch, run, and each family's blocks over the points still standing."""
    points = [_build_point(cfg, epsilon, k) for epsilon in epsilons]
    families: dict[str, list[ReportBlock]] = {}
    batch: Optional[RepBatch] = None
    for family in (None, *cfg.checks):  # None: the casimir every point runs first, for its row
        live = [point for point in points if point.skip is None]
        if not live:
            break
        if batch is None or len(batch.reps) != len(live):  # points are only ever dropped
            batch = RepBatch(tuple(point.rep for point in live))
        if family is None:
            cas = casimir(batch, cfg.tol)
            for i, exc in cas.errors.items():
                live[i].drop(exc)
            for i, scalar in zip(cas.alive, cas.scalars):
                live[i].cas = scalar
            families["casimir"] = [cas]
            if "casimir" in cfg.checks:  # the family's reports are these, folded in at once
                _fold(live, batch, [cas], None)
        elif family != "casimir":  # both star families share res_star
            families[family] = _family_blocks(family, batch, cfg, symbolic)
            column = "res_" + family.partition(":")[0]
            _fold(live, batch, families[family], column if column in _CSV_COLUMNS else None)
    for point in points:
        if point.skip is None:
            point.finish()
    return points, families


def _run_points(
    cfg: RunConfig, epsilons: Sequence[float], k: int, symbolic: Symbolic
) -> Iterator[_Point]:
    """Build the points of one k and run their families, yielding each point in epsilon order.

    A point that cannot be built, or whose build or checks overflow, is
    skipped whole; a spin map rejected at a singular locus skips only that
    family.  Each point runs casimir and then the families in order, as it
    would alone.  Every family but symbolic runs once over the stack of the
    points still standing, in batches of at most
    ``_BATCH_CUBE_ENTRIES // (k+1)**3`` points, which bounds the memory of
    the stacked tensor blocks; symbolic reads no k and runs point by point.
    """
    size = max(1, _BATCH_CUBE_ENTRIES // (k + 1) ** 3)
    for start in range(0, len(epsilons), size):
        yield from _run_batch(cfg, epsilons[start:start + size], k, symbolic)[0]


def cmd_verify(cfg: RunConfig) -> int:
    _validate_selection(cfg)
    symbolic = functools.partial(_symbolic_family, cfg)
    (point,), families = _run_batch(cfg, cfg.epsilons, cfg.k, symbolic)
    skipped = point.skip or point.singular
    if skipped is not None:
        raise skipped
    row = point.row
    if cfg.fmt == "csv":
        _emit(cfg, _csv_text([row]))
    else:
        doc = {
            "params": _report_params(point.params, cfg.k),
            "checks": [
                report_to_json(r, expected="fail" if fail else "pass")
                for family in cfg.checks for block in families[family]
                for r, fail in zip(block.reports(0),
                                   _expected_fails(block.names, cfg.mode, cfg.k == 0).tolist())
            ],
            "casimir": [row["casimir_re"], row["casimir_im"]],
        }
        _emit(cfg, dumps(doc) + "\n" if cfg.fmt == "json" else _verify_text(doc))
    return 1 if row["status"] == "fail" else 0


def cmd_sweep(cfg: RunConfig) -> int:
    _validate_selection(cfg)
    # The symbolic family depends on no k, and the points run k by k: the
    # cache keeps one entry per epsilon for the sweep.  Exceptions are not cached.
    symbolic = functools.lru_cache(maxsize=None)(functools.partial(_symbolic_family, cfg))
    by_k = [[point.row for point in _run_points(cfg, cfg.epsilons, k, symbolic)] for k in cfg.ks]
    rows = [rows_k[i] for i in range(len(cfg.epsilons)) for rows_k in by_k]  # epsilon-major
    if cfg.fmt == "csv":
        _emit(cfg, _csv_text(rows))
    elif cfg.fmt == "json":
        _emit(cfg, dumps({"rows": rows}) + "\n")
    else:
        _emit(cfg, _table_text(rows))
    if all(row["status"].startswith("skipped") for row in rows):
        causes = "singular, parity-violating or overflowing" if any(
            row["status"] == "skipped:overflow" for row in rows) else "singular or parity-violating"
        print(f"error: every grid point was skipped as {causes}", file=sys.stderr)
        return 2
    return 1 if any(row["status"] == "fail" for row in rows) else 0


def cmd_symbolic(cfg: RunConfig) -> int:
    params = _resolve_params(cfg, cfg.epsilon)
    reports = _symbolic_family(cfg, params).reports(0)
    doc = {
        "params": _report_params(params, None),
        "n_max": cfg.n_max,
        "checks": [report_to_json(r, expected="pass") for r in reports],
    }
    _emit(cfg, dumps(doc) + "\n" if cfg.fmt == "json" else _symbolic_text(doc))
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _parse_l(raw: str) -> Optional[int]:
    if raw == "auto":
        return None
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {raw!r}")


def _parse_k_range(raw: str) -> tuple[int, ...]:
    if ".." in raw:
        lo_text, hi_text = raw.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty k range {raw!r}")
        if hi - lo >= MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(f"k range {raw!r} exceeds {MAX_GRID_POINTS} points")
        return tuple(range(lo, hi + 1))
    return (int(raw),)


def _parse_grid(raw: str) -> tuple[float, ...]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {raw!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (step > 0 and lo <= hi):
        raise argparse.ArgumentTypeError(f"degenerate grid {raw!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {raw!r} exceeds {MAX_GRID_POINTS} points")
    return tuple(lo + i * step for i in range(int(span) + 1))


def _parse_checks(raw: str) -> tuple[str, ...]:
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in CHECK_FAMILIES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown checks {unknown}; valid: {', '.join(CHECK_FAMILIES)}"
        )
    if not tokens:
        raise argparse.ArgumentTypeError("empty check list")
    # normalize to the canonical family order so reports are deterministic
    return tuple(f for f in CHECK_FAMILIES if f in tokens)


def _default_checks(mode: Mode) -> tuple[str, ...]:
    if mode is Mode.UNIMODULAR:
        return tuple(f for f in CHECK_FAMILIES if f != "star:imaginary")
    return CHECK_FAMILIES


def _env_tol() -> Optional[float]:
    raw = os.environ.get("QOSC_TOL")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"QOSC_TOL is not a number: {raw!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, ``error: <message>``, and exits 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qosc",
        description="build and verify truncated q-oscillator representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], default_fmt: str) -> None:
        p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
        p.add_argument("--l", type=_parse_l, default=None, metavar="INT|auto",
                       help="branch integer; 'auto' picks the parity-correct branch (default)")
        p.add_argument("--tol", type=float, default=None, help="override check tolerance")
        p.add_argument("--format", choices=formats, default=default_fmt)
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_rep = sub.add_parser("rep", help="build one representation and print it")
    add_common(p_rep, ("json", "text"), "json")
    p_rep.add_argument("--epsilon", type=float, required=True)
    p_rep.add_argument("--k", type=int, required=True, help="highest state index (dimension k+1)")

    p_verify = sub.add_parser("verify", help="run check families at one parameter point")
    add_common(p_verify, ("json", "csv", "text"), "json")
    p_verify.add_argument("--epsilon", type=float, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--checks", type=_parse_checks, default=None,
                          help="comma-separated subset of: " + ", ".join(CHECK_FAMILIES))
    p_verify.add_argument("--n-max", type=int, default=8,
                          help=f"identity depth, at most {N_MAX_CAP}; ladder stops at k+1, "
                               "symbolic reads no k")

    p_sweep = sub.add_parser("sweep", help="verify over an epsilon and/or k grid")
    add_common(p_sweep, ("csv", "json", "text"), "csv")
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--epsilon", type=float)
    grid.add_argument("--epsilon-grid", type=_parse_grid, metavar="LO:HI:STEP")
    p_sweep.add_argument("--k", type=_parse_k_range, required=True, metavar="INT|LO..HI")
    p_sweep.add_argument("--checks", type=_parse_checks, default=None,
                         help="comma-separated subset of: " + ", ".join(CHECK_FAMILIES))
    p_sweep.add_argument("--n-max", type=int, default=8)

    p_sym = sub.add_parser("symbolic", help="check normal-ordering identities on coefficients")
    add_common(p_sym, ("json", "text"), "json")
    p_sym.add_argument("--epsilon", type=float, required=True)
    p_sym.add_argument("--n-max", type=int, default=8, help=f"identity depth, at most {N_MAX_CAP}")
    p_sym.add_argument("--tamper-delta", type=float, default=0.0,
                       help="debug: offset the rewrite coefficient to force failures")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs about a millisecond."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    env_tol = _env_tol()
    explicit = args.tol if args.tol is not None else env_tol
    if explicit is not None and explicit <= 0:
        raise ValueError(f"tolerance must be positive, got {explicit}")
    if explicit is not None and not math.isfinite(explicit):
        raise ValueError(f"tolerance must be finite, got {explicit}")
    tol = explicit if explicit is not None else DEFAULT_TOL
    sym_tol = explicit if explicit is not None else DEFAULT_SYMBOLIC_TOL

    mode = Mode(args.mode)
    if args.command == "sweep":
        epsilons = args.epsilon_grid if args.epsilon_grid is not None else (args.epsilon,)
        ks = args.k
    else:
        epsilons = (args.epsilon,)
        ks = (args.k,) if args.command in ("rep", "verify") else (0,)

    checks = getattr(args, "checks", None)
    if checks is None:
        checks = _default_checks(mode)

    n_max = getattr(args, "n_max", 8)
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max={n_max} outside 1..{N_MAX_CAP}")

    return RunConfig(
        mode=mode,
        epsilons=tuple(epsilons),
        l=args.l,
        ks=tuple(ks),
        checks=tuple(checks),
        tol=tol,
        sym_tol=sym_tol,
        fmt=args.format,
        out=args.out,
        n_max=n_max,
        tamper=getattr(args, "tamper_delta", 0.0),
    )


_COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "rep": cmd_build,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "symbolic": cmd_symbolic,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        points = len(args.epsilon_grid or (args.epsilon,)) * len(args.k)
        if points > MAX_GRID_POINTS:
            parser.error(f"the sweep asks for {points} points, more than {MAX_GRID_POINTS}")
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (QoscError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow at these parameters ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
