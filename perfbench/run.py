"""Closed-loop benchmark of the ``qosc`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-tensor --seed 1 --seconds 30 --trace 0

One client drives ``qosc.cli.main(argv)`` in this process, one op after the
other, for ``--seconds`` seconds of whole cycles.  Every op's output goes
through the gate in ``workloads.judge`` (outside the timed region).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles and reports per-layer metrics from
the spans, plus the tracing overhead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat every metric with its unit and the run's metadata.

The benchmark pins nothing: BLAS runs with the thread count the user gets
by default, and the metadata records it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

WORKLOADS = ("verify-tensor", "sweep-grid", "rep-json")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# what a fresh interpreter runs to time set-up: import the CLI, run one op
_SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, {src!r})\n"
    "from qosc.cli import main\n"
    "sys.exit(main(json.loads(sys.argv[1])))\n"
)


class Runner:
    """Executes ops in process and keeps the tallies of one run."""

    def __init__(self, cli, rep_from_json) -> None:
        self.cli = cli
        self.rep_from_json = rep_from_json
        self.gate_failures: list[str] = []
        self.reset_tallies()

    def reset_tallies(self) -> None:
        self.points = self.mismatched = self.json_bytes = self.judged = 0

    def execute(self, op: wl.Op, tracer: Tracer | None = None) -> tuple[wl.Outcome, int]:
        """Run one op; returns its outcome and its wall time in ns."""
        out_buf, err_buf = io.StringIO(), io.StringIO()
        code, error, output, rep = None, None, b"", None
        t0 = time.perf_counter_ns()
        sid = tracer.begin("op", "cli") if tracer else -1
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                code = self.cli.main(op.argv)
            if op.out_path is not None and code == 0:
                rid = tracer.begin("read_back", "jsonio") if tracer else -1
                with open(op.out_path, "rb") as fh:
                    output = fh.read()
                rep = self.rep_from_json(json.loads(output))
                if tracer:
                    tracer.end(rid)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(sid)
        elapsed = time.perf_counter_ns() - t0
        text = out_buf.getvalue()
        outcome = wl.Outcome(code, text, err_buf.getvalue(), error, output or text.encode(), rep)
        return outcome, elapsed

    def gate(self, op: wl.Op, outcome: wl.Outcome) -> wl.Verdict:
        verdict = wl.judge(op, outcome)
        self.judged += 1
        self.json_bytes += verdict.json_bytes
        self.points += verdict.points
        self.mismatched += verdict.mismatched
        if not verdict.gate_ok:
            self.gate_failures.append(f"{' '.join(op.argv)}: {verdict.reason}")
        return verdict

    @property
    def fail_share(self) -> float:
        return self.mismatched / self.points if self.points else 0.0


def _setup_run(op: wl.Op) -> tuple[float, bytes]:
    """Wall time of a fresh interpreter that imports qosc.cli and runs
    ``op``, and the document that op produced."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE.format(src=str(SRC)), json.dumps(op.argv)],
        cwd=ROOT, capture_output=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"set-up op exited {proc.returncode}: {proc.stderr[-300:]!r}")
    if op.out_path is not None:
        return seconds, Path(op.out_path).read_bytes()
    return seconds, proc.stdout


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args, order, cycle_points: int, cycles: int, ops: int, points: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "ops_per_cycle": len(order),
        "points_per_cycle": cycle_points,
        "cycles": cycles,
        "ops": ops,
        "points": points,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run(args) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the text lines."""
    sys.path.insert(0, str(SRC))
    import qosc.cli as cli
    from qosc.jsonio import rep_from_json

    order, offsets = wl.plan(args.workload, wl.workload(args.workload, args.tiny), args.seed)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    paths = [str(scratch / f"slot{i}.json") for i in range(len(order))]

    def op_at(i: int, cycle: int) -> wl.Op:
        return wl.make_op(order[i], offsets[i], cycle, paths[i] if order[i].kind == "rep" else None)

    runner = Runner(cli, rep_from_json)
    first = op_at(0, 0)
    setup_repeats = 0 if args.trace else 2 if args.tiny else SETUP_REPEATS
    setup_times: list[float] = []
    reference: list[bytes] = []

    def sample_setup() -> None:
        seconds, output = _setup_run(first)
        setup_times.append(seconds)
        reference.append(output)

    tracer = Tracer()
    cycle_ns: dict[bool, list[int]] = {False: [], True: []}
    cycle_lat: list[list[float]] = []  # per untraced cycle, op latencies in ms
    try:
        outcome, _ = runner.execute(first)  # warm-up op, untimed
        runner.gate(first, outcome)
        reference.append(outcome.output)
        runner.reset_tallies()  # tallies cover the timed ops only

        # Set-up samples are taken between cycles, spread over the run,
        # and their time does not count against --seconds.
        cycle, loop_s = 0, 0.0
        while loop_s < args.seconds or (args.trace and cycle % 2):
            # a traced run repeats each cycle's ops, untraced then traced
            traced = args.trace == 1 and cycle % 2 == 1
            t0 = time.perf_counter()
            spent, lat_ms = 0, []
            with tracer.installed(cli) if traced else contextlib.nullcontext():
                for i in range(len(order)):
                    op = op_at(i, cycle // 2 if args.trace else cycle)
                    tracer.op += traced
                    outcome, ns = runner.execute(op, tracer if traced else None)
                    runner.gate(op, outcome)
                    if cycle == 0 and i == 0:
                        reference.append(outcome.output)
                    spent += ns
                    if not traced:
                        lat_ms.append(ns / 1e6)
            cycle_ns[traced].append(spent)
            if not traced:
                cycle_lat.append(lat_ms)
            loop_s += time.perf_counter() - t0
            cycle += 1
            if len(setup_times) < setup_repeats:
                sample_setup()
        while len(setup_times) < setup_repeats:
            sample_setup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(set(reference)) != 1:
        runner.gate_failures.append(f"first op is not byte-for-byte reproducible: {first.argv}")

    ops = len(order) * cycle
    cycle_points = sum(op_at(i, 0).points for i in range(len(order)))
    meta = metadata(args, order, cycle_points, cycle, ops, runner.points)
    lines = [
        f"workload {args.workload}: {cycle} cycles of {len(order)} ops, "
        f"{ops} ops, {runner.points} points",
        f"fail_share = {runner.fail_share:.6g} share "
        f"({runner.mismatched} of {runner.points} points missed their expectation)",
    ]
    if args.trace == 0:
        # Timings come from the faster half of the cycles.  Every cycle runs
        # the same mix of sizes, so a slow cycle is time the machine gave to
        # other tenants; keeping the faster half rejects those stretches.
        ranked = sorted(zip(cycle_ns[False], cycle_lat))
        kept = ranked[: (len(ranked) + 1) // 2]
        lat_ms = [ms for _, lats in kept for ms in lats]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(lat_ms) / (sum(ns for ns, _ in kept) / 1e9), "1/s"),
            "op_ms_p50": (statistics.median(lat_ms), "ms"),
            "op_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "ok_share": (1.0 - runner.fail_share, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines.append(f"samples: setup {len(setup_times)}, faster cycles {len(kept)} "
                     f"of {len(ranked)}, latency {len(lat_ms)}")
    else:
        metrics = summarize(tracer.spans)
        # each traced cycle against the untraced run of the same ops just before it
        slowdowns = [1.0 - plain / traced for plain, traced in zip(cycle_ns[False], cycle_ns[True])]
        metrics["trace.overhead_pct"] = (100.0 * statistics.median(slowdowns), "%")
        metrics["jsonio.bytes_out"] = (runner.json_bytes / runner.judged, "B/op")
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(span_file))
        lines.append(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for failure in runner.gate_failures[:10]:
        lines.append(f"GATE FAILURE: {failure}")
    lines.append("metadata " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not runner.gate_failures,
        "attempted": ops,
        "failed": len(runner.gate_failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every op to a toy size (used by selftest.py)")
    args = parser.parse_args(argv)
    if not (SRC / "qosc" / "cli.py").is_file():
        print(f"error: no qosc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, lines = run(args)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
