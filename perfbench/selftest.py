"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload and both trace modes, runs ``run.py --tiny`` in a child
process and asserts that each metric named in BENCHMARK.json is printed,
with its unit, both as a ``name = value unit`` line and in the final JSON
object.  Then routes one ``qosc symbolic --tamper-delta 1e-3`` op through
the same gate and asserts that it is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def check_metrics(spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                    "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, lines
            assert result["attempted"] >= 1
            names = {m["name"] for m in spec[key]}
            assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
            for metric in spec[key]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (metric, got)
                prefix = f"{metric['name']} = "
                printed = [ln for ln in lines if ln.startswith(prefix)]
                assert printed and printed[0].endswith(" " + metric["unit"]), (metric, printed)
            assert any(ln.startswith("fail_share = ") for ln in lines)
            print(f"ok  {name} --trace {trace}: {len(names)} metrics with units")


def check_gate_counts_failures() -> None:
    import qosc.cli as cli
    from qosc.jsonio import rep_from_json

    runner = run.Runner(cli, rep_from_json)
    slot = wl.Slot("symbolic", "realline", 0, 0.5, 0.5)
    for extra in ((), ("--tamper-delta", "1e-3")):
        argv = ["symbolic", "--mode", "realline", "--epsilon", "0.5", "--format", "json", *extra]
        op = wl.Op(slot, argv, 1, (0.5,))
        outcome, _ = runner.execute(op)
        verdict = runner.gate(op, outcome)
        assert verdict.gate_ok, verdict
    assert runner.points == 2 and runner.mismatched == 1, (runner.points, runner.mismatched)
    assert runner.fail_share > 0
    print(f"ok  tampered symbolic op counted: fail_share = {runner.fail_share}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_gate_counts_failures()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
