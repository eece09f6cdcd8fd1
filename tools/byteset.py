"""Hash the output of a fixed set of 1,141 ``qosc`` invocations.

Run from the root of a checkout:

    python3 tools/byteset.py            # exit-code counts and one combined sha256
    python3 tools/byteset.py --each     # also one sha256 per invocation, with its argv

Every invocation runs in this process through ``qosc.cli.main``.  The
combined digest covers each invocation's argv, exit code, stdout and
stderr, in order, so two checkouts that print the same digest give the
same bytes on the whole set; ``--each`` names the argv of any that differ.
The set:

- ``verify`` in both modes at 8 epsilons each x k 0..9, 16, 32, 64 x
  json/text/csv;
- the same epsilons x k 0..9 with ``--checks suq2``, in json and text;
- ``rep`` json/text at k 0, 3, 9, 32, 64 for each of those epsilons;
- eleven sweeps x csv/json/text; five of them stress the algebra, ladder,
  casimir and suq2 checks: k up to 12, ladder depth 16, and epsilon at the
  q -> 1 edge of the real line and the q -> -1 edge of the circle;
- four single points: a large explicit branch index in each mode, a large
  epsilon and ``--n-max 16``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qosc.cli import main as qosc_main  # noqa: E402

EPSILONS = {
    "unimodular": ("0.1", "0.37", "0.9", "1.19", "-0.7", "2.5", "1e-3", "3.0"),
    "realline": ("0.1", "0.83", "2", "-0.7", "1.01e-6", "79", "300", "700"),
}
KS = (*range(10), 16, 32, 64)
REP_KS = (0, 3, 9, 32, 64)
SWEEPS = (
    ("--mode", "realline", "--epsilon-grid", "1:700:7.3", "--k", "0..3"),
    ("--mode", "realline", "--epsilon-grid", "20:700:7.3", "--k", "0..3", "--checks", "hopf"),
    ("--mode", "realline", "--epsilon-grid", "0.5:3:0.25", "--k", "0..9"),
    ("--mode", "unimodular", "--epsilon-grid", "0.1:6.2:0.1", "--k", "0..3"),
    ("--mode", "unimodular", "--epsilon-grid", "0.1:1.5:0.1", "--k", "0..9", "--checks", "suq2"),
    ("--mode", "realline", "--epsilon-grid", "1:200:199", "--k", "0..2", "--checks", "symbolic"),
    ("--mode", "realline", "--epsilon-grid", "1:700:2", "--k", "0..9"),
    ("--mode", "unimodular", "--epsilon-grid", "-3.1:3.1:0.07", "--k", "0..12",
     "--checks", "algebra,ladder,casimir,suq2"),
    ("--mode", "realline", "--epsilon-grid", "0.5:3:0.05", "--k", "0..6", "--n-max", "16"),
    ("--mode", "unimodular", "--epsilon-grid", "3.1415:3.1417:0.0000011", "--k", "0..9",
     "--checks", "casimir,ladder,suq2"),
    ("--mode", "realline", "--epsilon-grid", "0.000001:0.00002:0.000001", "--k", "0..9",
     "--checks", "algebra,ladder,casimir,suq2"),
)
SINGLES = (
    ("verify", "--mode", "unimodular", "--epsilon", "0.9", "--k", "3", "--l", "2000000"),
    ("verify", "--mode", "realline", "--epsilon", "0.9", "--k", "3", "--l", "2000001"),
    ("verify", "--mode", "unimodular", "--epsilon", "1000000000.3", "--k", "3"),
    ("verify", "--mode", "realline", "--epsilon", "0.83", "--k", "9", "--n-max", "16"),
)


def invocations() -> list[tuple[str, ...]]:
    """Every argv of the set, in the order it is hashed."""
    out: list[tuple[str, ...]] = []
    for mode, epsilons in EPSILONS.items():
        for eps in epsilons:
            point = ("--mode", mode, "--epsilon", eps)
            out += [("verify", *point, "--k", str(k), "--format", fmt)
                    for k in KS for fmt in ("json", "text", "csv")]
            out += [("verify", *point, "--k", str(k), "--checks", "suq2", "--format", fmt)
                    for k in range(10) for fmt in ("json", "text")]
            out += [("rep", *point, "--k", str(k), "--format", fmt)
                    for k in REP_KS for fmt in ("json", "text")]
    out += [("sweep", *sweep, "--format", fmt)
            for sweep in SWEEPS for fmt in ("csv", "json", "text")]
    return out + list(SINGLES)


def run(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """The exit code of one invocation and the bytes it hashes as."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = qosc_main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    record = "\x1f".join(("\x00".join(argv), str(code), stdout.getvalue(), stderr.getvalue()))
    return code, record.encode() + b"\x1e"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true",
                        help="print one sha256 per invocation before the totals")
    args = parser.parse_args()
    total = hashlib.sha256()
    codes: collections.Counter[int] = collections.Counter()
    argvs = invocations()
    for argv in argvs:
        code, record = run(argv)
        codes[code] += 1
        total.update(record)
        if args.each:
            print(hashlib.sha256(record).hexdigest(), code, " ".join(argv))
    print(f"invocations {len(argvs)}")
    print("exit codes " + ", ".join(f"{count} x {code}" for code, count in sorted(codes.items())))
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
