"""The README's library quick start runs as written, so the documented API cannot drift."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), names)
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "rel_commutator", "rel_number_raise", "rel_number_lower"]
    assert all(line.endswith(" True") for line in lines[:3])
    assert all(r.passed for r in names["reports"])  # "all arms pass at |q| = 1"
