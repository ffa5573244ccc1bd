"""What a cold call imports, read from `python -X importtime` in fresh
processes; nothing here is timed.

A CLI call loads none of dataclasses, inspect, json, fractions or decimal
unless a bare interpreter in the same environment already does: json loads
under --json, fractions in solve_rational and decimal on the first Kronecker
product.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEFERRED = {"dataclasses", "inspect", "json", "fractions", "decimal"}


def _run_python(*args: str) -> tuple[str, set[str]]:
    """stdout of `python -X importtime ARGS` with src/ first on the path, and
    the modules that the process imported."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, loaded


def test_a_cold_call_loads_no_deferred_module():
    _, bare = _run_python("-c", "pass")
    _, cli = _run_python("-c", "import lucasatoms.cli")
    out, atom6 = _run_python("-m", "lucasatoms", "atom", "6")
    assert out == "s^2 + 3*t\n"
    assert "lucasatoms.holonomy" in cli and "lucasatoms.cli" in atom6
    assert (cli | atom6) & (DEFERRED - bare) == set()


USES = """
import sys
from lucasatoms import LucasParams, fit_recurrence
from lucasatoms.cli import main
from lucasatoms.exactpoly import _KRONECKER_CUTOFF, _mul_lists, _schoolbook

def report():
    print(*sorted(m for m in ("json", "fractions", "decimal") if m in sys.modules))

report()
assert main(["--json", "atom", "6"]) == 0
report()
a = list(range(1, _KRONECKER_CUTOFF + 1))
b = [-c for c in a] + [7]
assert _mul_lists(a, b) == _schoolbook(a, b)
report()
assert fit_recurrence(LucasParams(1, 1), 2, 1, 10, 28).status == "refuted"
report()
"""


def test_each_deferred_import_runs_where_it_is_used():
    _, bare = _run_python("-c", "pass")
    out, _ = _run_python("-c", USES)
    first, envelope, *steps = out.splitlines()
    assert envelope == (
        '{"command": "atom", "inputs": {"eval_at": null, "n": 6, "route": "checked"},'
        ' "result": {"n": 6, "route": "checked", "polynomial": "s^2 + 3*t"}, "warnings": []}'
    )
    new = [set(line.split()) - bare for line in (first, *steps)]
    assert new == [
        set(),
        {"json"} - bare,
        {"json", "decimal"} - bare,
        {"json", "decimal", "fractions"} - bare,
    ]
