"""Smoke tests: the scripts under tools/ run and report on the package."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_line_census_lists_the_lines_a_script_never_runs(tmp_path):
    # The script solves one Bernoulli point at a tight tol and exits 3: the
    # two-column solve runs, the interior point never does, and the exit
    # code passes through.
    script = tmp_path / "one_point.py"
    script.write_text(
        "import sys\n"
        "from rdbridge import ProbabilityVector, ba_fixed_point, hamming\n"
        "ba_fixed_point(ProbabilityVector([0.7, 0.3]), hamming(2), 2.0, tol=1e-9)\n"
        "sys.exit(3)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_census.py"), str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert "lines never run (exit code 3):" in proc.stdout
    rows = {
        m.group(1): (int(m.group(2)), int(m.group(3)))
        for m in re.finditer(r"^(\w+\.py)\s+(\d+) of (\d+)", proc.stdout, re.M)
    }
    assert set(rows) == {p.name for p in (ROOT / "src" / "rdbridge").glob("*.py")}
    missed, executable = rows["blahut.py"]
    assert 0 < missed < executable
    # The interior point's Newton step never ran; the two-column solve did.
    source = (ROOT / "src" / "rdbridge" / "blahut.py").read_text().splitlines()
    newton, two_columns = (
        1 + next(i for i, line in enumerate(source) if text in line)
        for text in ("lapack.dpotrf(m)", "slope = float(tilt.mu @ ratio)")
    )
    row = next(line for line in proc.stdout.splitlines() if line.startswith("blahut.py"))
    missed_lines = set()
    for run in row.split(None, 4)[4].split(", "):
        first, _, last = run.partition("-")
        missed_lines.update(range(int(first), int(last or first) + 1))
    assert newton in missed_lines and two_columns not in missed_lines
