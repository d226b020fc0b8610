"""Smoke tests: the scripts under tools/ run and report on the package."""
import importlib.util
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
        for text in ("lapack.dpotrf(m)", "slope = (tilt.mu @ ratio[..., None])[..., 0]")
    )
    row = next(line for line in proc.stdout.splitlines() if line.startswith("blahut.py"))
    missed_lines = set()
    for run in row.split(None, 4)[4].split(", "):
        first, _, last = run.partition("-")
        missed_lines.update(range(int(first), int(last or first) + 1))
    assert newton in missed_lines and two_columns not in missed_lines


def test_line_census_fails_a_clean_exit_that_left_lines_unrun(tmp_path):
    # The script imports the CLI and exits 0; most lines never run, so the
    # census exits 1.  The body of io_cli's __main__ guard, which only a
    # subprocess runs, is not an executable line and is never listed.
    script = tmp_path / "import_only.py"
    script.write_text("import rdbridge.io_cli\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_census.py"), str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "lines never run (exit code 0):" in proc.stdout
    source = (ROOT / "src" / "rdbridge" / "io_cli.py").read_text().splitlines()
    guard = 1 + source.index('if __name__ == "__main__":')
    assert source[guard].strip() == "sys.exit(main())"
    row = next(line for line in proc.stdout.splitlines() if line.startswith("io_cli.py"))
    missed_lines = set()
    for run in row.split(None, 4)[4].split(", "):
        first, _, last = run.partition("-")
        missed_lines.update(range(int(first), int(last or first) + 1))
    # The guard's own test runs on import; its body is left out.
    assert missed_lines and guard not in missed_lines and guard + 1 not in missed_lines


def _load_src_lines():
    spec = importlib.util.spec_from_file_location("tools_src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_code_without_docstrings_comments_or_blanks():
    source = (
        '"""Module docstring\n'
        'on two lines."""\n'
        "import os\n"
        "\n"
        "# a comment-only line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return x + 1  # a trailing comment\n"
    )
    # Code lines: the import, the def and the return.
    assert _load_src_lines().count(source) == (10, 3)


def test_src_lines_lists_every_module_and_their_total():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = proc.stdout.splitlines()
    assert header.split() == ["module", "lines", "code"]
    counts = {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}
    assert set(counts) == {p.name for p in (ROOT / "src" / "rdbridge").glob("*.py")}
    name, lines, code = total.split()
    assert name == "total"
    assert (int(lines), int(code)) == tuple(map(sum, zip(*counts.values())))
