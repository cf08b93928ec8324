"""``tools/frontier_ab.py`` end to end, with this checkout on both sides."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "frontier_ab.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_one_checkout_against_itself_agrees():
    proc = _run(ROOT, ROOT, "ybe_hat --order 1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "ybe_hat --order 1"
    # one median line per side, base first, then the pairs won
    assert [line.split()[0] for line in lines[2:]] == ["base", "change",
                                                       "won"]
    assert re.fullmatch(r"  won    \d+ of 10 pairs by change", lines[4])
    assert "REPORTS DIFFER" not in proc.stdout


def test_a_directory_without_src_rmx_is_a_usage_error(tmp_path):
    proc = _run(tmp_path, ROOT, "ybe_hat --order 1")
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "has no src/rmx" in proc.stderr
