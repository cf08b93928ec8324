"""``tools/frontier_ab.py`` end to end, with this checkout on both sides."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "frontier_ab.py"


def _load_tool(path=TOOL):
    """The script at ``path`` as a module, with no bytecode written."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_one_checkout_against_itself_agrees():
    proc = _run(ROOT, ROOT, "ybe_hat --order 1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "ybe_hat --order 1"
    # one line per side, base first, then the pairs won and the gap
    assert [line.split()[0] for line in lines[2:]] == ["base", "change",
                                                       "won", "gap"]
    # median, then [quartiles] and [low, high]
    pair = r"\[\d+\.\d{4}, \d+\.\d{4}\]"
    times = rf"\s+\d+\.\d{{4}} s {pair} {pair}"
    assert re.fullmatch(r"  base" + times, lines[2])
    assert re.fullmatch(r"  change" + times + r"  \([+-]\d+\.\d%\)",
                        lines[3])
    assert re.fullmatch(r"  won    \d+ of 10 pairs by change", lines[4])
    assert re.fullmatch(r"  gap    \d+\.\d{4} s (exceeds|is within) the "
                        r"base IQR \d+\.\d{4} s", lines[5])
    assert "REPORTS DIFFER" not in proc.stdout


def test_runs_of_a_check_of_a_few_ms_get_distinct_times():
    tool = _load_tool()
    runs = [tool.run_check(ROOT, ["ybe_hat", "--order", "1"])
            for _ in range(10)]
    assert len({report for report, _ in runs}) == 1
    times = [seconds for _, seconds in runs]
    assert len(set(times)) == 10 and 0 < min(times)


def test_a_directory_without_src_rmx_is_a_usage_error(tmp_path):
    proc = _run(tmp_path, ROOT, "ybe_hat --order 1")
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "has no src/rmx" in proc.stderr


def test_the_side_that_runs_first_alternates(tmp_path, monkeypatch):
    tool = _load_tool()
    base, change = tmp_path / "base", tmp_path / "change"
    for root in (base, change):
        (root / "src" / "rmx").mkdir(parents=True)
    calls = []

    def run_check(root, args):
        calls.append(root)
        return "{}", 1.0
    monkeypatch.setattr(tool, "run_check", run_check)
    assert tool.main([str(base), str(change), "ybe_hat --order 1"]) == 0
    assert calls == [base, change, change, base] * (tool.RUNS // 2)
