"""``tools/traffic.py``: its survey in a fresh interpreter on one cheap
check, and its fixed set bound to the checks' signatures without a run."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

from test_frontier_ab import _load_tool

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "traffic.py"
PATHS = [str(TOOL.parent), str(ROOT / "src")]

# a fresh interpreter, so that no cache of this process hides a call
SURVEY = f"""\
import json, sys
from functools import partial
sys.path[:0] = {PATHS!r}
import traffic
import rmx
print(json.dumps(traffic.survey(
    [partial(rmx.builtin_check, "ybe_hat", "C", 1, L=1)])))
"""


def test_survey_of_one_check():
    proc = subprocess.run([sys.executable, "-B", "-c", SURVEY],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    never, unrun = result["ratfunc.py"]
    assert "_subs_by_terms" in never and "_subs_by_terms" not in unrun
    never, unrun = result["hseries.py"]
    assert "HSeries.__mul__" not in never
    # the check never reaches the module layer
    never, unrun = result["states.py"]
    assert "FreeState.merge_y" in never and not unrun


def test_fixed_set_binds_to_the_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tool = _load_tool(TOOL)
    runs = list(tool.fixed_set())
    # 24 workload entries per seed, 43 grid checks, 18 golden entries,
    # 5 correspondence and 4 weak_assoc_chain configurations
    assert len(runs) == 2 * 24 + 43 + 18 + 5 + 4
    for run in runs:
        inspect.signature(run.func).bind(*run.args, **run.keywords)


def test_an_argument_is_a_usage_error(capsys):
    assert _load_tool(TOOL).main(["--help"]) == 64
    assert "usage: python3 tools/traffic.py" in capsys.readouterr().err
