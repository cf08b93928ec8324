"""The benchmark's pinned answers hold.

``perfbench/workloads.py`` pins the report (verdict, residual count and
witness) of every workload entry at its default seed.  Running every entry
here makes a changed answer fail in the test suite, before anyone runs the
benchmark.  The module is loaded read-only from its file, without writing
bytecode next to it.

Every entry, at its default seed and at seed 1, also runs without the
term-by-term substitution route (see ``test_reports_golden.NO_TERM_ROUTE``).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from test_reports_golden import NO_TERM_ROUTE, run_python

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_reports(workload):
    seed = workloads.DEFAULT_SEED
    for entry in workloads.build(workload, seed):
        data = json.loads(workloads.run_entry(entry).to_json())
        got = [data["verdict"], data["residual_count"], data["witness"]]
        assert workloads.judge(entry, got, seed) is None, entry.metric


GUARDED_SEEDS = (workloads.DEFAULT_SEED, 1)

JUDGE_ALL = NO_TERM_ROUTE + """
import json
sys.path.insert(0, sys.argv[1])
from test_pinned import GUARDED_SEEDS, workloads

wrong = []
for seed in GUARDED_SEEDS:
    for workload in workloads.WORKLOADS:
        for entry in workloads.build(workload, seed):
            data = json.loads(workloads.run_entry(entry).to_json())
            got = [data["verdict"], data["residual_count"], data["witness"]]
            reason = workloads.judge(entry, got, seed)
            if reason is not None:
                wrong.append(f"{entry.metric} at seed {seed}: {reason}")
print(json.dumps(wrong))
"""


def test_workloads_take_no_term_route():
    out = run_python("-c", JUDGE_ALL, Path(__file__).parent)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
