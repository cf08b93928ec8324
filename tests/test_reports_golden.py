"""Golden reports: every registered check at C1, order 2, plus a failing
YBE script, run through ``rmx suite --format json``.

The expected reports, with ``elapsed_ms`` removed, are in
``reports_golden.json`` next to this file.  A refactor that changes a
verdict, a residual count or a witness fails here.  The suite also runs in
a ``python -O`` subprocess, which strips every ``assert``, and must give the
same reports there.  To regenerate the data after a deliberate change of a
report, run

    PYTHONPATH=src python tests/test_reports_golden.py --write
"""

import json
import os
import pathlib
import subprocess
import sys

from rmx.checks import CHECKS
from rmx.cli import main

DATA = pathlib.Path(__file__).with_name("reports_golden.json")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PERTURBED = """\
type C 1
order 2
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u-v) * Rhat[1,2](u)
"""

SUITE = [{"name": name, "family": "C", "n": 1, "order": 2}
         for name in sorted(CHECKS)] \
    + [{"name": "perturbed_ybe", "script": PERTURBED}]


def run_suite(path):
    """The suite's reports without their timings, and the exit code."""
    path.write_text(json.dumps(SUITE))
    from io import StringIO
    from contextlib import redirect_stdout
    out = StringIO()
    with redirect_stdout(out):
        code = main(["suite", str(path), "--format", "json"])
    return code, without_timings(out.getvalue())


def without_timings(text):
    reports = json.loads(text)
    for rep in reports:
        del rep["elapsed_ms"]
    return reports


def assert_golden(code, reports):
    expected = json.loads(DATA.read_text())
    assert code == 1        # the perturbed script fails
    assert [r["name"] for r in reports] == [r["name"] for r in expected]
    for got, want in zip(reports, expected):
        assert got == want, got["name"]


def test_reports_match_golden(tmp_path):
    assert_golden(*run_suite(tmp_path / "suite.json"))


def run_python(*args):
    """A fresh interpreter with ``src`` on its path, run with ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=600)


def test_reports_match_golden_under_python_O(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SUITE))
    out = run_python("-O", "-m", "rmx.cli", "suite", path, "--format", "json")
    assert out.stdout, out.stderr
    assert_golden(out.returncode, without_timings(out.stdout))


# The checks give ``RatFunc.substitution`` only the two coefficient shapes
# that it maps by packed exponents.  A third shape would go to the slower
# term-by-term route, ``rmx.ratfunc._subs_by_terms``, so this prelude
# replaces that route by one that raises.  It runs in a fresh interpreter,
# where no cached R-matrix build hides a substitution.
NO_TERM_ROUTE = """\
import sys
import rmx.ratfunc


def refuse(c, name, value):
    raise AssertionError(f"{name} -> {value} in {c} went term by term")


rmx.ratfunc._subs_by_terms = refuse
"""


def test_golden_suite_takes_no_term_route(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SUITE))
    out = run_python("-c", NO_TERM_ROUTE + "from rmx.cli import main\n"
                     "sys.exit(main(['suite', sys.argv[1], '--format', "
                     "'json']))", path)
    assert out.stdout, out.stderr
    assert_golden(out.returncode, without_timings(out.stdout))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reports_golden.py --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _, reports = run_suite(pathlib.Path(tmp) / "suite.json")
    DATA.write_text(json.dumps(reports, indent=1) + "\n")
