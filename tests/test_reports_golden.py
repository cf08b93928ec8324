"""Golden reports: every registered check at C1, order 2, plus a failing
YBE script, run through ``rmx suite --format json``.

The expected reports, with ``elapsed_ms`` removed, are in
``reports_golden.json`` next to this file.  A refactor that changes a
verdict, a residual count or a witness fails here.  To regenerate the data
after a deliberate change of a report, run

    PYTHONPATH=src python tests/test_reports_golden.py --write
"""

import json
import pathlib
import sys

from rmx.checks import CHECKS
from rmx.cli import main

DATA = pathlib.Path(__file__).with_name("reports_golden.json")

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
    reports = json.loads(out.getvalue())
    for rep in reports:
        del rep["elapsed_ms"]
    return code, reports


def test_reports_match_golden(tmp_path):
    code, reports = run_suite(tmp_path / "suite.json")
    expected = json.loads(DATA.read_text())
    assert code == 1        # the perturbed script fails
    assert [r["name"] for r in reports] == [r["name"] for r in expected]
    for got, want in zip(reports, expected):
        assert got == want, got["name"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reports_golden.py --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _, reports = run_suite(pathlib.Path(tmp) / "suite.json")
    DATA.write_text(json.dumps(reports, indent=1) + "\n")
