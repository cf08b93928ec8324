"""rmx runs without sympy: importing it loads none, and the golden suite
gives the golden reports in an interpreter where ``import sympy`` raises.

sympy is only the fallback of the denominator factorization for what its
exact splitting rules cannot settle, and the oracle of the tests.

Every name a module exports in ``__all__`` exists, so a deletion cannot
leave a stale export behind.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rmx

from test_reports_golden import SUITE, assert_golden, without_timings

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK_SYMPY = 'import sys; sys.modules["sympy"] = None\n'


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)


def test_import_loads_no_sympy():
    out = _run("import sys\nimport rmx, rmx.cli, rmx.script\n"
               "print(sorted(m for m in sys.modules\n"
               "             if m.split('.')[0] == 'sympy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_golden_suite_without_sympy(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SUITE))
    out = _run(BLOCK_SYMPY + "from rmx.cli import main\n"
               "sys.exit(main(['suite', sys.argv[1], '--format', 'json']))",
               str(path))
    assert out.stdout, out.stderr
    assert_golden(out.returncode, without_timings(out.stdout))


def test_every_exported_name_resolves():
    modules = [rmx] + [importlib.import_module(f"rmx.{info.name}")
                       for info in pkgutil.iter_modules(rmx.__path__)]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
