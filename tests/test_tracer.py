"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces methods and functions of rmx by name, so a
renamed or deleted one breaks the benchmark.  This installs the tracer in a
fresh interpreter and runs small checks through it: an R-matrix identity,
the normaliser's functional equation (the one check that re-expands a
series by ``subst_mult``) and ``g_one`` (the one check that evaluates g1 by
``Normalizer.g1_at``), then a module-layer check, whose state operations
the tracer reads through ``FreeState.terms``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
import rmx
rep = rmx.builtin_check("unitarity_hat", "C", 1, L=2)
gfunc = rmx.builtin_check("gfunc", "C", 1, L=2)
g_one = rmx.builtin_check("g_one", "C", 1, L=2)
print(json.dumps([[rep.verdict, gfunc.verdict, g_one.verdict],
                  tracer.counts()]))
rep = rmx.module_check("tminus_vacuum", "C", 1, L=2)
print(json.dumps([rep.verdict, tracer.counts()]))
"""


def test_tracer_installs_and_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", TRACED], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    first, second = out.stdout.splitlines()[-2:]
    verdicts, counts = json.loads(first)
    assert verdicts == ["pass", "pass", "pass"]
    for boundary in ("ratfunc.ops", "hseries.mul", "hseries.inv",
                     "hseries.subst_mult", "hseries._remap", "tensorop.mul",
                     "tensorop.embed", "rmatrix.build", "rmatrix.g1_at",
                     "rmatrix.solve", "script.parse", "script.eval"):
        assert counts.get(boundary, 0) > 0, boundary
    verdict, counts = json.loads(second)
    assert verdict == "pass"
    for boundary in ("states.apply_tminus", "states.residual",
                     "states.peak_terms"):
        assert counts.get(boundary, 0) > 0, boundary
