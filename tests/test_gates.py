"""Correctness gates are exceptions, so ``python -O`` keeps them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmx.hseries import HSeries
from rmx.ratfunc import RatFunc, _packing, _registry
from rmx.report import CheckReport
from rmx.tensorop import TensorOp

SRC = Path(__file__).resolve().parent.parent / "src"

GATES = """
from rmx.cli import main
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc, _packing, _registry
from rmx.report import CheckReport
from rmx.rmatrix import NormalizerError, _check_against_oracle, solve_normalizer
from rmx.script import ScriptError, parse_script
from rmx.states import FreeState, _chain_omega
from rmx.tensorop import TensorOp

def raises(fn, kind=(ValueError, NormalizerError)):
    try:
        fn()
    except kind:
        return True
    return False

Z = RatFunc.var("Z")
# -Z: a denominator with negative leading coefficient is not canonical
not_canonical = {_packing(1).gens[0]: -1}
caps = {"h": 2}
ltd = lie_type_data("C", 1)
vac = FreeState.vacuum(ltd, solve_normalizer(ltd, L=2), caps, 1)
# the normaliser perturbed at its top h-order
bad_g1 = (solve_normalizer(ltd, L=3).g1
          + HSeries.capped_var("h", {"h": 3}) ** 2 * (RatFunc.var("z") / 7))
assert not __debug__
print(raises(lambda: CheckReport("x", {}, "pass", 1, None, 0)),
      raises(lambda: CheckReport("x", {}, "fail", 0, None, 0)),
      raises(lambda: (1 / (1 - Z)).remove_denominator_factor(Z / 2)),
      raises(lambda: Z.lift(())),
      raises(lambda: TensorOp.identity(2, 1, caps)
             * TensorOp.identity(2, 2, caps)),
      raises(lambda: vac.residual(vac.with_identity_open())),
      raises(lambda: _chain_omega(2, caps, 1, [],
                                  [TensorOp.identity(2, 1, caps)] * 2)),
      raises(lambda: _registry(("Z",)).factorize(not_canonical)),
      raises(lambda: Z ** 20000 * Z ** 20000),
      raises(lambda: HSeries.one(caps) * HSeries.one({"h": 3}))
      and raises(lambda: TensorOp.identity(2, 1, caps)
                 + TensorOp.identity(2, 1, {"h": 3})),
      raises(lambda: _check_against_oracle(bad_g1, ltd.kappa, 3, 10)),
      main(["check", "ybe_hat", "--order", "0"]) == 64,
      raises(lambda: parse_script("type C 1\\norder 2\\nslots 2\\n"
                                  "check M[3] == 1\\n"), ScriptError))
"""


def test_gates_raise():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "pass", 2, None, 0)
    with pytest.raises(ValueError):
        CheckReport("x", {}, "fail", 0, None, 0)
    CheckReport("x", {}, "inconclusive", 0, "bound hit", 0)
    Z = RatFunc.var("Z")
    with pytest.raises(ValueError):
        (1 / (1 - Z)).remove_denominator_factor(Z / 2)
    with pytest.raises(ValueError):
        (1 / (1 - Z)).remove_denominator_factor(RatFunc.const(3))
    pack = _packing(1).pack
    for den in ({pack((1,)): -1}, {pack((0,)): 1, pack((2,)): -1}):
        with pytest.raises(ValueError):
            _registry(("Z",)).factorize(den)
    # a monomial exponent that would overflow its packed field raises
    # instead of wrapping into the next field
    with pytest.raises(ValueError):
        Z ** 20000 * Z ** 20000
    with pytest.raises(ValueError):
        (1 + Z) ** 40000
    with pytest.raises(ValueError):
        _packing(2).pack((40000, 0))
    # a mismatch of caps raises; nothing merges them silently
    with pytest.raises(ValueError):
        HSeries.one({"h": 2}) * HSeries.one({"h": 3})
    with pytest.raises(ValueError):
        TensorOp.identity(2, 1, {"h": 2}) + TensorOp.identity(2, 1, {"h": 3})


def test_gates_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", GATES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"] * 13
