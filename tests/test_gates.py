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
from fractions import Fraction
from math import factorial
from rmx.cli import main
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc, _packing, _registry
from rmx.report import CheckReport
from rmx.rmatrix import (Arg, NormalizerError, _Laurent,
                         _check_against_oracle, _check_functional_equation,
                         _rhs_orders, solve_normalizer)
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
# the same, as h-order lists in Q[w, 1/w] for the functional-equation
# gate: z/7 is (1 + w)/7, and S_j = sum_m ((-kappa)^m / m!) theta^m g_{j-m}
bad = list(solve_normalizer(ltd, L=3).orders)
bad[2] = bad[2] + _Laurent({0: 1, 1: 1}, 7)

def shift(j):
    out = _Laurent({})
    for m in range(j + 1):
        t = bad[j - m]
        for _ in range(m):
            t = t.theta()
        out = out + _Laurent.const(Fraction(-ltd.kappa) ** m
                                   / factorial(m)) * t
    return out
shifted = [shift(j) for j in range(3)]
# a plain non-integer constant as the normaliser's h^0 coefficient
half = HSeries.const(Fraction(1, 2), {"h": 1})
# the normaliser's h-orders; with_h1 replaces the h^1 coefficient
g3 = [solve_normalizer(ltd, L=3).g1.coeff({"h": l}) for l in range(3)]

def with_h1(c1):
    return HSeries({"h": 3}, {(0,): g3[0], (1,): c1, (2,): g3[2]})

def message(fn):
    try:
        fn()
    except NormalizerError as exc:
        return str(exc)
    return ""
two = TensorOp.identity(2, 2, caps)
pure = FreeState.pure(ltd, solve_normalizer(ltd, L=2), caps, 1,
                      [[Arg.make(Z)], [Arg.make(RatFunc.var("Y"))]])
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
      raises(lambda: _check_functional_equation(
          bad, shifted, _rhs_orders(ltd.kappa, 3))),
      raises(lambda: _check_against_oracle(half, ltd.kappa, 1, 10)),
      "not a power of (1-z)" in message(lambda: _check_against_oracle(
          with_h1(g3[1] / (1 + RatFunc.var("z"))), ltd.kappa, 3, 10)),
      "at z = 0" in message(lambda: _check_against_oracle(
          with_h1(g3[1] + 1), ltd.kappa, 3, 10)),
      main(["check", "ybe_hat", "--order", "0"]) == 64,
      raises(lambda: parse_script("type C 1\\norder 2\\nslots 2\\n"
                                  "check M[3] == 1\\n"), ScriptError),
      raises(lambda: TensorOp(2, 1, caps,
                              {((5,), (-1,)): HSeries.one(caps)})),
      raises(lambda: two.swap_slots(0, 1)),
      raises(lambda: two.transpose_slot(0, ltd)),
      raises(lambda: two.conj_diag([HSeries.one(caps)] * 2, 3)),
      raises(lambda: pure.swap_open(0, 1)))
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
    assert out.stdout.split() == ["True"] * 22
