from fractions import Fraction

import pytest

from rmx.checks import (builtin_check, correspondence_check, evaluate,
                        prefactor_substitute, CHECK_NAMES, PolynomialityError)
from rmx.hseries import HSeries
from rmx.ratfunc import RatFunc
from rmx.script import parse_script
from rmx.tensorop import TensorOp


@pytest.mark.parametrize("name", ["ybe_hat", "crossing_hat", "unitarity_hat",
                                  "ybe_tilde", "crossing_tilde"])
@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
def test_matrix_identities(name, family, n):
    rep = builtin_check(name, family, n, L=3)
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("name", ["gfunc", "g_one"])
@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1), ("D", 2)])
def test_scalar_identities(name, family, n):
    rep = builtin_check(name, family, n, L=4)
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("c", [0, 1])
def test_csuni(k, c):
    rep = builtin_check("csuni", "C", 1, L=3, k=k, c=Fraction(c))
    assert rep.passed, rep.to_text()


def test_csuni_b1():
    rep = builtin_check("csuni", "B", 1, L=2, k=1)
    assert rep.passed, rep.to_text()


def test_unknown_check_name():
    with pytest.raises(KeyError):
        builtin_check("nope", "C", 1)
    assert "ybe_hat" in CHECK_NAMES


def test_argument_the_check_does_not_take():
    with pytest.raises(TypeError):
        builtin_check("unitarity_hat", "C", 1, L=2, k=2)


def test_perturbed_ybe_fails():
    text = """\
type C 1
order 3
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u-v) * Rhat[1,2](u)
"""
    rep = evaluate(parse_script(text), name="perturbed_ybe")
    assert rep.verdict == "fail"
    assert rep.residual_count > 0
    assert rep.witness is not None


def test_report_shapes():
    rep = builtin_check("unitarity_hat", "C", 1, L=2)
    d = rep.to_dict()
    assert list(d) == ["name", "params", "verdict", "residual_count",
                      "witness", "elapsed_ms"]
    assert rep.to_json().startswith('{"name"')
    assert "PASS" in rep.to_text()


def test_prefactor_substitute_shape_guard():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    caps = {"h": 2}
    bad = TensorOp(2, 1, caps,
                   {((0,), (0,)): HSeries.const(1 / (x - y), caps)})
    with pytest.raises(PolynomialityError):
        prefactor_substitute(bad, 0, "x", "y", "Z0")
    ok = prefactor_substitute(bad, 1, "x", "y", "Z0")
    # 1/(x-y) * (x-y)^1 -> 1, then y -> x*Z0 leaves 1
    assert ok.entries[((0,), (0,))].is_one()


def test_prefactor_substitute_laurent_in_y():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    caps = {"h": 2}
    op = TensorOp(2, 1, caps,
                  {((0,), (0,)): HSeries.const(x / y, caps)})
    out = prefactor_substitute(op, 0, "x", "y", "Z0")
    z0 = RatFunc.var("Z0")
    assert out.entries[((0,), (0,))] == HSeries.const(1 / z0, caps)


def test_correspondence_c1():
    rep = correspondence_check("C", 1, alpha=0, a=2, b=2, l=2)
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("r=")


def test_correspondence_classical_trivial():
    rep = correspondence_check("C", 1, alpha=0, a=1, b=1, l=1)
    assert rep.passed, rep.to_text()


def test_correspondence_half_alpha():
    rep = correspondence_check("B", 1, alpha=Fraction(1, 2), a=2, b=2, l=2)
    assert rep.passed, rep.to_text()


def test_correspondence_inconclusive_bound():
    rep = correspondence_check("C", 1, alpha=0, a=2, b=2, l=2, r_max=0)
    assert rep.verdict == "inconclusive"
    assert rep.residual_count == 0


def test_builtin_check_passes_the_order_keyword_the_check_takes():
    got = builtin_check("correspondence", "C", 1, L=1, alpha=0, a=1, b=1)
    want = correspondence_check("C", 1, alpha=0, a=1, b=1, l=1)
    got, want = got.to_dict(), want.to_dict()
    del got["elapsed_ms"], want["elapsed_ms"]
    assert got == want
