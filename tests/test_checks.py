from fractions import Fraction

import pytest

from rmx.checks import (builtin_check, clear_pole, correspondence_check,
                        evaluate, pole_order, prefactor_substitute,
                        CHECK_NAMES, PolynomialityError)
from rmx.lietype import lie_type_data
from rmx.module_checks import _clearing_exponent, weak_assoc_chain
from rmx.rmatrix import Arg, rmatrix, solve_normalizer
from rmx.hseries import HSeries
from rmx.ratfunc import RatFunc
from rmx.script import parse_script
from rmx.tensorop import TensorOp


@pytest.mark.parametrize("name", ["ybe_hat", "crossing_hat", "unitarity_hat"])
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
    with pytest.raises(PolynomialityError, match=r"entry \(\(0,\), \(0,\)\)"):
        prefactor_substitute(bad, 0, "x", "y", "Z0")
    ok = prefactor_substitute(bad, 1, "x", "y", "Z0")
    # 1/(x-y) * (x-y)^1 -> 1, then y -> x*Z0 leaves 1
    assert dict(ok.items())[((0,), (0,))].is_one()


def test_prefactor_substitute_laurent_in_y():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    caps = {"h": 2}
    op = TensorOp(2, 1, caps,
                  {((0,), (0,)): HSeries.const(x / y, caps)})
    out = prefactor_substitute(op, 0, "x", "y", "Z0")
    z0 = RatFunc.var("Z0")
    assert dict(out.items())[((0,), (0,))] == HSeries.const(1 / z0, caps)


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


# The searches that clear_pole and _clearing_exponent replaced: try
# r = r_start, r_start + 1, ... up to r_max.

def _searched_clear_pole(op, r_start, r_max):
    for r in range(r_start, r_max + 1):
        try:
            return r, prefactor_substitute(op, r, "x", "y", "Z0")
        except PolynomialityError:
            continue
    return None


def _searched_clearing_exponent(coeffs, factor, r_max):
    for r in range(r_max + 1):
        if all((c * factor ** (2 * r)).denom_is_monomial() for c in coeffs):
            return r
    return None


def _scalar_op(coeffs):
    caps = {"h": 2}
    return TensorOp(2, 1, caps, {((i,), (i,)): HSeries.const(c, caps)
                                 for i, c in enumerate(coeffs)})


def _pole_ops():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    ltd = lie_type_data("C", 1)
    lhs_raw = rmatrix(ltd, solve_normalizer(ltd, L=2), Arg.make(
        x / y, {"u": 1, "v": -1, "h": Fraction(1, 2)}),
        {"h": 2, "u": 2, "v": 2})
    return {
        "correspondence": lhs_raw,
        "order 3 and 1": _scalar_op([x / ((x - y) ** 3 * y ** 2),
                                     1 / (y - x)]),
        "no pole": _scalar_op([x ** 2 / y, RatFunc.const(3)]),
        "other factor": _scalar_op([1 / ((x - y) * (1 + x))]),
    }


@pytest.mark.parametrize("r_start", [0, 2, 3, 5])
@pytest.mark.parametrize("r_max", [1, 3, 16])
def test_clear_pole_matches_the_search(r_start, r_max):
    for name, op in _pole_ops().items():
        got = clear_pole(op, r_start, r_max, "x", "y", "Z0")
        want = _searched_clear_pole(op, r_start, r_max)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got[0] == want[0], name
            assert got[1].entries_data() == want[1].entries_data(), name


def test_pole_order_reads_every_denominator():
    x, y, z = (RatFunc.var(v) for v in "xyz")
    coeffs = [1 / (x - y) ** 2, z / (y - x) ** 3, 1 / (1 - z),
              RatFunc.const(Fraction(1, 2))]
    assert pole_order(coeffs, x - y) == 3
    assert pole_order(coeffs, y - x) == 3
    assert pole_order([], x - y) == 0


def test_clearing_exponent_matches_the_search():
    z1, z2, z0 = (RatFunc.var(v) for v in ("Z1", "Z2", "Z0"))
    cases = [[z1 / ((z1 - z2) ** 3 * z0), z2 / (z1 - z2)],
             [1 / (z2 - z1) ** 4],
             [z1 * z0 ** 2, RatFunc.const(2)],
             [1 / ((z1 - z2) ** 2 * (1 + z1))]]
    for coeffs in cases:
        for r_max in (0, 1, 2, 16):
            assert (_clearing_exponent(coeffs, z1 - z2, r_max)
                    == _searched_clearing_exponent(coeffs, z1 - z2, r_max)), \
                (coeffs, r_max)


def test_correspondence_exponent_above_the_least():
    # r_start above r* is taken as it is; the identity holds there too
    least = correspondence_check("C", 1, alpha=0, a=2, b=2, l=2)
    r = int(least.witness[2:])
    rep = correspondence_check("C", 1, alpha=0, a=2, b=2, l=2,
                               r_start=r + 2)
    assert rep.passed and rep.witness == f"r={r + 2}"
    short = correspondence_check("C", 1, alpha=0, a=2, b=2, l=2,
                                 r_max=r - 1)
    assert short.verdict == "inconclusive"


def test_weak_assoc_exponent_bound():
    rep = weak_assoc_chain("C", 1, L=2, cap_uv=1, r_max=0)
    assert rep.verdict == "inconclusive"
    assert weak_assoc_chain("C", 1, L=2, cap_uv=1).witness == "r=1"


def test_builtin_check_passes_the_order_keyword_the_check_takes():
    got = builtin_check("correspondence", "C", 1, L=1, alpha=0, a=1, b=1)
    want = correspondence_check("C", 1, alpha=0, a=1, b=1, l=1)
    got, want = got.to_dict(), want.to_dict()
    del got["elapsed_ms"], want["elapsed_ms"]
    assert got == want
