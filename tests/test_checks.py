import functools
from fractions import Fraction

import pytest

from rmx.checks import (builtin_check, correspondence_check, evaluate,
                        pole_order, prefactored_verdict, CHECK_NAMES)
from rmx.lietype import lie_type_data
from rmx.module_checks import weak_assoc_chain
from rmx.rmatrix import Arg, rmatrix, solve_normalizer
from rmx.hseries import HSeries
from rmx.ratfunc import RatFunc
from rmx.script import parse_script
from rmx.states import FreeState, Term
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


# The search that prefactored_verdict replaces: for r = r_start,
# r_start + 1, ... up to r_max, scale by (x-y)^(power*r), read every
# coefficient's expanded denominator, and substitute y = x*z at the first r
# where each is a monomial in y alone.

def _coeffs(obj):
    ops = ([t.coeff for t in obj.terms] if isinstance(obj, FreeState)
           else [obj])
    return [c for op in ops for s in op.entries.values()
            for c in s.terms.values()]


def _denominator_in(coeff, y):
    (mono, _), *rest = coeff.denom_terms()
    return not rest and set(mono) <= {y}


def _searched(obj, x, y, r_start, r_max, power):
    xv, yv = RatFunc.var(x), RatFunc.var(y)
    for r in range(r_start, r_max + 1):
        scaled = obj.scale((xv - yv) ** (power * r))
        if all(_denominator_in(c, y) for c in _coeffs(scaled)):
            return r, scaled.subs_ring_var(y, xv * RatFunc.var("Z0"))
    return None


CAPS = {"h": 2}


def _scalar_op(coeffs):
    return TensorOp(2, 1, CAPS, {((i,), (i,)): HSeries.const(c, CAPS)
                                 for i, c in enumerate(coeffs)})


def _scalar_state(coeffs):
    # one open slot and one empty word
    return FreeState(lie_type_data("C", 1), None, CAPS, 0, 1,
                     [Term(_scalar_op(coeffs), ((),))])


@functools.lru_cache(maxsize=None)
def _pole_cases():
    """name -> (operator or state, x, y): operators over x and y, states
    over Z2 and Z1, the pair of the weak associativity chain."""
    x, y = RatFunc.var("x"), RatFunc.var("y")
    z1, z2, z0 = (RatFunc.var(v) for v in ("Z1", "Z2", "Z0"))
    ltd = lie_type_data("C", 1)
    lhs_raw = rmatrix(ltd, solve_normalizer(ltd, L=2), Arg.make(
        x / y, {"u": 1, "v": -1, "h": Fraction(1, 2)}),
        {"h": 2, "u": 2, "v": 2})
    three = FreeState.pure(ltd, solve_normalizer(ltd, L=2),
                           {"h": 2, "u": 1, "v": 1}, 0,
                           [[Arg.make(1, {"u": -1})],
                            [Arg.make(1, {"v": -1})], []])
    direct = three.merge_y(2, 3, Arg.make(z2)).merge_y(1, 2, Arg.make(z1))
    ops = {
        "correspondence": lhs_raw,
        # Laurent in y already: x/y -> 1/Z0 at r = 0
        "x/y": _scalar_op([x / y]),
        # the shape guard: inadmissible at r = 0, cleared at r = 1
        "1/(x-y)": _scalar_op([1 / (x - y)]),
        "order 3 and 1": _scalar_op([x / ((x - y) ** 3 * y ** 2),
                                     1 / (y - x)]),
        "no pole": _scalar_op([x ** 2 / y, RatFunc.const(3)]),
        "other factor": _scalar_op([1 / ((x - y) * (1 + x))]),
    }
    states = {
        "weak associativity": direct,
        "order 3 and 1 over Z0": _scalar_state(
            [z1 / ((z1 - z2) ** 3 * z0), z2 / (z1 - z2)]),
        "order 4": _scalar_state([1 / (z2 - z1) ** 4]),
        "no pole in Z": _scalar_state([z1 * z0 ** 2, RatFunc.const(2)]),
        "other factor in Z": _scalar_state([1 / ((z1 - z2) ** 2 * (1 + z1))]),
        # a monomial denominator in x: never admissible
        "x below": _scalar_state([1 / ((z1 - z2) ** 2 * z2)]),
    }
    return ({name: (op, "x", "y") for name, op in ops.items()}
            | {name: (st, "Z2", "Z1") for name, st in states.items()})


def _closed(name, k):
    """The cleared, substituted form of a case at (x-y)^k, if known."""
    x, z0 = RatFunc.var("x"), RatFunc.var("Z0")
    if name == "x/y":
        return x ** k * (1 - z0) ** k / z0
    if name == "1/(x-y)":
        return (x * (1 - z0)) ** (k - 1)
    return None


@pytest.mark.parametrize("r_start", [0, 2, 3, 5])
@pytest.mark.parametrize("r_max", [0, 1, 3, 16])
def test_clear_pole_matches_the_search(r_start, r_max):
    # both callers' powers, on operators and on states
    for power in (1, 2):
        for name, (obj, x, y) in _pole_cases().items():
            want = _searched(obj, x, y, r_start, r_max, power)
            if want is None:
                expected = ("inconclusive", 0,
                            f"no admissible prefactor exponent r <= {r_max}")
            else:
                r, cleared = want
                expected = ("pass", 0, f"r={r}")
                closed = _closed(name, power * r)
                if closed is not None:
                    assert cleared == _scalar_op([closed]), name

            def rhs(r):
                assert want is not None, f"{name}: r={r} is not admissible"
                return want[1]
            got = prefactored_verdict(obj, _coeffs(obj), x, y, "Z0", rhs,
                                      r_max, r_start, power)
            assert got == expected, (name, power)


def test_pole_order_reads_every_denominator():
    x, y, z = (RatFunc.var(v) for v in "xyz")
    coeffs = [1 / (x - y) ** 2, z / (y - x) ** 3, 1 / (1 - z),
              RatFunc.const(Fraction(1, 2))]
    assert pole_order(coeffs, x - y) == 3
    assert pole_order(coeffs, y - x) == 3
    assert pole_order([], x - y) == 0


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
