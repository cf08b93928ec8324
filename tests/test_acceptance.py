"""End-to-end acceptance suite.

Every check here demands an exactly zero residual at the stated truncation
order; nothing is compared approximately.  The criteria cover the
normalizing series and its oracle, the classical limits, the R-matrix
identity suite, the additive/multiplicative
correspondence, the inverse transposed chain identity, the module-layer
operator calculus, the braiding identities, the weak associativity chain,
and the negative controls with the CLI exit-code contract.
"""

import json
from fractions import Fraction

import pytest

from rmx.checks import (builtin_check, correspondence_check, evaluate,
                        prefactored_verdict)
from rmx.cli import main
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.module_checks import (_exchange, _weak_assoc_reordered,
                               module_check, weak_assoc_chain)
from rmx.ratfunc import RatFunc
from rmx.rmatrix import (Arg, diag_op, m_diag, rhat_inv, rmatrix,
                         solve_normalizer)
from rmx.script import parse_script
from rmx.states import FreeState, _arg_derivative, arg_diff, arg_h, arg_sum

FAMILIES = [("B", 1), ("C", 1), ("D", 2)]


# 1. normalizing series: functional equation and series oracle at L=4
@pytest.mark.parametrize("family,n", FAMILIES)
def test_criterion_1_normalizer(family, n):
    norm = solve_normalizer(lie_type_data(family, n), L=4,
                            z_degree_oracle=10)
    assert norm.L == 4 and norm.oracle_degree == 10
    rep = builtin_check("gfunc", family, n, L=4)
    assert rep.passed, rep.to_text()


# 2. classical limit: the R-matrix is the identity at order zero
@pytest.mark.parametrize("family,n", FAMILIES)
def test_criterion_2_classical_limit(family, n):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=1)
    caps = {"h": 1}
    op = rmatrix(ltd, norm, Arg.make(RatFunc.var("Z")), caps)
    for (row, col), series in op.items():
        expected = 1 if row == col else 0
        assert (series.coeff({}) - RatFunc.const(expected)).is_zero(), \
            (row, col, repr(series))


# 3. R-hat identity suite at L=3 for N = 2, 3, 4
@pytest.mark.parametrize("family,n", FAMILIES)
@pytest.mark.parametrize("name", ["ybe_hat", "crossing_hat", "unitarity_hat"])
def test_criterion_3_rhat_suite(family, n, name):
    rep = builtin_check(name, family, n, L=3)
    assert rep.passed, rep.to_text()


# 4. normalizer product chain at L=4
@pytest.mark.parametrize("family,n", FAMILIES)
def test_criterion_4_g_chain(family, n):
    rep = builtin_check("g_one", family, n, L=4)
    assert rep.passed, rep.to_text()


# 6. additive/multiplicative correspondence, caps 2, order 3
@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
@pytest.mark.parametrize("alpha", [0, Fraction(1, 2), Fraction(-1, 2)])
def test_criterion_6_correspondence(family, n, alpha):
    rep = correspondence_check(family, n, alpha=alpha, a=2, b=2, l=3,
                               r_max=16)
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("r=")


# 7. inverse transposed chain identity at k = 1, 2, L=3
@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
@pytest.mark.parametrize("k", [1, 2])
def test_criterion_7_csuni(family, n, k):
    rep = builtin_check("csuni", family, n, L=3, k=k, c=Fraction(1))
    assert rep.passed, rep.to_text()


# 8. module layer at L=3, c in {0, 1}
@pytest.mark.parametrize("c", [0, 1])
def test_criterion_8_vacuum_and_shift(c):
    for name in ("tminus_vacuum", "s_shift"):
        rep = module_check(name, "C", 1, L=3, c=Fraction(c))
        assert rep.passed, rep.to_text()
    rep = module_check("mixed", "C", 1, L=3, k=1, c=Fraction(c))
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["roundtrip", "rtt_minus", "rel_minus"])
def test_criterion_8_word_relations(name, k, c):
    rep = module_check(name, "C", 1, L=3, k=k, c=Fraction(c))
    assert rep.passed, rep.to_text()


# 9. braiding unitarity and hexagon at m = k = 1, L=3
@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("name", ["s_unitarity", "hexagon"])
def test_criterion_9_braiding(name, c):
    rep = module_check(name, "C", 1, L=3, c=Fraction(c))
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("raw=")


# the hexagon at B1 (N=3), L=2, where each vertex map contracts 2,025-entry
# coefficients
@pytest.mark.parametrize("c", [0, 1])
def test_criterion_9_hexagon_b1(c):
    rep = module_check("hexagon", "B", 1, L=2, c=Fraction(c))
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("raw=")


# the module layer at rank 2 (N=4 and N=5) and at D3 (N=6), L=2
@pytest.mark.parametrize("family,n", [("C", 2), ("B", 2)])
@pytest.mark.parametrize("name", ["tminus_vacuum", "rtt_minus", "mixed",
                                  "roundtrip", "rel_minus", "s_shift",
                                  "s_unitarity"])
def test_criterion_8_rank_two(name, family, n):
    rep = module_check(name, family, n, L=2, c=Fraction(1))
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("name", ["roundtrip", "rel_minus"])
def test_criterion_8_d3(name):
    rep = module_check(name, "D", 3, L=2, c=Fraction(1))
    assert rep.passed, rep.to_text()


def test_criterion_9_hexagon_c2():
    rep = module_check("hexagon", "C", 2, L=2, c=Fraction(1))
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("raw=")


# 10. weak associativity chain at k = m = 1, c = 0, caps 2, L=2
def test_criterion_10_weak_assoc_chain():
    rep = weak_assoc_chain("C", 1, L=2, c=Fraction(0), cap_uv=2, r_max=16)
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("r=")


def test_criterion_10_weak_assoc_chain_c2():
    rep = weak_assoc_chain("C", 2, L=2, c=Fraction(0), cap_uv=1, r_max=16)
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("r=")


# 11. negative controls and the CLI exit-code contract
PERTURBED = """\
type C 1
order 2
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u-v) * Rhat[1,2](u)
"""


def _assert_fails(rep):
    assert rep.verdict == "fail"
    assert rep.residual_count > 0
    assert rep.witness is not None


def test_criterion_11_negative_control():
    _assert_fails(evaluate(parse_script(PERTURBED), name="perturbed_ybe"))


# unitarity without the sign flip, and crossing with the shift u+3h for
# kappa = 2 of type C1
@pytest.mark.parametrize("identity", [
    "Rhat[1,2](u) * Rhat[2,1](u) == 1",
    "Rhat[1,2](u) * conjM[1](Rhat[1,2](u+3h)^t[1]) == 1"])
def test_criterion_11_perturbed_identities(identity):
    text = f"type C 1\norder 3\nslots 2\nspectral u\ncheck {identity}\n"
    _assert_fails(evaluate(parse_script(text), name="perturbed"))


def test_criterion_11_perturbed_roundtrip():
    # the lowering operator's inverse applied at U + h instead of U
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    u = RatFunc.var("U")
    w = FreeState.pure(ltd, norm, {"h": 3}, Fraction(1),
                       [[Arg.make(RatFunc.var("V1"))]])
    st = w.apply_tminus(1, Arg.make(u))
    st = st.apply_tminus_inv(1, Arg.make(u, {"h": Fraction(1)}),
                             shared_slot=st.open)
    count, witness = st.residual(w.with_identity_open())
    assert count > 0 and witness is not None


def _c1_states(L, words):
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=L)
    state = FreeState.pure(ltd, norm, {"h": L}, Fraction(1),
                           [[Arg.make(RatFunc.var(v)) for v in word]
                            for word in words])
    return ltd, norm, state


def _ring(name):
    return Arg.make(RatFunc.var(name))


def _assert_state_fails(lhs, rhs):
    count, witness = lhs.residual(rhs)
    assert count > 0 and witness is not None


# The rtt_minus and mixed controls below leave no residual at L=2, so they
# also fail if the truncation drops order 2.

def test_criterion_11_perturbed_rtt_minus():
    # R(u1-u2+h) T1(u1) T2(u2) against T2(u2) T1(u1) R(u1-u2)
    ltd, norm, w = _c1_states(3, [["V1"]])
    u1, u2 = _ring("U1"), _ring("U2")
    r = rmatrix(ltd, norm, arg_diff(u1, u2), w.caps)
    r_off = rmatrix(ltd, norm, arg_h(arg_diff(u1, u2), 1), w.caps)
    count, witness = _exchange(w, lambda st: st.apply_tminus(1, u2),
                               lambda st: st.apply_tminus(1, u1), r_off, r)
    assert count > 0 and witness is not None


def test_criterion_11_perturbed_mixed():
    # the exchange of T+(u) and T-(v) with R(-v+u+hc/2) on both sides
    ltd, norm, w = _c1_states(3, [["V1"]])
    u, v = _ring("U"), _ring("Vm")
    r = rmatrix(ltd, norm, arg_h(arg_diff(u, v), w.c / 2), w.caps)
    count, witness = _exchange(w, lambda st: st.apply_tminus(1, v),
                               lambda st: st.apply_tplus(1, u), r, r)
    assert count > 0 and witness is not None


def _assert_perturbed_hexagon_fails(three):
    # the hexagon with S_13 at z1 instead of z1+z2
    z1, z2 = _ring("Za"), _ring("Zb")
    lhs = three.merge_y(1, 2, z2).braiding_s(1, 2, z1)
    rhs = three.braiding_s(1, 3, z1).braiding_s(2, 3, z1).merge_y(1, 2, z2)
    _assert_state_fails(lhs.canonicalize(), rhs.canonicalize())


def _three_letters(family, n, L):
    ltd = lie_type_data(family, n)
    return FreeState.pure(ltd, solve_normalizer(ltd, L=L), {"h": L},
                          Fraction(1),
                          [[_ring("X")], [_ring("Y")], [_ring("Ww")]])


def test_criterion_11_perturbed_hexagon():
    _assert_perturbed_hexagon_fails(_three_letters("C", 1, 3))


def test_criterion_11_perturbed_hexagon_b1():
    _assert_perturbed_hexagon_fails(_three_letters("B", 1, 2))


def test_criterion_11_perturbed_hexagon_c2():
    _assert_perturbed_hexagon_fails(_three_letters("C", 2, 2))


# The s_ybe, tminus_vacuum, s_shift and weak_assoc_chain controls below
# also leave no residual at L=2; their perturbations first show at h^2.

def test_criterion_11_perturbed_s_ybe():
    # the braiding's Yang-Baxter relation with the left side's S_13 at
    # z1+z2+h instead of z1+z2
    _, _, three = _c1_states(3, [["X"], ["Y"], ["Ww"]])
    z1, z2 = _ring("Za"), _ring("Zb")
    z12 = arg_sum(z1, z2)
    lhs = three.braiding_s(2, 3, z2).braiding_s(1, 3, arg_h(z12, 1)) \
               .braiding_s(1, 2, z1)
    rhs = three.braiding_s(1, 2, z1).braiding_s(1, 3, z12) \
               .braiding_s(2, 3, z2)
    _assert_state_fails(lhs.canonicalize(), rhs.canonicalize())


def _tminus_vacuum_residual(L, perturbed):
    # the lowering operator on the vacuum, scaled by 1 + h^2 if
    # ``perturbed``, against the identity on the vacuum
    ltd = lie_type_data("C", 1)
    caps = {"h": L}
    vac = FreeState.vacuum(ltd, solve_normalizer(ltd, L=L), caps,
                           Fraction(1))
    h = HSeries.capped_var("h", caps)
    start = vac.map_entries(lambda s: s * (1 + h ** 2)) if perturbed \
        else vac
    return start.apply_tminus(1, _ring("U")).residual(
        vac.with_identity_open())


def test_criterion_11_perturbed_tminus_vacuum():
    assert _tminus_vacuum_residual(3, False) == (0, None)
    assert _tminus_vacuum_residual(2, True) == (0, None)
    count, witness = _tminus_vacuum_residual(3, True)
    assert count > 0 and witness is not None


def _s_shift_residual(L, perturbed):
    # the s_shift relation -X d/dX = -Zs d/dZs on the coefficients of
    # S(Zs) T(X)|0> (x) T(Y)|0>, each entry times 1 + X h^2 if ``perturbed``
    _, _, two = _c1_states(L, [["X"], ["Y"]])
    x, z = _ring("X"), _ring("Zs")
    s = two.braiding_s(1, 2, z)
    if perturbed:
        h = HSeries.capped_var("h", two.caps)
        s = s.map_entries(lambda e: e * (1 + HSeries.const(
            RatFunc.var("X"), two.caps) * h ** 2))
    count, witness = 0, None
    for t in s.terms:
        diff = _arg_derivative(t.coeff, x) - _arg_derivative(t.coeff, z)
        count += diff.nonzero_count()
        witness = witness or diff.witness()
    return count, witness


def test_criterion_11_perturbed_s_shift():
    assert _s_shift_residual(3, False) == (0, None)
    assert _s_shift_residual(2, True) == (0, None)
    count, witness = _s_shift_residual(3, True)
    assert count > 0 and witness is not None


def test_criterion_11_perturbed_weak_assoc_reordered():
    # the reordered side of the weak associativity chain with its
    # transposed factor at -(c+kappa)h + h instead of -(c+kappa)h
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    caps = {"h": 3, "u": 1, "v": 1}
    c = Fraction(0)
    uarg, varg = Arg.make(1, {"u": -1}), Arg.make(1, {"v": -1})
    z1, z2 = _ring("Z1"), _ring("Z2")
    three = FreeState.pure(ltd, norm, caps, c, [[uarg], [varg], []])
    direct = three.merge_y(2, 3, z2).merge_y(1, 2, z1)
    reordered = _weak_assoc_reordered(three, arg_sum(z1, uarg),
                                      arg_sum(z2, varg), -(c + ltd.kappa) + 1)
    _assert_state_fails(reordered, direct)


# The csuni and correspondence controls below leave no residual at L=2
# either: each is checked at order 2 as well as at the order where it fails.

def _csuni_residual(L, delta):
    # the inverse transposed chain identity at C1, k=1, c=1 with the
    # transposed chain at -kappa + delta instead of -kappa
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L}
    arg = Arg.make(RatFunc.var("v1") / RatFunc.var("u"))

    def chain(shift):
        # the chain's one factor: the inverse R-matrix at slots (1, 2), at
        # x = (v1/u) e^{-(1/2 + shift)h}
        return rhat_inv(ltd, norm, arg.plus({"h": -Fraction(1, 2) - shift}),
                        caps)

    mop = diag_op(ltd.N, caps, m_diag(ltd, caps)).embed((2,), 2)
    lhs = chain(0) * mop * chain(-ltd.kappa + delta).transpose_slot(2, ltd)
    return lhs - mop


@pytest.mark.parametrize("delta", [1, -1])
def test_criterion_11_perturbed_csuni(delta):
    assert _csuni_residual(3, 0).is_zero()
    assert _csuni_residual(2, delta).is_zero()
    residual = _csuni_residual(3, delta)
    assert residual.nonzero_count() == 6
    assert residual.witness() is not None


def _correspondence_verdict(l, offset):
    # the correspondence at C1, alpha = 1/2, caps 2 with the additive side
    # at alpha + offset, through the check's pole-clearing route; returns
    # the prefactor exponent and the verdict
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=l)
    caps = {"h": l, "u": 2, "v": 2}
    alpha = Fraction(1, 2)
    x, y, z0 = RatFunc.var("x"), RatFunc.var("y"), RatFunc.var("Z0")
    lhs_raw = rmatrix(ltd, norm, Arg.make(x / y, {"u": 1, "v": -1,
                                                  "h": alpha}), caps)
    used = []

    def rhs(r):
        used.append(r)
        return rmatrix(ltd, norm, Arg.make(1 / z0, {
            "u": 1, "v": -1, "h": alpha + offset}), caps).scale(
                x ** r * (1 - z0) ** r)
    verdict = prefactored_verdict(
        lhs_raw, list(lhs_raw.entries.values()), "x", "y", "Z0", rhs, 16)
    return used, verdict


def test_criterion_11_perturbed_correspondence():
    assert _correspondence_verdict(3, 0) == ([4], ("pass", 0, "r=4"))
    assert _correspondence_verdict(2, 1)[1][0] == "pass"
    used, (verdict, count, witness) = _correspondence_verdict(3, 1)
    assert used == [4]
    assert (verdict, count) == ("fail", 6)
    assert witness is not None


def _assert_fails_from_order_one(residual):
    # the perturbation enters at h^1, so orders 1 and 2 must both see it
    assert residual.coeff({"h": 0}).is_zero()
    assert not residual.coeff({"h": 1}).is_zero()
    assert not residual.coeff({"h": 2}).is_zero()


@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
def test_criterion_11_perturbed_gfunc(family, n):
    # the functional equation of g1 with the shift -(kappa+1)h for -kappa*h
    ltd = lie_type_data(family, n)
    g = solve_normalizer(ltd, L=3).g1
    caps = {"h": 3}
    lhs = g * g.subst_mult("z", HSeries.exp_shift({"h": -(ltd.kappa + 1)},
                                                  caps))
    rhs = HSeries.one(caps)
    for a in (-1, 1, -ltd.kappa, ltd.kappa):
        rhs = rhs * (1 - HSeries.const(RatFunc.var("z"), caps)
                     * HSeries.exp_shift({"h": Fraction(a)}, caps))
    _assert_fails_from_order_one(lhs - rhs.inv())


@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
def test_criterion_11_perturbed_g_one(family, n):
    # the product chain of g1 with the prefactor e^{(2+2kappa)h}
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=3)
    caps = {"h": 3}
    Z = RatFunc.var("Z")
    lhs = HSeries.exp_shift({"h": 2 + 2 * ltd.kappa}, caps) \
        * norm.g1_at(Arg.make(Z), caps) * norm.g1_at(Arg.make(1 / Z), caps)
    for mono in (Z, 1 / Z):
        for a in (-1, -ltd.kappa):
            lhs = lhs * (HSeries.const(mono, caps)
                         - HSeries.exp_shift({"h": Fraction(a)}, caps))
    _assert_fails_from_order_one(lhs - 1)


def test_criterion_11_exit_codes(tmp_path, capsys):
    # 0: all pass
    assert main(["check", "unitarity_hat", "--order", "2"]) == 0
    # 1: a failing check
    suite = [{"name": "perturbed_ybe", "script": PERTURBED}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["suite", str(path)]) == 1
    # 2: inconclusive search
    assert main(["check", "correspondence", "--order", "2",
                 "--r-max", "0"]) == 2
    # 64: usage error
    assert main(["check", "no_such_check"]) == 64
    capsys.readouterr()
