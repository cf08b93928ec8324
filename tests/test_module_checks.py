from fractions import Fraction

import pytest

from rmx.lietype import lie_type_data
from rmx.module_checks import (MODULE_CHECK_NAMES, _canonicalized_residual,
                               module_check, weak_assoc_chain)
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, m_diag, solve_normalizer
from rmx.states import FreeState, arg_h


def _order(name):
    # a wrong sign of the hc/2 shift in the inverse lowering operator first
    # shows at h^2, so the round trip runs at L=3 to see it
    return 3 if name == "roundtrip" else 2


@pytest.mark.parametrize("name", ["tminus_vacuum", "roundtrip", "rtt_minus",
                                  "rel_minus", "mixed", "s_unitarity",
                                  "s_ybe", "s_shift", "hexagon"])
def test_module_checks_pass(name):
    rep = module_check(name, "C", 1, L=_order(name), c=Fraction(1))
    assert rep.passed, rep.to_text()


@pytest.mark.parametrize("name", ["roundtrip", "rtt_minus", "rel_minus"])
def test_module_checks_two_word(name):
    rep = module_check(name, "C", 1, L=_order(name), k=2, c=Fraction(1))
    assert rep.passed, rep.to_text()


def test_module_checks_level_zero():
    for name in ("rtt_minus", "s_unitarity"):
        rep = module_check(name, "C", 1, L=2, c=Fraction(0))
        assert rep.passed, rep.to_text()


def test_module_check_b1():
    rep = module_check("rel_minus", "B", 1, L=2, c=Fraction(1))
    assert rep.passed, rep.to_text()


def test_unknown_module_check():
    with pytest.raises(KeyError):
        module_check("nope", "C", 1)
    assert "rtt_minus" in MODULE_CHECK_NAMES
    assert "weak_assoc_chain" in MODULE_CHECK_NAMES


def test_weak_assoc_chain_passes():
    rep = weak_assoc_chain("C", 1, L=2, c=Fraction(0))
    assert rep.passed, rep.to_text()
    assert rep.witness.startswith("r=")


def test_weak_assoc_chain_inconclusive_on_bound():
    rep = weak_assoc_chain("C", 1, L=2, c=Fraction(0), r_max=0)
    assert rep.verdict == "inconclusive"
    assert rep.residual_count == 0


def test_negative_control_wrong_unitarity():
    # S(z) composed with S(z) (instead of S at the negated argument) must
    # leave a nonzero residual
    ltd = lie_type_data("C", 1)
    L = 2
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L}
    z = Arg.make(RatFunc.var("Zs"))
    two = FreeState.pure(ltd, norm, caps, Fraction(1),
                         [[Arg.make(RatFunc.var("X"))],
                          [Arg.make(RatFunc.var("Y"))]])
    out = two.braiding_s(2, 1, z).braiding_s(1, 2, z)
    count, witness = out.residual(two)
    assert count > 0 and witness is not None


def test_negative_control_wrong_shift():
    # the lowering crossing relation fails when the argument shift is off
    # (the perturbation only becomes visible from order three on)
    ltd = lie_type_data("C", 1)
    L = 3
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L}
    md = m_diag(ltd, caps)
    u = Arg.make(RatFunc.var("U"))
    w = FreeState.pure(ltd, norm, caps, Fraction(1),
                       [[Arg.make(RatFunc.var("V1"))]])
    st = w.apply_tminus(1, arg_h(u, ltd.kappa + 1))
    nu = st.open
    st = st._map_coeff(
        lambda K: K.transpose_slot(nu, ltd).conj_diag(md, nu, 1))
    st = st.apply_tminus(1, u, shared_slot=nu)
    count, witness = st.residual(w.with_identity_open())
    assert count > 0 and witness is not None


def test_report_params_round_trip():
    rep = module_check("tminus_vacuum", "C", 1, L=2, c=Fraction(1))
    d = rep.to_dict()
    assert list(d) == ["name", "params", "verdict", "residual_count",
                       "witness", "elapsed_ms"]
    assert d["params"]["family"] == "C"


def test_canonicalized_residual_rescues_an_rtt_rewrite():
    # no registered check reaches the rescue: every passing check's raw
    # residual is 0.  w.rtt_swap(1, 1) holds the word (Y, X) with the
    # R-matrix rewrite of the coefficient; it differs from w entry by entry
    # and agrees with it once both words are sorted back
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=2)
    x, y = Arg.make(RatFunc.var("X")), Arg.make(RatFunc.var("Y"))
    w = FreeState.pure(ltd, norm, {"h": 2}, Fraction(1), [[x, y]])
    swapped = w.rtt_swap(1, 1)
    assert _canonicalized_residual(swapped, w) == ("pass", 0, "raw=48")
    assert _canonicalized_residual(w, swapped) == ("pass", 0, "raw=48")
    # the word (Y, X) with no rewrite is another state
    yx = FreeState.pure(ltd, norm, {"h": 2}, Fraction(1), [[y, x]])
    assert _canonicalized_residual(yx, w) == (
        "fail", 32, ([0, 0, 0, 0], [0, 1, 0, 1], "-1 + ((-2*X)/(-Y + X))*h"))
