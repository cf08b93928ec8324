from fractions import Fraction

import pytest

from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, solve_normalizer

z = RatFunc.var("z")


def test_leading_coefficient():
    norm = solve_normalizer(lie_type_data("C", 1), L=4)
    assert norm.g1.coeff({"h": 0}) == 1 / ((1 - z) ** 2)


def test_classical_inverse_shape():
    # 1/g1(z, 0) = (1 - z)^2
    norm = solve_normalizer(lie_type_data("B", 1), L=4)
    assert 1 / norm.g1.coeff({"h": 0}) == (1 - z) ** 2


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_functional_equation_l4(family, n):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=4, z_degree_oracle=10)
    caps = {"h": 4}
    g = norm.g1
    shifted = g.subst_mult("z", HSeries.exp_shift({"h": -ltd.kappa}, caps))
    rhs = HSeries.one(caps)
    for a in (-1, 1, -ltd.kappa, ltd.kappa):
        rhs = rhs * (1 - HSeries.const(z, caps)
                     * HSeries.exp_shift({"h": Fraction(a)}, caps))
    assert g * shifted == rhs.inv()


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_value_at_origin(family, n):
    # g1 lies in 1 + z*C[[z, h]]
    norm = solve_normalizer(lie_type_data(family, n), L=4)
    for l in range(4):
        cl = norm.g1.coeff({"h": l})
        assert cl.subs_var("z", RatFunc.zero()) == (1 if l == 0 else 0)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_denominators_are_powers_of_one_minus_z(family, n):
    norm = solve_normalizer(lie_type_data(family, n), L=4)
    for l, p, r in norm.parts:
        reconstructed = p / ((1 - z) ** r)
        assert reconstructed == norm.g1.coeff({"h": l})
        if not p.is_zero():
            # p carries no remaining (1 - z) factor: r is the recorded power
            k, _ = p.remove_denominator_factor(1 - z)
            assert k == 0


def test_evaluation_at_shifted_argument():
    # g1(z*e^{-kappa h}) from g1_at matches direct subst_mult
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    caps = {"h": 3}
    arg = Arg.make(RatFunc.var("Z"), {"h": -ltd.kappa})
    via_arg = norm.g1_at(arg, caps)
    direct = norm.g1.subst_mult(
        "z", HSeries.exp_shift({"h": -ltd.kappa}, caps)).subs_ring_var(
        "z", RatFunc.var("Z"))
    assert via_arg == direct


def test_pole_detection():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=2)
    with pytest.raises(ZeroDivisionError):
        norm.g1_at(Arg.make(1), {"h": 2})


@pytest.mark.parametrize("dz", [0, -1])
def test_vacuous_series_oracle_rejected(dz):
    with pytest.raises(ValueError):
        solve_normalizer(lie_type_data("C", 1), L=2, z_degree_oracle=dz)
