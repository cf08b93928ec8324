from fractions import Fraction
from math import factorial

import pytest

from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import (Arg, NormalizerError, _check_against_oracle,
                         _check_functional_equation, _integer_oracle,
                         _Laurent, _rhs_orders, _solve_normalizer_cached,
                         solve_normalizer)

z = RatFunc.var("z")
TYPES = [("B", 1), ("C", 1), ("D", 2), ("C", 2), ("B", 2), ("D", 3)]


def _rhs_product(kappa, caps, zval):
    """(1 - z e^{-h})(1 - z e^{h})(1 - z e^{-kh})(1 - z e^{kh}) for given z,
    by series arithmetic: the reference routes below invert it."""
    out = HSeries.one(caps)
    for a in (-1, 1, -kappa, kappa):
        out = out * (1 - zval * HSeries.exp_shift({"h": Fraction(a)}, caps))
    return out


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
    for l in range(4):
        cl = norm.g1.coeff({"h": l})
        r, p = cl.remove_denominator_factor(1 - z)
        assert p / ((1 - z) ** r) == cl
        # p carries no remaining (1 - z) factor, nor any other
        assert p.remove_denominator_factor(1 - z)[0] == 0
        (md, _), = p.denom_terms()
        assert not md


def test_evaluation_at_shifted_argument():
    # g1_at equals subst_mult then subs_ring_var on g1, for monomials with
    # negative and several exponents, shifts in h alone and in (h, u, v),
    # and h capped below the solved order
    U, V, Z = (RatFunc.var(v) for v in "UVZ")
    hvu = {"h": Fraction(1, 2), "u": 1, "v": Fraction(-1, 2)}
    for family, n in [("B", 1), ("C", 1), ("D", 2)]:
        ltd = lie_type_data(family, n)
        norm = solve_normalizer(ltd, L=4)
        for shift, caps in [({"h": -ltd.kappa}, {"h": 3}),
                            (hvu, {"h": 2, "u": 2, "v": 2})]:
            factor = HSeries.exp_shift(shift, caps)
            for mono in (Z, 1 / Z, U / V):
                via_arg = norm.g1_at(Arg.make(mono, shift), caps)
                direct = norm.g1.with_caps(caps).subst_mult(
                    "z", factor).subs_ring_var("z", mono)
                assert via_arg == direct, (family, shift, mono)


def test_pole_detection():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=2)
    with pytest.raises(ZeroDivisionError):
        norm.g1_at(Arg.make(1), {"h": 2})


@pytest.mark.parametrize("dz", [0, -1])
def test_vacuous_series_oracle_rejected(dz):
    with pytest.raises(ValueError):
        solve_normalizer(lie_type_data("C", 1), L=2, z_degree_oracle=dz)


# -- the series oracle ------------------------------------------------------
#
# The solver checks g1 against an integer oracle.  The HSeries route below is
# the oracle it replaced: a dense series solve in (z, h) over Q, and the
# rational solution re-expanded as a capped z-series.


def _zshift_capped(s: HSeries, kappa) -> HSeries:
    """z -> z*e^{-kappa h} when z is a capped variable of s: the terms of
    each z-power m, times e^{-kappa m h}."""
    caps = s.caps
    zi = caps.names.index("z")
    by_power = {}
    for k, coeff in s.terms.items():
        mono = caps.monos[k]
        by_power.setdefault(mono[zi], {})[mono] = coeff
    out = HSeries.zero(caps)
    for m, terms in by_power.items():
        piece = HSeries(caps, terms)
        if m:
            piece = piece * HSeries.exp_shift({"h": -kappa * m}, caps)
        out = out + piece
    return out


def _series_oracle(kappa, L: int, dz: int) -> HSeries:
    """Plain power-series solve in C[[z, h]], independent of RatFunc division."""
    caps = {"h": L, "z": dz + 1}
    zc = HSeries.capped_var("z", caps)
    rhs = _rhs_product(kappa, caps, zc).inv()
    # geometric start: 1/(1-z)^2 = sum (m+1) z^m
    g = HSeries.zero(caps)
    zp = HSeries.one(caps)
    for m in range(dz + 1):
        g = g + zp * (m + 1)
        zp = zp * zc
    hpow = HSeries.one(caps)
    hvar = HSeries.capped_var("h", caps)
    half_c0_inv = (1 - zc) ** 2 * Fraction(1, 2)    # 1/(2 g0)
    hidx = zc.caps.names.index("h")
    for l in range(1, L):
        hpow = hpow * hvar
        res_l = rhs - g * _zshift_capped(g, kappa)
        picked = HSeries.zero(caps)
        for k, coeff in res_l.terms.items():
            mono = zc.caps.monos[k]
            if mono[hidx] == l:
                m2 = mono[:hidx] + (0,) + mono[hidx + 1:]
                picked = picked + HSeries(caps, {m2: coeff})
        g = g + hpow * (picked * half_c0_inv)
    return g


def _den_power(cl: RatFunc) -> int:
    r, rest = cl.remove_denominator_factor(1 - RatFunc.var("z"))
    return r


def _poly_to_capped(p: RatFunc, caps) -> HSeries:
    """A polynomial in z over a constant denominator, re-read with z as a
    capped variable."""
    zc = HSeries.capped_var("z", caps)
    out = HSeries.zero(caps)
    den = p.denom_terms()
    assert len(den) == 1 and not den[0][0], p
    for md, coeff in p.numer_terms():
        assert set(md) <= {"z"}, p
        out = out + zc ** md.get("z", 0) * (coeff / den[0][1])
    return out


def _expand_in_z(g: HSeries, L: int, dz: int) -> HSeries:
    """Re-expand the rational solution as a capped z-series."""
    caps = {"h": L, "z": dz + 1}
    zc = HSeries.capped_var("z", caps)
    geom = (1 - zc).inv()
    out = HSeries.zero(caps)
    hvar = HSeries.capped_var("h", caps)
    for l in range(L):
        cl = g.coeff({"h": l})
        if cl.is_zero():
            continue
        num = cl * (1 - RatFunc.var("z")) ** _den_power(cl)
        expanded = _poly_to_capped(num, caps) * geom ** _den_power(cl)
        out = out + hvar ** l * expanded
    return out


@pytest.mark.parametrize("family,n", TYPES)
@pytest.mark.parametrize("dz", [3, 10])
def test_integer_oracle_matches_series_oracle(family, n, dz):
    kappa = lie_type_data(family, n).kappa
    for L in range(2, 8):
        s, G = _integer_oracle(kappa, L, dz)
        ref = _series_oracle(kappa, L, dz)
        for l in range(L):
            for m in range(dz + 1):
                assert (Fraction(G[l][m], s ** l * factorial(l))
                        == ref.coeff({"h": l, "z": m})), (L, l, m)


def test_integer_oracle_carries_odd_remainders():
    # at kappa = 1 the scale starts at 1 and doubles at h^3, so the
    # differential test above covers the carrying step
    kappa = lie_type_data("D", 2).kappa
    assert [_integer_oracle(kappa, L, 10)[0] for L in (3, 4)] == [1, 2]


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_rational_solution_expands_to_series_oracle(family, n):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=5, z_degree_oracle=10)
    assert _expand_in_z(norm.g1, 5, 10) == _series_oracle(ltd.kappa, 5, 10)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
@pytest.mark.parametrize("L", [2, 4])
def test_oracle_gate_rejects_perturbed_solution(family, n, L):
    ltd = lie_type_data(family, n)
    g = solve_normalizer(ltd, L=L).g1
    _check_against_oracle(g, ltd.kappa, L, 10)
    bad = g + HSeries.capped_var("h", {"h": L}) ** (L - 1) * (z / 7)
    with pytest.raises(NormalizerError):
        _check_against_oracle(bad, ltd.kappa, L, 10)


@pytest.mark.parametrize("kappa", [Fraction(1, 3), Fraction(5, 4)])
def test_integer_oracle_rejects_kappa_off_the_half_integers(kappa):
    with pytest.raises(NormalizerError):
        _integer_oracle(kappa, 3, 3)


# -- the dilation solve -----------------------------------------------------
#
# The solver finds g1 one h-order at a time from cached theta-dilations of
# the lower orders.  The per-order loop below is the solve it replaced: at
# each order it re-expands g1(z e^{-kappa h}) by ``subst_mult`` and keeps
# only the h^l coefficient of the residual.


def _reference_g1(ltd, L: int) -> HSeries:
    kappa = ltd.kappa
    caps = {"h": L}
    rhs = _rhs_product(kappa, caps, HSeries.const(z, caps)).inv()
    c0 = 1 / ((1 - z) ** 2)
    g = HSeries.const(c0, caps)
    for l in range(1, L):
        lcaps = {"h": l + 1}
        gl = g.with_caps(lcaps)
        shift = HSeries.exp_shift({"h": -kappa}, lcaps)
        res = (rhs.with_caps(lcaps)
               - gl * gl.subst_mult("z", shift)).coeff({"h": l})
        g = g + HSeries(caps, {(l,): res / (2 * c0)})
    return g


@pytest.mark.parametrize("family,n", TYPES)
def test_dilation_solve_matches_reference_loop(family, n):
    ltd = lie_type_data(family, n)
    for L in range(1, 11):
        assert solve_normalizer(ltd, L=L).g1 == _reference_g1(ltd, L), L


@pytest.mark.parametrize("family,n", TYPES)
def test_rhs_orders_match_the_inverted_product(family, n):
    kappa = lie_type_data(family, n).kappa
    caps = {"h": 6}
    rhs = _rhs_product(kappa, caps, HSeries.const(z, caps)).inv()
    assert ([c.ratfunc() for c in _rhs_orders(kappa, 6)]
            == [rhs.coeff({"h": l}) for l in range(6)])


def test_solve_differentiates_once_per_dilation(monkeypatch):
    # theta^m g_i for m >= 1 and m + i <= L - 1: L(L-1)/2 thetas in w
    calls = []
    theta = _Laurent.theta
    monkeypatch.setattr(_Laurent, "theta",
                        lambda self: calls.append(1) or theta(self))
    _solve_normalizer_cached.cache_clear()
    solve_normalizer(lie_type_data("C", 1), L=6)
    assert len(calls) == 15


def _gate_inputs(ltd, L: int, perturb_at=None) -> tuple:
    """(g, shifted, rhs) by h-order in Q[w, 1/w] for the
    functional-equation gate, with g_l raised by z/7 = (1 + w)/7 at
    ``perturb_at``; S_j = sum_m ((-kappa)^m / m!) theta^m g_{j-m}."""
    g = list(solve_normalizer(ltd, L=L).orders)
    if perturb_at is not None:
        g[perturb_at] = g[perturb_at] + _Laurent({0: 1, 1: 1}, 7)
    shifted = []
    for j in range(L):
        s = _Laurent({})
        for m in range(j + 1):
            t = g[j - m]
            for _ in range(m):
                t = t.theta()
            s = s + _Laurent.const(Fraction(-ltd.kappa) ** m
                                   / factorial(m)) * t
        shifted.append(s)
    return g, shifted, _rhs_orders(ltd.kappa, L)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_functional_equation_gate_names_the_perturbed_order(family, n):
    ltd = lie_type_data(family, n)
    _check_functional_equation(*_gate_inputs(ltd, 5))
    for l in range(5):
        with pytest.raises(NormalizerError, match=rf"at h\^{l}$"):
            _check_functional_equation(*_gate_inputs(ltd, 5, perturb_at=l))


def test_oracle_gate_rejects_a_non_integer_coefficient():
    # an h-order with variables has integer coefficients over its
    # denominator's content; only a plain rational constant can have others
    ltd = lie_type_data("C", 1)
    g = solve_normalizer(ltd, L=3).g1
    bad = HSeries({"h": 3}, {(0,): g.coeff({}), (1,): g.coeff({"h": 1}),
                             (2,): Fraction(1, 2)})
    with pytest.raises(NormalizerError, match="not an integer"):
        _check_against_oracle(bad, ltd.kappa, 3, 10)


def _with_h1(g: HSeries, L: int, c1) -> HSeries:
    """``g``, capped at h^L, with its h^1 coefficient replaced by ``c1``."""
    coeffs = [g.coeff({"h": l}) for l in range(L)]
    coeffs[1] = c1
    return HSeries({"h": L}, {(l,): c for l, c in enumerate(coeffs)})


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
@pytest.mark.parametrize("perturb,message", [
    (lambda c: c / (1 + z),
     r"^h\^1 coefficient denominator is not a power of \(1-z\): "),
    (lambda c: c + 1, r"^h\^1 coefficient is 1 at z = 0, expected 0$"),
], ids=["one_plus_z", "one_at_zero"])
def test_oracle_gate_rejects_a_wrong_shape(family, n, perturb, message):
    ltd = lie_type_data(family, n)
    g = solve_normalizer(ltd, L=3).g1
    bad = _with_h1(g, 3, perturb(g.coeff({"h": 1})))
    with pytest.raises(NormalizerError, match=message):
        _check_against_oracle(bad, ltd.kappa, 3, 10)
