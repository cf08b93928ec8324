from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import (Arg, _Laurent, build_constant_ops, m_diag, rhat_inv,
                         rmatrix, solve_normalizer)
from rmx.tensorop import TensorOp

CAPS = {"h": 3}
Z = RatFunc.var("Z")


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2), ("C", 2)])
def test_p_squares_to_identity(family, n):
    ops = build_constant_ops(lie_type_data(family, n), CAPS)
    assert (ops["P"] * ops["P"]).is_identity()


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2), ("C", 2)])
def test_q_squares_to_n_times_q(family, n):
    ltd = lie_type_data(family, n)
    q = build_constant_ops(ltd, CAPS)["Q"]
    assert q * q == q.scale(ltd.N)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2), ("C", 2)])
def test_pq_proportional_to_q_classically(family, n):
    # in the classical limit P*Q = Q*P = tau*Q with tau = -1 symplectic,
    # +1 orthogonal; found by brute division of matching entries
    ltd = lie_type_data(family, n)
    ops = build_constant_ops(ltd, CAPS)
    cls = lambda t: t.map_entries(lambda s: HSeries.const(s.coeff({}), CAPS))
    p, q = cls(ops["P"]), cls(ops["Q"])
    pq = p * q
    pqe, qe = dict(pq.items()), dict(q.items())
    key = min(qe)
    tau = pqe[key] / qe[key]
    assert tau == HSeries.const(-1 if family == "C" else 1, CAPS)
    assert pq == q.scale(tau)
    assert q * p == q.scale(tau)


@pytest.mark.xfail(strict=True,
                   reason="deformed Q: P*Q is proportional to Q only at h=0; "
                          "the per-entry ratios involve distinct weight powers")
def test_pq_proportional_to_q_deformed():
    ops = build_constant_ops(lie_type_data("C", 1), CAPS)
    p, q = ops["P"], ops["Q"]
    pq = p * q
    # the series ratio of the first entry, as (row, col) tuples sort
    pqe, qe = dict(pq.items()), dict(q.items())
    key = min(qe)
    tau = pqe[key] / qe[key]
    assert pq == q.scale(tau)


def test_rconst_classical_limit():
    ltd = lie_type_data("B", 1)
    r = build_constant_ops(ltd, CAPS)["Rconst"]
    classical = r.map_entries(lambda s: HSeries.const(s.coeff({}), CAPS))
    assert classical.is_identity()


# The oracle of the template build is the per-argument route, how builds
# were made before templates: g1 re-expanded at z*e^E by Taylor's formula
# in z (``subst_mult``), then z -> mono, and R+ formed entry by entry from
# the series x = mono*e^E: each constant operator scaled by its scalar,
# then every entry again by e^{(1+2kappa)h/2} g1(x).

def _x_series(arg, caps):
    return HSeries.const(arg.mono, caps) * HSeries.exp_shift(
        arg.shift_dict(), caps)


def _per_argument_g1(norm, arg, caps):
    if caps.get("h", 0) > norm.L:
        raise ValueError(f"normalizer solved to order {norm.L} only")
    if (1 - arg.mono).is_zero():
        raise ZeroDivisionError("R-matrix pole")
    g = norm.g1.with_caps(caps)
    f = HSeries.exp_shift(arg.shift_dict(), caps)
    if not f.is_one():
        g = g.subst_mult("z", f)
    return g.subs_ring_var("z", arg.mono)


def _per_entry_rplus(ltd, x, caps):
    """R+(x) = q^{-1}(x-1)(x-xi)Rconst - (q^{-2}-1)(x-xi)P
    + xi(q^{-2}-1)(x-1)Q."""
    ops = build_constant_ops(ltd, caps)
    xi = HSeries.exp_shift({"h": -ltd.kappa}, caps)
    qinv = HSeries.exp_shift({"h": Fraction(-1, 2)}, caps)
    qinv2m1 = HSeries.exp_shift({"h": -1}, caps) - 1
    xm1, xmxi = x - 1, x - xi
    return (ops["Rconst"].scale(qinv * xm1 * xmxi)
            - ops["P"].scale(qinv2m1 * xmxi)
            + ops["Q"].scale(xi * qinv2m1 * xm1))


def _per_argument_rmatrix(ltd, norm, arg, caps):
    prefactor = HSeries.exp_shift({"h": Fraction(1, 2) + ltd.kappa}, caps)
    return _per_entry_rplus(ltd, _x_series(arg, caps), caps).scale(
        prefactor * _per_argument_g1(norm, arg, caps))


def test_rplus_classical_limit():
    ltd = lie_type_data("C", 1)
    x = HSeries.const(Z, CAPS)
    rp = _per_entry_rplus(ltd, x, CAPS)
    ident = TensorOp.identity(ltd.N, 2, CAPS)
    expect = ident.scale(HSeries.const((Z - 1) ** 2, CAPS))
    classical = rp.map_entries(lambda s: HSeries.const(s.coeff({}), CAPS))
    assert classical == expect


def test_rplus_entries_quadratic_in_x():
    ltd = lie_type_data("B", 1)
    rp = _per_entry_rplus(ltd, HSeries.const(Z, CAPS), CAPS)
    for coeff in rp.entries.values():
        assert coeff.denom_is_monomial()
        (md, _), = coeff.denom_terms()
        assert "Z" not in md
        for md, _ in coeff.numer_terms():
            assert md.get("Z", 0) <= 2


def test_rplus_h1_entry_hand_expansion():
    # C1 entry e12(x)e21 of R+(Z): q^{-1}(Z-1)(Z-xi)(q-q^{-1})(1+q^{-2})
    #   - (q^{-2}-1)(Z-xi) - xi(q^{-2}-1)(Z-1)q^{-2}, whose h^1 part is
    # 2(Z-1)^2 + 2(Z-1) = 2Z(Z-1)
    ltd = lie_type_data("C", 1)
    rp = _per_entry_rplus(ltd, HSeries.const(Z, CAPS), CAPS)
    entry = dict(rp.items())[((0, 1), (1, 0))]
    assert entry.coeff({"h": 1}) == 2 * Z * (Z - 1)


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_rhat_classical_limit(family, n):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=3)
    r = rmatrix(ltd, norm, Arg.make(Z), CAPS)
    classical = r.map_entries(lambda s: HSeries.const(s.coeff({}), CAPS))
    assert classical.is_identity()


def test_rhat_unitarity_c1():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    arg = Arg.make(Z)
    r12 = rmatrix(ltd, norm, arg, CAPS)
    p = build_constant_ops(ltd, CAPS)["P"]
    r21_neg = p * rmatrix(ltd, norm, arg.neg(), CAPS) * p
    assert (r12 * r21_neg).is_identity()


def test_rhat_inv_is_inverse():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    arg = Arg.make(Z)
    assert (rmatrix(ltd, norm, arg, CAPS)
            * rhat_inv(ltd, norm, arg, CAPS)).is_identity()


def test_rhat_crossing_c1():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    r_u = rmatrix(ltd, norm, Arg.make(Z), CAPS)
    r_shift = rmatrix(ltd, norm, Arg.make(Z, {"h": -ltd.kappa}), CAPS)
    m = m_diag(ltd, CAPS)
    lhs = r_u * r_shift.transpose_slot(1, ltd).conj_diag(m, 1, 1)
    assert lhs.is_identity()


def test_rtilde_neumann_inverse_agrees_with_unitarity_route():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    arg = Arg.make(Z)
    r = rmatrix(ltd, norm, arg, CAPS)
    assert r.inv() == rhat_inv(ltd, norm, arg, CAPS)


def test_rhat_pole_at_coinciding_points():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    with pytest.raises(ZeroDivisionError):
        rmatrix(ltd, norm, Arg.make(1), CAPS)


XY = RatFunc.var("x") / RatFunc.var("y")
DIFF_ARGS = [
    pytest.param({}, Arg.make(Z), id="plain"),
    pytest.param({}, Arg.make(Z, {"h": Fraction(3, 2)}), id="h-shifted"),
    pytest.param({"u": 2, "v": 2},
                 Arg.make(XY, {"u": 1, "v": -1, "h": Fraction(-1, 2)}),
                 id="capped"),
]


@pytest.mark.parametrize("family,n,L", [("B", 1, 3), ("C", 1, 3),
                                        ("D", 2, 3), ("C", 2, 2)])
@pytest.mark.parametrize("extra,arg", DIFF_ARGS)
def test_template_build_matches_per_entry_oracle(family, n, L, extra, arg):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L, **extra}
    assert (rmatrix(ltd, norm, arg, caps)
            == _per_argument_rmatrix(ltd, norm, arg, caps))
    assert (rhat_inv(ltd, norm, arg, caps)
            == _per_argument_rmatrix(ltd, norm, arg.neg(), caps)
            .swap_slots(1, 2))


U, V, W = (RatFunc.var(name) for name in "uvw")
GRID_MONOS = [U, 1 / U, U / V, U * V, U * V ** 2 / W]
GRID_SHIFTS = [({}, {}), ({"h": Fraction(1, 2)}, {}), ({"h": -2}, {}),
               ({"h": Fraction(1, 2), "a": 1, "b": -1}, {"a": 2, "b": 2})]


# at L = 6, the shifts h/2 and -2h only
DEEP_SHIFTS = GRID_SHIFTS[1:3]


@pytest.mark.parametrize("family,n,L", [
    *((family, n, L) for family, n in [("B", 1), ("C", 1), ("D", 2), ("C", 2),
                                       ("B", 2)] for L in (2, 3, 4)),
    ("C", 1, 6), ("B", 1, 6)])
def test_template_build_matches_per_argument_route(family, n, L):
    # 5 monomials x 4 shifts per type and order, and 5 x 2 at L = 6: 320
    # builds in all
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    for mono in GRID_MONOS:
        for shift, extra in DEEP_SHIFTS if L == 6 else GRID_SHIFTS:
            caps = {"h": L, **extra}
            arg = Arg.make(mono, shift)
            assert (rmatrix(ltd, norm, arg, caps)
                    == _per_argument_rmatrix(ltd, norm, arg, caps)), \
                (mono, shift)


def test_correspondence_builds_match_per_argument_route():
    # C1 under caps h3,u2,v2 at the two arguments correspondence_check uses
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    caps = {"h": 3, "u": 2, "v": 2}
    for alpha in (Fraction(1, 2), Fraction(-1, 2), 1, -1):
        shift = {"u": 1, "v": -1, "h": alpha}
        for mono in (XY, 1 / RatFunc.var("Z0")):
            arg = Arg.make(mono, shift)
            assert (rmatrix(ltd, norm, arg, caps)
                    == _per_argument_rmatrix(ltd, norm, arg, caps)), \
                (alpha, mono)


@pytest.mark.parametrize("mono", [2 * U, 1 + U, U / (V ** 3 * W ** 2),
                                  1 / (U ** 2 * V), -U],
                         ids=["2u", "1+u", "u/v3w2", "1/u2v", "-u"])
def test_template_build_off_the_monomial_fast_path(mono):
    # coefficients other than 1 go through subs_var; a denominator of
    # higher degree than the numerator moves B's powers below the line
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    for shift in ({}, {"h": Fraction(-1, 2)}):
        arg = Arg.make(mono, shift)
        assert (rmatrix(ltd, norm, arg, CAPS)
                == _per_argument_rmatrix(ltd, norm, arg, CAPS)), shift
        assert norm.g1_at(arg, CAPS) == _per_argument_g1(norm, arg, CAPS)


def test_g1_at_matches_per_argument_route():
    ltd = lie_type_data("D", 2)
    norm = solve_normalizer(ltd, L=4)
    for arg in (Arg.make(Z), Arg.make(1 / Z),
                Arg.make(Z, {"h": Fraction(-3, 2)})):
        for caps in ({"h": 4}, {"h": 2}):
            assert norm.g1_at(arg, caps) == _per_argument_g1(norm, arg, caps)


def test_build_at_one_is_a_pole():
    ltd = lie_type_data("B", 1)
    norm = solve_normalizer(ltd, L=3)
    for arg in (Arg.make(1), Arg.make(U / U, {"h": 1})):
        with pytest.raises(ZeroDivisionError, match="R-matrix pole"):
            rmatrix(ltd, norm, arg, CAPS)
        with pytest.raises(ZeroDivisionError, match="R-matrix pole"):
            norm.g1_at(arg, CAPS)


def test_build_beyond_the_solved_order_raises():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=2)
    with pytest.raises(ValueError, match="solved to order 2"):
        rmatrix(ltd, norm, Arg.make(Z), {"h": 3})
    with pytest.raises(ValueError, match="solved to order 2"):
        norm.g1_at(Arg.make(Z), {"h": 3})


def test_builds_are_cached_per_argument_and_caps():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=3)
    arg = Arg.make(Z, {"h": Fraction(1, 2)})
    op = rmatrix(ltd, norm, arg, CAPS)
    assert rmatrix(ltd, norm, Arg.make(Z, {"h": Fraction(1, 2)}),
                   dict(CAPS)) is op
    before = [(key, repr(val)) for key, val in op.items()]
    inv = rhat_inv(ltd, norm, arg.neg(), CAPS)
    assert inv == op.swap_slots(1, 2)
    assert op.scale(2) == op + op
    assert rmatrix(ltd, norm, arg, CAPS) is op
    assert [(key, repr(val)) for key, val in op.items()] == before
    # the same argument under other caps is another operator: op truncated
    other = rmatrix(ltd, norm, arg, {"h": 2})
    assert other is not op and other.caps == {"h": 2}
    truncated = {key: val.with_caps({"h": 2}) for key, val in op.items()}
    assert dict(other.items()) == {key: val for key, val in truncated.items()
                                   if not val.is_zero()}


# -- the Q[w, 1/w] kernel, w = z - 1 ----------------------------------------
#
# Its oracle is RatFunc: a value sum_e a_e w^e / d is rebuilt as
# sum_e (a_e / d) (z - 1)^e by rational-function arithmetic, and sums,
# products and theta = z d/dz are compared after conversion, structure
# (variables, numerator, denominator factorization) included.

ZV = RatFunc.var("z")
LAURENT_SPANS = {"pole": (-5, -1), "polynomial": (0, 5), "constant": (0, 0),
                 "laurent": (-5, 5)}


@st.composite
def laurents(draw):
    """A pure pole c w^-k, a polynomial, a constant or a Laurent
    polynomial in w, over a denominator up to 12."""
    shape = draw(st.sampled_from(sorted(LAURENT_SPANS)))
    exps = draw(st.lists(st.integers(*LAURENT_SPANS[shape]), min_size=1,
                         max_size=1 if shape == "pole" else 5))
    coeff = st.integers(-30, 30).filter(bool)
    return _Laurent({e: draw(coeff) for e in exps}, draw(st.integers(1, 12)))


def _as_ratfunc(a):
    out = 0 * ZV
    for e, c in a.terms.items():
        out = out + (ZV - 1) ** e * Fraction(c, a.den)
    return out


def _structure(f):
    return f.vars, f._num, f._fac


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents(), st.booleans())
def test_laurent_kernel_matches_ratfunc(a, b, cancel):
    if cancel:
        b = -a      # the sum cancels to 0
    fa, fb = _as_ratfunc(a), _as_ratfunc(b)
    for got, want in [(a, fa), (b, fb), (a + b, fa + fb), (a - b, fa - fb),
                      (a * b, fa * fb), (a.theta(), ZV * fa.diff("z"))]:
        assert _structure(got.ratfunc()) == _structure(want), (a, b)
    assert (a + b == _Laurent({})) == (fa + fb).is_zero()
