import itertools
import json
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from rmx.hseries import Caps, HSeries
from rmx.ratfunc import RatFunc
from test_ratfunc import _from_data

Z = RatFunc.var("Z")
H2 = {"h": 2}
H3 = {"h": 3}
H4 = {"h": 4}


def h(caps):
    return HSeries.capped_var("h", caps)


def test_mul_truncates():
    a = 1 + h(H2)
    b = 1 - h(H2)
    # h^2 term falls outside the cap (L=2 keeps h^0, h^1)
    assert a * b == HSeries.one(H2)


def test_mul_with_ratfunc_coeffs():
    a = HSeries.const(1 / (1 - Z), H3)
    assert a * HSeries.const(1 - Z, H3) == 1


def test_inv_geometric():
    a = 1 - h(H3)
    assert a.inv() == 1 + h(H3) + h(H3) * h(H3)
    assert (a * a.inv()).is_one()


def test_inv_requires_unit():
    with pytest.raises(ZeroDivisionError):
        h(H3).inv()


def test_exp_shift_basic():
    assert HSeries.exp_shift({}, H3).is_one()
    e = HSeries.exp_shift({"h": -2}, H3)
    assert e == 1 - 2 * h(H3) + 2 * h(H3) ** 2


def test_exp_shift_half_integer():
    e = HSeries.exp_shift({"h": Fraction(1, 2)}, H3)
    assert e.coeff({"h": 1}) == Fraction(1, 2)
    assert e.coeff({"h": 2}) == Fraction(1, 8)


def test_exp_shift_multivar():
    caps = {"h": 2, "u": 2, "v": 2}
    e = HSeries.exp_shift({"u": 1, "v": -1, "h": Fraction(1, 2)}, caps)
    assert e.coeff({}) == 1
    assert e.coeff({"u": 1}) == 1
    assert e.coeff({"v": 1}) == -1
    assert e.coeff({"u": 1, "v": 1}) == -1
    assert e.coeff({"u": 1, "h": 1}) == Fraction(1, 2)


def test_exp_shift_inverse_pair():
    caps = {"h": 4, "u": 3}
    f = {"h": Fraction(3, 2), "u": -2}
    g = {k: -v for k, v in f.items()}
    assert (HSeries.exp_shift(f, caps) * HSeries.exp_shift(g, caps)).is_one()


def _exp_by_products(linear, caps):
    # the product form exp_shift replaced: a truncated Taylor series per
    # variable, multiplied together
    out = HSeries.one(caps)
    for name, coeff in linear.items():
        x = HSeries.capped_var(name, caps)
        term = acc = HSeries.one(caps)
        k = 0
        while True:
            k += 1
            term = term * x * (Fraction(coeff) / k)
            if term.is_zero():
                break
            acc = acc + term
        out = out * acc
    return out


@pytest.mark.parametrize("caps,linear", [
    ({"h": 1}, {"h": 3}),
    ({"h": 5}, {"h": Fraction(-3, 2)}),
    ({"h": 3, "u": 2, "v": 2}, {"u": 1, "v": -1, "h": Fraction(1, 2)}),
    ({"a": 3, "h": 4, "u": 1}, {"a": Fraction(2, 3), "h": -2, "u": 5}),
    ({"h": 3, "u": 3}, {"u": Fraction(-1, 3)}),
])
def test_exp_shift_matches_product_form(caps, linear):
    got = HSeries.exp_shift(linear, caps)
    assert got.terms == _exp_by_products(linear, caps).terms


def test_exp_shift_unknown_name():
    assert HSeries.exp_shift({"u": 0}, H3).is_one()
    with pytest.raises(KeyError):
        HSeries.exp_shift({"u": 1}, H3)


def test_subst_mult_identity():
    a = HSeries.const(1 / (1 - Z), H2)
    assert a.subst_mult("Z", HSeries.one(H2)) == a


def test_subst_mult_exp():
    # 1/(1 - Z e^{-h}) = 1/(1-Z) - h Z/(1-Z)^2 + O(h^2)
    a = HSeries.const(1 / (1 - Z), H2)
    out = a.subst_mult("Z", HSeries.exp_shift({"h": -1}, H2))
    assert out.coeff({}) == 1 / (1 - Z)
    assert out.coeff({"h": 1}) == -Z / ((1 - Z) ** 2)


def test_subst_mult_plain_var():
    a = HSeries.const(Z, H2)
    out = a.subst_mult("Z", HSeries.exp_shift({"h": Fraction(-1, 2)}, H2))
    assert out == HSeries.const(Z, H2) - HSeries.const(Z, H2) * h(H2) * Fraction(1, 2)


def test_subst_mult_takes_only_a_factor_with_constant_term_1():
    a = HSeries.const(1 / (1 - Z), H2)
    for bad in (HSeries.zero(H2), h(H2), 2 + h(H2), HSeries.const(Z, H2)):
        with pytest.raises(ValueError, match="constant term 1"):
            a.subst_mult("Z", bad)


def test_subst_mult_differentiates_once_per_order(monkeypatch):
    # orders 0..3 of a one-coefficient series need derivatives 1..3 only
    calls = []
    diff = RatFunc.diff
    monkeypatch.setattr(RatFunc, "diff",
                        lambda self, name: calls.append(name) or diff(self, name))
    caps = {"h": 4}
    HSeries.const(1 / (1 - Z), caps).subst_mult(
        "Z", HSeries.exp_shift({"h": 1}, caps))
    assert calls == ["Z"] * 3


def test_subst_mult_differentiates_only_what_the_caps_keep(monkeypatch):
    # with caps h^3, t = e^h - 1 starts at h, so the first derivative is
    # needed at h^0 and h^1 and the second at h^0 only: 3 of 6
    calls = []
    diff = RatFunc.diff
    monkeypatch.setattr(RatFunc, "diff",
                        lambda self, name: calls.append(name) or diff(self, name))
    caps = {"h": 3}
    a = HSeries(caps, {(0,): 1 / (1 - Z), (1,): Z / (1 - Z) ** 2,
                       (2,): Z ** 3})
    got = a.subst_mult("Z", HSeries.exp_shift({"h": 1}, caps))
    assert len(calls) == 3
    monkeypatch.setattr(RatFunc, "diff", diff)
    # order by order: a(Z e^h) = sum_k (Z^k/k!) a^(k)(Z) (e^h - 1)^k
    want = a
    t = HSeries.exp_shift({"h": 1}, caps) - 1
    deriv, tpow = a, HSeries.one(caps)
    for k in (1, 2):
        deriv, tpow = deriv.diff_ring_var("Z"), tpow * t
        want = want + deriv * (Z ** k * Fraction(1, 2 if k == 2 else 1)) * tpow
    assert got == want


def test_coeff_cap_errors():
    a = HSeries.one(H3)
    with pytest.raises(ValueError):
        a.coeff({"h": 3})
    with pytest.raises(KeyError):
        a.coeff({"u": 1})


def test_diff_capped_reduces_cap():
    caps = {"h": 2, "u": 3}
    e = HSeries.exp_shift({"u": 2}, caps)
    d = e.diff_capped("u")
    assert d.caps == {"h": 2, "u": 2}
    assert d.coeff({}) == 2
    assert d.coeff({"u": 1}) == 4


def test_diff_ring_var():
    a = HSeries.const(1 / (1 - Z), H2)
    assert a.diff_ring_var("Z") == HSeries.const(1 / ((1 - Z) ** 2), H2)


def test_subs_ring_var():
    a = HSeries.const(1 / (1 - Z), H2) * h(H2)
    out = a.subs_ring_var("Z", Z ** -1)
    assert out.coeff({"h": 1}) == Z / (Z - 1)


def _series_from_data(data):
    """The series that ``HSeries.to_data`` encodes."""
    caps, terms = data
    return HSeries(dict(caps), {tuple(m): _from_data(c) for m, c in terms})


def test_serialization_roundtrip():
    a = HSeries.const(1 / (1 - Z), H3) + h(H3) * (Z / (1 + Z))
    assert _series_from_data(json.loads(json.dumps(a.to_data()))) == a


def small_series(caps):
    consts = st.fractions(min_value=-6, max_value=6, max_denominator=4)

    @st.composite
    def build(draw):
        acc = HSeries.const(draw(consts), caps)
        for _ in range(draw(st.integers(0, 3))):
            c = draw(consts) * Z ** draw(st.integers(0, 2))
            m = HSeries.const(c, caps)
            for n in caps:
                m = m * HSeries.capped_var(n, caps) ** draw(st.integers(0, 1))
            acc = acc + m
        return acc

    return build()


CAPS = {"h": 3, "u": 2}


@settings(max_examples=25, deadline=None)
@given(small_series(CAPS), small_series(CAPS), small_series(CAPS))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(small_series(CAPS))
def test_inverse_two_sided(a):
    u = a + 1 - HSeries.const(a.coeff({}), CAPS)  # force unit constant term
    assert (u * u.inv()).is_one()
    assert (u.inv() * u).is_one()


@settings(max_examples=20, deadline=None)
@given(small_series(CAPS), small_series(CAPS))
def test_subst_mult_is_homomorphism(a, b):
    f = HSeries.exp_shift({"h": -1, "u": Fraction(1, 2)}, CAPS)
    lhs = (a * b).subst_mult("Z", f)
    rhs = a.subst_mult("Z", f) * b.subst_mult("Z", f)
    assert lhs == rhs


def test_caps_are_interned():
    caps = Caps.of({"u": 2, "h": 3})
    assert caps is Caps.of({"h": 3, "u": 2}) is Caps.of(caps)
    assert caps == {"h": 3, "u": 2} and caps != {"h": 3}
    assert caps.names == ("h", "u") and dict(caps) == {"h": 3, "u": 2}
    assert HSeries.one({"h": 3, "u": 2}).caps is caps
    with pytest.raises(ValueError):
        Caps.of({"h": 0})


def test_binary_ops_reject_other_caps():
    a = 1 + h(H3) + 3 * h(H3) * h(H3)
    ops = (operator.mul, operator.add, operator.sub, operator.truediv,
           operator.eq)
    for other in (HSeries.one({"h": 2, "u": 2}), HSeries.one({"h": 4}),
                  1 + h(H2)):
        for op in ops:
            with pytest.raises(ValueError):
                op(a, other)
            with pytest.raises(ValueError):
                op(other, a)
        with pytest.raises(ValueError):
            HSeries.const(Z, H3).subst_mult("Z", other)
    # the one conversion is explicit, and re-truncates
    assert a.with_caps(H2) == 1 + h(H2)
    assert a.with_caps({"h": 2, "u": 2}) * HSeries.one({"h": 2, "u": 2}) \
        == HSeries({"h": 2, "u": 2}, {(0, 0): 1, (1, 0): 1})


def test_operator_operand_reaches_its_reflected_op():
    # a series times an operator scales the operator; a series plus an
    # operator is no operation at all
    from rmx.tensorop import TensorOp
    op = TensorOp.identity(2, 1, H2)
    hh = h(H2)
    for scalar in (HSeries.one(H2), 1 + hh):
        out = scalar * op
        assert isinstance(out, TensorOp)
        assert out == op.scale(scalar)
    for bad in (operator.add, operator.sub, operator.truediv):
        with pytest.raises(TypeError):
            bad(hh, op)
    with pytest.raises(TypeError):
        HSeries.const(Z, H2).subst_mult("Z", op)


# -- differential tests against sympy.series -------------------------------
#
# Series in h whose coefficients are rational in the ring variable z, built
# twice from the same draws: as an HSeries and as a sympy expression.  Each
# h-coefficient of a product, an inverse and a substitution z -> z*exp(a*h)
# must equal the matching coefficient of sympy's series of the same
# expression, after cancel.

sz, sh = sympy.symbols("z h")
DEN_POOL = (lambda z: z, lambda z: 1 - z, lambda z: 2 * z + 3)
L_SERIES = 3
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def z_rational(draw):
    """A rational function of z, as a RatFunc and as a sympy expression."""
    coeffs = draw(st.lists(fracs, min_size=1, max_size=3))
    dens = draw(st.lists(st.sampled_from(DEN_POOL), max_size=2))
    z = RatFunc.var("z")
    num = sum((c * z ** i for i, c in enumerate(coeffs)), RatFunc.zero())
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sz ** i
               for i, c in enumerate(coeffs))
    for f in dens:
        num, expr = num / f(z), expr / f(sz)
    return num, expr


@st.composite
def z_series(draw, unit=False):
    caps = {"h": L_SERIES}
    terms, expr = {}, sympy.Integer(0)
    for l in range(L_SERIES):
        coeff, e = draw(z_rational())
        if unit and l == 0 and coeff.is_zero():
            coeff, e = RatFunc.one(), sympy.Integer(1)
        terms[(l,)] = coeff
        expr += e * sh ** l
    return HSeries(caps, terms), expr


def _to_sympy(f):
    def poly(terms):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in md.items()))
                   for md, c in terms)

    return poly(f.numer_terms()) / poly(f.denom_terms())


def _assert_matches_series(s, expr):
    ref = sympy.expand(sympy.series(expr, sh, 0, L_SERIES).removeO())
    for l in range(L_SERIES):
        ours = _to_sympy(s.coeff({"h": l}))
        assert sympy.cancel(ref.coeff(sh, l) - ours) == 0, l


@settings(max_examples=10)
@given(z_series(), z_series())
def test_mul_matches_sympy_series(a, b):
    _assert_matches_series(a[0] * b[0], a[1] * b[1])


@settings(max_examples=10)
@given(z_series(unit=True))
def test_inv_matches_sympy_series(a):
    _assert_matches_series(a[0].inv(), 1 / a[1])


@settings(max_examples=8)
@given(z_series(), st.sampled_from([Fraction(-2), Fraction(-1, 2),
                                    Fraction(1), Fraction(3, 2)]))
def test_subst_mult_matches_sympy_series(a, alpha):
    factor = HSeries.exp_shift({"h": alpha}, {"h": L_SERIES})
    expr = a[1].subs(sz, sz * sympy.exp(
        sympy.Rational(alpha.numerator, alpha.denominator) * sh))
    _assert_matches_series(a[0].subst_mult("z", factor), expr)


@settings(max_examples=8)
@given(z_series(), st.sampled_from([Fraction(-1), Fraction(1, 2)]),
       st.sampled_from([Fraction(2), Fraction(-1, 3)]))
def test_subst_mult_scaled_factor_matches_sympy_series(a, alpha, c):
    # a factor c*e^{alpha h} with c != 1 is refused; z -> c*z by
    # subs_ring_var, then the exp_shift, gives the same substitution
    factor = HSeries.exp_shift({"h": alpha}, {"h": L_SERIES})
    with pytest.raises(ValueError, match="constant term 1"):
        a[0].subst_mult("z", factor * c)
    expr = a[1].subs(sz, sympy.Rational(c.numerator, c.denominator) * sz
                     * sympy.exp(sympy.Rational(alpha.numerator,
                                                alpha.denominator) * sh))
    _assert_matches_series(a[0].subs_ring_var("z", c * RatFunc.var("z"))
                           .subst_mult("z", factor), expr)


# -- multivariate differential tests against sympy -------------------------
#
# Series in several capped variables with coefficients rational in z, as an
# HSeries and as a sympy polynomial in the capped variables over QQ(z).
# Products must match sympy's expanded product with every exponent at or
# beyond its cap dropped; an inverse must give exactly 1 in that product.

MULTI_CAPS = ({"h": 3, "u": 2}, {"h": 2, "u": 2, "v": 2})


@st.composite
def multi_series(draw, caps, unit=False):
    names = sorted(caps)
    gens = sympy.symbols(names)
    terms, expr = {}, sympy.Integer(0)
    for mono in itertools.product(*(range(caps[n]) for n in names)):
        if unit and not any(mono):
            coeff, e = RatFunc.one(), sympy.Integer(1)
        elif draw(st.booleans()):
            coeff, e = draw(z_rational())
        else:
            continue
        terms[mono] = coeff
        expr += e * sympy.Mul(*(g ** k for g, k in zip(gens, mono)))
    return HSeries(caps, terms), expr


def _truncated_product(caps, ea, eb):
    """mono -> coefficient of sympy's expanded ea*eb, within the caps."""
    names = sorted(caps)
    poly = sympy.Poly(sympy.expand(ea * eb), *sympy.symbols(names))
    return {m: c for m, c in poly.terms()
            if all(e < caps[n] for n, e in zip(names, m))}


def _assert_matches(s, ref):
    names = s.caps.names
    monos = set(ref) | {m for m in itertools.product(
        *(range(s.caps[n]) for n in names))
        if not s.coeff(dict(zip(names, m))).is_zero()}
    for m in monos:
        ours = _to_sympy(s.coeff(dict(zip(names, m))))
        assert sympy.cancel(ref.get(m, 0) - ours) == 0, m


@pytest.mark.parametrize("caps", MULTI_CAPS)
@settings(max_examples=8)
@given(data=st.data())
def test_multivariate_mul_matches_sympy(caps, data):
    a, ea = data.draw(multi_series(caps))
    b, eb = data.draw(multi_series(caps))
    _assert_matches(a * b, _truncated_product(caps, ea, eb))


@pytest.mark.parametrize("caps", MULTI_CAPS)
@settings(max_examples=6)
@given(data=st.data())
def test_multivariate_inv_matches_sympy(caps, data):
    a, ea = data.draw(multi_series(caps, unit=True))
    inv = a.inv()
    names = sorted(caps)
    einv = sum((_to_sympy(inv.coeff(dict(zip(names, m))))
                * sympy.Mul(*(g ** k for g, k in zip(sympy.symbols(names), m)))
                for m in itertools.product(*(range(caps[n]) for n in names))),
               sympy.Integer(0))
    ref = _truncated_product(caps, ea, einv)
    zero = tuple(0 for _ in names)
    assert sympy.cancel(ref.pop(zero) - 1) == 0
    assert all(sympy.cancel(c) == 0 for c in ref.values())
