from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ

from rmx.ratfunc import RatFunc, _field_for

Z = RatFunc.var("Z")
W = RatFunc.var("W")


def test_add_reduces():
    a = RatFunc.one() / (1 - Z)
    assert a + a == RatFunc.const(2) / (1 - Z)


def test_cancel_to_polynomial():
    assert (1 - Z * Z) / (1 - Z) == 1 + Z


def test_cancel_monomial():
    assert (Z / (1 - Z)) / Z == RatFunc.one() / (1 - Z)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        Z / RatFunc.zero()
    with pytest.raises(ZeroDivisionError):
        1 / (Z - Z)
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero() ** -1


def test_mixed_variables():
    x = Z / (1 - W)
    y = W / (1 - Z)
    p = x * y
    assert p == (Z * W) / ((1 - W) * (1 - Z))
    assert p / y == x


def test_constants_are_fractions():
    c = RatFunc.const(Fraction(3, 4))
    assert c.vars == ()
    assert (c + c).as_fraction() == Fraction(3, 2)
    assert (Z * 0 + c).trim().vars == ()


def test_negative_powers():
    assert Z ** -2 * Z ** 2 == 1
    assert (Z - Z) ** 0 == 1 == RatFunc.zero() ** 0
    assert ((1 - Z) ** -1) * (1 - Z) == 1


def test_diff():
    f = 1 / (1 - Z)
    assert f.diff("Z") == 1 / ((1 - Z) ** 2)
    assert f.diff("W").is_zero()


def test_subs_var():
    f = 1 / (1 - Z)
    # Z -> Z*W keeps exactness
    assert f.subs_var("Z", Z * W) == 1 / (1 - Z * W)
    # Z -> 1/Z
    g = f.subs_var("Z", Z ** -1)
    assert g == Z / (Z - 1)
    with pytest.raises(ZeroDivisionError):
        f.subs_var("Z", RatFunc.one())


def test_denominator_shape():
    f = (1 + Z) / (Z ** 3)
    assert f.denom_is_monomial()
    assert f.denom_monomial_exponent("Z") == 3
    g = 1 / (1 - Z)
    assert not g.denom_is_monomial()


def test_remove_denominator_factor():
    f = (1 + Z) / ((1 - Z) ** 3 * Z)
    k, rest = f.remove_denominator_factor(1 - Z)
    assert k == 3
    assert rest == (1 + Z) / Z


def test_serialization_roundtrip():
    for f in [Z / (1 - W), RatFunc.const(Fraction(-7, 3)), (1 + Z + W) ** 2 / (Z * W)]:
        assert RatFunc.from_data(f.to_data()) == f


consts = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def ratfuncs(draw):
    # small random polynomials over Z, W divided by nonzero ones
    def poly():
        acc = RatFunc.const(draw(consts))
        for _ in range(draw(st.integers(0, 2))):
            acc = acc + draw(consts) * Z ** draw(st.integers(0, 2)) * W ** draw(st.integers(0, 2))
        return acc

    num = poly()
    den = poly()
    if den.is_zero():
        den = RatFunc.one() + Z
    return num / den


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == 0
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(ratfuncs())
def test_canonical_equality_hash(a):
    b = RatFunc.from_data(a.to_data())
    assert a == b
    assert hash(a) == hash(b)


# -- differential tests: gcd-free paths against sympy's cancel ------------
#
# Operands are built directly in sympy's fields, so they do not depend on
# the arithmetic under test; the reference for each result reduces the
# expected numerator and denominator with sympy's cancel.  Canonical forms
# must agree structurally, not just compare equal.

NAMES = ("V", "W", "Z")
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _terms(draw, names, min_size):
    monos = st.tuples(*(st.integers(0, 2) for _ in names))
    return draw(st.dictionaries(monos, small.filter(bool), min_size=min_size,
                                max_size=4))


def _poly(fld, terms):
    return fld.ring.from_dict(
        {m: QQ(c.numerator, c.denominator) for m, c in terms.items()})


@st.composite
def field_ratfuncs(draw, integer_denominator=False):
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES), min_size=1))))
    fld = _field_for(names)
    num = _poly(fld, _terms(draw, names, 0))
    if integer_denominator:
        den = fld.ring.one
    else:
        den = _poly(fld, _terms(draw, names, 1))
    return RatFunc(names, fld.new(num, den))


def _expected(names, num_terms, den_terms):
    """sympy's reduced form of sum(num_terms) / sum(den_terms) over names."""
    fld = _field_for(names)

    def poly(terms):
        data = {}
        for md, c in terms:
            mono = tuple(md.get(v, 0) for v in names)
            data[mono] = data.get(mono, QQ(0)) + QQ(c.numerator, c.denominator)
        return fld.ring.from_dict(data)

    return fld.new(poly(num_terms), poly(den_terms))


def _sympy_op(op, a, b):
    """a <op> b computed in sympy's field over the union of variables."""
    names = tuple(sorted(set(a.vars) | set(b.vars)))
    fa = _expected(names, a.numer_terms(), a.denom_terms())
    fb = _expected(names, b.numer_terms(), b.denom_terms())
    return names, op(fa, fb)


def _assert_canonical(result, names, ref):
    """``result`` holds exactly sympy's canonical pair ``ref`` over ``names``."""
    assert result.vars == names
    assert result._val.field == ref.field
    assert dict(result._val.numer) == dict(ref.numer)
    assert dict(result._val.denom) == dict(ref.denom)
    twin = RatFunc(names, ref)
    assert repr(result) == repr(twin)
    assert result.to_data() == twin.to_data()
    assert hash(result) == hash(twin)


def _check(op, a, b):
    names, ref = _sympy_op(op, a, b)
    _assert_canonical(op(a, b), names, ref)


scalars = st.sampled_from([0, 1, -1, 2, Fraction(-3, 4), Fraction(5, 6)])


@given(field_ratfuncs(), scalars | small)
def test_scalar_mul_matches_sympy(a, c):
    k = RatFunc.const(c)
    _check(mul, a, k)
    _check(mul, k, a)
    _assert_canonical(a * c, a.vars, _sympy_op(mul, a, k)[1])
    _assert_canonical(c * a, a.vars, _sympy_op(mul, k, a)[1])


@given(field_ratfuncs(), st.sampled_from(NAMES), scalars | small)
def test_field_constant_mul_matches_sympy(a, name, c):
    # a constant that lives in a field with variables, as left by cancellation
    c = Fraction(c)
    fld = _field_for((name,))
    k = RatFunc((name,), fld.new(fld.ring(QQ(c.numerator, c.denominator))))
    _check(mul, a, k)
    _check(mul, k, a)


@given(field_ratfuncs(), field_ratfuncs(integer_denominator=True))
def test_integer_denominator_add_sub_match_sympy(a, p):
    for op in (add, sub):
        _check(op, a, p)
        _check(op, p, a)


@given(field_ratfuncs(), scalars | small)
def test_constant_add_sub_match_sympy(a, c):
    k = RatFunc.const(c)
    for op in (add, sub):
        _check(op, a, k)
        _check(op, k, a)
    names = a.vars
    _assert_canonical(a + c, names, _sympy_op(add, a, k)[1])
    _assert_canonical(c + a, names, _sympy_op(add, k, a)[1])
    _assert_canonical(a - c, names, _sympy_op(sub, a, k)[1])
    _assert_canonical(c - a, names, _sympy_op(sub, k, a)[1])


@given(field_ratfuncs(), field_ratfuncs())
def test_fraction_ops_match_sympy(a, b):
    for op in (add, sub, mul):
        _check(op, a, b)


@given(field_ratfuncs(), st.sets(st.sampled_from(NAMES + ("U", "Y"))))
def test_lift_to_superset_matches_sympy(a, extra):
    names = tuple(sorted(set(a.vars) | extra))
    ref = _expected(names, a.numer_terms(), a.denom_terms())
    _assert_canonical(a.lift(names), names, ref)
    assert a.lift(names).trim() == a.trim()
    assert a.lift(names).trim().vars == a.trim().vars


@given(field_ratfuncs(), st.integers(-3, 3))
def test_powers_are_canonical(a, n):
    if n < 0 and a.is_zero():
        return
    fld = _field_for(a.vars)
    num, den = a._val.numer, a._val.denom
    if n < 0:
        num, den = den, num
    ref = fld.new(num ** abs(n), den ** abs(n)) if n else fld.one
    _assert_canonical(a ** n, a.vars, ref)


def test_negative_power_sign():
    f = (1 - Z) ** -1
    assert f.denom_terms() == [({}, -1), ({"Z": 1}, 1)]
    assert repr(f) == "(-1)/(-1 + Z)"
    assert repr((1 - Z) ** -1 + 1) == repr(RatFunc.one() / (1 - Z) + 1)
