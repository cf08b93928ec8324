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


# -- factor-pool differential tests: gcd-free fractions against sympy ------
#
# Denominators are products of powers of a fixed pool of irreducible
# factors, like the R-matrix denominators; numerators are sometimes
# multiplied by pool factors, and some pairs are drawn so that their sum
# cancels a factor, so that trial division really divides, at equal and at
# unequal exponents.  Results of single operations and of chains (carried
# factorizations) must be sympy's canonical form.

POOL = (lambda x, y: x, lambda x, y: y, lambda x, y: x - y,
        lambda x, y: 1 - x, lambda x, y: x * y - 1,
        lambda x, y: 2 * x + 3 * y,     # not monic
        lambda x, y: x ** 2 + y)        # not linear
POOL_NAMES = (("x", "y"), ("x", "y", "z"))
pool_index = st.integers(0, len(POOL) - 1)


def _pool(names):
    ring = _field_for(names).ring
    x, y = ring.gens[names.index("x")], ring.gens[names.index("y")]
    return [f(x, y) for f in POOL]


@st.composite
def pool_denominators(draw, names):
    pool = _pool(names)
    den = _field_for(names).ring(QQ(draw(st.integers(1, 6))))
    for i, k in draw(st.lists(st.tuples(pool_index, st.integers(1, 3)),
                              max_size=3)):
        den *= pool[i] ** k
    return den


@st.composite
def pool_numerators(draw, names):
    num = _poly(_field_for(names), _terms(draw, names, 1))
    for i in draw(st.lists(pool_index, max_size=2)):
        num *= _pool(names)[i]
    return num


@st.composite
def pooled(draw, names=None):
    names = names or draw(st.sampled_from(POOL_NAMES))
    fld = _field_for(names)
    return RatFunc(names, fld.new(draw(pool_numerators(names)),
                                  draw(pool_denominators(names))))


@st.composite
def cancelling_pairs(draw):
    """a = N/D and b = (p**j * M - N)/D, so that a + b = p**j * M / D."""
    names = draw(st.sampled_from(POOL_NAMES))
    fld = _field_for(names)
    den = draw(pool_denominators(names))
    num = draw(pool_numerators(names))
    p = _pool(names)[draw(pool_index)] ** draw(st.integers(1, 2))
    other = p * draw(pool_numerators(names)) - num
    return RatFunc(names, fld.new(num, den)), RatFunc(names, fld.new(other, den))


def _in_field(names, a):
    return _expected(names, a.numer_terms(), a.denom_terms())


def _check_diff(a, name):
    fld = _field_for(a.vars)
    ref = _in_field(a.vars, a).diff(fld.gens[a.vars.index(name)])
    _assert_canonical(a.diff(name), a.vars, ref)


@given(pooled(), pooled())
def test_pool_fraction_ops_match_sympy(a, b):
    for op in (add, sub, mul):
        _check(op, a, b)
        _check(op, b, a)
        _check(op, a ** 2, b)       # a power carries its factorization


@given(cancelling_pairs(), pooled())
def test_pool_cancellation_matches_sympy(ab, c):
    a, b = ab
    for op in (add, sub):
        _check(op, a, b)
    _check(add, a + b, c)          # a carried factorization meets a fresh one
    _check(mul, a + b, c)
    _check(sub, a + b, b)          # cancels back to a


@settings(max_examples=30)
@given(pooled(), pooled(), pooled(), pooled())
def test_pool_chains_match_sympy(a, b, c, d):
    names = tuple(sorted(set(a.vars) | set(b.vars) | set(c.vars)
                         | set(d.vars)))
    fa, fb, fc, fd = (_in_field(names, v) for v in (a, b, c, d))
    _assert_canonical((a + b) * c - d, names, (fa + fb) * fc - fd)
    _assert_canonical((a * b - c) * (c + d), names,
                      (fa * fb - fc) * (fc + fd))
    wide = ("x", "y", "z")
    _assert_canonical((a * b).lift(wide) * c, wide,
                      _in_field(wide, a) * _in_field(wide, b)
                      * _in_field(wide, c))
    _assert_canonical(a.lift(wide) * d + b, wide,
                      _in_field(wide, a) * _in_field(wide, d)
                      + _in_field(wide, b))


@settings(max_examples=50)
@given(pooled(), pooled(), st.sampled_from(("x", "y", "z")))
def test_pool_diff_matches_sympy(a, b, name):
    if name not in a.vars:
        assert a.diff(name).is_zero()
        return
    _check_diff(a, name)
    _check_diff(a * b, name)        # a carried factorization
    _check_diff((a + b).diff(name) * a, name)


@given(st.data())
def test_pool_diff_cancels_factors_free_of_the_variable(data):
    # d/dx (p*M + K) / (p**k * D) with p and K free of x: p divides p*M'
    names = data.draw(st.sampled_from(POOL_NAMES))
    name = data.draw(st.sampled_from(names))
    i = names.index(name)
    fld = _field_for(names)
    p = data.draw(st.sampled_from([f for f in _pool(names) if not f.degree(i)]))
    free = data.draw(pool_numerators(names))
    free = fld.ring.dtype({m: c for m, c in free.items() if not m[i]})
    num = p * data.draw(pool_numerators(names)) + free
    den = p ** data.draw(st.integers(1, 3)) * data.draw(pool_denominators(names))
    _check_diff(RatFunc(names, fld.new(num, den)), name)


def test_fraction_ops_take_no_gcd(monkeypatch):
    """Sums, differences, products and derivatives of multivariate fractions
    never reach sympy's fraction arithmetic, which reduces by a gcd."""
    from sympy.polys.fields import FracElement
    x, y = RatFunc.var("x"), RatFunc.var("y")
    a = (x + 2 * y) / ((x - y) ** 2 * (x * y - 1))
    b = (3 - x * y) / ((x - y) * (2 * x + 3 * y))
    c = RatFunc(("x", "y", "z"), _field_for(("x", "y", "z")).new(
        *_pool(("x", "y", "z"))[1:3]))       # y / (x - y), not yet factored

    def boom(*args):
        raise AssertionError("sympy fraction arithmetic was called")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "diff"):
        monkeypatch.setattr(FracElement, name, boom)
    results = [a + b, a - b, a * b, b * a, (a + b) * c - a, c * b - c,
               a.diff("x"), (a * b).diff("y"), c.diff("z"), c.diff("x")]
    monkeypatch.undo()
    assert results[0] - b == a and results[2] / b == a
