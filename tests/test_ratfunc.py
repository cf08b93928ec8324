import gc
import itertools
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from pathlib import Path
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

import rmx.ratfunc
from rmx.ratfunc import (RatFunc, _MonomialImage, _packing, _Registry,
                        _registry, _subs_by_terms)

SRC = Path(__file__).resolve().parent.parent / "src"

Z = RatFunc.var("Z")
W = RatFunc.var("W")


def _from_data(data):
    """The value that ``RatFunc.to_data`` encodes, rebuilt by arithmetic."""
    _, num, den = data

    def dec(terms):
        acc = RatFunc.zero()
        for md, (p, q) in terms:
            term = RatFunc.const(Fraction(p, q))
            for v, e in md:
                term = term * RatFunc.var(v) ** e
            acc = acc + term
        return acc

    return dec(num) / dec(den)


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


# RatFunc.substitution maps c -> c.subs_var(name, value).  For a value A/B, a
# nonconstant Laurent monomial with coefficient 1, it maps two shapes of c by
# packed exponents: p(X)/(c (X-1)^r) over X alone, and a polynomial over a
# larger tuple when B = 1.  Their canonical form must be the structure that
# the term-by-term route (``_subs_by_terms``, by arithmetic on rational
# functions) reaches, and every other c must take that route.

X = RatFunc.var("X")
LAURENT_VARS = ("X", "u", "v", "w")


@st.composite
def one_minus_x_fractions(draw):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    p = sum((c * X ** i for i, c in enumerate(coeffs)), RatFunc.zero())
    r = draw(st.integers(0, 5))
    k = draw(st.integers(1, 6))
    return p / (k * (X - 1) ** r)


@st.composite
def laurent_monomials(draw, low=-3):
    exps = draw(st.lists(st.integers(low, 3), min_size=4, max_size=4))
    mono = RatFunc.one()
    for name, e in zip(LAURENT_VARS, exps):
        mono = mono * RatFunc.var(name) ** e
    return mono


def _assert_same_structure(got, want):
    assert got == want
    assert got.vars == want.vars
    assert got.to_data() == want.to_data()
    if want.vars:
        assert (got._num, got._fac) == (want._num, want._fac)


@contextmanager
def _term_route_calls():
    """The coefficients that reach ``_subs_by_terms`` inside the block."""
    calls = []
    real = rmx.ratfunc._subs_by_terms

    def counted(c, name, value):
        calls.append(c)
        return real(c, name, value)
    rmx.ratfunc._subs_by_terms = counted
    try:
        yield calls
    finally:
        rmx.ratfunc._subs_by_terms = real


def _is_polynomial(c) -> bool:
    (monomial, _), *rest = c.denom_terms()
    return not monomial and not rest


def _goes_term_by_term(c, value) -> bool:
    """Whether X -> ``value`` substitutes c term by term: c has X, is not a
    constant, and has neither packed shape."""
    if "X" not in c.vars or c.is_constant():
        return False
    if c.vars == ("X",):
        return not _is_polynomial(c.remove_denominator_factor(X - 1)[1])
    return not (_is_polynomial(c) and _is_polynomial(value))


def _assert_route(c, value, term_route=None):
    """sub(c) for the map of X -> ``value`` has the structure of the
    term-by-term route, or both raise ZeroDivisionError, and it went term by
    term exactly when ``term_route`` (by default, when c has no packed
    shape).  Returns sub(c), or None if it raised."""
    if term_route is None:
        term_route = _goes_term_by_term(c, value)
    sub = RatFunc.substitution("X", value)
    with _term_route_calls() as calls:
        try:
            got = sub(c)
        except ZeroDivisionError:
            got = None
    assert len(calls) == term_route
    try:
        want = _subs_by_terms(c, "X", value.trim())
    except ZeroDivisionError:
        assert got is None
        return None
    _assert_same_structure(got, want)
    return got


@settings(max_examples=150, deadline=None)
@given(one_minus_x_fractions(), laurent_monomials())
def test_laurent_substitution_matches_subs_var(c, value):
    if value.is_constant():
        return
    assert isinstance(RatFunc.substitution("X", value), _MonomialImage)
    _assert_route(c, value, term_route=False)


def test_laurent_substitution_edges():
    u, v, w = (RatFunc.var(n) for n in "uvw")
    c = (3 * X ** 4 - X + 2) / (5 * (X - 1) ** 2)
    cases = [
        u / (v ** 3 * w ** 2),     # deg B > deg A
        1 / (u ** 2 * v),          # A = 1
        u ** 2,                    # B = 1, A - 1 splits as (u - 1)(u + 1)
        u ** 3 / v ** 3,           # A - B has a quadratic factor
    ]
    for value in cases:
        # r < d puts B^(d-r) below the line, r > d B^(r-d) above it
        for coeff in (c, c * (X - 1) ** -4, X ** 5 / (X - 1),
                      X ** 2 - 7, RatFunc.const(Fraction(2, 3)),
                      RatFunc.zero()):
            _assert_route(coeff, value, term_route=False)
    # B != 1 at r < d and at r > d
    assert _assert_route(X ** 3 / (X - 1), u / v, term_route=False) == \
        u ** 3 / (v ** 2 * (u - v))
    assert _assert_route((X + 1) / (X - 1) ** 3, u / v,
                         term_route=False) == v ** 2 * (u + v) / (u - v) ** 3
    # other values are substituted term by term
    for value in (2 * u, 1 + u, -u):
        assert not isinstance(RatFunc.substitution("X", value),
                              _MonomialImage)
        _assert_route(c, value, term_route=True)
    # so are coefficients over X alone with another denominator factor
    for coeff in (1 / (X + 1), X / ((X - 1) * (X + 2)), (X - 1) / X):
        _assert_route(coeff, u / v, term_route=True)
    with _term_route_calls() as calls, pytest.raises(ValueError,
                                                     match="overflow"):
        RatFunc.substitution("X", u ** 20000 / v)(X ** 2 / (X - 1))
    assert calls == []


# Coefficients over X, u and v whose denominator factors mix X with the
# other variables, against values A/B that may share them.

IMAGE_FACTORS = [X - 1, X + 1, X, X - RatFunc.var("u"),
                 X * RatFunc.var("u") - 1, X + RatFunc.var("v"),
                 X * RatFunc.var("v") - RatFunc.var("u"),
                 RatFunc.var("u") - 1, X ** 2 + RatFunc.var("u")]


@st.composite
def mixed_fractions(draw):
    u, v = RatFunc.var("u"), RatFunc.var("v")
    num = RatFunc.zero()
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
        num = num + draw(st.integers(-5, 5)) * X ** e[0] * u ** e[1] \
            * v ** e[2]
    den = RatFunc.const(draw(st.integers(1, 6)))
    for f in draw(st.lists(st.sampled_from(IMAGE_FACTORS), max_size=3)):
        den = den * f ** draw(st.integers(1, 3))
    return num / den


@settings(max_examples=200, deadline=None)
@given(mixed_fractions(),
       st.one_of(laurent_monomials(), laurent_monomials(low=0)))
def test_monomial_image_matches_term_route(c, value):
    if value.is_constant():
        return
    assert isinstance(RatFunc.substitution("X", value), _MonomialImage)
    _assert_route(c, value)


def test_monomial_image_edges():
    u, v, w = (RatFunc.var(n) for n in "uvw")
    x, y, z0 = (RatFunc.var(n) for n in ("x", "y", "Z0"))
    # polynomials over a larger tuple, B = 1: y -> x Z0 as in the
    # correspondence check, an image that cancels to 0, one that loses
    # variables, and one that collides terms without cancelling
    got = RatFunc.substitution("y", x * z0)((x - y) ** 3 * 2)
    assert got == 2 * x ** 3 * (1 - z0) ** 3
    assert _assert_route(X * w - u * w, u, term_route=False).is_zero()
    got = _assert_route(X * w - u * w + 3 * v, u, term_route=False)
    assert got.vars == ("v",) and got == 3 * v
    assert _assert_route(X * u + u ** 2 + w, u, term_route=False) == \
        2 * u ** 2 + w
    for coeff in (X ** 3 * u - 2 * v, (X * w + u) / 4):
        _assert_route(coeff, u ** 2 * v, term_route=False)
    # a polynomial over a larger tuple goes term by term when B != 1, and
    # so does any coefficient over a larger tuple with a denominator
    assert _assert_route(X * u + 1, 1 / v, term_route=True) == (u + v) / v
    assert _assert_route(X - u, u ** 2 / v ** 3, term_route=True) == \
        u * (u - v ** 3) / v ** 3
    got = RatFunc.substitution("y", x * z0)(1 / (x - y) ** 3)
    assert got == -1 / (x ** 3 * (z0 - 1) ** 3)
    assert _assert_route((X - u) / (X - 1), u ** 2, term_route=True) == \
        u / (u + 1)
    for c, value in (((X * v - 1) / (X - 1), 1 / v),
                     (X * v / (X * v - u), u ** 2 / v)):
        _assert_route(c, value, term_route=True)
    # X - u -> (1 - u v)/v: the image's leading coefficient is negative, so
    # an odd exponent moves a sign to the numerator and an even one does not
    for r in (1, 2, 3):
        got = _assert_route((X + 2) / (X - u) ** r, 1 / v, term_route=True)
        assert got == (1 + 2 * v) * v ** (r - 1) / (1 - u * v) ** r
    # a denominator that the substitution annihilates
    for c, value in ((1 / (X - u), u), (X / (X * v - u), u / v),
                     (u / X, RatFunc.zero())):
        with pytest.raises(ZeroDivisionError, match="annihilates"):
            RatFunc.substitution("X", value)(c)
        with pytest.raises(ZeroDivisionError, match="annihilates"):
            _subs_by_terms(c, "X", value)
    # a total degree past the packed field, on either route
    with _term_route_calls() as calls, pytest.raises(ValueError,
                                                     match="overflow"):
        RatFunc.substitution("X", u ** 20000)(X ** 2 * w - u)
    assert calls == []
    with pytest.raises(ValueError, match="overflow"):
        RatFunc.substitution("X", u ** 20000 / v)(X ** 2 * u / (X - u))
    with pytest.raises(ValueError, match="overflow"):
        RatFunc.substitution("X", v / u ** 20000)(u / (X ** 2 + u))


def test_monomial_image_at_zero_and_one():
    u, v = RatFunc.var("u"), RatFunc.var("v")
    coeffs = [(3 * X ** 2 - 5) / (7 * (X - 1) ** 3), (X * u + 2) / (X + u),
              (X - u) ** 2 / ((X * u - 1) * (u + 2) * (X + v)),
              X * u * v + 4 * v, RatFunc.const(Fraction(-2, 9))]
    # constants, 0 and 1 among them, go term by term
    for value in (RatFunc.zero(), RatFunc.one()):
        assert not isinstance(RatFunc.substitution("X", value),
                              _MonomialImage)
        for c in coeffs:
            _assert_route(c, value, term_route=True)
    assert RatFunc.substitution("X", RatFunc.zero())(coeffs[0]) == \
        Fraction(5, 7)
    assert RatFunc.substitution("X", RatFunc.one())(coeffs[1]) == \
        (u + 2) / (u + 1)
    assert RatFunc.substitution("X", RatFunc.one())(coeffs[3]) == \
        u * v + 4 * v


def test_denominator_shape():
    f = (1 + Z) / (Z ** 3)
    assert f.denom_is_monomial()
    assert f.denom_terms() == [({"Z": 3}, 1)]
    g = 1 / (1 - Z)
    assert not g.denom_is_monomial()
    # a monomial in one named variable, with any content
    assert f.denom_is_monomial_in("Z") and not f.denom_is_monomial_in("W")
    assert (W / (3 * Z ** 2)).denom_is_monomial_in("Z")
    assert not (1 / (Z * W)).denom_is_monomial_in("Z")
    assert not g.denom_is_monomial_in("Z")
    assert (Z * W + 1).denom_is_monomial_in("V")
    assert RatFunc.const(Fraction(1, 2)).denom_is_monomial_in("Z")


def test_remove_denominator_factor():
    f = (1 + Z) / ((1 - Z) ** 3 * Z)
    k, rest = f.remove_denominator_factor(1 - Z)
    assert k == 3
    assert rest == (1 + Z) / Z


def test_serialization_roundtrip():
    for f in [Z / (1 - W), RatFunc.const(Fraction(-7, 3)), (1 + Z + W) ** 2 / (Z * W)]:
        assert _from_data(f.to_data()) == f


def test_integers_leave_the_ring_as_int():
    """Coefficients and contents are plain ints, so Fractions and serialized
    data hold no gmpy2 or flint integers (which sympy's ZZ, the factoring
    fallback's ring, may use)."""
    f = (2 * Z - 4 * W) / (6 * (1 - Z) ** 2 * (Z * W - 3))
    values = [f, f / (3 * Z ** 2 - 12), f ** -2, f.subs_var("W", Z / 2),
              f.remove_denominator_factor(1 - Z)[1], (f - f) + Fraction(7, 3),
              _from_data(f.to_data())]
    for v in values:
        names, num, den = v.to_data()
        for _, pair in num + den:
            assert [type(x) for x in pair] == [int, int], (v, pair)
        for _, c in v.numer_terms() + v.denom_terms():
            assert type(c.numerator) is int and type(c.denominator) is int
        if v.vars:
            assert type(v._fac[0]) is int
        if v.is_constant():
            c = v.as_fraction()
            assert type(c.numerator) is int and type(c.denominator) is int


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
    b = _from_data(a.to_data())
    assert a == b
    assert hash(a) == hash(b)


# -- differential tests: RatFunc against sympy's cancel --------------------
#
# Operands are built from sympy's own canonical pairs: the numerator is
# copied and the denominator split by the registry, so they do not depend on
# the arithmetic under test.  The reference for each result is computed in
# sympy's rational-function field, which reduces by gcd.  The result's
# expanded numerator and denominator must be sympy's pair structurally, its
# factorization the one the registry gives that denominator afresh, and its
# repr, to_data and hash those of a twin built from sympy's pair.

NAMES = ("V", "W", "Z")
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@lru_cache(maxsize=None)
def _field_for(names):
    return field(",".join(names), QQ, order=grlex)[0]


def _integer_poly(names, poly):
    """sympy's integer polynomial ``poly`` as a packed-monomial dict."""
    assert all(c.denominator == 1 for c in poly.values())
    pack = _packing(len(names)).pack
    return {pack(m): int(c.numerator) for m, c in poly.items()}


def _from_sympy(names, f):
    """The RatFunc holding sympy's canonical pair ``f`` over ``names``."""
    return RatFunc(names, _integer_poly(names, f.numer),
                   _registry(names).factorize(_integer_poly(names, f.denom)))


def _make(names, num, den=None):
    """num/den, two polynomials over ``names``, reduced by sympy."""
    fld = _field_for(names)
    return _from_sympy(names, fld.new(num, fld.ring.one if den is None
                                      else den))


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
        return _make(names, num)
    return _make(names, num, _poly(fld, _terms(draw, names, 1)))


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


def _in_field(names, a):
    return _expected(names, a.numer_terms(), a.denom_terms())


def _sympy_op(op, a, b):
    """a <op> b computed in sympy's field over the union of variables."""
    names = tuple(sorted(set(a.vars) | set(b.vars)))
    return names, op(_in_field(names, a), _in_field(names, b))


def _sympy_terms(names, poly):
    return [({v: e for v, e in zip(names, m) if e},
             Fraction(int(c.numerator), int(c.denominator)))
            for m, c in sorted(poly.terms())]


def _assert_canonical(result, names, ref):
    """``result`` holds exactly sympy's canonical pair ``ref`` over ``names``."""
    assert result.vars == names
    assert result.numer_terms() == _sympy_terms(names, ref.numer)
    assert result.denom_terms() == _sympy_terms(names, ref.denom)
    twin = _from_sympy(names, ref)
    assert result._fac == twin._fac
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


def _mul_const_rebuilt(a, p, q):
    """a * p/q built as ``_mul_const`` builds every other scaling: content
    gcds, a scaled numerator and a registry pair, also for p/q = 1."""
    content, exps = a._fac
    g_p = gcd(p, content)
    g_q = rmx.ratfunc._content(a._num, q) if q != 1 else 1
    return RatFunc(a.vars, rmx.ratfunc._scale(a._num, p // g_p, g_q),
                   _registry(a.vars).pair(content // g_p * (q // g_q), exps))


@given(field_ratfuncs(), scalars | small)
def test_exact_one_scaling_returns_the_operand(a, c):
    if a.is_zero():
        return
    c = Fraction(c)
    kernel = rmx.ratfunc._mul_const
    assert kernel(a, 1, 1) is a
    assert a._scaled(Fraction(1)) is a and a * 1 is a and 1 * a is a
    if c:
        got = kernel(a, c.numerator, c.denominator)
        want = _mul_const_rebuilt(a, c.numerator, c.denominator)
        assert (got.vars, got._num, got._fac) == \
            (want.vars, want._num, want._fac)
        assert got == want and a._scaled(c) == want


@given(field_ratfuncs(), st.sampled_from(NAMES), scalars | small)
def test_field_constant_mul_matches_sympy(a, name, c):
    # a constant that lives in a field with variables, as left by cancellation
    c = Fraction(c)
    fld = _field_for((name,))
    k = _make((name,), fld.ring(QQ(c.numerator, c.denominator)))
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


def test_constant_add_sub_do_not_lift(monkeypatch):
    """An int or Fraction operand is added without lifting it to a value
    with variables, as constant scaling already is."""
    f = (Z + 2 * W) / (1 - Z * W)
    calls = []
    lift = RatFunc.lift

    def spy(self, names):
        calls.append(names)
        return lift(self, names)

    monkeypatch.setattr(RatFunc, "lift", spy)
    results = [f + 1, 1 - f, f - Fraction(1, 2)]
    monkeypatch.undo()
    assert calls == []
    assert results[0] - f == 1 and results[1] + f == 1
    assert f - results[2] == Fraction(1, 2)


def test_constant_equality_does_not_lift(monkeypatch):
    """A constant compares with a value with variables without a lift, and
    equals it exactly when that value is the same constant."""
    half = RatFunc.const(Fraction(1, 2))
    values = [half.lift(("W", "Z")), RatFunc.zero().lift(("Z",)),
              Z / (2 * Z), Z, 1 / (1 - Z)]
    lifted = [v.lift(("W", "Z")) for v in values]
    calls = []
    lift = RatFunc.lift
    monkeypatch.setattr(RatFunc, "lift",
                        lambda self, names: calls.append(names)
                        or lift(self, names))
    got = [(c == v, v == c) for v in values
           for c in (half, RatFunc.zero(), RatFunc.one())]
    monkeypatch.undo()
    assert calls == []
    want = [(c.lift(("W", "Z")) == v,) * 2 for v in lifted
            for c in (half, RatFunc.zero(), RatFunc.one())]
    assert got == want
    assert sum(g for g, _ in got) == 3


def test_constant_prints_alike_over_any_variables():
    """A constant prints alike whether it is held over variables or not, so
    a witness does not depend on the order in which an equal sum was
    formed: in a series, X - X - 1/2 cancels X first and holds -1/2 over no
    variables, and X - (X + 1/2) holds it over ("X",)."""
    from rmx.hseries import HSeries
    X, half = RatFunc.var("X"), Fraction(1, 2)
    over_none, over_x = RatFunc.const(-half), X - (X + half)
    assert (over_none.vars, over_x.vars) == ((), ("X",))
    assert repr(over_none) == repr(over_x) == "-1/2"
    caps = {"h": 2}
    x, h = HSeries.const(X, caps), HSeries.capped_var("h", caps)
    first, second = x - x - half * (1 + h), x - (x + half * (1 + h))
    assert first.terms[0].vars == () and second.terms[0].vars == ("X",)
    assert repr(first) == repr(second) == "(-1/2) + (-1/2)*h"
    for c in (RatFunc.zero(), RatFunc.const(3), RatFunc.const(-2)):
        assert repr(c.lift(("W", "Z"))) == repr(c)


@given(field_ratfuncs(), field_ratfuncs())
def test_fraction_ops_match_sympy(a, b):
    for op in (add, sub, mul):
        _check(op, a, b)
    if not b.is_zero():
        _check(truediv, a, b)


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
    ref = _in_field(a.vars, a)
    num, den = ref.numer, ref.denom
    if n < 0:
        num, den = den, num
    ref = fld.new(num ** abs(n), den ** abs(n)) if n else fld.one
    _assert_canonical(a ** n, a.vars, ref)


def test_negative_power_sign():
    f = (1 - Z) ** -1
    assert f.denom_terms() == [({}, -1), ({"Z": 1}, 1)]
    assert repr(f) == "(-1)/(-1 + Z)"
    assert repr((1 - Z) ** -1 + 1) == repr(RatFunc.one() / (1 - Z) + 1)


# -- factor-pool differential tests ----------------------------------------
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
    return _make(names, draw(pool_numerators(names)),
                 draw(pool_denominators(names)))


@st.composite
def cancelling_pairs(draw):
    """a = N/D and b = (p**j * M - N)/D, so that a + b = p**j * M / D."""
    names = draw(st.sampled_from(POOL_NAMES))
    den = draw(pool_denominators(names))
    num = draw(pool_numerators(names))
    p = _pool(names)[draw(pool_index)] ** draw(st.integers(1, 2))
    other = p * draw(pool_numerators(names)) - num
    return _make(names, num, den), _make(names, other, den)


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


@given(pooled(), pooled(), st.sampled_from(POOL_NAMES))
def test_pool_division_matches_sympy(a, b, names):
    # the divisor's numerator shares factors with the dividend's, and it
    # is multiplied by a factor that is new to the registry
    new = _make(names, _field_for(names).ring.gens[0] ** 3 + 5)
    _check(truediv, a * b, b)
    _check(truediv, a, b * new)
    _check(truediv, RatFunc.const(Fraction(-2, 3)), a)
    _check(truediv, a, RatFunc.const(Fraction(-2, 3)))
    names, ref = _sympy_op(mul, a, b)
    _assert_canonical((a * b) ** -2, names, ref ** -2)


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
    _check_diff(_make(names, num, den), name)


def _sympy_subs(a, name, value):
    """a with ``name`` replaced by ``value``, in sympy's field over the
    variables the result still has."""
    names = tuple(sorted((set(a.vars) - {name}) | set(value.vars)))
    fld = _field_for(names)
    gens = dict(zip(names, fld.gens))
    gens[name] = _in_field(names, value)
    fa = _in_field(a.vars, a)

    def evaluate(poly):
        acc = fld.zero
        for monom, coeff in poly.terms():
            term = fld(coeff)
            for v, e in zip(a.vars, monom):
                if e:
                    term *= gens[v] ** e
            acc += term
        return acc

    den = evaluate(fa.denom)
    if not den:
        return None, None
    ref = evaluate(fa.numer) / den
    used = tuple(v for i, v in enumerate(names)
                 if any(m[i] for m in list(ref.numer) + list(ref.denom)))
    if not used:
        return (), ref
    return used, _expected(used, _sympy_terms(names, ref.numer),
                           _sympy_terms(names, ref.denom))


@settings(max_examples=40)
@given(pooled(), st.sampled_from(("x", "y")), st.data())
def test_subs_var_matches_sympy(a, name, data):
    x, y = RatFunc.var("x"), RatFunc.var("y")
    p, q = (_make(("x", "y"), _pool(("x", "y"))[data.draw(pool_index)])
            for _ in range(2))
    value = data.draw(st.sampled_from(
        [RatFunc.const(data.draw(small)), y ** 2, x * RatFunc.var("w"),
         RatFunc.var("z") ** -1, 1 - x, p / q]))
    names, ref = _sympy_subs(a, name, value)
    if names is None:
        with pytest.raises(ZeroDivisionError):
            a.subs_var(name, value)
        return
    result = a.subs_var(name, value)
    if not names:
        assert result.vars == () and result.as_fraction() == \
            Fraction(int(ref.numer.LC), int(ref.denom.LC))
        return
    _assert_canonical(result, names, ref)


@given(pooled(), st.data())
def test_remove_denominator_factor_matches_sympy(a, data):
    names = a.vars
    fld = _field_for(names)
    pool = _pool(names)
    fp = pool[data.draw(pool_index)] ** data.draw(st.integers(1, 2))
    fp *= data.draw(st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(-3)]))
    if data.draw(st.booleans()):
        fp *= pool[data.draw(pool_index)]
    # the former gcd-based definition: divide the denominator by fp over Q
    # as often as it goes
    fa = _in_field(names, a)
    den, k = fa.denom, 0
    while True:
        q, r = divmod(den, fp)
        if r or not q:
            break
        den, k = q, k + 1
    got_k, rest = a.remove_denominator_factor(_make(names, fp))
    assert got_k == k
    _assert_canonical(rest, names, fld.new(fa.numer, den))
    assert rest == a * _make(names, fp) ** k


# -- splitting new denominators against sympy's factor_list ---------------
#
# A fresh registry knows no factor, so its split of a product of pool
# polynomials runs the exact rules (variables, rational roots, degree 1
# with an integer coefficient) and the fallback on what they leave.  Both
# must give sympy's irreducible factors, made primitive with a positive
# leading coefficient, with the same multiplicities and content.

SPLIT_NAMES = ("u", "v", "x", "y", "z")
_split_ring = ring(",".join(SPLIT_NAMES), ZZ, grlex)[0]
_u, _v, _x, _y, _z = _split_ring.gens
SPLIT_POOL = (_x ** 2 - _y ** 2, (_z - 1) ** 4, 2 * _x + 2, _x * _y - _x,
              (_u * _v - 1) * (_u - _v), _z ** 2 + 1, _z ** 4 + 4)


def _factor_multiset(pairs):
    out = {}
    for poly, k in pairs:
        key = tuple(sorted(_integer_poly(SPLIT_NAMES, poly).items()))
        out[key] = out.get(key, 0) + k
    return out


@given(st.lists(st.tuples(st.integers(0, len(SPLIT_POOL) - 1),
                          st.integers(1, 2)), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 6]))
def test_split_matches_factor_list(picks, unit):
    f = _split_ring(unit)
    for i, k in picks:
        f *= SPLIT_POOL[i] ** k
    reg = _Registry(SPLIT_NAMES)
    content, exps = reg.factorize(_integer_poly(SPLIT_NAMES, f))
    ours = {tuple(sorted(p.items())): e
            for p, e in zip(reg.factors, exps) if e}
    want, parts = f.factor_list()
    normal = []
    for poly, k in parts:
        if poly.LC < 0:
            poly, want = -poly, want * (-1) ** k
        normal.append((poly, k))
    assert content == int(want)
    assert ours == _factor_multiset(normal)


@pytest.mark.parametrize("index,fallback", [
    (0, True), (1, False), (2, False), (3, False), (4, True), (5, False),
    (6, True)])
def test_split_rules_settle_what_they_can(monkeypatch, index, fallback):
    # x^2 - y^2, (u*v - 1)(u - v) and z^4 + 4 (reducible, with no rational
    # root) are beyond the rules; the others never reach sympy
    calls = []
    factor = rmx.ratfunc._factor_by_sympy

    def spy(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(rmx.ratfunc, "_factor_by_sympy", spy)
    _Registry(SPLIT_NAMES).factorize(
        _integer_poly(SPLIT_NAMES, SPLIT_POOL[index]))
    assert bool(calls) == fallback


NO_SYMPY_OPS = """
import json, sys
sys.modules["sympy"] = None     # from here on ``import sympy`` raises
from rmx.ratfunc import RatFunc
x, y = RatFunc.var("x"), RatFunc.var("y")
# each denominator factor is inverted on its own: an expanded product of
# them would go to the factoring fallback
a = (x + 2 * y) * (x - y) ** -2 * (x * y - 1) ** -1
b = (3 - x * y) * (x - y) ** -1 * (2 * x + 3 * y) ** -1
c = (y / (x - y)).lift(("x", "y", "z"))
results = [a + b, a - b, a * b, b * a, (a + b) * c - a, c * b - c,
           a.diff("x"), (a * b).diff("y"), c.diff("z"), c.diff("x"),
           a / b, b / (x ** 3 + 5 * y), 1 / c, b ** -2,
           a.subs_var("x", y / (1 - y)), c.subs_var("y", x * y),
           (a + x - a).trim(), a.lift(("w", "x", "y", "z"))]
k, rest = a.remove_denominator_factor(y - x)
print(json.dumps([[list(r.vars), r.to_data()] for r in results + [rest]]
                 + [k]))
"""


def test_fraction_ops_take_no_gcd():
    """Every operation on multivariate fractions runs in an interpreter
    where ``import sympy`` raises: none reaches a sympy gcd, cancel,
    factorization or rational-function arithmetic."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", NO_SYMPY_OPS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    *values, k = json.loads(out.stdout)
    results = [_from_data(data).lift(names) for names, data in values]
    results[18] = (k, results[18])
    x, y = RatFunc.var("x"), RatFunc.var("y")
    a = (x + 2 * y) / ((x - y) ** 2 * (x * y - 1))
    b = (3 - x * y) / ((x - y) * (2 * x + 3 * y))
    assert results[0] - b == a and results[2] / b == a
    assert results[10] * b == a and results[13] * b ** 2 == 1
    assert results[16] == x and results[16].vars == ("x",)
    assert results[18] == (2, a * (y - x) ** 2)


# -- the memo of sums and products ------------------------------------------
#
# ``+`` and ``*`` of values with variables go through a process-wide memo
# keyed by the operands' structural keys; the bare kernels ``_add`` and
# ``_mul`` do not.  Each memoised result must be structurally the kernel's
# result on fresh copies of the operands, and sympy's canonical form.

R = rmx.ratfunc
KERNELS = ((add, R._add), (mul, R._mul))


def _fresh(a, names):
    """A copy of ``a`` over ``names`` whose key was never formed."""
    a = a.lift(names)
    return RatFunc(a.vars, dict(a._num), a._fac)


def _assert_kernel(op, kernel, a, b):
    names = tuple(sorted(set(a.vars) | set(b.vars)))
    ref = kernel(_fresh(a, names), _fresh(b, names))
    got = op(a, b)
    assert got.vars == ref.vars == names
    assert got._num == ref._num and got._fac == ref._fac
    return got


@settings(max_examples=60, deadline=None)
@given(field_ratfuncs(), field_ratfuncs())
def test_memoised_sums_and_products_match_kernels_and_sympy(a, b):
    for op, kernel in KERNELS:
        names, ref = _sympy_op(op, a, b)
        # the first call may compute; the second, and one on equal copies
        # that were never used, must find it
        for x, y in ((a, b), (a, b), (_fresh(a, a.vars), _fresh(b, b.vars))):
            _assert_canonical(_assert_kernel(op, kernel, x, y), names, ref)


def _products(shift):
    x, y, z = (RatFunc.var(v) for v in "xyz")
    return [(x + i) / (y - shift) for i in range(12)] + [z * j for j in (2, 3)]


def _check_all_pairs(values):
    for a in values:
        for b in values:
            for op, kernel in KERNELS:
                _assert_kernel(op, kernel, a, b)


def test_memo_entries_survive_the_death_of_their_callers_values():
    # an entry is found by the keys of its operands, not by the objects:
    # once the values that made it are freed, new values in their place
    # (which may reuse their ids) still get their own results
    _check_all_pairs(_products(1))
    gc.collect()
    _check_all_pairs(_products(2))
    R._forget()
    assert not R._SUMS and not R._PRODUCTS
    gc.collect()
    _check_all_pairs(_products(3))
    _check_all_pairs(_products(1))


def test_equal_copies_hit_the_memo():
    x, y = RatFunc.var("x"), RatFunc.var("y")
    a, b = (x + 1) / (y - 2), (x * y - 3) / (x - y)
    for op, _ in KERNELS:
        op(a, b)
        sizes = len(R._SUMS), len(R._PRODUCTS)
        got = op(_fresh(a, a.vars), _fresh(b, b.vars))
        assert (len(R._SUMS), len(R._PRODUCTS)) == sizes
        assert got is op(a, b)


def _fill(pairs, ops):
    """Run ``ops`` on every pair, checking every 97th result against its
    kernel and every table's size against the bound after each pair; True
    iff some table was emptied on the way."""
    sizes, emptied = [0, 0], False
    for k, (a, b) in enumerate(pairs):
        for op, kernel in ops:
            if k % 97:
                op(a, b)
            else:
                _assert_kernel(op, kernel, a, b)
        now = [len(t) for t in (R._SUMS, R._PRODUCTS)]
        assert max(now) <= R._MEMO_BOUND, now
        emptied = emptied or any(x < y for x, y in zip(now, sizes))
        sizes = now
    return emptied


def test_memo_tables_stay_within_their_bound():
    bound = R._MEMO_BOUND
    z, w = RatFunc.var("Z"), RatFunc.var("W")
    R._forget()
    # more distinct pairs than the bound, each operation once: both tables
    # fill together (``z + i`` adds a constant, which is not memoised)
    assert _fill(((z + i, w) for i in range(bound + 100)), KERNELS)
    # the products alone fill their table, and both are emptied
    R._forget()
    values = [z + i for i in range(isqrt(bound) + 2)]
    assert _fill(((a, b) for a in values for b in values), KERNELS[1:])
    _check_all_pairs(_products(4))


def test_overflow_gate_raises_every_time():
    for _ in range(2):
        with pytest.raises(ValueError):
            Z ** 20000 * Z ** 20000


# -- the bare fraction kernels ----------------------------------------------
#
# ``_add`` and ``_mul_fractions`` walk the two denominator exponent tuples
# once, and ``_add`` and ``expand`` take each factor power from the
# registry's table.  The operands share a denominator D (a sum of two of
# them cancels p**k, equal positive exponents, and leaves trailing zeros
# when p is D's last factor), and others hold a second factor q alone, at
# exponents e, e + 2 and e + 3, so that tuples differ in length, a factor
# sits on one side only, and one example asks for two powers of q.  Each
# kernel runs on fresh copies, so that no memo hit hides its result.

@st.composite
def kernel_operands(draw):
    names = draw(st.sampled_from(POOL_NAMES))
    fld = _field_for(names)
    p, q = (_pool(names)[i] for i in draw(
        st.lists(pool_index, min_size=2, max_size=2, unique=True)))
    k = draw(st.integers(1, 2))
    den = draw(pool_denominators(names)) * p ** k
    num = draw(pool_numerators(names))
    e = draw(st.integers(0, 1))
    return [_make(names, num, den),
            _make(names, p ** k * draw(pool_numerators(names)) - num, den)] + [
        _make(names, _poly(fld, _terms(draw, names, 1)), q ** (e + x))
        for x in (0, 2, 3)]


def _assert_kernel_result(got, names, ref):
    _assert_canonical(got, names, ref)
    assert got._fac is _registry(names).pairs[got._fac]


@settings(max_examples=40, deadline=None)
@given(kernel_operands(), st.sampled_from(("x", "y")))
def test_bare_kernels_match_sympy(values, name):
    for a, b in itertools.combinations(values, 2):
        for op, kernel in KERNELS:
            for x, y in ((a, b), (b, a)):
                names, ref = _sympy_op(op, x, y)
                _assert_kernel_result(
                    kernel(_fresh(x, names), _fresh(y, names)), names, ref)
    for a in values[:3]:
        fld = _field_for(a.vars)
        i = a.vars.index(name)
        _assert_kernel_result(R._diff(_fresh(a, a.vars), i), a.vars,
                              _in_field(a.vars, a).diff(fld.gens[i]))
