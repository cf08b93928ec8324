"""Named checks for the vacuum-module operator calculus.

Each check realizes both sides of an operator identity on explicit free
states and reports the exact residual.  The checks are entries of the one
registry ``checks.CHECKS``, and ``module_check`` is ``checks.builtin_check``.
This module registers the lowering operator's normalization, invertibility
and exchange relations, the mixed raising/lowering exchange, the braiding's
shift condition, unitarity and Yang-Baxter property, the hexagon relation
between the braiding and the vertex map, and the weak associativity chain
for the vertex maps under the prefactored substitution.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import (CHECKS, _context, _verdict, builtin_check,
                     prefactored_verdict, register)
from .ratfunc import RatFunc
from .report import CheckReport, timed_report
from .rmatrix import Arg, m_diag, rmatrix
from .states import FreeState, _arg_derivative, arg_diff, arg_h, arg_sum

__all__ = ["module_check", "MODULE_CHECK_NAMES", "weak_assoc_chain"]


def _ring_args(*names):
    return tuple(Arg.make(RatFunc.var(n)) for n in names)


def _word_state(ltd, norm, caps, c, k):
    return FreeState.pure(ltd, norm, caps, c, [
        _ring_args(*(f"V{i}" for i in range(1, k + 1)))])


# ---------------------------------------------------------------- lowering

@register("tminus_vacuum")
def _check_tminus_vacuum(family, n, L, c=Fraction(1)):
    ltd, norm, caps = _context(family, n, L)
    vac = FreeState.vacuum(ltd, norm, caps, c)
    (u,) = _ring_args("U")
    return _verdict(*vac.apply_tminus(1, u).residual(
        vac.with_identity_open()))


@register("roundtrip")
def _check_roundtrip(family, n, L, k=1, c=Fraction(1)):
    ltd, norm, caps = _context(family, n, L)
    (u,) = _ring_args("U")
    w = _word_state(ltd, norm, caps, c, k)
    expected = w.with_identity_open()
    count, witness = 0, None
    # the inverse after the lowering operator, then the reversed order
    lower, inverse = FreeState.apply_tminus, FreeState.apply_tminus_inv
    for first, second in ((lower, inverse), (inverse, lower)):
        st = first(w, 1, u)
        cnt, wit = second(st, 1, u, shared_slot=st.open).residual(expected)
        count, witness = count + cnt, witness or wit
    return _verdict(count, witness)


def _exchange(w, first, second, r_left, r_right):
    """The (count, witness) residual of second(first(w)), times ``r_left``
    on its two new open slots from the left and those slots then swapped,
    against first(second(w)) times ``r_right`` on them from the right."""
    lhs = first(w)
    a = lhs.open
    lhs = second(lhs)
    b = lhs.open
    lhs = lhs.mul_open(r_left, (b, a)).swap_open(a, b)
    rhs = second(w)
    a = rhs.open
    rhs = first(rhs)
    return lhs.residual(rhs.mul_open_right(r_right, (a, rhs.open)))


@register("rtt_minus")
def _check_rtt_minus(family, n, L, k=1, c=Fraction(1)):
    # R(u1-u2) T1(u1) T2(u2) = T2(u2) T1(u1) R(u1-u2) on a k-word state
    ltd, norm, caps = _context(family, n, L)
    u1, u2 = _ring_args("U1", "U2")
    r = rmatrix(ltd, norm, arg_diff(u1, u2), caps)
    return _verdict(*_exchange(_word_state(ltd, norm, caps, c, k),
                               lambda st: st.apply_tminus(1, u2),
                               lambda st: st.apply_tminus(1, u1), r, r))


@register("rel_minus")
def _check_rel_minus(family, n, L, k=1, c=Fraction(1)):
    # T(u) M T(u + kappa h)^t M^{-1} = 1 on a k-word state
    ltd, norm, caps = _context(family, n, L)
    (u,) = _ring_args("U")
    md = m_diag(ltd, caps)
    w = _word_state(ltd, norm, caps, c, k)
    st = w.apply_tminus(1, arg_h(u, ltd.kappa))
    nu = st.open
    st = st._map_coeff(
        lambda K: K.transpose_slot(nu, ltd).conj_diag(md, nu, 1))
    st = st.apply_tminus(1, u, shared_slot=nu)
    return _verdict(*st.residual(w.with_identity_open()))


@register("mixed")
def _check_mixed(family, n, L, k=1, c=Fraction(1)):
    # R(-v+u-hc/2) T1+(u) T2-(v) = T2-(v) T1+(u) R(-v+u+hc/2)
    ltd, norm, caps = _context(family, n, L)
    u, v = _ring_args("U", "Vm")
    d = arg_diff(u, v)
    return _verdict(*_exchange(
        _word_state(ltd, norm, caps, c, k),
        lambda st: st.apply_tminus(1, v), lambda st: st.apply_tplus(1, u),
        rmatrix(ltd, norm, arg_h(d, -Fraction(c) / 2), caps),
        rmatrix(ltd, norm, arg_h(d, Fraction(c) / 2), caps)))


# ---------------------------------------------------------------- braiding

def _letters(ltd, norm, caps, c, *names):
    """The pure state with one one-letter word per ring-variable name."""
    return FreeState.pure(ltd, norm, caps, c,
                          [[a] for a in _ring_args(*names)])


def _canonicalized_residual(lhs: FreeState, rhs: FreeState):
    raw, _ = lhs.residual(rhs)
    count, witness = lhs.canonicalize().residual(rhs.canonicalize()) \
        if raw else (0, None)
    return _verdict(count, witness if count else f"raw={raw}")


@register("s_unitarity")
def _check_s_unitarity(family, n, L, c=Fraction(1)):
    ltd, norm, caps = _context(family, n, L)
    (z,) = _ring_args("Zs")
    two = _letters(ltd, norm, caps, c, "X", "Y")
    out = two.braiding_s(2, 1, z.neg()).braiding_s(1, 2, z)
    return _canonicalized_residual(out, two)


@register("s_ybe")
def _check_s_ybe(family, n, L, c=Fraction(1)):
    """S23(z2) S13(z1+z2) S12(z1) = S12(z1) S13(z1+z2) S23(z2) on three
    one-word factors.

    Known blind spot: an error in the middle braiding's argument that both
    sides share goes unseen.  With S13 at z1+z2+h on both sides the residual
    is 0 at C1, L=2 and L=3; shifting one side only leaves 144 residual
    entries at L=3.  Why the relation holds for a shared shifted argument
    is not established.
    """
    ltd, norm, caps = _context(family, n, L)
    z1, z2 = _ring_args("Za", "Zb")
    z12 = arg_sum(z1, z2)
    three = _letters(ltd, norm, caps, c, "X", "Y", "Ww")
    lhs = three.braiding_s(2, 3, z2).braiding_s(1, 3, z12) \
               .braiding_s(1, 2, z1)
    rhs = three.braiding_s(1, 2, z1).braiding_s(1, 3, z12) \
               .braiding_s(2, 3, z2)
    return _canonicalized_residual(lhs, rhs)


@register("s_shift")
def _check_s_shift(family, n, L, c=Fraction(1)):
    # the braiding coefficient commutes with translation: the sum of the
    # derivatives in the first factor's arguments equals the derivative in
    # the braiding argument (all additive: d/da = -Z d/dZ on images)
    ltd, norm, caps = _context(family, n, L)
    x, z = _ring_args("X", "Zs")
    s = _letters(ltd, norm, caps, c, "X", "Y").braiding_s(1, 2, z)
    count, witness = 0, None
    for t in s.terms:
        diff = _arg_derivative(t.coeff, x) - _arg_derivative(t.coeff, z)
        count += diff.nonzero_count()
        witness = witness or diff.witness()
    return _verdict(count, witness)


@register("hexagon")
def _check_hexagon(family, n, L, c=Fraction(1)):
    # S(z1)(Y(z2) x 1) = (Y(z2) x 1) S_{23}(z1) S_{13}(z1+z2)
    ltd, norm, caps = _context(family, n, L)
    z1, z2 = _ring_args("Za", "Zb")
    three = _letters(ltd, norm, caps, c, "X", "Y", "Ww")
    lhs = three.merge_y(1, 2, z2).braiding_s(1, 2, z1)
    rhs = three.braiding_s(1, 3, arg_sum(z1, z2)).braiding_s(2, 3, z1) \
               .merge_y(1, 2, z2)
    return _canonicalized_residual(lhs, rhs)


# ------------------------------------------------- weak associativity

def _weak_assoc_reordered(three, xu, yv, shift):
    """The direct composition of the two vertex maps on ``three`` reordered
    through the exchange relations, for the outer arguments ``xu`` and
    ``yv``: the crossing-type conjugated transposed chain, its factor at
    (yv - xu) e^(shift h), combined by the ordered slot product with the
    interleaved raising/inverse-lowering chain times the trailing exchange
    matrix."""
    ltd, norm, caps, c = three.ltd, three.norm, three.caps, three.c
    st = three.apply_tminus_inv(3, arg_h(xu, c / 2))
    nu_u = st.open
    st = st.apply_tminus_inv(3, arg_h(yv, c / 2))
    nu_v = st.open
    st = st.apply_tplus(3, yv, shared_slot=nu_v)
    st = st.apply_tplus(3, xu, shared_slot=nu_u)
    st = st.mul_open_right(rmatrix(ltd, norm, arg_diff(yv, xu), caps),
                           (nu_v, nu_u))
    amat = st._crossing_chain(
        (1,), [(arg_h(arg_diff(yv, xu), shift), (1, 2))], 2)
    st = st.odot_open(amat, (nu_v, nu_u), (nu_v,))
    return st._contract_pairs(
        [(nu_u, st._sym_slots(1)[0]), (nu_v, st._sym_slots(2)[0])],
        drop_factors=(1, 2))


def _weak_assoc_run(family, n, L, c, cap_uv, r_max):
    ltd, norm, caps = _context(family, n, L, {"u": cap_uv, "v": cap_uv})
    c = Fraction(c)
    uarg = Arg.make(1, {"u": -1})
    varg = Arg.make(1, {"v": -1})
    z1, z2, z0 = _ring_args("Z1", "Z2", "Z0")
    three = FreeState.pure(ltd, norm, caps, c, [[uarg], [varg], []])

    # direct composition of the two vertex maps
    direct = three.merge_y(2, 3, z2).merge_y(1, 2, z1)

    # the same expression reordered through the exchange relations
    reordered = _weak_assoc_reordered(three, arg_sum(z1, uarg),
                                      arg_sum(z2, varg), -(c + ltd.kappa))
    rcount, rwit = reordered.residual(direct)
    if rcount:
        return "fail", rcount, ("reordered expression differs: "
                                f"{rwit}")

    # composition through the intermediate vertex map
    composed = three.merge_y(1, 2, z0).merge_y(1, 2, z2)

    def rhs(r):
        return composed.scale(z2.mono ** (2 * r) * (z0.mono - 1) ** (2 * r))
    # (Z2 - Z1)^(2r) = (Z1 - Z2)^(2r) clears the pole along Z1 = Z2
    return prefactored_verdict(
        direct, [k for t in direct.terms for k in t.coeff.entries.values()],
        "Z2", "Z1", "Z0", rhs, r_max, power=2)


def weak_assoc_chain(family, n, L=2, c=Fraction(0), cap_uv=2,
                     r_max=16) -> CheckReport:
    """Compare the direct composition of two vertex maps with the
    composition through the intermediate map after clearing the pole in
    the difference of the two outer arguments and substituting their
    ratio, coefficientwise mod the caps; the reordered exchange-relation
    form of the direct side is verified along the way.

    The pole is cleared by ``checks.prefactored_verdict``, the route of the
    correspondence check too, at (Z1 - Z2)^(2r) with Z1 = Z2*Z0: it takes
    the least r whose cleared coefficients all have a denominator that is a
    monomial in Z1 alone, and the verdict is "inconclusive" when no r <=
    ``r_max`` does."""
    params = {"family": family, "n": n, "L": L, "c": Fraction(c),
              "cap_uv": cap_uv, "r_max": r_max}
    return timed_report("weak_assoc_chain", params,
                        lambda: _weak_assoc_run(family, n, L, Fraction(c),
                                                cap_uv, r_max))


CHECKS["weak_assoc_chain"] = weak_assoc_chain

module_check = builtin_check

MODULE_CHECK_NAMES = tuple(sorted(name for name, fn in CHECKS.items()
                                  if fn.__module__ == __name__))
