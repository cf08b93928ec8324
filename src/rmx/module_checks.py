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

from .checks import CHECKS, _verdict, builtin_check, pole_order, register
from .lietype import lie_type_data
from .ratfunc import RatFunc
from .report import CheckReport, timed_report
from .rmatrix import Arg, m_diag, rmatrix, solve_normalizer
from .states import FreeState, Term, arg_diff, arg_h, arg_sum

__all__ = ["module_check", "MODULE_CHECK_NAMES", "weak_assoc_chain"]


def _context(family, n, L, caps_extra=None):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L, **(caps_extra or {})}
    return ltd, norm, caps


def _ring_args(*names):
    return tuple(Arg.make(RatFunc.var(n)) for n in names)


def _word_state(ltd, norm, caps, c, k):
    return FreeState.pure(ltd, norm, caps, c,
                          [[Arg.make(RatFunc.var(f"V{i}"))
                            for i in range(1, k + 1)]])


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
    st = w.apply_tminus(1, u)
    st = st.apply_tminus_inv(1, u, shared_slot=st.open)
    count, witness = st.residual(expected)
    # reversed composition
    st = w.apply_tminus_inv(1, u)
    st = st.apply_tminus(1, u, shared_slot=st.open)
    cnt, wit = st.residual(expected)
    return _verdict(count + cnt, witness or wit)


@register("rtt_minus")
def _check_rtt_minus(family, n, L, k=1, c=Fraction(1)):
    # R(u1-u2) T1(u1) T2(u2) = T2(u2) T1(u1) R(u1-u2) on a k-word state
    ltd, norm, caps = _context(family, n, L)
    u1, u2 = _ring_args("U1", "U2")
    w = _word_state(ltd, norm, caps, c, k)
    r = rmatrix(ltd, norm, arg_diff(u1, u2), caps)
    lhs = w.apply_tminus(1, u2)
    a = lhs.open
    lhs = lhs.apply_tminus(1, u1)
    b = lhs.open
    lhs = lhs.mul_open(r, (b, a)).swap_open(a, b)
    rhs = w.apply_tminus(1, u1)
    a2 = rhs.open
    rhs = rhs.apply_tminus(1, u2)
    b2 = rhs.open
    rhs = rhs.mul_open_right(r, (a2, b2))
    return _verdict(*lhs.residual(rhs))


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
    w = _word_state(ltd, norm, caps, c, k)
    lhs = w.apply_tminus(1, v)
    a = lhs.open
    lhs = lhs.apply_tplus(1, u)
    b = lhs.open
    lhs = lhs.mul_open(
        rmatrix(ltd, norm, arg_h(arg_diff(u, v), -Fraction(c) / 2), caps),
        (b, a)).swap_open(a, b)
    rhs = w.apply_tplus(1, u)
    a2 = rhs.open
    rhs = rhs.apply_tminus(1, v)
    b2 = rhs.open
    rhs = rhs.mul_open_right(
        rmatrix(ltd, norm, arg_h(arg_diff(u, v), Fraction(c) / 2), caps),
        (a2, b2))
    return _verdict(*lhs.residual(rhs))


# ---------------------------------------------------------------- braiding

def _two_words(ltd, norm, caps, c):
    x, y = _ring_args("X", "Y")
    return FreeState.pure(ltd, norm, caps, c, [[x], [y]])


def _canonicalized_residual(lhs: FreeState, rhs: FreeState):
    raw, _ = lhs.residual(rhs)
    count, witness = lhs.canonicalize().residual(rhs.canonicalize()) \
        if raw else (0, None)
    return _verdict(count, witness if count else f"raw={raw}")


@register("s_unitarity")
def _check_s_unitarity(family, n, L, c=Fraction(1)):
    ltd, norm, caps = _context(family, n, L)
    (z,) = _ring_args("Zs")
    two = _two_words(ltd, norm, caps, c)
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
    x, y, w = _ring_args("X", "Y", "Ww")
    z1, z2 = _ring_args("Za", "Zb")
    z12 = arg_sum(z1, z2)
    three = FreeState.pure(ltd, norm, caps, c, [[x], [y], [w]])
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
    (z,) = _ring_args("Zs")
    two = _two_words(ltd, norm, caps, c)
    s = two.braiding_s(1, 2, z)
    xv, zv = RatFunc.var("X"), RatFunc.var("Zs")
    count = 0
    witness = None
    for t in s.terms:
        du = t.coeff.map_entries(
            lambda hs: hs.diff_ring_var("X").map_coeffs(lambda q: -(q * xv)))
        dz = t.coeff.map_entries(
            lambda hs: hs.diff_ring_var("Zs").map_coeffs(lambda q: -(q * zv)))
        diff = du - dz
        cnt = diff.nonzero_count()
        count += cnt
        if cnt and witness is None:
            witness = diff.witness()
    return _verdict(count, witness)


@register("hexagon")
def _check_hexagon(family, n, L, c=Fraction(1)):
    # S(z1)(Y(z2) x 1) = (Y(z2) x 1) S_{23}(z1) S_{13}(z1+z2)
    ltd, norm, caps = _context(family, n, L)
    x, y, w = _ring_args("X", "Y", "Ww")
    z1, z2 = _ring_args("Za", "Zb")
    three = FreeState.pure(ltd, norm, caps, c, [[x], [y], [w]])
    lhs = three.merge_y(1, 2, z2).braiding_s(1, 2, z1)
    rhs = three.braiding_s(1, 3, arg_sum(z1, z2)).braiding_s(2, 3, z1) \
               .merge_y(1, 2, z2)
    return _canonicalized_residual(lhs, rhs)


# ------------------------------------------------- weak associativity

def _clearing_exponent(coeffs: list, factor: RatFunc, r_max: int):
    """The least r <= r_max such that every coefficient times factor^(2r)
    has a monomial denominator, or None.

    factor^(2r) clears a pole of order k exactly when 2r >= k, and it
    removes no other factor, so r* = ceil(k/2) for the largest order k is
    admissible or none is.
    """
    r = -(-pole_order(coeffs, factor) // 2)
    if r > r_max:
        return None
    f = factor ** (2 * r)
    return r if all((c * f).denom_is_monomial() for c in coeffs) else None


def _weak_assoc_run(family, n, L, c, cap_uv, r_max):
    ltd, norm, caps = _context(family, n, L, {"u": cap_uv, "v": cap_uv})
    c = Fraction(c)
    uarg = Arg.make(1, {"u": -1})
    varg = Arg.make(1, {"v": -1})
    z1, z2, z0 = _ring_args("Z1", "Z2", "Z0")
    three = FreeState.pure(ltd, norm, caps, c, [[uarg], [varg], []])

    # direct composition of the two vertex maps
    direct = three.merge_y(2, 3, z2).merge_y(1, 2, z1)

    # the same expression reordered through the exchange relations: the
    # crossing-type conjugated transposed chain combined by the ordered slot
    # product with the interleaved raising/inverse-lowering chain times the
    # trailing exchange matrix
    xu = arg_sum(z1, uarg)
    yv = arg_sum(z2, varg)
    st = three.apply_tminus_inv(3, arg_h(xu, c / 2))
    nu_u = st.open
    st = st.apply_tminus_inv(3, arg_h(yv, c / 2))
    nu_v = st.open
    st = st.apply_tplus(3, yv, shared_slot=nu_v)
    st = st.apply_tplus(3, xu, shared_slot=nu_u)
    st = st.mul_open_right(rmatrix(ltd, norm, arg_diff(yv, xu), caps),
                           (nu_v, nu_u))
    # M^{-1} before the transposed factor and M after it, the crossing
    # convention of the states module
    amat = rmatrix(ltd, norm, arg_h(arg_diff(yv, xu), -(c + ltd.kappa)),
                   caps).transpose_slot(1, ltd) \
        .conj_diag(m_diag(ltd, caps), 1, -1)
    st = st.odot_open(amat, (nu_v, nu_u), (nu_v,))
    reordered = st._contract_pairs(
        [(nu_u, st._sym_slots(1)[0]), (nu_v, st._sym_slots(2)[0])],
        drop_factors=(1, 2))
    rcount, rwit = reordered.residual(direct)
    if rcount:
        return "fail", rcount, ("reordered expression differs: "
                                f"{rwit}")

    # composition through the intermediate vertex map
    composed = three.merge_y(1, 2, z0).merge_y(1, 2, z2)

    z1v, z2v, z0v = (RatFunc.var(nn) for nn in ("Z1", "Z2", "Z0"))

    r = _clearing_exponent([c for t in direct.terms
                            for s in t.coeff.entries.values()
                            for c in s.terms.values()], z1v - z2v, r_max)
    if r is None:
        return ("inconclusive", 0,
                f"no admissible prefactor exponent r <= {r_max}")

    f = (z1v - z2v) ** (2 * r)
    cleared = direct.map_entries(lambda s: (s * f).subs_ring_var(
        "Z1", z2v * z0v))
    sub_terms = []
    for t in cleared.terms:
        words = tuple(tuple((Arg.make(a.mono.subs_var("Z1", z2v * z0v),
                                      a.shift_dict()), d)
                            for a, d in w) for w in t.words)
        sub_terms.append(Term(t.coeff, words))
    substituted = cleared._replace(sub_terms)
    scaled = composed.map_entries(
        lambda s: s * (z2v ** (2 * r) * (z0v - 1) ** (2 * r)))
    verdict, count, witness = _verdict(*substituted.residual(scaled))
    if verdict == "pass":
        witness = f"r={r}"
    return verdict, count, witness


def weak_assoc_chain(family, n, L=2, c=Fraction(0), cap_uv=2,
                     r_max=16) -> CheckReport:
    """Compare the direct composition of two vertex maps with the
    composition through the intermediate map after clearing the pole in
    the difference of the two outer arguments and substituting their
    ratio, coefficientwise mod the caps; the reordered exchange-relation
    form of the direct side is verified along the way."""
    params = {"family": family, "n": n, "L": L, "c": Fraction(c),
              "cap_uv": cap_uv, "r_max": r_max}
    return timed_report("weak_assoc_chain", params,
                        lambda: _weak_assoc_run(family, n, L, Fraction(c),
                                                cap_uv, r_max))


CHECKS["weak_assoc_chain"] = weak_assoc_chain

module_check = builtin_check

MODULE_CHECK_NAMES = tuple(sorted(name for name, fn in CHECKS.items()
                                  if fn.__module__ == __name__))
