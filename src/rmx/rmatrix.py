"""Constant operators, normalizing series and R-matrices of types B, C, D.

Everything is computed in exponential coordinates: an additive spectral
argument a enters through its multiplicative image x = e^{-a}, which is a
monomial in ring variables Z_i = e^{-u_i} times exp of a linear form in the
capped formal variables (h included).  The normalizing series g1 solves

    g1(z, h) * g1(z*e^{-kappa*h}, h)
        = 1 / ((1 - z*e^{-h})(1 - z*e^{h})(1 - z*e^{-kappa*h})(1 - z*e^{kappa*h}))

order by order in h; each h-order is rational in z with denominator a power
of (1 - z).

The R-matrix is R(x) = e^{(1+2kappa)h/2} g1(x) R+(x), where

    R+(x) = q^{-1}(x-1)(x-xi) Rconst - (q^{-2}-1)(x-xi) P + xi(q^{-2}-1)(x-1) Q

combines three constant operators with three scalar series.  A template,
cached per type and cap set, holds the prefactor, xi = e^{-kappa h}, q^{-1}
and q^{-2}-1, and groups the entries of R+ by their exact coefficient
triple in (Rconst, P, Q).  A build forms s = prefactor * g1(x), the three
scalar series times s, and one combination per group, which every entry of
the group shares; R+ itself is the same build with s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hseries import Caps, HSeries
from .lietype import LieTypeData, lie_type_data
from .ratfunc import RatFunc
from .tensorop import TensorOp

__all__ = ["Arg", "build_constant_ops", "rplus", "solve_normalizer",
           "Normalizer", "rmatrix", "rhat", "rhat_inv", "m_diag",
           "diag_op", "NormalizerError"]


class NormalizerError(RuntimeError):
    """Rational and series solutions of the functional equation disagree."""


@dataclass(frozen=True)
class Arg:
    """Multiplicative spectral argument x = mono * exp(sum coeff*var).

    ``mono`` is a RatFunc monomial (possibly with negative exponents) in the
    ring variables; ``shift`` maps capped-variable names to rational
    coefficients of the exponent.  The additive argument a corresponds to
    x = e^{-a}, so negation of a inverts mono and flips the shift.
    """

    mono: RatFunc
    shift: tuple = ()       # sorted tuple of (name, Fraction) pairs

    @staticmethod
    def make(mono, shift=None) -> "Arg":
        if isinstance(mono, str):
            mono = RatFunc.var(mono)
        if isinstance(mono, (int, Fraction)):
            mono = RatFunc.const(mono)
        items = tuple(sorted((n, Fraction(c)) for n, c in (shift or {}).items()
                             if Fraction(c) != 0))
        return Arg(mono, items)

    def shift_dict(self) -> dict:
        return dict(self.shift)

    def neg(self) -> "Arg":
        return Arg(RatFunc.one() / self.mono,
                   tuple((n, -c) for n, c in self.shift))

    def plus(self, extra: dict) -> "Arg":
        d = self.shift_dict()
        for n, c in extra.items():
            d[n] = d.get(n, Fraction(0)) + Fraction(c)
        return Arg.make(self.mono, d)

    def exp_factor(self, caps: dict) -> HSeries:
        return HSeries.exp_shift(self.shift_dict(), caps)

    def to_hseries(self, caps: dict) -> HSeries:
        return HSeries.const(self.mono, caps) * self.exp_factor(caps)


def _q(caps, power=Fraction(1)):
    # q = e^{h/2}
    return HSeries.exp_shift({"h": Fraction(power) / 2}, caps)


def build_constant_ops(ltd: LieTypeData, caps: dict) -> dict:
    """The operators P, Q, Rconst and the diagonal matrix M = diag(e^{bar_i h/2})."""
    N = ltd.N
    one = HSeries.one(caps)
    q = _q(caps)
    qinv = _q(caps, -1)
    qmqinv = q - qinv

    p_entries = {}
    q_entries = {}
    r_entries = {}
    for i in range(N):
        for j in range(N):
            p_entries[((i, j), (j, i))] = one
            coeff = HSeries.exp_shift(
                {"h": (ltd.bar[i] - ltd.bar[j]) / 2}, caps) * (ltd.eps[i] * ltd.eps[j])
            q_entries[((ltd.iprime(i), i), (ltd.iprime(j), j))] = coeff

    def add_r(row, col, val):
        key = (row, col)
        r_entries[key] = r_entries[key] + val if key in r_entries else val

    for i in range(N):
        if i != ltd.iprime(i):
            add_r((i, i), (i, i), q)
            ip = ltd.iprime(i)
            add_r((i, ip), (i, ip), qinv)
        else:
            # middle index of an odd-size type B matrix
            add_r((i, i), (i, i), one)
        for j in range(N):
            if j != i and j != ltd.iprime(i):
                add_r((i, j), (i, j), one)
    for i in range(N):
        for j in range(N):
            if i < j:
                add_r((i, j), (j, i), qmqinv)
            elif i > j:
                coeff = HSeries.exp_shift(
                    {"h": (ltd.bar[i] - ltd.bar[j]) / 2}, caps) \
                    * (-ltd.eps[i] * ltd.eps[j])
                add_r((ltd.iprime(i), i), (ltd.iprime(j), j), qmqinv * coeff)

    return {
        "P": TensorOp(N, 2, caps, p_entries),
        "Q": TensorOp(N, 2, caps, q_entries),
        "Rconst": TensorOp(N, 2, caps, r_entries),
        "M": m_diag(ltd, caps),
    }


def m_diag(ltd: LieTypeData, caps: dict) -> list:
    return [HSeries.exp_shift({"h": ltd.bar[i] / 2}, caps) for i in range(ltd.N)]


def diag_op(N: int, caps: dict, diag) -> TensorOp:
    """The single-slot diagonal operator with the given entries, such as
    M = diag_op(ltd.N, caps, m_diag(ltd, caps))."""
    return TensorOp(N, 1, caps, {((i,), (i,)): diag[i] for i in range(N)})


@dataclass(frozen=True)
class _Template:
    """What every R-matrix of one type and cap set shares.

    ``groups`` pairs each distinct exact triple of coefficients of R+'s
    constant operators (Rconst, P, Q), an absent one counted as zero, with
    the keys that carry it.
    """

    N: int
    prefactor: HSeries      # e^{(1+2kappa)h/2}
    xi: HSeries             # e^{-kappa h}
    qinv: HSeries
    qinv2m1: HSeries        # q^{-2} - 1
    xi_qinv2m1: HSeries     # xi (q^{-2} - 1)
    groups: tuple           # (((rconst, p, q), keys), ...)


@lru_cache(maxsize=None)
def _template(ltd: LieTypeData, caps: Caps) -> _Template:
    ops = build_constant_ops(ltd, caps)
    zero = HSeries.zero(caps)
    groups = {}
    for key in {**ops["Rconst"].entries, **ops["P"].entries,
                **ops["Q"].entries}:
        coeffs = tuple(ops[name].entries.get(key, zero)
                       for name in ("Rconst", "P", "Q"))
        exact = tuple(frozenset(c.terms.items()) for c in coeffs)
        groups.setdefault(exact, (coeffs, []))[1].append(key)
    xi = HSeries.exp_shift({"h": -ltd.kappa}, caps)
    qinv2m1 = _q(caps, -2) - 1
    return _Template(
        ltd.N, HSeries.exp_shift({"h": Fraction(1, 2) + ltd.kappa}, caps),
        xi, _q(caps, -1), qinv2m1, xi * qinv2m1,
        tuple((coeffs, tuple(keys)) for coeffs, keys in groups.values()))


def _scaled_rplus(t: _Template, x: HSeries, s: HSeries) -> TensorOp:
    """s * R+(x): three scalar series, then one combination per group of
    keys, shared by every key of the group."""
    xm1 = x - 1
    s_xmxi = s * (x - t.xi)
    a = s_xmxi * xm1 * t.qinv
    b = s_xmxi * t.qinv2m1
    c = s * xm1 * t.xi_qinv2m1
    entries = {}
    for (rc, pc, qc), keys in t.groups:
        val = rc * a - pc * b + qc * c
        for key in keys:
            entries[key] = val
    return TensorOp(t.N, 2, s.caps, entries)


def rplus(ltd: LieTypeData, x: HSeries, caps: dict) -> TensorOp:
    """R+(x, q) = q^{-1}(x-1)(x-xi)R - (q^{-2}-1)(x-xi)P + xi(q^{-2}-1)(x-1)Q."""
    return _scaled_rplus(_template(ltd, Caps.of(caps)), x, HSeries.one(caps))


@dataclass(frozen=True)
class Normalizer:
    ltd: LieTypeData
    L: int
    g1: HSeries            # rational per h-order, ring variable "z"
    parts: tuple           # ((l, p_l: RatFunc, r_l: int), ...)
    oracle_degree: int

    def g1_at(self, arg: Arg, caps: dict) -> HSeries:
        """Evaluate g1 at a multiplicative argument, exactly."""
        if caps.get("h", 0) > self.L:
            raise ValueError(f"normalizer solved to order {self.L} only")
        mono = arg.mono
        if (1 - mono).is_zero():
            raise ZeroDivisionError(
                "R-matrix pole: argument equals 1 at order zero")
        g = self.g1._remap(caps)
        f = arg.exp_factor(caps)
        if not f.is_one():
            g = g.subst_mult("z", f)
        return g.subs_ring_var("z", mono)


def _rhs_product(kappa, caps, zval):
    """(1 - z e^{-h})(1 - z e^{h})(1 - z e^{-kh})(1 - z e^{kh}) for given z."""
    out = HSeries.one(caps)
    for a in (-1, 1, -kappa, kappa):
        out = out * (1 - zval * HSeries.exp_shift({"h": Fraction(a)}, caps))
    return out


def solve_normalizer(ltd: LieTypeData, L: int = 4, z_degree_oracle: int = 10) -> Normalizer:
    if L < 1:
        raise ValueError("order cap must be at least 1")
    if z_degree_oracle < 1:
        # below 1 the oracle keeps at most the z^0 terms, which the at-0
        # check already covers
        raise ValueError("series oracle degree must be at least 1")
    return _solve_normalizer_cached(ltd, L, z_degree_oracle)


@lru_cache(maxsize=None)
def _solve_normalizer_cached(ltd, L, dz) -> Normalizer:
    kappa = ltd.kappa
    caps = {"h": L}
    z = RatFunc.var("z")
    zs = HSeries.const(z, caps)
    rhs = _rhs_product(kappa, caps, zs).inv()
    c0 = 1 / ((1 - z) ** 2)
    g = HSeries.const(c0, caps)
    shift = HSeries.exp_shift({"h": -kappa}, caps)
    hpow = HSeries.one(caps)
    hvar = HSeries.capped_var("h", caps)
    for l in range(1, L):
        hpow = hpow * hvar
        res = (rhs - g * g.subst_mult("z", shift)).coeff({"h": l})
        cl = res / (2 * c0)
        g = g + hpow * cl
    residual = rhs - g * g.subst_mult("z", shift)
    if not residual.is_zero():
        raise NormalizerError(
            f"functional equation residual does not vanish: {residual}")

    parts = []
    for l in range(L):
        cl = g.coeff({"h": l})
        if cl.is_zero():
            parts.append((l, RatFunc.zero(), 0))
            continue
        rl, rest = cl.remove_denominator_factor(1 - RatFunc.var("z"))
        if not rest.denom_is_monomial() or rest.denom_monomial_exponent("z") != 0:
            raise NormalizerError(
                f"h^{l} coefficient denominator is not a power of (1-z): {cl}")
        parts.append((l, rest, rl))
        # constant term 1 at z = 0 (at l = 0), 0 at higher orders
        at0 = cl.subs_var("z", RatFunc.zero())
        if at0 != (1 if l == 0 else 0):
            raise NormalizerError(
                f"h^{l} coefficient is {at0} at z = 0, "
                f"expected {1 if l == 0 else 0}")

    series = _series_oracle(kappa, L, dz)
    rational_expanded = _expand_in_z(g, L, dz)
    if not (series - rational_expanded).is_zero():
        raise NormalizerError(
            "series oracle disagrees with the rational solution")
    return Normalizer(ltd, L, g, tuple(parts), dz)


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


def _expand_in_z(g: HSeries, L: int, dz: int) -> HSeries:
    """Re-expand the rational solution as a capped z-series (oracle comparison)."""
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


def _den_power(cl: RatFunc) -> int:
    r, rest = cl.remove_denominator_factor(1 - RatFunc.var("z"))
    return r


def _poly_to_capped(p: RatFunc, caps) -> HSeries:
    """A polynomial (or Laurent-free rational constant-denominator) in z,
    re-read with z as a capped variable."""
    zc = HSeries.capped_var("z", caps)
    out = HSeries.zero(caps)
    terms = p.numer_terms()
    den = p.denom_terms()
    if len(den) != 1 or den[0][0]:
        raise NormalizerError(f"expected a polynomial in z, got {p}")
    dc = den[0][1]
    for md, coeff in terms:
        extra = {k: v for k, v in md.items() if k != "z"}
        if extra:
            raise NormalizerError(f"unexpected variables {extra} in {p}")
        out = out + zc ** md.get("z", 0) * (coeff / dc)
    return out


def rmatrix(ltd: LieTypeData, norm: Normalizer, arg: Arg, caps: dict) -> TensorOp:
    """e^{(1+2kappa)h/2} * g1(x) * R+(x, e^{h/2}) at x = the given argument."""
    t = _template(ltd, Caps.of(caps))
    return _scaled_rplus(t, arg.to_hseries(caps),
                         t.prefactor * norm.g1_at(arg, caps))


# The same object serves both coordinate pictures: additive arguments are
# passed through their exponential image, multiplicative ones directly.
rhat = rmatrix


def rhat_inv(ltd: LieTypeData, norm: Normalizer, arg: Arg, caps: dict) -> TensorOp:
    """Inverse through unitarity: P * R(-a) * P, that is R(-a) with its two
    slots exchanged."""
    return rmatrix(ltd, norm, arg.neg(), caps).swap_slots(1, 2)
