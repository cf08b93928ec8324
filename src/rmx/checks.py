"""The check registry and the named checks for the R-matrix identities.

Every check evaluates both sides exactly at finite truncation order and
reports the number of nonzero residual entries with one witness.  ``CHECKS``
maps each name to its check function; the function's keyword signature is
the check's parameter schema.  This module registers the Yang-Baxter
equation, crossing symmetry, unitarity, the normalizer functional equation
and its product chain, the inverse transposed chain identity, and the
correspondence between the additive and multiplicative R-matrix pictures;
importing ``rmx`` also imports ``module_checks``, which registers the rest.
"""

from __future__ import annotations

import functools
import inspect
from fractions import Fraction

from .hseries import HSeries
from .lietype import lie_type_data
from .ratfunc import RatFunc
from .report import CheckReport, timed_report
from .rmatrix import Arg, diag_op, m_diag, rhat_inv, rmatrix, solve_normalizer
from .script import evaluate_sides, parse_script
from .tensorop import TensorOp

__all__ = ["CHECKS", "CHECK_NAMES", "builtin_check", "evaluate",
           "correspondence_check", "prefactored_verdict", "pole_order"]

CHECKS = {}     # check name -> check function


def register(name):
    """Register ``body(family, n, L, **params) -> (verdict, count, witness)``
    as check ``name``; the check function has the body's signature and
    reports the arguments it is passed as its params."""
    def add(body):
        @functools.wraps(body)
        def check(family, n, **kwargs):
            params = {"family": family, "n": n, **kwargs}
            return timed_report(name, params,
                                lambda: body(family, n, **kwargs))
        CHECKS[name] = check
        return body
    return add


def _context(family, n, L, caps_extra=None):
    """(type data, normaliser solved to order L, caps h^L plus
    ``caps_extra``) of a check."""
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L, **(caps_extra or {})}
    return ltd, norm, caps


def _verdict(count: int, witness):
    """(verdict, count, witness) of a residual of ``count`` nonzero
    entries: "pass" iff there are none."""
    return ("pass" if count == 0 else "fail"), count, witness


def _scalar_residual(lhs: HSeries, rhs: HSeries):
    if lhs == rhs:
        return "pass", 0, None
    return "fail", 1, repr(lhs - rhs)


def script_params(script) -> dict:
    """The params of a parsed identity script's report."""
    return {"family": script.family, "n": script.n, "L": script.order,
            "slots": script.slots}


def evaluate(script, name="script") -> CheckReport:
    """Evaluate a parsed identity script to a report."""
    params = script_params(script)

    def run():
        lhs, rhs = evaluate_sides(script)
        return _verdict(*lhs.residual(rhs))

    return timed_report(name, params, run)


# ---------------------------------------------------------- script checks

# name -> (slots, spectral variables, identity); {kappa} is the type's
# crossing shift, which is positive.
_SCRIPT_CHECKS = {
    "ybe_hat": (
        3, "u v", "Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == "
                  "Rhat[2,3](v) * Rhat[1,3](u+v) * Rhat[1,2](u)"),
    "crossing_hat": (
        2, "u", "Rhat[1,2](u) * conjM[1](Rhat[1,2](u+{kappa}h)^t[1]) == 1"),
    "unitarity_hat": (2, "u", "Rhat[1,2](u) * Rhat[2,1](-u) == 1"),
}


def _script_body(slots, spectral, identity):
    def run(family, n, L):
        kappa = lie_type_data(family, n).kappa
        script = parse_script(
            f"type {family} {n}\norder {L}\nslots {slots}\n"
            f"spectral {spectral}\ncheck {identity.format(kappa=kappa)}\n")
        lhs, rhs = evaluate_sides(script)
        return _verdict(*lhs.residual(rhs))
    return run


for _name, _row in _SCRIPT_CHECKS.items():
    register(_name)(_script_body(*_row))


@register("gfunc")
def _check_gfunc(family, n, L):
    # the defining functional equation of the normalizing series, on purpose
    # by subst_mult's Taylor expansion: a route the dilation solve never takes
    ltd, norm, caps = _context(family, n, L)
    g = norm.g1
    lhs = g * g.subst_mult("z", HSeries.exp_shift({"h": -ltd.kappa}, caps))
    rhs = HSeries.one(caps)
    for a in (-1, 1, -ltd.kappa, ltd.kappa):
        rhs = rhs * (1 - HSeries.const(RatFunc.var("z"), caps)
                     * HSeries.exp_shift({"h": Fraction(a)}, caps))
    return _scalar_residual(lhs, rhs.inv())


@register("g_one")
def _check_g_one(family, n, L):
    # e^{(1+2k)h} g1(Z) g1(1/Z) (Z-e^{-h})(Z-e^{-kh})(1/Z-e^{-h})(1/Z-e^{-kh}) = 1
    ltd, norm, caps = _context(family, n, L)
    Z = RatFunc.var("Z")
    g_pos = norm.g1_at(Arg.make(Z), caps)
    g_neg = norm.g1_at(Arg.make(1 / Z), caps)
    lhs = HSeries.exp_shift({"h": 1 + 2 * ltd.kappa}, caps) * g_pos * g_neg
    for mono in (Z, 1 / Z):
        for a in (-1, -ltd.kappa):
            lhs = lhs * (HSeries.const(mono, caps)
                         - HSeries.exp_shift({"h": Fraction(a)}, caps))
    return _scalar_residual(lhs, HSeries.one(caps))


@register("csuni")
def _check_csuni(family, n, L, k=1, c=Fraction(1)):
    # inverse chain * M * transposed shifted inverse chain = M
    ltd, norm, caps = _context(family, n, L)
    m = k + 1
    mslot = m
    u = RatFunc.var("u")
    hc2 = Fraction(c) / 2

    def chain(extra_shift):
        # R(-u+v_k+...)^-1 ... R(-u+v_1+...)^-1 embedded at (i, k+1)
        return TensorOp.chain(ltd.N, m, caps, [
            (rhat_inv(ltd, norm, Arg.make(RatFunc.var(f"v{i}") / u,
                                          {"h": -(hc2 + extra_shift)}), caps),
             (i, mslot))
            for i in range(k, 0, -1)])

    mop = diag_op(ltd.N, caps, m_diag(ltd, caps)).embed((mslot,), m)
    lhs = chain(Fraction(0)) * mop \
        * chain(-ltd.kappa).transpose_slot(mslot, ltd)
    return _verdict(*lhs.residual(mop))


# ------------------------------------------------- prefactor calculus

def pole_order(coeffs, factor: RatFunc) -> int:
    """The largest multiplicity of the polynomial ``factor`` in the
    denominator of any of ``coeffs``."""
    return max((c.remove_denominator_factor(factor)[0] for c in coeffs),
               default=0)


def prefactored_verdict(obj, coeffs, x, y, z, rhs, r_max, r_start=0,
                        power=1):
    """The verdict of ``obj`` (an operator or a state whose coefficients
    are the list ``coeffs``) times (x-y)^(power*r), with y = x*z
    substituted, against ``rhs(r)``, for the least admissible r; the pass
    witness is "r=<r>".

    r is admissible when r_start <= r <= r_max and every coefficient times
    (x-y)^(power*r) is polynomial in x and Laurent in y: its denominator is
    a monomial in y alone.  The power clears x - y from a denominator
    exactly when power*r is at least its multiplicity there, and removes no
    other factor, so the least admissible r is r* = max(r_start,
    ceil(largest multiplicity / power)), or none is, and the verdict is
    "inconclusive".  This is the one shape gate and substitution of both
    prefactored checks: ``correspondence_check`` clears at power 1 and
    ``weak_assoc_chain`` at power 2.
    """
    xv, yv = RatFunc.var(x), RatFunc.var(y)
    r = max(r_start, -(-pole_order(coeffs, xv - yv) // power))
    if r <= r_max:
        f = (xv - yv) ** (power * r)
        if all((c * f).denom_is_monomial_in(y) for c in coeffs):
            verdict, count, witness = _verdict(*obj.scale(f).subs_ring_var(
                y, xv * RatFunc.var(z)).residual(rhs(r)))
            return verdict, count, f"r={r}" if verdict == "pass" else witness
    return "inconclusive", 0, f"no admissible prefactor exponent r <= {r_max}"


def correspondence_check(family, n, alpha, a=2, b=2, l=3, r_start=0,
                         r_max=16) -> CheckReport:
    """Match the multiplicative R-matrix at x*e^{u-v+alpha*h}/y against the
    additive one at -z0-u+v-alpha*h after clearing the (x-y) pole and
    substituting y = x*e^{-z0}, coefficientwise mod the caps."""
    if a < 1 or b < 1 or l < 1:
        raise ValueError("caps and order must be at least 1")
    alpha = Fraction(alpha)
    params = {"family": family, "n": n, "alpha": alpha, "a": a, "b": b,
              "l": l, "r_start": r_start, "r_max": r_max}

    def run():
        ltd, norm, caps = _context(family, n, l, {"u": a, "v": b})
        x, y, z0 = RatFunc.var("x"), RatFunc.var("y"), RatFunc.var("Z0")
        lhs_raw = rmatrix(ltd, norm, Arg.make(
            x / y, {"u": 1, "v": -1, "h": alpha}), caps)

        def rhs(r):
            return rmatrix(ltd, norm, Arg.make(
                1 / z0, {"u": 1, "v": -1, "h": alpha}), caps).scale(
                    x ** r * (1 - z0) ** r)
        return prefactored_verdict(
            lhs_raw, list(lhs_raw.entries.values()),
            "x", "y", "Z0", rhs, r_max, r_start)

    return timed_report("correspondence", params, run)


CHECKS["correspondence"] = correspondence_check


def order_keyword(check) -> str:
    """The keyword under which ``check`` takes its truncation order."""
    return "l" if "l" in inspect.signature(check).parameters else "L"


def builtin_check(name, family, n, L=3, **kwargs) -> CheckReport:
    """Run the registered check ``name`` at order ``L``, passed under the
    check's own order keyword; KeyError for an unknown name, TypeError for
    an argument the check does not take."""
    check = CHECKS[name]
    return check(family, n, **{order_keyword(check): L}, **kwargs)


CHECK_NAMES = tuple(sorted(name for name, fn in CHECKS.items()
                           if fn.__module__ == __name__))
