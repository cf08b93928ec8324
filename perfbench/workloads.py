"""Workloads of the rmx benchmark: fixed lists of check configurations.

A workload is a list of entries.  Each entry is one call through the public
rmx API and carries the answer it must give.  ``build(workload, seed)`` makes
the list; the seed picks the level c, the correspondence shifts and each
negative control's perturbation from small fixed sets, so the same seed
always gives the same inputs.  The choices within each set cost about the
same, so a run's timings depend on the program, not on the seed.

Identity checks must pass with zero residuals whatever the seed; the
mathematics fixes that.  Negative controls must fail with a nonzero count and
a witness.  For ``DEFAULT_SEED`` the full report (verdict, residual count and
witness) of every entry is pinned in ``PINNED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

# Each set lists the default choice first.
LEVELS = (Fraction(1), Fraction(2))
ALPHA_PAIRS = ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(1), Fraction(-1)))
YBE_PERTURBATIONS = ("u-v", "u+2v", "2u+v")
CROSSING_PERTURBATIONS = (Fraction(1), Fraction(-1), Fraction(3))
ROUNDTRIP_PERTURBATIONS = (Fraction(1), Fraction(-1), Fraction(1, 2))

WORKLOADS = ("rmatrix_suite", "module_suite", "deep_series")


@dataclass(frozen=True)
class Entry:
    """One check configuration: ``call`` names the API path, ``kwargs`` its
    arguments, ``identity`` whether it must pass (else it must fail)."""
    metric: str
    call: str
    kwargs: dict = field(default_factory=dict)
    identity: bool = True


@dataclass(frozen=True)
class Choices:
    level: Fraction
    alphas: tuple
    ybe: str
    crossing: Fraction
    roundtrip: Fraction


def choices(seed: int) -> Choices:
    """The seed's pick from each set; the first of each for DEFAULT_SEED."""
    rng = random.Random(seed)

    def pick(options):
        return options[0] if seed == DEFAULT_SEED else rng.choice(options)

    return Choices(pick(LEVELS), pick(ALPHA_PAIRS), pick(YBE_PERTURBATIONS),
                   pick(CROSSING_PERTURBATIONS), pick(ROUNDTRIP_PERTURBATIONS))


def perturbed_ybe_script(perturbation: str) -> str:
    """YBE for C1 at L=3 with the middle right-hand argument u+v replaced."""
    return ("type C 1\norder 3\nslots 3\nspectral u v\n"
            "check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == "
            f"Rhat[2,3](v) * Rhat[1,3]({perturbation}) * Rhat[1,2](u)\n")


def perturbed_crossing_script(kappa: Fraction, delta: Fraction) -> str:
    """Crossing for C1 at L=6 with the shift kappa+delta in place of kappa."""
    shift = kappa + delta
    term = f"+{shift}h" if shift > 0 else f"-{-shift}h"
    return ("type C 1\norder 6\nslots 2\nspectral u\n"
            f"check Rhat[1,2](u) * conjM[1](Rhat[1,2](u{term})^t[1]) == 1\n")


def _checks(names, types, L, **kwargs):
    return [Entry(f"checks.{name}.{f}{n}.L{L}", "builtin",
                  dict(name=name, family=f, n=n, L=L, **kwargs))
            for f, n in types for name in names]


def build(workload: str, seed: int = DEFAULT_SEED) -> list:
    """The entries of ``workload`` for ``seed``."""
    ch = choices(seed)
    c = ch.level
    if workload == "rmatrix_suite":
        entries = _checks(("ybe_hat",), (("C", 1),), 3)
        entries += _checks(("ybe_hat",), (("D", 2),), 2)
        entries += _checks(("crossing_hat", "unitarity_hat"),
                           (("B", 1), ("C", 1), ("D", 2)), 3)
        entries.append(Entry("checks.csuni.C1.L3.k2", "builtin",
                             dict(name="csuni", family="C", n=1, L=3, k=2,
                                  c=c)))
        entries += [Entry(f"checks.correspondence.C1.L3.a{i}",
                          "correspondence",
                          dict(family="C", n=1, alpha=alpha, a=2, b=2, l=3))
                    for i, alpha in enumerate(ch.alphas, 1)]
        entries.append(Entry("script.perturbed_ybe.C1.L3", "script",
                             dict(text=perturbed_ybe_script(ch.ybe)),
                             identity=False))
        return entries
    if workload == "module_suite":
        entries = [Entry(f"module_checks.{name}.C1.L3{suffix}", "module",
                         dict(name=name, family="C", n=1, L=3, c=c, **kw))
                   for name, suffix, kw in (
                       ("tminus_vacuum", "", {}), ("s_shift", "", {}),
                       ("roundtrip", ".k1", {"k": 1}),
                       ("rel_minus", ".k1", {"k": 1}))]
        entries.append(Entry("module_checks.weak_assoc_chain.C1.L2", "weak",
                             dict(family="C", n=1, L=2, c=Fraction(0),
                                  cap_uv=1)))
        entries.append(Entry("module_checks.rtt_minus.B1.L2.k1", "module",
                             dict(name="rtt_minus", family="B", n=1, L=2,
                                  k=1, c=c)))
        entries.append(Entry("states.perturbed_roundtrip.C1.L3", "roundtrip",
                             dict(family="C", n=1, L=3, c=c,
                                  delta=ch.roundtrip),
                             identity=False))
        return entries
    if workload == "deep_series":
        entries = _checks(("g_one",), (("B", 1),), 6)
        entries += _checks(("g_one", "gfunc", "unitarity_hat"), (("C", 1),), 6)
        kappa_c1 = Fraction(2)     # rmx.lietype: kappa of type C1
        entries.append(Entry(
            "script.perturbed_crossing.C1.L6", "script",
            dict(text=perturbed_crossing_script(kappa_c1, ch.crossing)),
            identity=False))
        return entries
    raise KeyError(f"unknown workload {workload!r}; available: {WORKLOADS}")


def all_metrics() -> list:
    """Every entry metric of every workload, in workload order."""
    return [e.metric for w in WORKLOADS for e in build(w)]


# ---------------------------------------------------------------- running

def perturbed_roundtrip(family, n, L, c, delta):
    """Lowering operator followed by its inverse at the argument shifted by
    delta*h, on a one-letter word state; built from the FreeState API."""
    from rmx import Arg, FreeState, lie_type_data, solve_normalizer
    from rmx.ratfunc import RatFunc
    from rmx.report import timed_report

    def run():
        ltd = lie_type_data(family, n)
        norm = solve_normalizer(ltd, L=L)
        caps = {"h": L}
        u = RatFunc.var("U")
        w = FreeState.pure(ltd, norm, caps, c,
                           [[Arg.make(RatFunc.var("V1"))]])
        st = w.apply_tminus(1, Arg.make(u))
        st = st.apply_tminus_inv(1, Arg.make(u, {"h": delta}),
                                 shared_slot=st.open)
        count, witness = st.residual(w.with_identity_open())
        return ("pass" if count == 0 else "fail"), count, witness

    return timed_report("perturbed_roundtrip",
                        {"family": family, "n": n, "L": L, "c": c,
                         "delta": delta}, run)


def run_entry(entry: Entry):
    """Run one entry through the public API; returns its CheckReport."""
    import rmx
    from rmx import script

    kw = dict(entry.kwargs)
    if entry.call == "builtin":
        return rmx.builtin_check(kw.pop("name"), **kw)
    if entry.call == "correspondence":
        return rmx.correspondence_check(**kw)
    if entry.call == "module":
        return rmx.module_check(kw.pop("name"), **kw)
    if entry.call == "weak":
        return rmx.weak_assoc_chain(**kw)
    if entry.call == "script":
        return rmx.evaluate(script.parse_script(kw["text"]),
                            name=entry.metric)
    if entry.call == "roundtrip":
        return perturbed_roundtrip(**kw)
    raise KeyError(f"unknown entry call {entry.call!r}")


def judge(entry: Entry, got: list, seed: int):
    """None if ``got`` = [verdict, residual_count, witness], as JSON data, is
    the right answer for ``entry``, else a one-line reason."""
    if seed == DEFAULT_SEED:
        want = PINNED[entry.metric]
        return None if tuple(got) == want else \
            f"expected {want!r}, got {got!r}"
    if entry.identity:
        ok = got[0] == "pass" and got[1] == 0
        return None if ok else f"identity did not pass: {got!r}"
    ok = got[0] == "fail" and got[1] > 0 and got[2] is not None
    return None if ok else f"control did not fail: {got!r}"


# Reports of every entry for DEFAULT_SEED, as JSON data:
# metric -> (verdict, residual_count, witness).
PINNED = {
    'checks.ybe_hat.C1.L3': ('pass', 0, None),
    'checks.ybe_hat.D2.L2': ('pass', 0, None),
    'checks.crossing_hat.B1.L3': ('pass', 0, None),
    'checks.unitarity_hat.B1.L3': ('pass', 0, None),
    'checks.crossing_hat.C1.L3': ('pass', 0, None),
    'checks.unitarity_hat.C1.L3': ('pass', 0, None),
    'checks.crossing_hat.D2.L3': ('pass', 0, None),
    'checks.unitarity_hat.D2.L3': ('pass', 0, None),
    'checks.csuni.C1.L3.k2': ('pass', 0, None),
    'checks.correspondence.C1.L3.a1': ('pass', 0, 'r=4'),
    'checks.correspondence.C1.L3.a2': ('pass', 0, 'r=4'),
    'script.perturbed_ybe.C1.L3': (
        'fail', 20, [[0, 0, 0], [0, 0, 0],
         '((u - u*v^2)/(v - u - u*v^2 + u^2*v))*h + ((3*u*v + 2*u*v^2 - '
         'u*v^3 - 2*u^2 - 3*u^2*v - 4*u^2*v^2 - 3*u^2*v^3 + 3*u^3*v + '
         '4*u^3*v^2 + 3*u^3*v^3 + 2*u^3*v^4 + u^4*v - 2*u^4*v^2 - '
         '3*u^4*v^3)/(-2*v^2 + 4*u*v + 2*u*v^2 + 4*u*v^3 - 2*u^2 - 4*u^2*v -'
         ' 8*u^2*v^2 - 4*u^2*v^3 - 2*u^2*v^4 + 2*u^3 + 4*u^3*v + 8*u^3*v^2 +'
         ' 4*u^3*v^3 + 2*u^3*v^4 - 4*u^4*v - 2*u^4*v^2 - 4*u^4*v^3 + '
         '2*u^5*v^2))*h^2']),
    'module_checks.tminus_vacuum.C1.L3': ('pass', 0, None),
    'module_checks.s_shift.C1.L3': ('pass', 0, None),
    'module_checks.roundtrip.C1.L3.k1': ('pass', 0, None),
    'module_checks.rel_minus.C1.L3.k1': ('pass', 0, None),
    'module_checks.weak_assoc_chain.C1.L2': ('pass', 0, 'r=1'),
    'module_checks.rtt_minus.B1.L2.k1': ('pass', 0, None),
    'states.perturbed_roundtrip.C1.L3': (
        'fail', 12, [[0, 0, 0], [0, 1, 1],
         '((2*U*V1)/(V1^2 - 2*U*V1 + U^2))*h^2']),
    'checks.g_one.B1.L6': ('pass', 0, None),
    'checks.g_one.C1.L6': ('pass', 0, None),
    'checks.gfunc.C1.L6': ('pass', 0, None),
    'checks.unitarity_hat.C1.L6': ('pass', 0, None),
    'script.perturbed_crossing.C1.L6': (
        'fail', 6, [[0, 0], [0, 0],
         '((-u)/(1 - 2*u + u^2))*h^2 + ((-u - u^2)/(-2 + 6*u - 6*u^2 + '
         '2*u^3))*h^3 + ((u + 7*u^2 + u^3)/(6 - 24*u + 36*u^2 - 24*u^3 + '
         '6*u^4))*h^4 + ((u + 15*u^2 + 15*u^3 + u^4)/(-8 + 40*u - 80*u^2 + '
         '80*u^3 - 40*u^4 + 8*u^5))*h^5']),
}
