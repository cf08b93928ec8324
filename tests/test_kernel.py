"""The coefficient kernels against the unfused route.

A product of two series, ``HSeries.__mul__``, adds a * b term by term
into one term dict, and every operator and state contraction is one
``hseries._join``, which matches two streams of terms by packed keys,
indexes the right stream by the exponent of h and adds each pair that fits
the caps straight into one flat dict, at the sum of the two terms' flat
keys (entry fields, then the monomial number in the low ``caps.width``
bits).  The oracle here is the route they replaced: every product is a
series of its own and the products of one entry are summed pairwise,
``entries[k] = entries[k] + a * b if k in entries else a * b``.  Its
products and sums are computed below over exponent tuples, through the
validating ``HSeries`` constructor (which drops monomials beyond the caps
and zero coefficients), so the oracle shares no arithmetic loop with the
kernels; ``_join`` is checked against all pairs of its two streams, over
cap sets with h first, h after another name and no h at all.  The
operator products ``*`` and ``odot`` are checked against the tuple-keyed
references of ``tests/test_packed.py``, which sum with that idiom.
"""

import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import rmx
from rmx import hseries, states, tensorop
from rmx.hseries import Caps, HSeries, _join, _series
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, solve_normalizer
from rmx.states import FreeState
from rmx.tensorop import TensorOp, _grouped

# the module: the package exports the function ``rmatrix`` under its name
rmatrix = importlib.import_module("rmx.rmatrix")

# C1, B1 and D2: N = 2, 3 and 4
TYPES = [("C", 1), ("B", 1), ("D", 2)]
# one capped variable and two
CAPS = [Caps.of({"h": 3}), Caps.of({"h": 2, "u": 2})]
# for the join, also a cap set without h and two where a name sorts
# before h, so that monomial numbers do not run in h-order
JOIN_CAPS = CAPS + [Caps.of({"u": 2, "v": 3}), Caps.of({"a": 2, "h": 3}),
                    Caps.of({"a": 3, "h": 2})]
X = RatFunc.var("X")
# exact ones over no variables and over ("X",), values that cancel each
# other, and a value with a denominator
COEFFS = [RatFunc.one(), RatFunc.one().lift(("X",)), -RatFunc.one(),
          RatFunc.const(2), RatFunc.const(Fraction(-1, 2)), X, -X, X + 1,
          1 / (1 - X)]


# -- the unfused route -----------------------------------------------------

def _tuples(s: HSeries) -> dict:
    return {s.caps.monos[k]: c for k, c in s.terms.items()}


def ref_product(a: HSeries, b: HSeries) -> HSeries:
    """a * b as a series of its own, monomials by exponent tuples."""
    terms = {}
    for (m1, c1), (m2, c2) in itertools.product(_tuples(a).items(),
                                                _tuples(b).items()):
        mono = tuple(x + y for x, y in zip(m1, m2))
        terms[mono] = terms[mono] + c1 * c2 if mono in terms else c1 * c2
    return HSeries(a.caps, terms)


def ref_sum(a: HSeries, b: HSeries) -> HSeries:
    terms = _tuples(a)
    for mono, c in _tuples(b).items():
        terms[mono] = terms[mono] + c if mono in terms else c
    return HSeries(a.caps, terms)


# -- drawing operands ------------------------------------------------------

def rand_series(rng, caps, size=None, low=0) -> HSeries:
    """A series of up to ``size`` terms of h-order ``low`` or more; with
    ``low`` 0, one in four is exactly one."""
    if not low and rng.random() < 0.25:
        return HSeries.one(caps)
    at = caps.names.index("h") if "h" in caps else None
    monos = [mono for mono in caps.index if at is None or mono[at] >= low]
    size = rng.randint(1, 3) if size is None else size
    return HSeries(caps, {mono: rng.choice(COEFFS)
                          for mono in rng.sample(monos, min(size,
                                                            len(monos)))})


def rand_op(rng, N, m, caps, count) -> TensorOp:
    return TensorOp(N, m, caps, {
        tuple(tuple(rng.randrange(N) for _ in range(m)) for _ in "rc"):
            rand_series(rng, caps) for _ in range(count)})


# -- the kernel on its own -------------------------------------------------

def _terms(caps, stream) -> list:
    """A stream of (match, entry, series) triples as the term stream
    ``_join`` takes: (match, flat key, coefficient), one per term."""
    return [(match, entry << caps.width | j, c)
            for match, entry, s in stream for j, c in s.terms.items()]


def _one_key(caps, products) -> tuple:
    """(left, right) term streams that join every (a, b) of ``products``
    at entry 0, each pair on a match key of its own."""
    return (_terms(caps, [(n, 0, a) for n, (a, _) in enumerate(products)]),
            _terms(caps, [(n, 0, b) for n, (_, b) in enumerate(products)]))


@settings(max_examples=150)
@given(caps=hst.sampled_from(CAPS), seed=hst.integers(0, 2 ** 32),
       count=hst.integers(1, 5))
def test_product_and_join_match_product_then_sum(caps, seed, count):
    # several products into one output entry, as a contraction adds them;
    # at entry 0 a flat key is the monomial number
    rng = random.Random(seed)
    products, want, last = [], HSeries.zero(caps), None
    for _ in range(count):
        if last is not None and rng.random() < 0.3:
            a, b = -last[0], last[1]        # cancels the last product
        else:
            a, b = rand_series(rng, caps), rand_series(rng, caps)
        products.append((a, b))
        acc = _join(caps, *_one_key(caps, products))
        want = ref_sum(want, ref_product(a, b))
        assert acc == want.terms
        assert all(not c.is_zero() for c in acc.values())
        assert a * b == ref_product(a, b)
        last = a, b


def test_product_and_join_truncate_cancel_and_skip_ones(monkeypatch):
    caps = CAPS[1]
    h, u = (HSeries.capped_var(v, caps) for v in ("h", "u"))
    # h^2 is beyond the cap of h, and so is u^2
    assert _join(caps, *_one_key(caps, [(h, h), (h * u, u)])) == {}
    assert (h * h).is_zero() and (h * u * u).is_zero()
    # h u - u h cancels
    assert _join(caps, *_one_key(caps, [(h + u, h - u)])) == {}
    assert ((h + u) * (h - u)).is_zero()
    x = HSeries.const(X, caps)
    xh, xuh = x + h, x * u + h
    lifted_one = HSeries.const(RatFunc.one().lift(("X",)), caps)
    calls = []
    times = RatFunc.__mul__

    def counted(p, q):
        calls.append((p, q))
        return times(p, q)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    acc = _join(caps, *_one_key(caps, [(HSeries.one(caps), xh),
                                       (xuh, lifted_one)]))
    products = HSeries.one(caps) * xh, xuh * lifted_one
    monkeypatch.undo()
    assert calls == []                  # every factor was an exact one
    assert _series(caps, acc) == x + 2 * h + x * u
    assert products == (xh, xuh)
    # an entry whose sum cancels leaves no term; the other entry stays
    got = _join(caps, _terms(caps, [(0, 1, x + h), (1, 1, -x - h),
                                    (0, 2, x), (1, 2, u)]),
                _terms(caps, [(0, 0, HSeries.one(caps)),
                              (1, 0, HSeries.one(caps))]))
    assert _grouped(caps, got) == {2: x + u}


# -- the contraction -------------------------------------------------------

def ref_join(caps, left, right) -> dict:
    """``_join`` by all pairs of terms, as a flat dict: each term and each
    product a series of its own, its monomial multiplied by exponent
    tuples, summed into its output entry by the unfused route, zero sums
    dropped."""
    width, low, monos = caps.width, caps.low, caps.monos
    out = {}
    for (m1, k1, a), (m2, k2, b) in itertools.product(left, right):
        if m1 == m2:
            key = k1 >> width | k2 >> width
            p = ref_product(HSeries(caps, {monos[k1 & low]: a}),
                            HSeries(caps, {monos[k2 & low]: b}))
            out[key] = ref_sum(out[key], p) if key in out else p
    return {k << width | j: c for k, v in out.items()
            for j, c in v.terms.items()}


def rand_stream(rng, caps, size, shift):
    """``size`` (match, kept, series) triples on match keys 0..3, so that
    keys go unmatched and many pairs meet, and kept entries 0..3 shifted
    left by ``shift``.  Each series has its own lowest h-order, so that a
    pair can pass the cap of h while its other exponents fit, and one
    triple in four repeats an earlier one negated, so that the products it
    takes part in cancel."""
    out = []
    for _ in range(size):
        if out and rng.random() < 0.25:
            match, kept, s = rng.choice(out)
            out.append((match, kept, -s))
        else:
            low = rng.randrange(caps.get("h", 1))
            out.append((rng.randrange(4), rng.randrange(4) << shift,
                        rand_series(rng, caps, low=low)))
    return out


@settings(max_examples=300)
@given(caps=hst.sampled_from(JOIN_CAPS), seed=hst.integers(0, 2 ** 32),
       sizes=hst.tuples(hst.integers(0, 6), hst.integers(0, 6)))
def test_join_matches_all_pairs(caps, seed, sizes):
    rng = random.Random(seed)
    left = _terms(caps, rand_stream(rng, caps, sizes[0], 0))
    right = _terms(caps, rand_stream(rng, caps, sizes[1], 2))
    got = _join(caps, iter(left), iter(right))
    assert got == ref_join(caps, left, right)
    assert all(isinstance(v, RatFunc) and not v.is_zero()
               for v in got.values())


def test_join_drops_unmatched_and_cancelled_keys():
    caps = CAPS[1]
    h, u = (HSeries.capped_var(v, caps) for v in ("h", "u"))
    x = HSeries.const(X, caps)
    one = HSeries.one(caps)
    assert _join(caps, [], _terms(caps, [(0, 0, h)])) == {}
    assert _join(caps, _terms(caps, [(0, 0, h)]), []) == {}
    assert _join(caps, _terms(caps, [(0, 1, h)]),
                 _terms(caps, [(1, 2, u)])) == {}     # no partner
    # two pairs meet at entry 3 and cancel; entry 5 keeps x * (1 + h)
    got = _join(caps, _terms(caps, [(0, 1, x), (7, 1, -x)]),
                _terms(caps, [(0, 2, h), (7, 2, h), (0, 4, one),
                              (0, 4, h)]))
    assert _grouped(caps, got) == {5: x + x * h}


def test_join_stops_by_the_exponent_of_h():
    # a sorts before h, so numbers are not in h-order: h^2 is 2, a is 5
    caps = Caps.of({"a": 2, "h": 3})
    a, h = (HSeries.capped_var(v, caps) for v in ("a", "h"))
    x = HSeries.const(X, caps)
    assert caps.names == ("a", "h")

    def join(caps, left, right):
        return _grouped(caps, _join(caps, _terms(caps, left),
                                    _terms(caps, right)))
    # (a + x h^2)(h + a + x): a h + x a + x a h^2 + x^2 h^2 fit the caps;
    # a^2 and h^3 do not
    got = join(caps, [(0, 0, a + x * h * h)], [(0, 0, h + a + x)])
    assert got == {0: a * h + x * a + x * a * h * h + x * x * h * h}
    # with the larger cap on a, a^2 fits: the stop reads h, not a
    caps = Caps.of({"a": 3, "h": 2})
    a, h = (HSeries.capped_var(v, caps) for v in ("a", "h"))
    assert join(caps, [(0, 0, a)], [(0, 0, a + h)]) == {0: a * a + a * h}
    # without h nothing stops early: u^2 fits, u^3 does not
    caps = Caps.of({"u": 3})
    u = HSeries.capped_var("u", caps)
    assert join(caps, [(0, 0, u), (1, 0, u * u)],
                [(0, 0, u + u * u), (1, 0, u)]) == {0: u * u}


def test_flat_keys_leave_room_for_every_product():
    # the sum of two monomial numbers within the caps fits the low bits,
    # so it never carries into an entry field
    for caps in JOIN_CAPS:
        top = max(caps.monos)
        assert 2 * top <= caps.low and caps.low == (1 << caps.width) - 1
    assert Caps.of({"h": 1}).width == 0


# -- the state layer -------------------------------------------------------

class _patched:
    """Run a block with ``join`` in place of ``hseries._join`` in the two
    modules that contract through it, ``tensorop`` and ``states``;
    ``calls`` counts the contractions handed to it."""

    MODULES = (tensorop, states)

    def __init__(self, join):
        self.join, self.calls = join, 0

    def __enter__(self):
        def counted(caps, left, right):
            self.calls += 1
            return self.join(caps, list(left), list(right))

        self.saved = [module._join for module in self.MODULES]
        for module in self.MODULES:
            module._join = counted
        return self

    def __exit__(self, *exc):
        for module, saved in zip(self.MODULES, self.saved):
            module._join = saved


@pytest.mark.parametrize("case", TYPES, ids=["C1", "B1", "D2"])
@pytest.mark.parametrize("u", [False, True], ids=["h", "h,u"])
@settings(max_examples=8)
@given(k=hst.integers(1, 2), inverse=hst.booleans(), shared=hst.booleans())
def test_lowering_operators_match_the_unfused_route(case, u, k, inverse,
                                                    shared):
    # pure states on one word of k letters (k = 1 for D2), over caps in h
    # alone or in h and u, a fresh or a shared open slot
    family, n = case
    k = 1 if family == "D" else k
    ltd = lie_type_data(family, n)
    caps = {"h": 2, **({"u": 2} if u else {})}
    norm = solve_normalizer(ltd, L=2)
    st = FreeState.pure(ltd, norm, caps, 1,
                        [[Arg.make(RatFunc.var(v)) for v in "XY"[:k]]])
    arg = Arg.make(RatFunc.var("U"), {"u": 1} if u else {})
    op = FreeState.apply_tminus_inv if inverse else FreeState.apply_tminus
    got = op(st, 1, arg, st.open if shared else None)
    with _patched(ref_join) as patch:
        rmatrix._build.cache_clear()
        want = op(st, 1, arg, st.open if shared else None)
    rmatrix._build.cache_clear()
    assert patch.calls > 0
    assert [t.key() for t in got.terms] == [t.key() for t in want.terms]
    assert [t.coeff.entries for t in got.terms] == \
        [t.coeff.entries for t in want.terms]


# -- no builder stores a zero entry ----------------------------------------

def test_no_builder_stores_an_empty_series(monkeypatch):
    # every operator the trusted constructor builds, through the builders
    # of TensorOp, the R-matrix builds and the state operations of a
    # hexagon check, holds only nonzero RatFunc coefficients, no series
    built = tensorop._operator
    empty = []

    def checked(N, m, caps, entries):
        empty.extend(k for k, v in entries.items()
                     if not isinstance(v, RatFunc) or v.is_zero())
        return built(N, m, caps, entries)

    for module in (tensorop, rmatrix, states):
        monkeypatch.setattr(module, "_operator", checked)
    rmatrix._build.cache_clear()
    ltd = lie_type_data("B", 1)
    caps = Caps.of({"h": 2})
    norm = solve_normalizer(ltd, L=2)
    rng = random.Random(7)
    a, b = rand_op(rng, 3, 2, caps, 20), rand_op(rng, 3, 2, caps, 20)
    h = HSeries.capped_var("h", caps)
    d = [HSeries.one(caps) + h * i for i in range(3)]
    for op in (a + b, a - a, -a, a * b, a * a.scale(-1) + a * a,
               a.scale(0), a.scale(h).scale(h), a.embed((3, 1), 3),
               a.swap_slots(1, 2), a.transpose_slot(1, ltd),
               a.conj_diag(d, 2), a.odot(b, (1,), "LR"),
               TensorOp.identity(3, 2, caps),
               rmatrix.rmatrix(ltd, norm, Arg.make(X), caps),
               rmatrix.rhat_inv(ltd, norm, Arg.make(X), caps)):
        assert all(isinstance(v, RatFunc) and not v.is_zero()
                   for v in op.entries.values())
    # hexagon reaches merge_y and braiding_s, weak_assoc_chain the pair
    # contraction
    for report in (rmx.module_check("hexagon", family="C", n=1, L=2),
                   rmx.weak_assoc_chain(family="C", n=1, L=2, c=0,
                                        cap_uv=1)):
        assert report.verdict == "pass"
    rmatrix._build.cache_clear()
    assert empty == []
