"""Packed operator keys against the tuple-keyed reference implementations.

The functions named ``ref_*`` are the tuple-keyed structural operations of
``TensorOp`` and ``FreeState._compose`` as they were before keys were
packed: entries are dicts mapping (row, col) pairs of index tuples to
HSeries.  Every test compares the packed operation, unpacked by ``items``,
entry for entry with the reference on the same input.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from rmx import states
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.tensorop import TensorOp, _layout

CAPS = {"h": 2}
# one capped variable and two: products truncate in each
CAP_SETS = [CAPS, {"h": 2, "u": 2}]
# exact ones held over no variables and over ("X",)
ONES = [RatFunc.one(), RatFunc.one().lift(("X",))]
# C1 (N=2), B1 (N=3: fields of 2 bits that do not fill them) and D2 (N=4)
TYPES = [("C", 1), ("B", 1), ("D", 2)]


# -- the tuple-keyed reference implementations -------------------------

def _accumulate(entries, key, val):
    entries[key] = entries[key] + val if key in entries else val


def ref_mul(N, m, a, b):
    by_row = {}
    for (row, col), val in b.items():
        by_row.setdefault(row, []).append((col, val))
    entries = {}
    for (row, mid), x in a.items():
        for col, y in by_row.get(mid, ()):
            _accumulate(entries, (row, col), x * y)
    return entries


def ref_embed(N, a, slots, m):
    pos = [s - 1 for s in slots]
    free = [i for i in range(m) if i + 1 not in slots]
    entries = {}
    for rest in itertools.product(range(N), repeat=len(free)):
        for (row, col), val in a.items():
            r = [0] * m
            c = [0] * m
            for p, ri, ci in zip(pos, row, col):
                r[p], c[p] = ri, ci
            for p, x in zip(free, rest):
                r[p] = c[p] = x
            entries[(tuple(r), tuple(c))] = val
    return entries


def ref_swap_slots(a, s1, s2):
    i, j = s1 - 1, s2 - 1

    def flip(t):
        t = list(t)
        t[i], t[j] = t[j], t[i]
        return tuple(t)

    return {(flip(r), flip(c)): v for (r, c), v in a.items()}


def ref_transpose_slot(a, slot, ltd):
    s = slot - 1
    entries = {}
    for (row, col), val in a.items():
        i, j = row[s], col[s]
        r = row[:s] + (ltd.iprime(j),) + row[s + 1:]
        c = col[:s] + (ltd.iprime(i),) + col[s + 1:]
        _accumulate(entries, (r, c), val * (ltd.eps[i] * ltd.eps[j]))
    return entries


def ref_odot(m, a, b, first_slots, mode):
    F = sorted(s - 1 for s in first_slots)
    G = [i for i in range(m) if i not in F]
    if mode == "RL":
        F, G = G, F

    def split(t):
        return tuple(t[i] for i in F), tuple(t[i] for i in G)

    def join(f, g):
        out = [0] * m
        for i, x in zip(F, f):
            out[i] = x
        for i, x in zip(G, g):
            out[i] = x
        return tuple(out)

    bmap = {}
    for (br, bc), bv in b.items():
        kf, rg = split(br)
        cf, kg = split(bc)
        bmap.setdefault((kf, kg), []).append((rg, cf, bv))
    entries = {}
    for (ar, ac), av in a.items():
        rf, kg = split(ar)
        kf, cg = split(ac)
        for rg, cf, bv in bmap.get((kf, kg), ()):
            _accumulate(entries, (join(rf, rg), join(cf, cg)), av * bv)
    return entries


def ref_compose(K, omega, targets, shared):
    """``_compose`` on one coefficient: the sandwich ``omega`` on w + e + w
    slots contracted into ``K`` at the 1-based ``targets``."""
    w = len(targets)
    e = 0 if shared is None else 1
    tpos = [t - 1 for t in targets]
    kmap = {}
    for (krow, kcol), kval in K.items():
        mkey = (tuple(krow[p] for p in tpos), tuple(kcol[p] for p in tpos),
                None if shared is None else krow[shared - 1])
        kmap.setdefault(mkey, []).append((krow, kcol, kval))
    entries = {}
    for (orow, ocol), oval in omega.items():
        P, I, Pp = orow[:w], orow[w:w + e], orow[w + e:]
        Q, J, Qp = ocol[:w], ocol[w:w + e], ocol[w + e:]
        for krow, kcol, kval in kmap.get((P, Q, J[0] if e else None), ()):
            row, col = list(krow), list(kcol)
            if e:
                row[shared - 1] = I[0]
            for p, rp, cp in zip(tpos, Pp, Qp):
                row[p], col[p] = rp, cp
            _accumulate(entries, (tuple(row), tuple(col)), kval * oval)
    return entries


# -- drawing operands ----------------------------------------------------

def rand_entries(rng, N, m, count, caps=CAPS):
    """Up to ``count`` random entries on m slots: small rational series in
    the capped variables, their constant terms exact ones one time in
    four, and one entry in five an exact-one series."""
    gens = [HSeries.capped_var(v, caps) for v in caps]
    entries = {}
    for _ in range(count):
        key = tuple(tuple(rng.randrange(N) for _ in range(m)) for _ in "rc")
        if rng.random() < 0.2:
            entries[key] = HSeries.const(rng.choice(ONES), caps)
            continue
        c = rng.choice(ONES) if rng.random() < 0.25 else \
            Fraction(rng.randint(-3, 3))
        entries[key] = sum((g * rng.randint(-2, 2) for g in gens),
                           HSeries.const(c, caps))
    return entries


def assert_same(op, want):
    """``op`` unpacked equals the reference entries, zeros dropped."""
    want = {k: v for k, v in want.items() if not v.is_zero()}
    assert dict(op.items()) == want


CASES = hst.tuples(hst.sampled_from(TYPES), hst.integers(1, 3),
                   hst.integers(0, 2 ** 32))


@settings(max_examples=100)
@given(case=CASES, caps=hst.sampled_from(CAP_SETS))
def test_products_and_slot_maps_match_the_tuple_reference(case, caps):
    (family, n), m, seed = case
    ltd = lie_type_data(family, n)
    N, rng = ltd.N, random.Random(seed)
    count = 4 * N ** m
    ea = rand_entries(rng, N, m, count, caps)
    eb = rand_entries(rng, N, m, count, caps)
    a, b = TensorOp(N, m, caps, ea), TensorOp(N, m, caps, eb)
    ea, eb = dict(a.items()), dict(b.items())
    assert_same(a * b, ref_mul(N, m, ea, eb))
    # a * b and a * (-b) cancel in every entry
    assert (a * b + a * b.scale(-1)).entries == {}
    s1, s2 = rng.randint(1, m), rng.randint(1, m)
    assert_same(a.swap_slots(s1, s2), ref_swap_slots(ea, s1, s2))
    slot = rng.randint(1, m)
    assert_same(a.transpose_slot(slot, ltd),
                ref_transpose_slot(ea, slot, ltd))
    first = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
    for mode in ("LR", "RL"):
        assert_same(a.odot(b, first, mode), ref_odot(m, ea, eb, first, mode))
    wide = m + rng.randint(0, 4 - m) if N < 4 else m + rng.randint(0, 1)
    slots = tuple(rng.sample(range(1, wide + 1), m))
    assert_same(a.embed(slots, wide), ref_embed(N, ea, slots, wide))


@settings(max_examples=100)
@given(case=CASES, shared=hst.booleans())
def test_compose_matches_the_tuple_reference(case, shared):
    # a coefficient on 1 or 2 open slots, w rewritten sym slots and up to
    # one more sym slot, and a sandwich on w + e + w slots, e = 1 when it
    # also acts on an open slot
    (family, n), w, seed = case
    ltd = lie_type_data(family, n)
    N, rng = ltd.N, random.Random(seed)
    w = min(w, 2)
    opens, rest = rng.randint(1, 2), rng.randint(0, 1 if N < 4 else 0)
    m, e = opens + w + rest, 1 if shared else 0
    K = TensorOp(N, m, CAPS, rand_entries(rng, N, m, 3 * N ** m))
    omega = TensorOp(N, 2 * w + e, CAPS,
                     rand_entries(rng, N, 2 * w + e, 3 * N ** (w + e)))
    words = (tuple((None, 0) for _ in range(w)),
             tuple((None, 0) for _ in range(rest)))
    st = states.FreeState(ltd, None, CAPS, 1, opens, [states.Term(K, words)])
    targets = list(range(opens + 1, opens + w + 1))
    slot = rng.randint(1, opens) if shared else None
    out = st._compose(targets, lambda t: omega, lambda t: t.words, slot)
    want = ref_compose(dict(K.items()), dict(omega.items()), targets, slot)
    if out.terms:
        assert_same(out.terms[0].coeff, want)
    else:
        assert all(v.is_zero() for v in want.values())


@settings(max_examples=50)
@given(N=hst.integers(1, 6), m=hst.integers(0, 3),
       seed=hst.integers(0, 2 ** 32))
def test_sorted_packed_keys_unpack_in_tuple_order(N, m, seed):
    # witnesses and serialised entries take the least or sorted keys
    rng = random.Random(seed)
    layout = _layout(N, m)
    keys = {tuple(tuple(rng.randrange(N) for _ in range(m)) for _ in "rc")
            for _ in range(20)}
    packed = sorted(layout.key(k) for k in keys)
    assert [layout.unpack(k) for k in packed] == sorted(keys)
    assert [layout.key(layout.unpack(k)) for k in packed] == packed


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9])
def test_every_index_round_trips_through_its_field(N):
    # the field width is the bit length of N - 1 (at least 1): no upper
    # limit on N, and no index spills into its neighbour
    layout = _layout(N, 2)
    for idx in itertools.product(range(N), repeat=4):
        key = layout.key((idx[:2], idx[2:]))
        assert layout.unpack(key) == (idx[:2], idx[2:])
