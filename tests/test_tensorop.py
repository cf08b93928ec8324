import itertools
import json
import random
from fractions import Fraction

import pytest

from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import diag_op
from rmx.tensorop import TensorOp
from test_hseries import _series_from_data

CAPS = {"h": 3}
N = 2


def h():
    return HSeries.capped_var("h", CAPS)


def rand_op(rng, N, m, density=0.4):
    entries = {}
    for row in itertools.product(range(N), repeat=m):
        for col in itertools.product(range(N), repeat=m):
            if rng.random() < density:
                val = HSeries.const(Fraction(rng.randint(-3, 3)), CAPS)
                if rng.random() < 0.5:
                    val = val + h() * Fraction(rng.randint(-3, 3))
                entries[(row, col)] = val
    return TensorOp(N, m, CAPS, entries)


def test_identity_and_mul():
    ident = TensorOp.identity(N, 2, CAPS)
    rng = random.Random(0)
    a = rand_op(rng, N, 2)
    assert a * ident == a
    assert ident * a == a


def test_permutation_squares_to_identity():
    p = TensorOp(N, 2, CAPS, {((i, j), (j, i)): HSeries.one(CAPS)
                              for i in range(N) for j in range(N)})
    assert (p * p).is_identity()


def test_embed_disjoint_slots_commute():
    rng = random.Random(1)
    p = rand_op(rng, N, 2)
    x = rand_op(rng, N, 1)
    a = p.embed((1, 2), 3)
    b = x.embed((3,), 3)
    assert a * b == b * a


def test_embed_permuted_slots():
    # embedding into slots (2,1) equals flipping then embedding into (1,2)
    rng = random.Random(2)
    a = rand_op(rng, N, 2)
    assert a.embed((2, 1), 3) == a.swap_slots(1, 2).embed((1, 2), 3)


def test_transpose_is_involution():
    ltd = lie_type_data("C", 1)
    rng = random.Random(3)
    a = rand_op(rng, ltd.N, 2)
    assert a.transpose_slot(1, ltd).transpose_slot(1, ltd) == a
    assert a.transpose_slot(2, ltd).transpose_slot(2, ltd) == a


def test_transpose_matches_basis_rule():
    # e_ij^t = eps_i eps_j e_{j'i'}
    ltd = lie_type_data("C", 1)
    for i in range(ltd.N):
        for j in range(ltd.N):
            e = TensorOp.unit(ltd.N, i, j, CAPS)
            t = e.transpose_slot(1, ltd)
            expect = TensorOp.unit(ltd.N, ltd.iprime(j), ltd.iprime(i), CAPS,
                                   ltd.eps[i] * ltd.eps[j])
            assert t == expect


def dense_transpose(a, slot, ltd):
    """Brute-force oracle: expand A over embedded matrix units and replace
    the unit e_ij at ``slot`` by eps_i eps_j e_{j'i'}."""
    total = TensorOp.zero(a.N, a.m, a.caps)
    for (row, col), val in a.items():
        term = TensorOp.identity(a.N, a.m, a.caps)
        for s in range(a.m):
            i, j = row[s], col[s]
            if s == slot - 1:
                u = TensorOp.unit(a.N, ltd.iprime(j), ltd.iprime(i), a.caps,
                                  ltd.eps[i] * ltd.eps[j])
            else:
                u = TensorOp.unit(a.N, i, j, a.caps)
            term = term * u.embed((s + 1,), a.m)
        total = total + term.scale(val)
    return total


@pytest.mark.parametrize("family,n", [("B", 1), ("D", 2)])
def test_transpose_against_dense_oracle(family, n):
    # B1 has a middle index (i = i'), D2 has none
    ltd = lie_type_data(family, n)
    rng = random.Random(12)
    for _ in range(3):
        a = rand_op(rng, ltd.N, 2, density=0.3)
        for slot in (1, 2):
            assert a.transpose_slot(slot, ltd) == dense_transpose(a, slot, ltd)


def test_conj_diag_roundtrip():
    diag = [HSeries.exp_shift({"h": Fraction(k, 2)}, CAPS) for k in range(N)]
    rng = random.Random(4)
    a = rand_op(rng, N, 2)
    assert a.conj_diag(diag, 1, 1).conj_diag(diag, 1, -1) == a


def _rand_capped_op(rng, N, m, caps, density=0.4):
    """A random operator whose entries mix every capped variable and the
    ring variable z."""
    gens = [HSeries.capped_var(v, caps) for v in caps] + [
        HSeries.const(RatFunc.var("z"), caps)]
    entries = {}
    for row in itertools.product(range(N), repeat=m):
        for col in itertools.product(range(N), repeat=m):
            if rng.random() < density:
                val = HSeries.const(rng.randint(1, 3), caps)
                for g in gens:
                    val = val + g * rng.randint(-2, 2)
                entries[(row, col)] = val
    return TensorOp(N, m, caps, entries)


@pytest.mark.parametrize("caps", [{"h": 3}, {"h": 2, "u": 2}])
@pytest.mark.parametrize("m", [2, 3])
def test_conj_diag_matches_diagonal_products(caps, m):
    # D_s T D_s^-1 (and D_s^-1 T D_s) by embedding D and multiplying, with
    # units 1 + i*h + u that are not exp-shifts; u is a ring variable under
    # {h: 3} and a capped one under {h: 2, u: 2}
    n = 3
    rng = random.Random(m)
    u = (HSeries.capped_var("u", caps) if "u" in caps
         else HSeries.const(RatFunc.var("u"), caps))
    diag = [HSeries.one(caps) + HSeries.capped_var("h", caps) * i + u
            for i in range(n)]
    d, d_inv = (diag_op(n, caps, x) for x in (diag, [x.inv() for x in diag]))
    for _ in range(2):
        a = _rand_capped_op(rng, n, m, caps)
        for slot in range(1, m + 1):
            left, right = d.embed((slot,), m), d_inv.embed((slot,), m)
            assert a.conj_diag(diag, slot, 1) == left * a * right
            assert a.conj_diag(diag, slot, -1) == right * a * left


def test_inv_neumann():
    rng = random.Random(5)
    x = rand_op(rng, N, 2)
    # force zero constant part so 1 + h*x is invertible
    x = x.map_entries(lambda s: (s - HSeries.const(s.coeff({}), CAPS))
                      + HSeries.const(s.coeff({}), CAPS) * h())
    a = TensorOp.identity(N, 2, CAPS) + x.scale(h())
    assert (a * a.inv()).is_identity()
    assert (a.inv() * a).is_identity()


@pytest.mark.parametrize("constant,error", [
    ({((0, 1), (1, 0)): 1}, "not scalar"),            # the flip
    ({((0, 0), (0, 0)): 2, ((1, 1), (1, 1)): 3}, "not scalar"),
    # diag(1, 0, 0, 0): the absent diagonal entries are zeros, and the
    # Neumann series of the projector 1 - T never ends
    ({((0, 0), (0, 0)): 1}, "not scalar"),
    ({}, "not invertible at order zero"),
], ids=["off-diagonal", "unequal", "absent-diagonal", "zero"])
def test_inv_needs_a_scalar_constant_part(constant, error):
    entries = {key: HSeries.const(Fraction(c), CAPS) + h()
               for key, c in constant.items()}
    entries[((1, 0), (0, 1))] = h()
    with pytest.raises((ValueError, ZeroDivisionError), match=error):
        TensorOp(N, 2, CAPS, entries).inv()


def dense_odot(a, b, first_slots, mode):
    """Brute-force oracle: expand A over matrix units of the first/second
    factor spaces and multiply operator by operator."""
    F = sorted(s - 1 for s in first_slots)
    G = [i for i in range(a.m) if i not in F]
    total = TensorOp.zero(a.N, a.m, a.caps)
    for (row, col), val in a.items():
        xf = None
        for i in F:
            u = TensorOp.unit(a.N, row[i], col[i], a.caps).embed((i + 1,), a.m)
            xf = u if xf is None else xf * u
        yg = None
        for i in G:
            u = TensorOp.unit(a.N, row[i], col[i], a.caps).embed((i + 1,), a.m)
            yg = u if yg is None else yg * u
        xf = xf if xf is not None else TensorOp.identity(a.N, a.m, a.caps)
        yg = yg if yg is not None else TensorOp.identity(a.N, a.m, a.caps)
        if mode == "LR":
            total = total + (xf * b * yg).scale(val)
        else:
            total = total + (yg * b * xf).scale(val)
    return total


@pytest.mark.parametrize("mode", ["LR", "RL"])
@pytest.mark.parametrize("first", [(1,), (2,), (1, 2)])
def test_odot_against_dense_oracle(mode, first):
    rng = random.Random(hash((mode, first)) & 0xFFFF)
    a = rand_op(rng, N, 2, density=0.5)
    b = rand_op(rng, N, 2, density=0.5)
    assert a.odot(b, first, mode) == dense_odot(a, b, first, mode)


def test_odot_lr_identity_is_mul():
    # with B = 1 both ordered products reduce to plain factor recombination
    rng = random.Random(9)
    a = rand_op(rng, N, 2)
    ident = TensorOp.identity(N, 2, CAPS)
    assert a.odot(ident, (1,), "LR") == a
    assert a.odot(ident, (1,), "RL") == a


def test_serialization_roundtrip():
    # the tuple view, written as JSON, rebuilds the operator through the
    # validating constructor
    rng = random.Random(10)
    a = rand_op(rng, N, 2)
    text = json.dumps([[row, col, v.to_data()] for (row, col), v in a.items()])
    back = TensorOp(N, 2, CAPS, {(tuple(r), tuple(c)): _series_from_data(v)
                                 for r, c, v in json.loads(text)})
    assert back == a
    assert back.items() == a.items()
    keys = [key for key, _ in a.items()]
    assert keys == sorted(keys) and len(keys) == a.nonzero_count()


def test_binary_ops_reject_other_caps():
    rng = random.Random(11)
    a = rand_op(rng, N, 2)
    for caps in ({"h": 2}, {"h": 3, "u": 2}):
        b = TensorOp.identity(N, 2, caps)
        for op in (lambda x, y: x * y, lambda x, y: x + y,
                   lambda x, y: x.odot(y, (1,), "LR")):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)
    with pytest.raises(ValueError):
        TensorOp(N, 1, CAPS, {((0,), (0,)): HSeries.one({"h": 2})})


def test_public_gates_raise_type_errors():
    ident = TensorOp.identity(N, 1, CAPS)
    with pytest.raises(TypeError, match=r"entry \(\(0,\), \(0,\)\) is a int"):
        TensorOp(N, 1, CAPS, {((0,), (0,)): 1})
    for op in (lambda: ident + 1, lambda: 1 + ident, lambda: ident - 1,
               lambda: 1 - ident, lambda: ident * "x", lambda: "x" * ident,
               lambda: ident.odot(1, (1,), "LR")):
        with pytest.raises(TypeError):
            op()


def _matrix(rows):
    """A one-slot operator from a square list of integer rows."""
    return TensorOp(len(rows), 1, CAPS, {
        ((i,), (j,)): HSeries.const(x, CAPS)
        for i, row in enumerate(rows) for j, x in enumerate(row) if x})


def test_cancelling_results_store_no_zero_entries():
    # residual counts are len(entries): a stored zero would read as a failure
    rng = random.Random(12)
    a = rand_op(rng, N, 2)
    assert (a - a).nonzero_count() == 0
    assert (a + (-a)).entries == {}
    # (0,0) of the product is 1*1 + 1*(-1); (1,0) is 2*1 + 0 and stays
    prod = _matrix([[1, 1], [2, 0]]) * _matrix([[1, 0], [-1, 0]])
    assert prod.nonzero_count() == 1 and ((1,), (0,)) in dict(prod.items())
    assert (_matrix([[1, 1], [0, 0]]) * _matrix([[1, 0], [-1, 0]])
            ).nonzero_count() == 0
    assert _matrix([[1, 1], [2, 0]]).scale(0).nonzero_count() == 0
    # h times h^2 is h^3, beyond the cap
    hh = TensorOp.identity(N, 1, CAPS).scale(h())
    assert (hh * hh.scale(h())).nonzero_count() == 0


def test_keys_and_slots_out_of_range_raise():
    # a packed key has no room for an index outside 0..N-1, and a slot
    # outside 1..m would name a field of another slot or none
    one = HSeries.one(CAPS)
    for key in (((5,), (-1,)), ((2,), (0,)), ((0,), (0, 0)), 1 << 2):
        with pytest.raises(ValueError, match="entry"):
            TensorOp(N, 1, CAPS, {key: one})
    with pytest.raises(ValueError, match=r"entry 3 "):
        TensorOp(3, 1, CAPS, {3: one})        # row index 3 in a 2-bit field
    ltd = lie_type_data("C", 1)
    a = rand_op(random.Random(13), N, 2)
    diag = [HSeries.one(CAPS)] * N
    for slot in (0, 3, -1):
        for op in (lambda: a.swap_slots(slot, 1), lambda: a.swap_slots(1, slot),
                   lambda: a.transpose_slot(slot, ltd),
                   lambda: a.conj_diag(diag, slot),
                   lambda: a.odot(a, (slot,), "LR")):
            with pytest.raises(ValueError, match=f"slot {slot} "):
                op()


# -- dense oracles at N = 3 and 4 with multi-term entries --------------------

MULTI = {"h": 3, "u": 2}


def _multi_term_op(rng, N, m, count, caps=MULTI):
    """About ``count`` random entries on m slots, each a series of one to
    five terms in h and u with rational or z-dependent coefficients, so
    that most entries hold several terms."""
    monos = [(e, f) for e in range(caps["h"]) for f in range(caps["u"])]
    coeffs = [RatFunc.one(), RatFunc.const(-2), RatFunc.const(Fraction(1, 3)),
              RatFunc.var("z"), 1 - RatFunc.var("z")]
    entries = {}
    for _ in range(count):
        key = tuple(tuple(rng.randrange(N) for _ in range(m)) for _ in "rc")
        entries[key] = HSeries(caps, {
            mono: rng.choice(coeffs)
            for mono in rng.sample(monos, rng.randint(1, 5))})
    return TensorOp(N, m, caps, entries)


def _dense(op) -> dict:
    """(row, col) -> series of every nonzero entry, index tuples as keys."""
    return dict(op.items())


def _summed(pairs) -> dict:
    """Sum series per key with HSeries arithmetic, zero sums dropped."""
    out = {}
    for key, val in pairs:
        out[key] = out[key] + val if key in out else val
    return {k: v for k, v in out.items() if not v.is_zero()}


def dense_mul(a: dict, b: dict) -> dict:
    """A B by all pairs of entries: A[r, k] B[k, c] summed into [r, c]."""
    return _summed(((ar, bc), av * bv) for (ar, ac), av in a.items()
                   for (br, bc), bv in b.items() if ac == br)


def dense_odot_pairs(a: dict, b: dict, m: int, first, mode) -> dict:
    """The split product by all pairs of entries, in index tuples:
    (A odot B)[R, C] = sum A[(R_F, K'_G), (K_F, C_G)] B[(K_F, R_G),
    (C_F, K'_G)], F the first slots for "LR" and the others for "RL"."""
    F = {s - 1 for s in first}
    if mode == "RL":
        F = set(range(m)) - F

    def fits(ar, ac, br, bc):
        # A's F columns meet B's F rows, A's G rows meet B's G columns
        return all(ac[i] == br[i] if i in F else ar[i] == bc[i]
                   for i in range(m))

    def out(ar, ac, br, bc):
        return (tuple(ar[i] if i in F else br[i] for i in range(m)),
                tuple(bc[i] if i in F else ac[i] for i in range(m)))

    return _summed((out(ar, ac, br, bc), av * bv)
                   for (ar, ac), av in a.items()
                   for (br, bc), bv in b.items() if fits(ar, ac, br, bc))


@pytest.mark.parametrize("N,m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_mul_and_odot_match_dense_products_of_multi_term_entries(N, m):
    rng = random.Random(100 * N + m)
    count = 3 * N ** m
    a, b = (_multi_term_op(rng, N, m, count) for _ in "ab")
    ea, eb = _dense(a), _dense(b)
    assert any(len(v.terms) > 1 for v in ea.values())
    assert _dense(a * b) == dense_mul(ea, eb)
    for first in [(1,), (m,), tuple(range(1, m + 1)), ()]:
        for mode in ("LR", "RL"):
            assert _dense(a.odot(b, first, mode)) == \
                dense_odot_pairs(ea, eb, m, first, mode), (first, mode)


def test_residual_and_nonzero_count_count_entries_not_terms():
    caps = MULTI
    h, u = (HSeries.capped_var(v, caps) for v in ("h", "u"))
    z = HSeries.const(RatFunc.var("z"), caps)
    three = 1 + h + h * u          # an entry of three terms
    a = TensorOp(3, 2, caps, {((0, 1), (2, 0)): three,
                              ((1, 1), (1, 1)): z + u,
                              ((2, 0), (0, 2)): h})
    assert a.nonzero_count() == 3
    assert a.residual(a) == (0, None)
    # two terms of one entry differ: one entry, and its witness is the
    # difference of that entry's series
    b = TensorOp(3, 2, caps, {((0, 1), (2, 0)): three - h * h - h * u,
                              ((1, 1), (1, 1)): z + u,
                              ((2, 0), (0, 2)): h})
    count, witness = a.residual(b)
    assert count == 1
    assert witness == ([0, 1], [2, 0], repr(h * h + h * u))
    assert (a - b).nonzero_count() == 1
    assert (a - b).witness() == witness
    # an entry on one side only counts once, however many terms it has
    c = TensorOp(3, 2, caps, {((1, 1), (1, 1)): z + u,
                              ((2, 0), (0, 2)): h})
    assert a.residual(c)[0] == 1 and c.residual(a)[0] == 1
    assert a.residual(c)[1] == ([0, 1], [2, 0], repr(three))
    assert c.residual(a)[1] == ([0, 1], [2, 0], repr(-three))
    assert a.witness() == ([0, 1], [2, 0], repr(three))
