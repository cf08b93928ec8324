import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as hst

from rmx import states
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, diag_op, m_diag, rmatrix, solve_normalizer
from rmx.states import FreeState, arg_diff, arg_h, arg_sum
from rmx.tensorop import TensorOp


def make_ctx(L=2, c=1, extra_caps=None):
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L, **(extra_caps or {})}
    return ltd, norm, caps, Fraction(c)


def ring(name):
    return Arg.make(RatFunc.var(name))


def test_arg_helpers():
    a, b = ring("X"), ring("Y")
    s = arg_sum(a, b)
    assert repr(s.mono) == "X*Y"
    d = arg_diff(a, b)
    assert d.mono == RatFunc.var("X") / RatFunc.var("Y")
    sh = arg_h(a, Fraction(1, 2))
    assert sh.shift_dict() == {"h": Fraction(-1, 2)}


def test_pure_state_layout():
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[ring("X")], [ring("Y")]])
    assert st.open == 2
    assert st.factors == 2
    assert st.word_length(1) == st.word_length(2) == 1
    assert len(st.terms) == 1


def _cupcap(N, caps, total, pairs) -> TensorOp:
    """Index-transfer tensor on ``total`` slots.

    For each pair (i, j) the row indices at slots i and j agree, and the
    column indices at slots i and j agree (independently of the rows); every
    unpaired slot carries a plain Kronecker delta between its row and column.
    """
    one = HSeries.one(caps)
    paired = {s for p in pairs for s in p}
    unpaired = [s for s in range(1, total + 1) if s not in paired]
    entries = {}
    for rvals in itertools.product(range(N), repeat=len(pairs)):
        for cvals in itertools.product(range(N), repeat=len(pairs)):
            for uvals in itertools.product(range(N), repeat=len(unpaired)):
                row = [0] * total
                col = [0] * total
                for (i, j), r, c in zip(pairs, rvals, cvals):
                    row[i - 1] = row[j - 1] = r
                    col[i - 1] = col[j - 1] = c
                for s, u in zip(unpaired, uvals):
                    row[s - 1] = col[s - 1] = u
                entries[(tuple(row), tuple(col))] = one
    return TensorOp(N, total, caps, entries)


def _chain_omega_products(N, caps, wslots, sym_wordops, mats) -> TensorOp:
    """Oracle for the sandwich walk: the slot product
    X_0 * C_1 * X_1 * ... * C_n * X_n on wslots + n slots, with every X_i
    embedded in all slots and C_j the cup-cap tensor that transfers the
    j-th generator's indices from its operator slot to its sym slot."""
    total = wslots + len(sym_wordops)

    def emb(mat):
        if mat is None:
            return None
        return mat.embed(tuple(range(1, wslots + 1)), total)

    out = emb(mats[0])
    for j, wop in enumerate(sym_wordops):
        cup = _cupcap(N, caps, total, [(wop, wslots + 1 + j)])
        out = cup if out is None else out * cup
        nxt = emb(mats[j + 1])
        if nxt is not None:
            out = out * nxt
    if out is None:
        out = TensorOp.identity(N, total, caps)
    return out


@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1)])
@pytest.mark.parametrize("words", [[[]], [["X"]], [["X", "Y"]],
                                   [["X"], ["Y"]]])
def test_pure_coefficient_is_cupcap(family, n, words):
    ltd = lie_type_data(family, n)
    caps = {"h": 2}
    st = FreeState.pure(ltd, solve_normalizer(ltd, L=2), caps, 1,
                        [[ring(v) for v in w] for w in words])
    total = sum(len(w) for w in words)
    assert st.terms[0].coeff == _cupcap(
        ltd.N, caps, 2 * total, [(j, total + j) for j in range(1, total + 1)])


@pytest.mark.parametrize("family,n,L", [("C", 1, 3), ("B", 1, 2)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_chain_omega_matches_cupcap_oracle(monkeypatch, family, n, L, k):
    # every sandwich the operators build equals the cup-cap slot product
    walk = states._chain_omega
    wirings = set()

    def checked(N, caps, wslots, sym_wordops, mats):
        out = walk(N, caps, wslots, sym_wordops, mats)
        assert out == _chain_omega_products(N, caps, wslots, sym_wordops,
                                            mats)
        wirings.add((wslots, tuple(sym_wordops)))
        return out

    monkeypatch.setattr(states, "_chain_omega", checked)
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L}
    u = ring("U")
    word = [ring(f"V{i}") for i in range(1, k + 1)]
    vac = FreeState.vacuum(ltd, norm, caps, 1)
    vac._tminus_omega(word, u)
    vac._tminus_inv_omega(word, u)
    FreeState.pure(ltd, norm, caps, 1, [word, [ring("Y")]]) \
        .braiding_s(1, 2, ring("Zs"))
    FreeState.pure(ltd, norm, caps, 1, [[ring("X"), ring("Y")]]) \
        .rtt_swap(1, 1)
    assert wirings == {(k + 1, tuple(range(1, k + 1))),      # lowering
                       (k + 1, tuple(range(1, k + 2))),      # braiding
                       (2, (2, 1))}                          # RTT swap


def test_tminus_vacuum_normalization():
    ltd, norm, caps, c = make_ctx()
    vac = FreeState.vacuum(ltd, norm, caps, c)
    out = vac.apply_tminus(1, ring("U"))
    assert out == vac.with_identity_open()


def _invert_omega(omega: TensorOp, k: int) -> TensorOp:
    """Oracle for the inverse lowering operator: invert its sandwich tensor.

    Flattened over composite indices (matrix slot, new word rows, new word
    columns) x (matrix slot, old word rows, old word columns), composition
    of sandwich tensors on a shared matrix slot is matrix multiplication,
    and the index-transfer tensor flattens to the identity; the inverse
    sandwich is therefore the reshaped matrix inverse."""
    m = 2 * k + 1
    assert omega.m == m
    flat = {}
    for (row, col), val in omega.items():
        P, i, Pp = row[:k], row[k], row[k + 1:]
        Q, j, Qp = col[:k], col[k], col[k + 1:]
        flat[((i,) + Pp + Qp, (j,) + P + Q)] = val
    inv = TensorOp(omega.N, m, omega.caps, flat).inv()
    out = {}
    for (row, col), val in inv.items():
        i, Pp, Qp = row[0], row[1:k + 1], row[k + 1:]
        j, P, Q = col[0], col[1:k + 1], col[k + 1:]
        out[(P + (i,) + Pp, Q + (j,) + Qp)] = val
    return TensorOp(omega.N, m, omega.caps, out)


@pytest.mark.parametrize("family,n,L", [("C", 1, 3), ("B", 1, 2),
                                      ("D", 2, 2)])
@pytest.mark.parametrize("k", [1, 2])
def test_tminus_inv_chain_matches_matrix_oracle(family, n, L, k):
    ltd = lie_type_data(family, n)
    st = FreeState.vacuum(ltd, solve_normalizer(ltd, L=L), {"h": L}, 1)
    u = ring("U")
    word = tuple(ring(f"V{i}") for i in range(1, k + 1))
    assert st._tminus_inv_omega(word, u) == \
        _invert_omega(st._tminus_omega(word, u), k)


def _crossing_chain_by_products(st, first, factors, wslots):
    """The crossing factor as an explicit chain of products: diag(M)^{-1}
    on each ``first`` slot, the R-matrices transposed in their first slot,
    then diag(M) on each ``first`` slot."""
    ltd, caps = st.ltd, st.caps
    md = m_diag(ltd, caps)
    diag = diag_op(ltd.N, caps, md)
    diag_inv = diag_op(ltd.N, caps, [d.inv() for d in md])
    return TensorOp.chain(ltd.N, wslots, caps, [
        *((diag_inv, (i,)) for i in first),
        *((rmatrix(ltd, st.norm, a, caps).transpose_slot(1, ltd), slots)
          for a, slots in factors),
        *((diag, (i,)) for i in first)])


@pytest.mark.parametrize("family,n", [("C", 1), ("B", 1), ("D", 2)])
@pytest.mark.parametrize("first", [(1,), (1, 2)])
def test_crossing_chain_matches_diagonal_products(family, n, first):
    # the transposed chain of the inverse lowering operator on a two-letter
    # word, the operator in slot 3; M changes an off-diagonal entry, O(h),
    # first at h^2
    ltd = lie_type_data(family, n)
    st = FreeState.vacuum(ltd, solve_normalizer(ltd, L=3), {"h": 3}, 1)
    u = ring("U")
    factors = [(arg_h(arg_diff(ring(f"V{i}"), u), -ltd.kappa), (i, 3))
               for i in (2, 1)]
    got = st._crossing_chain(first, factors, 3)
    assert got == _crossing_chain_by_products(st, first, factors, 3)
    assert got != _crossing_chain_by_products(st, (), factors, 3)


# The roundtrips run at L=3: a sign flip of the hc/2 shift in the inverse
# first shows at h^2.

@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("method", ["chain", "matrix"])
def test_tminus_roundtrip(k, method):
    # "matrix" applies the oracle inverse, so the oracle is itself checked
    # to undo the lowering operator
    ltd, norm, caps, c = make_ctx(L=3)
    u = ring("U")
    w = FreeState.pure(ltd, norm, caps, c,
                       [[ring(f"V{i}") for i in range(1, k + 1)]])
    st = w.apply_tminus(1, u)
    if method == "chain":
        st = st.apply_tminus_inv(1, u, shared_slot=st.open)
    else:
        st = st._compose(
            st._sym_slots(1),
            lambda t: _invert_omega(st._tminus_omega(st._plain_word(t, 1), u),
                                    k),
            lambda t: t.words, st.open)
    assert st == w.with_identity_open()


def test_tminus_roundtrip_reversed():
    ltd, norm, caps, c = make_ctx(L=3)
    u = ring("U")
    w = FreeState.pure(ltd, norm, caps, c, [[ring("V1")]])
    st = w.apply_tminus_inv(1, u)
    st = st.apply_tminus(1, u, shared_slot=st.open)
    assert st == w.with_identity_open()


def test_rtt_swap_involution():
    ltd, norm, caps, c = make_ctx()
    w = FreeState.pure(ltd, norm, caps, c, [[ring("V1"), ring("V2")]])
    swapped = w.rtt_swap(1, 1)
    assert swapped.terms[0].words[0][0][0].mono == RatFunc.var("V2")
    assert swapped.rtt_swap(1, 1) == w


def test_canonicalize_sorts_words():
    ltd, norm, caps, c = make_ctx()
    w = FreeState.pure(ltd, norm, caps, c, [[ring("V2"), ring("V1")]])
    canon = w.canonicalize()
    monos = [repr(a.mono) for a, _ in canon.terms[0].words[0]]
    assert monos == sorted(monos)
    # canonical forms of RTT-equivalent states agree
    assert canon == w.rtt_swap(1, 1).canonicalize()


def test_operator_commutes_with_rtt_rewriting():
    # applying the lowering operator before or after an RTT swap gives the
    # same state, since the swap is an exact rewriting
    ltd, norm, caps, c = make_ctx()
    u = ring("U")
    w = FreeState.pure(ltd, norm, caps, c, [[ring("V1"), ring("V2")]])
    assert w.rtt_swap(1, 1).apply_tminus(1, u) == \
        w.apply_tminus(1, u).rtt_swap(1, 1)


def test_translate_d_vacuum_is_zero():
    ltd, norm, caps, c = make_ctx()
    vac = FreeState.vacuum(ltd, norm, caps, c)
    assert len(vac.translate_d().terms) == 0


def test_translate_d_marks_word_slot():
    ltd, norm, caps, c = make_ctx()
    w = FreeState.pure(ltd, norm, caps, c, [[ring("X")]])
    d = w.translate_d()
    # the coefficient of a pure state does not depend on the argument, so
    # only the derivative-marked term survives
    assert len(d.terms) == 1
    assert d.terms[0].words[0][0][1] == 1


def test_translate_d_coefficient_term():
    # after a lowering operator the coefficient depends on the capped word
    # argument, so the derivative produces a coefficient term as well
    ltd, norm, caps, c = make_ctx(extra_caps={"u": 2})
    w = FreeState.pure(ltd, norm, caps, c, [[Arg.make(1, {"u": -1})]])
    st = w.apply_tminus(1, ring("U"))
    d = st.translate_d()
    assert len(d.terms) == 2
    assert d.caps["u"] == 1
    marks = sorted(t.words[0][0][1] for t in d.terms)
    assert marks == [0, 1]


def test_translate_d_is_linear():
    ltd, norm, caps, c = make_ctx(extra_caps={"u": 2})
    w = FreeState.pure(ltd, norm, caps, c, [[Arg.make(1, {"u": -1})]])
    st = w.apply_tminus(1, ring("U"))
    three = RatFunc.const(3)
    assert st.scale(three).translate_d() == st.translate_d().scale(three)


def test_marked_words_refuse_operators():
    ltd, norm, caps, c = make_ctx()
    d = FreeState.pure(ltd, norm, caps, c, [[ring("X")]]).translate_d()
    with pytest.raises(ValueError):
        d.apply_tminus(1, ring("U"))
    with pytest.raises(ValueError):
        d.apply_tminus_inv(1, ring("U"))
    d2 = FreeState.pure(ltd, norm, caps, c,
                        [[ring("X"), ring("Y")]]).translate_d()
    with pytest.raises(ValueError):
        d2.rtt_swap(1, 1)
    d3 = FreeState.pure(ltd, norm, caps, c,
                        [[ring("X")], [ring("Y")]]).translate_d()
    with pytest.raises(ValueError):
        d3.braiding_s(1, 2, ring("Z"))


def test_merge_vacuum_factor_is_identity():
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[], [ring("X")]])
    assert st.merge_y(1, 2, ring("Zz")) == \
        FreeState.pure(ltd, norm, caps, c, [[ring("X")]])


def test_merge_into_vacuum_shifts_word():
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[ring("X")], []])
    out = st.merge_y(1, 2, ring("Zz"))
    assert out.factors == 1 and out.open == 1
    arg = out.terms[0].words[0][0][0]
    assert repr(arg.mono) == "X*Zz"


def _merge_y_unfused(st, from_factor, into_factor, z):
    """The vertex map built in full, the oracle for ``merge_y``: an identity
    open slot under each inverse lowering operator, raising operators that
    write every row into it, and only then the contraction against the
    consumed word slots."""
    word = st._plain_word(st.terms[0], from_factor)
    nus = []
    for a in word:
        st = st.apply_tminus_inv(into_factor, arg_h(arg_sum(z, a), st.c / 2))
        nus.append(st.open)
    for a, nu in zip(reversed(word), reversed(nus)):
        st = st.apply_tplus(into_factor, arg_sum(z, a), shared_slot=nu)
    return st._contract_pairs(
        [(nu, st._sym_slots(from_factor)[j]) for j, nu in enumerate(nus)],
        drop_factors=(from_factor,))


def _assert_same_state(got, want):
    assert got.open == want.open
    assert [t.key() for t in got.terms] == [t.key() for t in want.terms]
    assert [t.coeff.entries for t in got.terms] == \
        [t.coeff.entries for t in want.terms]


def _reweighted(st, rng):
    """The state with every coefficient entry times a random nonzero
    integer, so that no symmetry of a pure coefficient (a slot's row equal
    to its open twin's) can hide a slot or index mix-up."""
    return st._replace([states.Term(
        TensorOp(t.coeff.N, t.coeff.m, t.coeff.caps,
                 {key: val * rng.choice((-3, -2, -1, 2, 3))
                  for key, val in t.coeff.items()}), t.words)
        for t in st.terms])


@settings(max_examples=16, deadline=None)
@given(case=hst.sampled_from([("C", 1, 3), ("B", 1, 2)]),
       m=hst.integers(0, 2), k=hst.integers(0, 1), b=hst.integers(0, 1),
       into_first=hst.booleans(), c=hst.sampled_from([0, 1]),
       names=hst.permutations(["X", "Y", "V", "W", "U"]),
       seed=hst.integers(0, 2 ** 16))
def test_merge_y_matches_unfused_route(case, m, k, b, into_first, c, names,
                                       seed):
    # consumed words of length m <= 2 into a word of length k, with a
    # bystander factor of length b in front; two terms when k = 1
    family, n, L = case
    if family == "B" and m + k + b > 2:
        b = 0                               # keeps the oracle under 2 s
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    rng = random.Random(seed)
    consumed = [ring(v) for v in names[:m]]
    into = [ring(v) for v in names[m:m + k]]
    bystander = [ring(v) for v in names[4:4 + b]]
    layout = [bystander, into, consumed] if into_first \
        else [bystander, consumed, into]
    into_factor, from_factor = (2, 3) if into_first else (3, 2)
    st = _reweighted(FreeState.pure(ltd, norm, {"h": L}, c, layout), rng)
    if k:
        layout[into_factor - 1] = [ring("Q")]
        other = _reweighted(FreeState.pure(ltd, norm, {"h": L}, c, layout),
                            rng)
        st = st._replace(st.terms + other.terms)
    z = ring("Zz")
    _assert_same_state(st.merge_y(from_factor, into_factor, z),
                       _merge_y_unfused(st, from_factor, into_factor, z))


def test_merge_y_builds_only_the_kept_entries(monkeypatch):
    # B1 L=2: no state coefficient this merge builds has more than the
    # 2,025 entries the contraction keeps; an identity open slot (N
    # starting indices) under a raise that writes all N rows builds
    # N^2 = 9 times as many (18,225)
    ltd = lie_type_data("B", 1)
    three = FreeState.pure(ltd, solve_normalizer(ltd, L=2), {"h": 2}, 1,
                           [[ring("X")], [ring("Y")], [ring("Ww")]])
    built = states._operator
    sizes = []

    def recorded(N, m, caps, entries):
        sizes.append(len({k >> caps.width for k in entries}))
        return built(N, m, caps, entries)

    monkeypatch.setattr(states, "_operator", recorded)
    three.merge_y(1, 2, ring("Zb"))
    assert max(sizes) == 2025


def test_merge_requires_uniform_word():
    ltd, norm, caps, c = make_ctx()
    d = FreeState.pure(ltd, norm, caps, c,
                       [[ring("X")], [ring("Y")]]).translate_d()
    with pytest.raises(ValueError):
        d.merge_y(1, 2, ring("Zz"))


BAD_FACTORS = [("apply_tminus", (0,), "factor 0 "),
               ("apply_tminus_inv", (0,), "factor 0 "),
               ("apply_tplus", (0,), "factor 0 "),
               ("braiding_s", (1, 1), "factor 1 with itself"),
               ("apply_tplus", (3,), "factor 3 "),
               ("braiding_s", (1, 3), "factor 3 "),
               ("braiding_s", (0, 2), "factor 0 "),
               ("apply_tminus", (3,), "factor 3 "),
               ("merge_y", (0, 1), "factor 0 "),
               ("merge_y", (1, 3), "factor 3 ")]


@pytest.mark.parametrize("name,args,match", BAD_FACTORS,
                         ids=[f"{n}{a}" for n, a, _ in BAD_FACTORS])
def test_bad_factor_raises_value_error(name, args, match):
    # a factor outside 1..2 of a two-factor state is named and never acts
    # on another factor's slots
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[ring("X")], [ring("Y")]])
    with pytest.raises(ValueError, match=match):
        getattr(st, name)(*args, ring("Z"))


@pytest.mark.parametrize("i", [0, 2, -1])
def test_bad_word_position_raises_value_error(i):
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[ring("X"), ring("Y")]])
    with pytest.raises(ValueError, match=r"position -?\d+ is not one of "
                                         r"1\.\.2 in factor 1"):
        st.rtt_swap(1, i)
    with pytest.raises(ValueError, match="factor 2 is not one of 1..1"):
        st.rtt_swap(2, 1)
    assert st.rtt_swap(1, 1).rtt_swap(1, 1) == st


def test_subs_ring_var_matches_per_term_rebuild():
    # a ring-variable word and a capped-shift word, as in weak_assoc_chain,
    # with coefficients that depend on both after one lowering operator
    ltd, norm, caps, c = make_ctx(extra_caps={"u": 2})
    st = FreeState.pure(ltd, norm, caps, c,
                        [[ring("Z1")], [Arg.make(1, {"u": -1})]])
    st = st.apply_tminus(2, arg_sum(ring("Z1"), ring("Y")))
    value = RatFunc.var("Z2") * RatFunc.var("Z0")
    got = st.subs_ring_var("Z1", value)
    want = [states.Term(
        t.coeff.map_entries(lambda s: s.subs_ring_var("Z1", value)),
        tuple(tuple((Arg.make(a.mono.subs_var("Z1", value),
                              a.shift_dict()), d) for a, d in w)
              for w in t.words)) for t in st.terms]
    assert len(got.terms) == len(want) == len(st.terms)
    for g, w, t in zip(got.terms, want, st.terms):
        assert g.key() == w.key() != t.key()
        assert g.coeff.residual(w.coeff) == (0, None)
        assert g.coeff.residual(t.coeff)[0] > 0


def test_swap_open_rejects_slots_outside_the_open_block():
    ltd, norm, caps, c = make_ctx()
    st = FreeState.pure(ltd, norm, caps, c, [[ring("X")], [ring("Y")]])
    assert st.swap_open(1, 2).swap_open(2, 1) == st
    for s1, s2 in ((0, 1), (1, 0), (-1, 2), (1, 3)):
        with pytest.raises(ValueError, match="not both open"):
            st.swap_open(s1, s2)


def test_residual_reports_witness():
    ltd, norm, caps, c = make_ctx()
    a = FreeState.pure(ltd, norm, caps, c, [[ring("X")]])
    b = a.scale(RatFunc.const(2))
    count, witness = a.residual(b)
    assert count > 0 and witness is not None
    assert a != b


def test_states_unhashable():
    ltd, norm, caps, c = make_ctx()
    st = FreeState.vacuum(ltd, norm, caps, c)
    with pytest.raises(TypeError):
        hash(st)


def test_compose_drops_cancelled_entries():
    # K on an open slot and one sym slot; two omega entries land on the
    # same result entry with opposite signs, a third does not cancel
    ltd, norm, caps, c = make_ctx()
    one = HSeries.one(caps)
    K = TensorOp(ltd.N, 2, caps, {((0, 0), (0, 0)): one,
                                  ((0, 1), (0, 1)): one})
    st = FreeState(ltd, norm, caps, c, 1,
                   [states.Term(K, (((ring("X"), 0),),))])
    omega = TensorOp(ltd.N, 2, caps, {((0, 0), (0, 0)): one,
                                      ((1, 0), (1, 0)): -one,
                                      ((0, 1), (0, 1)): one})
    out = st._compose([2], lambda t: omega, lambda t: t.words)
    coeff, = (t.coeff for t in out.terms)
    assert coeff.nonzero_count() == 1
    assert [key for key, _ in coeff.items()] == [((0, 1), (0, 1))]
    # without the third entry everything cancels, and the term goes
    omega = TensorOp(ltd.N, 2, caps, {((0, 0), (0, 0)): one,
                                      ((1, 0), (1, 0)): -one})
    assert st._compose([2], lambda t: omega, lambda t: t.words).terms == ()


# -- residuals by comparison ------------------------------------------------
#
# ``FreeState.residual`` and ``TensorOp.residual`` compare instead of
# subtracting.  The subtraction route below is the residual they replaced:
# negate every coefficient of the other side, add, and count what is left.


def _residual_by_subtraction(a: FreeState, b: FreeState):
    buckets = {}
    for sign, state in ((1, a), (-1, b)):
        for term in state.terms:
            key = term.key()
            k = term.coeff if sign == 1 else -term.coeff
            buckets[key] = buckets[key] + k if key in buckets else k
    count = 0
    witness = None
    for key in sorted(buckets):
        diff = buckets[key]
        n = diff.nonzero_count()
        count += n
        if n and witness is None:
            witness = diff.witness()
    return count, witness


_RCAPS = {"h": 2}
_X = RatFunc.var("X")
# equal values over different variable tuples: () and ("X",)
_RCOEFFS = [RatFunc.const(2), RatFunc.const(2).lift(("X",)),
            RatFunc.const(Fraction(1, 2)),
            RatFunc.const(Fraction(1, 2)).lift(("X",)),
            _X, -_X, 1 / (1 - _X)]
_rseries = hst.dictionaries(hst.sampled_from([(0,), (1,)]),
                            hst.sampled_from(_RCOEFFS), max_size=2).map(
    lambda terms: HSeries(_RCAPS, terms))
_rops = hst.dictionaries(
    hst.sampled_from([((i,), (j,)) for i in range(2) for j in range(2)]),
    _rseries, max_size=4).map(lambda e: TensorOp(2, 1, _RCAPS, e))
# one-letter words over two arguments, so terms often share a word key
_rterms = hst.lists(hst.tuples(hst.sampled_from("XY"), _rops), max_size=3)


def _rstate(terms) -> FreeState:
    return FreeState(lie_type_data("C", 1), None, _RCAPS, 1, 0, [
        states.Term(op, (((ring(v), 0),),)) for v, op in terms])


def _rop(coeff) -> TensorOp:
    return TensorOp(2, 1, _RCAPS, {((0,), (0,)): HSeries(_RCAPS, {(0,): coeff})})


@settings(max_examples=200, deadline=None)
@given(_rterms, _rterms)
# X - X cancels before 1/2 is subtracted, so the witness holds the constant
# over no variables, and X - (X + 1/2) over ("X",): both print -1/2
@example([("X", _rop(_X))],
         [("X", _rop(_X)), ("X", _rop(RatFunc.const(Fraction(1, 2))))])
def test_residual_matches_subtraction_route(left, right):
    a, b = _rstate(left), _rstate(right)
    want = _residual_by_subtraction(a, b)
    assert a.residual(b) == want
    assert (a == b) == (want[0] == 0)
    for (_, x), (_, y) in itertools.product(left, right):
        diff = x - y
        assert x.residual(y) == (diff.nonzero_count(), diff.witness())
        assert (x == y) == diff.is_zero()
