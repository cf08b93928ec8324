import itertools
from fractions import Fraction

import pytest

from rmx import states
from rmx.hseries import HSeries
from rmx.lietype import lie_type_data
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, solve_normalizer
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
    for (row, col), val in omega.entries.items():
        P, i, Pp = row[:k], row[k], row[k + 1:]
        Q, j, Qp = col[:k], col[k], col[k + 1:]
        flat[((i,) + Pp + Qp, (j,) + P + Q)] = val
    inv = TensorOp(omega.N, m, omega.caps, flat).inv()
    out = {}
    for (row, col), val in inv.entries.items():
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


def test_merge_requires_uniform_word():
    ltd, norm, caps, c = make_ctx()
    d = FreeState.pure(ltd, norm, caps, c,
                       [[ring("X")], [ring("Y")]]).translate_d()
    with pytest.raises(ValueError):
        d.merge_y(1, 2, ring("Zz"))


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
