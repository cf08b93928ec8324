"""Free-state realization of the vacuum module and its operator calculus.

A state is a linear combination of ordered generator words acting on the
vacuum vector.  Each term keeps

  * ``words`` — per tensor factor, an ordered tuple of slot arguments
    a_1, ..., a_k denoting the product T(a_1)...T(a_k) applied to the
    vacuum (a slot may carry a formal derivative order), and
  * ``coeff`` — a sparse tensor over ``open + sym`` auxiliary slots: the
    first ``open`` slots are genuine matrix slots of the ambient tensor
    space, the remaining ``sym`` slots carry the row/column indices of the
    generator word entries, one slot per word position, factors in order.

The raising operator adds word slots; the lowering operator, its inverse,
the braiding and the RTT swap act through "sandwich tensors": an operator
expression X_0 . T(b_1) . X_1 . T(b_2) ... X_n with matrix factors X_i is
encoded as a tensor on ``wordop + extra + sym`` slots.  Each X_i is one
ordered product of embedded R-matrices (``TensorOp.chain``).  The sandwich
is built by a walk from the left: a generator at operator slot s reads its
row index from the current column at s and writes each column index back
into s, recording both on its sym slot; a matrix factor is joined on its
rows.  Composing a sandwich into a state contracts its wordop block with
the state's sym block and rewrites the word; an operator that opens a new
matrix slot first appends an identity open slot and then acts on it.  The
vertex map is the exception: its slots are contracted away at the end, so
each is appended pinned to the one index pair the contraction keeps (see
``merge_y``).

Coefficient entries are keyed by the packed ints of ``tensorop``: one
b-bit field per row and per column index, rows of slots 1..m then columns,
slot 1 most significant, so int order is (row, col) tuple order and
residual witnesses keep it.  The two contractions here, a sandwich's
walk (``_chain_omega``) and a sandwich composed into a state
(``FreeState._compose``), are each one ``hseries._join`` of streams whose
keys are read and written through ``_layout`` masks and relabelled with
``_mover``.  Every R-matrix is 1 + O(h), so most pairs of terms in a
sandwich pass the cap of h; the join's term index, sorted by exponent of
h, ends each walk before them.  ``_raise``, ``_with_pinned_open`` and
``_contract_pairs`` pass entries on unfiltered.

All operations return new states; nothing is mutated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .hseries import Caps, HSeries, _add_into, _join
from .ratfunc import RatFunc
from .rmatrix import Arg, m_diag, rhat_inv, rmatrix
from .tensorop import TensorOp, _layout, _mover, _operator

__all__ = ["FreeState", "Term", "arg_sum", "arg_diff", "arg_h"]

# ---------------------------------------------------------------- arguments

def arg_sum(a: Arg, b: Arg) -> Arg:
    """Additive sum of two spectral arguments (product of images)."""
    d = a.shift_dict()
    for n, c in b.shift_dict().items():
        d[n] = d.get(n, Fraction(0)) + c
    return Arg.make(a.mono * b.mono, d)


def arg_diff(a: Arg, b: Arg) -> Arg:
    """Additive difference a - b."""
    return arg_sum(a, b.neg())


def arg_h(a: Arg, delta) -> Arg:
    """Additive shift a + delta*h (exponential image gains e^{-delta*h})."""
    return a.plus({"h": -Fraction(delta)})


def _slot_key(slot):
    arg, dorder = slot
    return (repr(arg.mono), arg.shift, dorder)


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Term:
    """One generator word (per factor) with its coefficient tensor."""
    coeff: TensorOp
    words: tuple     # tuple of factor words; each word is a tuple of
                     # (Arg, derivative-order) pairs

    def word_lengths(self):
        return tuple(len(w) for w in self.words)

    def key(self):
        return tuple(tuple(_slot_key(s) for s in w) for w in self.words)


def _chain_omega(N, caps, wslots, sym_wordops, mats) -> TensorOp:
    """Sandwich tensor for X_0 T(b_1) X_1 T(b_2) ... X_n.

    ``wslots`` is the number of operator slots (word slots plus extras);
    ``sym_wordops[j]`` is the 1-based operator slot carrying the j-th
    generator; ``mats`` has length len(sym_wordops)+1, each entry a TensorOp
    on the operator slots (or None for identity after the first).  The
    result lives on wslots + len(sym_wordops) slots, sym slots appended in
    generator order.

    The walk keeps a frontier of keys in the result's layout (the sym slots
    of generators not yet read at 0) -> series over the product so far."""
    if len(mats) != len(sym_wordops) + 1:
        raise ValueError(f"{len(mats)} matrices for "
                         f"{len(sym_wordops)} generators")
    caps = Caps.of(caps)
    for mat in mats:
        if mat is not None:
            if mat.m != wslots:
                raise ValueError(f"a matrix on {mat.m} slots, not {wslots}")
            caps.match(mat.caps)
    n = len(sym_wordops)
    layout, mlayout = _layout(N, wslots + n), _layout(N, wslots)
    f, tail = layout.field, n * layout.b        # tail: the sym columns' width
    ops = layout.mask((), range(1, wslots + 1))  # the current columns
    keep, cols = layout.full ^ ops, (1 << mlayout.half) - 1
    start = _mover(mlayout, layout,
                   tuple((s, s) for s in range(1, wslots + 1)))
    frontier = {start(key): val for key, val in mats[0].entries.items()}
    for j, (wop, mat) in enumerate(zip(sym_wordops, mats[1:])):
        c = layout.col(wop)
        clear = layout.full ^ f << c
        grow, puts = layout.row(wslots + j + 1), [
            x << c | x << layout.col(wslots + j + 1) for x in range(N)]
        frontier = {key & clear | (key >> c & f) << grow | put: val
                    for key, val in frontier.items() for put in puts}
        if mat is not None:
            # the frontier's current columns meet the matrix's rows
            frontier = _join(caps, (((key & ops) >> tail, key & keep, val)
                                    for key, val in frontier.items()),
                             ((key >> mlayout.half, (key & cols) << tail, val)
                              for key, val in mat.entries.items()))
    return _operator(N, wslots + n, caps, frontier)


def _placed(n, placed):
    """The n + 1 matrix factors of a sandwich with n generators: each
    ``(position, matrix)`` pair puts its matrix after the position-th
    generator, matrices at one position multiply in order, and the other
    positions hold None."""
    mats = [None] * (n + 1)
    for pos, mat in placed:
        mats[pos] = mat if mats[pos] is None else mats[pos] * mat
    return mats


# ---------------------------------------------------------------- states

class FreeState:
    """An element of the free vacuum module with open matrix slots.

    ``open`` counts the leading auxiliary slots of every coefficient that
    are genuine matrix slots of the ambient space; the remaining slots
    correspond one-to-one to word positions (factor by factor, left to
    right).  All terms share the same open count, factor count and word
    lengths, so the slot layout is uniform across the state.  Every
    coefficient holds the state's caps.
    """

    __slots__ = ("ltd", "norm", "caps", "c", "open", "terms")

    def __init__(self, ltd, norm, caps, c, open_slots, terms):
        self.ltd = ltd
        self.norm = norm
        self.caps = Caps.of(caps)
        self.c = Fraction(c)
        self.open = open_slots
        terms = tuple(t for t in terms if not t.coeff.is_zero())
        if terms:
            lens = terms[0].word_lengths()
            for t in terms:
                if t.word_lengths() != lens:
                    raise ValueError("inconsistent word layout")
                if t.coeff.m != open_slots + sum(lens):
                    raise ValueError("coefficient slots do not fit the layout")
                self.caps.match(t.coeff.caps)
        self.terms = terms

    # -- constructors --------------------------------------------------

    @staticmethod
    def vacuum(ltd, norm, caps, c) -> "FreeState":
        k = TensorOp.identity(ltd.N, 0, caps)
        return FreeState(ltd, norm, caps, c, 0, [Term(k, ((),))])

    @staticmethod
    def pure(ltd, norm, caps, c, words) -> "FreeState":
        """The monomial state with the given per-factor argument words.

        Each word position gets one open matrix slot (in global word order)
        whose row and column indices coincide with those of the generator.
        """
        words = tuple(tuple((a, 0) for a in w) for w in words)
        total = sum(len(w) for w in words)
        one = HSeries.one(caps)
        idx = list(itertools.product(range(ltd.N), repeat=total))
        k = TensorOp(ltd.N, 2 * total, caps,
                     {(r + r, c + c): one for r in idx for c in idx})
        return FreeState(ltd, norm, caps, c, total, [Term(k, words)])

    # -- layout helpers ------------------------------------------------

    @property
    def factors(self) -> int:
        return len(self.terms[0].words) if self.terms else 0

    def _word(self, factor: int, *positions, term=None) -> tuple:
        """The word of a 1-based factor in ``term``, by default the first
        term (every term has the same word lengths).  A factor outside
        1..factors, or a 1-based word position outside the word, raises a
        ValueError that names it."""
        if not 1 <= factor <= self.factors:
            raise ValueError(f"factor {factor} is not one of "
                             f"1..{self.factors}")
        word = (self.terms[0] if term is None else term).words[factor - 1]
        for p in positions:
            if not 1 <= p <= len(word):
                raise ValueError(f"position {p} is not one of "
                                 f"1..{len(word)} in factor {factor}")
        return word

    def word_length(self, factor: int) -> int:
        return len(self._word(factor))

    def _sym_base(self, factor: int) -> int:
        """Global slot index before the first sym slot of a factor (1-based)."""
        self._word(factor)
        return self.open + sum(map(len, self.terms[0].words[:factor - 1]))

    def _sym_slots(self, factor: int):
        base = self._sym_base(factor)
        return tuple(base + j for j in range(1, self.word_length(factor) + 1))

    def _replace(self, terms, open_slots=None) -> "FreeState":
        return FreeState(self.ltd, self.norm, self.caps, self.c,
                         self.open if open_slots is None else open_slots,
                         terms)

    def _plain_word(self, term, factor):
        word = self._word(factor, term=term)
        if any(d for _, d in word):
            raise ValueError("operator application on a derivative-marked word")
        return tuple(a for a, _ in word)

    # -- sandwich composition ------------------------------------------

    def _open_slot(self, shared_slot):
        """The state and the open slot an operator's matrix factor acts on:
        ``shared_slot``, or, for None, a new identity open slot appended
        after the existing open block."""
        if shared_slot is not None:
            return self, shared_slot
        st = self.with_identity_open()
        return st, st.open

    def _compose(self, targets, omega_of_term, new_words_of_term, shared=None):
        """Contract a sandwich tensor into every term.

        ``targets`` are the global sym slots being rewritten; the tensor
        returned by ``omega_of_term`` lives on w + e + w slots (w wordop,
        e extras, w sym), with e = 0 for ``shared=None`` and e = 1 for an
        open slot s, onto which the extra's matrix factor is multiplied from
        the left.  ``new_words_of_term`` gives the replacement words per
        term.
        """
        w = len(targets)
        e = 0 if shared is None else 1
        out_terms = []
        for term in self.terms:
            K = term.coeff
            omega = omega_of_term(term)
            if omega.m != 2 * w + e:
                raise ValueError(f"omega has {omega.m} slots, not {2 * w + e}")
            caps = K.caps.match(omega.caps)
            layout, olayout = _layout(K.N, K.m), _layout(K.N, omega.m)
            # omega's P, Q and J meet K's target rows and columns and the
            # shared row; its P', Q' and I replace them
            sh = layout.row(shared) if e else None
            match = _mover(olayout, layout,
                           tuple(zip(range(1, w + 1), targets)),
                           ((olayout.col(w + 1), sh),) if e else ())
            put = _mover(olayout, layout,
                         tuple(zip(range(w + e + 1, 2 * w + e + 1), targets)),
                         ((olayout.row(w + 1), sh),) if e else ())
            written = layout.mask((*targets, *(shared,) * e), targets)
            kept = layout.full ^ written
            entries = _join(caps, ((key & written, key & kept, kval)
                                   for key, kval in K.entries.items()),
                            ((match(okey), put(okey), oval)
                             for okey, oval in omega.entries.items()))
            out_terms.append(Term(_operator(K.N, K.m, caps, entries),
                                  new_words_of_term(term)))
        return self._replace(out_terms)

    # -- raising operator ----------------------------------------------

    def apply_tplus(self, factor: int, arg: Arg, shared_slot=None) -> "FreeState":
        """Left-multiply by the raising generator matrix at the given
        argument, prepending a word slot to the factor.

        With ``shared_slot=None`` a fresh open matrix slot is appended;
        otherwise the generator's matrix factor is multiplied from the left
        onto the existing open slot."""
        st, nu = self._open_slot(shared_slot)
        return st._raise(factor, arg, nu)

    def _raise(self, factor: int, arg: Arg, nu: int, pin=None) -> "FreeState":
        """The raising generator on open slot ``nu``: the generator's row p
        goes to both ``nu`` and the new word slot, whose column is the old
        row of ``nu``.  Every p is written, or with ``pin`` only the row at
        slot ``pin``."""
        pos = self._sym_base(factor)        # the new sym slot is pos + 1
        out_terms = []
        for term in self.terms:
            K = term.coeff
            old, new = _layout(K.N, K.m), _layout(K.N, K.m + 1)
            # nu's old row becomes the new slot's column
            move = _mover(old, new, tuple(
                (s, s + (s > pos)) for s in range(1, K.m + 1) if s != nu),
                ((old.col(nu), new.col(nu)), (old.row(nu), new.col(pos + 1))))
            puts = [p << new.row(nu) | p << new.row(pos + 1)
                    for p in range(K.N)]
            if pin is None:
                entries = {move(key) | put: val
                           for key, val in K.entries.items() for put in puts}
            else:
                s, f = old.row(pin), old.field
                entries = {move(key) | puts[key >> s & f]: val
                           for key, val in K.entries.items()}
            out_terms.append(Term(
                _operator(K.N, K.m + 1, K.caps, entries),
                _with_word(term.words, factor,
                           ((arg, 0),) + term.words[factor - 1])))
        return self._replace(out_terms)

    # -- sandwich builders ----------------------------------------------

    def _r_chain(self, wslots, factors, inverse=False):
        """The ordered product on ``wslots`` operator slots of one R-matrix
        (inverse R-matrix for ``inverse``) per ``(arg, slots)`` factor."""
        build = rhat_inv if inverse else rmatrix
        return TensorOp.chain(self.ltd.N, wslots, self.caps, [
            (build(self.ltd, self.norm, a, self.caps), slots)
            for a, slots in factors])

    def _crossing_chain(self, first, factors, wslots):
        """The crossing factor on ``wslots`` operator slots: M^{-1} on the
        ``first`` slots, the R-matrices transposed in their first slot at
        the ``(arg, slots)`` factors, then M on ``first``, formed as the
        chain conjugated by M in each first slot.

        With the twisted transposition (e_ij -> eps_i eps_j e_{j'i'}) M
        transposes to its own inverse, which exchanges the roles of M and
        M^{-1} relative to the untwisted convention; this is the choice
        under which the transposed-chain pairing identities hold exactly
        (verified by the round-trip, unitarity and weak-associativity
        tests)."""
        N, caps, ltd = self.ltd.N, self.caps, self.ltd
        out = TensorOp.chain(N, wslots, caps, [
            (rmatrix(ltd, self.norm, a, caps).transpose_slot(1, ltd), slots)
            for a, slots in factors])
        md = m_diag(ltd, caps)
        for i in first:
            out = out.conj_diag(md, i, -1)
        return out

    def _crossing(self, first, factors, wslots, bomega):
        """The crossing half of the inverse lowering operator and of the
        braiding: the crossing factor combined "LR" with the walk
        ``bomega`` split at ``first``."""
        aemb = self._crossing_chain(first, factors, wslots).embed(
            tuple(range(1, wslots + 1)), bomega.m)
        return aemb.odot(bomega, tuple(first), "LR")

    # -- lowering operator ---------------------------------------------

    def _tminus_omega(self, word_args, u: Arg):
        """Sandwich tensor of the lowering operator on a given word.

        The action is the conjugation by the two displayed chains: the
        left chain of R-matrices at arguments -u + a_i - hc/2 and the right
        chain of inverses at -u + a_i + hc/2, both linking word slot i to
        the operator's own matrix slot."""
        k = len(word_args)
        nu = k + 1
        hc2 = self.c / 2
        left = self._r_chain(nu, [(arg_h(arg_diff(a, u), -hc2), (i, nu))
                                  for i, a in enumerate(word_args, start=1)])
        right = self._r_chain(nu, [
            (arg_h(arg_diff(word_args[i - 1], u), hc2), (i, nu))
            for i in range(k, 0, -1)], inverse=True)
        return _chain_omega(self.ltd.N, self.caps, nu, list(range(1, k + 1)),
                            _placed(k, [(0, left), (k, right)]))

    def _tminus_inv_omega(self, word_args, u: Arg):
        """Sandwich tensor of the inverse lowering operator, the displayed
        split formula: the crossing half with the transposed chain at
        -u + a_i - hc/2 - kappa*h, slots i descending, against the word
        with the plain chain at -u + a_i + hc/2 to its right."""
        k = len(word_args)
        nu = k + 1
        N, caps = self.ltd.N, self.caps
        plus = self._r_chain(nu, [(arg_h(arg_diff(a, u), self.c / 2), (i, nu))
                                  for i, a in enumerate(word_args, start=1)])
        bomega = _chain_omega(N, caps, nu, list(range(1, k + 1)), _placed(
            k, [(0, TensorOp.identity(N, nu, caps)), (k, plus)]))
        shift = -self.c / 2 - self.ltd.kappa
        return self._crossing(
            range(1, k + 1),
            [(arg_h(arg_diff(word_args[i - 1], u), shift), (i, nu))
             for i in range(k, 0, -1)], nu, bomega)

    def _lower(self, omega, factor: int, u: Arg, shared_slot) -> "FreeState":
        """Contract the sandwich ``omega(state, word, u)`` into one factor,
        on an open slot as ``_open_slot`` gives it."""
        st, nu = self._open_slot(shared_slot)
        return st._compose(st._sym_slots(factor),
                           lambda t: omega(st, st._plain_word(t, factor), u),
                           lambda t: t.words, nu)

    def apply_tminus(self, factor: int, u: Arg, shared_slot=None) -> "FreeState":
        """Apply the lowering operator at argument u to one factor.

        With ``shared_slot=None`` a fresh open matrix slot is appended;
        otherwise the operator's matrix factor is multiplied from the left
        onto the existing open slot."""
        return self._lower(FreeState._tminus_omega, factor, u, shared_slot)

    def apply_tminus_inv(self, factor: int, u: Arg, shared_slot=None) -> "FreeState":
        """Apply the inverse of the lowering operator at argument u, with
        open slots as in ``apply_tminus``."""
        return self._lower(FreeState._tminus_inv_omega, factor, u, shared_slot)

    # -- open-slot algebra ---------------------------------------------

    def mul_open(self, op: TensorOp, slots) -> "FreeState":
        """Left-multiply the open-slot block by an operator embedded at the
        given open slots."""
        return self._map_coeff(lambda K: op.embed(tuple(slots), K.m) * K)

    def mul_open_right(self, op: TensorOp, slots) -> "FreeState":
        """Right-multiply the open-slot block by an embedded operator."""
        return self._map_coeff(lambda K: K * op.embed(tuple(slots), K.m))

    def odot_open(self, op: TensorOp, slots, first_slots) -> "FreeState":
        """Combine an operator on the open slots with the state coefficient
        by the ordered slot product "LR", splitting at ``first_slots``."""
        def act(K):
            return op.embed(tuple(slots), K.m).odot(K, first_slots, "LR")
        return self._map_coeff(act)

    def swap_open(self, s1: int, s2: int) -> "FreeState":
        if not (1 <= s1 <= self.open and 1 <= s2 <= self.open):
            raise ValueError(f"slots {s1}, {s2} are not both open")
        return self._map_coeff(lambda K: K.swap_slots(s1, s2))

    def with_identity_open(self) -> "FreeState":
        """Append one open matrix slot carrying the identity."""
        def act(K):
            kept = tuple(range(1, self.open + 1)) \
                + tuple(range(self.open + 2, K.m + 2))
            return K.embed(kept, K.m + 1)
        return self._map_coeff(act, self.open + 1)

    def _map_coeff(self, fn, open_slots=None) -> "FreeState":
        return self._replace([Term(fn(t.coeff), t.words) for t in self.terms],
                             open_slots)

    def map_entries(self, fn) -> "FreeState":
        return self._map_coeff(lambda K: K.map_entries(fn))

    def scale(self, scalar) -> "FreeState":
        return self._map_coeff(lambda K: K.scale(scalar))

    def subs_ring_var(self, name, value) -> "FreeState":
        """Substitute the ring variable ``name`` by ``value`` in every
        coefficient and every word argument, by one substitution map."""
        sub = RatFunc.substitution(name, value)

        def word(w):
            return tuple((Arg(sub(a.mono), a.shift), d) for a, d in w)
        return self._replace([Term(t.coeff.map_entries(
                                       lambda s: s.map_coeffs(sub)),
                                   tuple(map(word, t.words)))
                              for t in self.terms])

    # -- braiding -------------------------------------------------------

    def braiding_s(self, f1: int, f2: int, z: Arg) -> "FreeState":
        """Apply the braiding map at argument z to an ordered factor pair.

        The words are unchanged; the coefficient is hit by the displayed
        combination: the diagonal-conjugated transposed backward chain at
        z + u_i - v_j - h(c+kappa) on the first factor's block, slot-ordered
        against the sandwich of plain chains at z + u_i - v_j (outer) and the
        inverse chain at z + u_i - v_j + hc (between the two words)."""
        if f1 == f2:
            raise ValueError(f"cannot braid factor {f1} with itself")
        m = self.word_length(f1)
        targets = self._sym_slots(f1) + self._sym_slots(f2)
        wslots = m + self.word_length(f2)

        def omega_of(term):
            us = self._plain_word(term, f1)
            vs = self._plain_word(term, f2)

            def arg(i, j, hshift):
                return arg_h(arg_sum(z, arg_diff(us[i - 1], vs[j - m - 1])),
                             hshift)

            def chain(hshift, inverse=False):
                # block chain: first-block index ascending outer,
                # second-block index descending inner; the inverse chain
                # multiplies the inverted factors in reversed order
                order = [(i, j) for i in range(1, m + 1)
                         for j in range(wslots, m, -1)]
                if inverse:
                    order.reverse()
                return self._r_chain(wslots, [(arg(i, j, hshift), (i, j))
                                              for i, j in order], inverse)

            outer = chain(0)
            bomega = _chain_omega(
                self.ltd.N, self.caps, wslots, list(range(1, wslots + 1)),
                _placed(wslots, [(0, outer), (m, chain(self.c, inverse=True)),
                                 (wslots, outer)]))
            shift = -(self.c + self.ltd.kappa)
            return self._crossing(
                range(1, m + 1),
                [(arg(i, j, shift), (i, j)) for i in range(m, 0, -1)
                 for j in range(m + 1, wslots + 1)], wslots, bomega)

        return self._compose(targets, omega_of, lambda t: t.words)

    # -- vertex maps ----------------------------------------------------

    def merge_y(self, from_factor: int, into_factor: int, z: Arg) -> "FreeState":
        """Apply the vertex map of the ``from`` factor's word at argument z
        to the ``into`` factor.

        Realizes the composite raising-times-inverse-lowering action: for a
        word (a_1, ..., a_m), inverse lowering operators at z + a_j + hc/2
        are applied right to left (each on its own new matrix slot), then
        raising operators at z + a_j share those slots; finally each new
        slot is contracted with the corresponding word slot of the consumed
        factor, row with row and column with column.  The additive and
        multiplicative coordinate pictures coincide at the level of
        argument images, so the same routine serves the vacuum module map
        with a ring-variable z.

        Only the entries that the contraction keeps are built.  Neither
        operator changes the column of its open slot, and the slot starts
        as the identity, so of its N starting indices only the consumed
        slot's column survives: the slot is opened pinned there.  The
        raising step's new row lands on the open slot's row, so it must
        equal the consumed slot's row, and only that row is written."""
        if from_factor == into_factor:
            raise ValueError("cannot merge a factor into itself")
        word = self._plain_word(self.terms[0], from_factor)
        self._word(into_factor)
        keys = {t.key()[from_factor - 1] for t in self.terms}
        if len(keys) > 1:
            raise ValueError("merge requires a uniform word on the consumed factor")
        st = self
        nus = []
        for j, a in enumerate(word):       # rightmost operator first
            st = st._with_pinned_open(st._sym_slots(from_factor)[j])
            st = st.apply_tminus_inv(into_factor,
                                     arg_h(arg_sum(z, a), st.c / 2),
                                     shared_slot=st.open)
            nus.append(st.open)
        for j in reversed(range(len(word))):
            st = st._raise(into_factor, arg_sum(z, word[j]), nus[j],
                           pin=st._sym_slots(from_factor)[j])
        pairs = [(nu, st._sym_slots(from_factor)[j])
                 for j, nu in enumerate(nus)]
        return st._drop_pairs(pairs, drop_factors=(from_factor,))

    def _with_pinned_open(self, slot: int) -> "FreeState":
        """Append one open matrix slot whose row and column both equal the
        column index at ``slot``: the entries of ``with_identity_open``
        that a contraction of the new slot against ``slot`` can keep."""
        o = self.open

        def act(K):
            old, new = _layout(K.N, K.m), _layout(K.N, K.m + 1)
            move = _mover(old, new, tuple((s, s + (s > o))
                                          for s in range(1, K.m + 1)))
            puts = [c << new.row(o + 1) | c << new.col(o + 1)
                    for c in range(K.N)]
            s, f = old.col(slot), old.field
            return _operator(K.N, K.m + 1, K.caps, {
                move(key) | puts[key >> s & f]: val
                for key, val in K.entries.items()})
        return self._map_coeff(act, o + 1)

    def _contract_pairs(self, pairs, drop_factors=()) -> "FreeState":
        """Contract open slots against sym slots (row with row, column with
        column, summed) and delete both; optionally drop the factors whose
        word slots were consumed."""
        def agreeing(K):
            layout = _layout(K.N, K.m)
            firsts = [a for a, _ in pairs]
            onto = _mover(layout, layout, tuple((b, a) for a, b in pairs))
            mask = layout.mask(firsts, firsts)
            return _operator(K.N, K.m, K.caps, {
                key: val for key, val in K.entries.items()
                if key & mask == onto(key)})
        return self._map_coeff(agreeing)._drop_pairs(pairs, drop_factors)

    def _drop_pairs(self, pairs, drop_factors=()) -> "FreeState":
        """Delete the slots of ``pairs``, summing the entries that then share
        a key: the contraction of pairs whose rows and columns agree in every
        entry, as ``merge_y`` builds them; optionally drop the factors whose
        word slots were consumed."""
        drop = {s for p in pairs for s in p}
        open_drop = sum(1 for s in drop if s <= self.open)
        out_terms = []
        for term in self.terms:
            K = term.coeff
            kept = [s for s in range(1, K.m + 1) if s not in drop]
            old, new = _layout(K.N, K.m), _layout(K.N, len(kept))
            move = _mover(old, new, tuple(zip(kept, range(1, len(kept) + 1))))
            entries = {}
            for key, val in K.entries.items():
                _add_into(entries, move(key), val)
            words = term.words
            for df in sorted(drop_factors, reverse=True):
                words = words[:df - 1] + words[df:]
            out_terms.append(Term(
                _operator(K.N, len(kept), K.caps, entries), words))
        return self._replace(out_terms, self.open - open_drop)

    # -- translation ----------------------------------------------------

    def translate_d(self) -> "FreeState":
        """The translation operator: the sum over word slots of the formal
        derivative with respect to the slot argument.

        Each slot contributes two terms: the derivative of the coefficient
        (for a ring-variable argument Z = e^{-a} this is -Z d/dZ; for a
        capped-variable argument, formal differentiation with the recorded
        cap loss) and the original coefficient with the slot's derivative
        order raised.  The vacuum has no slots, so it maps to zero."""
        out = []
        for term in self.terms:
            for f, word in enumerate(term.words, start=1):
                for j, (arg, dorder) in enumerate(word):
                    dk = _arg_derivative(term.coeff, arg)
                    if not dk.is_zero():
                        out.append(Term(dk, term.words))
                    out.append(Term(term.coeff, _with_word(
                        term.words, f,
                        word[:j] + ((arg, dorder + 1),) + word[j + 1:])))
        # every coefficient has the state's cap names; a capped derivative
        # lowers one cap
        caps = {n: min(t.coeff.caps[n] for t in out)
                for n in self.caps} if out else self.caps
        return FreeState(self.ltd, self.norm, caps, self.c, self.open,
                         [Term(_with_caps(t.coeff, caps), t.words)
                          for t in out])

    # -- RTT swap and canonical order -----------------------------------

    def rtt_swap(self, factor: int, i: int) -> "FreeState":
        """Exchange word positions i and i+1 of a factor through the RTT
        relation: the coefficient is rewritten by the inverse R-matrix at
        the argument difference on one side and the R-matrix on the other."""
        self._word(factor, i, i + 1)
        targets = self._sym_slots(factor)[i - 1:i + 1]
        N, caps = self.ltd.N, self.caps

        def omega_of(term):
            a, b = self._word(factor, term=term)[i - 1:i + 1]
            if a[1] or b[1]:
                raise ValueError("swap on a derivative-marked word")
            d = arg_diff(a[0], b[0])
            r = rmatrix(self.ltd, self.norm, d, caps)
            rinv = rhat_inv(self.ltd, self.norm, d, caps)
            return _chain_omega(N, caps, 2, [2, 1], [rinv, None, r])

        def new_words(term):
            w = term.words[factor - 1]
            return _with_word(term.words, factor,
                              w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:])

        return self._compose(targets, omega_of, new_words)

    def canonicalize(self) -> "FreeState":
        """Sort every word into the fixed total order on argument images by
        adjacent RTT swaps.  Arguments with equal zeroth-order image are
        never exchanged (the rewrite would be singular there); their
        relative order is preserved."""
        out_terms = []
        for term in self.terms:
            st = self._replace([term])
            while st.terms and (at := _descent(st.terms[0])):
                st = st.rtt_swap(*at)
            out_terms.extend(st.terms)
        return self._replace(out_terms)

    # -- comparison -----------------------------------------------------

    def residual(self, other: "FreeState"):
        """Exact difference: (number of nonzero residual entries, witness),
        compared word key by word key with ``TensorOp.residual``."""
        if self.open != other.open:
            raise ValueError("open-slot layouts differ")
        mine, theirs = {}, {}
        for sums, state in ((mine, self), (theirs, other)):
            for term in state.terms:
                key, k = term.key(), term.coeff
                sums[key] = sums[key] + k if key in sums else k
        count, witness = 0, None
        for key in sorted(mine.keys() | theirs.keys()):
            shape = mine.get(key) or theirs[key]
            zero = _operator(shape.N, shape.m, self.caps, {})
            n, wit = mine.get(key, zero).residual(theirs.get(key, zero))
            count += n
            witness = witness or wit
        return count, witness

    def __eq__(self, other):
        if not isinstance(other, FreeState):
            return NotImplemented
        return self.residual(other)[0] == 0

    def __hash__(self):
        raise TypeError("FreeState is unhashable")

    def __repr__(self):
        lens = self.terms[0].word_lengths() if self.terms else ()
        return (f"FreeState(c={self.c}, open={self.open}, "
                f"factors={self.factors}, word_lengths={lens}, "
                f"terms={len(self.terms)})")


# ---------------------------------------------------------------- helpers

def _descent(term: Term):
    """The first (factor, i) whose word positions i and i+1 are out of the
    order on zeroth-order argument images, or None."""
    return next(((f, i) for f, word in enumerate(term.words, start=1)
                 for i in range(1, len(word))
                 if _slot_key(word[i])[0] < _slot_key(word[i - 1])[0]), None)


def _with_word(words: tuple, factor: int, word: tuple) -> tuple:
    """``words`` with the 1-based factor's word replaced by ``word``."""
    return words[:factor - 1] + (word,) + words[factor:]


def _arg_derivative(K: TensorOp, arg: Arg):
    """Derivative of a coefficient with respect to a slot argument.

    Supported argument shapes: a single ring variable Z (additive a with
    Z = e^{-a}, so d/da = -Z d/dZ) or a single capped variable with a
    rational coefficient.  Always returns an operator, with no entries
    when the coefficient does not depend on the argument's variable; any
    other argument shape raises ValueError."""
    mono = arg.mono
    shift = arg.shift
    if not shift and not mono.is_constant():
        names = mono.trim().vars
        if len(names) != 1:
            raise ValueError(f"cannot attribute a derivative to {arg}")
        name = names[0]
        z = RatFunc.var(name)
        return K.map_entries(
            lambda s: s.diff_ring_var(name).map_coeffs(lambda c: -(c * z)))
    if mono.is_constant() and len(shift) == 1:
        (name, coeff), = shift
        if name not in K.caps or K.caps[name] < 2:
            raise ValueError(f"cap of {name!r} too small to differentiate")
        # image is e^{coeff*name}, so the additive argument is -coeff*name
        scale = -1 / Fraction(coeff)
        reduced = {**K.caps, name: K.caps[name] - 1}
        return TensorOp(K.N, K.m, reduced,
                        {key: val.diff_capped(name) * scale
                         for key, val in K.entries.items()})
    raise ValueError(f"cannot attribute a derivative to {arg}")


def _with_caps(K: TensorOp, caps) -> TensorOp:
    caps = Caps.of(caps)
    if K.caps is caps:
        return K
    return TensorOp(K.N, K.m, caps,
                    {key: val.with_caps(caps)
                     for key, val in K.entries.items()})
