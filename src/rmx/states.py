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
matrix slot first appends an identity open slot and then acts on it.

All operations return new states; nothing is mutated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .hseries import Caps, HSeries
from .ratfunc import RatFunc
from .rmatrix import Arg, diag_op, m_diag, rhat_inv, rmatrix
from .tensorop import TensorOp

__all__ = ["FreeState", "Term", "arg_sum", "arg_diff", "arg_h"]

# Crossing-type combinations put the diagonal matrix M on the word slots of
# a slot-transposed chain as M^{-1} before the chain and M after it (the
# sign -1 of ``TensorOp.conj_diag``).  With the twisted transposition used
# here (e_ij -> eps_i eps_j e_{j'i'}) M transposes to its own inverse, which
# exchanges the roles of M and M^{-1} relative to the untwisted convention;
# this is the choice under which the transposed-chain pairing identities
# hold exactly (verified by the round-trip, unitarity and
# weak-associativity tests).


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

    The walk keeps a frontier (row, current column, generator rows so far,
    generator columns so far) -> series over the product read so far."""
    if len(mats) != len(sym_wordops) + 1:
        raise ValueError(f"{len(mats)} matrices for "
                         f"{len(sym_wordops)} generators")
    frontier = {(row, col, (), ()): val
                for (row, col), val in mats[0].entries.items()}
    for wop, mat in zip(sym_wordops, mats[1:]):
        s = wop - 1
        frontier = {(row, col[:s] + (x,) + col[s + 1:], grow + (col[s],),
                     gcol + (x,)): val
                    for (row, col, grow, gcol), val in frontier.items()
                    for x in range(N)}
        if mat is None:
            continue
        by_row = {}
        for (row, col), val in mat.entries.items():
            by_row.setdefault(row, []).append((col, val))
        joined = {}
        for (row, mid, grow, gcol), val in frontier.items():
            for col, mval in by_row.get(mid, ()):
                key = (row, col, grow, gcol)
                prod = val * mval
                joined[key] = joined[key] + prod if key in joined else prod
        frontier = joined
    return TensorOp(N, wslots + len(sym_wordops), caps,
                    {(row + grow, col + gcol): val
                     for (row, col, grow, gcol), val in frontier.items()})


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

    def word_length(self, factor: int) -> int:
        return len(self.terms[0].words[factor - 1])

    def _sym_base(self, factor: int) -> int:
        """Global slot index before the first sym slot of a factor (1-based)."""
        return self.open + sum(self.word_length(f) for f in range(1, factor))

    def _sym_slots(self, factor: int):
        base = self._sym_base(factor)
        return tuple(base + j for j in range(1, self.word_length(factor) + 1))

    def _replace(self, terms, open_slots=None) -> "FreeState":
        return FreeState(self.ltd, self.norm, self.caps, self.c,
                         self.open if open_slots is None else open_slots,
                         terms)

    def _plain_word(self, term, factor):
        word = term.words[factor - 1]
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
        tpos = [t - 1 for t in targets]
        if shared is not None:
            shared -= 1
        out_terms = []
        for term in self.terms:
            K = term.coeff
            omega = omega_of_term(term)
            if omega.m != 2 * w + e:
                raise ValueError(f"omega has {omega.m} slots, not {2 * w + e}")
            caps = K.caps.match(omega.caps)
            kmap = {}
            for (krow, kcol), kval in K.entries.items():
                mkey = (tuple(krow[p] for p in tpos),
                        tuple(kcol[p] for p in tpos),
                        None if shared is None else krow[shared])
                kmap.setdefault(mkey, []).append((krow, kcol, kval))
            entries = {}
            for (orow, ocol), oval in omega.entries.items():
                P, I, Pp = orow[:w], orow[w:w + e], orow[w + e:]
                Q, J, Qp = ocol[:w], ocol[w:w + e], ocol[w + e:]
                mkey = (P, Q, None if shared is None else J[0])
                for krow, kcol, kval in kmap.get(mkey, ()):
                    row = list(krow)
                    col = list(kcol)
                    if shared is not None:
                        row[shared] = I[0]
                    for p, rp, cp in zip(tpos, Pp, Qp):
                        row[p] = rp
                        col[p] = cp
                    val = kval * oval
                    key = (tuple(row), tuple(col))
                    entries[key] = entries[key] + val if key in entries else val
            out_terms.append(Term(TensorOp(K.N, K.m, caps, entries),
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
        N = st.ltd.N
        pos = st._sym_base(factor)          # insert sym slot after this index
        s = nu - 1
        out_terms = []
        for term in st.terms:
            K = term.coeff
            entries = {}
            for (krow, kcol), val in K.entries.items():
                mm = krow[s]
                for p in range(N):
                    row = list(krow)
                    row[s] = p
                    nrow = tuple(row[:pos]) + (p,) + tuple(row[pos:])
                    entries[(nrow, kcol[:pos] + (mm,) + kcol[pos:])] = val
            words = list(term.words)
            words[factor - 1] = ((arg, 0),) + words[factor - 1]
            out_terms.append(Term(TensorOp(N, K.m + 1, K.caps, entries),
                                  tuple(words)))
        return st._replace(out_terms)

    # -- sandwich builders ----------------------------------------------

    def _r_chain(self, wslots, factors, inverse=False):
        """The ordered product on ``wslots`` operator slots of one R-matrix
        (inverse R-matrix for ``inverse``) per ``(arg, slots)`` factor."""
        build = rhat_inv if inverse else rmatrix
        return TensorOp.chain(self.ltd.N, wslots, self.caps, [
            (build(self.ltd, self.norm, a, self.caps), slots)
            for a, slots in factors])

    def _crossing(self, first, factors, wslots, bomega):
        """The crossing half of the inverse lowering operator and of the
        braiding: M^{-1} on the ``first`` operator slots, the R-matrices
        transposed in their first slot at the ``(arg, slots)`` factors, then
        M on ``first``, combined "LR" with the walk ``bomega`` split at
        ``first``."""
        N, caps, ltd = self.ltd.N, self.caps, self.ltd
        md = m_diag(ltd, caps)
        diag = diag_op(N, caps, md)
        diag_inv = diag_op(N, caps, [d.inv() for d in md])
        afull = TensorOp.chain(N, wslots, caps, [
            *((diag_inv, (i,)) for i in first),
            *((rmatrix(ltd, self.norm, a, caps).transpose_slot(1, ltd), slots)
              for a, slots in factors),
            *((diag, (i,)) for i in first)])
        aemb = afull.embed(tuple(range(1, wslots + 1)), bomega.m)
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
        if s1 > self.open or s2 > self.open:
            raise ValueError(f"slots {s1}, {s2} are not both open")
        return self._map_coeff(lambda K: K.swap_slots(s1, s2))

    def with_identity_open(self) -> "FreeState":
        """Append one open matrix slot carrying the identity."""
        def act(K):
            kept = tuple(range(1, self.open + 1)) \
                + tuple(range(self.open + 2, K.m + 2))
            return K.embed(kept, K.m + 1)
        return self._replace([Term(act(t.coeff), t.words)
                              for t in self.terms], self.open + 1)

    def _map_coeff(self, fn) -> "FreeState":
        return self._replace([Term(fn(t.coeff), t.words) for t in self.terms])

    def map_entries(self, fn) -> "FreeState":
        return self._map_coeff(lambda K: K.map_entries(fn))

    def scale(self, scalar) -> "FreeState":
        return self._map_coeff(lambda K: K.scale(scalar))

    # -- braiding -------------------------------------------------------

    def braiding_s(self, f1: int, f2: int, z: Arg) -> "FreeState":
        """Apply the braiding map at argument z to an ordered factor pair.

        The words are unchanged; the coefficient is hit by the displayed
        combination: the diagonal-conjugated transposed backward chain at
        z + u_i - v_j - h(c+kappa) on the first factor's block, slot-ordered
        against the sandwich of plain chains at z + u_i - v_j (outer) and the
        inverse chain at z + u_i - v_j + hc (between the two words)."""
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
        are applied right to left (each opening a matrix slot), then raising
        operators at z + a_j share those slots; finally each new slot is
        contracted with the corresponding word slot of the consumed factor.
        The additive and multiplicative coordinate pictures coincide at the
        level of argument images, so the same routine serves the vacuum
        module map with a ring-variable z."""
        if from_factor == into_factor:
            raise ValueError("cannot merge a factor into itself")
        keys = {t.key()[from_factor - 1] for t in self.terms}
        if len(keys) > 1:
            raise ValueError("merge requires a uniform word on the consumed factor")
        word = self._plain_word(self.terms[0], from_factor)
        m = len(word)
        st = self
        nus = []
        for a in word:                     # rightmost operator first
            st = st.apply_tminus_inv(into_factor,
                                     arg_h(arg_sum(z, a), st.c / 2))
            nus.append(st.open)
        for a, nu in zip(reversed(word), reversed(nus)):
            st = st.apply_tplus(into_factor, arg_sum(z, a), shared_slot=nu)
        pairs = [(nu, st._sym_slots(from_factor)[j])
                 for j, nu in enumerate(nus)]
        return st._contract_pairs(pairs, drop_factors=(from_factor,))

    def _contract_pairs(self, pairs, drop_factors=()) -> "FreeState":
        """Contract open slots against sym slots (row with row, column with
        column, summed) and delete both; optionally drop the factors whose
        word slots were consumed."""
        drop = sorted({s for p in pairs for s in p})
        open_drop = sum(1 for s in drop if s <= self.open)
        out_terms = []
        for term in self.terms:
            K = term.coeff
            entries = {}
            for (krow, kcol), val in K.entries.items():
                if any(krow[a - 1] != krow[b - 1] or kcol[a - 1] != kcol[b - 1]
                       for a, b in pairs):
                    continue
                nrow = tuple(x for i, x in enumerate(krow, start=1)
                             if i not in drop)
                ncol = tuple(x for i, x in enumerate(kcol, start=1)
                             if i not in drop)
                key = (nrow, ncol)
                entries[key] = entries[key] + val if key in entries else val
            words = term.words
            for df in sorted(drop_factors, reverse=True):
                words = words[:df - 1] + words[df:]
            out_terms.append(Term(
                TensorOp(K.N, K.m - len(drop), K.caps, entries), words))
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
            for f in range(1, self.factors + 1):
                for j, (arg, dorder) in enumerate(term.words[f - 1]):
                    dk = _arg_derivative(term.coeff, arg)
                    if dk is not None and not dk.is_zero():
                        out.append(Term(dk, term.words))
                    words = list(term.words)
                    w = list(words[f - 1])
                    w[j] = (arg, dorder + 1)
                    words[f - 1] = tuple(w)
                    out.append(Term(term.coeff, tuple(words)))
        caps = _min_caps([t.coeff.caps for t in out]) if out else self.caps
        return FreeState(self.ltd, self.norm, caps, self.c, self.open,
                         [Term(_with_caps(t.coeff, caps), t.words)
                          for t in out])

    # -- RTT swap and canonical order -----------------------------------

    def rtt_swap(self, factor: int, i: int) -> "FreeState":
        """Exchange word positions i and i+1 of a factor through the RTT
        relation: the coefficient is rewritten by the inverse R-matrix at
        the argument difference on one side and the R-matrix on the other."""
        targets = self._sym_slots(factor)[i - 1:i + 1]
        N, caps = self.ltd.N, self.caps

        def omega_of(term):
            a = term.words[factor - 1][i - 1]
            b = term.words[factor - 1][i]
            if a[1] or b[1]:
                raise ValueError("swap on a derivative-marked word")
            d = arg_diff(a[0], b[0])
            r = rmatrix(self.ltd, self.norm, d, caps)
            rinv = rhat_inv(self.ltd, self.norm, d, caps)
            return _chain_omega(N, caps, 2, [2, 1], [rinv, None, r])

        def new_words(term):
            words = list(term.words)
            w = list(words[factor - 1])
            w[i - 1], w[i] = w[i], w[i - 1]
            words[factor - 1] = tuple(w)
            return tuple(words)

        return self._compose(targets, omega_of, new_words)

    def canonicalize(self) -> "FreeState":
        """Sort every word into the fixed total order on argument images by
        adjacent RTT swaps.  Arguments with equal zeroth-order image are
        never exchanged (the rewrite would be singular there); their
        relative order is preserved."""
        out_terms = []
        for term in self.terms:
            st = self._replace([term])
            changed = True
            while changed and st.terms:
                changed = False
                t = st.terms[0]
                for f in range(1, st.factors + 1):
                    word = t.words[f - 1]
                    for i in range(1, len(word)):
                        ka = _slot_key(word[i - 1])[0]
                        kb = _slot_key(word[i])[0]
                        if kb < ka:
                            st = st.rtt_swap(f, i)
                            changed = True
                            break
                    if changed:
                        break
            out_terms.extend(st.terms)
        return self._replace(out_terms)

    # -- comparison -----------------------------------------------------

    def residual(self, other: "FreeState"):
        """Exact difference: (number of nonzero residual entries, witness)."""
        if self.open != other.open:
            raise ValueError("open-slot layouts differ")
        buckets = {}
        for sign, state in ((1, self), (-1, other)):
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

def _arg_derivative(K: TensorOp, arg: Arg):
    """Derivative of a coefficient with respect to a slot argument.

    Supported argument shapes: a single ring variable Z (additive a with
    Z = e^{-a}, so d/da = -Z d/dZ) or a single capped variable with a
    rational coefficient.  Returns None when the coefficient does not
    depend on the argument's variable."""
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


def _min_caps(caps_list):
    out = dict(caps_list[0])
    for caps in caps_list[1:]:
        for n, v in caps.items():
            out[n] = min(out.get(n, v), v)
    return out


def _with_caps(K: TensorOp, caps) -> TensorOp:
    caps = Caps.of(caps)
    if K.caps is caps:
        return K
    return TensorOp(K.N, K.m, caps,
                    {key: val.with_caps(caps)
                     for key, val in K.entries.items()})
