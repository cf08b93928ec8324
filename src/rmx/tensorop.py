"""Sparse operators on tensor powers of C^N with truncated-series entries.

An operator on m slots maps index tuples of length m (0-based per-slot
indices) to index tuples of length m.  Entries are HSeries over the
operator's caps; absent entries are zero.  Slot arguments in the public API
are 1-based, matching the usual subscript notation A_{rs} for embeddings.

``entries`` is keyed by packed ints (``_Layout``): 2m fields of
b = max(1, (N-1).bit_length()) bits, the rows of slots 1..m and then their
columns, slot 1 most significant.  Every field is below 2^b, so keys
compare as their fields do from the most significant one down, which is
the order of (row, col) tuple pairs; sorted keys unpack to sorted tuples,
and witnesses and ``items`` keep tuple order.  Structural operations
relabel keys by masks and shifts (``_mover``).  The validating
constructor packs tuple keys, and ``items`` and ``witness`` unpack them.

Two constructors build an operator.  ``TensorOp(N, m, caps, entries)``
validates: every entry must be an HSeries over the given caps, keyed by
(row, col) index tuples of m slots or by a packed key, every index in
0..N-1.  ``_operator`` trusts its caller, and that no entry is zero, in
code whose operands' shapes and caps are already checked.  Every
contraction of operators and states is one ``hseries._join``, which
matches the packed keys of two operands, indexes the right operand's
terms sorted by exponent of h, adds each pair of terms that fits the caps
into the term dict of its output key, ending each walk at the cap of h,
and drops the keys that cancelled; here ``*`` and ``odot`` are one split
product (``_split``), ``*`` the one with every slot in the first block.
``+`` and ``states._drop_pairs`` add series with ``hseries._add_into``,
which drops a sum that cancels; only ``scale`` and the R-matrix build
filter products;
``identity``, ``-``, ``embed``, ``swap_slots``, ``transpose_slot`` and
``conj_diag`` (unit factors) map nonzero entries to nonzero ones.
Everything else, ``map_entries`` included, goes through the validating
constructor, and every binary operation checks the shapes and caps of its
operands.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .hseries import Caps, HSeries, _add_into, _join
from .ratfunc import RatFunc

__all__ = ["TensorOp"]


class _Layout:
    """Packed keys on m slots of C^N: ``row(s)`` and ``col(s)`` are the
    shifts of slot s's fields (1-based), ``half`` the columns' width."""

    __slots__ = ("N", "m", "b", "field", "half", "full")

    def __init__(self, N, m):
        self.N, self.m, self.b = N, m, max(1, (N - 1).bit_length())
        self.field, self.half = (1 << self.b) - 1, m * self.b
        self.full = (1 << 2 * self.half) - 1

    def row(self, s) -> int:
        return (2 * self.m - s) * self.b

    def col(self, s) -> int:
        return (self.m - s) * self.b

    def mask(self, rows=(), cols=()) -> int:
        return sum(self.field << self.row(s) for s in set(rows)) \
            | sum(self.field << self.col(s) for s in set(cols))

    def pack(self, idx) -> int:
        """The key of the indices of the rows, then the columns."""
        key = 0
        for i in idx:
            key = key << self.b | i
        return key

    def unpack(self, key) -> tuple:
        idx = tuple(key >> s & self.field
                    for s in range((2 * self.m - 1) * self.b, -1, -self.b))
        return idx[:self.m], idx[self.m:]

    def diagonal(self, slots) -> list:
        """The keys with each of ``slots`` at one index in its row and its
        column and 0 elsewhere, in the tuple order of those indices."""
        return [sum(x << self.row(s) | x << self.col(s)
                    for s, x in zip(slots, idx))
                for idx in itertools.product(range(self.N), repeat=len(slots))]

    def key(self, key) -> int:
        """A packed key, or (row, col) index tuples packed; other shapes and
        indices outside 0..N-1 raise ValueError."""
        row, col = self.unpack(key) if isinstance(key, int) else key
        idx = (*row, *col)
        if len(row) != self.m or len(idx) != 2 * self.m or not all(
                isinstance(i, int) and 0 <= i < self.N for i in idx) or (
                isinstance(key, int) and self.pack(idx) != key):
            raise ValueError(f"entry {key} is not {self.m} slots of indices "
                             f"in 0..{self.N - 1}")
        return self.pack(idx)


_layout = lru_cache(maxsize=None)(_Layout)


@lru_cache(maxsize=None)
def _mover(src: _Layout, dst: _Layout, slots=(), fields=()):
    """The map of keys of ``src`` to keys of ``dst`` that moves the row and
    column of slot s to those of slot t for each (s, t) pair of ``slots``,
    and the field at each source shift of ``fields`` to its target shift;
    other fields of the result are 0.  Fields moved by one distance share
    a mask, so the map costs one mask and shift per distance."""
    masks = {}
    for a, b in fields + tuple(f for s, t in slots for f in (
            (src.row(s), dst.row(t)), (src.col(s), dst.col(t)))):
        masks[b - a] = masks.get(b - a, 0) | src.field << a
    moves = tuple((mask, max(d, 0), max(-d, 0)) for d, mask in masks.items())

    def move(k):
        out = 0
        for mask, left, right in moves:
            out |= (k & mask) << left >> right
        return out
    return move


def _check_slots(m: int, *slots):
    for s in slots:
        if not (isinstance(s, int) and 1 <= s <= m):
            raise ValueError(f"slot {s} out of range 1..{m}")


def _operator(N: int, m: int, caps: Caps, entries: dict) -> "TensorOp":
    """An operator from packed nonzero entries built over ``caps`` on m
    slots, as they are."""
    out = object.__new__(TensorOp)
    out.N = N
    out.m = m
    out.caps = caps
    out.entries = entries
    return out


class TensorOp:

    __slots__ = ("N", "m", "caps", "entries")

    def __init__(self, N: int, m: int, caps, entries: dict):
        self.N = N
        self.m = m
        self.caps = caps = Caps.of(caps)
        self.entries = {}
        layout = _layout(N, m)
        for key, val in entries.items():
            if not isinstance(val, HSeries):
                raise TypeError(f"entry {key} is a {type(val).__name__}, "
                                "not an HSeries")
            key = layout.key(key)
            caps.match(val.caps)
            if not val.is_zero():
                self.entries[key] = val

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(N, m, caps) -> "TensorOp":
        caps = Caps.of(caps)
        one = HSeries.one(caps)
        return _operator(N, m, caps, dict.fromkeys(
            _layout(N, m).diagonal(range(1, m + 1)), one))

    @staticmethod
    def chain(N, m, caps, factors) -> "TensorOp":
        """The ordered product of ``(operator, slots)`` factors, each
        embedded in m slots at its 1-based slots; the identity when there
        are no factors."""
        out = None
        for op, slots in factors:
            emb = op.embed(slots, m)
            out = emb if out is None else out * emb
        return TensorOp.identity(N, m, caps) if out is None else out

    @staticmethod
    def zero(N, m, caps) -> "TensorOp":
        return TensorOp(N, m, caps, {})

    @staticmethod
    def unit(N, i, j, caps, coeff=1) -> "TensorOp":
        """Single-slot matrix unit e_ij (0-based), optionally scaled."""
        if not isinstance(coeff, HSeries):
            coeff = HSeries.const(coeff, caps)
        return TensorOp(N, 1, caps, {((i,), (j,)): coeff})

    # -- ring operations ----------------------------------------------

    def _match(self, other) -> Caps:
        """The caps shared with ``other``; other shapes or caps raise."""
        if (self.N, self.m) != (other.N, other.m):
            raise ValueError("operator shapes differ")
        return self.caps.match(other.caps)

    def __add__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        caps = self._match(other)
        entries = dict(self.entries)
        for key, val in other.entries.items():
            _add_into(entries, key, val)
        return _operator(self.N, self.m, caps, entries)

    def __sub__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _operator(self.N, self.m, self.caps,
                         {k: -v for k, v in self.entries.items()})

    def scale(self, scalar) -> "TensorOp":
        """Multiply every entry by a scalar (HSeries, RatFunc or rational)."""
        return _operator(self.N, self.m, self.caps, {
            k: p for k, v in self.entries.items() if (p := v * scalar).terms})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, HSeries)):
            return self.scale(other)
        if not isinstance(other, TensorOp):
            return NotImplemented
        # the split product with every slot in the first block
        return self._split(other, self._match(other), range(1, self.m + 1),
                           ())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, HSeries)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self.residual(other)[0] == 0

    def residual(self, other: "TensorOp") -> tuple:
        """(number of nonzero entries of self - other, witness), found by
        comparing: an entry counts when its series differ or it is on one
        side only.  The witness is ``(self - other).witness()``, and only
        its entry is subtracted."""
        self._match(other)
        a, b = self.entries, other.entries
        keys = [k for k, v in a.items() if k not in b or b[k].terms != v.terms]
        keys += [k for k in b if k not in a]
        if not keys:
            return 0, None
        key = min(keys)
        zero = HSeries.zero(self.caps)
        row, col = _layout(self.N, self.m).unpack(key)
        return len(keys), (list(row), list(col),
                           repr(a.get(key, zero) - b.get(key, zero)))

    def __hash__(self):
        raise TypeError("TensorOp is unhashable")

    def is_zero(self) -> bool:
        return not self.entries

    def is_identity(self) -> bool:
        return (self - TensorOp.identity(self.N, self.m, self.caps)).is_zero()

    def inv(self) -> "TensorOp":
        """Inverse by Neumann iteration; requires invertible entrywise-constant
        part only in the special case handled here: classical part equal to a
        scalar multiple of the identity."""
        ident = TensorOp.identity(self.N, self.m, self.caps)
        # split T = c*(1 - X) with X nilpotent mod caps
        diag0 = None
        diagonal = 0
        half = _layout(self.N, self.m).half
        for key, val in self.entries.items():
            c0 = val.coeff({})
            if key >> half == key & (1 << half) - 1:
                diagonal += 1
                if diag0 is None:
                    diag0 = c0
                elif not (c0 - diag0).is_zero():
                    raise ValueError("constant part is not scalar; cannot invert")
            elif not c0.is_zero():
                raise ValueError("constant part is not scalar; cannot invert")
        if diag0 is None or diag0.is_zero():
            raise ZeroDivisionError("operator is not invertible at order zero")
        if diagonal < self.N ** self.m:
            # an absent diagonal entry is a zero beside diag0
            raise ValueError("constant part is not scalar; cannot invert")
        scaled = self.scale(RatFunc.one() / diag0)
        x = ident - scaled
        acc = ident
        power = ident
        while True:
            power = power * x
            if power.is_zero():
                break
            acc = acc + power
        return acc.scale(RatFunc.one() / diag0)

    # -- structural operations ----------------------------------------

    def embed(self, slots, m: int) -> "TensorOp":
        """View this operator in m slots, its i-th slot placed at slots[i]
        (1-based target positions), identity elsewhere."""
        slots = tuple(slots)
        if len(slots) != self.m or len(set(slots)) != self.m:
            raise ValueError(f"embed needs {self.m} distinct slots: {slots}")
        if not all(1 <= s <= m for s in slots):
            raise ValueError(f"slots {slots} out of range 1..{m}")
        dst = _layout(self.N, m)
        move = _mover(_layout(self.N, self.m), dst, tuple(enumerate(slots, 1)))
        moved = [(move(key), val) for key, val in self.entries.items()]
        return _operator(self.N, m, self.caps, {
            key | f: val for f in dst.diagonal([s for s in range(1, m + 1)
                                                if s not in slots])
            for key, val in moved})

    def swap_slots(self, s1: int, s2: int) -> "TensorOp":
        """Conjugate by the flip of two slots (1-based)."""
        _check_slots(self.m, s1, s2)
        layout, flip = _layout(self.N, self.m), {s1: s2, s2: s1}
        move = _mover(layout, layout, tuple(
            (s, flip.get(s, s)) for s in range(1, self.m + 1)))
        return _operator(self.N, self.m, self.caps,
                         {move(k): v for k, v in self.entries.items()})

    def transpose_slot(self, slot: int, ltd) -> "TensorOp":
        """Twisted transposition e_ij -> eps_i eps_j e_{j'i'} in one slot."""
        _check_slots(self.m, slot)
        layout = _layout(self.N, self.m)
        r, c, f = layout.row(slot), layout.col(slot), layout.field
        keep = layout.full ^ layout.mask((slot,), (slot,))
        to = [[(ltd.iprime(j) << r | ltd.iprime(i) << c,
                ltd.eps[i] * ltd.eps[j]) for j in range(self.N)]
              for i in range(self.N)]
        # (i, j) -> (j', i') is a bijection, so no two entries meet
        entries = {}
        for key, val in self.entries.items():
            put, sign = to[key >> r & f][key >> c & f]
            entries[key & keep | put] = val if sign > 0 else -val
        return _operator(self.N, self.m, self.caps, entries)

    def conj_diag(self, diag, slot: int, sign: int = 1) -> "TensorOp":
        """Conjugate by a diagonal single-slot operator: D_s T D_s^{-1}
        (sign=-1 gives D^{-1} T D).  ``diag`` is a list of unit HSeries.
        An entry at row i and column j of the slot costs one series product,
        by left[i] * right[j], formed once per (i, j) that occurs, and none
        where that is one."""
        _check_slots(self.m, slot)
        layout = _layout(self.N, self.m)
        r, c, f = layout.row(slot), layout.col(slot), layout.field
        inv = [d.inv() for d in diag]
        left, right = (diag, inv) if sign == 1 else (inv, diag)
        scales, entries = {}, {}
        for k, v in self.entries.items():
            ij = k >> r & f, k >> c & f
            if ij not in scales:
                s = left[ij[0]] * right[ij[1]]
                scales[ij] = None if s.is_one() else s  # i = j scales by one
            s = scales[ij]
            entries[k] = v if s is None else s * v
        return _operator(self.N, self.m, self.caps, entries)

    def odot(self, other: "TensorOp", first_slots, mode: str) -> "TensorOp":
        """Ordered product of split operators sharing the full slot space.

        Writing self = sum_a x_a (x) y_a with x_a acting on ``first_slots``
        (1-based) and y_a on the remaining slots,

            mode "LR": sum_a x_a * other * y_a
            mode "RL": sum_a y_a * other * x_a
        """
        if not isinstance(other, TensorOp):
            raise TypeError(f"odot needs a TensorOp, not a "
                            f"{type(other).__name__}")
        caps = self._match(other)
        if mode not in ("LR", "RL"):
            raise ValueError(f"unknown odot mode {mode!r}")
        _check_slots(self.m, *first_slots)
        F = set(first_slots)
        G = set(range(1, self.m + 1)) - F
        if mode == "RL":
            # y_a * other * x_a is the LR product with the halves swapped
            F, G = G, F
        return self._split(other, caps, F, G)

    def _split(self, other: "TensorOp", caps: Caps, F, G) -> "TensorOp":
        """sum_a x_a * other * y_a for self = sum_a x_a (x) y_a, x_a on the
        slots F and y_a on the slots G, which split all slots; the caller
        checks both operators."""
        layout = _layout(self.N, self.m)
        rf, cf, rg, cg = (layout.mask(F), layout.mask((), F), layout.mask(G),
                          layout.mask((), G))
        half = layout.half
        # (A odot B)[R,C] = sum A[(R_F,K'_G),(K_F,C_G)] B[(K_F,R_G),(C_F,K'_G)]
        # B's F rows and G columns, moved to the F columns and G rows, meet
        # A's there; the result takes A's F rows and G columns and B's G
        # rows and F columns
        meet, own, part = cf | rg, rf | cg, rg | cf
        return _operator(self.N, self.m, caps, _join(
            caps, ((ak & meet, ak & own, av)
                   for ak, av in self.entries.items()),
            (((bk & rf) >> half | (bk & cg) << half, bk & part, bv)
             for bk, bv in other.entries.items())))

    # -- entrywise maps ------------------------------------------------

    def map_entries(self, fn) -> "TensorOp":
        return TensorOp(self.N, self.m, self.caps,
                        {k: fn(v) for k, v in self.entries.items()})

    def subs_ring_var(self, name, value) -> "TensorOp":
        sub = RatFunc.substitution(name, value)
        return self.map_entries(lambda s: s.map_coeffs(sub))

    def subst_mult(self, name, factor) -> "TensorOp":
        return self.map_entries(lambda s: s.subst_mult(name, factor))

    # -- reporting ------------------------------------------------------

    def nonzero_count(self) -> int:
        return len(self.entries)

    def items(self) -> list:
        """The ((row, col), series) pairs of the nonzero entries, index
        tuples unpacked, in key order (which is tuple order)."""
        layout = _layout(self.N, self.m)
        return [(layout.unpack(k), self.entries[k])
                for k in sorted(self.entries)]

    def witness(self):
        """A deterministic sample nonzero entry: (row, col, repr) or None."""
        if not self.entries:
            return None
        key = min(self.entries)
        row, col = _layout(self.N, self.m).unpack(key)
        return (list(row), list(col), repr(self.entries[key]))

    def __repr__(self):
        return (f"TensorOp(N={self.N}, m={self.m}, "
                f"{len(self.entries)} nonzero entries)")
