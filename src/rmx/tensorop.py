"""Sparse operators on tensor powers of C^N with truncated-series entries.

An operator on m slots maps index tuples of length m (0-based per-slot
indices) to index tuples of length m; absent entries are zero.  Slot
arguments in the public API are 1-based, as in the subscripts of A_{rs}.

An entry is keyed by a packed int (``_Layout``): 2m fields of
b = max(1, (N-1).bit_length()) bits, the rows of slots 1..m and then their
columns, slot 1 most significant, so sorted keys unpack to sorted (row,
col) tuples.  ``entries`` is one flat dict over the terms of all entries:
``entry << S | j``, with S = ``caps.width`` and j a monomial number of the
caps, maps to the term's nonzero RatFunc coefficient.  An operator's layout
shifts every field up by S, so its masks and key movers (``_mover``) act
on ``key >> S`` and carry the low bits along.  Reports count entries, not
terms: ``nonzero_count`` and ``residual`` count distinct ``key >> S``,
and ``items`` (by ``_grouped``, one pass) and witnesses form the series.

``TensorOp(N, m, caps, entries)`` validates: each entry an HSeries over the
caps, keyed by (row, col) index tuples or by a packed key of ``_layout(N,
m)`` (no shift), each index in 0..N-1.  ``_operator`` trusts its caller,
and that no coefficient is zero.  Every contraction is one
``hseries._join`` of two term streams, which adds each product that fits
the caps straight into the output's flat dict and drops the keys that
cancelled: ``*`` and ``odot`` are one split product (``_split``), and
``scale`` and ``conj_diag`` join the terms with a series'.  ``+`` and
``states._drop_pairs`` add with ``hseries._add_into``, which drops a sum
that cancels, and ``map_coeffs`` drops a zero; ``identity``, ``-``,
``embed``, ``swap_slots`` and ``transpose_slot`` map nonzero terms to
nonzero ones.  ``map_entries`` maps whole series through the validating
constructor.  Every binary operation checks its operands' shapes and caps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .hseries import Caps, HSeries, _add_into, _join, _series
from .ratfunc import RatFunc

__all__ = ["TensorOp"]


class _Layout:
    """Packed keys on m slots of C^N above ``width`` low bits: ``row(s)``
    and ``col(s)`` are the shifts of slot s's fields (1-based), ``half``
    the columns' width and ``full`` the mask of every bit, low ones too."""

    __slots__ = ("N", "m", "b", "width", "field", "half", "full")

    def __init__(self, N, m, width=0):
        self.N, self.m, self.b = N, m, max(1, (N - 1).bit_length())
        self.width = width
        self.field, self.half = (1 << self.b) - 1, m * self.b
        self.full = (1 << 2 * self.half + width) - 1

    def row(self, s) -> int:
        return (2 * self.m - s) * self.b + self.width

    def col(self, s) -> int:
        return (self.m - s) * self.b + self.width

    def mask(self, rows=(), cols=()) -> int:
        return sum(self.field << self.row(s) for s in set(rows)) \
            | sum(self.field << self.col(s) for s in set(cols))

    def pack(self, idx) -> int:
        """The key of the indices of the rows, then the columns."""
        key = 0
        for i in idx:
            key = key << self.b | i
        return key << self.width

    def unpack(self, key) -> tuple:
        idx = tuple(key >> s & self.field
                    for s in range(self.row(1), self.width - 1, -self.b))
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
def _mover(src: _Layout, dst: _Layout, slots=(), fields=(), low=True):
    """The map of keys of ``src`` to keys of ``dst`` that moves the row and
    column of slot s to those of slot t for each (s, t) pair of ``slots``,
    the field at each source shift of ``fields`` to its target shift, and
    keeps the low bits if ``low``; other fields of the result are 0.
    Fields moved by one distance share a mask, so the map costs one mask
    and shift per distance."""
    masks = {0: (1 << src.width) - 1} if low and src.width else {}
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
    """An operator from flat keys of m slots over ``caps`` to nonzero
    coefficients, as they are."""
    out = object.__new__(TensorOp)
    out.N, out.m, out.caps, out.entries = N, m, caps, entries
    return out


def _grouped(caps: Caps, flat: dict) -> dict:
    """Unshifted packed entry key -> series of a flat term dict, one pass."""
    width, low, out = caps.width, caps.low, {}
    for k, c in flat.items():
        out.setdefault(k >> width, {})[k & low] = c
    return {key: _series(caps, terms) for key, terms in out.items()}


class TensorOp:

    __slots__ = ("N", "m", "caps", "entries")

    def __init__(self, N: int, m: int, caps, entries: dict):
        self.N, self.m = N, m
        self.caps = caps = Caps.of(caps)
        self.entries, layout = {}, _layout(N, m)
        for key, val in entries.items():
            if not isinstance(val, HSeries):
                raise TypeError(f"entry {key} is a {type(val).__name__}, "
                                "not an HSeries")
            base = layout.key(key) << caps.width
            caps.match(val.caps)
            for j, c in val.terms.items():
                self.entries[base | j] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(N, m, caps) -> "TensorOp":
        caps = Caps.of(caps)
        return _operator(N, m, caps, dict.fromkeys(
            _layout(N, m, caps.width).diagonal(range(1, m + 1)),
            RatFunc.one()))

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
        if not isinstance(scalar, HSeries):
            return self.map_coeffs(lambda c: c * scalar)
        caps = self.caps.match(scalar.caps)
        return _operator(self.N, self.m, caps, _join(
            caps, ((0, k, c) for k, c in self.entries.items()),
            ((0, j, c) for j, c in scalar.terms.items())))

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
        comparing terms: an entry counts when any of its terms differs or
        is on one side only.  The witness is ``(self - other).witness()``,
        and only its entry is subtracted."""
        self._match(other)
        a, b, width = self.entries, other.entries, self.caps.width
        if a == b:      # a dict comparison, which tries identity first
            return 0, None
        keys = {k >> width for k, v in a.items() if k not in b or b[k] != v}
        keys.update(k >> width for k in b if k not in a)
        key = min(keys)
        row, col = _layout(self.N, self.m).unpack(key)
        return len(keys), (list(row), list(col),
                           repr(self._entry(key) - other._entry(key)))

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
        # split T = c*(1 - X) with X nilpotent mod caps; the constant part is
        # the terms of monomial number 0, and every diagonal entry needs one
        half = _layout(self.N, self.m).half
        constants = {k >> self.caps.width: c for k, c in self.entries.items()
                     if not k & self.caps.low}
        if not constants:
            raise ZeroDivisionError("operator is not invertible at order zero")
        diag0 = next(iter(constants.values()))
        if len(constants) < self.N ** self.m or any(
                key >> half != key & (1 << half) - 1 or c0 != diag0
                for key, c0 in constants.items()):
            raise ValueError("constant part is not scalar; cannot invert")
        ident = TensorOp.identity(self.N, self.m, self.caps)
        x = ident - self.scale(RatFunc.one() / diag0)
        acc = power = ident
        while not (power := power * x).is_zero():
            acc = acc + power
        return acc.scale(RatFunc.one() / diag0)

    # -- structural operations ----------------------------------------

    def _flat(self) -> _Layout:
        return _layout(self.N, self.m, self.caps.width)

    def embed(self, slots, m: int) -> "TensorOp":
        """View this operator in m slots, its i-th slot placed at slots[i]
        (1-based target positions), identity elsewhere."""
        slots = tuple(slots)
        if len(slots) != self.m or len(set(slots)) != self.m:
            raise ValueError(f"embed needs {self.m} distinct slots: {slots}")
        if not all(1 <= s <= m for s in slots):
            raise ValueError(f"slots {slots} out of range 1..{m}")
        dst = _layout(self.N, m, self.caps.width)
        move = _mover(self._flat(), dst, tuple(enumerate(slots, 1)))
        moved = [(move(key), val) for key, val in self.entries.items()]
        return _operator(self.N, m, self.caps, {
            key | f: val for f in dst.diagonal([s for s in range(1, m + 1)
                                                if s not in slots])
            for key, val in moved})

    def swap_slots(self, s1: int, s2: int) -> "TensorOp":
        """Conjugate by the flip of two slots (1-based)."""
        _check_slots(self.m, s1, s2)
        layout, flip = self._flat(), {s1: s2, s2: s1}
        move = _mover(layout, layout, tuple(
            (s, flip.get(s, s)) for s in range(1, self.m + 1)))
        return _operator(self.N, self.m, self.caps,
                         {move(k): v for k, v in self.entries.items()})

    def transpose_slot(self, slot: int, ltd) -> "TensorOp":
        """Twisted transposition e_ij -> eps_i eps_j e_{j'i'} in one slot."""
        _check_slots(self.m, slot)
        layout = self._flat()
        r, c, f = layout.row(slot), layout.col(slot), layout.field
        keep = layout.full ^ layout.mask((slot,), (slot,))
        to = [[(ltd.iprime(j) << r | ltd.iprime(i) << c,
                ltd.eps[i] * ltd.eps[j]) for j in range(self.N)]
              for i in range(self.N)]
        # (i, j) -> (j', i') is a bijection, so no two terms meet
        entries = {}
        for key, val in self.entries.items():
            put, sign = to[key >> r & f][key >> c & f]
            entries[key & keep | put] = val if sign > 0 else -val
        return _operator(self.N, self.m, self.caps, entries)

    def conj_diag(self, diag, slot: int, sign: int = 1) -> "TensorOp":
        """Conjugate by a diagonal single-slot operator: D_s T D_s^{-1}
        (sign=-1 gives D^{-1} T D).  ``diag`` is a list of unit HSeries.
        The terms of an entry at row i and column j of the slot join with
        those of left[i] * right[j], formed once for each pair i != j that
        occurs; where i = j that product is exactly one, and they stay."""
        _check_slots(self.m, slot)
        layout = self._flat()
        r, c, f = layout.row(slot), layout.col(slot), layout.field
        inv = [d.inv() for d in diag]
        left, right = (diag, inv) if sign == 1 else (inv, diag)
        ij, entries = layout.mask((slot,), (slot,)), self.entries
        kept = {k: v for k, v in entries.items() if k >> r & f == k >> c & f}
        terms = [(k & ij, k, v) for k, v in entries.items() if k not in kept]
        scales = [(p, k, x) for p in {p for p, _, _ in terms} for k, x in
                  (left[p >> r & f] * right[p >> c & f]).terms.items()]
        kept.update(_join(self.caps, terms, scales))
        return _operator(self.N, self.m, self.caps, kept)

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
        layout = self._flat()
        rf, cf, rg, cg = (layout.mask(F), layout.mask((), F), layout.mask(G),
                          layout.mask((), G))
        half = layout.half
        # (A odot B)[R,C] = sum A[(R_F,K'_G),(K_F,C_G)] B[(K_F,R_G),(C_F,K'_G)]
        # B's F rows and G columns, moved to the F columns and G rows, meet
        # A's there; the result takes A's F rows and G columns and B's G
        # rows and F columns, and each side keeps its monomial number
        meet, own, part = cf | rg, rf | cg | caps.low, rg | cf | caps.low
        return _operator(self.N, self.m, caps, _join(
            caps, ((ak & meet, ak & own, av)
                   for ak, av in self.entries.items()),
            (((bk & rf) >> half | (bk & cg) << half, bk & part, bv)
             for bk, bv in other.entries.items())))

    # -- entrywise maps ------------------------------------------------

    def map_coeffs(self, fn) -> "TensorOp":
        """Apply ``fn`` to every coefficient, dropping those mapped to 0."""
        return _operator(self.N, self.m, self.caps, {
            k: d for k, c in self.entries.items()
            if not (d := fn(c)).is_zero()})

    def map_entries(self, fn) -> "TensorOp":
        """Apply ``fn`` to the series of every entry."""
        return TensorOp(self.N, self.m, self.caps,
                        {key: fn(val) for key, val in self.items()})

    def subs_ring_var(self, name, value) -> "TensorOp":
        return self.map_coeffs(RatFunc.substitution(name, value))

    def subst_mult(self, name, factor) -> "TensorOp":
        return self.map_entries(lambda s: s.subst_mult(name, factor))

    # -- reporting ------------------------------------------------------

    def _entry(self, key: int) -> HSeries:
        """The series of the entry of unshifted packed key ``key``."""
        base, terms = key << self.caps.width, self.entries
        return _series(self.caps, {j: terms[base | j] for j in self.caps.monos
                                   if base | j in terms})

    def nonzero_count(self) -> int:
        return len({k >> self.caps.width for k in self.entries})

    def items(self) -> list:
        """((row, col) tuples, series) of the entries, in key = tuple order."""
        layout = _layout(self.N, self.m)
        return [(layout.unpack(key), val) for key, val
                in sorted(_grouped(self.caps, self.entries).items())]

    def witness(self):
        """A deterministic sample nonzero entry: (row, col, repr) or None."""
        if not self.entries:
            return None
        key = min(self.entries) >> self.caps.width
        row, col = _layout(self.N, self.m).unpack(key)
        return (list(row), list(col), repr(self._entry(key)))

    def __repr__(self):
        return (f"TensorOp(N={self.N}, m={self.m}, "
                f"{self.nonzero_count()} nonzero entries)")
