"""Sparse operators on tensor powers of C^N with truncated-series entries.

Rows and columns are tuples of 0-based per-slot indices, so an operator on m
slots maps index tuples of length m to index tuples of length m.  Entries are
HSeries over the operator's caps; absent entries are zero.  Slot arguments in
the public API are 1-based, matching the usual subscript notation A_{rs} for
embeddings.

Two constructors build an operator.  ``TensorOp(N, m, caps, entries)``
validates: every entry must be an HSeries over the given caps, keyed by
row and column tuples of m slots.  ``_operator`` trusts its caller and only
drops zero entries.  It is for code that builds entries from operands whose
shape and caps are already checked: the builders of this class (``identity``,
``+``, ``-``, ``scale``, ``*``, ``embed``, ``swap_slots``,
``transpose_slot``, ``conj_diag``, ``odot``) and the sandwich contractions
of ``states``.  Everything else, ``map_entries`` included, goes through the
validating constructor, and every binary operation checks the shapes and
caps of its operands.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .hseries import Caps, HSeries
from .ratfunc import RatFunc

__all__ = ["TensorOp"]


def _operator(N: int, m: int, caps: Caps, entries: dict) -> "TensorOp":
    """An operator from entries built over ``caps`` on m slots, as they are
    except that zero entries are dropped."""
    out = object.__new__(TensorOp)
    out.N = N
    out.m = m
    out.caps = caps
    out.entries = {k: v for k, v in entries.items() if v.terms}
    return out


class TensorOp:

    __slots__ = ("N", "m", "caps", "entries")

    def __init__(self, N: int, m: int, caps, entries: dict):
        self.N = N
        self.m = m
        self.caps = caps = Caps.of(caps)
        self.entries = {}
        for key, val in entries.items():
            if not isinstance(val, HSeries):
                raise TypeError(f"entry {key} is a {type(val).__name__}, "
                                "not an HSeries")
            if len(key[0]) != m or len(key[1]) != m:
                raise ValueError(f"entry {key} does not have {m} slots")
            caps.match(val.caps)
            if not val.is_zero():
                self.entries[key] = val

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(N, m, caps) -> "TensorOp":
        caps = Caps.of(caps)
        one = HSeries.one(caps)
        idx = itertools.product(range(N), repeat=m)
        return _operator(N, m, caps, {(i, i): one for i in map(tuple, idx)})

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
            entries[key] = entries[key] + val if key in entries else val
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
        return _operator(self.N, self.m, self.caps,
                         {k: v * scalar for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, HSeries)):
            return self.scale(other)
        if not isinstance(other, TensorOp):
            return NotImplemented
        caps = self._match(other)
        by_row = {}
        for (row, col), val in other.entries.items():
            by_row.setdefault(row, []).append((col, val))
        entries = {}
        for (row, mid), a in self.entries.items():
            for col, b in by_row.get(mid, ()):
                key = (row, col)
                prod = a * b
                entries[key] = entries[key] + prod if key in entries else prod
        return _operator(self.N, self.m, caps, entries)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, HSeries)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (self - other).is_zero()

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
        for (row, col), val in self.entries.items():
            c0 = val.coeff({})
            if row == col:
                if diag0 is None:
                    diag0 = c0
                elif not (c0 - diag0).is_zero():
                    raise ValueError("constant part is not scalar; cannot invert")
            elif not c0.is_zero():
                raise ValueError("constant part is not scalar; cannot invert")
        if diag0 is None or diag0.is_zero():
            raise ZeroDivisionError("operator is not invertible at order zero")
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
        pos = [s - 1 for s in slots]
        free = [i for i in range(m) if i + 1 not in slots]
        entries = {}
        one_entries = list(self.entries.items())
        for rest in itertools.product(range(self.N), repeat=len(free)):
            for (row, col), val in one_entries:
                r = [0] * m
                c = [0] * m
                for p, (ri, ci) in zip(pos, zip(row, col)):
                    r[p], c[p] = ri, ci
                for p, x in zip(free, rest):
                    r[p] = c[p] = x
                entries[(tuple(r), tuple(c))] = val
        return _operator(self.N, m, self.caps, entries)

    def swap_slots(self, s1: int, s2: int) -> "TensorOp":
        """Conjugate by the flip of two slots (1-based)."""
        a, b = s1 - 1, s2 - 1

        def fl(t):
            t = list(t)
            t[a], t[b] = t[b], t[a]
            return tuple(t)

        return _operator(self.N, self.m, self.caps,
                         {(fl(r), fl(c)): v
                          for (r, c), v in self.entries.items()})

    def transpose_slot(self, slot: int, ltd) -> "TensorOp":
        """Twisted transposition e_ij -> eps_i eps_j e_{j'i'} in one slot."""
        s = slot - 1
        entries = {}
        for (row, col), val in self.entries.items():
            i, j = row[s], col[s]
            r = row[:s] + (ltd.iprime(j),) + row[s + 1:]
            c = col[:s] + (ltd.iprime(i),) + col[s + 1:]
            sign = ltd.eps[i] * ltd.eps[j]
            entries[(r, c)] = entries[(r, c)] + val * sign if (r, c) in entries \
                else val * sign
        return _operator(self.N, self.m, self.caps, entries)

    def conj_diag(self, diag, slot: int, sign: int = 1) -> "TensorOp":
        """Conjugate by a diagonal single-slot operator: D_s T D_s^{-1}
        (sign=-1 gives D^{-1} T D).  ``diag`` is a list of unit HSeries."""
        s = slot - 1
        inv = [d.inv() for d in diag]
        left, right = (diag, inv) if sign == 1 else (inv, diag)
        return _operator(self.N, self.m, self.caps,
                         {(r, c): left[r[s]] * v * right[c[s]]
                          for (r, c), v in self.entries.items()})

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
        F = sorted(s - 1 for s in first_slots)
        G = [i for i in range(self.m) if i not in F]
        if mode == "RL":
            # y_a * other * x_a is the LR product with the halves swapped
            F, G = G, F

        def split(t):
            return tuple(t[i] for i in F), tuple(t[i] for i in G)

        def join(f, g):
            out = [0] * self.m
            for i, x in zip(F, f):
                out[i] = x
            for i, x in zip(G, g):
                out[i] = x
            return tuple(out)

        # (A odot B)[R,C] = sum A[(R_F,K'_G),(K_F,C_G)] B[(K_F,R_G),(C_F,K'_G)]
        bmap = {}
        for (br, bc), bv in other.entries.items():
            kf, rg = split(br)
            cf, kg = split(bc)
            bmap.setdefault((kf, kg), []).append((rg, cf, bv))
        entries = {}
        for (ar, ac), av in self.entries.items():
            rf, kg = split(ar)
            kf, cg = split(ac)
            for rg, cf, bv in bmap.get((kf, kg), ()):
                key = (join(rf, rg), join(cf, cg))
                prod = av * bv
                entries[key] = entries[key] + prod if key in entries else prod
        return _operator(self.N, self.m, caps, entries)

    # -- entrywise maps ------------------------------------------------

    def map_entries(self, fn) -> "TensorOp":
        return TensorOp(self.N, self.m, self.caps,
                        {k: fn(v) for k, v in self.entries.items()})

    def subs_ring_var(self, name, value) -> "TensorOp":
        return self.map_entries(lambda s: s.subs_ring_var(name, value))

    def subst_mult(self, name, factor) -> "TensorOp":
        return self.map_entries(lambda s: s.subst_mult(name, factor))

    # -- reporting ------------------------------------------------------

    def nonzero_count(self) -> int:
        return len(self.entries)

    def witness(self):
        """A deterministic sample nonzero entry: (row, col, repr) or None."""
        if not self.entries:
            return None
        row, col = min(self.entries)
        return (list(row), list(col), repr(self.entries[(row, col)]))

    def __repr__(self):
        return (f"TensorOp(N={self.N}, m={self.m}, "
                f"{len(self.entries)} nonzero entries)")

    # -- serialization --------------------------------------------------

    def entries_data(self):
        caps = [[n, self.caps[n]] for n in sorted(self.caps)]
        entries = [[list(r), list(c), self.entries[(r, c)].to_data()]
                   for r, c in sorted(self.entries)]
        return [self.N, self.m, caps, entries]
