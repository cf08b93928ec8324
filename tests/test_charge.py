"""The weight-charge gate: an index-layer invariant of every operator,
sandwich and state coefficient.

Index i of the N-dimensional space has weight wt(i) = e_i and index
N-1-i has weight -e_i for i < n, where e_i is the i-th unit vector of
Z^n; B's middle index has weight 0.  With d(s) = wt(row at s) -
wt(col at s) for a slot s of an entry, the rules are:

  * every R-matrix, inverse R-matrix and slot-transposed R-matrix entry
    has d summed over all slots equal to 0;
  * every sandwich entry has d summed over the operator slots (word
    operators and extras) equal to d summed over the sym slots;
  * every state coefficient entry has d summed over the open slots equal
    to d summed over the word slots.

The rules hold whatever the coefficients are, so a mover that sends an
index to the wrong field, or a pin on the wrong slot, breaks them at once,
even where both sides of an identity go wrong alike and the residual
stays zero.  The gate is a test only: it wraps the package from outside.
"""

from fractions import Fraction

import pytest

from rmx import module_checks, states
from rmx.lietype import lie_type_data
from rmx.module_checks import module_check, weak_assoc_chain
from rmx.ratfunc import RatFunc
from rmx.rmatrix import Arg, rhat_inv, rmatrix, solve_normalizer
from rmx.states import FreeState
from rmx.tensorop import TensorOp, _layout

# one base-2^16 digit per weight component: a sum of at most a few dozen
# unit weights is zero exactly when every component is
_RADIX = 1 << 16


def _weights(ltd) -> list:
    """wt(i) for every index, each vector of Z^n packed into one int."""
    wt = [0] * ltd.N
    for i in range(ltd.n):
        wt[i], wt[ltd.N - 1 - i] = _RADIX ** i, -_RADIX ** i
    return wt


def _imbalance(op, split, wt) -> int:
    """The number of entries of ``op`` whose d summed over slots 1..split
    differs from d summed over the slots after ``split``."""
    layout = _layout(op.N, op.m)
    bad = 0
    for key in {k >> op.caps.width for k in op.entries}:
        rows, cols = layout.unpack(key)
        d = [wt[r] - wt[c] for r, c in zip(rows, cols)]
        bad += sum(d[:split]) != sum(d[split:])
    return bad


class _Gate:
    """Wraps R-matrix builds, sandwich contractions and state construction
    to charge-check everything they make."""

    def __init__(self, monkeypatch, ltd):
        self.wt = _weights(ltd)
        self.seen = {"rmatrix": 0, "sandwich": 0, "state": 0}
        self.bad = {"rmatrix": 0, "sandwich": 0, "state": 0}
        for module, name, build in ((states, "rmatrix", rmatrix),
                                    (states, "rhat_inv", rhat_inv),
                                    (module_checks, "rmatrix", rmatrix)):
            monkeypatch.setattr(module, name, self._builds(build))
        compose, init = FreeState._compose, FreeState.__init__

        def checked_compose(st, targets, omega_of_term, new_words,
                            shared=None):
            split = len(targets) + (shared is not None)

            def omega_of(term):
                omega = omega_of_term(term)
                self._note("sandwich", omega, split)
                return omega
            return compose(st, targets, omega_of, new_words, shared)

        def checked_init(st, ltd, norm, caps, c, open_slots, terms):
            init(st, ltd, norm, caps, c, open_slots, terms)
            for t in st.terms:
                self._note("state", t.coeff, st.open)

        monkeypatch.setattr(FreeState, "_compose", checked_compose)
        monkeypatch.setattr(FreeState, "__init__", checked_init)

    def _note(self, kind, op, split):
        self.seen[kind] += len(op.entries)
        self.bad[kind] += _imbalance(op, split, self.wt)

    def _builds(self, build):
        def checked(ltd, norm, arg, caps):
            op = build(ltd, norm, arg, caps)
            self._note("rmatrix", op, op.m)
            self._note("rmatrix", op.transpose_slot(1, ltd), op.m)
            return op
        return checked


@pytest.mark.parametrize("family,n", [("B", 1), ("C", 1), ("D", 2)])
def test_rmatrix_builds_conserve_charge(family, n):
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=2)
    caps = {"h": 2, "u": 2}
    wt = _weights(ltd)
    arg = Arg.make(RatFunc.var("Z"), {"u": -1, "h": Fraction(1, 2)})
    for op in (rmatrix(ltd, norm, arg, caps), rhat_inv(ltd, norm, arg, caps)):
        assert op.entries
        for slot in (None, 1, 2):
            t = op if slot is None else op.transpose_slot(slot, ltd)
            assert _imbalance(t, t.m, wt) == 0, (family, n, slot)


def test_imbalance_sees_a_broken_entry():
    ltd = lie_type_data("C", 1)
    norm = solve_normalizer(ltd, L=1)
    op = rmatrix(ltd, norm, Arg.make(RatFunc.var("Z")), {"h": 1})
    wt = _weights(ltd)
    # move one diagonal entry's first row index from 0 to 1, in a copy:
    # R-matrix builds are cached
    entries = dict(op.items())
    rows, cols = key = min(entries)
    assert rows[0] == 0
    entries[(1, *rows[1:]), cols] = entries.pop(key)
    broken = TensorOp(op.N, op.m, op.caps, entries)
    assert _imbalance(op, op.m, wt) == 0
    assert _imbalance(broken, op.m, wt) == 1


@pytest.mark.parametrize("family,n,L", [("C", 1, 3), ("B", 1, 2)])
@pytest.mark.parametrize("name", ["hexagon", "mixed", "weak_assoc_chain"])
def test_module_checks_conserve_charge(monkeypatch, name, family, n, L):
    gate = _Gate(monkeypatch, lie_type_data(family, n))
    if name == "weak_assoc_chain":
        rep = weak_assoc_chain(family, n, L=L, c=Fraction(0), cap_uv=1)
    else:
        rep = module_check(name, family, n, L=L, c=Fraction(1))
    assert all(gate.seen.values()), gate.seen
    assert gate.bad == {"rmatrix": 0, "sandwich": 0, "state": 0}, gate.bad
    assert rep.passed, rep.to_text()
