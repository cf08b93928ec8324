"""Layer tracer for the rmx benchmark.

The tracer wraps the public entry points of each rmx layer from outside the
package: methods are replaced on their classes (aliases such as ``__radd__``
and ``__rmul__`` included), and module-level functions are rebound in every
module that imported them by name.  For each boundary it keeps a call count
and inclusive seconds; for each layer it keeps self seconds, that is the time
during which the innermost active span belongs to that layer.  Everything is
held in memory and read out once when the pass ends.

Install it in a fresh interpreter before any rmx computation runs: the
normaliser cache is replaced by an empty traced one.
"""

from __future__ import annotations

import functools
import importlib
import time
from fractions import Fraction

# Layers whose self time counts as attributed work.
LAYERS = ("ratfunc", "hseries", "tensorop", "rmatrix", "states", "script")

# Boundaries with a metric of their own are named in Tracer.metrics; the
# *_OTHER methods are wrapped only so that their time counts as self time
# of their own layer rather than of their caller's.
RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__pow__", "subs_var")
RATFUNC_OTHER = ("__eq__", "__hash__", "trim", "remove_denominator_factor",
                 "numer_terms", "denom_terms", "denom_is_monomial",
                 "as_fraction", "var", "const")
HSERIES_OTHER = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__pow__", "__truediv__", "__eq__", "map_coeffs",
                 "subs_ring_var", "diff_ring_var", "diff_capped", "with_caps",
                 "_remap", "coeff", "exp_shift", "const", "one", "zero",
                 "capped_var")
TENSOROP_OTHER = ("__add__", "__sub__", "__neg__", "scale", "inv",
                  "swap_slots", "transpose_slot", "conj_diag", "map_entries",
                  "subs_ring_var", "subst_mult", "nonzero_count", "witness",
                  "identity", "zero", "unit", "__eq__", "is_identity")
STATES_METHODS = ("apply_tminus", "apply_tminus_inv", "apply_tplus",
                  "braiding_s", "merge_y", "odot_open", "canonicalize",
                  "residual")
STATES_OTHER = ("mul_open", "mul_open_right", "swap_open",
                "with_identity_open", "map_entries", "scale", "translate_d",
                "rtt_swap", "_contract_pairs", "_replace", "pure", "vacuum")


class Tracer:
    """Counts, inclusive and self times at rmx layer boundaries."""

    def __init__(self):
        self._stack = []        # child seconds of each open span
        self._cells = {}        # boundary -> [calls, incl_s, depth]
        self._self = {}         # layer -> [self_s]
        self.extra = {"hseries.mul_one": 0, "tensorop.embed_entries": 0,
                      "tensorop.operand_nnz": 0, "tensorop.operand_cap": 0,
                      "tensorop.peak_nnz": 0, "states.peak_terms": 0}

    # -- recording -----------------------------------------------------

    def _cell(self, boundary):
        return self._cells.setdefault(boundary, [0, 0.0, 0])

    def _layer(self, layer):
        return self._self.setdefault(layer, [0.0])

    def wrap(self, fn, layer, boundary, when=None, note=None):
        """Return ``fn`` timed as a span of ``boundary`` in ``layer``.

        ``when(args)`` false calls ``fn`` untraced; ``note(args, result)``
        updates derived counters after the span closes.
        """
        stack = self._stack
        cell = self._cell(boundary)
        own = self._layer(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            stack.append(0.0)
            cell[2] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own[0] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                cell[0] += 1
                cell[2] -= 1
                if not cell[2]:
                    cell[1] += dt
            if note is not None:
                note(args, result)
            return result

        return traced

    # -- read-out ------------------------------------------------------

    def count(self, boundary):
        return self._cells.get(boundary, (0,))[0]

    def incl(self, boundary):
        return self._cells.get(boundary, (0, 0.0))[1]

    def self_s(self, layer):
        return self._self.get(layer, (0.0,))[0]

    def counts(self):
        """Every boundary count and derived counter; deterministic per pass."""
        out = {b: c[0] for b, c in sorted(self._cells.items())}
        out.update(self.extra)
        return out

    def metrics(self, busy_s):
        """name -> (value, unit) of the per-layer metrics of one traced pass
        that spent ``busy_s`` seconds in its checks.  Times are inclusive
        seconds of a boundary's outermost spans, or a layer's self
        seconds."""
        n, s, extra = self.count, self.incl, self.extra
        out = {}

        def count(name, value):
            out[name] = (value, "count")

        def seconds(name, value):
            out[name] = (value, "s")

        def ratio(name, num, den):
            out[name] = (num / den if den else 0.0, "ratio")

        count("ratfunc.ops", n("ratfunc.ops"))
        seconds("ratfunc.self_s", self.self_s("ratfunc"))
        count("ratfunc.lift", n("ratfunc.lift"))
        seconds("ratfunc.lift_s", s("ratfunc.lift"))
        count("ratfunc.diff", n("ratfunc.diff"))
        count("hseries.mul", n("hseries.mul"))
        count("hseries.mul_one", extra["hseries.mul_one"])
        ratio("hseries.mul_one_frac", extra["hseries.mul_one"],
              n("hseries.mul"))
        count("hseries.inv", n("hseries.inv"))
        count("hseries.subst_mult", n("hseries.subst_mult"))
        seconds("hseries.self_s", self.self_s("hseries"))
        count("tensorop.mul", n("tensorop.mul"))
        seconds("tensorop.mul_s", s("tensorop.mul"))
        seconds("tensorop.self_s", self.self_s("tensorop"))
        count("tensorop.embed", n("tensorop.embed"))
        count("tensorop.embed_entries", extra["tensorop.embed_entries"])
        ratio("tensorop.mul_density", extra["tensorop.operand_nnz"],
              extra["tensorop.operand_cap"])
        count("tensorop.peak_nnz", extra["tensorop.peak_nnz"])
        count("tensorop.odot", n("tensorop.odot"))
        for name in ("build", "g1_at", "solve"):
            count(f"rmatrix.{name}", n(f"rmatrix.{name}"))
            seconds(f"rmatrix.{name}_s", s(f"rmatrix.{name}"))
        seconds("rmatrix.self_s", self.self_s("rmatrix"))
        for name in STATES_METHODS:
            count(f"states.{name}", n(f"states.{name}"))
            seconds(f"states.{name}_s", s(f"states.{name}"))
        count("states.peak_terms", extra["states.peak_terms"])
        seconds("states.self_s", self.self_s("states"))
        seconds("script.parse_s", s("script.parse"))
        seconds("script.eval_s", s("script.eval"))
        seconds("script.self_s", self.self_s("script"))
        ratio("trace.coverage",
              sum(self.self_s(layer) for layer in LAYERS), busy_s)
        return out

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every layer boundary of the imported rmx package."""
        # ``rmx.rmatrix`` is the function, not the module, once the
        # package has been imported, so modules are looked up by path.
        rmx, checks, hseries, module_checks, ratfunc, rmatrix, script, \
            states, tensorop = (importlib.import_module(m) for m in (
                "rmx", "rmx.checks", "rmx.hseries", "rmx.module_checks",
                "rmx.ratfunc", "rmx.rmatrix", "rmx.script", "rmx.states",
                "rmx.tensorop"))

        HSeries, RatFunc = hseries.HSeries, ratfunc.RatFunc
        TensorOp, FreeState = tensorop.TensorOp, states.FreeState
        extra = self.extra

        def patch(cls, names, layer, boundary=None, **kw):
            """Wrap methods ``names`` of ``cls``; they count under
            ``boundary``, or under ``<layer>.<name>`` if it is None."""
            for name in names:
                raw = cls.__dict__[name]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self.wrap(fn, layer, boundary or f"{layer}.{name}",
                                    **kw)
                setattr(cls, name,
                        staticmethod(wrapped) if static else wrapped)

        # coefficient layer
        patch(RatFunc, RATFUNC_OPS, "ratfunc", "ratfunc.ops")
        patch(RatFunc, RATFUNC_OTHER, "ratfunc")
        patch(RatFunc, ("diff",), "ratfunc")
        patch(RatFunc, ("lift",), "ratfunc", "ratfunc.lift",
              when=lambda a: tuple(a[1]) != a[0].vars)

        def is_one(x):
            if isinstance(x, HSeries):
                return len(x.terms) == 1 and x.is_one()
            if isinstance(x, RatFunc):
                return x.is_one()
            return isinstance(x, (int, Fraction)) and x == 1

        def note_mul(args, _):
            if is_one(args[0]) or is_one(args[1]):
                extra["hseries.mul_one"] += 1

        patch(HSeries, ("__mul__", "__rmul__"), "hseries", "hseries.mul",
              note=note_mul)
        patch(HSeries, ("inv",), "hseries")
        patch(HSeries, ("subst_mult",), "hseries")
        patch(HSeries, HSERIES_OTHER, "hseries")

        # operator layer
        def peak(*ops):
            extra["tensorop.peak_nnz"] = max(
                extra["tensorop.peak_nnz"], *(len(op.entries) for op in ops))

        def note_op_mul(args, result):
            a, b = args[0], args[1]
            extra["tensorop.operand_nnz"] += len(a.entries) + len(b.entries)
            extra["tensorop.operand_cap"] += 2 * a.N ** (2 * a.m)
            peak(a, b, result)

        def note_embed(_, result):
            extra["tensorop.embed_entries"] += len(result.entries)
            peak(result)

        patch(TensorOp, ("__mul__",), "tensorop", "tensorop.mul",
              when=lambda a: isinstance(a[1], TensorOp), note=note_op_mul)
        patch(TensorOp, ("__rmul__",), "tensorop")
        patch(TensorOp, ("embed",), "tensorop", note=note_embed)
        patch(TensorOp, ("odot",), "tensorop",
              note=lambda a, r: peak(a[0], a[1], r))
        patch(TensorOp, TENSOROP_OTHER, "tensorop")

        # state layer
        def note_terms(_, result):
            if isinstance(result, FreeState):
                extra["states.peak_terms"] = max(extra["states.peak_terms"],
                                                 len(result.terms))

        patch(FreeState, STATES_METHODS + STATES_OTHER, "states",
              note=note_terms)

        # R-matrix construction: rhat and rtilde are the same object as
        # rmatrix, so one traced function replaces all three names.
        patch(rmatrix.Normalizer, ("g1_at",), "rmatrix")
        solve = rmatrix._solve_normalizer_cached.__wrapped__
        rmatrix._solve_normalizer_cached = functools.lru_cache(maxsize=None)(
            self.wrap(solve, "rmatrix", "rmatrix.solve"))
        replace = {
            id(rmatrix.rmatrix): self.wrap(rmatrix.rmatrix, "rmatrix",
                                           "rmatrix.build"),
            id(rmatrix.rhat_inv): self.wrap(rmatrix.rhat_inv, "rmatrix",
                                            "rmatrix.build"),
            id(rmatrix.m_diag): self.wrap(rmatrix.m_diag, "rmatrix",
                                          "rmatrix.m_diag"),
            id(rmatrix.solve_normalizer): self.wrap(
                rmatrix.solve_normalizer, "rmatrix",
                "rmatrix.solve_normalizer"),
            id(script.parse_script): self.wrap(script.parse_script, "script",
                                               "script.parse"),
            id(script.evaluate_sides): self.wrap(script.evaluate_sides,
                                                 "script", "script.eval"),
        }
        # Rebind in every module that imported these names.  The rmatrix
        # module itself keeps its own bindings, so that rhat_inv's internal
        # call to rmatrix does not count as a second build.
        for module in (rmx, checks, module_checks, states, script):
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
