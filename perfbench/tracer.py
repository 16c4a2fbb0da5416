"""Spans and counters around affkit's public API, installed from outside.

Every public function of each affkit module, and every public plain method
of the classes defined there, is replaced by a wrapper that records a span
(name, start, end, parent).  The wrapper is also written into every affkit
namespace that imported the function by name, so ``affkit.liealg`` calls
the wrapped ``killing_jet_space`` too.  Expr and Scalar arithmetic dunders
get counters instead of spans.  Self time is a span's duration minus the
durations of its direct children.  Nothing in ``src/`` is modified.

A run lasts a fixed time, so totals would grow with the speed of the code;
every call count, self time and counter is therefore reported per traced
op.  Ratios and maxima are reported as they are.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("symexpr", "scalars", "linalg", "surface", "killing", "liealg",
           "numeric", "coords", "paperchecks", "cli")
EXPR_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                "__pow__", "__truediv__")
SCALAR_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                  "__truediv__", "__pow__")
SPAN_KEEP = 100_000   # raw span records kept in memory; stats cover all


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.counters = Counter()
        self.spans: list[tuple] = []   # (id, parent id, name, start, end)
        self.span_count = 0
        self.ops = 0
        self._stack: list[list] = []   # [name, span id, child time]
        self._op_surfaces: set[int] = set()
        self.bits_max = 0
        self._hooks = {
            "killing.killing_jet_space": self._on_jet_space,
            "killing.prolongation_symbolic": self._on_prolongation,
            "liealg.structure_constants": self._on_structure_constants,
            "liealg.classify": self._on_classify,
            "linalg.charpoly": self._on_charpoly,
            "symexpr.Expr.eval_array": self._on_eval_array,
            "numeric.flow_batch": self._on_flow_batch,
            "coords.normalize_chart": self._on_chart,
            "coords.commuting_chart": self._on_chart,
            "coords.type_b_chart": self._on_chart,
        }

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        import affkit
        mods = [importlib.import_module(f"affkit.{m}") for m in MODULES]
        replaced = {}
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._span(f"{short}.{name}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        setattr(obj, mname, self._span(f"{short}.{name}.{mname}", meth))
        for ns in [affkit] + mods:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(ns, name, replaced[id(obj)])
        from affkit.scalars import Scalar
        from affkit.symexpr import Expr
        for cls, names, label in ((Expr, EXPR_DUNDERS, "symexpr.arith"),
                                  (Scalar, SCALAR_DUNDERS, "scalars.arith")):
            for name in names:
                setattr(cls, name, self._counted(label, vars(cls)[name]))

    def _span(self, name: str, fn):
        stats, stack, hook = self.stats, self._stack, self._hooks.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.span_count += 1
            frame = [name, tracer.span_count, 0.0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            exc = None
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(tracer.spans) < SPAN_KEEP:
                    tracer.spans.append((frame[1], parent, name, start, end))
                if hook is not None:
                    hook(args, kwargs, None if exc else result, exc)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, label: str, fn):
        counters = self.counters
        tracer = self
        real_key = label + ".real"

        def wrapper(self_, *args):
            if tracer.enabled:
                counters[label] += 1
                if label == "scalars.arith":
                    other = args[0] if args else None
                    if not self_.im and (other is None or isinstance(other, (int, Fraction))
                                         or not other.im):
                        counters[real_key] += 1
            return fn(self_, *args)

        return wrapper

    # ---------------------------------------------------------------- hooks

    def _bits(self, scalars) -> None:
        for sc in scalars:
            for part in (sc.re, sc.im):
                self.bits_max = max(self.bits_max, part.numerator.bit_length(),
                                    part.denominator.bit_length())

    def _on_jet_space(self, args, kwargs, result, exc):
        if result is not None:
            self.counters["killing.rounds"] += len(result.constraint_history)
            self._bits(x for jet in result.basis for x in jet.as_vector())

    def _on_prolongation(self, args, kwargs, result, exc):
        if args:
            self._op_surfaces.add(id(args[0]))

    def _on_structure_constants(self, args, kwargs, result, exc):
        if result is not None:
            self._bits(x for plane in result.c for row in plane for x in row)

    def _on_classify(self, args, kwargs, result, exc):
        if result is not None:
            self.counters["liealg.witnesses"] += len(result.branches)
            diags = result.diagnostics
        else:
            diags = [str(exc)]
        self.counters["liealg.skipped_eigenvalues"] += sum(
            d.count("skipped non-rational") for d in diags)

    def _on_charpoly(self, args, kwargs, result, exc):
        if any(f[0] == "liealg.classify" for f in self._stack):
            self.counters["liealg.charpoly_in_classify"] += 1

    def _on_eval_array(self, args, kwargs, result, exc):
        if result is not None:
            self.counters["symexpr.eval_array.points"] += int(result.size)

    def _on_flow_batch(self, args, kwargs, result, exc):
        import numpy as np
        points = args[1] if len(args) > 1 else kwargs["points"]
        t = args[2] if len(args) > 2 else kwargs["t"]
        step = args[3] if len(args) > 3 else kwargs.get("step", 1e-3)
        tmax = float(np.max(np.abs(np.asarray(t, dtype=float))))
        steps = max(1, math.ceil(tmax / step)) if tmax else 0
        self.counters["numeric.rk4_point_steps"] += int(points.shape[0]) * steps

    def _on_chart(self, args, kwargs, result, exc):
        report = result.report if result is not None else getattr(exc, "report", None)
        if not report:
            return
        tol = report.get("tol") or kwargs.get("tol", 1e-4)
        checks = [v for k, v in report.items() if isinstance(v, float) and k != "tol"]
        if checks:
            self.counters.setdefault("coords.residual_to_tol_max", 0.0)
            self.counters["coords.residual_to_tol_max"] = max(
                self.counters["coords.residual_to_tol_max"], max(checks) / tol)

    # -------------------------------------------------------------- per op

    def end_op(self) -> None:
        """Close one op: count it and the distinct surfaces it prolongated."""
        self.ops += 1
        self.counters["killing.surfaces"] += len(self._op_surfaces)
        self._op_surfaces.clear()

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        st, c = self.stats, self.counters

        def calls(name):
            return st[name][0] if name in st else 0

        def self_s(name):
            return st[name][2] if name in st else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def per_op(total, unit):
            return (ratio(total, self.ops), unit)

        out = {}
        spans = {
            "symexpr.parse": "symexpr.parse",
            "symexpr.diff": "symexpr.Expr.diff",
            "symexpr.eval_exact": "symexpr.Expr.eval_exact",
            "symexpr.eval_numeric": "symexpr.Expr.eval_numeric",
            "symexpr.eval_array": "symexpr.Expr.eval_array",
            "linalg.rref": "linalg.rref", "linalg.charpoly": "linalg.charpoly",
            "killing.killing_jet_space": "killing.killing_jet_space",
            "killing.prolongation_symbolic": "killing.prolongation_symbolic",
            "killing.extend_jet": "killing.extend_jet",
            "liealg.classify": "liealg.classify",
            "liealg.bracket_jets": "liealg.bracket_jets",
            "numeric.flow_batch": "numeric.flow_batch",
            "coords.pullback_gamma_batch": "coords.pullback_gamma_batch",
            "cli.main": "cli.main",
        }
        for metric, span in spans.items():
            out[f"{metric}.calls"] = per_op(calls(span), "calls/op")
            out[f"{metric}.self_s"] = per_op(self_s(span), "s/op")
        for metric in ("linalg.nullspace", "linalg.solve", "surface.is_flat"):
            out[f"{metric}.calls"] = per_op(calls(metric), "calls/op")
        out["liealg.ad.calls"] = per_op(calls("liealg.LieAlgebraPresentation.ad"), "calls/op")
        for metric in ("linalg.mat_pow", "surface.make_surface", "surface.curvature",
                       "surface.nabla_ricci", "killing.residuals",
                       "liealg.structure_constants", "liealg.grading_check",
                       "numeric.flow_preserves_connection", "numeric.fd_residuals",
                       "coords.normalize_chart", "coords.commuting_chart",
                       "coords.type_b_chart", "paperchecks.verify_paper"):
            out[f"{metric}.self_s"] = per_op(self_s(metric), "s/op")
        out["symexpr.arith.calls"] = per_op(c["symexpr.arith"], "calls/op")
        out["symexpr.eval_array.points"] = per_op(c["symexpr.eval_array.points"], "count/op")
        out["scalars.arith.calls"] = per_op(c["scalars.arith"], "calls/op")
        out["scalars.arith.real_share"] = (
            ratio(c["scalars.arith.real"], c["scalars.arith"]), "ratio")
        out["scalars.result_bits_max"] = (self.bits_max, "bits")
        out["killing.prolongations_per_surface"] = (
            ratio(calls("killing.prolongation_symbolic"), c["killing.surfaces"]), "ratio")
        out["killing.rounds"] = per_op(c["killing.rounds"], "count/op")
        out["liealg.witness_yield"] = (
            ratio(c["liealg.witnesses"], calls("liealg.LieAlgebraPresentation.ad")), "ratio")
        out["liealg.charpoly_per_classify"] = (
            ratio(c["liealg.charpoly_in_classify"], calls("liealg.classify")), "ratio")
        out["liealg.skipped_eigenvalues"] = per_op(c["liealg.skipped_eigenvalues"], "count/op")
        out["numeric.rk4_point_steps"] = per_op(c["numeric.rk4_point_steps"], "count/op")
        out["coords.residual_to_tol_max"] = (c.get("coords.residual_to_tol_max", 0.0), "ratio")
        return out
