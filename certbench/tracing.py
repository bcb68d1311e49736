"""Per-layer spans and counts, recorded from outside the program.

A Tracer replaces public module attributes of ``qbdst`` with timing
wrappers while ``installed()`` is active and puts the originals back on
exit.  Callers bind names at import (``from .moats import active_moats``),
so a function is replaced in every module that calls it, and the module
whose name was called tells who called it.

Each wrapped call records a span (name, calling module, start, end,
parent span, instance id).  Spans are kept in memory for one instance and
folded into per-layer totals when the instance ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module whose attribute is replaced, attribute, layer)
TARGETS = (
    ("qbdst.instance", "parse_instance", "instance"),
    ("qbdst.instance", "normalize_parallel", "instance"),
    ("qbdst.instance", "validate", "instance"),
    ("qbdst.instance", "is_feasible", "instance"),
    ("qbdst.engine", "is_feasible", "instance"),
    ("qbdst.moats", "active_moats", "moats"),
    ("qbdst.engine", "active_moats", "moats"),
    ("qbdst.audit", "active_moats", "moats"),
    ("qbdst.moats", "classify_arc", "moats"),
    ("qbdst.engine", "classify_arc", "moats"),
    ("qbdst.audit", "classify_arc", "moats"),
    ("qbdst.engine", "solve", "engine"),
    ("qbdst.engine", "solve_standard_baseline", "engine"),
    ("qbdst.engine", "reverse_delete", "engine"),
    ("qbdst.engine", "write_trace", "engine"),
    ("qbdst.engine", "read_trace", "engine"),
    ("qbdst.audit", "run_full", "audit"),
    ("qbdst.audit", "verify_cost_identity", "audit"),
    ("qbdst.audit", "verify_counting_lemmas", "audit"),
    ("qbdst.audit", "verify_dual_feasibility", "audit"),
    ("qbdst.oracle", "exact_opt_dp", "oracle"),
)

GROW_SPANS = ("engine.solve", "engine.solve_standard_baseline")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, site, start, end, parent, instance]
        self._stack: list[int] = []
        self.instance = -1
        self.seconds: Counter[str] = Counter()  # span time by name
        self.self_seconds: Counter[str] = Counter()  # minus direct children
        self.counts: Counter[str] = Counter()

    def _wrap(self, fn, name: str, site: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, site, time.perf_counter(), None, parent, self.instance]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result) -> None:
        """Exact counts read off the arguments and results of a call."""
        if name in GROW_SPANS:
            trace = result[1]
            self.counts[f"{name}.iterations"] += len(trace.iterations)
            self.counts["engine.iterations"] += len(trace.iterations)
            self.counts["engine.zero_eps_iterations"] += sum(
                1 for rec in trace.iterations if not rec.epsilon
            )
            self.counts["engine.payments"] += sum(len(rec.payments) for rec in trace.iterations)
        elif name == "engine.reverse_delete":
            self.counts["engine.reverse_delete.removed"] += len(args[1].iterations) - len(
                result.final_arcs
            )
        elif name == "engine.write_trace":
            self.counts["engine.trace_bytes"] += len(args[1].getvalue().encode("utf-8"))
        elif name == "audit.run_full":
            self.counts["audit.iterations"] += len(args[1].iterations)

    @contextmanager
    def installed(self, instance_id: int):
        """Wrap every target for the duration of one instance, then restore
        the originals and fold the instance's spans."""
        saved = []
        self.instance = instance_id
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                site = module_name.rsplit(".", 1)[1]
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", site))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._fold()

    def _fold(self) -> None:
        child_seconds = [0.0] * len(self.spans)
        deleted_seconds = [0.0] * len(self.spans)
        for name, site, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
                if name == "engine.reverse_delete":
                    deleted_seconds[parent] += end - start
        for idx, (name, site, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            self.seconds[name] += duration
            self.self_seconds[name] += duration - child_seconds[idx]
            if name in GROW_SPANS:
                self.seconds["engine.grow"] += duration - deleted_seconds[idx]
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}.calls.{site}"] += 1
        self.spans.clear()
        self._stack.clear()

    def layer_counts(self) -> dict[str, float]:
        """Exact counts, and ratios of exact counts; equal on every pass
        over the same corpus."""
        n = self.counts
        bought = n["engine.solve.iterations"]  # bucketed runs, the ones that classify
        audited = n["audit.iterations"]
        return {
            "instance.is_feasible.calls": n["instance.is_feasible.calls"],
            "moats.active_moats.calls.engine": n["moats.active_moats.calls.engine"],
            "moats.active_moats.calls.audit": n["moats.active_moats.calls.audit"],
            "moats.active_moats.calls.classify": n["moats.active_moats.calls.moats"],
            "moats.classify_arc.calls": n["moats.classify_arc.calls"],
            "moats.classify_per_purchase": (
                n["moats.classify_arc.calls.engine"] / bought if bought else 0.0
            ),
            "engine.iterations": n["engine.iterations"],
            "engine.zero_eps_iterations": n["engine.zero_eps_iterations"],
            "engine.payments": n["engine.payments"],
            "engine.reverse_delete.removed": n["engine.reverse_delete.removed"],
            "engine.trace_bytes": n["engine.trace_bytes"],
            "audit.replays_per_iteration": (
                n["moats.active_moats.calls.audit"] / audited if audited else 0.0
            ),
            "oracle.exact_opt_dp.calls": n["oracle.exact_opt_dp.calls"],
        }

    def layer_seconds(self) -> dict[str, float]:
        """Seconds spent in each layer; self times exclude wrapped callees."""
        s, own = self.seconds, self.self_seconds
        return {
            "instance.parse.s": s["instance.parse_instance"]
            + s["instance.normalize_parallel"]
            + s["instance.validate"],
            "moats.active_moats.s": s["moats.active_moats"],
            "moats.classify_arc.s": s["moats.classify_arc"],
            "engine.grow.s": s["engine.grow"],
            "engine.grow.self_s": sum(own[name] for name in GROW_SPANS),
            "engine.reverse_delete.s": s["engine.reverse_delete"],
            "engine.write_trace.s": s["engine.write_trace"],
            "engine.read_trace.s": s["engine.read_trace"],
            "audit.run_full.s": s["audit.run_full"],
            "audit.verify_cost_identity.s": s["audit.verify_cost_identity"],
            "audit.verify_counting_lemmas.s": s["audit.verify_counting_lemmas"],
            "audit.verify_dual_feasibility.s": s["audit.verify_dual_feasibility"],
            "audit.replay.self_s": own["audit.run_full"],
            "oracle.exact_opt_dp.s": s["oracle.exact_opt_dp"],
        }
