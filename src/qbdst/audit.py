"""Post-hoc verification of a run: dual feasibility of the accumulated
moat duals, the exact cost identity, and the per-iteration counting
bounds on antenna/killer/expansion arcs.

`run_full` trusts nothing recorded: it regrows the run from the instance
with the engine's own loop (`engine.grow`) and compares the regrown trace
with the recorded one field by field, naming the first divergence.  The
three `verify_*` checks are plain arithmetic over whatever trace they are
given (its payments and duals); `run_full` gives them the regrown one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .instance import FAMILY_MINOR_FREE, FAMILY_PLANAR_BIPARTITE, Instance
from .engine import MODE_BUCKETED, GrowthTrace, Solution, grow
from .moats import ANTENNA, KILLER, is_antenna_arc, str_to_key

# Not called here: the certify benchmark's tracer wraps these names on this
# module (certbench/tracing.py TARGETS), so they stay attributes of it.
from .moats import active_moats, classify_arc  # noqa: F401

PLANAR_RATIO_BOUND = Fraction(20)


@dataclass
class IterationDelta:
    """Counts of final-solution arcs paid per moat at one iteration, split
    by the role they were eventually bought under.  The three per-moat arc
    sets are pairwise disjoint by construction."""

    index: int
    moat_count: int
    per_moat: dict[str, tuple[int, int, int]]  # key -> (ant, killer, exp)
    killer_front: frozenset[int]  # final killer arcs paid here
    expansion_front: frozenset[int]  # final expansion arcs paid here

    @property
    def delta_total(self) -> int:
        return sum(sum(c) for c in self.per_moat.values())


@dataclass
class AuditReport:
    payments_consistent: bool = True
    cost_identity_ok: bool = True
    dual_feasible_ok: bool = True
    lemmas_ok: bool | None = None
    deltas: list[IterationDelta] = field(default_factory=list)
    alpha_max: Fraction | None = None
    ratio_vs_lb: Fraction | None = None
    ratio_vs_opt: Fraction | None = None
    breaches: list[str] = field(default_factory=list)
    # First (iteration, field) where the regrown run differs from the
    # recorded one; iteration is None for a header field.
    divergence: tuple[int | None, str] | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.payments_consistent
            and self.cost_identity_ok
            and self.dual_feasible_ok
            and self.lemmas_ok is not False
            and not self.breaches
        )

    def render(self) -> str:
        lines = [
            f"payments_consistent {str(self.payments_consistent).lower()}",
            f"cost_identity_ok {str(self.cost_identity_ok).lower()}",
            f"dual_feasible_ok {str(self.dual_feasible_ok).lower()}",
            "lemmas_ok "
            + ("skipped" if self.lemmas_ok is None else str(self.lemmas_ok).lower()),
            "alpha_max " + (str(self.alpha_max) if self.alpha_max is not None else "n/a"),
            "ratio_vs_lb " + (str(self.ratio_vs_lb) if self.ratio_vs_lb is not None else "n/a"),
            "ratio_vs_opt " + (str(self.ratio_vs_opt) if self.ratio_vs_opt is not None else "n/a"),
        ]
        if self.divergence is not None:
            index, name = self.divergence
            where = "header" if index is None else f"iteration {index}"
            lines.append(f"divergence {where} {name}")
        for breach in self.breaches:
            lines.append(f"breach {breach}")
        return "\n".join(lines) + "\n"


def verify_dual_feasibility(
    inst: Instance, trace: GrowthTrace
) -> tuple[dict[int, Fraction], bool]:
    """Per-arc dual load (sum of y over sets the arc enters) and whether
    every load is at most 2c, with antenna arcs at most c."""
    loads = {arc_id: Fraction(0) for arc_id in range(len(inst.arcs))}
    for key_str, y in trace.duals.items():
        members = set(str_to_key(key_str))
        for arc_id, arc in enumerate(inst.arcs):
            if arc.head in members and arc.tail not in members:
                loads[arc_id] += y
    ok = True
    for arc_id, load in loads.items():
        cap = inst.arcs[arc_id].cost
        if is_antenna_arc(inst, arc_id):
            if load > cap:
                ok = False
        elif load > 2 * cap:
            ok = False
    return loads, ok


def verify_cost_identity(
    inst: Instance, trace: GrowthTrace, sol: Solution
) -> tuple[bool, list[tuple[int, Fraction, int]]]:
    """Count, per iteration, the trace's payments to final arcs under their
    eventual purchase label (any payment in standard mode), and check that
    sum_l epsilon_l * sum_A |Delta_l(A)| equals the pruned cost exactly.
    The payments are read from the trace, not re-derived; `run_full` passes
    a regrown trace.

    Returns (ok, table) with table rows (iteration, epsilon, delta_total).
    """
    final_labels = sol.arc_labels
    bucketed = trace.mode == MODE_BUCKETED
    table = []
    total = Fraction(0)
    for rec in trace.iterations:
        count = sum(
            1
            for p in rec.payments
            if p.arc in final_labels and (not bucketed or p.kind == final_labels[p.arc])
        )
        table.append((rec.index, rec.epsilon, count))
        total += rec.epsilon * count
    return total == sol.total_cost, table


def verify_counting_lemmas(
    inst: Instance, trace: GrowthTrace, sol: Solution
) -> tuple[bool, list[IterationDelta], Fraction | None]:
    """Per-iteration checks on final-solution arcs: at most one antenna arc
    enters each moat and their total is at most the moat count, final
    killer arcs being paid number at most the moat count, and final
    expansion arcs at most twice the moat count.  Also reports the largest
    delta-to-moat ratio seen.  Counts come from the trace's payments, as in
    `verify_cost_identity`.  Only defined for bucketed traces."""
    if trace.mode != MODE_BUCKETED:
        raise ValueError("counting lemmas apply to bucketed traces only")
    final_labels = sol.arc_labels
    deltas: list[IterationDelta] = []
    ok = True
    alpha_max: Fraction | None = None
    for rec in trace.iterations:
        per_moat = {key: [0, 0, 0] for key in rec.moats}
        killer_front: set[int] = set()
        expansion_front: set[int] = set()
        for p in rec.payments:
            if final_labels.get(p.arc) != p.kind:
                continue
            counts = per_moat.setdefault(p.moat, [0, 0, 0])
            if p.kind == ANTENNA:
                counts[0] += 1
            elif p.kind == KILLER:
                counts[1] += 1
                killer_front.add(p.arc)
            else:
                counts[2] += 1
                expansion_front.add(p.arc)
        delta = IterationDelta(
            index=rec.index,
            moat_count=len(rec.moats),
            per_moat={k: tuple(v) for k, v in per_moat.items()},
            killer_front=frozenset(killer_front),
            expansion_front=frozenset(expansion_front),
        )
        deltas.append(delta)
        ants = [c[0] for c in delta.per_moat.values()]
        if any(a > 1 for a in ants):
            ok = False
        if sum(ants) > delta.moat_count:
            ok = False
        if len(killer_front) > delta.moat_count:
            ok = False
        if len(expansion_front) > 2 * delta.moat_count:
            ok = False
        if delta.moat_count:
            alpha = Fraction(delta.delta_total, delta.moat_count)
            if alpha_max is None or alpha > alpha_max:
                alpha_max = alpha
    return ok, deltas, alpha_max


def minor_free_ratio_bound(r: int) -> float:
    """Reporting threshold for declared K_r-minor-free instances."""
    return 2.0 * (8.0 * r * math.log2(r) + 1.0)


def ratio_report(
    inst: Instance, sol: Solution, opt: Fraction | None = None
) -> AuditReport:
    """Solution-quality ratios plus family-specific breach flags."""
    report = AuditReport()
    if sol.lower_bound:
        report.ratio_vs_lb = sol.total_cost / sol.lower_bound
    if opt is not None and opt:
        report.ratio_vs_opt = sol.total_cost / opt
    if report.ratio_vs_lb is not None:
        if inst.family == FAMILY_PLANAR_BIPARTITE and report.ratio_vs_lb > PLANAR_RATIO_BOUND:
            report.breaches.append(
                f"ratio_vs_lb {report.ratio_vs_lb} exceeds {PLANAR_RATIO_BOUND} (planar_bipartite)"
            )
        if inst.family == FAMILY_MINOR_FREE and inst.minor_r is not None:
            bound = minor_free_ratio_bound(inst.minor_r)
            if float(report.ratio_vs_lb) > bound:
                report.breaches.append(
                    f"ratio_vs_lb {report.ratio_vs_lb} exceeds {bound:.3f} (minor_free {inst.minor_r})"
                )
    return report


HEADER_FIELDS = ("instance_hash", "node_count", "root", "terminals")
ITERATION_FIELDS = ("index", "moats", "epsilon", "payments", "purchased", "kills")


def _first_divergence(
    recorded: GrowthTrace, regrown: GrowthTrace
) -> tuple[int | None, str] | None:
    """First (iteration, field) where the recorded trace differs from the
    regrown one: header fields (iteration None), then each iteration's
    fields in ITERATION_FIELDS order, then the iteration count (field
    `count`, at the first iteration only one trace has)."""
    for name in HEADER_FIELDS:
        if getattr(recorded, name) != getattr(regrown, name):
            return None, name
    for index, (rec, want) in enumerate(zip(recorded.iterations, regrown.iterations)):
        for name in ITERATION_FIELDS:
            if getattr(rec, name) != getattr(want, name):
                return index, name
    if len(recorded.iterations) != len(regrown.iterations):
        return min(len(recorded.iterations), len(regrown.iterations)), "count"
    return None


def run_full(
    inst: Instance,
    trace: GrowthTrace,
    sol: Solution,
    opt: Fraction | None = None,
) -> AuditReport:
    """All audit checks on one run.  The run is regrown from the instance in
    the recorded mode; `payments_consistent` is false exactly when the
    regrown trace differs from the recorded one, and `divergence` names
    the first differing (iteration, field).  The certificate checks then
    run on the regrown trace."""
    report = ratio_report(inst, sol, opt)
    regrown = grow(inst, trace.mode)
    report.divergence = _first_divergence(trace, regrown)
    report.payments_consistent = report.divergence is None

    report.cost_identity_ok, _ = verify_cost_identity(inst, regrown, sol)
    _, report.dual_feasible_ok = verify_dual_feasibility(inst, regrown)
    if regrown.mode == MODE_BUCKETED:
        lemmas_ok, deltas, alpha_max = verify_counting_lemmas(inst, regrown, sol)
        report.lemmas_ok = lemmas_ok
        report.deltas = deltas
        report.alpha_max = alpha_max
    return report
