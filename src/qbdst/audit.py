"""Post-hoc verification of a run: dual feasibility of the accumulated
moat duals, the exact cost identity, and the per-iteration counting
bounds on antenna/killer/expansion arcs.

`run_full` trusts nothing recorded: it regrows the run from the instance
with the engine's own step generator (`engine.steps`, collected by
`engine.grow`) and compares the regrown trace with the recorded one field
by field, naming the first divergence.  The three `verify_*` checks are
plain arithmetic over what they are given: the cost identity and the
counting lemmas over a trace's payments and a solution's labels, dual
feasibility over a vertex set -> y mapping.
`run_full` gives them the regrown trace, its duals and its
reverse-deleted solution, the one it certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .instance import FAMILY_MINOR_FREE, FAMILY_PLANAR_BIPARTITE, Instance, _fmt
from .engine import MODE_BUCKETED, GrowthTrace, Solution, grow, reverse_delete
from .moats import ANTENNA, KILLER, is_antenna_arc

# Not called here: the certify benchmark's tracer wraps these names on this
# module (certbench/tracing.py TARGETS), so they stay attributes of it.
from .moats import active_moats, classify_arc  # noqa: F401

PLANAR_RATIO_BOUND = Fraction(20)


class AuditReport(NamedTuple):
    """What `ratio_report` or `run_full` found; `ratio_report` leaves the
    certificate checks at their defaults."""

    payments_consistent: bool = True
    cost_identity_ok: bool = True
    dual_feasible_ok: bool = True
    lemmas_ok: bool | None = None
    alpha_max: Fraction | None = None
    ratio_vs_lb: Fraction | None = None
    ratio_vs_opt: Fraction | None = None
    breaches: tuple[str, ...] = ()
    # First (iteration, field) where the regrown run differs from the
    # recorded one; iteration is None for a header field and for SOLUTION.
    divergence: tuple[int | None, str] | None = None
    # The certified solution: reverse delete of the regrown trace.
    solution: Solution | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.payments_consistent
            and self.cost_identity_ok
            and self.dual_feasible_ok
            and self.lemmas_ok is not False
            and not self.breaches
        )

    def render(self, decimal: bool = False) -> str:
        lines = [
            f"payments_consistent {str(self.payments_consistent).lower()}",
            f"cost_identity_ok {str(self.cost_identity_ok).lower()}",
            f"dual_feasible_ok {str(self.dual_feasible_ok).lower()}",
            "lemmas_ok "
            + ("skipped" if self.lemmas_ok is None else str(self.lemmas_ok).lower()),
            f"alpha_max {_fmt(self.alpha_max, decimal)}",
            f"ratio_vs_lb {_fmt(self.ratio_vs_lb, decimal)}",
            f"ratio_vs_opt {_fmt(self.ratio_vs_opt, decimal)}",
        ]
        if self.divergence is not None:
            index, name = self.divergence
            if index is not None:
                name = f"iteration {index} {name}"
            elif name != SOLUTION:
                name = f"header {name}"
            lines.append(f"divergence {name}")
        for breach in self.breaches:
            lines.append(f"breach {breach}")
        return "\n".join(lines) + "\n"


def verify_dual_feasibility(
    inst: Instance, duals: dict[frozenset[int], Fraction]
) -> tuple[dict[int, Fraction], bool]:
    """Per-arc dual load (sum of y over the sets of `duals`, a vertex set
    -> y mapping, that the arc enters) and whether every load is at most
    2c, with antenna arcs at most c, and every set with a dual is a cut the
    LP bound counts: nodes in 1..n, no root, a terminal."""
    # A set holding a terminal has a min and a max to bound it in 1..n.
    ok = all(
        not members.isdisjoint(inst.terminals)
        and inst.root not in members
        and 1 <= min(members)
        and max(members) <= inst.node_count
        for members in duals
    )
    # A set's load falls on the in-arcs of its members, so each set visits
    # only those, not all |E| arcs.
    in_arcs: dict[int, list[int]] = {}
    for arc_id, arc in enumerate(inst.arcs):
        in_arcs.setdefault(arc.head, []).append(arc_id)
    loads = {arc_id: Fraction(0) for arc_id in range(len(inst.arcs))}
    for members, y in duals.items():
        for v in members:
            for arc_id in in_arcs.get(v, ()):
                if inst.arcs[arc_id].tail not in members:
                    loads[arc_id] += y
    for arc_id, load in loads.items():
        cap = inst.arcs[arc_id].cost
        if is_antenna_arc(inst, arc_id):
            if load > cap:
                ok = False
        elif load > 2 * cap:
            ok = False
    return loads, ok


def verify_cost_identity(trace: GrowthTrace, sol: Solution) -> bool:
    """Whether sum_l epsilon_l * sum_A |Delta_l(A)| equals the pruned cost
    exactly, where |Delta_l(A)| counts iteration l's payments to final arcs
    under their eventual purchase label (any payment in standard mode).
    An epsilon-0 iteration adds nothing, so its payments are not read.
    The payments are read from the trace, not re-derived; `run_full`
    passes a regrown trace."""
    final_labels = sol.arc_labels
    bucketed = trace.mode == MODE_BUCKETED
    total = Fraction(0)
    for rec in trace.iterations:
        if rec.epsilon:
            count = sum(
                1
                for p in rec.payments
                if p.arc in final_labels and (not bucketed or p.kind == final_labels[p.arc])
            )
            total += rec.epsilon * count
    return total == sol.total_cost


def verify_counting_lemmas(trace: GrowthTrace, sol: Solution) -> tuple[bool, Fraction | None]:
    """Per-iteration checks on the payments to final arcs under their
    eventual purchase label: at most one antenna arc paid per moat and at
    most the moat count in all, at most the moat count of distinct killer
    arcs, and at most twice the moat count of distinct expansion arcs.
    Every iteration is checked, epsilon 0 or not.  Returns (ok, alpha_max),
    alpha_max the largest ratio of such payments to moats.  Counts come
    from the trace's payments, as in `verify_cost_identity`.  Only defined
    for bucketed traces."""
    if trace.mode != MODE_BUCKETED:
        raise ValueError("counting lemmas apply to bucketed traces only")
    final_labels = sol.arc_labels
    ok = True
    alpha_max: Fraction | None = None
    for rec in trace.iterations:
        moat_count = len(rec.moats)
        antenna_moats: set[frozenset[int]] = set()
        killers: set[int] = set()
        expansions: set[int] = set()
        paid = 0
        for p in rec.payments:
            if final_labels.get(p.arc) != p.kind:
                continue
            paid += 1
            if p.kind == ANTENNA:
                if p.moat in antenna_moats:
                    ok = False  # a second antenna payment into one moat
                antenna_moats.add(p.moat)
            elif p.kind == KILLER:
                killers.add(p.arc)
            else:
                expansions.add(p.arc)
        if (
            len(antenna_moats) > moat_count
            or len(killers) > moat_count
            or len(expansions) > 2 * moat_count
        ):
            ok = False
        if moat_count:
            alpha = Fraction(paid, moat_count)
            if alpha_max is None or alpha > alpha_max:
                alpha_max = alpha
    return ok, alpha_max


def minor_free_ratio_bound(r: int) -> float:
    """Reporting threshold for declared K_r-minor-free instances, as a float
    for messages; `exceeds_minor_free_bound` decides it exactly."""
    return 2.0 * (8.0 * r * math.log2(r) + 1.0)


def _log2_bracket(r: int, p: int) -> tuple[int, int]:
    """(lo, hi) with lo < 2^p log2 r < hi and hi - lo <= 2, for r not a
    power of 2.  Squares lower and upper bounds of r p times, each
    truncated to p + 4 bits, so r^(2^p) is never formed; the truncation
    widens the bounds' ratio by less than a factor of 2 in all."""
    bits = p + 4
    lo_m = hi_m = r
    lo_e = hi_e = 0
    for _ in range(p):
        lo_m, hi_m = lo_m * lo_m, hi_m * hi_m
        drop = max(0, lo_m.bit_length() - bits)
        lo_m, lo_e = lo_m >> drop, 2 * lo_e + drop
        drop = max(0, hi_m.bit_length() - bits)
        hi_m, hi_e = -(-hi_m >> drop), 2 * hi_e + drop
    # lo_m 2^lo_e <= r^(2^p) <= hi_m 2^hi_e, and 2^p log2 r is irrational.
    return lo_m.bit_length() + lo_e - 1, hi_m.bit_length() + hi_e


def exceeds_minor_free_bound(ratio: Fraction, r: int) -> bool:
    """Exactly whether ratio > 2(8 r log2 r + 1), that is whether
    x = (ratio/2 - 1)/(8r) > log2 r."""
    x = (Fraction(ratio) / 2 - 1) / (8 * r)
    if r & (r - 1) == 0:  # log2 r is an integer
        return x > r.bit_length() - 1
    # log2 r is irrational, so x differs from it and falls outside the
    # bracket lo/N < log2 r < hi/N once N = 2^p is large enough.
    p = 0
    while True:
        lo, hi = _log2_bracket(r, p)
        xn = x * (1 << p)
        if xn <= lo:
            return False
        if xn >= hi:
            return True
        p += 1


def ratio_report(
    inst: Instance, sol: Solution, opt: Fraction | None = None
) -> AuditReport:
    """Solution-quality ratios plus family-specific breach flags."""
    ratio_vs_lb = sol.total_cost / sol.lower_bound if sol.lower_bound else None
    breaches = []
    if ratio_vs_lb is not None:
        if inst.family == FAMILY_PLANAR_BIPARTITE and ratio_vs_lb > PLANAR_RATIO_BOUND:
            breaches.append(
                f"ratio_vs_lb {ratio_vs_lb} exceeds {PLANAR_RATIO_BOUND} (planar_bipartite)"
            )
        if inst.family == FAMILY_MINOR_FREE and inst.minor_r is not None:
            if exceeds_minor_free_bound(ratio_vs_lb, inst.minor_r):
                bound = minor_free_ratio_bound(inst.minor_r)
                breaches.append(
                    f"ratio_vs_lb {ratio_vs_lb} exceeds {bound:.3f} (minor_free {inst.minor_r})"
                )
    return AuditReport(
        ratio_vs_lb=ratio_vs_lb,
        ratio_vs_opt=sol.total_cost / opt if opt else None,
        breaches=tuple(breaches),
    )


HEADER_FIELDS = ("instance_hash", "node_count", "root", "terminals")
ITERATION_FIELDS = ("index", "moats", "epsilon", "payments", "purchased", "kills")
# The divergence of a claimed solution from the certified one.
SOLUTION = "solution"


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
    sol: Solution | None = None,
    opt: Fraction | None = None,
) -> AuditReport:
    """All audit checks on one run.  The run is regrown from the instance in
    the recorded mode and reverse-deleted; that solution is the one
    certified and is returned as `solution`.  `payments_consistent` is
    false exactly when the regrown run differs from the recorded one, and
    `divergence` names the first difference: an (iteration, field) of the
    traces, else SOLUTION when a claimed `sol` is not the certified one.
    The ratios and certificate checks run on the regrown run."""
    regrown = grow(inst, trace.mode)
    certified = reverse_delete(inst, regrown)
    ratios = ratio_report(inst, certified, opt)
    divergence = _first_divergence(trace, regrown)
    if divergence is None and sol is not None and sol != certified:
        divergence = (None, SOLUTION)
    cost_identity_ok = verify_cost_identity(regrown, certified)
    _, dual_feasible_ok = verify_dual_feasibility(inst, regrown.duals)
    lemmas_ok = alpha_max = None
    if regrown.mode == MODE_BUCKETED:
        lemmas_ok, alpha_max = verify_counting_lemmas(regrown, certified)
    return ratios._replace(
        payments_consistent=divergence is None,
        cost_identity_ok=cost_identity_ok,
        dual_feasible_ok=dual_feasible_ok,
        lemmas_ok=lemmas_ok,
        alpha_max=alpha_max,
        divergence=divergence,
        solution=certified,
    )
