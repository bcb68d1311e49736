import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from qbdst.audit import (
    exceeds_minor_free_bound,
    minor_free_ratio_bound,
    ratio_report,
    run_full,
    verify_cost_identity,
    verify_counting_lemmas,
    verify_dual_feasibility,
)
from qbdst.engine import (
    MODE_BUCKETED,
    Payment,
    grow,
    reverse_delete,
    solve,
    solve_standard_baseline,
)
from qbdst.gen import gen_bad_example, gen_grid
from qbdst.instance import Instance, parse_instance
from qbdst.moats import ANTENNA, EXPANSION, KILLER, is_antenna_arc
from qbdst.oracle import exact_opt_dp

from conftest import (
    FOUR_NODE,
    SINGLE_ARC,
    acceptance_corpus,
    counting_lemmas_reference,
    random_valid_instance,
)

EPS = Fraction(1, 100)


def test_dual_feasibility_single_arc():
    inst = parse_instance(SINGLE_ARC)
    _, trace = solve(inst)
    loads, ok = verify_dual_feasibility(inst, trace.duals)
    assert ok
    assert loads[0] == 5  # <= 2 * 5


def test_dual_feasibility_four_node_loads():
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    loads, ok = verify_dual_feasibility(inst, trace.duals)
    assert ok
    # a4 = t1->t2 is loaded to exactly twice its cost.
    assert loads[3] == 2 == 2 * inst.arcs[3].cost
    # a2 = r->t2 is entered by {t2} (y=2) and {t1,t2} (y=1).
    assert loads[1] == 3


def test_antenna_arcs_load_at_most_cost():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_valid_instance(rng, max_nodes=6, max_arcs=16)
        _, trace = solve(inst)
        loads, ok = verify_dual_feasibility(inst, trace.duals)
        assert ok
        for arc_id, arc in enumerate(inst.arcs):
            if inst.is_steiner(arc.tail) and arc.head in inst.terminals:
                assert loads[arc_id] <= arc.cost


def _dual_loads_reference(inst, duals):
    """verify_dual_feasibility as an all-arcs loop: every dual set is
    tested against every arc of the instance."""
    nodes = range(1, inst.node_count + 1)
    ok = all(
        members.issubset(nodes)
        and inst.root not in members
        and not members.isdisjoint(inst.terminals)
        for members in duals
    )
    loads = {arc_id: Fraction(0) for arc_id in range(len(inst.arcs))}
    for members, y in duals.items():
        for arc_id, arc in enumerate(inst.arcs):
            if arc.head in members and arc.tail not in members:
                loads[arc_id] += y
    for arc_id, load in loads.items():
        cap = inst.arcs[arc_id].cost
        if load > (cap if is_antenna_arc(inst, arc_id) else 2 * cap):
            ok = False
    return loads, ok


def test_dual_loads_by_head_match_all_arcs_loop():
    # Both modes on the acceptance corpus and 100 seeded random instances,
    # each also with every dual tripled, so that loads exceed their caps
    # and the verdict is false on some runs.
    rng = random.Random(44)
    instances = [inst for _, inst in acceptance_corpus()]
    instances += [random_valid_instance(rng, max_nodes=7, max_arcs=24) for _ in range(100)]
    verdicts = set()
    for inst in instances:
        for run in (solve, solve_standard_baseline):
            duals = run(inst)[1].duals
            tripled = {members: 3 * y for members, y in duals.items()}
            for checked in (duals, tripled):
                got = verify_dual_feasibility(inst, checked)
                assert got == _dual_loads_reference(inst, checked)
                verdicts.add(got[1])
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "moat, flaw",
    [
        ("1,2", "holds the root"),
        ("4", "holds no terminal"),
        ("2,5", "names node 5"),
        ("0,2", "names node 0"),
    ],
)
def test_dual_feasibility_rejects_a_dual_set_that_is_no_cut(moat, flaw):
    # The LP bound y/2 counts only sets that exclude the root and hold a
    # terminal.  One positive dual on a flawed set fails the check, even
    # though its loads are tiny.
    inst = parse_instance(
        "NODES 4\nROOT 1\nTERMINALS 2 3\nARC 1 2 9\nARC 1 3 9\nARC 4 2 9\nEND\n"
    )
    duals = {frozenset({2}): Fraction(1, 9), frozenset({3}): Fraction(1, 9)}
    assert verify_dual_feasibility(inst, duals)[1]
    flawed = frozenset(map(int, moat.split(",")))
    assert not verify_dual_feasibility(inst, {**duals, flawed: Fraction(1, 9)})[1], flaw


def _final_counts(trace, sol):
    """Per iteration, (index, epsilon, number of payments to final arcs
    under their eventual purchase label)."""
    labels = sol.arc_labels
    return [
        (rec.index, rec.epsilon, sum(1 for p in rec.payments if labels.get(p.arc) == p.kind))
        for rec in trace.iterations
    ]


def test_cost_identity_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    assert verify_cost_identity(trace, sol)
    counts = _final_counts(trace, sol)
    # iteration 0 pays both final killer arcs; later iterations one each
    assert [(l, count) for l, _, count in counts] == [(0, 2), (1, 1), (2, 1)]
    assert sum(eps * count for _, eps, count in counts) == 4 == sol.total_cost


def test_cost_identity_single_arc():
    inst = parse_instance(SINGLE_ARC)
    sol, trace = solve(inst)
    assert verify_cost_identity(trace, sol)
    assert _final_counts(trace, sol) == [(0, Fraction(5), 1)]


def test_cost_identity_bad_example():
    inst = gen_bad_example(5, EPS)
    sol, trace = solve(inst)
    assert verify_cost_identity(trace, sol)


def test_cost_identity_baseline_mode():
    inst = gen_bad_example(4, EPS)
    sol, trace = solve_standard_baseline(inst)
    assert verify_cost_identity(trace, sol)


def test_cost_identity_fails_without_one_final_payment():
    # Dropping one counted payment from an epsilon > 0 iteration takes
    # epsilon off the left-hand side of the identity.
    inst = gen_bad_example(10, Fraction(1, 7))
    trace = grow(inst, MODE_BUCKETED)
    sol = reverse_delete(inst, trace)
    assert verify_cost_identity(trace, sol)
    labels = sol.arc_labels
    index, pos = next(
        (rec.index, pos)
        for rec in trace.iterations
        if rec.epsilon
        for pos, p in enumerate(rec.payments)
        if labels.get(p.arc) == p.kind
    )
    rec = trace.iterations[index]
    payments = rec.payments[:pos] + rec.payments[pos + 1 :]
    iterations = list(trace.iterations)
    iterations[index] = rec._replace(payments=payments)
    assert not verify_cost_identity(trace._replace(iterations=tuple(iterations)), sol)


def test_counting_lemmas_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    assert verify_counting_lemmas(trace, sol) == (True, 1)
    _, deltas, _ = counting_lemmas_reference(trace, sol)
    first = deltas[0]
    assert first.moat_count == 2
    assert len(first.killer_front) <= 2
    assert len(first.expansion_front) == 0


def test_counting_lemmas_bad_example():
    inst = gen_bad_example(10, EPS)
    sol, trace = solve(inst)
    ok, alpha_max = verify_counting_lemmas(trace, sol)
    assert ok
    _, deltas, reference_alpha = counting_lemmas_reference(trace, sol)
    assert alpha_max == reference_alpha
    assert not any(delta.broken_bounds() for delta in deltas)


def _tampered(trace, sol, bound):
    """`trace` with one iteration's moats and payments replaced so that
    exactly `bound` breaks there: (iteration index, tampered trace)."""
    labels = sol.arc_labels
    antenna = next(a for a in sol.final_arcs if labels[a] == ANTENNA)
    killers = [a for a in sol.final_arcs if labels[a] == KILLER]
    expansions = [a for a in sol.final_arcs if labels[a] == EXPANSION]
    rec = next(r for r in trace.iterations if len(r.moats) >= 2)
    m0, m1 = rec.moats[:2]
    if bound == "antenna_per_moat":
        moats = (m0, m1)
        payments = [Payment(antenna, ANTENNA, m0)] * 2
    elif bound == "antennas":
        moats = (m0,)
        payments = [Payment(antenna, ANTENNA, m) for m in (m0, m1)]
    elif bound == "killers":
        moats = (m0,)
        payments = [Payment(a, KILLER, m0) for a in killers[:2]]
    else:
        moats = (m0,)
        payments = [Payment(a, EXPANSION, m0) for a in expansions[:3]]
    iterations = list(trace.iterations)
    iterations[rec.index] = rec._replace(moats=moats, payments=tuple(payments))
    return rec.index, trace._replace(iterations=tuple(iterations))


COUNTING_BOUNDS = ["antenna_per_moat", "antennas", "killers", "expansions"]


@pytest.mark.parametrize("bound", COUNTING_BOUNDS)
def test_counting_lemmas_fail_on_each_broken_bound(bound):
    # gen_bad_example(10, 1/7) buys 12 antenna, 2 killer and 9 expansion
    # arcs that survive reverse delete.
    inst = gen_bad_example(10, Fraction(1, 7))
    trace = grow(inst, MODE_BUCKETED)
    sol = reverse_delete(inst, trace)
    assert verify_counting_lemmas(trace, sol)[0]
    index, tampered = _tampered(trace, sol, bound)
    ok, deltas, alpha_max = counting_lemmas_reference(tampered, sol)
    assert [(d.index, d.broken_bounds()) for d in deltas if d.broken_bounds()] == [
        (index, [bound])
    ]
    assert verify_counting_lemmas(tampered, sol) == (False, alpha_max)


def test_counting_lemmas_match_reference():
    # (ok, alpha_max) against the per-iteration reference on the
    # acceptance corpus, three bad examples, 100 seeded random instances
    # and the tampered traces.
    rng = random.Random(45)
    instances = [inst for _, inst in acceptance_corpus()]
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in (3, 10, 20)]
    instances += [random_valid_instance(rng, max_nodes=7, max_arcs=24) for _ in range(100)]
    runs = []
    for inst in instances:
        trace = grow(inst, MODE_BUCKETED)
        runs.append((inst, trace, reverse_delete(inst, trace)))
    inst, trace, sol = runs[-102]  # gen_bad_example(10, 1/7)
    runs += [(inst, _tampered(trace, sol, bound)[1], sol) for bound in COUNTING_BOUNDS]
    verdicts = set()
    for inst, trace, sol in runs:
        ok, _, alpha_max = counting_lemmas_reference(trace, sol)
        assert verify_counting_lemmas(trace, sol) == (ok, alpha_max)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_counting_lemmas_reject_standard_mode():
    inst = parse_instance(SINGLE_ARC)
    sol, trace = solve_standard_baseline(inst)
    with pytest.raises(ValueError, match="bucketed"):
        verify_counting_lemmas(trace, sol)


def test_ratio_report_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, _ = solve(inst)
    report = ratio_report(inst, sol, opt=Fraction(4))
    assert report.ratio_vs_lb == 2
    assert report.ratio_vs_opt == 1
    assert report.breaches == ()


def test_ratio_report_single_arc():
    inst = parse_instance(SINGLE_ARC)
    sol, _ = solve(inst)
    report = ratio_report(inst, sol)
    assert report.ratio_vs_lb == 2


def test_ratio_report_flags_planar_breach():
    inst = parse_instance(FOUR_NODE)
    sol, _ = solve(inst)
    fake = type(sol)(
        final_arcs=sol.final_arcs,
        arc_labels=sol.arc_labels,
        total_cost=sol.total_cost * 30,
        dual_total=sol.dual_total,
        lower_bound=sol.lower_bound,
    )
    planar = Instance(
        node_count=inst.node_count,
        root=inst.root,
        terminals=inst.terminals,
        arcs=inst.arcs,
        family="planar_bipartite",
    )
    report = ratio_report(planar, fake)
    assert report.breaches


def test_minor_free_threshold_monotone():
    assert minor_free_ratio_bound(4) < minor_free_ratio_bound(8)


def _minor_free_bound_to_60_digits(r: int) -> Fraction:
    if r & (r - 1) == 0:
        return Fraction(2 * (8 * r * (r.bit_length() - 1) + 1))
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction(2 * (8 * r * (Decimal(r).ln() / Decimal(2).ln()) + 1))


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("offset", [Fraction(1, 1000), Fraction(1, 10**30)], ids=["1e-3", "1e-30"])
def test_ratio_report_minor_free_breach_is_exact(r, offset):
    # A float cannot tell ratios 10^-30 apart at this size; the exact test
    # flags the ratio just above the bound and not the one just below.
    bound = _minor_free_bound_to_60_digits(r)
    inst = parse_instance(FOUR_NODE)._replace(family="minor_free", minor_r=r)
    sol, _ = solve(inst)
    for ratio, breach in ((bound + offset, True), (bound - offset, False)):
        fake = sol._replace(total_cost=ratio * sol.lower_bound)
        report = ratio_report(inst, fake)
        assert report.ratio_vs_lb == ratio
        assert bool(report.breaches) is breach
        assert exceeds_minor_free_bound(ratio, r) is breach


def test_minor_free_bound_exact_near_ties():
    # A ratio equal to an integer bound is no breach, and the closest
    # small-denominator ratios to an irrational bound land on the right side.
    assert not exceeds_minor_free_bound(Fraction(130), 4)
    assert not exceeds_minor_free_bound(Fraction(34), 2)
    for r in (3, 5, 6, 100):
        bound = _minor_free_bound_to_60_digits(r)
        for q in (10, 1000, 10**9):
            ratio = bound.limit_denominator(q)
            assert exceeds_minor_free_bound(ratio, r) is (ratio > bound)


def test_run_full_bad_example_and_opt():
    inst = gen_bad_example(3, EPS)
    sol, trace = solve(inst)
    opt = exact_opt_dp(inst).opt_cost
    report = run_full(inst, trace, sol, opt)
    assert report.all_ok
    assert report.ratio_vs_opt == 1
    assert report.alpha_max == Fraction(3, 2)


def test_run_full_baseline_skips_lemmas():
    inst = gen_bad_example(3, EPS)
    sol, trace = solve_standard_baseline(inst)
    report = run_full(inst, trace, sol)
    assert report.lemmas_ok is None
    assert report.all_ok


def test_payments_divergence_detected():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    iterations = list(trace.iterations)
    rec = iterations[1]
    iterations[1] = type(rec)(
        index=rec.index,
        epsilon=rec.epsilon,
        moats=rec.moats,
        payments=rec.payments[:-1],
        purchased=rec.purchased,
        kills=rec.kills,
    )
    trace = trace._replace(iterations=tuple(iterations))
    report = run_full(inst, trace, sol)
    assert not report.payments_consistent
    assert not report.all_ok


def test_audit_over_random_grid_runs():
    for seed in range(8):
        inst = gen_grid(4, 5, Fraction(1, 2), Fraction(4, 5), (1, 10), seed)
        if not inst.terminals:
            continue
        sol, trace = solve(inst)
        report = run_full(inst, trace, sol)
        assert report.all_ok


def _drop_kills(iterations):
    iterations[0] = iterations[0]._replace(kills=())


def _swap_last_purchase(iterations):
    iterations[-1] = iterations[-1]._replace(purchased=(0, iterations[-1].purchased[1]))


def _flip_label(iterations):
    arc, _ = iterations[1].purchased
    iterations[1] = iterations[1]._replace(purchased=(arc, KILLER))


def _append_last(iterations):
    iterations.append(iterations[-1])


def _drop_last(iterations):
    iterations.pop()


# FOUR_NODE buys a3 (killer), a4 (expansion), a2 (killer); each tampering
# names the first (iteration, field) where it departs from the regrown run.
TAMPERINGS = [
    (_drop_kills, 0, "kills"),
    (_swap_last_purchase, 2, "purchased"),
    (_flip_label, 1, "purchased"),
    (_append_last, 3, "count"),
    (_drop_last, 2, "count"),
]


@pytest.mark.parametrize(
    "tamper, index, name", TAMPERINGS, ids=[t.__name__.strip("_") for t, _, _ in TAMPERINGS]
)
def test_tampered_four_node_trace_names_divergence(tamper, index, name):
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    iterations = list(trace.iterations)
    tamper(iterations)
    trace = trace._replace(iterations=tuple(iterations))
    report = run_full(inst, trace, reverse_delete(inst, trace))
    assert not report.all_ok
    assert not report.payments_consistent
    assert report.divergence == (index, name)
    assert f"\ndivergence iteration {index} {name}\n" in report.render()


def test_header_divergence_is_named():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    trace = trace._replace(terminals=frozenset([2]))
    report = run_full(inst, trace, sol)
    assert report.divergence == (None, "terminals")
    assert "divergence header terminals" in report.render()


def test_honest_report_has_no_divergence_line():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    report = run_full(inst, trace, sol)
    assert report.divergence is None
    assert "divergence" not in report.render()


def test_run_full_returns_the_certified_solution():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    assert run_full(inst, trace, sol).solution == sol
    assert run_full(inst, trace).solution == sol
    # A tampered epsilon changes the recorded duals, not the certified bound.
    first = trace.iterations[0]._replace(epsilon=Fraction(100))
    trace = trace._replace(iterations=(first, *trace.iterations[1:]))
    report = run_full(inst, trace, reverse_delete(inst, trace))
    assert report.divergence == (0, "epsilon")
    assert report.solution == sol
    assert report.solution.lower_bound == 2
    assert report.ratio_vs_lb == 2


def test_claimed_solution_divergence_is_named():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    claimed = sol._replace(final_arcs=sol.final_arcs[:-1])
    report = run_full(inst, trace, claimed)
    assert not report.all_ok
    assert not report.payments_consistent
    assert report.divergence == (None, "solution")
    assert "\ndivergence solution\n" in report.render()
    assert report.solution == sol
