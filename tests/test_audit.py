import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qbdst.audit import (
    minor_free_ratio_bound,
    ratio_report,
    run_full,
    verify_cost_identity,
    verify_counting_lemmas,
    verify_dual_feasibility,
)
from qbdst.engine import reverse_delete, solve, solve_standard_baseline
from qbdst.gen import gen_bad_example, gen_grid
from qbdst.instance import Instance, parse_instance
from qbdst.moats import KILLER
from qbdst.oracle import exact_opt_dp

from conftest import FOUR_NODE, SINGLE_ARC, random_valid_instance

EPS = Fraction(1, 100)


def test_dual_feasibility_single_arc():
    inst = parse_instance(SINGLE_ARC)
    _, trace = solve(inst)
    loads, ok = verify_dual_feasibility(inst, trace)
    assert ok
    assert loads[0] == 5  # <= 2 * 5


def test_dual_feasibility_four_node_loads():
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    loads, ok = verify_dual_feasibility(inst, trace)
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
        loads, ok = verify_dual_feasibility(inst, trace)
        assert ok
        for arc_id, arc in enumerate(inst.arcs):
            if inst.is_steiner(arc.tail) and arc.head in inst.terminals:
                assert loads[arc_id] <= arc.cost


def test_cost_identity_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    ok, table = verify_cost_identity(inst, trace, sol)
    assert ok
    # iteration 0 pays both final killer arcs; later iterations one each
    assert [(l, count) for l, _, count in table] == [(0, 2), (1, 1), (2, 1)]
    assert sum(eps * count for _, eps, count in table) == 4


def test_cost_identity_single_arc():
    inst = parse_instance(SINGLE_ARC)
    sol, trace = solve(inst)
    ok, table = verify_cost_identity(inst, trace, sol)
    assert ok
    assert table == [(0, Fraction(5), 1)]


def test_cost_identity_bad_example():
    inst = gen_bad_example(5, EPS)
    sol, trace = solve(inst)
    ok, _ = verify_cost_identity(inst, trace, sol)
    assert ok


def test_cost_identity_baseline_mode():
    inst = gen_bad_example(4, EPS)
    sol, trace = solve_standard_baseline(inst)
    ok, _ = verify_cost_identity(inst, trace, sol)
    assert ok


def test_counting_lemmas_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    ok, deltas, alpha_max = verify_counting_lemmas(inst, trace, sol)
    assert ok
    first = deltas[0]
    assert first.moat_count == 2
    assert len(first.killer_front) <= 2
    assert len(first.expansion_front) == 0
    assert alpha_max == 1


def test_counting_lemmas_bad_example():
    inst = gen_bad_example(10, EPS)
    sol, trace = solve(inst)
    ok, deltas, alpha_max = verify_counting_lemmas(inst, trace, sol)
    assert ok
    for delta in deltas:
        ants = [c[0] for c in delta.per_moat.values()]
        assert all(a <= 1 for a in ants)
        assert sum(ants) <= delta.moat_count
        assert len(delta.killer_front) <= delta.moat_count
        assert len(delta.expansion_front) <= 2 * delta.moat_count


def test_counting_lemmas_reject_standard_mode():
    inst = parse_instance(SINGLE_ARC)
    sol, trace = solve_standard_baseline(inst)
    with pytest.raises(ValueError, match="bucketed"):
        verify_counting_lemmas(inst, trace, sol)


def test_ratio_report_four_node():
    inst = parse_instance(FOUR_NODE)
    sol, _ = solve(inst)
    report = ratio_report(inst, sol, opt=Fraction(4))
    assert report.ratio_vs_lb == 2
    assert report.ratio_vs_opt == 1
    assert report.breaches == []


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
    rec = trace.iterations[1]
    trace.iterations[1] = type(rec)(
        index=rec.index,
        epsilon=rec.epsilon,
        moats=rec.moats,
        payments=rec.payments[:-1],
        purchased=rec.purchased,
        kills=rec.kills,
    )
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
    iterations[0] = replace(iterations[0], kills=())


def _swap_last_purchase(iterations):
    iterations[-1] = replace(iterations[-1], purchased=(0, iterations[-1].purchased[1]))


def _flip_label(iterations):
    arc, _ = iterations[1].purchased
    iterations[1] = replace(iterations[1], purchased=(arc, KILLER))


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
    tamper(trace.iterations)
    report = run_full(inst, trace, reverse_delete(inst, trace))
    assert not report.all_ok
    assert not report.payments_consistent
    assert report.divergence == (index, name)
    assert f"\ndivergence iteration {index} {name}\n" in report.render()


def test_header_divergence_is_named():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    trace.terminals = frozenset([2])
    report = run_full(inst, trace, sol)
    assert report.divergence == (None, "terminals")
    assert "divergence header terminals" in report.render()


def test_honest_report_has_no_divergence_line():
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    report = run_full(inst, trace, sol)
    assert report.divergence is None
    assert "divergence" not in report.render()
