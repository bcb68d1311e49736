import io
import json
import random
from fractions import Fraction

import pytest

from qbdst.engine import (
    InvariantBreach,
    Payment,
    alive_report,
    read_trace,
    reverse_delete,
    solve,
    solve_standard_baseline,
    write_trace,
)
from qbdst.instance import InvalidInstanceError, is_feasible, parse_instance
from qbdst.moats import ANTENNA, EXPANSION, KILLER, active_moats, classify_arc, is_antenna_arc
from qbdst.gen import gen_bad_example, gen_grid

from conftest import FOUR_NODE, SINGLE_ARC, random_valid_instance

EPS = Fraction(1, 100)


def test_compute_epsilon_single_payer():
    # One moat pays one bucket, so epsilon is the whole cost.
    inst = parse_instance(SINGLE_ARC)
    _, trace = solve(inst)
    [rec] = trace.iterations
    assert rec.payments == (Payment(0, KILLER, "2", Fraction(5)),)
    assert (rec.epsilon, rec.purchased) == (5, (0, KILLER))


def test_compute_epsilon_two_moats_split_one_bucket():
    # Steiner node 4 becomes a shared tail of the moats around terminals 2
    # and 3 once the zero-cost antennas 4->2 and 4->3 are bought, so the
    # root arc into it is paid by both and fills at half speed.
    inst = parse_instance(
        "NODES 4\nROOT 1\nTERMINALS 2 3\nARC 4 2 0\nARC 4 3 0\nARC 1 4 1\n"
        "ARC 1 2 9\nARC 1 3 9\nEND\n"
    )
    _, trace = solve(inst)
    assert [r.epsilon for r in trace.iterations] == [0, 0, Fraction(1, 2)]
    assert [r.purchased for r in trace.iterations[:2]] == [(0, ANTENNA), (1, ANTENNA)]
    rec = trace.iterations[2]
    assert rec.moats == ("2,4", "3,4")
    half = Fraction(1, 2)
    assert [p for p in rec.payments if p.arc == 2] == [
        Payment(2, KILLER, "2,4", half),
        Payment(2, KILLER, "3,4", half),
    ]
    assert rec.purchased == (2, KILLER)


def test_compute_epsilon_partial_fill_and_tight_list():
    # Iteration 1 of the 4-node run: a2's killer bucket already holds 1 from
    # iteration 0, yet a4's empty expansion bucket is the only one to fill.
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    first, second = trace.iterations[:2]
    assert Payment(1, KILLER, "3", Fraction(1)) in first.payments
    assert second.epsilon == 1
    assert second.payments == (
        Payment(1, KILLER, "3", Fraction(1)),
        Payment(3, EXPANSION, "3", Fraction(1)),
    )
    assert second.purchased == (3, EXPANSION)
    a2_killer = sum(p.amount for rec in (first, second) for p in rec.payments if p.arc == 1)
    assert a2_killer == 2 < inst.arcs[1].cost


def test_solve_single_arc():
    inst = parse_instance(SINGLE_ARC)
    sol, trace = solve(inst)
    assert [r.epsilon for r in trace.iterations] == [5]
    assert trace.iterations[0].purchased == (0, KILLER)
    assert sol.final_arcs == (0,)
    assert sol.total_cost == 5
    assert sol.dual_total == 5
    assert sol.lower_bound == Fraction(5, 2)


def test_solve_four_node_worked_trace():
    # Faithful replay: the killer bucket of a2=(r->t2) keeps receiving
    # payment from the surviving moat {t2}, so it fills first (epsilon 1 at
    # every iteration) and survives pruning together with a3.
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    assert [r.epsilon for r in trace.iterations] == [1, 1, 1]
    assert [r.purchased for r in trace.iterations] == [
        (2, KILLER),
        (3, EXPANSION),
        (1, KILLER),
    ]
    assert [r.kills for r in trace.iterations] == [(2,), (), (3,)]
    assert [r.moats for r in trace.iterations] == [("2", "3"), ("3",), ("2,3",)]
    assert sol.final_arcs == (2, 1)
    assert sol.total_cost == 4
    assert sol.dual_total == 4
    assert sol.lower_bound == 2


def test_solve_validates_instance():
    inst = parse_instance("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n")
    with pytest.raises(InvalidInstanceError, match="unreachable"):
        solve(inst)


def test_bad_example_k3_bucketed_run():
    inst = gen_bad_example(3, EPS)
    sol, trace = solve(inst)
    assert sol.total_cost == Fraction(81, 20)  # optimal on this family
    assert sol.dual_total == 3 + 5 * EPS
    labels = trace.purchase_labels()
    # cost-1 chain arcs: w1->v (id 3) plus the downward arcs (ids 5, 6)
    chain = [labels[3], labels[5], labels[6]]
    assert sorted(chain) == [EXPANSION, EXPANSION, KILLER]


def test_bad_example_k10_ratio_under_twenty():
    inst = gen_bad_example(10, EPS)
    sol, _ = solve(inst)
    assert sol.total_cost <= 20 * sol.lower_bound


def test_baseline_bad_example_dual_total():
    # All singleton moats pay their cheap in-arcs once (k+2 moats, eps
    # each); afterwards the two surviving moats each grow by 1 and every
    # later purchase is an already-full bucket.
    for k in (3, 5, 10):
        inst = gen_bad_example(k, EPS)
        sol, _ = solve_standard_baseline(inst)
        assert sol.dual_total == 2 + (k + 2) * EPS
        assert sol.total_cost >= k + 1


def test_baseline_matches_bucketed_on_single_arc():
    inst = parse_instance(SINGLE_ARC)
    sol_a, _ = solve(inst)
    sol_b, _ = solve_standard_baseline(inst)
    assert sol_a == sol_b


def test_baseline_matches_bucketed_on_star():
    inst = parse_instance(
        "NODES 4\nROOT 1\nTERMINALS 2 3 4\nARC 1 2 2\nARC 1 3 5\nARC 1 4 1\nEND\n"
    )
    sol_a, _ = solve(inst)
    sol_b, _ = solve_standard_baseline(inst)
    assert sol_a == sol_b


def test_reverse_delete_prunes_redundant_antenna():
    # Antenna arc s->t is purchasable but r->t alone is feasible.
    inst = parse_instance(
        "NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 1 2 2\nARC 1 3 4\nEND\n"
    )
    sol, trace = solve(inst)
    assert is_feasible(inst, sol.final_arcs)
    assert sol.final_arcs == (1,)


def test_reverse_delete_keeps_arborescence():
    inst = parse_instance(
        "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nARC 2 3 1\nEND\n"
    )
    sol, trace = solve(inst)
    assert set(sol.final_arcs) == {0, 1}


def test_alive_report_four_node():
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    report = alive_report(trace)
    assert report[0] == {2: True, 3: True}
    assert report[1] == {2: False, 3: True}
    assert report[2] == {2: False, 3: True}


def test_alive_report_detects_tampering():
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    broken = trace.iterations[0]
    trace.iterations[0] = type(broken)(
        index=broken.index,
        epsilon=broken.epsilon,
        moats=broken.moats,
        payments=broken.payments,
        purchased=broken.purchased,
        kills=(2, 3),
    )
    with pytest.raises(InvariantBreach):
        alive_report(trace)


def test_trace_round_trip_and_determinism():
    inst = gen_bad_example(4, EPS)
    _, trace_a = solve(inst)
    _, trace_b = solve(inst)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trace(trace_a, buf_a)
    write_trace(trace_b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()

    loaded = read_trace(io.StringIO(buf_a.getvalue()))
    assert loaded.mode == trace_a.mode
    assert loaded.instance_hash == trace_a.instance_hash
    assert loaded.iterations == trace_a.iterations
    assert loaded.duals == trace_a.duals


def _replay_bucket_fills(inst, trace):
    fills = {}
    for rec in trace.iterations:
        for p in rec.payments:
            key = (p.kind, p.arc)
            fills[key] = fills.get(key, Fraction(0)) + p.amount
        yield rec, dict(fills)


def test_bucket_caps_and_purchase_tightness():
    for inst in (parse_instance(FOUR_NODE), gen_bad_example(4, EPS)):
        sol, trace = solve(inst)
        final_fills = {}
        for rec, fills in _replay_bucket_fills(inst, trace):
            for (kind, arc), value in fills.items():
                assert value <= inst.arcs[arc].cost
            bought, label = rec.purchased
            assert fills[(label, bought)] == inst.arcs[bought].cost
            final_fills = fills
        # total fills equal the dual load of each arc, hence <= 2c
        from qbdst.audit import verify_dual_feasibility

        loads, ok = verify_dual_feasibility(inst, trace)
        assert ok
        for arc_id in range(len(inst.arcs)):
            total = sum(
                (v for (kind, a), v in final_fills.items() if a == arc_id),
                Fraction(0),
            )
            assert total == loads[arc_id]


def test_termination_and_distinct_purchases():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_valid_instance(rng, max_nodes=6, max_arcs=18)
        sol, trace = solve(inst)
        purchases = trace.purchases()
        assert len(purchases) == len(set(purchases))
        assert len(purchases) <= len(inst.arcs)
        assert is_feasible(inst, sol.final_arcs)
        assert sol.lower_bound <= sol.total_cost
        alive_report(trace)


def test_nonantenna_kills_match_killer_classification():
    # Structural deaths coincide with killer classification for every
    # entering non-antenna purchase.
    rng = random.Random(32)
    instances = [random_valid_instance(rng, max_nodes=6, max_arcs=18) for _ in range(25)]
    instances.append(gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 6), 5))
    for inst in instances:
        _, trace = solve(inst)
        purchased = set()
        alive = set(inst.terminals)
        for rec in trace.iterations:
            frozen = frozenset(purchased)
            moats = active_moats(inst, frozen)
            bought, _ = rec.purchased
            if not is_antenna_arc(inst, bought):
                killer_moats = [
                    key
                    for key, role in classify_arc(inst, frozen, moats, bought)
                    if role == KILLER
                ]
                expected = set()
                for moat in moats:
                    if moat.key in killer_moats:
                        expected |= moat.core & alive
                assert set(rec.kills) == expected
            purchased.add(bought)
            alive -= set(rec.kills)


def test_zero_cost_arcs_handled():
    inst = parse_instance(
        "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 0\nARC 2 3 0\nEND\n"
    )
    sol, trace = solve(inst)
    assert sol.total_cost == 0
    assert sol.dual_total == 0
    assert is_feasible(inst, sol.final_arcs)


def test_no_terminals_yields_empty_solution():
    inst = parse_instance("NODES 2\nROOT 1\nTERMINALS\nARC 1 2 7\nEND\n")
    sol, trace = solve(inst)
    assert trace.iterations == []
    assert sol.final_arcs == ()
    assert sol.total_cost == 0
    assert sol.lower_bound == 0


def test_invariants_soak_random_instances():
    from qbdst.audit import run_full

    rng = random.Random(33)
    for _ in range(25):
        inst = random_valid_instance(rng, max_nodes=8, max_arcs=30)
        for runner in (solve, solve_standard_baseline):
            sol, trace = runner(inst)
            alive_report(trace)
            assert run_full(inst, trace, sol).all_ok


def _four_node_rows():
    _, trace = solve(parse_instance(FOUR_NODE))
    buf = io.StringIO()
    write_trace(trace, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def _drop_purchase(rows):
    del rows[1]["purchase"]


def _string_arc(rows):
    rows[1]["purchase"][0] = "2"


def _negative_arc(rows):
    rows[2]["payments"][0][0] = -1


def _unknown_mode(rows):
    rows[0]["mode"] = "greedy"


def _bool_index(rows):
    rows[1]["l"] = True


def _bad_epsilon(rows):
    rows[1]["epsilon"] = "1/0"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_purchase, "trace line 2: missing key 'purchase'"),
        (_string_arc, "trace line 2: purchase must be"),
        (_negative_arc, "trace line 3: payments must be"),
        (_unknown_mode, "trace line 1: mode must be bucketed or standard"),
        (_bool_index, "trace line 2: l must be an integer"),
        (_bad_epsilon, "trace line 2: epsilon must be"),
    ],
)
def test_read_trace_rejects_schema_errors(tamper, message):
    rows = _four_node_rows()
    tamper(rows)
    text = "".join(json.dumps(row) + "\n" for row in rows)
    with pytest.raises(ValueError) as info:
        read_trace(io.StringIO(text))
    assert str(info.value).startswith(message)
    assert "\n" not in str(info.value)


def test_read_trace_rejects_truncated_line():
    rows = _four_node_rows()
    lines = [json.dumps(row) for row in rows]
    lines[2] = lines[2][:10]
    with pytest.raises(ValueError, match="trace line 3: not JSON"):
        read_trace(io.StringIO("\n".join(lines)))
