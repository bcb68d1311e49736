import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from qbdst.engine import (
    MODE_BUCKETED,
    MODE_STANDARD,
    MODES,
    GrowthTrace,
    IterationRecord,
    Payment,
    grow,
    read_trace,
    reverse_delete,
    solve,
    solve_standard_baseline,
    steps,
    write_trace,
)
from qbdst import engine as engine_module
from qbdst import moats as moats_module
from qbdst.audit import run_full
from qbdst.instance import ArcGraph, InvalidInstanceError, is_feasible, parse_instance, validate
from qbdst.moats import (
    ANTENNA,
    EXPANSION,
    KILLER,
    active_moats,
    classify_arc,
    is_antenna_arc,
    survivors,
)
from qbdst.gen import gen_bad_example, gen_grid, reduce_cvc

from conftest import (
    FOUR_NODE,
    SINGLE_ARC,
    InvariantBreach,
    acceptance_corpus,
    alive_report,
    grow_from_definitions,
    payer_map_reference,
    random_connected_graph,
    random_qb_instance,
    random_valid_instance,
    write_trace_reference,
)

EPS = Fraction(1, 100)


def test_compute_epsilon_single_payer():
    # One moat pays one bucket, so epsilon is the whole cost.
    inst = parse_instance(SINGLE_ARC)
    _, trace = solve(inst)
    [rec] = trace.iterations
    assert rec.payments == (Payment(0, KILLER, frozenset({2})),)
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
    assert rec.moats == (frozenset({2, 4}), frozenset({3, 4}))
    assert rec.epsilon == Fraction(1, 2)
    assert [p for p in rec.payments if p.arc == 2] == [
        Payment(2, KILLER, frozenset({2, 4})),
        Payment(2, KILLER, frozenset({3, 4})),
    ]
    assert rec.purchased == (2, KILLER)


def test_payers_written_in_name_order():
    # The same split bucket with terminals 9 and 10 and shared tail 11.  The
    # moats are listed by vertex order, ("9,11", "10,11"), but each bucket's
    # payers by name order as text, "10,11" before "9,11", as traces have
    # always been written.
    inst = parse_instance(
        "NODES 11\nROOT 1\nTERMINALS 9 10\nARC 11 9 0\nARC 11 10 0\nARC 1 11 1\n"
        "ARC 1 9 9\nARC 1 10 9\nEND\n"
    )
    sol, trace = solve(inst)
    rec = trace.iterations[2]
    assert rec.moats == (frozenset({9, 11}), frozenset({10, 11}))
    assert rec.epsilon == Fraction(1, 2)
    assert [p for p in rec.payments if p.arc == 2] == [
        Payment(2, KILLER, frozenset({10, 11})),
        Payment(2, KILLER, frozenset({9, 11})),
    ]
    # A trace whose payments follow the text-order rule audits clean.
    rows = [json.loads(line) for line in _trace_text(trace).splitlines()]
    for row in rows[1:]:
        row["payments"].sort(key=lambda p: (p[0], p[1], p[2]))
    recorded = read_trace(io.StringIO("".join(json.dumps(r) + "\n" for r in rows)))
    report = run_full(inst, recorded, sol)
    assert report.divergence is None
    assert report.all_ok


def test_compute_epsilon_partial_fill_and_tight_list():
    # Iteration 1 of the 4-node run: a2's killer bucket already holds 1 from
    # iteration 0, yet a4's empty expansion bucket is the only one to fill.
    inst = parse_instance(FOUR_NODE)
    _, trace = solve(inst)
    first, second = trace.iterations[:2]
    assert Payment(1, KILLER, frozenset({3})) in first.payments
    assert second.epsilon == 1
    assert second.payments == (
        Payment(1, KILLER, frozenset({3})),
        Payment(3, EXPANSION, frozenset({3})),
    )
    assert second.purchased == (3, EXPANSION)
    a2_killer = sum(rec.epsilon for rec in (first, second) for p in rec.payments if p.arc == 1)
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
    assert [r.moats for r in trace.iterations] == [
        (frozenset({2}), frozenset({3})),
        (frozenset({3}),),
        (frozenset({2, 3}),),
    ]
    assert sol.final_arcs == (2, 1)
    assert sol.total_cost == 4
    assert sol.dual_total == 4
    assert sol.lower_bound == 2


def test_solve_validates_instance():
    inst = parse_instance("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n")
    with pytest.raises(InvalidInstanceError, match="unreachable"):
        solve(inst)


def test_grow_is_steps_collected():
    # grow collects steps' records into a trace whose iterations are a
    # tuple, and read_trace builds the same tuple from the written file.
    for inst in (parse_instance(FOUR_NODE), gen_bad_example(5, EPS)):
        for mode in MODES:
            trace = grow(inst, mode)
            assert trace.iterations == tuple(steps(inst, mode))
            loaded = read_trace(io.StringIO(_trace_text(trace)))
            assert type(loaded.iterations) is tuple
            assert loaded == trace


def test_steps_yields_each_record_as_it_is_made(monkeypatch):
    # The first record costs one purchase: one moats_after call.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return moats_module.moats_after(*args)

    monkeypatch.setattr(engine_module, "moats_after", counted)
    first = next(steps(gen_bad_example(16, Fraction(1, 100)), MODE_BUCKETED))
    assert calls == 1
    assert first.index == 0


def test_steps_checks_its_arguments_at_the_first_next():
    inst = parse_instance(FOUR_NODE)
    with pytest.raises(ValueError, match=r"^unknown growth mode 'bogus'$"):
        grow(inst, "bogus")
    run = steps(inst, "bogus")
    with pytest.raises(ValueError, match=r"^unknown growth mode 'bogus'$"):
        next(run)
    invalid = inst._replace(root=9)
    with pytest.raises(InvalidInstanceError) as from_grow:
        grow(invalid, MODE_BUCKETED)
    run = steps(invalid, MODE_BUCKETED)
    with pytest.raises(InvalidInstanceError) as from_steps:
        next(run)
    assert str(from_steps.value) == str(from_grow.value)


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


def _reverse_delete_reference(inst, trace):
    # Reverse delete with one feasibility test of the kept set per
    # purchase: the oracle for the early-exit searches.
    purchases = trace.purchases()
    labels = trace.purchase_labels()
    kept = set(purchases)
    for arc_id in reversed(purchases):
        kept.discard(arc_id)
        if not is_feasible(inst, kept):
            kept.add(arc_id)
    final = tuple(a for a in purchases if a in kept)
    lower_bound = trace.dual_total() / 2
    return final, {a: labels[a] for a in final}, inst.cost_of(final), lower_bound


def _purchase_trace(inst, purchases, rng):
    # A trace that buys `purchases` in order, with random labels and duals;
    # reverse delete reads only the purchases, their labels and the duals.
    return GrowthTrace(
        mode=MODE_BUCKETED,
        instance_hash="",
        node_count=inst.node_count,
        root=inst.root,
        terminals=inst.terminals,
        iterations=tuple(
            IterationRecord(
                index=index,
                epsilon=Fraction(rng.randint(0, 3), rng.randint(1, 3)),
                moats=(frozenset({inst.arcs[arc_id].head}),),
                payments=(),
                purchased=(arc_id, rng.choice((ANTENNA, EXPANSION, KILLER))),
                kills=(),
            )
            for index, arc_id in enumerate(purchases)
        ),
    )


def _purchase_lists(inst, rng):
    # Lists no grow run makes: every arc shuffled, with repeats, and with
    # every arc into one terminal left out, which makes them infeasible.
    every = list(range(len(inst.arcs)))
    rng.shuffle(every)
    repeated = every + rng.choices(every, k=len(every) // 2 + 1)
    rng.shuffle(repeated)
    cut = rng.choice(sorted(inst.terminals))
    infeasible = [a for a in repeated if inst.arcs[a].head != cut]
    return [every, repeated, infeasible]


def test_reverse_delete_matches_per_purchase_reference(monkeypatch):
    # The early-exit searches against one feasibility test per purchase, on
    # grow runs in both modes and on purchase lists no run makes.  Reverse
    # delete tests the whole list with is_feasible once, and keeps every
    # purchase when that list is infeasible.
    feasible_calls = 0

    def counted(*args):
        nonlocal feasible_calls
        feasible_calls += 1
        return is_feasible(*args)

    monkeypatch.setattr(engine_module, "is_feasible", counted)
    rng = random.Random(38)
    instances = [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(150)]
    instances += [gen_bad_example(k, EPS) for k in (3, 12)]
    instances += [gen_grid(5, 5, Fraction(1, 2), Fraction(4, 5), (1, 6), s) for s in range(3)]
    deletes = infeasible = dropped = 0
    for inst in instances:
        traces = [grow(inst, mode) for mode in MODES]
        traces += [_purchase_trace(inst, arcs, rng) for arcs in _purchase_lists(inst, rng)]
        for trace in traces:
            feasible_calls = 0
            sol = reverse_delete(inst, trace)
            assert feasible_calls == 1
            got = (sol.final_arcs, sol.arc_labels, sol.total_cost, sol.lower_bound)
            assert got == _reverse_delete_reference(inst, trace)
            assert sol.dual_total == trace.dual_total()
            deletes += 1
            if not is_feasible(inst, trace.purchases()):
                infeasible += 1
                assert sol.final_arcs == tuple(trace.purchases())
            else:
                assert is_feasible(inst, sol.final_arcs)
                dropped += len(sol.final_arcs) < len(trace.purchases())
    assert deletes == 5 * len(instances)
    assert infeasible >= len(instances) and dropped > 2 * len(instances)


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
    broken = type(broken)(
        index=broken.index,
        epsilon=broken.epsilon,
        moats=broken.moats,
        payments=broken.payments,
        purchased=broken.purchased,
        kills=(2, 3),
    )
    trace = trace._replace(iterations=(broken, *trace.iterations[1:]))
    with pytest.raises(InvariantBreach):
        alive_report(trace)


# sha256 of every trace below, both modes, written back to back.  A change
# that keeps traces byte-identical keeps this digest; one that alters any
# purchase, epsilon, payment, moat or kill on this corpus does not.
TRACE_DIGEST = "558e7ea51507a17e694c4e3bb793ff6476c65bf556356a92a534fa132f6247c2"


def _digest_corpus():
    # The acceptance corpus, larger chains and grids, and a seeded batch of
    # feasible random quasi-bipartite instances.
    instances = [inst for _, inst in acceptance_corpus()]
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in (3, 60)]
    instances += [
        gen_grid(8, 8, Fraction(1, 2), Fraction(9, 10), (1, 12), seed) for seed in range(4)
    ]
    rng = random.Random(20261020)
    batch = [random_qb_instance(rng, max_nodes=10, arc_prob=0.4) for _ in range(300)]
    feasible = [inst for inst in batch if not validate(inst)]
    assert len(feasible) > 150
    return instances + feasible


def test_traces_match_pinned_digest():
    digest = hashlib.sha256()
    for inst in _digest_corpus():
        for mode in MODES:
            digest.update(_trace_text(grow(inst, mode)).encode("utf-8"))
    assert digest.hexdigest() == TRACE_DIGEST


def _first_difference(ours, want):
    """The first field in which two records differ, or "count" when one
    run has no record at this iteration."""
    if ours is None or want is None:
        return "count"
    return next(f for f in IterationRecord._fields if getattr(ours, f) != getattr(want, f))


def test_steps_match_growth_from_definitions():
    # Whole runs, record by record, against a growth written from the
    # definitions alone; the first differing record stops the walk and is
    # named by (instance, iteration, field).
    rng = random.Random(14)
    instances = [
        (f"random_{i}", random_valid_instance(rng, max_nodes=8, max_arcs=24))
        for i in range(100)
    ]
    instances += [(name, inst) for name, inst in acceptance_corpus() if inst.node_count <= 12]
    for i in range(8):
        graph = random_connected_graph(rng, rng.randint(3, 4), max_edges=5)
        instances.append((f"cvc_{i}", reduce_cvc(graph)))
    records = 0
    for name, inst in instances:
        for mode in MODES:
            runs = zip_longest(steps(inst, mode), grow_from_definitions(inst, mode))
            for index, (ours, want) in enumerate(runs):
                if ours != want:
                    field = _first_difference(ours, want)
                    pytest.fail(f"{name} {mode}: iteration {index} {field}")
                records += 1
    assert records > 3 * len(instances)


def test_trace_round_trip_and_determinism():
    inst = gen_bad_example(4, EPS)
    _, trace_a = solve(inst)
    _, trace_b = solve(inst)
    assert _trace_text(trace_a) == _trace_text(trace_b)

    # Records hold moats as vertex sets and files hold names, so reading a
    # written trace must give back equal records, duals and bytes.  The
    # corpus has buckets with several payers, written in name order as text.
    for inst in _digest_corpus():
        for mode in MODES:
            trace = grow(inst, mode)
            text = _trace_text(trace)
            # write_trace formats iteration lines itself; they must be byte
            # for byte what json.dumps(row, sort_keys=True) gives.
            assert text == _reference_text(trace)
            loaded = read_trace(io.StringIO(text))
            assert loaded.mode == trace.mode
            assert loaded.instance_hash == trace.instance_hash
            assert loaded.iterations == trace.iterations
            assert loaded.duals == trace.duals
            assert _trace_text(loaded) == text


def test_direct_writer_escapes_like_json_dumps():
    # read_trace takes any string as a kind or a label, so the writer must
    # escape them as json.dumps does: quotes, backslashes, control and
    # non-ASCII characters, those beyond the BMP as surrogate pairs.
    _, trace = solve(gen_bad_example(3, EPS))
    rows = [json.loads(line) for line in _reference_text(trace).splitlines()]
    odd = ['say "killer"', "back\\slash", "caf\u00e9 \u2192 \U0001f600", "\t"]
    for i, row in enumerate(rows[1:]):
        row["purchase"][1] = odd[i % len(odd)]
        for j, payment in enumerate(row["payments"]):
            payment[1] = odd[(i + j) % len(odd)]
    # Empty moat and payment lists, which grow never writes, and payments
    # that recur under another epsilon: a copy of a record at epsilon 0 just
    # before it, so the writer meets each of its payments first at 0/1.
    rows[1]["moats"] = []
    rows[1]["payments"] = []
    i = next(i for i, row in enumerate(rows[2:], 2) if row["epsilon"] != "0/1")
    assert rows[i]["payments"]
    zero = json.loads(json.dumps(rows[i]))
    zero["epsilon"] = "0/1"
    for payment in zero["payments"]:
        payment[3] = "0/1"
    rows.insert(i, zero)
    assert len(rows) > 4
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    loaded = read_trace(io.StringIO(text))
    assert _trace_text(loaded) == _reference_text(loaded) == text


def _payer_corpus():
    # Seeded random instances, connected-vertex-cover reductions, chains and
    # two grids of grid(W, keep, seed) = gen_grid(W, W, 1/2, keep, (1, 10),
    # seed): grid(8, 1, 1), grid(12, 1, 2).  Only the reductions have arcs
    # whose roles change because the bought arc's head reaches their tail:
    # without that rule the rest of the corpus still passes.
    rng = random.Random(20261021)
    instances = [random_valid_instance(rng, max_nodes=12, max_arcs=40) for _ in range(300)]
    for _ in range(40):
        graph = random_connected_graph(rng, rng.randint(3, 7), max_edges=12)
        if len(graph.edges) >= 2:
            instances.append(reduce_cvc(graph, planar_promise=True))
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in (3, 8, 20)]
    instances += [
        gen_grid(w, w, Fraction(1, 2), Fraction(1), (1, 10), seed)
        for w, seed in ((8, 1), (12, 2))
    ]
    return instances


def test_kept_payer_map_matches_from_scratch_reference():
    # grow keeps the payer map across iterations and re-derives only the
    # arcs a purchase can change.  At every iteration of whole runs in both
    # modes, the payments it emits must be exactly the buckets and payers of
    # the from-scratch map over F, the purchases before that iteration.
    checked = 0
    for inst in _payer_corpus():
        for mode in MODES:
            trace = grow(inst, mode)
            graph = ArcGraph(inst)
            for rec in trace.iterations:
                moats = active_moats(inst, graph.ids)
                assert tuple(m.vertices for m in moats) == rec.moats
                reference = payer_map_reference(inst, graph, moats, mode == MODE_BUCKETED)
                expected = {
                    (arc_id, kind, m.vertices)
                    for (arc_id, kind), paying in reference.items()
                    for m in paying
                }
                paid = {(p.arc, p.kind, p.moat) for p in rec.payments}
                assert len(paid) == len(rec.payments)
                assert paid == expected, (inst, mode, rec.index)
                graph.add(rec.purchased[0])
                checked += 1
    assert checked > 4000


@pytest.mark.parametrize("k", [4, 8, 16])
def test_classify_recomputes_linear_on_bad_example(monkeypatch, k):
    # The engine binds active_moats at import, so a counter on the moats
    # module sees only classify_arc's nested recomputes, and a counter on
    # the engine's classify_arc sees every arc the kept payer map
    # re-derives.  A purchase re-derives only the arcs into the moats that
    # hold its head, before and after, and the non-antenna arcs into other
    # moats whose tail that head reaches.  On this family the rebuilds are
    # w_1->v, once v->a makes {a, v} a moat, and w_{i+1}->z_i for
    # i = 2..k-1, once z_i->w_i brings z_i into the one growing moat: k-1 in
    # all, one per arc.  Re-deriving every arc in every iteration made 2k-1
    # rebuilds and 82, 258 and 898 classify_arc calls; without the
    # reachability screen there were k^2+4k rebuilds.
    #
    # The ArcGraph searches of the whole solve: each purchase makes two in
    # moats_after, v's forward reach and the backward search for v's SCC
    # inside it, and the payer map reuses that forward reach; each
    # classify_arc call of a non-antenna arc entering a moat makes one
    # screen search; validation and reverse delete's is_feasible make one
    # each.  A second forward search per purchase in the payer map made 77,
    # 163 and 383, one more per purchase (18, 34 and 66).
    #
    # The arcs the payer map re-derives, counted per arc id it is handed,
    # the bought arc included: every arc once at the start, then per
    # purchase the bought arc and the unbought arcs the rule names.  Every
    # arc of this family is bought, and the growing moat holds the heads of
    # all earlier purchases, so keeping bought arcs in the map's indexes
    # re-derived them at every later purchase: 146, 436 and 1448 bucketed,
    # 143, 429 and 1433 in standard mode, quadratic in k.
    calls = {"active_moats": 0, "classify_arc": 0, "reach": 0, "rederived": 0}

    def counted(owner, name):
        func = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(moats_module, "active_moats")
    counted(engine_module, "classify_arc")
    counted(ArcGraph, "reach")
    rederive = engine_module._Payers._rederive

    def counted_rederive(self, arc_ids):
        arc_ids = list(arc_ids)
        calls["rederived"] += len(arc_ids)
        rederive(self, arc_ids)

    monkeypatch.setattr(engine_module._Payers, "_rederive", counted_rederive)
    inst = gen_bad_example(k, EPS)
    for _ in range(2):
        calls.update(active_moats=0, classify_arc=0, reach=0, rederived=0)
        solve(inst)
        assert calls == {
            "active_moats": k - 1,
            "classify_arc": {4: 40, 8: 112, 16: 352}[k],
            "reach": {4: 59, 8: 129, 16: 317}[k],
            "rederived": {4: 70, 8: 170, 16: 466}[k],
        }
        calls["rederived"] = 0
        grow(inst, MODE_STANDARD)
        assert calls["rederived"] == {4: 67, 8: 163, 16: 451}[k]


def test_standard_labels_match_strongest_classify_role():
    # The baseline labels a purchase by the kill test.  The oracle is the
    # classification rule it replaced: the strongest classify_arc role of the
    # bought arc against the moats before the purchase.
    rng = random.Random(34)
    instances = [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(120)]
    instances += [gen_bad_example(k, EPS) for k in (3, 6)]
    instances += [gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 6), s) for s in (5, 6)]
    seen = set()
    for inst in instances:
        _, trace = solve_standard_baseline(inst)
        purchased = frozenset()
        for rec in trace.iterations:
            bought, label = rec.purchased
            moats = active_moats(inst, purchased)
            graph = ArcGraph(inst, purchased)
            roles = {role for _, role in classify_arc(inst, graph, moats, bought)}
            assert roles
            strongest = next(r for r in (ANTENNA, EXPANSION, KILLER) if r in roles)
            assert label == strongest, (inst, rec.index)
            seen.add(label)
            purchased |= {bought}
    assert seen == {ANTENNA, EXPANSION, KILLER}


def _count_graphs(monkeypatch):
    # ArcGraph constructions per module that names the class: a whole run
    # builds the graph of F once in the engine and never one in moats.
    graphs = {"engine": 0, "moats": 0}

    def counted(site):
        def build(*args):
            graphs[site] += 1
            return ArcGraph(*args)

        return build

    monkeypatch.setattr(engine_module, "ArcGraph", counted("engine"))
    monkeypatch.setattr(moats_module, "ArcGraph", counted("moats"))
    return graphs


GRID_8X8 = gen_grid(8, 8, Fraction(1, 2), Fraction(9, 10), (1, 12), 0)


def test_nodes_no_arc_touches_cost_nothing(monkeypatch):
    # A node that no purchased arc touches is an SCC of its own and a core
    # only when it is a terminal, so the moats are found over the ends of
    # F's arcs and the terminals alone.  Padding an instance with 10^4
    # nodes that no arc touches changes no result of solve and audit and
    # no count of `_moat` calls.  Counting every node made each
    # from-scratch build call `_moat` on all of them.
    calls = 0
    moat = moats_module._moat

    def counted(*args):
        nonlocal calls
        calls += 1
        return moat(*args)

    monkeypatch.setattr(moats_module, "_moat", counted)
    for inst in (parse_instance(SINGLE_ARC), parse_instance(FOUR_NODE), gen_bad_example(4, EPS)):
        padded = inst._replace(node_count=inst.node_count + 10_000)
        runs = []
        for case in (inst, padded):
            calls = 0
            for mode in MODES:
                trace = grow(case, mode)
                sol = reverse_delete(case, trace)
                report = run_full(case, trace, sol)
                assert report.all_ok
                runs.append((sol.final_arcs, sol.total_cost, sol.lower_bound, calls))
        assert runs[:2] == runs[2:], inst


def test_standard_run_classifies_nothing(monkeypatch):
    # The baseline's label comes from the kill test, so a standard run makes
    # no classify_arc call.  It computes the moats from scratch once; each
    # purchase updates them locally through moats_after, over one graph of F.
    calls = {"active_moats": 0, "classify_arc": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    for module in (engine_module, moats_module):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    graphs = _count_graphs(monkeypatch)
    rng = random.Random(35)
    instances = [gen_bad_example(8, EPS), GRID_8X8, parse_instance(FOUR_NODE)]
    instances += [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(10)]
    for inst in instances:
        calls.update(active_moats=0, classify_arc=0)
        graphs.update(engine=0, moats=0)
        _, trace = solve_standard_baseline(inst)
        assert trace.iterations
        assert calls == {"active_moats": 1, "classify_arc": 0}
        assert graphs == {"engine": 1, "moats": 0}


def test_bucketed_run_computes_moats_from_scratch_once(monkeypatch):
    # The engine site computes the first moats with active_moats and then
    # updates them locally; classify_arc's nested rebuilds go through the
    # moats module's attribute and are not counted here.  Every F search of
    # the run, screens included, walks the one graph of F the engine built.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return active_moats(*args)

    monkeypatch.setattr(engine_module, "active_moats", counted)
    graphs = _count_graphs(monkeypatch)
    rng = random.Random(36)
    instances = [gen_bad_example(8, EPS), GRID_8X8, parse_instance(FOUR_NODE)]
    instances += [gen_grid(6, 6, Fraction(1, 2), Fraction(4, 5), (1, 6), s) for s in range(4)]
    instances += [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(10)]
    iterations = 0
    for inst in instances:
        calls = 0
        graphs.update(engine=0, moats=0)
        _, trace = solve(inst)
        assert calls == 1
        assert graphs == {"engine": 1, "moats": 0}
        iterations += len(trace.iterations)
    assert iterations > 2 * len(instances)


def _replay_bucket_fills(inst, trace):
    fills = {}
    for rec in trace.iterations:
        for p in rec.payments:
            key = (p.kind, p.arc)
            fills[key] = fills.get(key, Fraction(0)) + rec.epsilon
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

        loads, ok = verify_dual_feasibility(inst, trace.duals)
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
                    moat
                    for moat, role in classify_arc(inst, ArcGraph(inst, frozen), moats, bought)
                    if role == KILLER
                ]
                expected = set()
                for moat in moats:
                    if moat in killer_moats:
                        expected |= moat.core & alive
                assert set(rec.kills) == expected
            purchased.add(bought)
            alive -= set(rec.kills)


def test_local_kills_match_survivors_over_all_moats(monkeypatch):
    # grow tests only the moats holding the bought arc's head, against the
    # one new moat.  The oracle is `survivors` over every moat before the
    # purchase and every moat after it, at every purchase of whole runs in
    # both modes; a standard run's label must follow the same survivors.
    dead = []  # per purchase: the moats the full survival test kills

    def recorded(inst, graph, moats, arc_id):
        result = moats_module.moats_after(inst, graph, moats, arc_id)
        kept = survivors(moats, result[0])
        tail, head, _ = inst.arcs[arc_id]
        entered = [m for m in moats if head in m.vertices and tail not in m.vertices]
        grows = any(m in kept for m in entered)
        dead.append(([m for m in moats if m not in kept], grows))
        return result

    monkeypatch.setattr(engine_module, "moats_after", recorded)
    rng = random.Random(39)
    instances = [inst for _, inst in acceptance_corpus()]
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in (3, 20, 60)]
    instances += [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(100)]
    kills = 0
    for inst in instances:
        for mode in MODES:
            dead.clear()
            trace = grow(inst, mode)
            assert len(dead) == len(trace.iterations)
            alive = set(inst.terminals)
            for rec, (dying, grows) in zip(trace.iterations, dead):
                expected = [t for m in dying for t in sorted(m.core & alive)]
                assert rec.kills == tuple(expected), (inst, mode, rec.index)
                bought, label = rec.purchased
                if mode == MODE_STANDARD and not is_antenna_arc(inst, bought):
                    assert label == (EXPANSION if grows else KILLER)
                alive.difference_update(expected)
                kills += len(expected)
    assert kills > len(instances)


def test_zero_epsilon_shortcut_matches_full_minimum(monkeypatch):
    # When a paid bucket is already full, epsilon is 0 without the room
    # arithmetic.  The oracle is the full minimum over every paid bucket's
    # room per payer.  Cost-0 buckets are full before any payment, so the
    # instances keep many of them.  The set of full buckets that grow keeps
    # must name exactly the paid buckets whose fill equals their cost.
    fast = engine_module._epsilon_from_payers
    mixed = 0  # tight sets with a paid-full bucket and a never-paid one

    def checked(inst, fills, payers, full):
        nonlocal mixed
        for arc_id, kind in payers:
            at_cost = fills.get((arc_id, kind), 0) == inst.arcs[arc_id].cost
            assert ((arc_id, kind) in full) == at_cost
        fill_at = {
            (arc_id, kind): (inst.arcs[arc_id].cost - fills.get((arc_id, kind), 0))
            / len(paying)
            for (arc_id, kind), paying in payers.items()
        }
        epsilon = min(fill_at.values())
        tight = sorted(bucket for bucket, growth in fill_at.items() if growth == epsilon)
        assert fast(inst, fills, payers, full) == (epsilon, tight)
        paid = [bucket for bucket in tight if bucket in fills]
        mixed += 0 < len(paid) < len(tight)
        return epsilon, tight

    monkeypatch.setattr(engine_module, "_epsilon_from_payers", checked)
    rng = random.Random(37)
    for _ in range(150):
        inst = random_valid_instance(rng, max_nodes=7, max_arcs=24, rational_costs=False)
        solve(inst)
        solve_standard_baseline(inst)
    assert mixed


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
    assert trace.iterations == ()
    assert sol.final_arcs == ()
    assert sol.total_cost == 0
    assert sol.lower_bound == 0


def test_invariants_soak_random_instances():
    rng = random.Random(33)
    for _ in range(25):
        inst = random_valid_instance(rng, max_nodes=8, max_arcs=30)
        for runner in (solve, solve_standard_baseline):
            sol, trace = runner(inst)
            alive_report(trace)
            assert trace.dual_total() == sum(trace.duals.values(), Fraction(0))
            assert run_full(inst, trace, sol).all_ok


def _trace_text(trace):
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def _reference_text(trace):
    buf = io.StringIO()
    write_trace_reference(trace, buf)
    return buf.getvalue()


def _four_node_rows():
    _, trace = solve(parse_instance(FOUR_NODE))
    return [json.loads(line) for line in _trace_text(trace).splitlines()]


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


def _exponent_epsilon(rows):
    rows[1]["epsilon"] = "1e3"


def _exponent_payment_amount(rows):
    rows[2]["payments"][0][3] = "1e3"


def _word_moat(rows):
    rows[1]["moats"][0] = "x"


def _unsorted_moat(rows):
    rows[3]["moats"][0] = "3,2"


def _empty_payment_moat(rows):
    rows[2]["payments"][0][2] = ""


def _bool_payment_arc(rows):
    rows[2]["payments"][0][0] = True


def _float_payment_arc(rows):
    rows[2]["payments"][0][0] = 1.0


def _payment_not_list(rows):
    rows[2]["payments"][0] = {"arc": rows[2]["payments"][0][0]}


def _short_payment(rows):
    del rows[2]["payments"][0][3]


def _long_payment(rows):
    rows[2]["payments"][0].append("1/1")


def _int_payment_kind(rows):
    rows[2]["payments"][0][1] = 1


def _float_payment_amount(rows):
    rows[2]["payments"][0][3] = 0.5


def _amount_not_epsilon(rows):
    # An exact rational, but not line 4's epsilon "1/1": growth is uniform,
    # so every amount is its record's epsilon.
    rows[3]["payments"][1][3] = "1/2"


def _payments_not_list(rows):
    rows[2]["payments"] = "none"


def _repeat_payment(rows, index, value):
    # Line 2's second payment, [1, "killer", "3", "1/1"], appended to line
    # 4's payments with one field replaced.  read_trace keeps one Payment
    # per distinct row, so the replaced field must fail its type check
    # even where it hashes equal to the valid row's.
    row = list(rows[1]["payments"][1])
    assert row == [1, KILLER, "3", "1/1"]
    row[index] = value
    rows[3]["payments"].append(row)


def _repeated_row_true_arc(rows):
    _repeat_payment(rows, 0, True)


def _repeated_row_float_arc(rows):
    _repeat_payment(rows, 0, 1.0)


def _repeated_row_number_amount(rows):
    _repeat_payment(rows, 3, 1)


PAYMENTS_MUST_BE = "trace line 3: payments must be"
FULL_PAYMENTS_MESSAGE = (
    "trace line 4: payments must be a list of "
    "[arc id >= 0, kind, moat name, the record's epsilon]"
)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_purchase, "trace line 2: missing key 'purchase'"),
        (_string_arc, "trace line 2: purchase must be"),
        (_negative_arc, "trace line 3: payments must be"),
        (_unknown_mode, "trace line 1: mode must be bucketed or standard"),
        (_bool_index, "trace line 2: l must be an integer"),
        (_bad_epsilon, "trace line 2: epsilon must be"),
        (_exponent_epsilon, "trace line 2: epsilon must be an exact rational string"),
        (_exponent_payment_amount, PAYMENTS_MUST_BE),
        (_word_moat, "trace line 2: moats must be a list of moat names"),
        (_unsorted_moat, "trace line 4: moats must be a list of moat names"),
        (_empty_payment_moat, PAYMENTS_MUST_BE),
        (_bool_payment_arc, PAYMENTS_MUST_BE),
        (_float_payment_arc, PAYMENTS_MUST_BE),
        (_payment_not_list, PAYMENTS_MUST_BE),
        (_short_payment, PAYMENTS_MUST_BE),
        (_long_payment, PAYMENTS_MUST_BE),
        (_int_payment_kind, PAYMENTS_MUST_BE),
        (_float_payment_amount, PAYMENTS_MUST_BE),
        (_payments_not_list, PAYMENTS_MUST_BE),
        (_repeated_row_true_arc, FULL_PAYMENTS_MESSAGE),
        (_repeated_row_float_arc, FULL_PAYMENTS_MESSAGE),
        (_repeated_row_number_amount, FULL_PAYMENTS_MESSAGE),
        (_amount_not_epsilon, FULL_PAYMENTS_MESSAGE),
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


@pytest.mark.parametrize(
    "key, wrap, message",
    [
        ("epsilon", lambda text: [text], "epsilon must be an exact rational string"),
        ("epsilon", lambda text: 1, "epsilon must be an exact rational string"),
        ("moats", lambda names: [[names[0]]], "moats must be a list of moat names like 2,3"),
        ("moats", lambda names: [2], "moats must be a list of moat names like 2,3"),
    ],
    ids=["epsilon_list", "epsilon_number", "moat_name_list", "moat_name_number"],
)
def test_read_trace_memos_take_only_strings(key, wrap, message):
    # read_trace parses each distinct epsilon and moat name once per read.
    # Line 2 has filled those memos with strings; on line 4 a list (which
    # no memo can hash) or a number is a schema error, not a memo hit.
    rows = _four_node_rows()
    rows[3][key] = wrap(rows[1][key])
    text = "".join(json.dumps(row) + "\n" for row in rows)
    with pytest.raises(ValueError) as info:
        read_trace(io.StringIO(text))
    assert str(info.value) == f"trace line 4: {message}"


def test_read_trace_rejects_truncated_line():
    rows = _four_node_rows()
    lines = [json.dumps(row) for row in rows]
    lines[2] = lines[2][:10]
    with pytest.raises(ValueError, match="trace line 3: not JSON"):
        read_trace(io.StringIO("\n".join(lines)))


def test_read_trace_follows_the_line_rule():
    # Lines end at '\n' alone, after one '\r' is stripped: a CRLF trace
    # reads like the LF one, and a raw U+2028 inside a JSON string is no
    # line break.
    _, trace = solve(parse_instance(FOUR_NODE))
    text = _trace_text(trace)
    assert read_trace(io.StringIO(text.replace("\n", "\r\n"))) == trace
    rows = _four_node_rows()
    rows[0]["instance"] = "a\u2028b"
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    assert read_trace(io.StringIO("\n".join(lines))).instance_hash == "a\u2028b"


def test_read_trace_names_the_first_faulty_line():
    # Lines are parsed one at a time in file order, so of two faults the
    # earlier line's is reported, even when a later line is not JSON.
    rows = _four_node_rows()
    rows[1]["killed"] = rows[1].pop("kills")
    lines = [json.dumps(row) for row in rows]
    lines[3] = "not json"
    with pytest.raises(ValueError, match="^trace line 2: missing key 'kills'$"):
        read_trace(io.StringIO("\n".join(lines)))
