import pickle
import random
from fractions import Fraction

import pytest

from qbdst import engine as engine_module
from qbdst import moats as moats_module
from qbdst.engine import MODES, grow
from qbdst.gen import gen_bad_example, gen_grid
from qbdst.instance import Arc, ArcGraph, Instance, parse_instance
from qbdst.moats import (
    ANTENNA,
    EXPANSION,
    KILLER,
    active_moats,
    classify_arc,
    moats_after,
    survivors,
)

from conftest import (
    acceptance_corpus,
    enumerate_minimal_violated_brute,
    random_qb_instance,
    random_valid_instance,
)


def _inst(text: str) -> Instance:
    return parse_instance(text)


TWO_TERMINALS = _inst(
    "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 3 2 1\nARC 1 2 1\nEND\n"
)


def test_moats_are_values():
    # Two builds of the same moats give equal moats with equal hashes, a
    # pickled moat comes back equal, and a field cannot be assigned.  A
    # moat equals the pair (core, vertices).
    rng = random.Random(42)
    checked = 0
    for _ in range(25):
        inst = random_valid_instance(rng, max_nodes=8, max_arcs=30)
        purchases = grow(inst, MODES[0]).purchases()
        bought = purchases[: rng.randint(0, len(purchases))]
        for moat, again in zip(active_moats(inst, bought), active_moats(inst, bought)):
            assert again == moat
            assert hash(again) == hash(moat)
            assert again == (moat.core, moat.vertices)
            assert pickle.loads(pickle.dumps(moat)) == moat
            with pytest.raises(AttributeError):
                again.vertices = moat.core
            checked += 1
    assert checked > 25


def test_scc_two_cycle():
    # The F-cycle 2<->3 is one core; the root's component is never a moat.
    moats = active_moats(TWO_TERMINALS, {0, 1})
    assert [(set(m.core), set(m.vertices - m.core)) for m in moats] == [({2, 3}, set())]


def test_scc_empty_f_gives_singletons_without_steiner():
    inst = _inst(
        "NODES 4\nROOT 1\nTERMINALS 2\nARC 1 2 1\nARC 3 2 1\nARC 4 2 1\nEND\n"
    )
    # terminal singletons only; Steiner nodes 3, 4 are in no moat
    assert [set(m.vertices) for m in active_moats(inst, set())] == [{2}]


def test_scc_steiner_terminal_cycle_counts():
    # A Steiner node on an F-cycle with a terminal joins the core, not the tails.
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 2 3 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, {0, 1})
    assert [(set(m.core), set(m.vertices - m.core)) for m in moats] == [({2, 3}, set())]


def test_active_moats_initially_singleton_terminals():
    inst = _inst("NODES 4\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nARC 1 3 1\nARC 4 2 1\nEND\n")
    moats = active_moats(inst, set())
    assert [set(m.vertices) for m in moats] == [{2}, {3}]
    assert all(m.vertices == m.core for m in moats)


def test_active_moats_steiner_tail():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, {0})
    assert len(moats) == 1
    assert set(moats[0].core) == {2}
    assert set(moats[0].vertices - moats[0].core) == {3}


def test_active_moats_terminate_when_rooted():
    inst = _inst("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 1\nEND\n")
    assert active_moats(inst, {0}) == []


def test_brute_singletons():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nARC 1 3 1\nEND\n")
    assert enumerate_minimal_violated_brute(inst, set()) == [
        frozenset([2]),
        frozenset([3]),
    ]


def test_brute_non_minimal_superset_dropped():
    inst = _inst(
        "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 1 2 1\nEND\n"
    )
    # arc t1->t2 bought: {t2} has an incoming arc; {t1} is the only minimal set
    assert enumerate_minimal_violated_brute(inst, {0}) == [frozenset([2])]


def test_brute_size_guard():
    inst = Instance(
        node_count=17,
        root=1,
        terminals=frozenset([2]),
        arcs=(Arc(1, 2, Fraction(1)),),
    )
    with pytest.raises(ValueError, match="16"):
        enumerate_minimal_violated_brute(inst, set())


def _roles(inst, purchased, moats, arc_id):
    # classify_arc's (moat, role) pairs, each moat given by its vertex set.
    graph = ArcGraph(inst, purchased)
    return [(m.vertices, role) for m, role in classify_arc(inst, graph, moats, arc_id)]


def test_classify_antenna():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert _roles(inst, frozenset(), moats, 0) == [({2}, ANTENNA)]


def test_classify_root_arc_killer():
    inst = _inst("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert _roles(inst, frozenset(), moats, 0) == [({2}, KILLER)]


def test_classify_expansion_via_back_arc():
    # F = {t1->t2}; adding t2->t1 merges both into one active SCC.
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 3 2 1\nARC 1 2 1\nEND\n")
    purchased = frozenset([0])
    moats = active_moats(inst, purchased)
    assert [set(m.vertices) for m in moats] == [{2}]
    result = _roles(inst, purchased, moats, 1)
    assert result == [({2}, EXPANSION)]
    # cross-check with the brute enumerator: the merged set is minimal violated
    merged = enumerate_minimal_violated_brute(inst, purchased | {1})
    assert frozenset([2, 3]) in merged


def test_classify_terminal_arc_killer_when_no_merge():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    pairs = dict(_roles(inst, frozenset(), moats, 0))
    assert pairs[frozenset([3])] == KILLER
    # {t1,t2} is violated w.r.t. F+{arc} but not minimal, so no merge
    assert frozenset([2, 3]) not in enumerate_minimal_violated_brute(inst, {0})


def test_classify_arc_entering_no_moat_is_empty():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 2 3 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert classify_arc(inst, ArcGraph(inst), moats, 0) == []


@pytest.mark.parametrize(
    "count, min_nodes, max_nodes",
    [(200, 2, 10), (40, 11, 14)],
    ids=["up_to_10_nodes", "11_to_14_nodes"],
)
def test_active_moats_equals_brute_oracle_seeded(count, min_nodes, max_nodes):
    rng = random.Random(20250810)
    for _ in range(count):
        inst = random_qb_instance(rng, max_nodes=max_nodes, min_nodes=min_nodes)
        arc_count = len(inst.arcs)
        purchased = frozenset(
            i for i in range(arc_count) if rng.random() < 0.4
        )
        fast = sorted((m.vertices for m in active_moats(inst, purchased)), key=sorted)
        brute = sorted(enumerate_minimal_violated_brute(inst, purchased), key=sorted)
        assert fast == brute


def test_moat_cores_disjoint_tails_shareable():
    rng = random.Random(7)
    for _ in range(120):
        inst = random_qb_instance(rng)
        purchased = frozenset(
            i for i in range(len(inst.arcs)) if rng.random() < 0.4
        )
        moats = active_moats(inst, purchased)
        for i, a in enumerate(moats):
            for b in moats[i + 1 :]:
                assert not (a.core & b.core)
                shared = a.vertices & b.vertices
                assert all(inst.is_steiner(v) for v in shared)


def test_expansion_killer_tails_are_terminal_or_root():
    rng = random.Random(8)
    for _ in range(80):
        inst = random_qb_instance(rng)
        purchased = frozenset(
            i for i in range(len(inst.arcs)) if rng.random() < 0.3
        )
        moats = active_moats(inst, purchased)
        graph = ArcGraph(inst, purchased)
        for arc_id in range(len(inst.arcs)):
            if arc_id in purchased:
                continue
            for _, role in classify_arc(inst, graph, moats, arc_id):
                if role in (EXPANSION, KILLER):
                    tail = inst.arcs[arc_id].tail
                    assert tail == inst.root or tail in inst.terminals


def test_classify_is_pure():
    rng = random.Random(9)
    inst = random_qb_instance(rng)
    purchased = frozenset(i for i in range(len(inst.arcs)) if rng.random() < 0.3)
    moats = active_moats(inst, purchased)
    graph = ArcGraph(inst, purchased)
    for arc_id in range(len(inst.arcs)):
        if arc_id in purchased:
            continue
        first = classify_arc(inst, graph, moats, arc_id)
        second = classify_arc(inst, graph, moats, arc_id)
        assert first == second


def test_classify_roles_match_brute_oracle_seeded(monkeypatch):
    # The reachability screen settles most killers without recomputing the
    # moats.  Every expansion or killer role, screened or recomputed, must
    # match the brute answer: expansion iff a minimal violated set of
    # F + {arc} strictly contains the entered moat's core.  The survival
    # rule gives that same set of moats, screened arcs included.
    recomputes = 0

    def counted(inst, purchased):
        nonlocal recomputes
        recomputes += 1
        return active_moats(inst, purchased)

    monkeypatch.setattr(moats_module, "active_moats", counted)
    rng = random.Random(20261018)
    roles = {EXPANSION: 0, KILLER: 0}
    classified = 0  # arcs with an expansion or killer role
    for trial in range(1000):
        inst = random_qb_instance(rng, max_nodes=10)
        purchased = frozenset(i for i in range(len(inst.arcs)) if rng.random() < 0.4)
        moats = active_moats(inst, purchased)
        graph = ArcGraph(inst, purchased)
        for arc_id in range(len(inst.arcs)):
            if arc_id in purchased:
                continue
            brute = None
            entered = []
            for moat, role in classify_arc(inst, graph, moats, arc_id):
                assert moat in moats, (trial, arc_id, moat)
                if role == ANTENNA:
                    continue
                if brute is None:
                    brute = enumerate_minimal_violated_brute(inst, purchased | {arc_id})
                    classified += 1
                grows = any(moat.core < s for s in brute)
                assert role == (EXPANSION if grows else KILLER), (trial, arc_id, moat)
                roles[role] += 1
                entered.append(moat)
            if entered:
                expanded = {m for m in entered if any(m.core < s for s in brute)}
                after = active_moats(inst, purchased | {arc_id})
                assert survivors(entered, after) == expanded, (trial, arc_id)
    assert roles[EXPANSION] and roles[KILLER]
    # Both paths ran: some arcs were recomputed, and the screen settled others.
    assert 0 < recomputes < classified


def _check_moats_after(inst, graph, moats, arc_id):
    # The local update against the from-scratch oracle, and on small
    # instances against the brute enumerator too.  `graph` already holds
    # the bought arc.  The SCC of its head v, a backward search kept inside
    # v's forward reach, must equal both whole reaches intersected.  The
    # holders, the new moat and the reach it returns must be what a rescan
    # of the moats and a fresh search give.
    v = inst.arcs[arc_id].head
    forward = graph.reach([v])
    scc = forward & graph.reach([v], backward=True)
    assert graph.reach([v], backward=True, within=forward) == scc
    result = moats_after(inst, graph, moats, arc_id)
    after, holders, new, reach = result
    bought = frozenset(graph.ids)
    assert arc_id in bought
    scratch = active_moats(inst, bought)
    assert after == scratch, (sorted(bought), arc_id)
    assert set(after) == set(scratch)
    assert holders == [m for m in moats if v in m.vertices]
    assert ([] if new is None else [new]) == [m for m in after if v in m.vertices]
    assert reach == forward
    if inst.node_count <= 10:
        brute = enumerate_minimal_violated_brute(inst, bought)
        assert [m.vertices for m in after] == brute, (sorted(bought), arc_id)
    return result


def test_moats_after_equals_active_moats_in_grow_runs(monkeypatch):
    # Every purchase of whole runs in both modes, over the acceptance
    # corpus plus larger chains, grids and seeded random instances.
    updates = 0

    def checked(*args):
        nonlocal updates
        updates += 1
        return _check_moats_after(*args)

    monkeypatch.setattr(engine_module, "moats_after", checked)
    instances = [inst for _, inst in acceptance_corpus()]
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in (3, 60)]
    instances += [
        gen_grid(8, 8, Fraction(1, 2), Fraction(9, 10), (1, 12), seed) for seed in range(4)
    ]
    rng = random.Random(20261018)
    instances += [random_valid_instance(rng, max_nodes=8, max_arcs=30) for _ in range(100)]
    purchases = 0
    for inst in instances:
        for mode in MODES:
            purchases += len(grow(inst, mode).iterations)
    assert updates == purchases > 0


def test_moats_after_equals_active_moats_in_random_purchase_orders():
    # Any arc, bought in any order, also arcs entering no moat or internal
    # to one, on random quasi-bipartite instances of up to 10 nodes.
    rng = random.Random(20261019)
    purchases = 0
    for _ in range(500):
        inst = random_qb_instance(rng, max_nodes=10, arc_prob=rng.choice([0.2, 0.4]))
        order = list(range(len(inst.arcs)))
        rng.shuffle(order)
        graph = ArcGraph(inst)
        moats = active_moats(inst, graph.ids)
        for arc_id in order:
            graph.add(arc_id)
            moats = _check_moats_after(inst, graph, moats, arc_id)[0]
            purchases += 1
    assert purchases > 4000
