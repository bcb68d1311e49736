import random
from fractions import Fraction

import pytest

from qbdst.instance import Arc, Instance, parse_instance
from qbdst.moats import (
    ANTENNA,
    EXPANSION,
    KILLER,
    active_moats,
    classify_arc,
    enumerate_minimal_violated_brute,
)

from conftest import random_qb_instance


def _inst(text: str) -> Instance:
    return parse_instance(text)


TWO_TERMINALS = _inst(
    "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 3 2 1\nARC 1 2 1\nEND\n"
)


def test_scc_two_cycle():
    # The F-cycle 2<->3 is one core; the root's component is never a moat.
    moats = active_moats(TWO_TERMINALS, {0, 1})
    assert [(set(m.core), set(m.steiner_tails)) for m in moats] == [({2, 3}, set())]


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
    assert [(set(m.core), set(m.steiner_tails)) for m in moats] == [({2, 3}, set())]


def test_active_moats_initially_singleton_terminals():
    inst = _inst("NODES 4\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nARC 1 3 1\nARC 4 2 1\nEND\n")
    moats = active_moats(inst, set())
    assert [set(m.vertices) for m in moats] == [{2}, {3}]
    assert all(not m.steiner_tails for m in moats)


def test_active_moats_steiner_tail():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, {0})
    assert len(moats) == 1
    assert set(moats[0].core) == {2}
    assert set(moats[0].steiner_tails) == {3}


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


def test_classify_antenna():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 3 2 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert classify_arc(inst, frozenset(), moats, 0) == [((2,), ANTENNA)]


def test_classify_root_arc_killer():
    inst = _inst("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert classify_arc(inst, frozenset(), moats, 0) == [((2,), KILLER)]


def test_classify_expansion_via_back_arc():
    # F = {t1->t2}; adding t2->t1 merges both into one active SCC.
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 3 2 1\nARC 1 2 1\nEND\n")
    purchased = frozenset([0])
    moats = active_moats(inst, purchased)
    assert [set(m.vertices) for m in moats] == [{2}]
    result = classify_arc(inst, purchased, moats, 1)
    assert result == [((2,), EXPANSION)]
    # cross-check with the brute enumerator: the merged set is minimal violated
    merged = enumerate_minimal_violated_brute(inst, purchased | {1})
    assert frozenset([2, 3]) in merged


def test_classify_terminal_arc_killer_when_no_merge():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 2 3 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    pairs = dict(classify_arc(inst, frozenset(), moats, 0))
    assert pairs[(3,)] == KILLER
    # {t1,t2} is violated w.r.t. F+{arc} but not minimal, so no merge
    assert frozenset([2, 3]) not in enumerate_minimal_violated_brute(inst, {0})


def test_classify_arc_entering_no_moat_is_empty():
    inst = _inst("NODES 3\nROOT 1\nTERMINALS 2\nARC 2 3 1\nARC 1 2 1\nEND\n")
    moats = active_moats(inst, frozenset())
    assert classify_arc(inst, frozenset(), moats, 0) == []


def test_active_moats_equals_brute_oracle_seeded():
    rng = random.Random(20250810)
    for _ in range(200):
        inst = random_qb_instance(rng)
        arc_count = len(inst.arcs)
        purchased = frozenset(
            i for i in range(arc_count) if rng.random() < 0.4
        )
        fast = sorted(m.vertices for m in active_moats(inst, purchased))
        brute = sorted(enumerate_minimal_violated_brute(inst, purchased))
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
                assert shared <= inst.steiner


def test_expansion_killer_tails_are_terminal_or_root():
    rng = random.Random(8)
    for _ in range(80):
        inst = random_qb_instance(rng)
        purchased = frozenset(
            i for i in range(len(inst.arcs)) if rng.random() < 0.3
        )
        moats = active_moats(inst, purchased)
        for arc_id in range(len(inst.arcs)):
            if arc_id in purchased:
                continue
            for _, role in classify_arc(inst, purchased, moats, arc_id):
                if role in (EXPANSION, KILLER):
                    tail = inst.arcs[arc_id].tail
                    assert tail == inst.root or tail in inst.terminals


def test_classify_is_pure():
    rng = random.Random(9)
    inst = random_qb_instance(rng)
    purchased = frozenset(i for i in range(len(inst.arcs)) if rng.random() < 0.3)
    moats = active_moats(inst, purchased)
    for arc_id in range(len(inst.arcs)):
        if arc_id in purchased:
            continue
        first = classify_arc(inst, purchased, moats, arc_id)
        second = classify_arc(inst, purchased, moats, arc_id)
        assert first == second
