"""Strongly connected components, active moats (minimal violated sets),
and per-arc role classification.

A set S (no root, containing a terminal) is violated w.r.t. purchased arcs
F when no F-arc enters it; an active moat is an inclusion-minimal violated
set.  In quasi-bipartite graphs every active moat is one SCC (the core)
plus the Steiner nodes that have an F-arc into that core, and the moat is
active exactly when nothing in F enters core-plus-tails.  `active_moats`
uses that closed form; `enumerate_minimal_violated_brute` is the
independent subset-enumeration oracle guarding it.

The survival rule is `survivors`: a moat outlives a purchase when its
core lies inside an active set after it.  The growth loop kills every
other moat, and a non-antenna arc is an expansion arc for exactly the
entered moats that survive its purchase.

`classify_arc` screens each non-antenna arc u->v by reachability before
it recomputes the moats of F + {u->v}.  When no F-path leads from the
core C of any moat the arc enters to its tail u, the arc is a killer for
every one of them:

1. No F-path runs from C to u, so u->v closes no cycle through C, and the
   SCC of C in F + {u->v} is still C.
2. The instance is quasi-bipartite, so a non-antenna arc entering a moat
   has a terminal or the root as its tail, never a Steiner node; the
   Steiner tails of C, and so the candidate set C + tails, stay the same.
3. u->v enters that unchanged candidate set, which is therefore no longer
   active.  Every other active set of F + {u->v} has a different core,
   disjoint from C, and its Steiner tails cannot hold C's terminal, so no
   active set contains C: no entered moat survives, the arc is a killer.

Arcs the screen does not settle take the from-scratch recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .instance import Instance, reachable

ANTENNA = "antenna"
EXPANSION = "expansion"
KILLER = "killer"

BRUTE_NODE_LIMIT = 16


@dataclass(frozen=True)
class Moat:
    """An active moat: SCC core plus attached Steiner tails.  `vertices`
    is its identity; its text name exists only in trace records."""

    core: frozenset[int]
    steiner_tails: frozenset[int]

    @cached_property
    def vertices(self) -> frozenset[int]:
        return self.core | self.steiner_tails


def _components(node_count: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """All strongly connected components (Kosaraju), including singletons."""
    adj: list[list[int]] = [[] for _ in range(node_count + 1)]
    radj: list[list[int]] = [[] for _ in range(node_count + 1)]
    for tail, head in arcs:
        adj[tail].append(head)
        radj[head].append(tail)

    order: list[int] = []
    seen = [False] * (node_count + 1)
    for start in range(1, node_count + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()

    comp_of = [0] * (node_count + 1)
    comps: list[list[int]] = []
    assigned = [False] * (node_count + 1)
    for start in reversed(order):
        if assigned[start]:
            continue
        comp = []
        assigned[start] = True
        work = [start]
        while work:
            v = work.pop()
            comp.append(v)
            comp_of[v] = len(comps)
            for w in radj[v]:
                if not assigned[w]:
                    assigned[w] = True
                    work.append(w)
        comps.append(sorted(comp))
    return comps


def active_moats(inst: Instance, purchased: Iterable[int]) -> list[Moat]:
    """The minimal violated sets w.r.t. the purchased arc set.

    For each non-root SCC core C, form A = C plus every Steiner node with a
    purchased arc into C; A is a moat iff no purchased arc enters A.
    Ordered ascending by the sorted vertex list.
    """
    ids = list(purchased)
    farcs = [inst.arcs[i] for i in ids]
    pairs = [(a.tail, a.head) for a in farcs]
    steiner = inst.steiner

    candidates: list[set[int]] = []
    cores: list[frozenset[int]] = []
    member_of: dict[int, int] = {}
    for comp in _components(inst.node_count, pairs):
        if inst.root in comp:
            continue
        if not any(v in inst.terminals for v in comp):
            continue
        idx = len(candidates)
        candidates.append(set(comp))
        cores.append(frozenset(comp))
        for v in comp:
            member_of[v] = idx

    # Attach Steiner tails: quasi-bipartiteness means tails connect
    # directly to the core, never through another Steiner node.
    for arc in farcs:
        idx = member_of.get(arc.head)
        if idx is not None and arc.tail in steiner and arc.tail not in cores[idx]:
            candidates[idx].add(arc.tail)

    moats = []
    for idx, cand in enumerate(candidates):
        if any(a.head in cand and a.tail not in cand for a in farcs):
            continue
        moats.append(Moat(core=cores[idx], steiner_tails=frozenset(cand - cores[idx])))
    moats.sort(key=lambda m: sorted(m.vertices))
    return moats


def enumerate_minimal_violated_brute(
    inst: Instance, purchased: Iterable[int]
) -> list[frozenset[int]]:
    """Testing oracle: all inclusion-minimal violated sets by direct subset
    enumeration.  Guarded to 16 nodes."""
    n = inst.node_count
    if n > BRUTE_NODE_LIMIT:
        raise ValueError(f"brute enumeration limited to {BRUTE_NODE_LIMIT} nodes, got {n}")
    arc_bits = [
        (1 << (inst.arcs[i].tail - 1), 1 << (inst.arcs[i].head - 1)) for i in purchased
    ]
    root_bit = 1 << (inst.root - 1)
    term_mask = 0
    for t in inst.terminals:
        term_mask |= 1 << (t - 1)

    masks = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    for mask in masks:
        if mask & root_bit or not mask & term_mask:
            continue
        if any(head & mask and not tail & mask for tail, head in arc_bits):
            continue
        if any(sub & mask == sub for sub in minimal):
            continue
        minimal.append(mask)
    result = [
        frozenset(v + 1 for v in range(n) if mask >> v & 1) for mask in minimal
    ]
    result.sort(key=sorted)
    return result


def survivors(moats: Iterable[Moat], after: Iterable[Moat]) -> set[Moat]:
    """The moats of `moats` whose core lies inside some moat of `after`,
    the active moats once an arc is bought.

    For a moat A with core C that the bought non-antenna arc u->v enters,
    inside is strictly inside.  An active set S equal to C has core C,
    since C stays strongly connected, so S has no Steiner tails.  A's tails
    keep their F-arcs into C, so A has none either, and v lies in C.  Then
    u->v, whose tail is outside A, enters S, and S is not active.
    """
    sets = [m.vertices for m in after]
    return {m for m in moats if any(m.core <= s for s in sets)}


def is_antenna_arc(inst: Instance, arc_id: int) -> bool:
    """Antenna arcs run from a Steiner node to a terminal and carry a
    single payment bucket."""
    arc = inst.arcs[arc_id]
    return inst.is_steiner(arc.tail) and arc.head in inst.terminals


def classify_arc(
    inst: Instance,
    purchased: frozenset[int],
    moats: list[Moat],
    arc_id: int,
) -> list[tuple[Moat, str]]:
    """Role of an unpurchased arc w.r.t. each active moat it enters.

    Antenna arcs are antenna for the (at most one) moat their head lies in.
    A non-antenna arc entering moat A is an expansion arc when A survives
    the purchase of the arc (`survivors`), else a killer arc.  When no
    F-path leads from any entered moat's core to the arc's tail, the arc is
    a killer for all of them (the reachability screen; the module docstring
    gives its three-step proof).  Otherwise the moats of F + {arc} are
    recomputed from scratch, per the brute-guarded closed form.  Arcs
    entering no moat yield an empty list; an arc never receives payment
    from a moat that already contains its tail.
    """
    arc = inst.arcs[arc_id]
    entered = [
        m for m in moats if arc.head in m.vertices and arc.tail not in m.vertices
    ]
    if not entered:
        return []
    if is_antenna_arc(inst, arc_id):
        return [(m, ANTENNA) for m in entered]
    if arc.tail not in reachable(inst, [v for m in entered for v in m.core], purchased):
        return [(m, KILLER) for m in entered]
    grown = survivors(entered, active_moats(inst, purchased | {arc_id}))
    return [(m, EXPANSION if m in grown else KILLER) for m in entered]
