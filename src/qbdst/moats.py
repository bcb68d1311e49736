"""Strongly connected components, active moats (minimal violated sets),
and per-arc role classification.

A set S (no root, containing a terminal) is violated w.r.t. purchased arcs
F when no F-arc enters it; an active moat is an inclusion-minimal violated
set.  In quasi-bipartite graphs one rule, `_moat`, gives every moat: an
SCC C of F (the core) that excludes the root and holds a terminal, plus
the Steiner nodes with an F-arc into C, provided no F-arc enters that
union.  A `Moat` holds C and that union, its vertex set and identity.
`active_moats` applies it to every SCC of F, `moats_after` to the one
SCC a purchase can change; the tests guard both against an independent
oracle that enumerates vertex subsets.

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

`moats_after` updates the moats locally after one purchase u->v instead
of rebuilding every SCC.  Let F' = F + {u->v}:

1. A moat M of F with v not in M is a moat of F', unchanged.  A new cycle
   through M's core C would need an F-path from v into C, and every such
   path enters M by an F-arc, which an active M does not have; so C stays
   an SCC.  The head v lies outside C, so C's Steiner tails stay the same,
   and u->v does not enter M, so M stays active.
2. Every other candidate of F' is unchanged too, except the SCC S of v
   in F'.  An SCC D of F' without v is an SCC of F, and its tails are
   those of F, since u->v's head is not in D.  If D + tails is active in
   F', it was active in F, so it is a moat M of F; if v were in M, it
   would be a Steiner tail, and u->v would have to start inside M.  The
   instance is quasi-bipartite, so u (with an arc to the Steiner node v)
   is not Steiner and lies in D, and then v joins D's SCC in F': v would
   be in D after all.  So M does not contain v, and step 1 applies.

The moats of F' are therefore the moats of F without v, plus `_moat` of
S when that is a moat.  S is v's forward reach in F' intersected with
its backward reach.  Both are searches over the adjacency of F' that the
growth loop keeps (`instance.ArcGraph`), and the backward search enters
only nodes of the forward reach: every path from a node of S to v stays
inside S, so the restricted search still finds all of S and nothing
else.  Each search costs only the nodes and arcs it visits.  S's Steiner
tails, and the test whether an F'-arc enters S with its tails, read only
the in-arcs of those vertices, never all of F'.

So `moats_after` returns what the purchase changed: the moats of F', the
holders (the moats of F that hold v), the one new moat or None, and v's
forward reach in F'.  The growth loop reads its kills from them (the
moats without v survive, so only the holders need `survivors`, against
the new moat), and the payer map's stale arcs.

The growth loop keeps the payer map, each unbought arc's list of
(entered moat, role), across iterations.  After a purchase x->y, with
F' = F + {x->y}, it re-derives an unbought arc u->v only when v lies in a
holder of y or the new moat, or, in bucketed mode, when u->v is not an
antenna arc and u is in y's forward reach in F'.  Every other arc keeps
its list.  Say v lies in no moat holding y.  The moats of F' without y
are the moats of F without y (above), so u->v enters the same moats
before and after.  A standard-mode list names only those moats, and an
antenna role reads only the instance.  Take a non-antenna u->v entering
moat M, with core C and y not in M.  Write fwd and back for reach in F,
fwd' and back' in F'.

1. The role reads only reach sets.  A terminal of C lies in no moat of F
   but M, and M holds v, so by the rule above M survives the purchase of
   u->v exactly when the SCC of C in F + {u->v} holds v and `_moat` of
   it, with u->v among the in-arcs, is not None.  The head v reaches C
   (v is in C, or a Steiner tail with an F-arc into C), so that SCC is C
   when u is not in fwd(C), the screen's killer case, and otherwise
   S = fwd(v) & (back(C) | back(u)), since fwd(C) lies inside fwd(v).
   The role therefore reads whether u is in fwd(C), the set S, and the
   in-arcs of S and of its Steiner tails.
2. No F'-arc enters M: no F-arc does, M being active, and x->y does not,
   since y is not in M.  So back'(C) = back(C) lies inside M, and y
   reaches no vertex of M.
3. Now let y not reach u in F'.  A path of F' that F lacks runs through
   x->y, so back'(u) = back(u), and the vertices that fwd'(C) and fwd'(v)
   gain lie in fwd'(y).  Then u is in fwd'(C) exactly when it is in
   fwd(C).  A vertex that fwd'(v) gains is reached from y, so it lies
   neither in M, which holds back(C), nor in back(u); S is the same in
   F'.  The in-arcs differ only at y, which is not in S (S lies inside
   back(C) | back(u)), and no Steiner tail of S either: its F-arc into S
   would put y in back(C) or let it reach u.  So the role is the same.

The bought arc leaves the map for good: its buckets are dropped once, and
it leaves the arc indexes the stale arcs are read from.  F only grows and
no arc of F enters an active moat, so it is never paid again, and no later
purchase visits it.  The arcs whose head reaches x need no case of their
own: fwd(v) grows only by vertices of fwd'(y), which touch the role only
when they reach u.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, NamedTuple

from .instance import ArcGraph, Instance

ANTENNA = "antenna"
EXPANSION = "expansion"
KILLER = "killer"


class Moat(NamedTuple):
    """An active moat, a NamedTuple: its SCC core and `vertices`, the core
    plus its Steiner tails.  `vertices` is its identity, in memory and in
    trace records; its text name exists only in trace files."""

    core: frozenset[int]
    vertices: frozenset[int]


def _components(into: dict[int, list[int]], also: Iterable[int]) -> list[set[int]]:
    """The strongly connected components (Kosaraju), singletons included,
    of the arcs `into` lists, over the nodes they touch and the nodes of
    `also`: `into[w]` holds the tails of the arcs entering w."""
    adj: dict[int, list[int]] = {v: [] for v in also}
    for head, tails in into.items():
        adj.setdefault(head, [])
        for tail in tails:
            adj.setdefault(tail, []).append(head)

    order: list[int] = []
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        path = [start]
        heads = [iter(adj[start])]
        while heads:
            for w in heads[-1]:
                if w not in seen:
                    seen.add(w)
                    path.append(w)
                    heads.append(iter(adj[w]))
                    break
            else:
                order.append(path.pop())
                heads.pop()

    # Each component takes its nodes out of `seen`.
    comps: list[set[int]] = []
    for start in reversed(order):
        if start not in seen:
            continue
        seen.discard(start)
        comp = {start}
        work = [start]
        while work:
            for u in into.get(work.pop(), ()):
                if u in seen:
                    seen.discard(u)
                    comp.add(u)
                    work.append(u)
        comps.append(comp)
    return comps


def _moat(inst: Instance, core: set[int], into: dict[int, list[int]]) -> Moat | None:
    """The moat whose core is `core`, an SCC of F, or None; `into[w]`
    lists the tails of the F-arcs entering w.  The core must exclude the
    root and hold a terminal.  Its Steiner tails are the Steiner nodes with
    an F-arc into it (quasi-bipartiteness: never through another Steiner
    node), and core plus tails is a moat exactly when no F-arc enters it."""
    if inst.root in core or core.isdisjoint(inst.terminals):
        return None
    tails = {
        u for w in core for u in into.get(w, ()) if u not in core and inst.is_steiner(u)
    }
    vertices = core | tails
    if any(u not in vertices for w in vertices for u in into.get(w, ())):
        return None
    return Moat(core=frozenset(core), vertices=frozenset(vertices))


def active_moats(inst: Instance, purchased: Iterable[int]) -> list[Moat]:
    """The minimal violated sets w.r.t. the purchased arc set F: `_moat` of
    every SCC of F over the ends of its arcs and the terminals, since a node
    no F-arc touches is a core only when it is a terminal.  Ordered
    ascending by the sorted vertex list."""
    into: dict[int, list[int]] = {}
    for arc_id in purchased:
        tail, head, _ = inst.arcs[arc_id]
        into.setdefault(head, []).append(tail)
    found = (_moat(inst, core, into) for core in _components(into, inst.terminals))
    return sorted((m for m in found if m is not None), key=_order)


def _order(moat: Moat) -> list[int]:
    """The moats' order: ascending by the sorted vertex list."""
    return sorted(moat.vertices)


def moats_after(
    inst: Instance, bought: ArcGraph, moats: list[Moat], arc_id: int
) -> tuple[list[Moat], list[Moat], Moat | None, set[int]]:
    """What buying the arc changes, given `bought`, the graph of F with the
    arc already added, and `moats`, the active moats of F: the active moats
    of F + {arc}, equal to and ordered as `active_moats(inst, bought.ids)`;
    the holders, the moats of F that hold the arc's head v; the one new
    moat or None; and v's forward reach in F + {arc}.

    The moats without v are kept, and `_moat` of the SCC of v in F + {arc}
    is the one new candidate (the module docstring gives the proof).  The
    SCC is a backward search from v that stays inside v's forward reach.
    """
    v = inst.arcs[arc_id].head
    kept: list[Moat] = []
    holders: list[Moat] = []
    for m in moats:
        (holders if v in m.vertices else kept).append(m)
    reach = bought.reach([v])
    moat = _moat(inst, bought.reach([v], backward=True, within=reach), bought.tails)
    if moat is not None:
        insort(kept, moat, key=_order)
    return kept, holders, moat, reach


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
    purchased: ArcGraph,
    moats: list[Moat],
    arc_id: int,
) -> list[tuple[Moat, str]]:
    """Role of an unpurchased arc w.r.t. each active moat it enters.

    `purchased` is the graph of F.  Antenna arcs are antenna for the (at
    most one) moat their head lies in.  A non-antenna arc entering moat A
    is an expansion arc when A survives the purchase of the arc
    (`survivors`), else a killer arc.  When no F-path leads from any
    entered moat's core to the arc's tail, the arc is a killer for all of
    them (the reachability screen, a search of `purchased`; the module
    docstring gives its three-step proof).  Otherwise the moats of
    F + {arc} are recomputed from scratch, per the brute-guarded closed
    form.  Arcs entering no moat yield an empty list; an arc never
    receives payment from a moat that already contains its tail.
    """
    arc = inst.arcs[arc_id]
    entered = [
        m for m in moats if arc.head in m.vertices and arc.tail not in m.vertices
    ]
    if not entered:
        return []
    if is_antenna_arc(inst, arc_id):
        return [(m, ANTENNA) for m in entered]
    if arc.tail not in purchased.reach([v for m in entered for v in m.core]):
        return [(m, KILLER) for m in entered]
    grown = survivors(entered, active_moats(inst, purchased.ids | {arc_id}))
    return [(m, EXPANSION if m in grown else KILLER) for m in entered]
