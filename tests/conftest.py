from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import IO, Iterable, Iterator

from qbdst.engine import (
    MODE_BUCKETED,
    MODE_STANDARD,
    GrowthTrace,
    IterationRecord,
    Payment,
    Solution,
)
from qbdst.instance import Arc, ArcGraph, Instance, validate
from qbdst.moats import ANTENNA, EXPANSION, KILLER, Moat, classify_arc
from qbdst.oracle import InfeasibleInstanceError, OptResult
from qbdst.gen import UndirectedGraph, gen_bad_example, gen_grid, reduce_cvc

SINGLE_ARC = "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 5\nEND\n"

# Worked example: a1=(r->t1,3) a2=(r->t2,3) a3=(t2->t1,1) a4=(t1->t2,1)
# with r=1, t1=2, t2=3.  Bucketed trace:
#   iteration 0: moats {t1}, {t2}; epsilon 1; buys a3 (killer)
#   iteration 1: moat {t2};        epsilon 1; buys a4 (expansion)
#   iteration 2: moat {t1,t2};     epsilon 1; buys a2 (killer)
# {t2} pays a2's killer bucket in every iteration, so it reaches c(a2)=3
# at iteration 2.  Reverse delete keeps {a2,a3}: cost 4 = dual 4 = OPT.
FOUR_NODE = (
    "NODES 3\nROOT 1\nTERMINALS 2 3\n"
    "ARC 1 2 3\nARC 1 3 3\nARC 3 2 1\nARC 2 3 1\nEND\n"
)


# Independent oracles for the moats and the hardness reduction, used only
# by the tests.
BRUTE_NODE_LIMIT = 16
CVC_NODE_LIMIT = 12


@cache
def _masks_by_size(n: int) -> list[int]:
    """Every nonempty subset of n nodes as a bit mask, smallest first."""
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


def enumerate_minimal_violated_brute(
    inst: Instance, purchased: Iterable[int]
) -> list[frozenset[int]]:
    """All inclusion-minimal violated sets by direct subset
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

    minimal: list[int] = []
    for mask in _masks_by_size(n):
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


def brute_cvc(g: UndirectedGraph) -> int:
    """Minimum size of a vertex cover inducing a connected subgraph, by
    exhaustive search.  Guarded to 12 nodes."""
    if g.node_count > CVC_NODE_LIMIT:
        raise ValueError(f"brute CVC limited to {CVC_NODE_LIMIT} nodes, got {g.node_count}")
    if not g.edges:
        return 0
    vertices = range(1, g.node_count + 1)
    for k in range(1, g.node_count + 1):
        for subset in combinations(vertices, k):
            chosen = set(subset)
            if not all(u in chosen or v in chosen for u, v in g.edges):
                continue
            seen = {subset[0]}
            work = [subset[0]]
            while work:
                x = work.pop()
                for u, v in g.edges:
                    if u == x and v in chosen and v not in seen:
                        seen.add(v)
                        work.append(v)
                    elif v == x and u in chosen and u not in seen:
                        seen.add(u)
                        work.append(u)
            if len(seen) == k:
                return k
    raise AssertionError("full vertex set is always a connected cover")


def exact_opt_brute_reference(inst: Instance) -> OptResult:
    """`oracle.exact_opt_brute` as it was before it summed scaled integer
    costs: every mask's cost is a sum of Fractions, with the same ascending
    mask order and strict improvement, so ties pick the same arcs."""
    m = len(inst.arcs)
    terminals = sorted(inst.terminals)
    if not terminals:
        return OptResult(Fraction(0), frozenset(), "brute_subsets")
    term_in_mask = {t: 0 for t in terminals}
    for i, arc in enumerate(inst.arcs):
        if arc.head in term_in_mask:
            term_in_mask[arc.head] |= 1 << i
    needed = list(term_in_mask.values())
    if any(mask == 0 for mask in needed):
        raise InfeasibleInstanceError("some terminal has no incoming arc")
    best_cost: Fraction | None = None
    best_mask = 0
    for mask in range(1 << m):
        if any(not mask & req for req in needed):
            continue
        cost = Fraction(0)
        sub = mask
        while sub:
            low = sub & -sub
            cost += inst.arcs[low.bit_length() - 1].cost
            sub ^= low
        if best_cost is not None and cost >= best_cost:
            continue
        reached = {inst.root}
        frontier = [inst.root]
        chosen = [inst.arcs[i] for i in range(m) if mask >> i & 1]
        while frontier:
            v = frontier.pop()
            for arc in chosen:
                if arc.tail == v and arc.head not in reached:
                    reached.add(arc.head)
                    frontier.append(arc.head)
        if all(t in reached for t in terminals):
            best_cost, best_mask = cost, mask
    if best_cost is None:
        raise InfeasibleInstanceError("no feasible arc subset")
    arcs = frozenset(i for i in range(m) if best_mask >> i & 1)
    return OptResult(best_cost, arcs, "brute_subsets")


def write_trace_reference(trace: GrowthTrace, out: IO[str]) -> None:
    """`engine.write_trace` as it was before it formatted iteration lines
    itself: every line is `json.dumps(row, sort_keys=True)`."""
    name = lambda vertices: ",".join(map(str, sorted(vertices)))
    frac = lambda value: f"{value.numerator}/{value.denominator}"
    header = {
        "record": "header",
        "mode": trace.mode,
        "instance": trace.instance_hash,
        "nodes": trace.node_count,
        "root": trace.root,
        "terminals": sorted(trace.terminals),
    }
    out.write(json.dumps(header, sort_keys=True) + "\n")
    for rec in trace.iterations:
        row = {
            "record": "iteration",
            "l": rec.index,
            "epsilon": frac(rec.epsilon),
            "moats": [name(vertices) for vertices in rec.moats],
            "payments": [[p.arc, p.kind, name(p.moat), frac(rec.epsilon)] for p in rec.payments],
            "purchase": [rec.purchased[0], rec.purchased[1]],
            "kills": list(rec.kills),
        }
        out.write(json.dumps(row, sort_keys=True) + "\n")


class InvariantBreach(RuntimeError):
    """A run violated the alive-terminal bookkeeping; signals an engine bug."""


def alive_report(trace: GrowthTrace) -> dict[int, dict[int, bool]]:
    """Replay kill events; per iteration, every active moat must hold
    exactly one alive terminal and #alive must equal #moats."""
    alive = set(trace.terminals)
    report: dict[int, dict[int, bool]] = {}
    for rec in trace.iterations:
        if len(rec.moats) != len(alive):
            raise InvariantBreach(
                f"iteration {rec.index}: {len(alive)} alive terminals "
                f"but {len(rec.moats)} active moats"
            )
        for vertices in rec.moats:
            holders = vertices & alive
            if len(holders) != 1:
                raise InvariantBreach(
                    f"iteration {rec.index}: moat {sorted(vertices)} holds "
                    f"{len(holders)} alive terminals"
                )
        report[rec.index] = {t: t in alive for t in sorted(trace.terminals)}
        alive.difference_update(rec.kills)
    return report


@dataclass
class IterationDelta:
    """Counts of final-solution arcs paid per moat at one iteration, split
    by the role they were eventually bought under.  The three per-moat arc
    sets are pairwise disjoint by construction."""

    index: int
    moat_count: int
    per_moat: dict[frozenset[int], tuple[int, int, int]]  # vertices -> (ant, killer, exp)
    killer_front: frozenset[int]  # final killer arcs paid here
    expansion_front: frozenset[int]  # final expansion arcs paid here

    @property
    def delta_total(self) -> int:
        return sum(sum(c) for c in self.per_moat.values())

    def broken_bounds(self) -> list[str]:
        """The counting bounds this iteration breaks, by name."""
        ants = [c[0] for c in self.per_moat.values()]
        flags = {
            "antenna_per_moat": any(a > 1 for a in ants),
            "antennas": sum(ants) > self.moat_count,
            "killers": len(self.killer_front) > self.moat_count,
            "expansions": len(self.expansion_front) > 2 * self.moat_count,
        }
        return [name for name, broken in flags.items() if broken]


def counting_lemmas_reference(
    trace: GrowthTrace, sol: Solution
) -> tuple[bool, list[IterationDelta], Fraction | None]:
    """`audit.verify_counting_lemmas` as a per-iteration record: each
    iteration's per-moat counts and fronts, whether every iteration keeps
    all four bounds, and the largest delta-to-moat ratio."""
    assert trace.mode == MODE_BUCKETED
    final_labels = sol.arc_labels
    deltas: list[IterationDelta] = []
    alpha_max: Fraction | None = None
    for rec in trace.iterations:
        per_moat = {vertices: [0, 0, 0] for vertices in rec.moats}
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
        if delta.moat_count:
            alpha = Fraction(delta.delta_total, delta.moat_count)
            if alpha_max is None or alpha > alpha_max:
                alpha_max = alpha
    ok = not any(delta.broken_bounds() for delta in deltas)
    return ok, deltas, alpha_max


def payer_map_reference(
    inst: Instance,
    purchased: ArcGraph,
    moats: list[Moat],
    bucketed: bool,
) -> dict[tuple[int, str], list[Moat]]:
    """Which moats pay which bucket, derived from scratch over every arc;
    `purchased` is the graph of F.  The engine keeps this map across
    iterations and re-derives only the arcs a purchase can change."""
    head_moats: dict[int, list[Moat]] = {}
    for moat in moats:
        for v in moat.vertices:
            head_moats.setdefault(v, []).append(moat)

    payers: dict[tuple[int, str], list[Moat]] = {}
    for arc_id in range(len(inst.arcs)):
        if arc_id in purchased.ids:
            continue
        arc = inst.arcs[arc_id]
        if arc.head not in head_moats:
            continue
        if not bucketed:
            entered = [m for m in head_moats[arc.head] if arc.tail not in m.vertices]
            if entered:
                payers[(arc_id, MODE_STANDARD)] = entered
            continue
        for moat, role in classify_arc(inst, purchased, head_moats[arc.head], arc_id):
            payers.setdefault((arc_id, role), []).append(moat)
    return payers


def grow_from_definitions(inst: Instance, mode: str) -> Iterator[IterationRecord]:
    """The growth phase from the definitions alone, one record per
    iteration as `engine.steps` yields them.  It uses no `engine` or
    `moats` code but the record types, so it checks whole runs
    independently of the moat updates, the payer map and the epsilon
    shortcut.

    The moats of F are its minimal violated sets, by brute force.  A moat
    M survives the purchase of arc a when some minimal violated set of
    F + a holds a terminal of M.  An arc outside F pays each moat it enters
    (its head inside, its tail outside): as an antenna when its tail is
    Steiner and its head a terminal, else as an expansion when the moat
    survives its purchase and as a killer when not; standard mode has one
    bucket per arc.  Epsilon is the least room per payer over the paid
    buckets, and the purchase is the least arc id among the tight ones.
    Its label is the first tight kind in (antenna, expansion, killer)
    order; in standard mode, antenna, else expansion when an entered moat
    survives, else killer.  Kills are the live terminals of the moats that
    do not survive, in moat order."""
    bucketed = mode == MODE_BUCKETED
    minimal: dict[frozenset[int], list[frozenset[int]]] = {}

    def moats_of(purchased: frozenset[int]) -> list[frozenset[int]]:
        if purchased not in minimal:
            minimal[purchased] = enumerate_minimal_violated_brute(inst, purchased)
        return minimal[purchased]

    def survives(moat: frozenset[int], purchased: frozenset[int]) -> bool:
        return any(s & moat & inst.terminals for s in moats_of(purchased))

    def is_antenna(tail: int, head: int) -> bool:
        steiner = tail != inst.root and tail not in inst.terminals
        return steiner and head in inst.terminals

    def name(moat: frozenset[int]) -> str:
        return ",".join(map(str, sorted(moat)))

    purchased: frozenset[int] = frozenset()
    fills: dict[tuple[int, str], Fraction] = {}
    alive = set(inst.terminals)
    index = 0
    while moats := moats_of(purchased):
        paying: dict[tuple[int, str], list[frozenset[int]]] = {}
        for arc_id, (tail, head, _) in enumerate(inst.arcs):
            for moat in moats:
                if arc_id in purchased or head not in moat or tail in moat:
                    continue
                if not bucketed:
                    kind = MODE_STANDARD
                elif is_antenna(tail, head):
                    kind = ANTENNA
                else:
                    kind = EXPANSION if survives(moat, purchased | {arc_id}) else KILLER
                paying.setdefault((arc_id, kind), []).append(moat)
        growth = {
            bucket: (inst.arcs[bucket[0]].cost - fills.get(bucket, 0)) / len(payers)
            for bucket, payers in paying.items()
        }
        epsilon = min(growth.values())
        for bucket, payers in paying.items():
            fills[bucket] = fills.get(bucket, 0) + epsilon * len(payers)
        tight = [bucket for bucket, grows in growth.items() if grows == epsilon]
        buy = min(arc_id for arc_id, _ in tight)
        after = purchased | {buy}
        tail, head, _ = inst.arcs[buy]
        if bucketed:
            tight_kinds = {kind for arc_id, kind in tight if arc_id == buy}
            label = next(k for k in (ANTENNA, EXPANSION, KILLER) if k in tight_kinds)
        elif is_antenna(tail, head):
            label = ANTENNA
        else:
            entered = [m for m in moats if head in m and tail not in m]
            label = EXPANSION if any(survives(m, after) for m in entered) else KILLER
        kills = [t for m in moats if not survives(m, after) for t in sorted(m & alive)]
        alive.difference_update(kills)
        yield IterationRecord(
            index=index,
            epsilon=epsilon,
            moats=tuple(moats),
            payments=tuple(
                Payment(arc_id, kind, moat)
                for arc_id, kind in sorted(paying)
                for moat in sorted(paying[(arc_id, kind)], key=name)
            ),
            purchased=(buy, label),
            kills=tuple(kills),
        )
        purchased = after
        index += 1


def dijkstra_all_reference(
    inst: Instance, costs: list[int], big: int
) -> tuple[list[list[int]], list[list[int]]]:
    """The all-sources shortest paths `oracle._dijkstra_all` must match:
    each step scans all n nodes for the unsettled one of least distance,
    the first (smallest id) among equals."""
    n = inst.node_count
    out_arcs: list[list[int]] = [[] for _ in range(n + 1)]
    for i, arc in enumerate(inst.arcs):
        out_arcs[arc.tail].append(i)
    dist_all, parent_all = [], []
    for source in range(1, n + 1):
        dist = [big] * (n + 1)
        parent = [-1] * (n + 1)
        done = [False] * (n + 1)
        dist[source] = 0
        for _ in range(n):
            v, dv = 0, big
            for u in range(1, n + 1):
                if not done[u] and dist[u] < dv:
                    v, dv = u, dist[u]
            if v == 0:
                break
            done[v] = True
            for i in out_arcs[v]:
                arc = inst.arcs[i]
                nd = dv + costs[i]
                if nd < dist[arc.head]:
                    dist[arc.head] = nd
                    parent[arc.head] = i
        dist_all.append(dist[1:])
        parent_all.append(parent[1:])
    return dist_all, parent_all


def random_qb_instance(
    rng: random.Random,
    max_nodes: int = 10,
    arc_prob: float = 0.3,
    cost_hi: int = 5,
    min_nodes: int = 2,
) -> Instance:
    """Random quasi-bipartite digraph; not necessarily feasible."""
    n = rng.randint(min_nodes, max_nodes)
    terminals = frozenset(v for v in range(2, n + 1) if rng.random() < 0.5)
    if not terminals:
        terminals = frozenset([rng.randint(2, n)])
    steiner = set(range(2, n + 1)) - terminals
    arcs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or (u in steiner and v in steiner):
                continue
            if rng.random() < arc_prob:
                arcs.append(Arc(u, v, Fraction(rng.randint(0, cost_hi))))
    return Instance(node_count=n, root=1, terminals=terminals, arcs=tuple(arcs))


def random_valid_instance(
    rng: random.Random,
    max_nodes: int = 5,
    max_arcs: int = 14,
    rational_costs: bool = True,
) -> Instance:
    """Rejection-sample until every terminal is reachable from the root."""
    while True:
        n = rng.randint(2, max_nodes)
        terminals = frozenset(v for v in range(2, n + 1) if rng.random() < 0.6)
        if not terminals:
            continue
        steiner = set(range(2, n + 1)) - terminals
        arcs = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u == v or (u in steiner and v in steiner):
                    continue
                if rng.random() < 0.45:
                    if rational_costs:
                        cost = Fraction(rng.randint(0, 8), rng.randint(1, 3))
                    else:
                        cost = Fraction(rng.randint(0, 8))
                    arcs.append(Arc(u, v, cost))
        if len(arcs) > max_arcs:
            continue
        inst = Instance(node_count=n, root=1, terminals=terminals, arcs=tuple(arcs))
        if not validate(inst):
            return inst


def random_connected_graph(rng: random.Random, n: int, max_edges: int) -> UndirectedGraph:
    """Random spanning tree plus extra edges, capped at max_edges."""
    while True:
        nodes = list(range(1, n + 1))
        rng.shuffle(nodes)
        edges = set()
        for i in range(1, n):
            other = nodes[rng.randrange(i)]
            edges.add((min(nodes[i], other), max(nodes[i], other)))
        for u, v in combinations(range(1, n + 1), 2):
            if rng.random() < 0.25:
                edges.add((u, v))
        if len(edges) <= max_edges:
            return UndirectedGraph(node_count=n, edges=tuple(sorted(edges)))


def connected_graphs_up_to_iso(n: int) -> list[UndirectedGraph]:
    """Exhaustive connected simple graphs on n labeled nodes, one per
    isomorphism class."""
    all_edges = list(combinations(range(1, n + 1), 2))
    perms = list(permutations(range(1, n + 1)))
    seen = set()
    out = []
    for mask in range(1 << len(all_edges)):
        edges = tuple(e for i, e in enumerate(all_edges) if mask >> i & 1)
        graph = UndirectedGraph(node_count=n, edges=edges)
        if not graph.is_connected():
            continue
        canonical = min(
            tuple(sorted(
                (min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in edges
            ))
            for p in perms
        )
        if canonical in seen:
            continue
        seen.add(canonical)
        out.append(graph)
    return out


def acceptance_corpus() -> list[tuple[str, Instance]]:
    """The acceptance suite's named corpus: adversarial chains, random
    grids and connected-vertex-cover reductions."""
    instances = []
    for k in list(range(2, 21)) + [25, 30, 40, 50]:
        instances.append((f"bad_k{k}", gen_bad_example(k, Fraction(1, 100))))
    grid_shapes = [(5, 5), (6, 5), (4, 6), (5, 4), (4, 5)]
    steiner_probs = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    keep_probs = [Fraction(7, 10), Fraction(4, 5), Fraction(9, 10)]
    for seed in range(200):
        width, height = grid_shapes[seed % len(grid_shapes)]
        inst = gen_grid(
            width,
            height,
            steiner_probs[seed % len(steiner_probs)],
            keep_probs[(seed // 3) % len(keep_probs)],
            (1, 12),
            seed,
        )
        instances.append((f"grid_{seed}", inst))
    rng = random.Random(99)
    for i in range(6):
        graph = random_connected_graph(rng, rng.randint(3, 5), max_edges=8)
        if len(graph.edges) < 2:
            continue
        instances.append((f"reduce_{i}", reduce_cvc(graph, planar_promise=True)))
    return instances
