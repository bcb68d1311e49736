"""Exact optimal DST solvers for desk-size instances.

`exact_opt_dp` runs the classical terminal-subset dynamic program over
directed shortest-path distances; `exact_opt_brute` enumerates arc
subsets.  Both are exact, so their agreement on random instances is the
cross-check property the tests lean on.  Costs stay exact: every rational
is scaled by the common denominator and the DP runs on integers.  No
entry or sum exceeds 2 * big (big is the scaled cost total plus one), so
the table uses the narrowest signed integer type that holds 4 * big, or
Python ints in an object array once 4 * big reaches 2^62.  Unit-cost
instances thus fill an int16 table.

The DP fills its (2^k, n) table one popcount layer at a time, with no
Python loop per (mask, submask) pair and one split kernel for every
layer.  A layer's masks go in groups.  For a group, `splits` builds every
mask's splits code-major by doubling one bit at a time, so row c holds
each mask's c-th split and the rows ascend.  `split_minima` gathers blocks
of those rows from the table with `take`, adds the complements' rows in
place and folds each block's minimum into the masks' split minima.  The
closure over the distance matrix then folds in one node at a time.  The
split minima are not kept; the reconstruction recomputes them with the
same two helpers for the at most 2k-1 masks it visits.  A group holds at
most _TEMP_ELEMENTS // max(splits per mask, n) masks and a block at most
_TEMP_ELEMENTS // (masks * n) splits, each at least 1.  So a group's
splits, its split minima and each gathered block hold at most
_TEMP_ELEMENTS entries, or one mask's splits or one table row when those
are more, and memory beyond the table does not grow with the 3^k splits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .instance import InputError, Instance, OracleGuardError

DP_TERMINAL_LIMIT = 14
BRUTE_ARC_LIMIT = 20
# Entry bound of every temporary array in the subset DP's table fill.
_TEMP_ELEMENTS = 1 << 16


class InfeasibleInstanceError(InputError):
    """Some terminal cannot be reached from the root at all."""


class OptResult(NamedTuple):
    opt_cost: Fraction
    opt_arcs: frozenset[int]
    method: str


def _scaled_costs(inst: Instance) -> tuple[list[int], int]:
    scale = math.lcm(1, *(arc.cost.denominator for arc in inst.arcs)) if inst.arcs else 1
    return [int(arc.cost * scale) for arc in inst.arcs], scale


def _touched(inst: Instance) -> Instance:
    """`inst` over the root, the terminals and the nodes some arc touches,
    renumbered 1.. in ascending order; arcs keep their ids.  A node no arc
    touches lies on no path and never attains a table minimum, and the
    kept nodes keep their order, so Dijkstra's and `argmin`'s ties still
    go to the smallest node id and the DP returns what it would on `inst`."""
    ends = {inst.root, *inst.terminals}
    for arc in inst.arcs:
        ends.update((arc.tail, arc.head))
    number = {v: i for i, v in enumerate(sorted(ends), 1)}
    return inst._replace(
        node_count=len(number),
        root=number[inst.root],
        terminals=frozenset(number[t] for t in inst.terminals),
        arcs=tuple(arc._replace(tail=number[arc.tail], head=number[arc.head]) for arc in inst.arcs),
    )


def _dijkstra_all(
    inst: Instance, costs: list[int], big: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Scaled-integer shortest paths from every source; parent_arc[s][v] is
    the last arc on the chosen s->v path (-1 at the source/unreached).

    Each step settles the unsettled node of least distance, the smallest
    node id among equals: a heap of (distance, node id) pairs pops it, and
    an entry whose node is already settled is stale and skipped.  A
    node's entry at its current distance precedes every stale one, so the
    nodes settle in the order a scan over all of them would choose, and
    the ties and parents are the same."""
    n = inst.node_count
    out_arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for i, arc in enumerate(inst.arcs):
        out_arcs[arc.tail].append((i, arc.head, costs[i]))
    dist_all, parent_all = [], []
    for source in range(1, n + 1):
        dist = [big] * (n + 1)
        parent = [-1] * (n + 1)
        done = [False] * (n + 1)
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            dv, v = heappop(heap)
            if done[v]:
                continue
            done[v] = True
            for i, head, cost in out_arcs[v]:
                nd = dv + cost
                if nd < dist[head]:
                    dist[head] = nd
                    parent[head] = i
                    heappush(heap, (nd, head))
        dist_all.append(dist[1:])
        parent_all.append(parent[1:])
    return dist_all, parent_all


def _path_arcs(parent_all: list[list[int]], inst: Instance, source: int, target: int) -> set[int]:
    arcs = set()
    v = target
    while v != source:
        arc_id = parent_all[source - 1][v - 1]
        if arc_id < 0:
            raise InfeasibleInstanceError(f"no path {source}->{target}")
        arcs.add(arc_id)
        v = inst.arcs[arc_id].tail
    return arcs


def exact_opt_dp(inst: Instance) -> OptResult:
    """Terminal-subset DP: D[S][v] is the cheapest way to reach every
    terminal of S from v, built by splitting S at v and walking shortest
    paths.  It runs over the root, the terminals and the nodes some arc
    touches (n of them, `_touched`).  D is one (2^k, n) table in the
    narrowest signed integer type that holds 4 * big, filled one popcount
    layer at a time by one kernel: each group of masks gets its splits in
    increasing order, and blocks of them are gathered with `take` and
    folded into the split minima, every temporary within _TEMP_ELEMENTS
    entries (the module docstring gives the bound).  The closure over the
    distance matrix then folds in one node at a time.  The split minima
    are not stored: the reconstruction recomputes them with the same
    helpers for the masks it visits.  Guarded to 14 terminals; raises on
    unreachable terminals."""
    import numpy as np  # imported here so that the solver and CLI start without it

    k = len(inst.terminals)
    if k > DP_TERMINAL_LIMIT:
        raise OracleGuardError(f"subset DP limited to {DP_TERMINAL_LIMIT} terminals, got {k}")
    if k == 0:
        return OptResult(Fraction(0), frozenset(), "subset_dp")

    # The table, the distance matrix and the Dijkstra runs scale with the
    # nodes, so nodes that no arc touches are left out.
    inst = _touched(inst)
    terminals = sorted(inst.terminals)
    costs, scale = _scaled_costs(inst)
    big = sum(costs) + 1
    n = inst.node_count
    # Every entry is at most big and every sum at most 2 * big, so the
    # narrowest signed type that holds 4 * big is exact; beyond 2^62 the
    # table holds Python ints (object dtype).
    dtype = np.min_scalar_type(-4 * big) if 4 * big < 2**62 else object
    dist_all, parent_all = _dijkstra_all(inst, costs, big)
    dist_matrix = np.array(dist_all, dtype=dtype)  # [source-1][target-1]

    full = (1 << k) - 1
    D = np.empty((full + 1, n), dtype=dtype)

    def splits(masks, popcount: int):
        """subs[c][i] is the c-th proper submask of masks[i] that holds its
        lowest bit, in increasing order: code-major, built by doubling.
        Rows [size, 2 * size) are rows [0, size) plus the masks' next bit,
        and the all-ones code (sub = mask) is no split and never built."""
        count = (1 << (popcount - 1)) - 1
        subs = np.empty((count, len(masks)), dtype=masks.dtype)
        subs[0] = masks & -masks
        rest = masks ^ subs[0]
        size = 1
        while size < count:
            bit = rest & -rest
            rest ^= bit
            step = min(size, count - size)
            np.add(subs[:step], bit, out=subs[size : size + step])
            size += step
        return subs

    def split_minima(masks, subs):
        """best[i][u] = min over the submasks subs[:, i] of masks[i] of
        D[sub][u] + D[masks[i] ^ sub][u], capped at `big`.  Each block of
        splits gathers both halves' rows into (block, masks, n) arrays of at
        most _TEMP_ELEMENTS entries, or one split's rows when those are
        more, and folds their sum's minimum over the block into `best`."""
        best = np.full((len(masks), n), big, dtype=dtype)
        block = max(1, _TEMP_ELEMENTS // best.size)
        for start in range(0, len(subs), block):
            part = subs[start : start + block]
            # mode="clip" spares the bounds check; every index is a submask
            # of a mask in the table, so none is clipped.
            sums = D.take(part, axis=0, mode="clip")
            sums += D.take(part ^ masks, axis=0, mode="clip")
            np.minimum(best, sums.min(axis=0), out=best)
        return best

    # to_node[u][v] is the distance from node v + 1 to node u + 1.
    to_node = np.ascontiguousarray(dist_matrix.T)

    def close(best):
        """out[i][v] = min over u of dist(v, u) + best[i][u], folded one
        node u at a time into an (masks, n) accumulator."""
        out = best[:, :1] + to_node[0]
        term = np.empty_like(out)
        for u in range(1, n):
            np.add(best[:, u : u + 1], to_node[u], out=term)
            np.minimum(out, term, out=out)
        return out

    for i, t in enumerate(terminals):
        D[1 << i] = dist_matrix[:, t - 1]
    popcounts = np.zeros(1, dtype=np.int8)
    for _ in range(k):
        popcounts = np.concatenate((popcounts, popcounts + 1))
    for popcount in range(2, k + 1):
        # A group's splits and split minima hold at most _TEMP_ELEMENTS
        # entries, or one mask's splits or one table row when those are more.
        layer = np.flatnonzero(popcounts == popcount).astype(np.int32)
        group = max(1, _TEMP_ELEMENTS // max((1 << (popcount - 1)) - 1, n))
        for start in range(0, len(layer), group):
            masks = layer[start : start + group]
            D[masks] = close(split_minima(masks, splits(masks, popcount)))

    opt_scaled = int(D[full][inst.root - 1])
    if opt_scaled >= big:
        raise InfeasibleInstanceError("some terminal is unreachable from the root")

    arcs: set[int] = set()
    stack = [(full, inst.root)]
    while stack:
        mask, v = stack.pop()
        value = int(D[mask][v - 1])
        if mask.bit_count() == 1:
            t = terminals[mask.bit_length() - 1]
            arcs |= _path_arcs(parent_all, inst, v, t)
            continue
        masks = np.array([mask], dtype=np.int32)
        subs = splits(masks, mask.bit_count())
        best = split_minima(masks, subs)[0]
        row = dist_matrix[v - 1] + best
        u = int(np.argmin(row)) + 1  # smallest node id among minima
        if int(row[u - 1]) != value:
            raise AssertionError("table entry differs from its recomputed minimum")
        arcs |= _path_arcs(parent_all, inst, v, u)
        subs = subs[:, 0]
        hits = np.flatnonzero(D[subs, u - 1] + D[mask ^ subs, u - 1] == best[u - 1])
        if not len(hits):
            raise AssertionError("split reconstruction failed")
        sub = int(subs[hits[-1]])  # the largest split that attains the minimum
        stack.append((sub, u))
        stack.append((mask ^ sub, u))

    return OptResult(Fraction(opt_scaled, scale), frozenset(arcs), "subset_dp")


def exact_opt_brute(inst: Instance) -> OptResult:
    """Independent oracle: exhaustive minimum-cost feasible arc subset,
    pruned by per-terminal in-arc masks and the best cost so far."""
    m = len(inst.arcs)
    if m > BRUTE_ARC_LIMIT:
        raise OracleGuardError(f"brute enumeration limited to {BRUTE_ARC_LIMIT} arcs, got {m}")
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

    # Scaled integers order the masks as their Fraction costs would, so
    # ties still go to the first feasible mask in ascending order.
    costs, scale = _scaled_costs(inst)
    best_cost: int | None = None
    best_mask = 0
    for mask in range(1 << m):
        if any(not mask & req for req in needed):
            continue
        cost = 0
        sub = mask
        while sub:
            low = sub & -sub
            cost += costs[low.bit_length() - 1]
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
    return OptResult(Fraction(best_cost, scale), arcs, "brute_subsets")
