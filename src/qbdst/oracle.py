"""Exact optimal DST solvers for desk-size instances.

`exact_opt_dp` runs the classical terminal-subset dynamic program over
directed shortest-path distances; `exact_opt_brute` enumerates arc
subsets.  Both are exact, so their agreement on random instances is the
cross-check property the tests lean on.  Costs stay exact: every rational
is scaled by the common denominator and the DP runs on integers (int64,
or Python ints in an object array when sums could come near 2^63).

The DP fills its (2^k, n) table one popcount layer at a time: each numpy
operation handles a batch of masks with all of their splits, so no Python
loop runs per (mask, submask) pair.  The per-mask split minima are not
kept; the reconstruction recomputes them for the at most 2k-1 masks it
visits.  No temporary array is larger than _TEMP_ELEMENTS entries or the
n x n distance matrix, so memory beyond the table does not grow with the
3^k splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import InputError, Instance

DP_TERMINAL_LIMIT = 14
BRUTE_ARC_LIMIT = 20
# Entry bound of every temporary array in the subset DP's table fill.
_TEMP_ELEMENTS = 1 << 14


class OracleGuardError(InputError):
    """Instance exceeds the size guard of the requested oracle."""


class InfeasibleInstanceError(InputError):
    """Some terminal cannot be reached from the root at all."""


@dataclass(frozen=True)
class OptResult:
    opt_cost: Fraction
    opt_arcs: frozenset[int]
    method: str


def _scaled_costs(inst: Instance) -> tuple[list[int], int]:
    scale = math.lcm(1, *(arc.cost.denominator for arc in inst.arcs)) if inst.arcs else 1
    return [int(arc.cost * scale) for arc in inst.arcs], scale


def _dijkstra_all(
    inst: Instance, costs: list[int], big: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Scaled-integer shortest paths from every source; parent_arc[s][v] is
    the last arc on the chosen s->v path (-1 at the source/unreached)."""
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
    paths.  D is one (2^k, n) table filled one popcount layer at a time,
    a batch of masks per array operation, with bounded temporaries; the
    split minima are not stored, and the reconstruction recomputes them
    for the masks it visits.  Guarded to 14 terminals; raises on
    unreachable terminals."""
    import numpy as np  # imported here so that the solver and CLI start without it

    terminals = sorted(inst.terminals)
    k = len(terminals)
    if k > DP_TERMINAL_LIMIT:
        raise OracleGuardError(f"subset DP limited to {DP_TERMINAL_LIMIT} terminals, got {k}")
    if k == 0:
        return OptResult(Fraction(0), frozenset(), "subset_dp")

    costs, scale = _scaled_costs(inst)
    big = sum(costs) + 1
    n = inst.node_count
    # int64 is fine while sums stay far from 2^63; fall back to exact
    # Python ints (object dtype) for extreme cost magnitudes.
    dtype = np.int64 if 4 * big < 2**62 else object
    dist_all, parent_all = _dijkstra_all(inst, costs, big)
    dist_matrix = np.array(dist_all, dtype=dtype)  # [source-1][target-1]

    full = (1 << k) - 1
    D = np.empty((full + 1, n), dtype=dtype)

    def split_minima(masks, popcount: int):
        """best[i][u] = min over the proper submasks `sub` of masks[i] that
        hold its lowest bit of D[sub][u] + D[masks[i] ^ sub][u], capped at
        `big`.  Every mask has `popcount` bits.  The splits are gathered in
        chunks of at most _TEMP_ELEMENTS table entries."""
        rest = masks & (masks - 1)
        subs = (masks ^ rest)[:, np.newaxis]  # the lowest bit
        for _ in range(popcount - 1):
            bit = rest & -rest
            rest = rest ^ bit
            subs = np.concatenate((subs, subs | bit[:, np.newaxis]), axis=1)
        subs = subs[:, :-1]  # every submask holding the lowest bit but the mask
        best = np.full((len(masks), n), big, dtype=dtype)
        step = max(1, _TEMP_ELEMENTS // (len(masks) * n))
        for start in range(0, subs.shape[1], step):
            part = subs[:, start : start + step]
            sums = D[part] + D[masks[:, np.newaxis] ^ part]
            np.minimum(best, sums.min(axis=1), out=best)
        return best

    for i, t in enumerate(terminals):
        D[1 << i] = dist_matrix[:, t - 1]

    all_masks = np.arange(full + 1, dtype=np.int64)
    popcounts = np.zeros_like(all_masks)
    for i in range(k):
        popcounts += (all_masks >> i) & 1
    for popcount in range(2, k + 1):
        layer = all_masks[popcounts == popcount]
        splits = (1 << (popcount - 1)) - 1
        # A batch's split sums and its (batch, n, n) closure both fit in
        # _TEMP_ELEMENTS; a mask with more splits than that goes alone and
        # split_minima takes its splits in chunks.
        rows = max(1, _TEMP_ELEMENTS // (n * max(splits, n)))
        for start in range(0, len(layer), rows):
            batch = layer[start : start + rows]
            best = split_minima(batch, popcount)
            D[batch] = (dist_matrix + best[:, np.newaxis, :]).min(axis=2)

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
        best = split_minima(np.array([mask], dtype=np.int64), mask.bit_count())[0]
        row = dist_matrix[v - 1] + best
        u = int(np.argmin(row)) + 1  # smallest node id among minima
        assert int(row[u - 1]) == value
        arcs |= _path_arcs(parent_all, inst, v, u)
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low and sub != mask:
                if int(D[sub][u - 1]) + int(D[mask ^ sub][u - 1]) == int(best[u - 1]):
                    stack.append((sub, u))
                    stack.append((mask ^ sub, u))
                    break
            sub = (sub - 1) & mask
        else:
            raise AssertionError("split reconstruction failed")

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
