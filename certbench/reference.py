"""A fixed reference computation: the benchmark's unit of machine speed.

On a host shared with other tenants, the speed of this process drifts by
up to 2x between runs a few minutes apart, and wall time and CPU time
drift together.  The timed section therefore runs this computation before
every instance.  Its median time in a run is the run's unit ``ref``, and
the end-to-end latencies are reported in that unit, which cancels much
of a slowdown that lasts a whole run.

The computation mirrors the program's hot path, moat computation:
strongly connected components of arc subsets of a fixed 36-node digraph,
frozensets and sorted keys, and Fraction sums.  It is deterministic and
does not call the program, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NODES = 36
ARCS = 75
SUBSETS = 150


def _strong_components(nodes, arcs):
    """Kosaraju's algorithm; the components as frozensets."""
    out = [[] for _ in range(nodes)]
    into = [[] for _ in range(nodes)]
    for tail, head in arcs:
        out[tail].append(head)
        into[head].append(tail)
    order, seen = [], [False] * nodes
    for start in range(nodes):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(out[v]):
                stack[-1] = (v, i + 1)
                w = out[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()
    comps, placed = [], [False] * nodes
    for start in reversed(order):
        if placed[start]:
            continue
        placed[start] = True
        comp, work = [], [start]
        while work:
            v = work.pop()
            comp.append(v)
            for w in into[v]:
                if not placed[w]:
                    placed[w] = True
                    work.append(w)
        comps.append(frozenset(comp))
    return comps


def reference_work() -> Fraction:
    rng = random.Random(12345)
    arcs = [(rng.randrange(NODES), rng.randrange(NODES)) for _ in range(ARCS)]
    costs = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(ARCS)]
    total = Fraction(0)
    for size in range(SUBSETS):
        chosen = rng.sample(range(ARCS), 20 + size % 50)
        comps = _strong_components(NODES, [arcs[i] for i in chosen])
        keys = sorted(tuple(sorted(c)) for c in comps if len(c) > 1)
        paid = sum((costs[i] for i in chosen if arcs[i][1] in comps[0]), Fraction(0))
        total += paid / (len(keys) + 1)
    return total


def timed_reference() -> float:
    """Wall seconds of one reference computation."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started
