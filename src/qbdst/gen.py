"""Instance generators: the adversarial chain family that starves the
single-bucket baseline, random planar-bipartite grid instances, and the
connected-vertex-cover reduction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .instance import (
    FAMILY_PLANAR_BIPARTITE,
    FAMILY_UNKNOWN,
    Arc,
    ArcGraph,
    InputError,
    Instance,
    ParseError,
    _records,
)


class _Graph(NamedTuple):
    node_count: int
    edges: tuple[tuple[int, int], ...]


class UndirectedGraph(_Graph):
    """Simple undirected graph; edges are stored as sorted pairs.  Its
    constructor checks the edges, by keyword or by position; `_make` and
    `_replace` skip the checks, and no caller uses them."""

    __slots__ = ()

    def __new__(cls, node_count: int, edges: tuple[tuple[int, int], ...]) -> UndirectedGraph:
        seen = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at {u}")
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise InputError(f"edge ({u},{v}) out of range")
            if u > v:
                raise InputError(f"edge ({u},{v}) not normalized (u<v required)")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        return super().__new__(cls, node_count, edges)

    def is_connected(self) -> bool:
        if self.node_count == 0:
            return False
        adjacency: dict[int, list[int]] = {}  # only the nodes the edges touch
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        seen = {1}
        work = [1]
        while work:
            x = work.pop()
            for y in adjacency.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    work.append(y)
        return len(seen) == self.node_count


def parse_undirected(src: Iterable[str]) -> UndirectedGraph:
    """Read `NODES <n>` / `EDGE <u> <v>` / `END` under the layout rules of
    the instance format (`instance._records`).  A self-loop, an endpoint
    out of range and a repeated edge, in either orientation, are errors
    naming the first such line, wherever NODES stands."""
    node_count = None
    edges: list[tuple[int, int, int]] = []  # (line, u, v) in file order
    for lineno, keyword, args in _records(src, ("NODES", "EDGE")):
        if keyword == "NODES":
            if node_count is not None or len(args) != 1:
                raise ParseError(f"line {lineno}: bad NODES record")
            try:
                node_count = int(args[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad NODES record") from None
        elif keyword == "EDGE":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: EDGE expects <u> <v>")
            try:
                u, v = int(args[0]), int(args[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad edge endpoint") from None
            edges.append((lineno, u, v))
    if node_count is None:
        raise ParseError("missing NODES section")
    lines: dict[tuple[int, int], int] = {}  # each edge, as u < v -> its line
    for lineno, u, v in edges:
        edge = (min(u, v), max(u, v))
        if u == v:
            problem = f"self-loop at {u}"
        elif edge[0] < 1 or edge[1] > node_count:
            problem = f"edge ({u},{v}) out of range"
        elif edge in lines:
            problem = f"edge ({u},{v}) repeats line {lines[edge]}"
        else:
            lines[edge] = lineno
            continue
        raise ParseError(f"line {lineno}: {problem}")
    return UndirectedGraph(node_count=node_count, edges=tuple(sorted(lines)))


def gen_bad_example(k: int, eps: Fraction) -> Instance:
    """The two-moat chain family on 2k+4 nodes where uniform single-bucket
    growth raises only O(1) dual value against a solution of cost about k.

    Nodes: root r, terminals a and b, Steiner hub v, terminals w_1..w_k,
    Steiner z_1..z_k.  The cheap fan a->w_i lets each w-moat die for eps,
    while connecting anything to the root costs the full chain.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    root, a, b, v = 1, 2, 3, 4
    w = {i: 4 + i for i in range(1, k + 1)}
    z = {i: 4 + k + i for i in range(1, k + 1)}
    one = Fraction(1)
    arcs = [Arc(a, w[i], eps) for i in range(1, k + 1)]
    arcs.append(Arc(w[1], v, one))
    arcs.append(Arc(v, a, eps))
    arcs.extend(Arc(w[i], z[i - 1], one) for i in range(2, k + 1))
    arcs.extend(Arc(z[i], w[i], eps) for i in range(1, k + 1))
    arcs.extend(Arc(z[i], b, eps) for i in range(1, k + 1))
    arcs.append(Arc(root, z[k], one))
    terminals = frozenset([a, b, *w.values()])
    return Instance(
        node_count=2 * k + 4,
        root=root,
        terminals=terminals,
        arcs=tuple(arcs),
        family=FAMILY_PLANAR_BIPARTITE,
    )


def _bernoulli(rng: random.Random, p: Fraction) -> bool:
    # Exact rational coin: avoids float comparisons so runs stay seed-stable.
    return rng.randrange(p.denominator) < p.numerator


def gen_grid(
    width: int,
    height: int,
    steiner_prob: Fraction,
    keep_prob: Fraction,
    cost_range: tuple[int, int],
    seed: int,
) -> Instance:
    """Random quasi-bipartite planar instance from a width x height grid.

    Checkerboard class A (even x+y) holds the root and terminals only;
    class B nodes turn Steiner with probability steiner_prob.  Every grid
    edge survives with probability keep_prob and becomes one or both
    directions with integer costs drawn from cost_range.  Terminals that
    end up unreachable from the root are removed (with renumbering), which
    keeps generation total; unreachable Steiner nodes stay, inert.
    """
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise InputError(f"{name} must be at least 1, got {size}")
    if width * height < 2:
        raise InputError("grid needs at least 2 nodes")
    steiner_prob, keep_prob = Fraction(steiner_prob), Fraction(keep_prob)
    for name, p in (("steiner_prob", steiner_prob), ("keep_prob", keep_prob)):
        if not 0 <= p <= 1:
            raise InputError(f"{name} must lie in [0, 1], got {p}")
    lo, hi = cost_range
    if not 0 <= lo <= hi:
        raise InputError(f"cost_range must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
    rng = random.Random(seed)
    node_id = lambda x, y: y * width + x + 1

    terminals: set[int] = set()
    root = node_id(0, 0)
    for y in range(height):
        for x in range(width):
            vid = node_id(x, y)
            if (x + y) % 2 == 0:
                if vid != root:
                    terminals.add(vid)
            elif not _bernoulli(rng, steiner_prob):
                terminals.add(vid)

    arcs: list[Arc] = []
    for y in range(height):
        for x in range(width):
            u = node_id(x, y)
            for du, dv in ((1, 0), (0, 1)):
                nx, ny = x + du, y + dv
                if nx >= width or ny >= height:
                    continue
                vtx = node_id(nx, ny)
                if not _bernoulli(rng, keep_prob):
                    continue
                orient = rng.choice(("fwd", "bwd", "both"))
                if orient in ("fwd", "both"):
                    arcs.append(Arc(u, vtx, Fraction(rng.randint(lo, hi))))
                if orient in ("bwd", "both"):
                    arcs.append(Arc(vtx, u, Fraction(rng.randint(lo, hi))))

    probe = Instance(
        node_count=width * height,
        root=root,
        terminals=frozenset(terminals),
        arcs=tuple(arcs),
        family=FAMILY_PLANAR_BIPARTITE,
    )
    reached = ArcGraph(probe, range(len(arcs))).reach([root])
    doomed = {t for t in terminals if t not in reached}
    if not doomed:
        return probe

    survivors = [v for v in range(1, width * height + 1) if v not in doomed]
    renumber = {old: new for new, old in enumerate(survivors, start=1)}
    return Instance(
        node_count=len(survivors),
        root=renumber[root],
        terminals=frozenset(renumber[t] for t in terminals - doomed),
        arcs=tuple(
            Arc(renumber[a.tail], renumber[a.head], a.cost)
            for a in arcs
            if a.tail not in doomed and a.head not in doomed
        ),
        family=FAMILY_PLANAR_BIPARTITE,
    )


def reduce_cvc(g: UndirectedGraph, planar_promise: bool = False) -> Instance:
    """Subdivide every edge by a terminal and bidirect with unit costs.

    The original vertices become Steiner nodes, so minimum solutions pick
    a connected vertex cover: the instance has a solution of arc count
    |E| + k - 1 exactly when g has a connected vertex cover of size k.
    The root is the subdivision node of the lexicographically smallest
    edge.
    """
    if not g.edges:
        raise InputError("reduction needs at least one edge")
    if not g.is_connected():
        raise InputError("input graph must be connected")
    n = g.node_count
    edges = sorted(g.edges)
    one = Fraction(1)
    arcs: list[Arc] = []
    subdivision: list[int] = []
    for rank, (u, v) in enumerate(edges):
        x = n + 1 + rank
        subdivision.append(x)
        arcs.extend((Arc(u, x, one), Arc(x, u, one), Arc(v, x, one), Arc(x, v, one)))
    root = subdivision[0]
    return Instance(
        node_count=n + len(edges),
        root=root,
        terminals=frozenset(subdivision[1:]),
        arcs=tuple(arcs),
        family=FAMILY_PLANAR_BIPARTITE if planar_promise else FAMILY_UNKNOWN,
    )
