import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qbdst import oracle
from qbdst.engine import solve
from qbdst.gen import gen_bad_example, reduce_cvc
from qbdst.instance import Arc, Instance, is_feasible, parse_instance, validate
from qbdst.oracle import (
    InfeasibleInstanceError,
    OptResult,
    OracleGuardError,
    _dijkstra_all,
    _path_arcs,
    _scaled_costs,
    exact_opt_brute,
    exact_opt_dp,
)

from conftest import (
    FOUR_NODE,
    SINGLE_ARC,
    dijkstra_all_reference,
    exact_opt_brute_reference,
    random_connected_graph,
    random_qb_instance,
    random_valid_instance,
)

EPS = Fraction(1, 100)


def test_dp_single_arc():
    result = exact_opt_dp(parse_instance(SINGLE_ARC))
    assert result.opt_cost == 5
    assert result.opt_arcs == frozenset([0])
    assert result.method == "subset_dp"


def test_brute_single_arc():
    result = exact_opt_brute(parse_instance(SINGLE_ARC))
    assert result.opt_cost == 5
    assert result.method == "brute_subsets"


def test_four_node_opt():
    inst = parse_instance(FOUR_NODE)
    assert exact_opt_dp(inst).opt_cost == 4
    assert exact_opt_brute(inst).opt_cost == 4


@pytest.mark.parametrize("k", [3, 8, 12])
def test_bad_example_opt_formula(k):
    # k = 12 has 14 terminals, the guard limit.
    inst = gen_bad_example(k, EPS)
    assert exact_opt_dp(inst).opt_cost == k + 1 + (k + 2) * EPS


def test_opt_arcs_realize_opt_cost():
    rng = random.Random(51)
    for _ in range(40):
        inst = random_valid_instance(rng)
        result = exact_opt_dp(inst)
        assert is_feasible(inst, result.opt_arcs)
        assert inst.cost_of(result.opt_arcs) == result.opt_cost


def test_dp_equals_brute_seeded():
    rng = random.Random(52)
    for _ in range(150):
        inst = random_valid_instance(rng)
        assert exact_opt_dp(inst).opt_cost == exact_opt_brute(inst).opt_cost


def test_brute_equals_fraction_sum_reference():
    # Scaled integer sums must pick the mask the Fraction sums picked, ties
    # included: zero costs and small rationals make equal-cost masks common.
    rng = random.Random(58)
    scaled = 0
    for _ in range(120):
        inst = random_valid_instance(rng, max_nodes=6, max_arcs=14)
        result = exact_opt_brute(inst)
        assert result == exact_opt_brute_reference(inst)
        assert inst.cost_of(result.opt_arcs) == result.opt_cost
        scaled += _scaled_costs(inst)[1] > 1
    assert scaled > 60


def test_bounds_bracket_opt():
    rng = random.Random(53)
    for _ in range(60):
        inst = random_valid_instance(rng)
        opt = exact_opt_dp(inst).opt_cost
        sol, _ = solve(inst)
        assert sol.lower_bound <= opt <= sol.total_cost


def test_opt_invariant_under_arc_permutation():
    rng = random.Random(54)
    for _ in range(20):
        inst = random_valid_instance(rng)
        order = list(range(len(inst.arcs)))
        rng.shuffle(order)
        shuffled = Instance(
            node_count=inst.node_count,
            root=inst.root,
            terminals=inst.terminals,
            arcs=tuple(inst.arcs[i] for i in order),
        )
        assert exact_opt_dp(inst).opt_cost == exact_opt_dp(shuffled).opt_cost


# sha256 of (opt_cost, sorted opt_arcs) for every instance below.  The
# reconstruction's choice among equal-cost optima is pinned along with the
# cost, so a change to the DP keeps this digest only if it returns the same
# arcs.
DP_DIGEST = "5db339c3d953b5ba9216c1f18989fcdf0ffe4dd4b743a5448873ae063ba83363"


def _dp_digest_corpus() -> list[Instance]:
    rng = random.Random(20261018)
    instances = [random_valid_instance(rng, max_nodes=7, max_arcs=24) for _ in range(200)]
    instances += [gen_bad_example(k, Fraction(1, 7)) for k in range(2, 13)]
    graph_rng = random.Random(20261019)
    instances += [reduce_cvc(random_connected_graph(graph_rng, n, 12)) for n in (5, 6, 7, 8)]
    return instances


def _dp_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"{result.opt_cost} {sorted(result.opt_arcs)}\n".encode())
    return digest.hexdigest()


def test_dp_matches_pinned_digest():
    assert _dp_digest(map(exact_opt_dp, _dp_digest_corpus())) == DP_DIGEST


def test_dp_digest_holds_with_tiny_temporaries(monkeypatch):
    # A tiny bound sends the pinned corpus through splits cut into several
    # blocks and layers cut into several groups, which at the default bound
    # only the instances with 10 (blocks) or 13 (groups) or more terminals
    # reach.  32 entries does both from 4 terminals up; above 10 terminals
    # it would take minutes, so those instances run at 4096, which still
    # does both there.
    def run(inst):
        bound = 32 if len(inst.terminals) <= 10 else 4096
        monkeypatch.setattr(oracle, "_TEMP_ELEMENTS", bound)
        return exact_opt_dp(inst)

    assert _dp_digest(map(run, _dp_digest_corpus())) == DP_DIGEST



def _exact_opt_dp_reference(inst: Instance) -> OptResult:
    """exact_opt_dp with the table fill it had before the Gray-code walk:
    every layer's split indices come from one product of the masks' bits
    with the layer's bit pattern, the split minima from a min over the
    gathered splits, and the closure from one (masks, n, n) sum and its
    minimum over the last axis.  The reconstruction makes the production
    one's choices (the smallest node id, then the largest split that
    attains the minimum), so equal tables give an equal OptResult."""
    terminals = sorted(inst.terminals)
    k = len(terminals)
    costs, scale = _scaled_costs(inst)
    big = sum(costs) + 1
    n = inst.node_count
    dtype = np.min_scalar_type(-4 * big) if 4 * big < 2**62 else object
    dist_all, parent_all = _dijkstra_all(inst, costs, big)
    dist_matrix = np.array(dist_all, dtype=dtype)
    full = (1 << k) - 1
    D = np.empty((full + 1, n), dtype=dtype)
    temp = 1 << 14

    def split_pattern(popcount):
        shifts = np.arange(popcount - 1, dtype=np.int32)[:, np.newaxis]
        pattern = np.arange((1 << (popcount - 1)) - 1, dtype=np.int32) >> shifts
        pattern &= 1
        return pattern

    def submasks(masks, pattern):
        bits = np.empty((len(masks), len(pattern) + 1), dtype=np.int32)
        rest = masks
        for j in range(bits.shape[1]):
            bits[:, j] = rest & -rest
            rest = rest ^ bits[:, j]
        return bits[:, :1] + bits[:, 1:] @ pattern

    def split_minima(masks, subs):
        best = np.full((len(masks), n), big, dtype=dtype)
        rows = max(1, temp // (n * subs.shape[1]))
        step = max(1, temp // (rows * n))
        for row in range(0, len(masks), rows):
            out = best[row : row + rows]
            for start in range(0, subs.shape[1], step):
                part = subs[row : row + rows, start : start + step]
                sums = D[part] + D[masks[row : row + rows, np.newaxis] ^ part]
                np.minimum(out, sums.min(axis=1), out=out)
        return best

    closure = max(1, temp // (n * n))

    def fill_layer(layer, popcount):
        pattern = split_pattern(popcount)
        group = max(1, temp // max(pattern.shape[1], n))
        for start in range(0, len(layer), group):
            masks = layer[start : start + group]
            best = split_minima(masks, submasks(masks, pattern))
            for row in range(0, len(masks), closure):
                sums = dist_matrix + best[row : row + closure, np.newaxis, :]
                D[masks[row : row + closure]] = sums.min(axis=2)

    for i, t in enumerate(terminals):
        D[1 << i] = dist_matrix[:, t - 1]
    popcounts = np.array([m.bit_count() for m in range(full + 1)])
    for popcount in range(2, k + 1):
        fill_layer(np.flatnonzero(popcounts == popcount).astype(np.int32), popcount)

    opt_scaled = int(D[full][inst.root - 1])
    arcs: set[int] = set()
    stack = [(full, inst.root)]
    while stack:
        mask, v = stack.pop()
        if mask.bit_count() == 1:
            arcs |= _path_arcs(parent_all, inst, v, terminals[mask.bit_length() - 1])
            continue
        masks = np.array([mask], dtype=np.int32)
        subs = submasks(masks, split_pattern(mask.bit_count()))
        best = split_minima(masks, subs)[0]
        u = int(np.argmin(dist_matrix[v - 1] + best)) + 1
        arcs |= _path_arcs(parent_all, inst, v, u)
        subs = subs[0]
        hits = np.flatnonzero(D[subs, u - 1] + D[mask ^ subs, u - 1] == best[u - 1])
        sub = int(subs[hits[-1]])
        stack.append((sub, u))
        stack.append((mask ^ sub, u))
    return OptResult(Fraction(opt_scaled, scale), frozenset(arcs), "subset_dp")


def _dp_instance(rng: random.Random, k: int, steiner: int, touch_all: bool = False) -> Instance:
    """Seeded quasi-bipartite instance: root 1, terminals 2..k+1, then the
    Steiner nodes.  Each terminal gets an arc from the root or an earlier
    terminal, so every one is reachable, and other arcs are drawn sparsely
    so that small k stays within the brute oracle's arc limit.  The last
    Steiner node has in-arcs only and reaches no terminal, as does any
    terminal that drew no out-arc; their table entries stay at `big`.
    With `touch_all`, every other Steiner node also gets an arc from the
    root or a terminal and one to a terminal, so the DP keeps all n nodes."""
    n = 1 + k + steiner
    sink = n
    arcs: dict[tuple[int, int], Fraction] = {}

    def cost() -> Fraction:
        return Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3)))

    for t in range(2, k + 2):
        arcs[(rng.randint(1, t - 1), t)] = cost()
    for u in range(1, n + 1):
        for v in range(2, n + 1):
            steiner_pair = u > k + 1 and v > k + 1
            if u == v or steiner_pair or u == sink or (u, v) in arcs:
                continue
            if rng.random() < 1.5 / n:
                arcs[(u, v)] = cost()
    arcs.setdefault((rng.randint(1, k + 1), sink), cost())
    if touch_all:
        for v in range(k + 2, sink):
            arcs.setdefault((rng.randint(1, k + 1), v), cost())
            arcs.setdefault((v, rng.randint(2, k + 1)), cost())
    inst = Instance(
        node_count=n,
        root=1,
        terminals=frozenset(range(2, k + 2)),
        arcs=tuple(Arc(u, v, c) for (u, v), c in sorted(arcs.items())),
    )
    assert not validate(inst)
    return inst


# A scaled cost total that puts 4 * big, the table's dtype bound, in each
# dtype's range; the object dtype takes a rational multiplier past 2^62.
_DTYPE_TOTAL = {"int16": 2000, "int32": 10**6, "int64": 2**40, "object": None}


def _table_dtype(inst: Instance) -> str:
    costs, _ = _scaled_costs(inst)
    bound = 4 * (sum(costs) + 1)
    return str(np.min_scalar_type(-bound)) if bound < 2**62 else "object"


@pytest.mark.parametrize("dtype", list(_DTYPE_TOTAL))
def test_dp_equals_reference_fill(dtype):
    # k = 1..14 terminals (the object dtype, on Python ints, stops at 8).
    rng = random.Random(f"dp-reference:{dtype}")
    for k in range(1, 9 if dtype == "object" else 15):
        for _ in range(3 if k <= 6 else 1):
            base = _dp_instance(rng, k, rng.randint(1, 3))
            total = sum(_scaled_costs(base)[0])
            if dtype == "object":
                factor = 2**62 + Fraction(1, 3)
            else:
                factor = max(1, _DTYPE_TOTAL[dtype] // max(1, total))
            inst = base._replace(arcs=tuple(a._replace(cost=a.cost * factor) for a in base.arcs))
            assert _table_dtype(inst) == dtype
            result = exact_opt_dp(inst)
            assert result == _exact_opt_dp_reference(inst), (k, dtype)
            # The brute oracle takes up to 6 s at its limit of 20 arcs here.
            if len(inst.arcs) <= 16:
                assert result.opt_cost == exact_opt_brute(inst).opt_cost, (k, dtype)


@pytest.mark.parametrize("bound", [1 << 16, 256])
@pytest.mark.parametrize("dtype", ["int16", "int64"])
def test_dp_equals_reference_fill_with_many_nodes(dtype, bound, monkeypatch):
    # With 30 or more Steiner nodes, all of them kept, n exceeds the splits
    # per mask of the low layers (2^(p-1) - 1 < n up to p = 6), so there n,
    # not the split count, bounds a group's masks.  The default bound keeps
    # each layer in one group; 256 entries cut the low layers into groups
    # of a few masks and the top ones into one mask per group, with a few
    # of its splits per block.
    monkeypatch.setattr(oracle, "_TEMP_ELEMENTS", bound)
    rng = random.Random(f"dp-many-nodes:{dtype}")
    for k in range(6, 11):
        base = _dp_instance(rng, k, rng.randint(30, 40), touch_all=True)
        total = sum(_scaled_costs(base)[0])
        factor = max(1, _DTYPE_TOTAL[dtype] // max(1, total))
        inst = base._replace(arcs=tuple(a._replace(cost=a.cost * factor) for a in base.arcs))
        assert _table_dtype(inst) == dtype
        assert oracle._touched(inst).node_count > (1 << 5) - 1
        assert exact_opt_dp(inst) == _exact_opt_dp_reference(inst), (k, dtype)


@pytest.mark.parametrize("bits", [7, 15, 31])
def test_dp_at_dtype_boundaries_equals_brute(bits):
    # The table's dtype is the narrowest signed type holding 4 * big, so it
    # widens where 4 * big passes 2^bits.  Integer multiples of each
    # instance's scaled costs put 4 * big at or just below that point, and
    # just above it.
    rng = random.Random(56 + bits)
    checked = 0
    for _ in range(60):
        inst = random_valid_instance(rng)
        costs, scale = _scaled_costs(inst)
        total = sum(costs)
        if not 0 < total < 2 ** (bits - 2):
            continue
        below = (2 ** (bits - 2) - 1) // total
        opt = exact_opt_dp(inst).opt_cost
        for factor in (below, below + 1):
            scaled = inst._replace(
                arcs=tuple(a._replace(cost=a.cost * scale * factor) for a in inst.arcs)
            )
            dp = exact_opt_dp(scaled)
            assert dp.opt_cost == exact_opt_brute(scaled).opt_cost
            assert dp.opt_cost == opt * scale * factor
            assert is_feasible(scaled, dp.opt_arcs)
            assert scaled.cost_of(dp.opt_arcs) == dp.opt_cost
        big_below = below * total + 1
        assert 4 * big_below <= 2**bits < 4 * (big_below + total)
        checked += 1
    assert checked > 20


def test_dp_temporaries_stay_bounded():
    # Beyond its (2^k, n) table the DP holds only bounded temporaries.  On
    # the 14-terminal bad example (a 2^14 x 28 int16 table) the excess is
    # 1.34 units of _TEMP_ELEMENTS int64 entries with one split kernel for
    # every layer.  The two fills it replaced held 4.86 units of their
    # 4x smaller bound, and building a whole layer's split indices at once
    # reached about 32 of those.
    inst = gen_bad_example(12, Fraction(1, 7))
    costs, _ = _scaled_costs(inst)
    itemsize = np.min_scalar_type(-4 * (sum(costs) + 1)).itemsize
    table = (1 << len(inst.terminals)) * inst.node_count * itemsize
    exact_opt_dp(parse_instance(FOUR_NODE))  # imports and caches outside the trace
    tracemalloc.start()
    try:
        exact_opt_dp(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - table < 8 * oracle._TEMP_ELEMENTS * 8


def test_dp_object_dtype_fallback_equals_brute():
    # Costs this large push 4 * big past 2^62, so the DP runs on Python ints.
    rng = random.Random(55)
    scale = 2**62 + Fraction(1, 3)
    checked = 0
    for _ in range(60):
        inst = random_valid_instance(rng)
        huge = inst._replace(arcs=tuple(a._replace(cost=a.cost * scale) for a in inst.arcs))
        costs, _ = _scaled_costs(huge)
        if 4 * (sum(costs) + 1) < 2**62:
            continue  # every arc costs 0
        dp = exact_opt_dp(huge)
        assert dp.opt_cost == exact_opt_brute(huge).opt_cost
        assert dp.opt_cost == exact_opt_dp(inst).opt_cost * scale
        assert is_feasible(huge, dp.opt_arcs)
        assert huge.cost_of(dp.opt_arcs) == dp.opt_cost
        checked += 1
    assert checked > 50


def test_dp_terminal_guard():
    arcs = tuple(Arc(1, v, Fraction(1)) for v in range(2, 17))
    inst = Instance(
        node_count=16,
        root=1,
        terminals=frozenset(range(2, 17)),
        arcs=arcs,
    )
    with pytest.raises(OracleGuardError, match="14"):
        exact_opt_dp(inst)


def test_brute_arc_guard():
    arcs = tuple(Arc(1, 2, Fraction(i + 1)) for i in range(21))
    inst = Instance(node_count=2, root=1, terminals=frozenset([2]), arcs=arcs)
    with pytest.raises(OracleGuardError, match="20"):
        exact_opt_brute(inst)


def test_infeasible_instance_raises():
    inst = parse_instance("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n")
    with pytest.raises(InfeasibleInstanceError):
        exact_opt_dp(inst)
    with pytest.raises(InfeasibleInstanceError):
        exact_opt_brute(inst)


def test_no_terminals_is_zero():
    inst = Instance(
        node_count=2,
        root=1,
        terminals=frozenset(),
        arcs=(Arc(1, 2, Fraction(3)),),
    )
    assert exact_opt_dp(inst).opt_cost == 0
    assert exact_opt_brute(inst).opt_cost == 0


def _padded(inst: Instance, stride: int, extra: int) -> Instance:
    """`inst` with node v renamed stride * (v - 1) + 1 and `extra` nodes
    after the last: stride - 1 nodes that no arc touches between each pair
    of its nodes, and `extra` more at the end.  Arc ids are unchanged."""
    rename = lambda v: stride * (v - 1) + 1
    return inst._replace(
        node_count=rename(inst.node_count) + extra,
        root=rename(inst.root),
        terminals=frozenset(map(rename, inst.terminals)),
        arcs=tuple(a._replace(tail=rename(a.tail), head=rename(a.head)) for a in inst.arcs),
    )


def test_dp_runs_over_the_nodes_arcs_touch(monkeypatch):
    # The distance matrix has one row per node that the root, a terminal or
    # an arc touches, however many nodes the instance declares: the 45-byte
    # single-arc instance at NODES 100000 took over a minute when every
    # declared node got a Dijkstra run and a row.
    rows = []

    def counted(inst, costs, big):
        dist_all, parent_all = _dijkstra_all(inst, costs, big)
        rows.append(len(dist_all))
        return dist_all, parent_all

    monkeypatch.setattr(oracle, "_dijkstra_all", counted)
    single = "NODES {}\nROOT 1\nTERMINALS 2\nARC 1 2 1\nEND\n"
    opt = OptResult(Fraction(1), frozenset({0}), "subset_dp")
    assert exact_opt_dp(parse_instance(single.format(60))) == opt
    four = parse_instance(FOUR_NODE)
    assert exact_opt_dp(_padded(four, 5, 20)) == exact_opt_dp(four)
    assert rows == [2, 3, 3]
    assert exact_opt_dp(parse_instance(single.format(100000))) == opt
    assert rows[-1] == 2


def test_dijkstra_heap_matches_node_scan_reference():
    # The heap must settle nodes in the scan's order, smallest node id first
    # among equal distances, so the distance and parent tables are the
    # scan's exactly.  Unit and 0/1/2 costs make equal distances, and so
    # equal-cost parents, common; random instances leave nodes unreached.
    rng = random.Random(2026)
    instances = [random_qb_instance(rng, max_nodes=14, arc_prob=0.4) for _ in range(150)]
    for _ in range(30):
        graph = random_connected_graph(rng, rng.randint(3, 8), max_edges=14)
        instances.append(reduce_cvc(graph))
    tied = 0
    for inst in instances:
        for costs in (
            [1] * len(inst.arcs),
            [rng.randint(0, 2) for _ in inst.arcs],
        ):
            big = sum(costs) + 1
            dist_all, parent_all = _dijkstra_all(inst, costs, big)
            assert (dist_all, parent_all) == dijkstra_all_reference(inst, costs, big)
            for dist in dist_all:
                # A node with two shortest in-arcs: its parent is a tie.
                tied += any(
                    sum(
                        dist[a.tail - 1] + c == dist[v - 1] < big
                        for a, c in zip(inst.arcs, costs)
                        if a.head == v
                    )
                    > 1
                    for v in range(1, inst.node_count + 1)
                )
    assert tied > 500


def test_dp_ignores_nodes_no_arc_touches_on_reductions():
    # Nodes no arc touches, between and after an instance's own, change
    # neither the optimum nor which optimal arcs the DP returns: the kept
    # nodes keep their order, so every tie falls as before.
    rng = random.Random(20261022)
    for n in (4, 5, 6):
        inst = reduce_cvc(random_connected_graph(rng, n, 8))
        expected = exact_opt_dp(inst)
        for stride, extra in ((1, 7), (2, 0), (3, 5)):
            assert exact_opt_dp(_padded(inst, stride, extra)) == expected, (n, stride, extra)
