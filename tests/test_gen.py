import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from qbdst.engine import solve, solve_standard_baseline
from qbdst.gen import (
    UndirectedGraph,
    gen_bad_example,
    gen_grid,
    parse_undirected,
    reduce_cvc,
)
from qbdst.instance import InputError, ParseError, serialize_instance, validate
from qbdst.oracle import exact_opt_dp

from conftest import brute_cvc, random_connected_graph

EPS = Fraction(1, 100)


def test_bad_example_counts():
    inst = gen_bad_example(3, EPS)
    assert inst.node_count == 10
    assert len(inst.arcs) == 14
    assert len(inst.terminals) == 5  # a, b, w_1..w_3


def test_bad_example_validates_for_all_k():
    for k in (2, 3, 7, 12):
        assert validate(gen_bad_example(k, EPS)) == []


def test_bad_example_guards():
    with pytest.raises(ValueError):
        gen_bad_example(1, EPS)
    with pytest.raises(ValueError):
        gen_bad_example(3, Fraction(0))


def test_bad_example_baseline_dual_growth():
    # Faithful uniform growth yields 2 + (k+2)*eps: every payment a moat
    # makes is also a dual-load contribution, which caps the b-side and
    # a-side lineages at 1 + eps each and every w-moat at eps.
    for k in (2, 4, 6):
        inst = gen_bad_example(k, EPS)
        sol, _ = solve_standard_baseline(inst)
        assert sol.dual_total == 2 + (k + 2) * EPS


def test_grid_deterministic():
    a = gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 10), 7)
    b = gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 10), 7)
    assert serialize_instance(a) == serialize_instance(b)


def test_grid_validates():
    for seed in range(30):
        inst = gen_grid(5, 4, Fraction(1, 2), Fraction(3, 4), (1, 9), seed)
        assert validate(inst) == []


def test_grid_undirected_support_is_sparse():
    # bipartite planar support never exceeds 2|V| edges
    for seed in range(20):
        inst = gen_grid(6, 5, Fraction(1, 3), Fraction(9, 10), (1, 5), seed)
        support = {tuple(sorted((a.tail, a.head))) for a in inst.arcs}
        assert len(support) <= 2 * inst.node_count


def test_grid_solvable():
    for seed in range(5):
        inst = gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 10), seed)
        if not inst.terminals:
            continue
        sol, _ = solve(inst)
        assert sol.total_cost <= 20 * sol.lower_bound


def test_grid_output_pinned():
    # Valid arguments, the edges of their ranges included, keep the output
    # the acceptance corpus was built from; the digest predates the
    # argument checks.
    digest = hashlib.sha256()
    for seed in range(40):
        for args in (
            (5, 4, Fraction(1, 2), Fraction(3, 4), (1, 9)),
            (3, 6, Fraction(0), Fraction(1), (0, 0)),
            (1, 7, Fraction(1), Fraction(1, 3), (2, 2)),
        ):
            digest.update(serialize_instance(gen_grid(*args, seed)).encode())
    assert digest.hexdigest() == (
        "8244bf04398d70fda3293e6ed42e4f86680b30f21e90b6d03a8225fa9a96dde7"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 4, Fraction(1, 2), Fraction(1, 2), (1, 9)), "width must be at least 1, got 0"),
        ((-1, -2, Fraction(1, 2), Fraction(1, 2), (1, 9)), "width must be at least 1, got -1"),
        ((4, -3, Fraction(1, 2), Fraction(1, 2), (1, 9)), "height must be at least 1, got -3"),
        ((4, 4, Fraction(3, 2), Fraction(1, 2), (1, 9)), "steiner_prob must lie in \\[0, 1\\], got 3/2"),
        ((4, 4, Fraction(1, 2), Fraction(-1, 5), (1, 9)), "keep_prob must lie in \\[0, 1\\], got -1/5"),
        ((4, 4, Fraction(1, 2), Fraction(3, 2), (1, 9)), "keep_prob must lie in \\[0, 1\\], got 3/2"),
        ((4, 4, Fraction(1, 2), Fraction(1, 2), (5, 1)), "cost_range .* got \\(5, 1\\)"),
        ((4, 4, Fraction(1, 2), Fraction(1, 2), (-2, 3)), "cost_range .* got \\(-2, 3\\)"),
    ],
    ids=[
        "width_0",
        "negative_area",
        "height",
        "steiner_prob",
        "keep_prob_negative",
        "keep_prob_above_one",
        "empty_cost_range",
        "negative_cost",
    ],
)
def test_grid_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        gen_grid(*args, seed=1)


def test_parse_undirected():
    g = parse_undirected("NODES 3\nEDGE 1 2\nEDGE 3 2\nEND\n")
    assert g.node_count == 3
    assert g.edges == ((1, 2), (2, 3))
    # Each edge error names the first faulty line, with NODES before the
    # edges or after them, and an edge repeated in either orientation is
    # an error.
    cases = [
        (["EDGE 1 2", "EDGE 3 3"], "line {second}: self-loop at 3"),
        (["EDGE 1 5", "EDGE 2 2"], "line {first}: edge (1,5) out of range"),
        (["EDGE 2 1", "EDGE 0 1"], "line {second}: edge (0,1) out of range"),
        (["EDGE 1 2", "EDGE 2 1"], "line {second}: edge (2,1) repeats line {first}"),
        (["EDGE 2 3", "EDGE 2 3", "EDGE 4 4"], "line {second}: edge (2,3) repeats line {first}"),
    ]
    for edges, message in cases:
        # `first` is the line of the first EDGE record.
        for records, first in ((["NODES 3", *edges], 2), ([*edges, "NODES 3"], 1)):
            with pytest.raises(ParseError) as caught:
                parse_undirected("\n".join(records) + "\nEND\n")
            assert str(caught.value) == message.format(first=first, second=first + 1)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((1, 2), (3, 3)), r"^self-loop at 3$"),
        (((1, 2), (2, 4)), r"^edge \(2,4\) out of range$"),
        (((1, 2), (0, 3)), r"^edge \(0,3\) out of range$"),
        (((1, 2), (3, 2)), r"^edge \(3,2\) not normalized \(u<v required\)$"),
        (((1, 2), (2, 3), (1, 2)), r"^duplicate edge \(1,2\)$"),
    ],
    ids=["self_loop", "out_of_range", "zero_endpoint", "unsorted", "duplicate"],
)
def test_undirected_graph_rejects_bad_edges(edges, message):
    # The keyword form of certbench/corpus.py; every check is an InputError,
    # a one-line CLI error.
    with pytest.raises(InputError, match=message):
        UndirectedGraph(node_count=3, edges=edges)


def test_undirected_graph_is_a_checked_value():
    # Equal graphs hash equal, a pickled graph comes back equal, and a
    # field cannot be assigned.  The positional form checks the edges too.
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 7), 12)
        again = UndirectedGraph(g.node_count, tuple(g.edges))
        assert again == g
        assert hash(again) == hash(g)
        assert pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(AttributeError):
            again.node_count = g.node_count + 1
    with pytest.raises(InputError, match=r"^duplicate edge \(1,2\)$"):
        UndirectedGraph(3, ((1, 2), (1, 2)))


def test_reduce_single_edge():
    g = UndirectedGraph(node_count=2, edges=((1, 2),))
    inst = reduce_cvc(g, planar_promise=True)
    assert inst.node_count == 3
    assert inst.root == 3
    assert inst.terminals == frozenset()
    assert len(inst.arcs) == 4
    assert validate(inst) == []
    # degenerate base case: with no other terminals the empty set is optimal
    assert exact_opt_dp(inst).opt_cost == 0
    assert brute_cvc(g) == 1


def test_reduce_path():
    g = UndirectedGraph(node_count=3, edges=((1, 2), (2, 3)))
    inst = reduce_cvc(g)
    assert inst.node_count == 5
    opt = exact_opt_dp(inst)
    assert opt.opt_cost == brute_cvc(g) + len(g.edges) - 1 == 2


def test_reduce_triangle():
    g = UndirectedGraph(node_count=3, edges=((1, 2), (1, 3), (2, 3)))
    inst = reduce_cvc(g, planar_promise=True)
    assert exact_opt_dp(inst).opt_cost == 4
    assert brute_cvc(g) == 2
    assert 4 == brute_cvc(g) + len(g.edges) - 1


def test_reduce_rejects_disconnected():
    g = UndirectedGraph(node_count=4, edges=((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="connected"):
        reduce_cvc(g)


def test_reduce_rejects_edgeless():
    with pytest.raises(ValueError, match="edge"):
        reduce_cvc(UndirectedGraph(node_count=1, edges=()))


def test_brute_cvc_examples():
    assert brute_cvc(UndirectedGraph(2, ((1, 2),))) == 1
    assert brute_cvc(UndirectedGraph(3, ((1, 2), (2, 3)))) == 1
    assert brute_cvc(UndirectedGraph(3, ((1, 2), (1, 3), (2, 3)))) == 2


def test_brute_cvc_guard():
    edges = tuple((i, i + 1) for i in range(1, 13))
    with pytest.raises(ValueError, match="12"):
        brute_cvc(UndirectedGraph(13, edges))


def test_reduction_equivalence_random_graphs():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(3, 5)
        g = random_connected_graph(rng, n, max_edges=8)
        if len(g.edges) < 2:
            continue
        inst = reduce_cvc(g)
        assert validate(inst) == []
        opt = exact_opt_dp(inst).opt_cost
        assert opt == brute_cvc(g) + len(g.edges) - 1


def test_generator_outputs_validate_and_solve():
    rng = random.Random(62)
    instances = [gen_bad_example(4, EPS)]
    instances.append(gen_grid(4, 4, Fraction(1, 2), Fraction(4, 5), (1, 8), 3))
    instances.append(reduce_cvc(random_connected_graph(rng, 4, 6), planar_promise=True))
    for inst in instances:
        assert validate(inst) == []
        if inst.terminals:
            sol, _ = solve(inst)
            assert sol.total_cost >= sol.lower_bound
