import pickle
import random
import re
from fractions import Fraction

import pytest

from qbdst.engine import solve
from qbdst.gen import parse_undirected
from qbdst.instance import (
    Arc,
    ArcGraph,
    InputError,
    Instance,
    InvalidInstanceError,
    ParseError,
    is_feasible,
    normalize_parallel,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate,
)

from conftest import SINGLE_ARC, random_qb_instance, random_valid_instance


def test_parse_minimal():
    inst = parse_instance(SINGLE_ARC)
    assert inst.node_count == 2
    assert inst.root == 1
    assert inst.terminals == frozenset([2])
    assert inst.arcs == (Arc(1, 2, Fraction(5)),)


def test_parse_costs_decimal_and_rational():
    inst = parse_instance(
        "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 0.01\nARC 2 1 1/100\nEND\n"
    )
    assert inst.arcs[0].cost == Fraction(1, 100)
    assert inst.arcs[1].cost == Fraction(1, 100)


def test_parse_missing_root():
    with pytest.raises(ParseError, match="ROOT"):
        parse_instance("NODES 2\nTERMINALS 2\nARC 1 2 5\nEND\n")


def test_parse_missing_terminals():
    with pytest.raises(ParseError, match="TERMINALS"):
        parse_instance("NODES 2\nROOT 1\nARC 1 2 5\nEND\n")


def test_parse_negative_cost():
    with pytest.raises(ParseError, match="negative"):
        parse_instance("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 -3\nEND\n")


@pytest.mark.parametrize(
    "cost", ["1e3", "1E-2", "inf", "nan", ".5", "5.", "1_000", "+-1", "1/2/3", "\u0661"]
)
def test_parse_rejects_inexact_cost_literals(cost):
    # Costs are an optional sign, then digits with an optional decimal part
    # or digits/digits.  Fraction alone also expands exponents, and
    # Fraction("1e10000000") takes seconds to minutes.
    with pytest.raises(ParseError) as info:
        parse_instance(f"NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 {cost}\nEND\n")
    assert str(info.value) == f"line 4: bad cost literal {cost!r}"


def test_parse_rational_accepts_the_documented_forms():
    for token, value in [
        ("0.01", Fraction(1, 100)),
        ("1/100", Fraction(1, 100)),
        ("-3", Fraction(-3)),
        ("+2.50", Fraction(5, 2)),
        ("-7/21", Fraction(-1, 3)),
        ("007", Fraction(7)),
    ]:
        assert parse_rational(token, "cost") == value
    for token in ["1/0", "", "-", "1.", "1e3", " 1/2", "1/-2"]:
        with pytest.raises(InputError, match="bad cost literal"):
            parse_rational(token, "cost")


def test_parse_node_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 5 3\nEND\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 4"):
        parse_instance("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2\nEND\n")


def test_parse_comments_and_repeated_terminal_lines():
    inst = parse_instance(
        "# header\nNODES 4\nROOT 1\nTERMINALS 2\nTERMINALS 3  # more\n"
        "ARC 1 2 1\nARC 1 3 1\nEND\n"
    )
    assert inst.terminals == frozenset([2, 3])


# A minimal file of each keyword format, as its records without END.
KEYWORD_FORMATS = {
    "instance": (parse_instance, ["NODES 2", "ROOT 1", "TERMINALS 2", "ARC 1 2 1"]),
    "graph": (parse_undirected, ["NODES 2", "EDGE 1 2"]),
}


def _lines(records):
    return "".join(f"{record}\n" for record in records)


@pytest.mark.parametrize("file_format", sorted(KEYWORD_FORMATS))
@pytest.mark.parametrize(
    "layout, message",
    [
        (lambda rs: "# head\n\n" + _lines(f" {r}  # note\n\t" for r in rs) + "END\n# tail\n", None),
        (lambda rs: _lines(r.lower() for r in rs) + "eNd\n", None),
        (lambda rs: _lines(rs) + "END\n" + rs[-1] + "\n", "line {last}: content after END"),
        (lambda rs: _lines(rs) + "END " + rs[-1] + "\n", "line {last}: content after END"),
        (lambda rs: _lines(rs), "missing END marker"),
        # The layout is checked before the sections.
        (lambda rs: _lines(rs[1:]), "missing END marker"),
        (lambda rs: _lines(rs[1:]) + "END\n", "missing NODES section"),
        (lambda rs: "Bogus 1\n" + _lines(rs) + "END\n", "line 1: unknown record 'Bogus'"),
        # Lines end at '\n' alone, after one '\r' is stripped.
        (lambda rs: "".join(f"{r}\r\n" for r in rs) + "END\r\n", None),
        (lambda rs: _lines(f"{r} # a\x0cnote" for r in rs) + "END\n", None),
        (lambda rs: _lines(f"{r} # a\x85note" for r in rs) + "END\n", None),
        (lambda rs: _lines(f"{r} # a\u2028note" for r in rs) + "END\n", None),
        (
            lambda rs: "# a\x0cb\x85c\u2028d\r\nBogus 1\n" + _lines(rs) + "END\n",
            "line 2: unknown record 'Bogus'",
        ),
    ],
    ids=[
        "comments_blank_lines",
        "lower_case_keywords",
        "content_after_end",
        "fields_on_end_line",
        "missing_end",
        "missing_end_and_nodes",
        "missing_nodes",
        "unknown_record",
        "crlf",
        "form_feed_in_comment",
        "nel_in_comment",
        "line_separator_in_comment",
        "line_numbers_past_separators",
    ],
)
def test_keyword_formats_share_the_layout_rules(file_format, layout, message):
    # Instance files and gen's edge lists are read by one record reader, so
    # the same layout reads, or fails, the same way in both.
    parse, records = KEYWORD_FORMATS[file_format]
    text = layout(records)
    if message is None:
        assert parse(text) == parse(_lines(records) + "END\n")
        return
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message.format(last=len(text.splitlines()))


def test_normalize_parallel_keeps_cheapest():
    inst = parse_instance(
        "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 5\nARC 1 2 3\nEND\n"
    )
    normalized = normalize_parallel(inst)
    assert normalized.arcs == (Arc(1, 2, Fraction(3)),)


def test_normalize_parallel_identity_without_duplicates():
    inst = parse_instance(SINGLE_ARC)
    assert normalize_parallel(inst) is inst


def test_normalize_parallel_keeps_opposite_orientations():
    inst = parse_instance(
        "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 3\nARC 2 1 3\nEND\n"
    )
    assert len(normalize_parallel(inst).arcs) == 2


def test_normalize_parallel_tie_smallest_arcid():
    inst = parse_instance(
        "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 3\nARC 1 2 3\nEND\n"
    )
    normalized = normalize_parallel(inst)
    assert normalized.arcs == (Arc(1, 2, Fraction(3)),)


def test_validate_quasi_bipartite_violation():
    # 3 and 4 are Steiner; the 3->4 arc breaks quasi-bipartiteness.
    inst = parse_instance(
        "NODES 4\nROOT 1\nTERMINALS 2\nARC 1 2 1\nARC 3 4 1\nEND\n"
    )
    report = validate(inst)
    assert any("quasi-bipartite" in item for item in report)


def test_validate_steiner_to_terminal_allowed():
    inst = parse_instance(
        "NODES 3\nROOT 1\nTERMINALS 2\nARC 1 3 1\nARC 3 2 1\nEND\n"
    )
    assert validate(inst) == []


def test_validate_unreachable_terminal():
    inst = parse_instance("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n")
    report = validate(inst)
    assert any("unreachable" in item and "3" in item for item in report)


def test_validate_self_loop_and_duplicates():
    inst = Instance(
        node_count=2,
        root=1,
        terminals=frozenset([2]),
        arcs=(Arc(2, 2, Fraction(1)), Arc(1, 2, Fraction(1)), Arc(1, 2, Fraction(2))),
    )
    report = validate(inst)
    assert any("self-loop" in item for item in report)
    assert any("parallel" in item for item in report)


def test_validate_root_listed_as_terminal():
    inst = Instance(
        node_count=2,
        root=1,
        terminals=frozenset([1, 2]),
        arcs=(Arc(1, 2, Fraction(1)),),
    )
    assert any("root" in item for item in validate(inst))


def test_serialize_parse_round_trip():
    import random

    rng = random.Random(11)
    for _ in range(25):
        inst = random_valid_instance(rng)
        again = parse_instance(serialize_instance(inst))
        assert again == inst
        assert hash(again) == hash(inst)
        assert pickle.loads(pickle.dumps(inst)) == inst
        with pytest.raises(AttributeError):
            again.root = inst.root
        # bit-exact arc order and costs
        assert again.arcs == inst.arcs


def test_family_round_trip():
    text = "NODES 2\nROOT 1\nTERMINALS 2\nFAMILY minor_free 5\nARC 1 2 1\nEND\n"
    inst = parse_instance(text)
    assert inst.family == "minor_free"
    assert inst.minor_r == 5
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize("r", ["0", "1"])
def test_minor_free_rejects_r_below_two(r):
    text = f"NODES 2\nROOT 1\nTERMINALS 2\nFAMILY minor_free {r}\nARC 1 2 1\nEND\n"
    with pytest.raises(ParseError, match=f"^line 4: FAMILY minor_free needs r >= 2, got {r}$"):
        parse_instance(text)
    assert parse_instance(text.replace(f"minor_free {r}", "minor_free 2")).minor_r == 2


@pytest.mark.parametrize(
    "family, message",
    [
        ("planar_bipartite 5", "FAMILY planar_bipartite takes no parameter"),
        ("planar 3", "unknown family tag 'planar'"),
        ("minor_free", "FAMILY minor_free expects an integer r"),
        ("planar_bipartite x", "FAMILY planar_bipartite: stray parameter 'x'"),
        ("unknown 5 6", "FAMILY unknown: stray parameter '6'"),
        ("planar_bipartite ³", "FAMILY planar_bipartite: stray parameter '³'"),
        ("minor_free 5 6", "FAMILY minor_free: stray parameter '6'"),
        ("minor_free 5 x", "FAMILY minor_free: stray parameter 'x'"),
    ],
)
def test_parse_family_errors(family, message):
    # A declaration the family rule rejects gets that rule's message, the
    # one validate gives; a non-integer or extra parameter shows only in
    # the text, so the parser alone names it.
    text = f"NODES 2\nROOT 1\nTERMINALS 2\nFAMILY {family}\nARC 1 2 1\nEND\n"
    with pytest.raises(ParseError, match=f"^line 4: {re.escape(message)}$"):
        parse_instance(text)


@pytest.mark.parametrize(
    "first, second",
    [("minor_free 5", "planar_bipartite"), ("unknown", "unknown"), ("planar_bipartite", "x")],
)
def test_parse_rejects_a_second_family_line(first, second):
    # Like NODES and ROOT, FAMILY appears at most once; the second line is
    # the error even when the first would be replaced by a valid one.
    text = f"NODES 2\nROOT 1\nFAMILY {first}\nTERMINALS 2\nFAMILY {second}\nARC 1 2 1\nEND\n"
    with pytest.raises(ParseError, match="^line 5: duplicate FAMILY section$"):
        parse_instance(text)
    assert parse_instance(text.replace(f"FAMILY {second}\n", "")).family == first.split()[0]


def _declared(family, minor_r):
    return parse_instance(SINGLE_ARC)._replace(family=family, minor_r=minor_r)


def _assert_rejected(inst, message):
    assert validate(inst) == [message]
    with pytest.raises(InvalidInstanceError, match=re.escape(message)):
        solve(inst)


def test_validate_rejects_unknown_family_tag():
    # Serialized, this is a FAMILY line the parser rejects.
    _assert_rejected(_declared("planar", None), "unknown family tag 'planar'")


def test_validate_rejects_minor_free_r_below_two():
    # The audit's K_r bound divides by r log2 r.
    _assert_rejected(_declared("minor_free", 0), "FAMILY minor_free needs r >= 2, got 0")


def test_validate_rejects_minor_free_without_r():
    # Otherwise the K_r bound would be skipped without a word.
    _assert_rejected(_declared("minor_free", None), "FAMILY minor_free expects an integer r")


@pytest.mark.parametrize("family", ["planar_bipartite", "unknown"])
def test_validate_rejects_r_on_another_family(family):
    # Serialized, the r is dropped and the file reads back unequal.
    _assert_rejected(_declared(family, 5), f"FAMILY {family} takes no parameter")


@pytest.mark.parametrize(
    "family, minor_r", [("planar_bipartite", None), ("unknown", None), ("minor_free", 2)]
)
def test_validate_accepts_every_expressible_family(family, minor_r):
    inst = _declared(family, minor_r)
    assert validate(inst) == []
    assert parse_instance(serialize_instance(inst)) == inst


def test_empty_terminals_line_round_trips():
    inst = parse_instance("NODES 2\nROOT 1\nTERMINALS\nARC 1 2 7\nEND\n")
    assert inst.terminals == frozenset()
    assert parse_instance(serialize_instance(inst)) == inst


def test_arcs_into_root_are_retained():
    inst = parse_instance(
        "NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 1\nARC 2 1 1\nEND\n"
    )
    assert validate(inst) == []
    assert len(inst.arcs) == 2


def test_reachable_from_several_sources_over_arc_subset():
    # Arcs 0: 1->2, 1: 2->3, 2: 3->4, 3: 5->6, 4: 4->5.
    inst = parse_instance(
        "NODES 6\nROOT 1\nTERMINALS 2 4 6\n"
        "ARC 1 2 1\nARC 2 3 1\nARC 3 4 1\nARC 5 6 1\nARC 4 5 1\nEND\n"
    )
    assert ArcGraph(inst, [1, 3]).reach([2, 5]) == {2, 3, 5, 6}
    assert ArcGraph(inst, [1, 2, 3]).reach([2, 5]) == {2, 3, 4, 5, 6}
    assert ArcGraph(inst, []).reach([3, 6]) == {3, 6}
    # All arcs; nothing leads back to the root.
    assert ArcGraph(inst, range(len(inst.arcs))).reach([4, 2]) == {2, 3, 4, 5, 6}
    # Backward: the nodes that reach the sources.
    assert ArcGraph(inst, range(len(inst.arcs))).reach([5], backward=True) == {1, 2, 3, 4, 5}
    assert ArcGraph(inst, [1, 3]).reach([6, 3], backward=True) == {2, 3, 5, 6}


def _closure(inst, arc_ids, sources, backward, within=None):
    # Independent oracle: sweep the arcs until none adds a node.
    seen = set(sources)
    grew = True
    while grew:
        grew = False
        for i in arc_ids:
            tail, head, _ = inst.arcs[i]
            if backward:
                tail, head = head, tail
            if tail in seen and head not in seen and (within is None or head in within):
                seen.add(head)
                grew = True
    return seen


def test_arc_graph_matches_brute_adjacency_reach_and_feasibility():
    # A random arc subset with repeated ids, built at once and by `add` in
    # shuffled order, against brute answers over inst.arcs.
    rng = random.Random(20261019)
    for _ in range(300):
        inst = random_qb_instance(rng, max_nodes=9, arc_prob=rng.choice([0.2, 0.4]))
        arc_ids = [i for i in range(len(inst.arcs)) if rng.random() < 0.5]
        arc_ids += rng.choices(arc_ids, k=len(arc_ids) // 3) if arc_ids else []
        rng.shuffle(arc_ids)
        subset = set(arc_ids)
        built = ArcGraph(inst, arc_ids)
        added = ArcGraph(inst)
        for arc_id in rng.sample(arc_ids, len(arc_ids)):
            added.add(arc_id)
        assert built.ids == added.ids == subset
        nodes = range(1, inst.node_count + 1)
        for u in nodes:
            heads = sorted(inst.arcs[i].head for i in subset if inst.arcs[i].tail == u)
            tails = sorted(inst.arcs[i].tail for i in subset if inst.arcs[i].head == u)
            for graph in (built, added):
                assert sorted(graph.heads.get(u, [])) == heads
                assert sorted(graph.tails.get(u, [])) == tails
        for _ in range(3):
            sources = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
            within = set(rng.sample(nodes, rng.randint(0, len(nodes))))
            for backward in (False, True):
                for limit in (None, within):
                    expected = _closure(inst, subset, sources, backward, limit)
                    assert built.reach(sources, backward, limit) == expected
                    assert added.reach(sources, backward, limit) == expected
        reached = _closure(inst, subset, [inst.root], False)
        assert is_feasible(inst, arc_ids) == (inst.terminals <= reached)


def test_arc_graph_reach_matches_closure_as_arcs_are_added():
    # Arcs go in one at a time, in random order, some twice; after each add,
    # forward and backward reach from random source sets match the closure
    # over the ids added so far, both for the grown graph and for one built
    # from those ids at once.
    rng = random.Random(20261021)
    checks = 0
    for _ in range(150):
        inst = random_qb_instance(rng, max_nodes=10, arc_prob=rng.choice([0.2, 0.4]))
        order = list(range(len(inst.arcs)))
        rng.shuffle(order)
        order += rng.sample(order, len(order) // 4)
        graph = ArcGraph(inst)
        added = set()
        for arc_id in order:
            graph.add(arc_id)
            added.add(arc_id)
            assert graph.ids == added
            built = ArcGraph(inst, rng.sample(sorted(added), len(added)))
            for _ in range(3):
                nodes = range(1, inst.node_count + 1)
                sources = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
                for backward in (False, True):
                    expected = _closure(inst, added, sources, backward)
                    assert graph.reach(sources, backward) == expected
                    assert built.reach(sources, backward) == expected
                    checks += 1
    assert checks > 5000
