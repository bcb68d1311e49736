"""Acceptance suite.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (visible with -s) and
asserts.  Expected values are pinned here, at stated tolerances (exact
rational equality unless a criterion says otherwise).
"""

import random
import time
from fractions import Fraction

import pytest

from qbdst.audit import run_full
from qbdst.engine import Payment, solve, solve_standard_baseline
from qbdst.gen import gen_bad_example, reduce_cvc
from qbdst.instance import parse_instance, validate
from qbdst.moats import EXPANSION, KILLER, active_moats
from qbdst.oracle import exact_opt_brute, exact_opt_dp

from conftest import (
    FOUR_NODE,
    acceptance_corpus,
    alive_report,
    brute_cvc,
    connected_graphs_up_to_iso,
    enumerate_minimal_violated_brute,
    random_connected_graph,
    random_qb_instance,
    random_valid_instance,
)

EPS = Fraction(1, 100)


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_runs():
    """Solve the whole corpus once; audits reuse these runs."""
    instances = acceptance_corpus()
    for name, inst in instances:
        assert validate(inst) == [], f"{name} failed validation"
    runs = []
    started = time.perf_counter()
    for name, inst in instances:
        sol, trace = solve(inst)
        alive_report(trace)
        runs.append((name, inst, trace, sol))
    solve_seconds = time.perf_counter() - started
    baseline_runs = []
    for name, inst in instances:
        if name.startswith("bad_") or name.startswith("reduce_"):
            bsol, btrace = solve_standard_baseline(inst)
            baseline_runs.append((name + "_baseline", inst, btrace, bsol))
    return {"runs": runs, "baseline_runs": baseline_runs, "solve_seconds": solve_seconds}


@pytest.fixture(scope="module")
def corpus_reports(corpus_runs):
    reports = []
    for name, inst, trace, sol in corpus_runs["runs"]:
        reports.append((name, run_full(inst, trace, sol)))
    baseline_reports = []
    for name, inst, trace, sol in corpus_runs["baseline_runs"]:
        baseline_reports.append((name, run_full(inst, trace, sol)))
    return {"reports": reports, "baseline_reports": baseline_reports}


def test_criterion_1_baseline_bad_example_gap():
    """Single-bucket growth raises only 2 + (k+2)*eps dual on the chain.

    Derivation under the smallest-ArcId tie rule (nodes r=1, a=2, b=3,
    v=4, w_i=4+i, z_i=4+k+i):

    - Iteration 0: the k+2 terminal singletons {a}, {b}, {w_i} grow by eps.
      Every arc entering them costs eps, so each such bucket is then full.
    - Each w-moat then dies at epsilon 0: any later set holding w_i but not
      a is entered by the full arc a->w_i.
    - The two surviving lineages {a,v} and {b,z_1..z_k} grow by 1 each,
      which fills w_1->v, r->z_k and every w_i->z_{i-1}.  Every bucket of
      the instance is then full, so every later purchase is at epsilon 0.

    Exactly two positive steps: (k+2)*eps + 2*1.  The earlier pin
    2 + (2k+2)*eps needs k more eps of growth, i.e. a second eps step for
    each w-lineage, which would overfill the a->w_i bucket of capacity eps.
    The gap against OPT = k+1+(k+2)*eps is what this criterion exists for.
    """
    started = time.perf_counter()
    runs = {}
    for k in (5, 10, 25):
        inst = gen_bad_example(k, EPS)
        runs[k] = (inst, *solve_standard_baseline(inst))
    opts = {}
    for k in (5, 10):
        opts[k] = exact_opt_dp(gen_bad_example(k, EPS)).opt_cost
    elapsed = time.perf_counter() - started

    opt_ok = all(opts[k] == k + 1 + (k + 2) * EPS for k in opts)
    check(
        "criterion 1 / oracle OPT = k+1+(k+2)/100 and runtime < 5 s",
        opt_ok and elapsed < 5,
        f"elapsed {elapsed:.2f}s",
    )

    schedule_ok = True
    for k, (inst, _, trace) in runs.items():
        positive = [r for r in trace.iterations if r.epsilon > 0]
        singletons = tuple(frozenset({t}) for t in sorted(inst.terminals))
        b_lineage = frozenset({3, *range(5 + k, 5 + 2 * k)})
        fills: dict[int, Fraction] = {}
        for rec in trace.iterations:
            for p in rec.payments:
                fills[p.arc] = fills.get(p.arc, Fraction(0)) + rec.epsilon
        first = trace.iterations[0]
        first_fan = [
            sum((first.epsilon for p in first.payments if p.arc == i), Fraction(0))
            for i in range(k)
        ]
        schedule_ok = schedule_ok and (
            [(r.epsilon, r.moats) for r in positive]
            == [(EPS, singletons), (1, (frozenset({2, 4}), b_lineage))]
            and len(singletons) == k + 2
            # the step the old pin got wrong: a->w_i is full after iteration 0
            and first_fan == [EPS] * k
            and all(fills.get(i, 0) == arc.cost for i, arc in enumerate(inst.arcs))
        )
    check(
        "criterion 1 / baseline grows twice: eps on k+2 singletons, then 1 on {a,v}, {b,z}",
        schedule_ok,
        "positive epsilons "
        + ", ".join(
            f"k={k}: {[str(r.epsilon) for r in t.iterations if r.epsilon > 0]}"
            for k, (_, _, t) in sorted(runs.items())
        ),
    )
    duals = {k: sol.dual_total for k, (_, sol, _) in runs.items()}
    dual_ok = all(duals[k] == 2 + (k + 2) * EPS for k in duals)
    check(
        "criterion 1 / baseline dual_total = 2+(k+2)/100 exactly",
        dual_ok,
        "measured " + ", ".join(f"k={k}: {duals[k]}" for k in sorted(duals)),
    )


def test_criterion_2_constant_factor(corpus_runs):
    worst = Fraction(0)
    count = 0
    for name, inst, trace, sol in corpus_runs["runs"]:
        if not (name.startswith("bad_") or name.startswith("grid_")):
            continue
        count += 1
        if sol.lower_bound == 0:
            assert sol.total_cost == 0
            continue
        ratio = sol.total_cost / sol.lower_bound
        worst = max(worst, ratio)
        assert sol.total_cost <= 20 * sol.lower_bound, name
    elapsed = corpus_runs["solve_seconds"]
    check(
        "criterion 2 / cost <= 20 * lower_bound on bad family + grids, < 2 min",
        worst <= 20 and count >= 223 and elapsed < 120,
        f"{count} instances, worst ratio {worst} (~{float(worst):.3f}), solve time {elapsed:.1f}s",
    )


def test_criterion_3_cost_identity(corpus_runs, corpus_reports):
    all_reports = corpus_reports["reports"] + corpus_reports["baseline_reports"]
    bad = [name for name, report in all_reports if not report.cost_identity_ok]
    consistent = [name for name, report in all_reports if not report.payments_consistent]
    check(
        "criterion 3 / exact cost identity on every corpus run",
        not bad and not consistent,
        f"{len(all_reports)} runs checked",
    )


def test_criterion_4_dual_feasibility(corpus_reports):
    all_reports = corpus_reports["reports"] + corpus_reports["baseline_reports"]
    bad = [name for name, report in all_reports if not report.dual_feasible_ok]
    check(
        "criterion 4 / per-arc load <= 2c, antenna <= c, on every run",
        not bad,
        f"{len(all_reports)} runs checked",
    )


def test_criterion_5_counting_lemmas(corpus_reports):
    bad = [name for name, report in corpus_reports["reports"] if report.lemmas_ok is not True]
    alpha = max(
        (report.alpha_max for _, report in corpus_reports["reports"] if report.alpha_max is not None),
        default=None,
    )
    check(
        "criterion 5 / antenna/killer/expansion counting bounds every iteration",
        not bad,
        f"alpha_max over corpus {alpha}",
    )


def test_criterion_6_moat_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20250810)
    trials = 0
    while trials < 1000:
        inst = random_qb_instance(rng, max_nodes=10)
        purchased = frozenset(
            i for i in range(len(inst.arcs)) if rng.random() < 0.4
        )
        fast = sorted(m.vertices for m in active_moats(inst, purchased))
        brute = sorted(enumerate_minimal_violated_brute(inst, purchased))
        assert fast == brute, f"trial {trials}"
        trials += 1
    elapsed = time.perf_counter() - started
    check(
        "criterion 6 / active_moats == brute minimal violated sets, 1000 trials < 1 min",
        elapsed < 60,
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_7_oracle_cross_check():
    rng = random.Random(777)
    for trial in range(1000):
        inst = random_valid_instance(rng, max_nodes=5, max_arcs=14)
        dp = exact_opt_dp(inst)
        brute = exact_opt_brute(inst)
        assert dp.opt_cost == brute.opt_cost, f"trial {trial}"
        sol, _ = solve(inst)
        assert sol.lower_bound <= dp.opt_cost <= sol.total_cost, f"trial {trial}"
    check("criterion 7 / subset DP == brute on 1000 instances, lb <= OPT <= cost", True)


def test_criterion_8_hardness_reduction():
    started = time.perf_counter()
    graphs = []
    for n in (3, 4, 5):
        graphs.extend(g for g in connected_graphs_up_to_iso(n) if len(g.edges) >= 2)
    rng = random.Random(606)
    while len(graphs) < 550:
        graphs.append(random_connected_graph(rng, 6, max_edges=11))
    mismatches = []
    for i, graph in enumerate(graphs):
        inst = reduce_cvc(graph)
        opt = exact_opt_dp(inst).opt_cost
        expected = brute_cvc(graph) + len(graph.edges) - 1
        if opt != expected:
            mismatches.append(i)
    elapsed = time.perf_counter() - started
    check(
        "criterion 8 / reduction optimum == CVC + |E| - 1 on 550 graphs, < 2 min",
        not mismatches and elapsed < 120,
        f"{len(graphs)} graphs, elapsed {elapsed:.1f}s",
    )


def test_criterion_9_worked_example():
    """Bucketed run on FOUR_NODE: a1=(r->t1,3) a2=(r->t2,3) a3=(t2->t1,1)
    a4=(t1->t2,1), ArcIds 0..3, t1=2, t2=3.

    | iteration | moats      | epsilon | purchase      |
    | 0         | {t1}, {t2} | 1       | a3, killer    |
    | 1         | {t2}       | 1       | a4, expansion |
    | 2         | {t1,t2}    | 1       | a2, killer    |

    Reverse delete keeps {a2,a3}; dual 4 and cost 4, the optimum.

    The earlier hand-worked pin (epsilons 1,1,2; buys a3,a4,a1; final
    {a1,a4}; dual 5) left out one payment: in iteration 1 the surviving
    moat {t2} pays a2's killer bucket, because a2 enters {t2} (bucket fills
    always equal the dual load over entered sets).  Under the pin,
    y{t2} = 2 and y{t1,t2} = 2 while a2 is a killer arc for both, so its
    killer bucket would hold 4 > c(a2) = 3.  With the payment counted,
    iteration 2 stops at epsilon 1 when that bucket reaches 3 and buys a2.
    """
    inst = parse_instance(FOUR_NODE)
    sol, trace = solve(inst)
    opt = exact_opt_dp(inst).opt_cost
    check(
        "criterion 9 / worked example cost equals oracle OPT",
        sol.total_cost == 4 == opt,
        f"cost {sol.total_cost}, opt {opt}",
    )

    a2 = 1
    pinned_duals = {frozenset([3]): Fraction(2), frozenset([2, 3]): Fraction(2)}
    pinned_a2_load = sum(
        y for members, y in pinned_duals.items()
        if inst.arcs[a2].head in members and inst.arcs[a2].tail not in members
    )
    a2_killer = [
        sum((rec.epsilon for p in rec.payments if p.arc == a2 and p.kind == KILLER), Fraction(0))
        for rec in trace.iterations
    ]
    omitted_step = (
        pinned_a2_load > inst.arcs[a2].cost
        and Payment(a2, KILLER, frozenset({3})) in trace.iterations[1].payments
        and trace.iterations[2].purchased == (a2, KILLER)
        and sum(a2_killer) == inst.arcs[a2].cost == 3
    )
    check(
        "criterion 9 / iteration 1 pays a2's killer bucket from {t2}; it fills to c(a2)=3",
        omitted_step,
        f"a2 killer payments per iteration {[str(x) for x in a2_killer]}, "
        f"pinned load {pinned_a2_load}",
    )

    epsilons = tuple(r.epsilon for r in trace.iterations)
    moats = tuple(r.moats for r in trace.iterations)
    purchases = tuple(r.purchased for r in trace.iterations)
    stated = (
        epsilons == (1, 1, 1)
        and moats == ((frozenset({2}), frozenset({3})), (frozenset({3}),), (frozenset({2, 3}),))
        and purchases == ((2, KILLER), (3, EXPANSION), (1, KILLER))
        and set(sol.final_arcs) == {1, 2}
        and sol.dual_total == 4
    )
    check(
        "criterion 9 / stated trace (eps 1,1,1; buys a3,a4,a2; pruned {a2,a3}; dual 4)",
        stated,
        f"measured eps {epsilons}, buys {purchases}, final {set(sol.final_arcs)}, dual {sol.dual_total}",
    )
