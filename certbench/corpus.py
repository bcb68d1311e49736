"""Seeded corpora for the two certify workloads, and the set-up step.

Run as a script (``python3 certbench/corpus.py <workload> <seed>``) this
is the set-up a CLI user pays: in a fresh interpreter it imports
``qbdst.cli``, generates the workload's corpus with ``qbdst.gen`` and
serializes every instance.  It prints one JSON object holding the timings
and the serialized instance texts, which are all the benchmark hands to
the program.

Workloads (each corpus has CORPUS_SIZE[workload] instances, a pure
function of the seed; no seed is ever skipped or re-drawn):

- ``chain``: ``gen_bad_example(k, 1/q)``, k in [16, 24], q in [50, 200].
  Every arc is bought, and ``classify_arc`` rebuilds the moats once per
  candidate arc, so ``moats`` dominates solve and audit.  The k values are
  dealt from shuffled decks of all nine values, so every corpus holds each
  k equally often and per-instance percentiles do not swing with the draw.
  Each instance also runs ``--baseline``, the single-bucket path that
  never calls ``classify_arc``.
- ``oracle``: ``reduce_cvc`` of a seeded random connected graph with 8
  nodes and 13 edges (21 nodes, 52 arcs, 12 terminals), solved, audited
  and checked against the subset DP, whose Python subset loop dominates.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("chain", "oracle")
CORPUS_SIZE = {"chain": 72, "oracle": 56}

CHAIN_K = range(16, 25)
CHAIN_Q = (50, 200)
CVC_NODES = 8
CVC_EDGES = 13


def random_connected_graph(rng: random.Random, nodes: int, edges: int):
    """Uniform random attachment tree on ``nodes`` nodes plus distinct extra
    edges drawn uniformly, so the graph is connected by construction."""
    from qbdst.gen import UndirectedGraph

    order = list(range(1, nodes + 1))
    rng.shuffle(order)
    chosen = set()
    for i in range(1, nodes):
        u, v = order[i], order[rng.randrange(i)]
        chosen.add((min(u, v), max(u, v)))
    rest = sorted(
        (u, v)
        for u in range(1, nodes + 1)
        for v in range(u + 1, nodes + 1)
        if (u, v) not in chosen
    )
    chosen.update(rng.sample(rest, edges - len(chosen)))
    return UndirectedGraph(node_count=nodes, edges=tuple(sorted(chosen)))


def build_instances(workload: str, seed: int) -> list:
    """The workload's corpus as ``qbdst`` instances, in certify order."""
    from qbdst import gen

    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain":
        ks: list[int] = []
        while len(ks) < CORPUS_SIZE[workload]:
            deck = list(CHAIN_K)
            rng.shuffle(deck)
            ks.extend(deck)
        return [
            gen.gen_bad_example(k, Fraction(1, rng.randint(*CHAIN_Q)))
            for k in ks[: CORPUS_SIZE[workload]]
        ]
    if workload == "oracle":
        return [
            gen.reduce_cvc(random_connected_graph(rng, CVC_NODES, CVC_EDGES))
            for _ in range(CORPUS_SIZE[workload])
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    started = time.perf_counter()
    import qbdst.cli  # noqa: F401  (the import every CLI call pays)
    from qbdst.instance import serialize_instance

    imported = time.perf_counter()
    instances = build_instances(workload, seed)
    generated = time.perf_counter()
    texts = [serialize_instance(inst) for inst in instances]
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "setup_s": done - started,
                "import_s": imported - started,
                "gen_s": generated - imported,
                "texts": texts,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
