"""Self-test of the certify benchmark harness: tampered traces count as
failed instances, and a traced run leaves the program unwrapped."""

from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from qbdst import engine, gen  # noqa: E402
from qbdst.instance import serialize_instance  # noqa: E402

CHAIN = serialize_instance(gen.gen_bad_example(4, Fraction(1, 10)))
GRID_INSTANCE = gen.gen_grid(4, 4, Fraction(1, 2), Fraction(1), (1, 12), 1)
GRID = serialize_instance(GRID_INSTANCE)


def swap_last_purchase(lines: list[dict]) -> None:
    """Replace the last purchase by an arc the run never bought."""
    bought = {row["purchase"][0] for row in lines[1:]}
    spare = min(set(range(len(GRID_INSTANCE.arcs))) - bought)
    lines[-1]["purchase"][0] = spare


def change_one_epsilon(lines: list[dict]) -> None:
    row = next(row for row in lines[1:] if Fraction(row["epsilon"]))
    eps = Fraction(row["epsilon"]) * 2
    row["epsilon"] = f"{eps.numerator}/{eps.denominator}"


@pytest.mark.parametrize("tamper", [swap_last_purchase, change_one_epsilon])
def test_tampered_trace_counts_as_failed(monkeypatch, tamper):
    honest = run.Run("chain", None)
    assert honest.certify(0, GRID, True) is not None
    assert honest.failed == 0

    write_trace = engine.write_trace

    def write_tampered(trace, out):
        honest_out = type(out)()
        write_trace(trace, honest_out)
        lines = [json.loads(line) for line in honest_out.getvalue().splitlines()]
        tamper(lines)
        out.write("".join(json.dumps(row, sort_keys=True) + "\n" for row in lines))

    monkeypatch.setattr(engine, "write_trace", write_tampered)
    tampered = run.Run("chain", None)
    assert tampered.certify(0, GRID, True) is None
    assert (tampered.attempted, tampered.failed) == (1, 1)


def test_traced_run_restores_wrapped_attributes_and_repeats_counts():
    def current():
        return {
            (module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _ in tracing.TARGETS
        }

    originals = current()
    counts = []
    for _ in range(2):
        bench = run.Run("chain", None)
        layer_counts, layer_seconds, _, passes = run.traced_section(bench, [CHAIN], 0)
        assert (bench.failed, passes) == (0, 1)
        assert layer_seconds["moats.active_moats.s"] > 0
        counts.append(layer_counts)
        after = current()
        assert all(after[key] is fn for key, fn in originals.items())
        assert not any(hasattr(fn, "__wrapped__") for fn in after.values())
    assert counts[0] == counts[1]
    assert counts[0]["engine.iterations"] > 0
    assert counts[0]["moats.active_moats.calls.classify"] > 0
