"""The certify benchmark: solve, audit and (on ``oracle``) oracle-check a
seeded corpus, one instance at a time.

    python3 certbench/run.py --workload chain|oracle --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  The load is a closed loop with one client in one process.
Set-up runs SETUP_REPEATS fresh interpreters that must generate the same
corpus.  The timed section certifies whole passes over the corpus, as
many as come nearest to ``--seconds`` (at least one), so every instance
weighs the same in the percentiles.  An exception or a failed check fails
the instance; at seed PIN_SEED so does any difference from ``pins.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of stdout is one JSON object with the metrics that
BENCHMARK.json declares.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from corpus import WORKLOADS
from reference import timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
PIN_SEED = 0
CHILD_TIMEOUT_S = 120


def fresh_interpreter(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def set_up(workload: str, seed: int) -> dict:
    """Median set-up over fresh interpreters, and the corpus they agree on."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = fresh_interpreter([str(HERE / "corpus.py"), workload, str(seed)])
        runs.append(json.loads(proc.stdout))
    if any(run["texts"] != runs[0]["texts"] for run in runs):
        raise RuntimeError("fresh interpreters generated different corpora")
    median = lambda key: statistics.median(run[key] for run in runs)
    return {
        "texts": runs[0]["texts"],
        "setup_s": median("setup_s"),
        "import_s": median("import_s"),
        "gen_s": median("gen_s"),
    }


def numpy_import_s() -> float:
    """numpy's cumulative share of ``import qbdst.cli``, from -X importtime."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = fresh_interpreter(
            ["-X", "importtime", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import qbdst.cli"]
        )
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "numpy":
                samples.append(int(fields[1]) / 1e6)
    return statistics.median(samples) if samples else 0.0


class Run:
    """Per-instance samples and failures of the timed section."""

    def __init__(self, workload: str, pins: list | None) -> None:
        self.workload = workload
        self.pins = pins
        self.samples: dict[str, list[float]] = {}
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ratios: list = []
        self.baseline_breaches = 0

    def certify(self, index: int, text: str, first_pass: bool):
        """Certify one instance; returns its Outcome, or None if it failed."""
        from certify import CheckFailed, certify  # imports qbdst from SRC

        self.attempted += 1
        try:
            outcome = certify(text, self.workload)
            if self.pins is not None and outcome.pin != self.pins[index]:
                raise CheckFailed(f"pin mismatch: {outcome.pin} != {self.pins[index]}")
        except Exception:
            self.failed += 1
            print(f"instance {index} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if first_pass:
            if outcome.ratio_vs_lb is not None:
                self.ratios.append(outcome.ratio_vs_lb)
            self.baseline_breaches += outcome.baseline_breaches
        return outcome

    def record(self, outcome) -> None:
        for path, seconds in outcome.times.items():
            self.samples.setdefault(path, []).append(seconds)


def percentiles(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=4)[2]


def whole_passes(seconds: float, first_pass_s: float) -> int:
    """Number of passes whose total is nearest to the requested seconds."""
    return max(1, round(seconds / first_pass_s))


def timed_section(run: Run, texts: list[str], seconds: float) -> tuple[float, int]:
    """Whole passes over the corpus, a reference computation before each
    instance.  Returns the seconds spent certifying, and the passes."""
    clock = time.perf_counter
    started = clock()
    passes, target = 0, 1
    while passes < target:
        for index, text in enumerate(texts):
            run.refs.append(timed_reference())
            outcome = run.certify(index, text, passes == 0)
            if outcome is not None:
                run.record(outcome)
        passes += 1
        if passes == 1:
            target = whole_passes(seconds, clock() - started - sum(run.refs))
    return clock() - started - sum(run.refs), passes


def traced_section(run: Run, texts: list[str], seconds: float):
    """Each instance untraced, then traced; per-pass layer metrics."""
    from tracing import Tracer

    clock = time.perf_counter
    started = clock()
    walls = {"untraced": 0.0, "traced": 0.0}
    counts, layer_seconds = None, []
    passes, target = 0, 1
    while passes < target:
        tracer = Tracer()
        for index, text in enumerate(texts):
            begun = clock()
            plain = run.certify(index, text, passes == 0)
            walls["untraced"] += clock() - begun
            begun = clock()
            with tracer.installed(index):
                traced = run.certify(index, text, False)
            walls["traced"] += clock() - begun
            if plain is not None and traced is not None and plain.pin != traced.pin:
                run.failed += 1
                print(f"instance {index}: traced run changed the output", file=sys.stderr)
        if counts is None:
            counts = tracer.layer_counts()
        elif tracer.layer_counts() != counts:
            raise RuntimeError("two passes over the same corpus gave different counts")
        layer_seconds.append(tracer.layer_seconds())
        passes += 1
        if passes == 1:
            target = whole_passes(seconds, clock() - started)
    seconds_per_pass = {
        name: statistics.fmean(row[name] for row in layer_seconds) for name in layer_seconds[0]
    }
    return counts, seconds_per_pass, walls, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbdst" / "__init__.py").is_file():
        print(f"error: no qbdst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = set_up(args.workload, args.seed)
    texts = setup["texts"]
    pins = None
    if args.seed == PIN_SEED:
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[args.workload]
        if len(pins) != len(texts):
            raise RuntimeError("pins.json does not match the corpus size")
    run = Run(args.workload, pins)

    lines = [f"workload {args.workload} seed {args.seed} instances {len(texts)}"]
    if args.trace:
        counts, layer_seconds, walls, passes = traced_section(run, texts, args.seconds)
        certified = len(texts) * passes
        traced_rate = certified / walls["traced"]
        plain_rate = certified / walls["untraced"]
        metrics = {name: (value, "s") for name, value in layer_seconds.items()}
        metrics.update(
            {
                name: (value, "count" if isinstance(value, int) else "ratio")
                for name, value in counts.items()
            }
        )
        metrics.update(
            {
                "oracle.import_s": (numpy_import_s(), "s"),
                "gen.s": (setup["gen_s"], "s"),
                "cli.import_s": (setup["import_s"], "s"),
                "trace.certified_per_s": (traced_rate, "instances/s"),
                "trace.certified_per_s.untraced": (plain_rate, "instances/s"),
                "trace.overhead": (plain_rate / traced_rate - 1.0, "ratio"),
            }
        )
        lines.append(f"passes {passes} (each instance untraced, then traced)")
    else:
        elapsed, passes = timed_section(run, texts, args.seconds)
        ref = statistics.median(run.refs)
        certified = run.attempted - run.failed
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ref_s": (ref, "s"),
            "certified_per_s": (certified / elapsed, "instances/s"),
            "certified_per_ref": (certified * ref / elapsed, "1/ref"),
        }
        for path in ("solve", "audit", "baseline", "oracle"):
            values = run.samples.get(path)
            if values:
                p50, p75 = percentiles(values)
                metrics[f"{path}_s.p50"] = (p50, "s")
                metrics[f"{path}_s.p75"] = (p75, "s")
                metrics[f"{path}_ref.p50"] = (p50 / ref, "ref")
                metrics[f"{path}_ref.p75"] = (p75 / ref, "ref")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        if run.ratios:
            metrics["ratio_vs_lb.max"] = (float(max(run.ratios)), "ratio")
        metrics["failed_frac"] = (run.failed / run.attempted, "ratio")
        lines.append(f"passes {passes} in {elapsed:.3f} s")
        lines.append(f"ratio_vs_lb.max exact {max(run.ratios) if run.ratios else 'n/a'}")
    metrics["chain.baseline_breaches"] = (run.baseline_breaches, "count")

    for name, (value, unit) in metrics.items():
        samples = ""
        if name.endswith((".p50", ".p75")):
            samples = f" (n={len(run.samples[name.split('_')[0]])})"
        lines.append(f"{name} {value:.6g} {unit}{samples}")
    for line in lines:
        print(line)
    declared = declared_metrics(args.trace)
    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name in declared
    }
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and set(reported) == declared,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": reported,
            }
        )
    )
    return 0


def declared_metrics(trace: int) -> set[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
