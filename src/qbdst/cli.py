"""Command-line surface: solve, gen, bench, oracle, audit.

Exit codes: 0 success, 1 bad input or validation failure, 2 audit or
ratio breach, 3 oracle size guard exceeded.  All rationals print exactly;
--decimal appends approximate values clearly marked with '~'.

`main` alone turns a failure into an exit code.  A usage error and every
input error (an `InputError` or `OSError`: a parse, schema or validation
error, a generator argument, an unreadable or undecodable file) print one
`error:` line and exit 1; a decode or parse error starts with the path of
its file.  The oracle's size guard exits 3.  Any other exception is a
bug and keeps its traceback.

Each command imports the modules it runs, so a start loads only those:
`gen` loads `gen`, `oracle` loads `oracle`, `solve` and `audit` load
`engine`, `moats` and `audit` (and `oracle` under --oracle), and `bench`
loads all of these but `gen`.  `import qbdst.cli` alone loads `instance`.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .instance import (
    InputError,
    Instance,
    OracleGuardError,
    _fmt,
    instance_hash,
    normalize_parallel,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BREACH = 2
EXIT_GUARD = 3

# `bench` attaches the exact optimum only to instances of at most this many
# nodes that the root, the terminals or an arc touch (the nodes the subset
# DP runs over), besides DP_TERMINAL_LIMIT terminals.  24 is the bound the
# command has always used, so the instances that get `ratio_opt` stay the
# same ones, apart from those declaring nodes no arc touches.  At 14
# terminals one DP took about 0.25 s at 24 nodes, 0.6 s at 200 and 2.5 s at
# 400 (a shared 2-core host): raising it trades bench time only.
_BENCH_DP_NODES = 24

# The input errors: what `main` reports as one line with EXIT_INVALID, and
# what `bench` records per file.
INPUT_ERRORS = (InputError, OSError)


def _read(path: str, parse):
    """`parse` applied to the text of the file at `path`.  A decode or parse
    error becomes an InputError that starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    return normalize_parallel(_read(path, parse_instance))


def _report_invalid(inst: Instance) -> bool:
    """Print every validation failure; true when there was one."""
    violations = validate(inst)
    for item in violations:
        print(f"invalid: {item}")
    return bool(violations)


def cmd_solve(args) -> int:
    # Loaded before the clock: wall_time_s times the run, not the imports.
    from . import audit as audit_mod, engine

    if args.oracle:
        import numpy  # noqa: F401  (exact_opt_dp imports it when called)

        from . import oracle

    started = time.perf_counter()
    inst = _load_instance(args.instance)
    if _report_invalid(inst):
        return EXIT_INVALID

    if args.baseline:
        sol, trace = engine.solve_standard_baseline(inst)
    else:
        sol, trace = engine.solve(inst)
    opt = oracle.exact_opt_dp(inst).opt_cost if args.oracle else None
    report = audit_mod.run_full(inst, trace, sol, opt) if args.audit else None
    # Before any output, so a failed write leaves stdout empty.
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            engine.write_trace(trace, handle)

    # With --audit, the report prints the certified ratios instead.
    ratios = None if report is not None else audit_mod.ratio_report(inst, sol, opt)
    print(f"instance {trace.instance_hash}")
    print(f"mode {trace.mode}")
    print(f"arcs_bought {len(trace.iterations)}")
    print(f"arcs_final {len(sol.final_arcs)}")
    print(f"cost {_fmt(sol.total_cost, args.decimal)}")
    print(f"dual_total {_fmt(sol.dual_total, args.decimal)}")
    print(f"lower_bound {_fmt(sol.lower_bound, args.decimal)}")
    if ratios is not None:
        print(f"ratio_vs_lb {_fmt(ratios.ratio_vs_lb, args.decimal)}")
    for arc_id in sol.final_arcs:
        arc = inst.arcs[arc_id]
        print(
            f"final {arc_id} {arc.tail}->{arc.head} "
            f"cost={_fmt(arc.cost, args.decimal)} label={sol.arc_labels[arc_id]}"
        )
    if opt is not None:
        print(f"opt {_fmt(opt, args.decimal)}")
        if ratios is not None:
            print(f"ratio_vs_opt {_fmt(ratios.ratio_vs_opt, args.decimal)}")
    if report is not None:
        sys.stdout.write(report.render(args.decimal))
    # On stderr, so that stdout stays byte-deterministic.
    print(f"wall_time_s {time.perf_counter() - started:.3f}", file=sys.stderr)
    return EXIT_BREACH if report is not None and not report.all_ok else EXIT_OK


def cmd_gen(args) -> int:
    from . import gen

    if args.generator == "badexample":
        inst = gen.gen_bad_example(args.k, parse_rational(args.eps, "--eps"))
    elif args.generator == "grid":
        inst = gen.gen_grid(
            args.width,
            args.height,
            parse_rational(args.steiner_prob, "--steiner-prob"),
            parse_rational(args.keep_prob, "--keep-prob"),
            (args.cost_lo, args.cost_hi),
            args.seed,
        )
    else:
        graph = _read(args.edges, gen.parse_undirected)
        inst = gen.reduce_cvc(graph, planar_promise=args.planar)
    sys.stdout.write(serialize_instance(inst))
    return EXIT_OK


def _bench_one(path_str: str) -> dict:
    # Imported here, where a pool worker needs them too.
    from . import audit as audit_mod, engine, oracle

    record = {"name": Path(path_str).name}
    try:
        inst = _load_instance(path_str)
        violations = validate(inst)
        if violations:
            record["error"] = "invalid: " + violations[0]
            return record
        sol, trace = engine.solve(inst)
        opt = None
        small = oracle._touched(inst).node_count <= _BENCH_DP_NODES
        if small and len(inst.terminals) <= oracle.DP_TERMINAL_LIMIT:
            opt = oracle.exact_opt_dp(inst).opt_cost
        report = audit_mod.run_full(inst, trace, sol, opt)
        record.update(
            cost=sol.total_cost,
            lower_bound=sol.lower_bound,
            ratio_vs_lb=report.ratio_vs_lb,
            ratio_vs_opt=report.ratio_vs_opt,
            audit_ok=report.all_ok,
        )
    except INPUT_ERRORS as exc:
        record["error"] = str(exc)
    return record


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    directory = Path(args.directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{args.directory} is not a directory")
    paths = sorted(str(p) for p in directory.iterdir() if p.is_file())
    jobs = min(args.jobs, len(paths))
    if jobs > 1:
        # Imported here: only --jobs uses it, and every CLI start would
        # otherwise pay for loading it.
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            records = pool.map(_bench_one, paths)
    else:
        records = [_bench_one(p) for p in paths]

    breaches = 0
    errors = 0
    max_ratio: Fraction | None = None
    for rec in records:
        if "error" in rec:
            errors += 1
            print(f"{rec['name']} error {rec['error']}")
            continue
        if not rec["audit_ok"]:
            breaches += 1
        ratio = rec["ratio_vs_lb"]
        if ratio is not None and (max_ratio is None or ratio > max_ratio):
            max_ratio = ratio
        print(
            f"{rec['name']} cost={rec['cost']} lb={rec['lower_bound']} "
            f"ratio_lb={_fmt(ratio, False)} ratio_opt={_fmt(rec['ratio_vs_opt'], False)} "
            f"audit={'ok' if rec['audit_ok'] else 'BREACH'}"
        )
    print(
        f"summary instances={len(records)} errors={errors} "
        f"breaches={breaches} max_ratio_vs_lb={_fmt(max_ratio, False)}"
    )
    return EXIT_BREACH if breaches else EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    inst = _load_instance(args.instance)
    result = (oracle.exact_opt_brute if args.brute else oracle.exact_opt_dp)(inst)
    print(f"method {result.method}")
    print(f"opt {_fmt(result.opt_cost, args.decimal)}")
    print("arcs " + " ".join(map(str, sorted(result.opt_arcs))))
    return EXIT_OK


def cmd_audit(args) -> int:
    from . import audit as audit_mod, engine

    if args.oracle:
        from . import oracle

    inst = _load_instance(args.instance)
    trace = _read(args.trace, lambda text: engine.read_trace(io.StringIO(text)))
    if trace.instance_hash != instance_hash(inst):
        raise InputError("trace does not match instance (hash mismatch)")
    if _report_invalid(inst):
        return EXIT_INVALID
    paid = (p.arc for rec in trace.iterations for p in rec.payments)
    top = max(chain(paid, trace.purchases()), default=-1)
    if top >= len(inst.arcs):
        raise InputError(f"trace names arc {top}, but the instance has {len(inst.arcs)} arcs")
    opt = oracle.exact_opt_dp(inst).opt_cost if args.oracle else None
    report = audit_mod.run_full(inst, trace, opt=opt)
    # What the audit certified: the regrown run's solution, not the record's.
    print(f"instance {trace.instance_hash}")
    print(f"cost {report.solution.total_cost}")
    print(f"lower_bound {report.solution.lower_bound}")
    sys.stdout.write(report.render())
    return EXIT_OK if report.all_ok else EXIT_BREACH


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, not argparse's 2, which
    would read as EXIT_BREACH."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbdst",
        description="Primal-dual solver for quasi-bipartite directed Steiner tree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--baseline", action="store_true", help="single-bucket growth")
    p_solve.add_argument("--audit", action="store_true", help="verify certificate and counts")
    p_solve.add_argument("--oracle", action="store_true", help="attach exact optimum")
    p_solve.add_argument("--trace", metavar="OUT", help="write JSONL growth trace")
    p_solve.add_argument("--decimal", action="store_true", help="append approximate values")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="emit an instance file on stdout")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_bad = gen_sub.add_parser("badexample")
    p_bad.add_argument("--k", type=int, required=True)
    p_bad.add_argument("--eps", required=True, help="positive rational, e.g. 1/100")
    p_grid = gen_sub.add_parser("grid")
    p_grid.add_argument("--width", type=int, required=True)
    p_grid.add_argument("--height", type=int, required=True)
    p_grid.add_argument("--steiner-prob", default="1/2")
    p_grid.add_argument("--keep-prob", default="4/5")
    p_grid.add_argument("--cost-lo", type=int, default=1)
    p_grid.add_argument("--cost-hi", type=int, default=10)
    p_grid.add_argument("--seed", type=int, required=True)
    p_reduce = gen_sub.add_parser("reduce")
    p_reduce.add_argument("edges", help="undirected edge-list file")
    p_reduce.add_argument("--planar", action="store_true", help="declare the input planar")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="solve and audit a directory of instances")
    p_bench.add_argument("directory")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a small instance")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--brute", action="store_true", help="subset enumeration instead of DP")
    p_oracle.add_argument("--decimal", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_audit = sub.add_parser("audit", help="verify a saved trace against its instance")
    p_audit.add_argument("instance")
    p_audit.add_argument("--trace", required=True)
    p_audit.add_argument("--oracle", action="store_true")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
