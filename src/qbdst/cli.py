"""Command-line surface: solve, gen, bench, oracle, audit.

Exit codes: 0 success, 1 bad input or validation failure, 2 audit or
ratio breach, 3 oracle size guard exceeded.  All rationals print exactly;
--decimal appends approximate values clearly marked with '~'.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from multiprocessing import Pool
from pathlib import Path

from . import audit as audit_mod
from . import engine, gen, oracle
from .instance import (
    Instance,
    InvalidInstanceError,
    ParseError,
    instance_hash,
    normalize_parallel,
    parse_instance,
    serialize_instance,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BREACH = 2
EXIT_GUARD = 3


def _fmt(value, decimal: bool) -> str:
    if value is None:
        return "n/a"
    text = str(value)
    if decimal and isinstance(value, Fraction) and value.denominator != 1:
        text += f" (~{float(value):.6g})"
    return text


def _load_instance(path: str) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    return normalize_parallel(parse_instance(text))


def _report_invalid(inst: Instance) -> bool:
    """Print every validation failure; true when there was one."""
    violations = validate(inst)
    for item in violations:
        print(f"invalid: {item}")
    return bool(violations)


def cmd_solve(args) -> int:
    started = time.perf_counter()
    try:
        inst = _load_instance(args.instance)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if _report_invalid(inst):
        return EXIT_INVALID

    if args.baseline:
        sol, trace = engine.solve_standard_baseline(inst)
    else:
        sol, trace = engine.solve(inst)

    opt = None
    if args.oracle:
        try:
            opt = oracle.exact_opt_dp(inst).opt_cost
        except oracle.OracleGuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_GUARD

    status = EXIT_OK
    report = None
    if args.audit:
        report = audit_mod.run_full(inst, trace, sol, opt)
        if not report.all_ok:
            status = EXIT_BREACH

    ratio_vs_lb = sol.total_cost / sol.lower_bound if sol.lower_bound else None
    print(f"instance {trace.instance_hash}")
    print(f"mode {trace.mode}")
    print(f"arcs_bought {len(trace.iterations)}")
    print(f"arcs_final {len(sol.final_arcs)}")
    print(f"cost {_fmt(sol.total_cost, args.decimal)}")
    print(f"dual_total {_fmt(sol.dual_total, args.decimal)}")
    print(f"lower_bound {_fmt(sol.lower_bound, args.decimal)}")
    print(f"ratio_vs_lb {_fmt(ratio_vs_lb, args.decimal)}")
    for arc_id in sol.final_arcs:
        arc = inst.arcs[arc_id]
        print(
            f"final {arc_id} {arc.tail}->{arc.head} "
            f"cost={_fmt(arc.cost, args.decimal)} label={sol.arc_labels[arc_id]}"
        )
    if opt is not None:
        print(f"opt {_fmt(opt, args.decimal)}")
        ratio_vs_opt = sol.total_cost / opt if opt else None
        print(f"ratio_vs_opt {_fmt(ratio_vs_opt, args.decimal)}")
    if report is not None:
        sys.stdout.write(report.render())

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            engine.write_trace(trace, handle)

    print(f"wall_time_s {time.perf_counter() - started:.3f}")
    return status


def cmd_gen(args) -> int:
    if args.generator == "badexample":
        inst = gen.gen_bad_example(args.k, Fraction(args.eps))
    elif args.generator == "grid":
        inst = gen.gen_grid(
            args.width,
            args.height,
            Fraction(args.steiner_prob),
            Fraction(args.keep_prob),
            (args.cost_lo, args.cost_hi),
            args.seed,
        )
    else:
        try:
            graph = gen.parse_undirected(Path(args.edges).read_text(encoding="utf-8"))
            inst = gen.reduce_cvc(graph, planar_promise=args.planar)
        except (OSError, ParseError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
    sys.stdout.write(serialize_instance(inst))
    return EXIT_OK


def _bench_one(path_str: str) -> dict:
    record = {"name": Path(path_str).name}
    try:
        inst = _load_instance(path_str)
        violations = validate(inst)
        if violations:
            record["error"] = "invalid: " + violations[0]
            return record
        sol, trace = engine.solve(inst)
        opt = None
        if len(inst.terminals) <= oracle.DP_TERMINAL_LIMIT and inst.node_count <= 24:
            opt = oracle.exact_opt_dp(inst).opt_cost
        report = audit_mod.run_full(inst, trace, sol, opt)
        record.update(
            cost=str(sol.total_cost),
            lower_bound=str(sol.lower_bound),
            ratio_vs_lb=str(report.ratio_vs_lb) if report.ratio_vs_lb is not None else "n/a",
            ratio_vs_opt=str(report.ratio_vs_opt) if report.ratio_vs_opt is not None else "n/a",
            audit_ok=report.all_ok,
        )
    except (ParseError, InvalidInstanceError, OSError) as exc:
        record["error"] = str(exc)
    return record


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return EXIT_INVALID
    paths = sorted(str(p) for p in directory.iterdir() if p.is_file())
    if args.jobs > 1 and len(paths) > 1:
        with Pool(args.jobs) as pool:
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
        if rec["ratio_vs_lb"] != "n/a":
            ratio = Fraction(rec["ratio_vs_lb"])
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        print(
            f"{rec['name']} cost={rec['cost']} lb={rec['lower_bound']} "
            f"ratio_lb={rec['ratio_vs_lb']} ratio_opt={rec['ratio_vs_opt']} "
            f"audit={'ok' if rec['audit_ok'] else 'BREACH'}"
        )
    print(
        f"summary instances={len(records)} errors={errors} "
        f"breaches={breaches} max_ratio_vs_lb={max_ratio if max_ratio is not None else 'n/a'}"
    )
    return EXIT_BREACH if breaches else EXIT_OK


def cmd_oracle(args) -> int:
    try:
        inst = _load_instance(args.instance)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.brute:
            result = oracle.exact_opt_brute(inst)
        else:
            result = oracle.exact_opt_dp(inst)
    except oracle.OracleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except oracle.InfeasibleInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"method {result.method}")
    print(f"opt {_fmt(result.opt_cost, args.decimal)}")
    print("arcs " + " ".join(map(str, sorted(result.opt_arcs))))
    return EXIT_OK


def cmd_audit(args) -> int:
    try:
        inst = _load_instance(args.instance)
        with open(args.trace, encoding="utf-8") as handle:
            trace = engine.read_trace(handle)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if trace.instance_hash != instance_hash(inst):
        print("error: trace does not match instance (hash mismatch)", file=sys.stderr)
        return EXIT_INVALID
    if _report_invalid(inst):
        return EXIT_INVALID
    arc_ids = [p.arc for rec in trace.iterations for p in rec.payments]
    arc_ids += trace.purchases()
    if arc_ids and max(arc_ids) >= len(inst.arcs):
        print(
            f"error: trace names arc {max(arc_ids)}, but the instance has "
            f"{len(inst.arcs)} arcs",
            file=sys.stderr,
        )
        return EXIT_INVALID
    sol = engine.reverse_delete(inst, trace)
    opt = None
    if args.oracle:
        try:
            opt = oracle.exact_opt_dp(inst).opt_cost
        except oracle.OracleGuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_GUARD
    report = audit_mod.run_full(inst, trace, sol, opt)
    print(f"instance {trace.instance_hash}")
    print(f"cost {sol.total_cost}")
    print(f"lower_bound {sol.lower_bound}")
    sys.stdout.write(report.render())
    return EXIT_OK if report.all_ok else EXIT_BREACH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
