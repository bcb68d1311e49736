"""One instance through the public calls the CLI makes, with output checks.

Paths, each timed on its own:

- solve (``qbdst solve --trace``): parse_instance, normalize_parallel,
  validate, engine.solve, engine.write_trace;
- oracle (``--oracle``, oracle workload only): oracle.exact_opt_dp;
- audit (``qbdst audit``): engine.read_trace, engine.reverse_delete,
  audit.run_full, on the trace text the solve path wrote;
- baseline (chain workload only): the solve and audit paths with
  ``--baseline``.

Every call goes through the module attribute, so a traced run can wrap it.
Any failed check raises CheckFailed; the caller counts the instance as
failed.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from fractions import Fraction

from qbdst import audit, engine, instance, oracle

# The one breach a baseline run may report: the single-bucket scheme's
# cost/lower-bound separation on the chain family, which is the paper's point.
BASELINE_BREACH_SUFFIX = "exceeds 20 (planar_bipartite)"

PATHS = {
    "chain": ("solve", "audit", "baseline"),
    "oracle": ("solve", "oracle", "audit"),
}


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


@dataclass
class Outcome:
    times: dict[str, float] = field(default_factory=dict)
    pin: dict[str, str] = field(default_factory=dict)
    ratio_vs_lb: Fraction | None = None
    baseline_breaches: int = 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def solve_path(text: str, baseline: bool = False):
    inst = instance.normalize_parallel(instance.parse_instance(text))
    violations = instance.validate(inst)
    if violations:
        raise CheckFailed(f"invalid instance: {violations[0]}")
    if baseline:
        sol, trace = engine.solve_standard_baseline(inst)
    else:
        sol, trace = engine.solve(inst)
    out = io.StringIO()
    engine.write_trace(trace, out)
    return inst, sol, out.getvalue()


def audit_path(inst, trace_text: str, opt: Fraction | None = None):
    trace = engine.read_trace(io.StringIO(trace_text))
    if trace.instance_hash != instance.instance_hash(inst):
        raise CheckFailed("trace does not match instance (hash mismatch)")
    sol = engine.reverse_delete(inst, trace)
    return sol, audit.run_full(inst, trace, sol, opt)


def check_audit(sol, audited, report, baseline: bool) -> int:
    """Raise CheckFailed unless the certificate holds and the audit's
    solution is the solve path's.  Returns the number of accepted
    baseline separation breaches (0 or 1)."""
    for name in ("payments_consistent", "cost_identity_ok", "dual_feasible_ok"):
        if getattr(report, name) is not True:
            raise CheckFailed(f"{name} is {getattr(report, name)}")
    if (audited.final_arcs, audited.total_cost, audited.lower_bound) != (
        sol.final_arcs,
        sol.total_cost,
        sol.lower_bound,
    ):
        raise CheckFailed("audited solution differs from the solved one")
    if not baseline:
        if report.lemmas_ok is not True:
            raise CheckFailed(f"lemmas_ok is {report.lemmas_ok}")
        if report.breaches:
            raise CheckFailed(f"breach {report.breaches[0]}")
        return 0
    extra = [b for b in report.breaches if not b.endswith(BASELINE_BREACH_SUFFIX)]
    if extra or len(report.breaches) > 1:
        raise CheckFailed(f"baseline breach {report.breaches}")
    return len(report.breaches)


def certify(text: str, workload: str) -> Outcome:
    """Run every path the workload asks for on one serialized instance."""
    paths = PATHS[workload]
    result = Outcome()
    clock = time.perf_counter

    started = clock()
    inst, sol, trace_text = solve_path(text)
    result.times["solve"] = clock() - started

    opt = None
    if "oracle" in paths:
        started = clock()
        opt = oracle.exact_opt_dp(inst).opt_cost
        result.times["oracle"] = clock() - started
        if sol.total_cost < opt:
            raise CheckFailed(f"cost {sol.total_cost} below the optimum {opt}")

    started = clock()
    audited, report = audit_path(inst, trace_text, opt)
    result.times["audit"] = clock() - started
    check_audit(sol, audited, report, baseline=False)

    result.pin = {
        "instance": instance.instance_hash(inst),
        "trace": _sha(trace_text),
        "cost": str(sol.total_cost),
        "lower_bound": str(sol.lower_bound),
    }
    if opt is not None:
        result.pin["opt"] = str(opt)
    if sol.lower_bound:
        result.ratio_vs_lb = sol.total_cost / sol.lower_bound

    if "baseline" in paths:
        started = clock()
        binst, bsol, btrace = solve_path(text, baseline=True)
        baudited, breport = audit_path(binst, btrace)
        result.times["baseline"] = clock() - started
        result.baseline_breaches = check_audit(bsol, baudited, breport, baseline=True)
        result.pin["baseline_trace"] = _sha(btrace)
    return result
