"""Growth and deletion phases of the bucketed primal-dual solver, the
single-bucket baseline, alive-terminal bookkeeping, and trace files.

Each arc owns payment buckets of capacity c(arc): one antenna bucket for
antenna arcs, separate expansion and killer buckets otherwise (the
baseline uses a single undifferentiated bucket).  Every iteration grows
all active moat duals by the largest epsilon that overfills no paid
bucket, buys exactly one tight arc (smallest ArcId), and recomputes the
moats.  Because only arcs entering a moat are paid, the bucket fills of an
arc always equal its dual load sum over entered sets, so the accumulated
duals y satisfy load <= 2c per arc and y/2 certifies the lower bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, NamedTuple

from .instance import Instance, instance_hash, is_feasible, require_valid
from .moats import (
    ANTENNA,
    EXPANSION,
    KILLER,
    Moat,
    active_moats,
    classify_arc,
    is_antenna_arc,
    key_to_str,
)

MODE_BUCKETED = "bucketed"
# The baseline's mode, and the kind of its one bucket per arc.
MODE_STANDARD = "standard"
MODES = (MODE_BUCKETED, MODE_STANDARD)


class EngineError(RuntimeError):
    """Unrecoverable growth-phase failure (e.g. stalled growth)."""


class InvariantBreach(RuntimeError):
    """A run violated the alive-terminal bookkeeping; signals an engine bug."""


class Payment(NamedTuple):
    arc: int
    kind: str
    moat: str
    amount: Fraction


@dataclass(frozen=True)
class IterationRecord:
    index: int
    epsilon: Fraction
    moats: tuple[str, ...]
    payments: tuple[Payment, ...]
    purchased: tuple[int, str]
    kills: tuple[int, ...]


@dataclass
class GrowthTrace:
    """Ordered iteration log of one growth phase plus the dual solution."""

    mode: str
    instance_hash: str
    node_count: int
    root: int
    terminals: frozenset[int]
    iterations: list[IterationRecord] = field(default_factory=list)
    duals: dict[str, Fraction] = field(default_factory=dict)

    def purchases(self) -> list[int]:
        return [rec.purchased[0] for rec in self.iterations]

    def purchase_labels(self) -> dict[int, str]:
        return {rec.purchased[0]: rec.purchased[1] for rec in self.iterations}

    def dual_total(self) -> Fraction:
        return sum(self.duals.values(), Fraction(0))


@dataclass
class Solution:
    """Pruned arc set with purchase-order, labels, and the dual bound."""

    final_arcs: tuple[int, ...]
    arc_labels: dict[int, str]
    total_cost: Fraction
    dual_total: Fraction
    lower_bound: Fraction


def _payer_map(
    inst: Instance,
    purchased: frozenset[int],
    moats: list[Moat],
    bucketed: bool,
) -> dict[tuple[int, str], list[str]]:
    """Which moats pay which bucket this iteration.

    Only arcs outside F whose head is in a moat and whose tail is not get
    paid; everything else (arcs into no moat, arcs internal to a moat,
    bought arcs) receives nothing.
    """
    head_moats: dict[int, list[Moat]] = {}
    for moat in moats:
        for v in moat.vertices:
            head_moats.setdefault(v, []).append(moat)

    payers: dict[tuple[int, str], list[str]] = {}
    for arc_id in range(len(inst.arcs)):
        if arc_id in purchased:
            continue
        arc = inst.arcs[arc_id]
        if arc.head not in head_moats:
            continue
        if not bucketed:
            keys = [
                m.key_str
                for m in head_moats[arc.head]
                if arc.tail not in m.vertices
            ]
            if keys:
                payers[(arc_id, MODE_STANDARD)] = keys
            continue
        for key, role in classify_arc(inst, purchased, head_moats[arc.head], arc_id):
            payers.setdefault((arc_id, role), []).append(key_to_str(key))
    return payers


def _epsilon_from_payers(
    inst: Instance,
    fills: dict[tuple[str, int], Fraction],
    payers: dict[tuple[int, str], list[str]],
) -> tuple[Fraction, list[tuple[int, str]]]:
    """Largest uniform growth that overfills no paid bucket, plus every
    bucket reaching capacity at that growth.  Epsilon may be 0."""
    epsilon: Fraction | None = None
    for (arc_id, kind), moat_keys in payers.items():
        remaining = inst.arcs[arc_id].cost - fills.get((kind, arc_id), 0)
        candidate = remaining / len(moat_keys)
        if epsilon is None or candidate < epsilon:
            epsilon = candidate
    assert epsilon is not None
    tight = sorted(
        (arc_id, kind)
        for (arc_id, kind), moat_keys in payers.items()
        if inst.arcs[arc_id].cost - fills.get((kind, arc_id), 0)
        == epsilon * len(moat_keys)
    )
    return epsilon, tight


def grow(inst: Instance, mode: str) -> GrowthTrace:
    """The growth phase in one mode: classify, pay, buy one tight arc per
    iteration, until no active moats remain.  `bucketed` keeps antenna,
    expansion and killer buckets; `standard` keeps one bucket per arc.
    The audit regrows a recorded run with this same loop."""
    if mode not in MODES:
        raise ValueError(f"unknown growth mode {mode!r}")
    bucketed = mode == MODE_BUCKETED
    require_valid(inst)
    trace = GrowthTrace(
        mode=mode,
        instance_hash=instance_hash(inst),
        node_count=inst.node_count,
        root=inst.root,
        terminals=inst.terminals,
    )
    purchased_set: set[int] = set()
    fills: dict[tuple[str, int], Fraction] = {}  # (kind, arc) -> paid so far
    alive = set(inst.terminals)
    moats = active_moats(inst, frozenset())
    index = 0
    while moats:
        if index > len(inst.arcs):
            raise EngineError("growth did not terminate within |E| iterations")
        frozen = frozenset(purchased_set)
        payers = _payer_map(inst, frozen, moats, bucketed)
        if not payers:
            raise EngineError(
                "stalled growth: no payable arc enters any active moat "
                "(unreachable terminal escaped validation)"
            )
        epsilon, tight = _epsilon_from_payers(inst, fills, payers)

        payments = []
        for (arc_id, kind), moat_keys in sorted(payers.items()):
            if epsilon:
                fills[(kind, arc_id)] = (
                    fills.get((kind, arc_id), Fraction(0)) + epsilon * len(moat_keys)
                )
            for key in sorted(moat_keys):
                payments.append(Payment(arc_id, kind, key, epsilon))
        if epsilon:
            for moat in moats:
                key = moat.key_str
                trace.duals[key] = trace.duals.get(key, Fraction(0)) + epsilon

        buy = min(arc_id for arc_id, _ in tight)
        tight_kinds = {kind for arc_id, kind in tight if arc_id == buy}
        purchased_set.add(buy)
        new_moats = active_moats(inst, frozenset(purchased_set))
        new_sets = [m.vertices for m in new_moats]

        if bucketed:
            # Def-4.2 labeling: the bucket that filled now; both full -> expansion.
            if ANTENNA in tight_kinds:
                label = ANTENNA
            elif EXPANSION in tight_kinds:
                label = EXPANSION
            else:
                label = KILLER
        else:
            if is_antenna_arc(inst, buy):
                label = ANTENNA
            else:
                arc = inst.arcs[buy]
                entered = [
                    m
                    for m in moats
                    if arc.head in m.vertices and arc.tail not in m.vertices
                ]
                grows = any(
                    any(m.core < s for s in new_sets) for m in entered
                )
                label = EXPANSION if grows else KILLER

        # A moat dies exactly when its core is inside no active set anymore;
        # its unique alive terminal dies with it.
        kills = []
        for moat in moats:
            if not any(moat.core <= s for s in new_sets):
                for t in sorted(moat.core & alive):
                    kills.append(t)
        alive.difference_update(kills)

        trace.iterations.append(
            IterationRecord(
                index=index,
                epsilon=epsilon,
                moats=tuple(m.key_str for m in moats),
                payments=tuple(payments),
                purchased=(buy, label),
                kills=tuple(kills),
            )
        )
        moats = new_moats
        index += 1
    return trace


def reverse_delete(inst: Instance, trace: GrowthTrace) -> Solution:
    """Scan purchases in reverse order, dropping every arc whose removal
    keeps all terminals reachable from the root."""
    purchases = trace.purchases()
    labels = trace.purchase_labels()
    kept = set(purchases)
    for arc_id in reversed(purchases):
        kept.discard(arc_id)
        if not is_feasible(inst, kept):
            kept.add(arc_id)
    final = tuple(a for a in purchases if a in kept)
    dual_total = trace.dual_total()
    return Solution(
        final_arcs=final,
        arc_labels={a: labels[a] for a in final},
        total_cost=inst.cost_of(final),
        dual_total=dual_total,
        lower_bound=dual_total / 2,
    )


def solve(inst: Instance) -> tuple[Solution, GrowthTrace]:
    """Bucketed growth followed by reverse delete.  The solution's
    lower_bound is half the accumulated duals, a valid LP lower bound."""
    trace = grow(inst, MODE_BUCKETED)
    return reverse_delete(inst, trace), trace


def solve_standard_baseline(inst: Instance) -> tuple[Solution, GrowthTrace]:
    """Same loop with one undifferentiated bucket of size c(e) per arc."""
    trace = grow(inst, MODE_STANDARD)
    return reverse_delete(inst, trace), trace


def alive_report(trace: GrowthTrace) -> dict[int, dict[int, bool]]:
    """Replay kill events; per iteration, every active moat must hold
    exactly one alive terminal and #alive must equal #moats."""
    alive = set(trace.terminals)
    report: dict[int, dict[int, bool]] = {}
    for rec in trace.iterations:
        if len(rec.moats) != len(alive):
            raise InvariantBreach(
                f"iteration {rec.index}: {len(alive)} alive terminals "
                f"but {len(rec.moats)} active moats"
            )
        for key in rec.moats:
            members = {int(tok) for tok in key.split(",")}
            holders = members & alive
            if len(holders) != 1:
                raise InvariantBreach(
                    f"iteration {rec.index}: moat {key} holds "
                    f"{len(holders)} alive terminals"
                )
        report[rec.index] = {t: t in alive for t in sorted(trace.terminals)}
        alive.difference_update(rec.kills)
    return report


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def write_trace(trace: GrowthTrace, out: IO[str]) -> None:
    """JSON Lines: a header record, then one record per iteration with all
    rationals as exact p/q strings."""
    header = {
        "record": "header",
        "mode": trace.mode,
        "instance": trace.instance_hash,
        "nodes": trace.node_count,
        "root": trace.root,
        "terminals": sorted(trace.terminals),
    }
    out.write(json.dumps(header, sort_keys=True) + "\n")
    for rec in trace.iterations:
        row = {
            "record": "iteration",
            "l": rec.index,
            "epsilon": _frac_str(rec.epsilon),
            "moats": list(rec.moats),
            "payments": [
                [p.arc, p.kind, p.moat, _frac_str(p.amount)] for p in rec.payments
            ],
            "purchase": [rec.purchased[0], rec.purchased[1]],
            "kills": list(rec.kills),
        }
        out.write(json.dumps(row, sort_keys=True) + "\n")


def _typed(kind: type):
    def parse(value):
        if type(value) is not kind:  # exact: a JSON true is not an integer
            raise TypeError
        return value

    return parse


_int, _str, _list = _typed(int), _typed(str), _typed(list)


def _arc(value) -> int:
    if _int(value) < 0:
        raise ValueError
    return value


def _rational(value) -> Fraction:
    return Fraction(_str(value))


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError
    return value


def _list_of(item):
    return lambda value: tuple(item(v) for v in _list(value))


def _tuple_of(*items):
    def parse(value):
        if len(_list(value)) != len(items):
            raise TypeError
        return tuple(item(v) for item, v in zip(items, value))

    return parse


_purchase = _tuple_of(_arc, _str)
_payment_row = _tuple_of(_arc, _str, _str, _rational)


def _payment(value) -> Payment:
    return Payment(*_payment_row(value))


class _Record:
    """One JSON line of a trace file; every schema error is a one-line
    ValueError naming the line and the key."""

    def __init__(self, number: int, text: str) -> None:
        self.where = f"trace line {number}"
        try:
            self.row = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{self.where}: not JSON ({exc.msg})") from None
        if type(self.row) is not dict:
            raise ValueError(f"{self.where}: not a JSON object")

    def get(self, key: str, parse, expected: str):
        if key not in self.row:
            raise ValueError(f"{self.where}: missing key {key!r}")
        try:
            return parse(self.row[key])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"{self.where}: {key} must be {expected}") from None


def read_trace(src: IO[str]) -> GrowthTrace:
    """Parse a trace file, checking its schema: key presence, value types,
    arc ids >= 0 and a known mode.  Arc ids beyond the instance are the
    caller's to reject, since the trace does not know the instance."""
    records = [
        _Record(number, line)
        for number, line in enumerate(src.read().splitlines(), 1)
        if line.strip()
    ]
    if not records:
        raise ValueError("empty trace file")
    header = records[0]
    if header.row.get("record") != "header":
        raise ValueError("trace file must start with a header record")
    trace = GrowthTrace(
        mode=header.get("mode", _mode, " or ".join(MODES)),
        instance_hash=header.get("instance", _str, "a string"),
        node_count=header.get("nodes", _int, "an integer"),
        root=header.get("root", _int, "an integer"),
        terminals=frozenset(header.get("terminals", _list_of(_int), "a list of integers")),
    )
    for rec in records[1:]:
        if rec.row.get("record") != "iteration":
            raise ValueError(f"{rec.where}: unexpected record {rec.row.get('record')!r}")
        epsilon = rec.get("epsilon", _rational, "an exact rational string")
        moats = rec.get("moats", _list_of(_str), "a list of strings")
        trace.iterations.append(
            IterationRecord(
                index=rec.get("l", _int, "an integer"),
                epsilon=epsilon,
                moats=moats,
                payments=rec.get(
                    "payments", _list_of(_payment), "a list of [arc id >= 0, kind, moat, p/q]"
                ),
                purchased=rec.get("purchase", _purchase, "[arc id >= 0, label]"),
                kills=rec.get("kills", _list_of(_int), "a list of integers"),
            )
        )
        if epsilon:
            for key in moats:
                trace.duals[key] = trace.duals.get(key, Fraction(0)) + epsilon
    return trace
