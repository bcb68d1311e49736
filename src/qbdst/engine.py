"""Growth and deletion phases of the bucketed primal-dual solver, the
single-bucket baseline, alive-terminal bookkeeping, and trace files.

Each arc owns payment buckets of capacity c(arc): one antenna bucket for
antenna arcs, separate expansion and killer buckets otherwise (the
baseline uses a single undifferentiated bucket).  Every iteration grows
all active moat duals by the largest epsilon that overfills no paid
bucket, buys exactly one tight arc (smallest ArcId), and updates the
moats locally: only the moats holding the bought arc's head can change
(`moats.moats_after`; `active_moats` computes the first moats from
scratch).  The purchased arcs F only grow, so one `instance.ArcGraph`
keeps their adjacency for the whole run: each purchase is added to it
once, and every F search (the reachability screen of `classify_arc`, the
SCC of `moats_after` and the forward reach it shares with the payer map)
walks only what it visits.  Because only arcs entering a moat are paid,
the bucket fills of an arc always equal its dual load sum over entered
sets, so the accumulated duals y satisfy load <= 2c per arc and y/2
certifies the lower bound.

The loop is written once, as the generator `steps`: it yields each
iteration's record as soon as the iteration is made, so a caller can
stop at any iteration.  `grow` collects every record into a
`GrowthTrace`, and the audit regrows a recorded run with it.  Every
record is a plain value: a trace's iterations are a tuple, built once
by `grow` and by `read_trace`, and nothing appends to a trace.

Each step's bookkeeping costs only what changed.  `steps` keeps the set
of full buckets as they fill, so the epsilon-0 shortcut is a set lookup,
and tests only the moats that hold the bought arc's head for kills.  It
keeps the payer map, which moats pay which bucket, for the whole run
too, with the unbought arcs indexed by head and by tail: a purchase
drops its arc's buckets once and takes the arc out of both indexes,
since F only grows and no arc of F enters an active moat, so an arc of F
is never paid again.  After a purchase x->y it re-derives only the arcs
into the moats that held or now hold y and, when bucketed, the
non-antenna arcs out of the vertices y reaches (the `moats` module
docstring gives the rule and its proof); every other arc keeps its
buckets, and the payments still name every paid bucket.  Growth is
uniform: every active moat pays the iteration's epsilon into each bucket
it pays, so a payment names only its arc, kind and moat, and its amount
is its record's epsilon.  An iteration's payments then differ from the
previous iteration's only in the re-derived buckets, so the map holds
each paid bucket's payments, made when the bucket is re-derived, and
every iteration joins them.  Reverse delete tests the whole purchase
list once with `is_feasible`: an infeasible list keeps every purchase,
since removing arcs never restores reachability.  Otherwise each
purchase u->v costs one search from the root over the kept arcs without
it, which stops as soon as it reaches v: a root path through u->v can
then take the other path to v instead.

Trace files cost what they hold.  `write_trace` formats each iteration
line itself, the record's epsilon once and as every payment's amount.
It formats each distinct payment row once per call, up to the amount,
and joins a record's rows, each closed by the amount, and its moat names
with `str.join`, so a row written before costs one dict lookup.
`read_trace` rejects an amount that is not its record's epsilon text and
makes one `Payment` per distinct payment row, so a run of repeated rows
is written and read back without a `json.dumps`, an f-string or a
`Fraction` per payment.  It parses one line at a time, so a read holds
the file's lines, one parsed line and the records built so far, which
become the trace's tuple at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cache
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple

from .instance import (
    ArcGraph,
    InputError,
    Instance,
    _lines,
    instance_hash,
    is_feasible,
    parse_rational,
    require_valid,
)
from .moats import (
    ANTENNA,
    EXPANSION,
    KILLER,
    Moat,
    active_moats,
    classify_arc,
    is_antenna_arc,
    moats_after,
    survivors,
)

MODE_BUCKETED = "bucketed"
# The baseline's mode, and the kind of its one bucket per arc.
MODE_STANDARD = "standard"
MODES = (MODE_BUCKETED, MODE_STANDARD)


class EngineError(RuntimeError):
    """Unrecoverable growth-phase failure (e.g. stalled growth)."""


def _moat_name(vertices: frozenset[int]) -> str:
    """A moat's name in trace files: its node ids, ascending, joined by
    commas.  Only `write_trace` and the payer order of `steps` make names."""
    return ",".join(map(str, sorted(vertices)))


def _moat_vertices(name: str) -> frozenset[int]:
    """The vertex set a moat name denotes; only `read_trace` parses names.
    Raises ValueError unless `name` is exactly what `_moat_name` makes of a
    nonempty set of node ids >= 1."""
    vertices = frozenset(map(int, name.split(",")))
    if min(vertices) < 1 or _moat_name(vertices) != name:
        raise ValueError(f"malformed moat name {name!r}")
    return vertices


class Payment(NamedTuple):
    """One moat paying one bucket in one iteration.  The amount is not
    stored: growth is uniform, so it is always the record's epsilon."""

    arc: int
    kind: str
    moat: frozenset[int]  # the paying moat's vertices


class IterationRecord(NamedTuple):
    index: int
    epsilon: Fraction
    moats: tuple[frozenset[int], ...]  # the active moats, in `active_moats` order
    payments: tuple[Payment, ...]
    purchased: tuple[int, str]
    kills: tuple[int, ...]


class GrowthTrace(NamedTuple):
    """Ordered iteration log of one growth phase plus the dual solution: a
    plain value like every record, built once from all its iterations."""

    mode: str
    instance_hash: str
    node_count: int
    root: int
    terminals: frozenset[int]
    iterations: tuple[IterationRecord, ...]

    @property
    def duals(self) -> dict[frozenset[int], Fraction]:
        """Each moat's dual y, keyed by its vertex set: the sum of the
        epsilons of the iterations it was active in."""
        duals: dict[frozenset[int], Fraction] = {}
        for rec in self.iterations:
            if rec.epsilon:
                for vertices in rec.moats:
                    duals[vertices] = duals.get(vertices, Fraction(0)) + rec.epsilon
        return duals

    def purchases(self) -> list[int]:
        return [rec.purchased[0] for rec in self.iterations]

    def purchase_labels(self) -> dict[int, str]:
        return {rec.purchased[0]: rec.purchased[1] for rec in self.iterations}

    def dual_total(self) -> Fraction:
        """Each nonzero epsilon once per moat of its iteration, which is
        `sum(duals.values())`: no iteration of a grown run lists a moat twice."""
        return sum((r.epsilon * len(r.moats) for r in self.iterations if r.epsilon), Fraction(0))


class Solution(NamedTuple):
    """Pruned arc set with purchase-order, labels, and the dual bound."""

    final_arcs: tuple[int, ...]
    arc_labels: dict[int, str]
    total_cost: Fraction
    dual_total: Fraction
    lower_bound: Fraction


class _Payers:
    """Which moats pay which bucket, kept for the whole run: `paying` maps
    each paid (arc, kind) bucket to its payments, one per paying moat, in
    moat name order.

    Only arcs outside F whose head is in a moat and whose tail is not get
    paid; everything else (arcs into no moat, arcs internal to a moat,
    bought arcs) receives nothing.  After a purchase, `bought` drops the
    bought arc from the arc indexes for good and re-derives only the arcs
    whose entries the purchase can change; every other arc keeps its
    buckets.
    """

    def __init__(
        self, inst: Instance, purchased: ArcGraph, moats: list[Moat], bucketed: bool
    ) -> None:
        self.inst = inst
        self.purchased = purchased  # the graph of F, which the run grows
        self.bucketed = bucketed
        self.kinds = (ANTENNA, EXPANSION, KILLER) if bucketed else (MODE_STANDARD,)
        self.paying: dict[tuple[int, str], tuple[Payment, ...]] = {}
        self.name = cache(_moat_name)  # payer order only; each name made once per run
        self.at: dict[int, list[Moat]] = {}  # vertex -> the moats holding it
        # The unbought arcs by head and, when bucketed, the unbought
        # non-antenna arcs by tail as (arc, head) pairs.
        self.into: dict[int, list[int]] = {}
        self.out: dict[int, list[tuple[int, int]]] = {}
        for arc_id, (tail, head, _) in enumerate(inst.arcs):
            self.into.setdefault(head, []).append(arc_id)
            if bucketed and not is_antenna_arc(inst, arc_id):
                self.out.setdefault(tail, []).append((arc_id, head))
        for moat in moats:
            self._hold(moat)
        self._rederive(range(len(inst.arcs)))

    def _hold(self, moat: Moat) -> None:
        for w in moat.vertices:
            self.at.setdefault(w, []).append(moat)

    def _rederive(self, arc_ids: Iterable[int]) -> None:
        """Drop the buckets of each arc in `arc_ids` and pay it anew: by its
        `classify_arc` roles when bucketed, else by every entered moat.  A
        bought arc is only dropped."""
        inst, bought, at, paying = self.inst, self.purchased.ids, self.at, self.paying
        for arc_id in arc_ids:
            for kind in self.kinds:
                paying.pop((arc_id, kind), None)
            tail, head, _ = inst.arcs[arc_id]
            if head not in at or arc_id in bought:
                continue
            if self.bucketed:
                roles = classify_arc(inst, self.purchased, at[head], arc_id)
            else:
                roles = [(m, MODE_STANDARD) for m in at[head] if tail not in m.vertices]
            by_role: dict[str, list[Moat]] = {}
            for moat, role in roles:
                by_role.setdefault(role, []).append(moat)
            for role, moats in by_role.items():
                if len(moats) > 1:
                    # Payers go in name order as text ("10,11" before "9,11"),
                    # not in vertex order: that is the order traces are written
                    # in.  A lone payer has no order, so it needs no name.
                    moats.sort(key=lambda m: self.name(m.vertices))
                paying[(arc_id, role)] = tuple(Payment(arc_id, role, m.vertices) for m in moats)

    def bought(
        self, arc_id: int, holders: list[Moat], new: Moat | None, reach: set[int]
    ) -> None:
        """Patch the map once arc x->y, `arc_id`, is in F, given what
        `moats_after` returned: `holders`, the moats of F that hold y, `new`,
        the one new moat of F + {x->y}, and `reach`, y's forward reach there.

        Drops the bought arc's buckets and takes it out of the arc indexes:
        F only grows, so it is never paid again.  Then re-derives every
        unbought arc into a vertex of those moats and, when bucketed, every
        unbought non-antenna arc into another moat whose tail y reaches (the
        `moats` module docstring gives the rule and its proof)."""
        self._rederive((arc_id,))
        tail, head, _ = self.inst.arcs[arc_id]
        self.into[head].remove(arc_id)
        if self.bucketed and not is_antenna_arc(self.inst, arc_id):
            self.out[tail].remove((arc_id, head))
        at = self.at
        changed: set[int] = set()
        for old in holders:
            changed.update(old.vertices)
            for w in old.vertices:
                at[w].remove(old)
                if not at[w]:
                    del at[w]
        if new is not None:
            changed.update(new.vertices)
            self._hold(new)
        stale = [a for w in changed for a in self.into.get(w, ())]
        if self.bucketed:
            stale.extend(
                a
                for u in reach
                for a, head in self.out.get(u, ())
                if head in at and head not in changed
            )
        self._rederive(stale)


def _epsilon_from_payers(
    inst: Instance,
    fills: dict[tuple[int, str], Fraction],
    payers: dict[tuple[int, str], tuple[Payment, ...]],
    full: set[tuple[int, str]],
) -> tuple[Fraction, list[tuple[int, str]]]:
    """Largest uniform growth that overfills no paid bucket, plus every
    bucket reaching capacity at that growth.  Epsilon may be 0.  `full`
    holds the buckets whose fill equals their cost."""
    # No fill exceeds its cost, so when a paid bucket is already full the
    # growth is 0 and the tight buckets are exactly the full ones.  Kept
    # for speed: 87% of the benchmark's seed-0 iterations have epsilon 0,
    # and without this shortcut `grow` ran 1.6-1.8x slower on its chain
    # and oracle corpora.
    paid_full = sorted(full.intersection(payers))
    if paid_full:
        return Fraction(0), paid_full
    # The growth that fills each bucket: its room shared among its payers.
    # An unfilled bucket's room is its cost, and a lone payer's growth is
    # the room itself.
    fill_at: dict[tuple[int, str], Fraction] = {}
    for bucket, paying in payers.items():
        cost = inst.arcs[bucket[0]].cost
        fill = fills.get(bucket)
        room = cost if fill is None else cost - fill
        fill_at[bucket] = room if len(paying) == 1 else room / len(paying)
    epsilon = min(fill_at.values())
    tight = sorted(bucket for bucket, growth in fill_at.items() if growth == epsilon)
    return epsilon, tight


def steps(inst: Instance, mode: str) -> Iterator[IterationRecord]:
    """The growth phase in one mode, one iteration at a time: classify,
    pay, buy one tight arc, and yield the iteration's record as soon as it
    is made, until no active moats remain.  `bucketed` keeps antenna,
    expansion and killer buckets; `standard` keeps one bucket per arc.  An
    unknown mode or an invalid instance raises at the first `next`."""
    if mode not in MODES:
        raise ValueError(f"unknown growth mode {mode!r}")
    bucketed = mode == MODE_BUCKETED
    require_valid(inst)
    purchased = ArcGraph(inst)  # F, kept for the whole run
    fills: dict[tuple[int, str], Fraction] = {}  # (arc, kind) -> paid so far
    alive = set(inst.terminals)
    moats = active_moats(inst, frozenset())
    payer_map = _Payers(inst, purchased, moats, bucketed)
    payers = payer_map.paying  # patched in place after each purchase
    # The buckets whose fill equals their cost: the cost-0 ones from the
    # start, and each bucket an epsilon > 0 iteration fills, which is
    # exactly the tight ones.
    full = {
        (arc_id, kind)
        for arc_id, arc in enumerate(inst.arcs)
        if not arc.cost
        for kind in payer_map.kinds
    }
    index = 0
    while moats:
        if index > len(inst.arcs):
            raise EngineError("growth did not terminate within |E| iterations")
        if not payers:
            raise EngineError(
                "stalled growth: no payable arc enters any active moat "
                "(unreachable terminal escaped validation)"
            )
        epsilon, tight = _epsilon_from_payers(inst, fills, payers, full)
        if epsilon:
            full.update(tight)
            for bucket, paying in payers.items():
                # A lone payer adds epsilon itself: no product to reduce.
                added = epsilon if len(paying) == 1 else epsilon * len(paying)
                fill = fills.get(bucket)
                fills[bucket] = added if fill is None else fill + added
        payments: list[Payment] = []
        for bucket in sorted(payers):
            payments += payers[bucket]

        buy = min(arc_id for arc_id, _ in tight)
        tight_kinds = {kind for arc_id, kind in tight if arc_id == buy}
        purchased.add(buy)
        new_moats, holders, new, reach = moats_after(inst, purchased, moats, buy)
        # A moat that does not survive dies; its unique alive terminal dies
        # with it.  Only the holders of the bought arc's head can die: the
        # others are moats of F + {arc} unchanged (`moats_after`), and a
        # core holding a terminal lies in no other moat than its own, so a
        # holder survives exactly when its core lies in the one new moat.
        kept = survivors(holders, () if new is None else (new,))
        kills = [t for m in holders if m not in kept for t in sorted(m.core & alive)]
        alive.difference_update(kills)

        if bucketed:
            # Def-4.2 labeling: the bucket that filled now, the first in
            # `kinds` order when several did (both full -> expansion).
            label = next(kind for kind in payer_map.kinds if kind in tight_kinds)
        elif is_antenna_arc(inst, buy):
            label = ANTENNA
        else:
            # Expansion iff an entered moat survives, as in `classify_arc`;
            # every entered moat is a holder.
            tail = inst.arcs[buy].tail
            label = EXPANSION if any(tail not in m.vertices for m in kept) else KILLER

        yield IterationRecord(
            index=index,
            epsilon=epsilon,
            moats=tuple(m.vertices for m in moats),
            payments=tuple(payments),
            purchased=(buy, label),
            kills=tuple(kills),
        )
        payer_map.bought(buy, holders, new, reach)
        moats = new_moats
        index += 1


def grow(inst: Instance, mode: str) -> GrowthTrace:
    """The whole growth phase in one mode: `steps` collected into a trace."""
    iterations = tuple(steps(inst, mode))
    return GrowthTrace(
        mode=mode,
        instance_hash=instance_hash(inst),
        node_count=inst.node_count,
        root=inst.root,
        terminals=inst.terminals,
        iterations=iterations,
    )


def _feasible_without(
    inst: Instance, out: defaultdict[int, dict[int, int]], head: int
) -> bool:
    """Whether the arcs `out` holds, a feasible set minus one arc into
    `head`, still reach every terminal from the root; stops once `head` is
    reached."""
    seen = {inst.root}
    work = [inst.root]
    while work:
        for w in out[work.pop()].values():
            if w not in seen:
                if w == head:
                    return True
                seen.add(w)
                work.append(w)
    return inst.terminals <= seen


def reverse_delete(inst: Instance, trace: GrowthTrace) -> Solution:
    """Scan purchases in reverse order, dropping every arc whose removal
    keeps all terminals reachable from the root.

    One `is_feasible` call tests the whole purchase list; when it is
    infeasible no removal can make it feasible, so every purchase is kept.
    Otherwise the kept arcs stay feasible throughout, and each purchase
    u->v is tested by one search from the root over the kept arcs without
    it.  The search stops as soon as it reaches v: any root path through
    u->v can then take the other path to v instead, so the arc is safe to
    drop.  A search that ends without reaching v drops the arc exactly when
    it reached every terminal.
    """
    purchases = trace.purchases()
    labels = trace.purchase_labels()
    kept = set(purchases)
    if is_feasible(inst, kept):
        out: defaultdict[int, dict[int, int]] = defaultdict(dict)  # tail -> {arc id: head}
        for arc_id in kept:
            tail, head, _ = inst.arcs[arc_id]
            out[tail][arc_id] = head
        for arc_id in reversed(purchases):
            if arc_id not in kept:  # a repeated purchase, already dropped
                continue
            tail, head, _ = inst.arcs[arc_id]
            del out[tail][arc_id]
            if _feasible_without(inst, out, head):
                kept.discard(arc_id)
            else:
                out[tail][arc_id] = head
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


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _Rows(dict):
    """`write_trace`'s memo: each payment's row up to its amount's opening
    quote, formatted the first time the payment is written.  The amount is
    not part of it, so a row kept under another epsilon is still right."""

    def __init__(self, name, text) -> None:
        super().__init__()
        self.name, self.text = name, text

    def __missing__(self, p: Payment) -> str:
        row = self[p] = f'[{p.arc}, {self.text(p.kind)}, "{self.name(p.moat)}", "'
        return row


def write_trace(trace: GrowthTrace, out: IO[str]) -> None:
    """JSON Lines: a header record, then one record per iteration with all
    rationals as exact p/q strings and moats as names.

    Iteration lines are formatted here, byte for byte what
    `json.dumps(row, sort_keys=True)` gives; only kinds and labels can need
    escaping, since moat names and p/q strings hold digits, signs, commas
    and slashes.  Every payment's amount is its record's epsilon text."""
    # One memo of each per call, so they die with the write.
    name = cache(_moat_name)
    text = cache(json.dumps)  # kinds and labels
    rows = _Rows(name, text)
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
        epsilon_text = _frac_str(rec.epsilon)
        moats = '"' + '", "'.join(map(name, rec.moats)) + '"' if rec.moats else ""
        close = f'{epsilon_text}"]'  # ends every payment row: its amount
        payments = (
            (close + ", ").join(map(rows.__getitem__, rec.payments)) + close
            if rec.payments
            else ""
        )
        kills = ", ".join(map(str, rec.kills))
        arc, label = rec.purchased
        out.write(
            f'{{"epsilon": "{epsilon_text}", "kills": [{kills}], "l": {rec.index}, '
            f'"moats": [{moats}], "payments": [{payments}], '
            f'"purchase": [{arc}, {text(label)}], "record": "iteration"}}\n'
        )


def _typed(kind: type):
    def parse(value):
        if type(value) is not kind:  # exact: a JSON true is not an integer
            raise TypeError
        return value

    return parse


_int, _str, _list = _typed(int), _typed(str), _typed(list)


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError
    return value


def _list_of(item):
    return lambda value: tuple(item(v) for v in _list(value))


def _purchase(value) -> tuple[int, str]:
    if len(_list(value)) != 2 or _int(value[0]) < 0:
        raise TypeError
    return value[0], _str(value[1])


class _Record:
    """One JSON line of a trace file; every schema error is a one-line
    InputError naming the line and the key."""

    def __init__(self, number: int, text: str) -> None:
        self.where = f"trace line {number}"
        try:
            self.row = json.loads(text)
        except ValueError as exc:  # bad JSON, or an int past Python's digit limit
            raise InputError(f"{self.where}: not JSON ({getattr(exc, 'msg', exc)})") from None
        if type(self.row) is not dict:
            raise InputError(f"{self.where}: not a JSON object")

    def get(self, key: str, parse, expected: str):
        if key not in self.row:
            raise InputError(f"{self.where}: missing key {key!r}")
        try:
            return parse(self.row[key])
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{self.where}: {key} must be {expected}") from None


def read_trace(src: Iterable[str]) -> GrowthTrace:
    """Parse a trace file from its text or lines, checking its schema: key
    presence, value types, arc ids >= 0, moat names, a known mode and
    payment amounts that are their record's epsilon text.  Lines are checked
    in file order, so the error names the first faulty line.  Arc ids beyond
    the instance are the caller's to reject: the trace does not know it."""
    records = (_Record(number, line) for number, line in _lines(src) if line.strip())
    header = next(records, None)
    if header is None:
        raise InputError("empty trace file")
    if header.row.get("record") != "header":
        raise InputError("trace file must start with a header record")
    fields = (
        header.get("mode", _mode, " or ".join(MODES)),
        header.get("instance", _str, "a string"),
        header.get("nodes", _int, "an integer"),
        header.get("root", _int, "an integer"),
        frozenset(header.get("terminals", _list_of(_int), "a list of integers")),
    )
    # Memos made per read, so they die with it.  `_str` raises before a
    # non-string value is stored, and a list raises TypeError at the
    # lookup, which `_Record.get` reports like any type error.
    rational = cache(lambda value: parse_rational(_str(value), "rational"))
    name = cache(lambda value: _moat_vertices(_str(value)))
    memo: dict[tuple[int, str, str], Payment] = {}  # one Payment per distinct row

    def payments(value, amount: str) -> tuple[Payment, ...]:
        # Payments outnumber every other field of a trace, so one loop
        # checks each row in place of a parser per element, and each
        # distinct row becomes one Payment.  Each amount must be `amount`,
        # the record's epsilon text.  The key is built only after the type
        # checks: true and 1.0 hash equal to the arc id 1.
        parsed = []
        for row in _list(value):
            if type(row) is not list or len(row) != 4 or row[3] != amount:
                raise TypeError
            arc, kind, moat, _ = row
            if type(arc) is not int or arc < 0 or type(kind) is not str or type(moat) is not str:
                raise TypeError
            key = (arc, kind, moat)
            payment = memo.get(key)
            if payment is None:
                payment = memo[key] = Payment(arc, kind, name(moat))
            parsed.append(payment)
        return tuple(parsed)

    def iteration(rec: _Record) -> IterationRecord:
        if rec.row.get("record") != "iteration":
            raise InputError(f"{rec.where}: unexpected record {rec.row.get('record')!r}")
        amount = rec.row.get("epsilon")  # every payment's; checked as epsilon first
        return IterationRecord(
            index=rec.get("l", _int, "an integer"),
            epsilon=rec.get("epsilon", rational, "an exact rational string"),
            moats=rec.get("moats", _list_of(name), "a list of moat names like 2,3"),
            payments=rec.get(
                "payments",
                lambda value: payments(value, amount),
                "a list of [arc id >= 0, kind, moat name, the record's epsilon]",
            ),
            purchased=rec.get("purchase", _purchase, "[arc id >= 0, label]"),
            kills=rec.get("kills", _list_of(_int), "a list of integers"),
        )

    return GrowthTrace(*fields, tuple(map(iteration, records)))
