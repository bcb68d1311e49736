"""Data model, parsing, validation, and normalization of directed Steiner
tree instances, and `ArcGraph`, an arc subset with its one graph search.

Nodes are numbered 1..node_count.  Arc costs are exact rationals
(`fractions.Fraction`); tightness of payment buckets and feasibility of the
dual certificate are checked with equality, which rules out floats.  The
position of an arc in the arc tuple is its ArcId and doubles as the
purchase tie-breaking order, so arc order is preserved everywhere.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

FAMILY_PLANAR_BIPARTITE = "planar_bipartite"
FAMILY_MINOR_FREE = "minor_free"
FAMILY_UNKNOWN = "unknown"


class InputError(ValueError):
    """Bad input: a malformed file, a bad argument, or an instance that
    fails validation or an oracle's limits.  The CLI reports it as one
    line; any other ValueError is a bug and keeps its traceback."""


class OracleGuardError(InputError):
    """Instance exceeds the size guard of the requested oracle.  Defined
    here, not in `oracle`, so that the CLI maps it to its exit code without
    loading the oracle."""


class ParseError(InputError):
    """Malformed instance file; the message carries the offending line."""


class InvalidInstanceError(InputError):
    """Instance failed validation; `violations` holds the report."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = violations


class Arc(NamedTuple):
    tail: int
    head: int
    cost: Fraction


class Instance(NamedTuple):
    """A quasi-bipartite DST instance, a NamedTuple like every record.

    `terminals` excludes the root.  Every node that is neither the root nor
    a terminal is a Steiner node.  The family tag is declared by the
    instance author and never verified; it only selects reporting
    thresholds downstream.
    """

    node_count: int
    root: int
    terminals: frozenset[int]
    arcs: tuple[Arc, ...]
    family: str = FAMILY_UNKNOWN
    minor_r: int | None = None

    def is_steiner(self, v: int) -> bool:
        return v != self.root and v not in self.terminals

    def cost_of(self, arc_ids: Iterable[int]) -> Fraction:
        return sum((self.arcs[i].cost for i in arc_ids), Fraction(0))


# An optional sign, digits, then an optional decimal part or /q.  `Fraction`
# also takes exponents, and expanding 1e10000000 takes it seconds to minutes.
_EXACT_LITERAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def parse_rational(token: str, what: str) -> Fraction:
    """`token` as an exact rational, a decimal (0.01) or p/q (1/100) with an
    optional sign, for instance files, CLI arguments and trace files;
    otherwise a one-line InputError naming `what`, also for 1/0."""
    try:
        if _EXACT_LITERAL.fullmatch(token):
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"bad {what} literal {token!r}")


def _fmt(value, decimal: bool) -> str:
    """`value` exactly, or n/a for None; with `decimal`, a non-integer
    Fraction also gets an approximation marked with '~'."""
    if value is None:
        return "n/a"
    text = str(value)
    if decimal and isinstance(value, Fraction) and value.denominator != 1:
        try:
            approx = float(value)  # 0 when too small, OverflowError when too large
        except OverflowError:
            approx = 0.0
        if not approx:  # beyond float range: a non-integer Fraction is never 0
            digits = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
            approx = digits.divide(value.numerator, value.denominator).normalize(digits)
        text += f" (~{approx:.6g})"
    return text


def _lines(src: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The lines of `src`, a file or its text split at '\n', numbered from 1,
    each without its '\n' and one '\r' before it: every input file's line
    rule.  A form feed, NEL or U+2028 stays inside its line."""
    for number, line in enumerate(src, 1):
        yield number, line.removesuffix("\n").removesuffix("\r")


def _records(text: str, keywords: tuple[str, ...]) -> Iterator[tuple[int, str, list[str]]]:
    """The records of a keyword file before its END line, each as (line
    number, keyword in upper case, the fields after it): the layout rules
    of the instance format and of `gen.parse_undirected`'s edge lists.
    '#' starts a comment, blank lines are skipped and keywords match in any
    case.  A keyword outside `keywords`, content on or after the END line,
    and a file with no END line are ParseErrors naming the line."""
    ended = False
    for lineno, raw in _lines(text.split("\n")):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        keyword = fields[0].upper()
        if ended or keyword == "END" and len(fields) > 1:
            raise ParseError(f"line {lineno}: content after END")
        if keyword == "END":
            ended = True
        elif keyword in keywords:
            yield lineno, keyword, fields[1:]
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if not ended:
        raise ParseError("missing END marker")


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Format (one record per line, under the layout rules of `_records`)::

        NODES <n>                      nodes are 1..n
        ROOT <id>
        TERMINALS <id> [<id> ...]      may repeat across multiple lines
        FAMILY planar_bipartite | minor_free <r> | unknown      at most once
        ARC <tail> <head> <cost>       cost: decimal (0.01) or rational (1/100)
        END

    Raises ParseError with a line number on any malformed input.  Parallel
    arcs are kept; run `normalize_parallel` to deduplicate them.
    """
    node_count: int | None = None
    root: int | None = None
    terminals: set[int] = set()
    saw_terminals = False
    family: str | None = None
    minor_r: int | None = None
    arcs: list[Arc] = []

    def err(lineno: int, msg: str) -> ParseError:
        return ParseError(f"line {lineno}: {msg}")

    for lineno, keyword, args in _records(text, ("NODES", "ROOT", "TERMINALS", "FAMILY", "ARC")):
        if keyword == "NODES":
            if node_count is not None:
                raise err(lineno, "duplicate NODES section")
            if len(args) != 1:
                raise err(lineno, "NODES expects one integer")
            try:
                node_count = int(args[0])
            except ValueError:
                raise err(lineno, "NODES expects one integer") from None
        elif keyword == "ROOT":
            if root is not None:
                raise err(lineno, "duplicate ROOT section")
            if len(args) != 1:
                raise err(lineno, "ROOT expects one node id")
            try:
                root = int(args[0])
            except ValueError:
                raise err(lineno, f"bad node id {args[0]!r}") from None
        elif keyword == "TERMINALS":
            saw_terminals = True
            for tok in args:
                try:
                    terminals.add(int(tok))
                except ValueError:
                    raise err(lineno, f"bad node id {tok!r}") from None
        elif keyword == "FAMILY":
            if family is not None:
                raise err(lineno, "duplicate FAMILY section")
            if not args:
                raise err(lineno, "FAMILY expects a tag")
            family, params = args[0], args[1:]
            # r is the one parameter, or minor_free's first of several.
            if len(params) == 1 or params and family == FAMILY_MINOR_FREE:
                try:
                    minor_r = int(params[0])
                except ValueError:
                    pass
            problem = _family_violation(family, minor_r)
            # What only the text shows: a parameter that is no integer, or
            # one too many.
            if problem is None and len(params) > (minor_r is not None):
                problem = f"FAMILY {family}: stray parameter {params[-1]!r}"
            if problem is not None:
                raise err(lineno, problem)
        elif keyword == "ARC":
            if len(args) != 3:
                raise err(lineno, "ARC expects <tail> <head> <cost>")
            try:
                tail, head = int(args[0]), int(args[1])
            except ValueError:
                raise err(lineno, "bad arc endpoint") from None
            try:
                cost = parse_rational(args[2], "cost")
            except InputError as exc:
                raise err(lineno, str(exc)) from None
            if cost < 0:
                raise err(lineno, f"negative cost {args[2]}")
            arcs.append(Arc(tail, head, cost))

    if node_count is None:
        raise ParseError("missing NODES section")
    if root is None:
        raise ParseError("missing ROOT section")
    if not saw_terminals:
        raise ParseError("missing TERMINALS section")
    if not 1 <= root <= node_count:
        raise ParseError(f"root {root} out of range 1..{node_count}")
    for t in sorted(terminals):
        if not 1 <= t <= node_count:
            raise ParseError(f"terminal {t} out of range 1..{node_count}")
    for i, arc in enumerate(arcs):
        for endpoint in (arc.tail, arc.head):
            if not 1 <= endpoint <= node_count:
                raise ParseError(f"arc {i}: node {endpoint} out of range 1..{node_count}")

    return Instance(
        node_count=node_count,
        root=root,
        terminals=frozenset(terminals),
        arcs=tuple(arcs),
        family=family or FAMILY_UNKNOWN,
        minor_r=minor_r,
    )


def serialize_instance(inst: Instance) -> str:
    """Render an instance in the file format; parse(serialize(x)) == x."""
    lines = [f"NODES {inst.node_count}", f"ROOT {inst.root}"]
    lines.append("TERMINALS" + "".join(f" {t}" for t in sorted(inst.terminals)))
    if inst.family == FAMILY_MINOR_FREE:
        lines.append(f"FAMILY minor_free {inst.minor_r}")
    else:
        lines.append(f"FAMILY {inst.family}")
    for arc in inst.arcs:
        lines.append(f"ARC {arc.tail} {arc.head} {arc.cost}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def instance_hash(inst: Instance) -> str:
    import hashlib  # imported here so that gen, the oracle and the CLI start without it

    return hashlib.sha256(serialize_instance(inst).encode("utf-8")).hexdigest()


class ArcGraph:
    """A subset of an instance's arcs that only grows, built only through
    `add`, with its adjacency kept: `ids` holds the arc ids, `heads[u]` the
    heads of the arcs leaving u and `tails[v]` the tails of the arcs
    entering v.  Adding an arc costs O(1), and a search costs only what it
    visits."""

    def __init__(self, inst: Instance, arc_ids: Iterable[int] = ()) -> None:
        self.arcs = inst.arcs
        self.ids: set[int] = set()
        self.heads: dict[int, list[int]] = {}
        self.tails: dict[int, list[int]] = {}
        for arc_id in arc_ids:
            self.add(arc_id)

    def add(self, arc_id: int) -> None:
        """Put one arc into the subset; an arc already in it is ignored."""
        if arc_id in self.ids:
            return
        tail, head, _ = self.arcs[arc_id]
        self.ids.add(arc_id)
        self.heads.setdefault(tail, []).append(head)
        self.tails.setdefault(head, []).append(tail)

    def reach(
        self,
        sources: Iterable[int],
        backward: bool = False,
        within: set[int] | None = None,
    ) -> set[int]:
        """The sources and every node reachable from them over the subset;
        with `backward`, every node that reaches them instead.  With
        `within`, the search enters only the nodes of that set."""
        adjacency = self.tails if backward else self.heads
        seen = set(sources)
        work = list(seen)
        while work:
            for w in adjacency.get(work.pop(), ()):
                if w not in seen and (within is None or w in within):
                    seen.add(w)
                    work.append(w)
        return seen


def is_feasible(inst: Instance, arc_ids: Iterable[int]) -> bool:
    """True iff every terminal is reachable from the root over `arc_ids`."""
    return inst.terminals <= ArcGraph(inst, arc_ids).reach([inst.root])


def _family_violation(family: str, minor_r: int | None) -> str | None:
    """What is wrong with a family declaration, or None when a FAMILY line
    can express it: a known tag, and an integer r >= 2 exactly for
    minor_free.  The one family rule of `parse_instance` and `validate`."""
    if family == FAMILY_MINOR_FREE:
        if minor_r is None:
            return "FAMILY minor_free expects an integer r"
        if minor_r < 2:
            return f"FAMILY minor_free needs r >= 2, got {minor_r}"
    elif family not in (FAMILY_PLANAR_BIPARTITE, FAMILY_UNKNOWN):
        return f"unknown family tag {family!r}"
    elif minor_r is not None:
        return f"FAMILY {family} takes no parameter"
    return None


def validate(inst: Instance) -> list[str]:
    """Check all instance invariants; returns a list of violations.

    An empty report means: well-formed ids, root not a terminal, no
    negative costs, no self-loops, no parallel duplicates, quasi-bipartite
    (no Steiner-to-Steiner arc), every terminal reachable from the root
    over the full arc set, and a family declaration a FAMILY line can
    express, so that the instance round-trips through the file format.
    """
    violations: list[str] = []
    n = inst.node_count
    if not 1 <= inst.root <= n:
        violations.append(f"root {inst.root} out of range 1..{n}")
    for t in sorted(inst.terminals):
        if not 1 <= t <= n:
            violations.append(f"terminal {t} out of range 1..{n}")
    if inst.root in inst.terminals:
        violations.append(f"root {inst.root} listed as terminal")

    seen_pairs: dict[tuple[int, int], int] = {}
    for i, arc in enumerate(inst.arcs):
        name = f"arc {i} ({arc.tail}->{arc.head})"
        if not (1 <= arc.tail <= n and 1 <= arc.head <= n):
            violations.append(f"{name}: endpoint out of range")
            continue
        if arc.tail == arc.head:
            violations.append(f"{name}: self-loop")
        if arc.cost < 0:
            violations.append(f"{name}: negative cost {arc.cost}")
        if inst.is_steiner(arc.tail) and inst.is_steiner(arc.head):
            violations.append(f"{name}: quasi-bipartite violation (both endpoints Steiner)")
        key = (arc.tail, arc.head)
        if key in seen_pairs:
            violations.append(f"{name}: parallel duplicate of arc {seen_pairs[key]}")
        else:
            seen_pairs[key] = i

    if not violations:
        reached = ArcGraph(inst, range(len(inst.arcs))).reach([inst.root])
        for t in sorted(inst.terminals):
            if t not in reached:
                violations.append(f"terminal {t}: unreachable from root")
    problem = _family_violation(inst.family, inst.minor_r)
    if problem is not None:
        violations.append(problem)
    return violations


def require_valid(inst: Instance) -> None:
    violations = validate(inst)
    if violations:
        raise InvalidInstanceError(violations)


def normalize_parallel(inst: Instance) -> Instance:
    """Keep only the cheapest arc in each parallel group (ties: smallest
    ArcId); opposite orientations are not parallel.  Relative order of the
    surviving arcs is unchanged."""
    best: dict[tuple[int, int], int] = {}
    for i, arc in enumerate(inst.arcs):
        key = (arc.tail, arc.head)
        if key not in best or arc.cost < inst.arcs[best[key]].cost:
            best[key] = i
    keep = set(best.values())
    arcs = tuple(arc for i, arc in enumerate(inst.arcs) if i in keep)
    if len(arcs) == len(inst.arcs):
        return inst
    return inst._replace(arcs=arcs)
