import ast
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qbdst import cli, engine
from qbdst.gen import gen_bad_example
from qbdst.instance import instance_hash, normalize_parallel, parse_instance, serialize_instance

from conftest import FOUR_NODE, SINGLE_ARC


SRC = Path(__file__).resolve().parent.parent / "src"


def _child_env() -> dict:
    # The child imports qbdst from this checkout, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qbdst", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
    )


@pytest.fixture
def single_arc_file(tmp_path: Path) -> Path:
    path = tmp_path / "single.txt"
    path.write_text(SINGLE_ARC, encoding="utf-8")
    return path


@pytest.fixture
def four_node_file(tmp_path: Path) -> Path:
    path = tmp_path / "four.txt"
    path.write_text(FOUR_NODE, encoding="utf-8")
    return path


def test_solve_single_arc(single_arc_file):
    result = run_cli("solve", str(single_arc_file))
    assert result.returncode == 0
    assert "cost 5" in result.stdout
    assert "lower_bound 5/2" in result.stdout


def test_solve_audit_four_node(four_node_file):
    result = run_cli("solve", str(four_node_file), "--audit", "--oracle")
    assert result.returncode == 0
    assert "cost 4" in result.stdout
    assert "opt 4" in result.stdout
    for line in (
        "payments_consistent true",
        "cost_identity_ok true",
        "dual_feasible_ok true",
        "lemmas_ok true",
    ):
        assert line in result.stdout


def test_solve_validation_failure(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n", encoding="utf-8")
    result = run_cli("solve", str(path))
    assert result.returncode == 1
    assert "unreachable" in result.stdout


def test_solve_parse_failure(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("NODES 2\nROOT 1\nARC 1 2 5\nEND\n", encoding="utf-8")
    result = run_cli("solve", str(path))
    assert result.returncode == 1


def test_solve_baseline_badexample_dual(tmp_path):
    bad = run_cli("gen", "badexample", "--k", "10", "--eps", "1/100")
    assert bad.returncode == 0
    path = tmp_path / "bad10.txt"
    path.write_text(bad.stdout, encoding="utf-8")
    result = run_cli("solve", str(path), "--baseline")
    assert result.returncode == 0
    # faithful baseline dual 2 + (k+2)/100
    assert "dual_total 53/25" in result.stdout


def test_solve_deterministic_output(four_node_file):
    first = run_cli("solve", str(four_node_file), "--audit")
    second = run_cli("solve", str(four_node_file), "--audit")
    assert first.stdout == second.stdout
    assert "wall_time_s" not in first.stdout
    assert first.stderr.startswith("wall_time_s ")



@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--audit"],
        ["--oracle"],
        ["--audit", "--oracle"],
        ["--decimal"],
        ["--audit", "--decimal"],
        ["--audit", "--oracle", "--decimal"],
    ],
    ids=str,
)
def test_solve_prints_each_ratio_once(tmp_path, capsys, flags):
    # Without --audit, solve prints its ratios; with it, only the audit
    # report's certified ones appear, ratio_vs_opt as n/a without --oracle.
    # Either way --decimal marks every non-integer ratio with its '~' value.
    path = tmp_path / "bad4.txt"
    path.write_text(serialize_instance(gen_bad_example(4, Fraction(1, 100))), encoding="utf-8")
    assert cli.main(["solve", str(path), *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    ratio = "ratio_vs_lb 506/203" + (" (~2.49261)" if "--decimal" in flags else "")
    assert [line for line in lines if line.startswith("ratio_vs_lb ")] == [ratio]
    if "--audit" in flags:
        alpha = "alpha_max 3/2" + (" (~1.5)" if "--decimal" in flags else "")
        assert [line for line in lines if line.startswith("alpha_max ")] == [alpha]
    opt_lines = [line for line in lines if line.startswith("ratio_vs_opt ")]
    if "--oracle" in flags:
        assert opt_lines == ["ratio_vs_opt 1"]
    else:
        assert opt_lines == (["ratio_vs_opt n/a"] if "--audit" in flags else [])

def test_gen_badexample_schema():
    result = run_cli("gen", "badexample", "--k", "3", "--eps", "1/100")
    assert result.returncode == 0
    assert "NODES 10" in result.stdout
    arc_lines = [l for l in result.stdout.splitlines() if l.startswith("ARC ")]
    assert len(arc_lines) == 14


def test_gen_grid_deterministic():
    a = run_cli("gen", "grid", "--width", "4", "--height", "4", "--seed", "7")
    b = run_cli("gen", "grid", "--width", "4", "--height", "4", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_gen_reduce_path(tmp_path):
    edges = tmp_path / "path.txt"
    edges.write_text("NODES 3\nEDGE 1 2\nEDGE 2 3\nEND\n", encoding="utf-8")
    result = run_cli("gen", "reduce", str(edges), "--planar")
    assert result.returncode == 0
    assert "NODES 5" in result.stdout
    assert "FAMILY planar_bipartite" in result.stdout


def test_oracle_command(four_node_file):
    result = run_cli("oracle", str(four_node_file))
    assert result.returncode == 0
    assert "opt 4" in result.stdout
    brute = run_cli("oracle", str(four_node_file), "--brute")
    assert "opt 4" in brute.stdout


def _star_file(path: Path, arcs: int, terminals: int) -> Path:
    """Arcs from the root 1 to nodes 2..arcs+1, the first `terminals` of
    them terminals."""
    lines = [f"NODES {arcs + 1}", "ROOT 1"]
    lines.append("TERMINALS " + " ".join(map(str, range(2, terminals + 2))))
    lines += [f"ARC 1 {v} 1" for v in range(2, arcs + 2)]
    lines.append("END")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_oracle_guard_exit_code(tmp_path):
    # The guard's error class lives in `instance`, so `main` maps it to
    # exit 3 whichever command raised it, with one line and no output.
    wide = _star_file(tmp_path / "wide.txt", 15, 15)
    many_arcs = _star_file(tmp_path / "many_arcs.txt", 21, 1)
    for argv in (
        ["oracle", str(wide)],
        ["solve", str(wide), "--oracle"],
        ["oracle", str(many_arcs), "--brute"],
    ):
        result = run_cli(*argv)
        assert result.returncode == 3, argv
        assert result.stdout == ""
        _one_error_line(result.stderr)


def test_trace_then_audit(tmp_path, four_node_file):
    trace_path = tmp_path / "trace.jsonl"
    solve_result = run_cli("solve", str(four_node_file), "--trace", str(trace_path))
    assert solve_result.returncode == 0
    audit_result = run_cli("audit", str(four_node_file), "--trace", str(trace_path))
    assert audit_result.returncode == 0
    assert "cost_identity_ok true" in audit_result.stdout


def test_audit_detects_tampered_trace(tmp_path, four_node_file):
    # Iteration 0's epsilon and, as the trace format requires, each of its
    # payments' amounts: a well-formed trace that the regrown run refutes.
    trace_path = tmp_path / "trace.jsonl"
    run_cli("solve", str(four_node_file), "--trace", str(trace_path))
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"1/1"', '"2/1"')
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run_cli("audit", str(four_node_file), "--trace", str(trace_path))
    assert result.returncode == 2
    assert "payments_consistent false" in result.stdout
    assert "divergence iteration 0 epsilon" in result.stdout.splitlines()


def test_audit_rejects_an_epsilon_its_amounts_disagree_with(tmp_path, capsys):
    # Iteration 0's epsilon alone: every amount is its record's epsilon, so
    # the trace is malformed, one error line and no report.
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    rows[1]["epsilon"] = "2/1"
    trace_path = tmp_path / "t.jsonl"
    assert _audit_in_process(inst_path, trace_path, [json.dumps(r) for r in rows]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace_path}: trace line 2: payments must be")
    assert captured.err.count("\n") == 1


def test_audit_hash_mismatch(tmp_path, four_node_file, single_arc_file):
    trace_path = tmp_path / "trace.jsonl"
    run_cli("solve", str(four_node_file), "--trace", str(trace_path))
    result = run_cli("audit", str(single_arc_file), "--trace", str(trace_path))
    assert result.returncode == 1
    assert "mismatch" in result.stderr


def test_bench_directory(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "a.txt").write_text(SINGLE_ARC, encoding="utf-8")
    (tmp_path / "bench" / "b.txt").write_text(FOUR_NODE, encoding="utf-8")
    result = run_cli("bench", str(tmp_path / "bench"))
    assert result.returncode == 0
    assert "summary instances=2 errors=0 breaches=0" in result.stdout


def test_bench_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    result = run_cli("bench", str(tmp_path / "empty"))
    assert result.returncode == 0
    assert "summary instances=0" in result.stdout


def test_bench_isolates_malformed_file(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "good.txt").write_text(SINGLE_ARC, encoding="utf-8")
    (bench / "broken.txt").write_text("NODES x\n", encoding="utf-8")
    result = run_cli("bench", str(bench))
    assert result.returncode == 0
    assert "broken.txt error" in result.stdout
    assert "good.txt cost=5" in result.stdout


def test_bench_jobs_parallel(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for i in range(3):
        (bench / f"inst{i}.txt").write_text(SINGLE_ARC, encoding="utf-8")
    serial = run_cli("bench", str(bench))
    parallel = run_cli("bench", str(bench), "--jobs", "2")
    assert serial.stdout == parallel.stdout


class _FakePool:
    """Stands in for multiprocessing.Pool: records its worker count and
    maps in this process, so the test starts no processes."""

    workers: list[int] = []

    def __init__(self, processes):
        _FakePool.workers.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_bench_jobs_capped_at_file_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("multiprocessing.Pool", _FakePool)
    monkeypatch.setattr(_FakePool, "workers", [])
    bench = tmp_path / "bench"
    bench.mkdir()
    for i in range(3):
        (bench / f"inst{i}.txt").write_text(SINGLE_ARC, encoding="utf-8")
    assert cli.main(["bench", str(bench), "--jobs", "64"]) == 0
    assert "summary instances=3 errors=0" in capsys.readouterr().out
    assert cli.main(["bench", str(bench), "--jobs", "2"]) == 0
    assert _FakePool.workers == [3, 2]
    (bench / "inst1.txt").unlink()
    (bench / "inst2.txt").unlink()
    assert cli.main(["bench", str(bench), "--jobs", "64"]) == 0
    assert _FakePool.workers == [3, 2]  # one file: no pool at all


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr("multiprocessing.Pool", _FakePool)
    monkeypatch.setattr(_FakePool, "workers", [])
    (tmp_path / "a.txt").write_text(SINGLE_ARC, encoding="utf-8")
    assert cli.main(["bench", str(tmp_path), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert _FakePool.workers == []


def test_decimal_flag(single_arc_file):
    result = run_cli("solve", str(single_arc_file), "--decimal")
    assert "lower_bound 5/2 (~2.5)" in result.stdout


@pytest.mark.parametrize(
    "cost, approx",
    [
        # (10^400 + 1)/2 overflows a float, and 1/(3*10^400) underflows to 0.
        ("1" + "0" * 399 + "1/2", "(~5e+399)"),
        ("1/3" + "0" * 400, "(~3.33333e-401)"),
    ],
    ids=["beyond_float_max", "below_float_min"],
)
@pytest.mark.parametrize(
    "argv",
    [["solve", "--decimal"], ["solve", "--decimal", "--audit"], ["oracle", "--decimal"]],
    ids=["solve", "solve_audit", "oracle"],
)
def test_decimal_beyond_float_range(tmp_path, cost, approx, argv):
    path = tmp_path / "huge.txt"
    path.write_text(f"NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 {cost}\nEND\n", encoding="utf-8")
    result = run_cli(argv[0], str(path), *argv[1:])
    assert result.returncode == 0
    cost_line = "opt " if argv[0] == "oracle" else "cost "
    assert any(
        line.startswith(cost_line) and line.endswith(approx) for line in result.stdout.splitlines()
    ), result.stdout
    assert all(line.startswith("wall_time_s ") for line in result.stderr.splitlines())


def _write_run(tmp_path: Path, inst_text: str) -> tuple[Path, list[dict]]:
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text(inst_text, encoding="utf-8")
    _, trace = engine.solve(normalize_parallel(parse_instance(inst_text)))
    buf = io.StringIO()
    engine.write_trace(trace, buf)
    return inst_path, [json.loads(line) for line in buf.getvalue().splitlines()]


def _audit_in_process(inst_path: Path, trace_path: Path, lines: list[str]) -> int:
    trace_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return cli.main(["audit", str(inst_path), "--trace", str(trace_path)])


@pytest.mark.parametrize(
    "row, key, value",
    [
        (1, "purchase", [99, "killer"]),  # arc 99 of a 4-arc instance
        (2, "payments", [[4, "killer", "3", "1/1"]]),  # arc id == |E|
    ],
)
def test_audit_rejects_arc_ids_beyond_instance(tmp_path, capsys, row, key, value):
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    rows[row][key] = value
    lines = [json.dumps(r) for r in rows]
    assert _audit_in_process(inst_path, tmp_path / "t.jsonl", lines) == 1
    assert "the instance has 4 arcs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, key, value, message",
    [
        (1, "moats", ["x", "3"], "trace line 2: moats must be"),
        (2, "payments", [[1, "killer", "3,", "1/1"]], "trace line 3: payments must be"),
    ],
)
def test_audit_rejects_malformed_moat_names(tmp_path, capsys, row, key, value, message):
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    rows[row][key] = value
    lines = [json.dumps(r) for r in rows]
    trace_path = tmp_path / "t.jsonl"
    assert _audit_in_process(inst_path, trace_path, lines) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace_path}: {message}")
    assert err.count("\n") == 1


def test_audit_validates_instance(tmp_path, capsys):
    # Terminal 3 is unreachable; the header carries this instance's hash.
    text = "NODES 3\nROOT 1\nTERMINALS 2 3\nARC 1 2 1\nEND\n"
    inst_path = tmp_path / "bad.txt"
    inst_path.write_text(text, encoding="utf-8")
    header = {
        "record": "header",
        "mode": "bucketed",
        "instance": instance_hash(parse_instance(text)),
        "nodes": 3,
        "root": 1,
        "terminals": [2, 3],
    }
    assert _audit_in_process(inst_path, tmp_path / "t.jsonl", [json.dumps(header)]) == 1
    assert "invalid: " in capsys.readouterr().out


def _set_row(index, key, value):
    def tamper(rows):
        rows[index][key] = value

    return tamper


@pytest.mark.parametrize(
    "tamper, divergence",
    [
        (_set_row(1, "kills", []), "iteration 0 kills"),
        (_set_row(3, "purchase", [0, "killer"]), "iteration 2 purchased"),
        (_set_row(2, "purchase", [3, "killer"]), "iteration 1 purchased"),
        (lambda rows: rows.append(rows[-1]), "iteration 3 count"),
        (lambda rows: rows.pop(), "iteration 2 count"),
    ],
    ids=["drop_kills", "swap_last_purchase", "flip_label", "append_last", "drop_last"],
)
def test_audit_names_divergence_in_process(tmp_path, capsys, tamper, divergence):
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    tamper(rows)
    lines = [json.dumps(r) for r in rows]
    assert _audit_in_process(inst_path, tmp_path / "t.jsonl", lines) == 2
    out = capsys.readouterr().out
    assert "payments_consistent false" in out
    assert f"\ndivergence {divergence}\n" in out


OTHER_TYPES = ("2", 2, 2.5, None, True, [], {})


def _leaves(value, path=()):
    """Paths to every value inside a JSON row, containers included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))


def _set(row, path, value):
    for step in path[:-1]:
        row = row[step]
    row[path[-1]] = value


def _get(row, path):
    for step in path:
        row = row[step]
    return row


def _mutate(rng: random.Random, rows: list[dict], arc_count: int) -> list[str]:
    rows = json.loads(json.dumps(rows))
    kind = rng.choice(("delete", "retype", "arc", "truncate"))
    target = rng.randrange(len(rows))
    row = rows[target]
    if kind == "delete":
        del row[rng.choice(sorted(row))]
    elif kind == "retype":
        path = rng.choice([p for p in _leaves(row) if p])
        old = _get(row, path)
        _set(row, path, rng.choice([v for v in OTHER_TYPES if type(v) is not type(old)]))
    elif kind == "arc":
        row = rng.choice(rows[1:])
        bad = rng.choice((arc_count, arc_count + rng.randrange(1, 50), -rng.randrange(1, 5)))
        if row["payments"] and rng.random() < 0.5:
            rng.choice(row["payments"])[0] = bad
        else:
            row["purchase"][0] = bad
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    if kind == "truncate":
        lines[target] = lines[target][: rng.randrange(len(lines[target]))]
    return lines


@pytest.mark.parametrize(
    "inst_text",
    [FOUR_NODE, serialize_instance(gen_bad_example(4, Fraction(1, 10)))],
    ids=["four_node", "bad_example_4"],
)
def test_audit_mutation_fuzz_never_raises(tmp_path, capsys, inst_text):
    rng = random.Random(2024)
    inst_path, rows = _write_run(tmp_path, inst_text)
    arc_count = len(parse_instance(inst_text).arcs)
    for trial in range(60):
        lines = _mutate(rng, rows, arc_count)
        code = _audit_in_process(inst_path, tmp_path / "t.jsonl", lines)
        captured = capsys.readouterr()
        assert code in (1, 2), (trial, lines)
        if code == 1:
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1


# Seeds of the keyword-file fuzz: each format's file, and the command that
# reads it.  The instance uses every record kind and each cost literal form.
KEYWORD_FILES = {
    "instance": (
        "# four nodes\nNODES 3\nROOT 1\nTERMINALS 2 3\nFAMILY minor_free 5\n"
        "ARC 1 2 3\nARC 1 3 3/2\nARC 3 2 0.5\nARC 2 3 1\nEND\n",
        ["solve", "{path}", "--audit"],
    ),
    "edges": (
        "# a 4-cycle\nNODES 4\nEDGE 1 2\nEDGE 2 3\n\nEDGE 3 4\nEDGE 4 1\nEND\n",
        ["gen", "reduce", "{path}"],
    ),
}
# Digits that are not ASCII: `int` reads the first two, not superscripts.
OTHER_DIGITS = (
    "".join(map(chr, range(0x660, 0x66A))),  # Arabic-Indic
    "".join(map(chr, range(0xFF10, 0xFF1A))),  # fullwidth
    "⁰¹²³⁴⁵⁶⁷⁸⁹",
)


def _other_number(rng: random.Random, token: str) -> str:
    """A huge stand-in for an integer token (past 64 bits, just under and
    past Python's 4300-digit parse limit), or the token in other digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randrange(10**18, 10**30))
    if kind == 1:
        return "9" * rng.choice((4299, 5000))
    return token.translate(str.maketrans("0123456789", rng.choice(OTHER_DIGITS)))


def _mutate_keyword_file(rng: random.Random, text: str) -> bytes:
    """`text` after one to three line, case, line-break or number edits,
    then a flipped bit in three files of ten."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "repeat", "swap", "case", "insert", "number", "crlf"))
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[j])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "case":
            lines[i] = "".join(rng.choice((c.lower(), c.upper())) for c in lines[i])
        elif kind == "insert":
            at = rng.randrange(len(lines[i]) + 1)
            brk = rng.choice(("\x0c", "\x85", "\u2028", "\r", "\r\n"))
            lines[i] = lines[i][:at] + brk + lines[i][at:]
        elif kind == "number":
            spans = [m.span() for m in re.finditer("[0-9]+", lines[i])]
            if spans:
                a, b = rng.choice(spans)
                lines[i] = lines[i][:a] + _other_number(rng, lines[i][a:b]) + lines[i][b:]
        else:
            lines = [line + "\r" for line in lines]
        lines = lines or [""]
    data = bytearray("\n".join(lines).encode("utf-8"))
    if data and rng.random() < 0.3:
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


@pytest.mark.parametrize("file_format", sorted(KEYWORD_FILES))
def test_keyword_file_mutation_fuzz_never_raises(tmp_path, capsys, file_format):
    # Exit 0, 1 or 2, never a traceback; exit 1 prints one `error:` line,
    # or, for an instance that parses but fails validation, only
    # `invalid:` lines on stdout.
    text, command = KEYWORD_FILES[file_format]
    path = tmp_path / "mutated.txt"
    argv = [arg.format(path=path) for arg in command]
    rng = random.Random(2025)
    for trial in range(250):
        data = _mutate_keyword_file(rng, text)
        path.write_bytes(data)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (trial, data)
        if code == 1 and captured.err:
            _one_error_line(captured.err)
        elif code == 1:
            assert captured.out.startswith("invalid: "), (trial, data)
            assert all(line.startswith("invalid: ") for line in captured.out.splitlines())


def _one_error_line(err: str) -> None:
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# Each bad input, written where a command expects a file.
BAD_INPUTS = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "non_utf8": lambda path: path.write_bytes(b"\xff\xfeNODES 3\n"),
    "truncated": lambda path: path.write_text(FOUR_NODE[:25], encoding="utf-8"),
    # Only '\n' ends a line, so this file is one line.
    "lone_cr": lambda path: path.write_bytes(FOUR_NODE.replace("\n", "\r").encode()),
    # Past Python's 4300-digit limit on reading an int, in a JSON trace too.
    "huge_int": lambda path: path.write_text('{"nodes": ' + "9" * 5000 + "}\n", encoding="utf-8"),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize(
    "command",
    [
        ["solve", "{bad}"],
        ["solve", "{bad}", "--audit", "--oracle"],
        ["oracle", "{bad}"],
        ["audit", "{bad}", "--trace", "{good}"],
        ["audit", "{good}", "--trace", "{bad}"],
    ],
    ids=["solve", "solve_audit", "oracle", "audit_instance", "audit_trace"],
)
def test_input_errors_exit_one_with_one_line(tmp_path, capsys, bad, command):
    bad_path = tmp_path / "bad"
    BAD_INPUTS[bad](bad_path)
    good = tmp_path / "four.txt"
    good.write_text(FOUR_NODE, encoding="utf-8")
    if "--trace" in command:
        # A trace the good instance audits clean, so only the bad file fails.
        assert cli.main(["solve", str(good), "--trace", str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        good = tmp_path / "t.jsonl" if command[-1] == "{good}" else good
    argv = [arg.format(bad=bad_path, good=good) for arg in command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)


def test_bench_isolates_every_input_error(tmp_path, capsys):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "good.txt").write_text(FOUR_NODE, encoding="utf-8")
    for bad in ("non_utf8", "truncated"):
        BAD_INPUTS[bad](bench / f"{bad}.txt")
    (bench / "subdir").mkdir()
    assert cli.main(["bench", str(bench)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split(" error ")[0] for line in lines if " error " in line] == [
        "non_utf8.txt",
        "truncated.txt",
    ]
    assert "good.txt cost=4 lb=2 ratio_lb=2 ratio_opt=1 audit=ok" in lines
    assert lines[-1].startswith("summary instances=3 errors=2 breaches=0")


def test_bench_prints_exact_ratios_and_their_maximum(tmp_path, capsys):
    # A zero-cost instance has no ratio: n/a, and left out of the maximum.
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "four.txt").write_text(FOUR_NODE, encoding="utf-8")
    free = SINGLE_ARC.replace("ARC 1 2 5", "ARC 1 2 0")
    (bench / "free.txt").write_text(free, encoding="utf-8")
    chain = serialize_instance(gen_bad_example(4, Fraction(1, 100)))
    (bench / "chain.txt").write_text(chain, encoding="utf-8")
    assert cli.main(["bench", str(bench)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "chain.txt cost=253/50 lb=203/100 ratio_lb=506/203 ratio_opt=1 audit=ok",
        "four.txt cost=4 lb=2 ratio_lb=2 ratio_opt=1 audit=ok",
        "free.txt cost=0 lb=0 ratio_lb=n/a ratio_opt=n/a audit=ok",
        "summary instances=3 errors=0 breaches=0 max_ratio_vs_lb=506/203",
    ]


def test_bench_bounds_the_oracle_by_touched_nodes(tmp_path, capsys):
    # The subset DP runs over the nodes the root, the terminals and the arcs
    # touch, so bench reports the optimum by that count, not by NODES: here
    # 3 of 100 declared nodes.
    bench = tmp_path / "bench"
    bench.mkdir()
    sparse = "NODES 100\nROOT 1\nTERMINALS 3\nARC 1 2 1\nARC 2 3 1\nEND\n"
    (bench / "sparse.txt").write_text(sparse, encoding="utf-8")
    assert cli.main(["bench", str(bench)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "sparse.txt cost=2 lb=1 ratio_lb=2 ratio_opt=1 audit=ok"
    )


@pytest.mark.parametrize("bad", ["missing", "file"])
def test_bench_rejects_non_directory(tmp_path, capsys, bad):
    path = tmp_path / "bench"
    if bad == "file":
        path.write_text(FOUR_NODE, encoding="utf-8")
    assert cli.main(["bench", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not a directory\n"


# Counts written with digits that str.isdigit() accepts and int() rejects.
NODES_SUPERSCRIPT = "NODES ²\nROOT 1\nTERMINALS 2\nARC 1 2 1\nEND\n"
MINOR_FREE_SUPERSCRIPT = "NODES 2\nROOT 1\nTERMINALS 2\nFAMILY minor_free ³\nARC 1 2 1\nEND\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("solve", NODES_SUPERSCRIPT, "line 1: NODES expects one integer"),
        ("solve", MINOR_FREE_SUPERSCRIPT, "line 4: FAMILY minor_free expects an integer r"),
        ("gen reduce", "NODES ²\nEDGE 1 2\nEND\n", "line 1: bad NODES record"),
        ("bench", NODES_SUPERSCRIPT, "line 1: NODES expects one integer"),
        ("bench", MINOR_FREE_SUPERSCRIPT, "line 4: FAMILY minor_free expects an integer r"),
    ],
    ids=["solve_nodes", "solve_minor_free", "gen_reduce_nodes", "bench_nodes", "bench_minor_free"],
)
def test_non_ascii_digit_counts_are_parse_errors(tmp_path, capsys, command, text, message):
    bench = tmp_path / "bench"
    bench.mkdir()
    path = bench / "bad.txt"
    path.write_text(text, encoding="utf-8")
    if command == "bench":
        # bench reports a bad file on its own line and goes on.
        assert cli.main(["bench", str(bench)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"bad.txt error {path}: {message}" in captured.out.splitlines()
        return
    assert cli.main([*command.split(), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_second_family_line_is_one_error_line(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text(
        "NODES 2\nROOT 1\nTERMINALS 2\nFAMILY minor_free 5\nFAMILY planar_bipartite\n"
        "ARC 1 2 1\nEND\n",
        encoding="utf-8",
    )
    result = run_cli("solve", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: line 5: duplicate FAMILY section\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("solve", "NODES 2\nROOT 1\nTERMINALS 2\nEND ARC 1 2 3\n", "line 4: content after END"),
        ("gen reduce", "NODES 2\nEND EDGE 1 2\n", "line 2: content after END"),
    ],
    ids=["solve", "gen_reduce"],
)
def test_fields_on_the_end_line_are_one_error_line(tmp_path, capsys, command, text, message):
    # Fields on the END line are an error, never silently dropped.
    path = tmp_path / "end.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main([*command.split(), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_unwritable_trace_leaves_stdout_empty(tmp_path, capsys, four_node_file):
    out = tmp_path / "no_such_dir" / "t.jsonl"
    assert cli.main(["solve", str(four_node_file), "--audit", "--trace", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)
    assert not out.parent.exists()


def test_trace_written_before_summary(tmp_path, capsys, four_node_file):
    out = tmp_path / "t.jsonl"
    assert cli.main(["solve", str(four_node_file), "--trace", str(out)]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["solve", str(four_node_file)]) == 0
    assert plain == capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith('{"instance": ')


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "badexample", "--k", "0", "--eps", "1/100"],
        ["gen", "badexample", "--k", "3", "--eps", "abc"],
        ["gen", "badexample", "--k", "3", "--eps", "1/0"],
        ["gen", "badexample", "--k", "3", "--eps", "1e-2"],
        ["gen", "grid", "--width", "3", "--height", "3", "--seed", "1", "--cost-lo", "5", "--cost-hi", "1"],
        ["gen", "grid", "--width", "3", "--height", "3", "--seed", "1", "--keep-prob", "3/2"],
        ["gen", "grid", "--width", "0", "--height", "3", "--seed", "1"],
    ],
    ids=[
        "k_0",
        "eps_abc",
        "eps_zero_denominator",
        "eps_exponent",
        "empty_cost_range",
        "keep_prob",
        "width",
    ],
)
def test_gen_argument_errors_exit_one_with_one_line(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)


@pytest.mark.parametrize(
    "argv",
    [["audit", "inst.txt"], ["frobnicate"], ["solve"], ["bench", "d", "--jobs", "x"]],
    ids=["audit_without_trace", "unknown_subcommand", "missing_instance", "jobs_not_int"],
)
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "usage: qbdst" in capsys.readouterr().out


STALLED = engine.EngineError("stalled growth")
# A plain ValueError from inside the solver is a bug, not bad input.
EMPTY_MIN = ValueError("min() arg is an empty sequence")


@pytest.mark.parametrize(
    "command, error",
    [("solve", STALLED), ("bench", STALLED), ("solve", EMPTY_MIN), ("bench", EMPTY_MIN)],
    ids=["solve", "bench", "solve_value_error", "bench_value_error"],
)
def test_engine_errors_keep_their_traceback(
    tmp_path, monkeypatch, four_node_file, command, error
):
    def broken(inst):
        raise error

    monkeypatch.setattr(engine, "solve", broken)
    target = four_node_file if command == "solve" else four_node_file.parent
    with pytest.raises(type(error)) as info:
        cli.main([command, str(target)])
    assert info.value is error


def test_load_errors_name_their_file(tmp_path, capsys, four_node_file):
    trace = tmp_path / "t.jsonl"
    assert cli.main(["solve", str(four_node_file), "--trace", str(trace)]) == 0
    capsys.readouterr()
    bad_inst, bad_trace = tmp_path / "inst.bin", tmp_path / "trace.bin"
    BAD_INPUTS["non_utf8"](bad_inst)
    BAD_INPUTS["non_utf8"](bad_trace)
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    errors = []
    for argv in (
        ["audit", str(bad_inst), "--trace", str(trace)],
        ["audit", str(four_node_file), "--trace", str(bad_trace)],
    ):
        assert cli.main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {bad_inst}: {decode}\n", f"error: {bad_trace}: {decode}\n"]

    bad_line = tmp_path / "bad.txt"
    bad_line.write_text("NODES 2\nROOT 1\nTERM 2\nEND\n", encoding="utf-8")
    assert cli.main(["solve", str(bad_line)]) == 1
    assert capsys.readouterr().err == f"error: {bad_line}: line 3: unknown record 'TERM'\n"
    edges = tmp_path / "edges.txt"
    edges.write_text("NODES 2\nEDGE 1 5\nEND\n", encoding="utf-8")
    assert cli.main(["gen", "reduce", str(edges)]) == 1
    assert capsys.readouterr().err == f"error: {edges}: line 2: edge (1,5) out of range\n"

    # Only '\n' ends a line: each file with lone '\r' line ends is one
    # line, and its CRLF version still reads.
    edges.write_text("NODES 2\nEDGE 1 2\nEND\n", encoding="utf-8")
    for path, argv, error in (
        (four_node_file, ["solve", str(four_node_file)], "line 1: NODES expects one integer"),
        (edges, ["gen", "reduce", str(edges)], "line 1: bad NODES record"),
        (
            trace,
            ["audit", str(four_node_file), "--trace", str(trace)],
            "trace line 1: not JSON (Extra data)",
        ),
    ):
        text = path.read_text(encoding="utf-8")
        path.write_bytes(text.replace("\n", "\r").encode())
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert cli.main(argv) == 0
        capsys.readouterr()


def test_audit_reads_the_trace_from_its_open_file(tmp_path, capsys, monkeypatch, four_node_file):
    # `read_trace` gets the open file, which it reads line by line, not a
    # copy of the file's text; the file is closed afterwards.
    trace = tmp_path / "t.jsonl"
    assert cli.main(["solve", str(four_node_file), "--trace", str(trace)]) == 0
    sources = []
    read_trace = engine.read_trace

    def spy(src):
        sources.append(src)
        return read_trace(src)

    monkeypatch.setattr(engine, "read_trace", spy)
    assert cli.main(["audit", str(four_node_file), "--trace", str(trace)]) == 0
    [src] = sources
    assert not isinstance(src, io.StringIO)
    assert src.name == str(trace)
    assert src.closed


def test_exponent_literals_are_one_error_line(tmp_path, capsys):
    # Instance costs and trace rationals share one exact literal rule with
    # the rational arguments (`eps_exponent` above): no exponent, which
    # Fraction alone would expand (1e10000000 takes it seconds to minutes).
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    exponent = tmp_path / "exponent.txt"
    exponent.write_text("NODES 2\nROOT 1\nTERMINALS 2\nARC 1 2 1e3\nEND\n", encoding="utf-8")
    assert cli.main(["solve", str(exponent)]) == 1
    assert capsys.readouterr().err == f"error: {exponent}: line 4: bad cost literal '1e3'\n"
    rows[1]["epsilon"] = "1e3"
    trace_path = tmp_path / "t.jsonl"
    assert _audit_in_process(inst_path, trace_path, [json.dumps(r) for r in rows]) == 1
    assert capsys.readouterr().err == (
        f"error: {trace_path}: trace line 2: epsilon must be an exact rational string\n"
    )


def test_audit_prints_the_certified_solution(tmp_path, capsys):
    # Iteration 0's epsilon and amounts raised to 100: the recorded duals
    # sum to 202, but the audit prints what it certified, the regrown run's
    # bound.
    inst_path, rows = _write_run(tmp_path, FOUR_NODE)
    rows[1]["epsilon"] = "100/1"
    for payment in rows[1]["payments"]:
        payment[3] = "100/1"
    lines = [json.dumps(r) for r in rows]
    assert _audit_in_process(inst_path, tmp_path / "t.jsonl", lines) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["cost 4", "lower_bound 2"]
    assert "ratio_vs_lb 2" in out
    assert "divergence iteration 0 epsilon" in out


WATCHED = {"numpy", "multiprocessing", "hashlib", "dataclasses", "inspect"}
CLI_LOADS = {"qbdst", "qbdst.cli", "qbdst.instance"}
SOLVE_LOADS = CLI_LOADS | {"qbdst.engine", "qbdst.moats", "qbdst.audit", "hashlib"}
ORACLE_LOADS = {"qbdst.oracle", "numpy"}
RUN_MAIN = "from qbdst import cli\nassert cli.main(sys.argv[1:]) == 0"


def _watched_after(statement: str, *argv: str) -> set:
    """Of the modules loaded in a fresh interpreter after `statement`, the
    package's own and those of WATCHED."""
    script = f"import sys\n{statement}\nprint(sorted(sys.modules), file=sys.stderr)\n"
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stderr.splitlines()[-1])
    return {m for m in loaded if m.split(".")[0] == "qbdst" or m in WATCHED}


@pytest.mark.parametrize(
    "statement, argv, loaded",
    [
        ("import qbdst", [], {"qbdst"}),
        ("import qbdst.cli", [], CLI_LOADS),
        (RUN_MAIN, ["gen", "badexample", "--k", "3", "--eps", "1/100"], CLI_LOADS | {"qbdst.gen"}),
        (RUN_MAIN, ["oracle", "{inst}"], CLI_LOADS | ORACLE_LOADS),
        (RUN_MAIN, ["solve", "{inst}"], SOLVE_LOADS),
        (RUN_MAIN, ["solve", "{inst}", "--audit"], SOLVE_LOADS),
        (RUN_MAIN, ["solve", "{inst}", "--oracle"], SOLVE_LOADS | ORACLE_LOADS),
        (RUN_MAIN, ["audit", "{inst}", "--trace", "{trace}"], SOLVE_LOADS),
        (RUN_MAIN, ["bench", "{bench}", "--jobs", "1"], SOLVE_LOADS | ORACLE_LOADS),
    ],
    ids=[
        "import_qbdst",
        "import_cli",
        "gen",
        "oracle",
        "solve",
        "solve_audit",
        "solve_oracle",
        "audit",
        "bench",
    ],
)
def test_each_start_loads_only_its_modules(tmp_path, capsys, statement, argv, loaded):
    # Every CLI start and every benchmark set-up pays for what it imports,
    # so each command imports only the modules it runs: the solver and the
    # audit run without numpy, only `bench --jobs` needs multiprocessing,
    # only the audit and a solve hash an instance, and no start loads
    # dataclasses or the inspect module it imports.
    bench = tmp_path / "bench"
    bench.mkdir()
    inst = bench / "four.txt"
    inst.write_text(FOUR_NODE, encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    assert cli.main(["solve", str(inst), "--trace", str(trace)]) == 0
    capsys.readouterr()
    if "numpy" in loaded:
        # What numpy loads itself (older numpy imports hashlib, numpy 2
        # inspect) is numpy's.
        loaded = loaded | _watched_after("import numpy")
    argv = [arg.format(inst=inst, trace=trace, bench=bench) for arg in argv]
    assert _watched_after(statement, *argv) == loaded


def test_solve_oracle_loads_numpy_before_the_clock(four_node_file):
    # wall_time_s times the run, not the imports: under --oracle, numpy,
    # which exact_opt_dp imports when called, is loaded before cmd_solve
    # first reads the clock.
    script = (
        "import sys, time\n"
        "from qbdst import cli\n"
        "clock, numpy_loaded = time.perf_counter, []\n"
        "def perf_counter():\n"
        "    numpy_loaded.append('numpy' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = perf_counter\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(numpy_loaded, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "solve", str(four_node_file), "--oracle"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stderr.splitlines()[-1]) == [True, True]
