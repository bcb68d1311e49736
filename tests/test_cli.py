import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qbdst import cli, engine
from qbdst.gen import gen_bad_example
from qbdst.instance import instance_hash, normalize_parallel, parse_instance, serialize_instance

from conftest import FOUR_NODE, SINGLE_ARC


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qbdst", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def strip_wall_time(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("wall_time_s")
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
    assert strip_wall_time(first.stdout) == strip_wall_time(second.stdout)


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


def test_oracle_guard_exit_code(tmp_path):
    lines = ["NODES 16", "ROOT 1", "TERMINALS " + " ".join(map(str, range(2, 17)))]
    lines += [f"ARC 1 {v} 1" for v in range(2, 17)]
    lines.append("END")
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run_cli("oracle", str(path))
    assert result.returncode == 3


def test_trace_then_audit(tmp_path, four_node_file):
    trace_path = tmp_path / "trace.jsonl"
    solve_result = run_cli("solve", str(four_node_file), "--trace", str(trace_path))
    assert solve_result.returncode == 0
    audit_result = run_cli("audit", str(four_node_file), "--trace", str(trace_path))
    assert audit_result.returncode == 0
    assert "cost_identity_ok true" in audit_result.stdout


def test_audit_detects_tampered_trace(tmp_path, four_node_file):
    trace_path = tmp_path / "trace.jsonl"
    run_cli("solve", str(four_node_file), "--trace", str(trace_path))
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"epsilon": "1/1"', '"epsilon": "2/1"')
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run_cli("audit", str(four_node_file), "--trace", str(trace_path))
    assert result.returncode == 2
    assert "payments_consistent false" in result.stdout


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


def test_decimal_flag(single_arc_file):
    result = run_cli("solve", str(single_arc_file), "--decimal")
    assert "lower_bound 5/2 (~2.5)" in result.stdout


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
