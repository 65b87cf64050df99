"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checker  # noqa: E402
import client  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gallai import cli, core, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def metrics_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0",
                 "--requests", "9")
    got = metrics_of(done)
    assert list(got) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert got[m["name"]]["unit"] == m["unit"]
        assert got[m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in done.stdout.splitlines())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1",
                 "--requests", "9")
    got = {name: v["value"] for name, v in metrics_of(done).items()}
    assert list(got) == [m["name"] for m in SPEC["per_layer"]]
    assert got["cli.self_s"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_root_spans_cover_every_request(workload, tmp_path):
    # The layers' self times add up to the root spans' time, so the layers
    # account for the program's whole time only if there is one root span
    # per request, around all of it.
    requests = workloads.build(workload, 3, str(tmp_path), 9)
    workloads.write_inputs(cli, requests)
    spans_path = tmp_path / "spans.jsonl"
    done = subprocess.run([sys.executable, str(HERE / "client.py"), "--workload", workload,
                           "--seed", "3", "--requests", "9", "--dir", str(tmp_path),
                           "--spans", str(spans_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["outcomes"]) <= {checker.OK, checker.UNKNOWN}
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    roots = [s for s in spans if s["parent"] < 0]
    assert [(s["name"], s["request"]) for s in roots] == [("cli.main", str(i)) for i in range(9)]
    for span, latency in zip(roots, result["latencies"]):
        assert 0 < span["end"] - span["start"] <= latency
    covered = sum(s["end"] - s["start"] for s in roots)
    assert covered == pytest.approx(sum(result["latencies"]), rel=0.05)
    assert covered == pytest.approx(result["layers"]["trace.requests_s"], rel=1e-9)


def test_speed_follows_the_calibrations_near_each_request():
    ref = client.CALIBRATION_REF_S
    steady = {"calibrations": [ref] * 40}
    slow_phase = {"calibrations": [ref] * 20 + [2 * ref] * 20}
    assert run.speed(steady, 0) == run.speed(steady, 39) == 1
    assert run.speed(slow_phase, 0) == 1 and run.speed(slow_phase, 39) == 2
    # One stalled calibration does not move its neighbours' speed.
    stall = {"calibrations": [ref] * 20 + [50 * ref] + [ref] * 19}
    assert all(run.speed(stall, i) == 1 for i in range(40))


def test_same_seed_same_requests(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 5, str(tmp_path), 12)
        b = workloads.build(name, 5, str(tmp_path), 12)
        assert [r.argv for r in a] == [r.argv for r in b]
        assert [r.argv for r in a] != [r.argv for r in workloads.build(name, 6, str(tmp_path), 12)]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file() and f.suffix in (".py", ".md"):
            shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copytree(HERE / "data", tmp_path / "perfbench" / "data")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "oracle-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


# ---------------------------------------------------------------------------
# The checker counts wrong answers
# ---------------------------------------------------------------------------

def special_k5() -> str:
    """Special coloring of K_5 with star groups {4}, {3, 1}, {2}: sizes 4, 4, 2."""
    group = {1: 2, 2: 3, 3: 2, 4: 1}
    lines = ["5 3"] + [f"{u} {v} {group[v]}" for u in range(5) for v in range(u + 1, 5)]
    return "\n".join(lines) + "\n"


def plant(text: str, u: int, v: int, color: int) -> str:
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    index = sum(n - 1 - a for a in range(u)) + (v - u - 1)
    lines[1 + index] = f"{u} {v} {color}"
    return "\n".join(lines)


def test_checker_accepts_a_correct_construction():
    f = checker.facts(special_k5().encode())
    assert f.sizes == (4, 4, 2) and f.special and f.rainbow is None
    assert checker.check_construct(0, "coloring written to x\n", special_k5().encode(), n=5,
                                   sizes=(4, 4, 2), out="x", special=True, pinned="built",
                                   echo=False) == checker.OK


def test_checker_rejects_one_edge_planted_wrong():
    # Edge (0, 4) moves from color 1 to color 3: triangle 0-1-4 is rainbow.
    wrong = plant(special_k5(), 0, 4, 3).encode()
    assert checker.facts(wrong).rainbow is not None
    outcome = checker.check_construct(0, "coloring written to x\n", wrong, n=5, sizes=(4, 4, 2),
                                      out="x", special=True, pinned="built", echo=False)
    assert outcome not in (checker.OK, checker.UNKNOWN)
    verify_says_fine = "gallai: true\nsizes: 4,3,3\nnecessary-condition: pass\nspecial: false\n"
    assert checker.check_verify(0, verify_says_fine, wrong) not in (checker.OK, checker.UNKNOWN)


def test_checker_rejects_a_flipped_verdict():
    line = "distribution: 9,4,4,4 on K_7\n"
    assert checker.check_oracle(1, line + "infeasible (nodes explored: 5)\n", None, n=7,
                                sizes=(9, 4, 4, 4), out="w", verdict="infeasible") == checker.OK
    assert checker.check_oracle(0, line + "feasible (nodes explored: 5)\nwitness written to w\n",
                                special_k5().encode(), n=7, sizes=(9, 4, 4, 4), out="w",
                                verdict="infeasible") not in (checker.OK, checker.UNKNOWN)


def test_checker_rejects_giving_up_earlier_than_pinned():
    line = "distribution: 57,38,23,20,19,12,1,1 on K_19\n"
    no_special = "not constructed: unknown (no special coloring found and n too large for the oracle)"
    budget = "not constructed: unknown (star partition search exceeded its budget)"

    def outcome(stdout, pinned):
        return checker.check_construct(3, line + stdout + "\n", None, n=19,
                                       sizes=(57, 38, 23, 20, 19, 12, 1, 1), out="x",
                                       special=False, pinned=pinned, echo=True)

    assert outcome(no_special, "no-special") == checker.UNKNOWN
    assert outcome(budget, "budget") == checker.UNKNOWN
    assert outcome(budget, "no-special") not in (checker.OK, checker.UNKNOWN)
    assert outcome(no_special, "built") not in (checker.OK, checker.UNKNOWN)


def one_pass(name: str, tmp_path) -> client.Runner:
    runner = client.Runner(cli, workloads.build(name, 4, str(tmp_path), 9))
    runner.run_pass()
    return runner


def failures(runner: client.Runner) -> int:
    return sum(o not in (checker.OK, checker.UNKNOWN) for o in runner.outcomes)


def test_runner_counts_planted_edges_as_failures(tmp_path, monkeypatch):
    original = cli.serialize

    def planted(c):
        text = original(c)
        # Recolor edge (0, 1) with a color it does not have.
        color = 1 if c.edge_color(0, 1) != 1 else 2
        return plant(text.replace(f"{c.n} {c.k}\n", f"{c.n} {max(c.k, 2)}\n", 1), 0, 1, color)

    monkeypatch.setattr(cli, "serialize", planted)
    runner = one_pass("construct-sweep", tmp_path)
    assert failures(runner) == len(runner.outcomes) - runner.outcomes.count(checker.UNKNOWN) > 0


def test_runner_counts_flipped_verdicts_as_failures(tmp_path, monkeypatch):
    original = oracle.search_realizable

    def flipped(d, **kwargs):
        v = original(d, **kwargs)
        if v.is_feasible:
            return core.Verdict("infeasible", None, v.nodes_explored)
        return core.Verdict("feasible", core.Coloring(d.n, [1] * core.total_edges(d.n)),
                            v.nodes_explored)

    monkeypatch.setattr(oracle, "search_realizable", flipped)
    runner = one_pass("oracle-small", tmp_path)
    assert failures(runner) == len(runner.outcomes) == 9


def test_oracle_table_is_consistent_with_g4():
    rows = checker.load_oracle_table()
    assert len(rows) == 372
    infeasible = [r for r in rows if r["verdict"] == "infeasible"]
    assert len(infeasible) == 74
    by_shape = {(n, k): sum(1 for r in infeasible if r["n"] == n and len(r["sizes"]) == k)
                for n, k in checker.ORACLE_POOL_SHAPES}
    assert by_shape == {(7, 4): 1, (8, 4): 0, (6, 5): 24, (7, 5): 49}
