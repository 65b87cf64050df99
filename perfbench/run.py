"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client sends the workload's requests one at a time through
``gallai.cli.main(argv)``, with stdout captured and files in a scratch
directory under ``.perfbench_run/``.  The request list is sent in passes
until ``--seconds`` have gone by (at least three passes).  Each pass runs in
a fresh interpreter (``client.py``): import, the warm-up requests, then the
list once, so no pass finds what an earlier pass left in the program's
process-wide caches.  Before each request the pass times a fixed loop
(``client.calibrate``), and each pass's times are divided by how much slower
than usual that loop ran in it, so a slow phase of a shared machine does not
read as a slower program.  A request's latency is then its median over the
passes, and setup_s is the median set-up time of the passes, scaled the same
way (see ``setup``).  Every output
is checked by ``checker.py`` outside the timed region.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, which
alternates traced and untraced passes.  See README.md for the metrics and the
workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from client import CALIBRATION_REF_S, IMPORT_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
MIN_PASSES = 3
# No pass starts unless it would end by then, so a slow program still exits
# within three minutes.
HARD_LIMIT_S = 150.0
SPEED_WINDOW = 10  # calibrations on each side of a request that set its speed


class Run:
    """The passes of one run, each in its own ``client.py`` process."""

    def __init__(self, args, workdir: str) -> None:
        self.args, self.workdir = args, workdir
        self.known = os.path.join(workdir, "known.json")
        Path(self.known).write_text("{}")
        self.passes: list[dict] = []
        self.attempted = self.failed = self.unknown = 0
        self.failures: list[str] = []
        self.last_s = 0.0  # how long the latest pass's process took

    def run_pass(self, t0: float, spans: str | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "client.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--requests", str(self.args.requests),
               "--dir", self.workdir, "--known", self.known]
        if spans:
            cmd += ["--spans", spans]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, HARD_LIMIT_S + 20 - (start - t0)))
        self.last_s = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"pass failed: {done.stderr.strip()[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        known = json.loads(Path(self.known).read_text())
        known.update(result["new"])
        Path(self.known).write_text(json.dumps(known))
        for outcome in result["outcomes"]:
            self.attempted += 1
            if outcome == "unknown":
                self.unknown += 1
            elif outcome != "ok":
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(outcome)
        self.passes.append(result)
        return result

    def may_start_pass(self, t0: float, deadline: float) -> bool:
        now = time.perf_counter()
        return now < deadline and now - t0 + 2 * self.last_s < HARD_LIMIT_S


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def speed(p: dict, i: int) -> float:
    """How much slower than usual the machine ran around request ``i`` of
    pass ``p``: the median of the calibrations within SPEED_WINDOW requests
    of it, over their usual time."""
    window = p["calibrations"][max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
    return statistics.median(window) / CALIBRATION_REF_S


def setup(p: dict) -> float:
    """Pass ``p``'s import and warm-up time at the machine's usual speed.

    The import is scaled by the reference import timed just before it, the
    warm-up by the calibrations after it."""
    return (p["import_s"] * IMPORT_REF_S / p["import_reference_s"]
            + p["warmup_s"] / speed(p, 0))


def end_to_end(run: Run, t0: float, deadline: float) -> dict[str, float]:
    """Times are scaled to the machine's usual speed, so a slow phase of a
    shared machine does not read as a slower program."""
    while len(run.passes) < MIN_PASSES or run.may_start_pass(t0, deadline):
        run.run_pass(t0)
    scaled = [[t / speed(p, i) for i, t in enumerate(p["latencies"])] for p in run.passes]
    per_request = [statistics.median(lat) for lat in zip(*scaled)]
    ordered = sorted(per_request)
    return {
        "ops_per_s": len(per_request) / sum(per_request),
        "latency_p50_ms": 1000 * nearest_rank(ordered, 0.5),
        "latency_p90_ms": 1000 * nearest_rank(ordered, 0.9),
        "ok_ratio": 1 - run.failed / run.attempted,
        "answered_ratio": 1 - run.unknown / run.attempted,
        "setup_s": statistics.median(setup(p) for p in run.passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
    }


def traced_run(run: Run, t0: float, deadline: float) -> dict[str, float]:
    """Traced and untraced passes in turn, at least one of each."""
    traced: list[dict] = []
    plain: list[dict] = []
    while not plain or run.may_start_pass(t0, deadline):
        spans = RUN_DIR / f"spans-{run.args.workload}-{len(traced)}.jsonl"
        traced.append(run.run_pass(t0, str(spans)))
        plain.append(run.run_pass(t0))
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics.update({
        "cli.bytes_out": statistics.median(p["bytes_out"] for p in traced),
        "cli.bytes_in": statistics.median(p["bytes_in"] for p in traced),
        "trace.wall_s": statistics.median(p["wall_s"] for p in traced),
        "trace.bench_s": statistics.median(p["wall_s"] - p["layers"]["trace.requests_s"]
                                           for p in traced),
        "trace.overhead_ratio": statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1,
    })
    del metrics["trace.requests_s"]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=None,
                    help="distinct requests per pass (default: the workload's, see workloads.py); "
                         "small values are for smoke tests")
    args = ap.parse_args()
    t0 = time.perf_counter()

    src = ROOT / "src" / "gallai"
    if not (src / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gallai
    from gallai import cli

    if Path(gallai.__file__).resolve().parent != src.resolve():
        print(f"error: imported gallai from {gallai.__file__}, not {src}", file=sys.stderr)
        return 2
    args.requests = args.requests or workloads.DEFAULT_REQUESTS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUN_DIR, prefix=f"{args.workload}-")
    try:
        workloads.write_inputs(cli, workloads.build(args.workload, args.seed, workdir,
                                                    args.requests))
        run = Run(args, workdir)
        deadline = time.perf_counter() + args.seconds
        metrics = (traced_run if args.trace else end_to_end)(run, t0, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}

    print(f"{args.workload} seed {args.seed}: {len(run.passes[0]['latencies'])} latency samples "
          f"(requests), {len(run.passes)} passes, {run.attempted} attempted, {run.failed} failed, "
          f"{run.unknown} unknown")
    if not args.trace:
        slowdown = statistics.median(c for p in run.passes for c in p["calibrations"])
        print(f"  {'machine speed':<36} {slowdown / CALIBRATION_REF_S:.4g} x the usual time of"
              " client.calibrate (the times below are divided by it)")
    print(f"  {'fail_ratio':<36} {run.failed / run.attempted:.6g} ratio")
    print(f"  {'unknown_ratio':<36} {run.unknown / run.attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
