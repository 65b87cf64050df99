"""Regenerate the pinned tables in data/ from the program in src/.

    python3 perfbench/pin_tables.py [--only oracle|best-effort]

The tables are inputs of the benchmark, so a change to the program must not
rerun this script: the pinned verdicts are what later runs are checked
against.

- ``oracle_pool.json``: every 4-part distribution of K_7 and K_8 and every
  5-part distribution of K_6 and K_7, with the oracle's verdict and the
  seconds its ``oracle`` request took through ``cli.main`` when pinned: the
  median of five rounds over the pool, each scaled to the machine's usual
  speed by its median ``client.calibrate`` time.  The time only orders the
  pool into strata of similar cost for sampling; it is never checked.
- ``best_effort_pool.json``: distributions with k = 5..8 on K_12..K_40 (below
  8k^2+1), drawn from a fixed stream, each with the outcome ``construct`` gave
  when pinned: ``built``, ``necessary`` (prefix-sum failure), ``no-special``
  (star search proved no special coloring exists, then gave up) or ``budget``
  (star search hit its node budget, then gave up).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gallai import cli, construct, oracle  # noqa: E402
from gallai.core import canonicalize  # noqa: E402

import checker  # noqa: E402
import client  # noqa: E402
import workloads  # noqa: E402

BEST_EFFORT_CANDIDATES = 400


def pin_oracle_pool(rounds: int = 5) -> list[dict]:
    rows = [{"n": n, "sizes": list(sizes),
             "verdict": oracle.search_realizable(canonicalize(sizes, n)).tag}
            for n, k in checker.ORACLE_POOL_SHAPES
            for sizes in checker.partitions(checker.edge_count(n), k)]
    times: list[list[float]] = [[] for _ in rows]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "w.coloring")
        for _ in range(rounds):
            latencies, calibrations = [], []
            for row in rows:
                calibrations.append(client.calibrate())
                argv = ["oracle", "--n", str(row["n"]), "--dist", ",".join(map(str, row["sizes"])),
                        "--out", out]
                with contextlib.redirect_stdout(io.StringIO()):
                    t = time.perf_counter()
                    cli.main(argv)
                    latencies.append(time.perf_counter() - t)
            speed = statistics.median(calibrations) / client.CALIBRATION_REF_S
            for row_times, latency in zip(times, latencies):
                row_times.append(latency / speed)
    for row, row_times in zip(rows, times):
        row["seconds"] = round(statistics.median(row_times), 6)
    return rows


def pin_best_effort_pool() -> list[dict]:
    rng = random.Random(0)
    rows = []
    for _ in range(BEST_EFFORT_CANDIDATES):
        k = rng.randint(5, 8)
        n = rng.randint(12, 40)
        sizes = workloads.random_sizes(rng, n, k)
        t = time.perf_counter()
        got = construct.construct_any(canonicalize(sizes, n))
        seconds = time.perf_counter() - t
        if not isinstance(got, construct.NotConstructed):
            outcome = "built"
        elif got.reason == "necessary-condition failure":
            outcome = "necessary"
        elif "budget" in got.detail:
            outcome = "budget"
        else:
            outcome = "no-special"
        rows.append({"n": n, "sizes": list(sizes), "outcome": outcome, "seconds": round(seconds, 3)})
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("oracle", "best-effort"), default=None,
                    help="pin one table and leave the other as it is")
    args = ap.parse_args()
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    if args.only != "best-effort":
        (data / "oracle_pool.json").write_text(json.dumps(pin_oracle_pool(), indent=0) + "\n")
        checker.load_oracle_table()
    if args.only != "oracle":
        (data / "best_effort_pool.json").write_text(
            json.dumps(pin_best_effort_pool(), indent=0) + "\n")


if __name__ == "__main__":
    main()
