"""One pass of a workload in a fresh interpreter.

    python3 perfbench/client.py --workload NAME --seed N --requests R --dir DIR
                                [--known FILE] [--spans FILE]

Imports the program, sends the warm-up requests, then sends the workload's
request list once through ``gallai.cli.main(argv)``, with stdout captured and
files in DIR (which must hold the workload's inputs, see
``workloads.write_inputs``).  Every answer is checked by ``checker.py``
outside the timed region, unless FILE from ``--known`` already holds the
outcome of an identical answer.  With ``--spans`` the pass is traced and its
spans are written to that file.

Prints one JSON object: the set-up times, each request's latency and outcome,
the outcomes of answers not seen before, and the layer metrics of a traced
pass.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The median time of ``calibrate`` on the machine that defined the benchmark,
# when it ran at its usual speed.
CALIBRATION_REF_S = 0.0022


# Standard-library modules that neither the program, numpy nor this benchmark
# imports, some with C extensions.  A fresh interpreter imports them just
# before ``import gallai``: importing is file, mapping and unmarshalling work,
# which on a shared machine slows in phases of its own that ``calibrate``
# does not follow.
IMPORT_REFERENCE = ("xml.dom.minidom", "email.mime.multipart", "http.client", "sqlite3",
                    "decimal", "tarfile", "difflib")
# The median time of importing them on the machine that defined the benchmark.
IMPORT_REF_S = 0.045


def import_reference() -> float:
    """Seconds importing IMPORT_REFERENCE took; call it once per interpreter."""
    start = time.perf_counter()
    for name in IMPORT_REFERENCE:
        importlib.import_module(name)
    return time.perf_counter() - start


@functools.cache
def _calibration_matrix():
    import numpy as np  # not at the top: ``import gallai`` is timed with its numpy import

    return np.arange(200 * 200, dtype=np.int32).reshape(200, 200) % 5


def calibrate() -> float:
    """Seconds a fixed mix of Python arithmetic, dict, string and sort work
    and small numpy comparisons takes: the machine's current speed for code
    like the program's.  None of it is the program's code."""
    matrix = _calibration_matrix()
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    counts: dict[str, int] = {}
    for i in range(1_500):
        key = f"k{i % 300}"
        counts[key] = counts.get(key, 0) + i
    sorted(((v, k) for k, v in counts.items()), reverse=True)
    sorted(range(2_000), key=lambda x: -x)
    for rows in (slice(0, 40), slice(40, 80)):
        total += int((matrix[rows, None, :] != matrix[None, rows, :]).sum())
    return time.perf_counter() - start


class Runner:
    """Sends the requests and checks every answer."""

    def __init__(self, cli, requests, known: dict[str, str] | None = None) -> None:
        self.cli, self.requests = cli, requests
        self.known = dict(known or {})  # digest of an answer -> its outcome
        self.new: dict[str, str] = {}
        self.outcomes: list[str] = []
        self.calibrations: list[float] = []
        self.bytes_in = self.bytes_out = 0

    def run_pass(self, tracer=None) -> tuple[list[float], float]:
        """Send every request once, each after one ``calibrate``; returns the
        latencies and the pass's wall time, which leaves out the checks and
        the calibrations."""
        latencies = []
        calibrated = len(self.calibrations)
        checking = 0.0
        start_pass = time.perf_counter()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = str(i)
            if req.out_file and os.path.exists(req.out_file):
                os.remove(req.out_file)
            self.calibrations.append(calibrate())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(list(req.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crash is a wrong answer, not the end of the run
                    rc = -1
                    print(f"crash: {exc!r}", file=err)
                latencies.append(time.perf_counter() - start)
            data = None
            if req.data_file and os.path.exists(req.data_file):
                with open(req.data_file, "rb") as fh:
                    data = fh.read()
            stdout = out.getvalue()
            self.bytes_out += len(stdout) + len(err.getvalue())
            if data is not None:
                if req.out_file:
                    self.bytes_out += len(data)
                else:
                    self.bytes_in += len(data)
            start_check = time.perf_counter()
            self.outcomes.append(self._outcome(i, req, rc, stdout, err.getvalue(), data))
            checking += time.perf_counter() - start_check
        calibrating = sum(self.calibrations[calibrated:])
        return latencies, time.perf_counter() - start_pass - checking - calibrating

    def _outcome(self, i, req, rc, stdout, stderr, data) -> str:
        import checker  # after the program's import, so that is timed alone

        digest = hashlib.blake2b(f"{i}\0{rc}\0{stdout}\0".encode())
        digest.update(data if data is not None else b"\0missing")
        key = digest.hexdigest()
        outcome = self.known.get(key)
        if outcome is None:
            outcome = req.check(rc, stdout, data)
            if outcome not in (checker.OK, checker.UNKNOWN):
                outcome = f"{' '.join(req.argv)}: {outcome}"
                if stderr:
                    outcome += f" [stderr: {stderr.strip()[-200:]}]"
            self.known[key] = self.new[key] = outcome
        return outcome


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--requests", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--known", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    reference = import_reference()
    start = time.perf_counter()
    from gallai import cli

    imported = time.perf_counter() - start
    import tracer as tracer_mod  # the benchmark's own code, outside the timed spans
    import workloads

    start = time.perf_counter()
    workloads.run_warmup(cli, args.workload, args.dir)
    warmup = time.perf_counter() - start

    requests = workloads.build(args.workload, args.seed, args.dir, args.requests)
    known = json.loads(Path(args.known).read_text()) if args.known else {}
    runner = Runner(cli, requests, known)
    tracer = None
    if args.spans:
        tracer = tracer_mod.Tracer()
        tracer.install()
    try:
        latencies, wall = runner.run_pass(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "import_s": imported,
        "import_reference_s": reference,
        "warmup_s": warmup,
        "latencies": latencies,
        "calibrations": runner.calibrations,
        "wall_s": wall,
        "outcomes": runner.outcomes,
        "new": runner.new,
        "bytes_in": runner.bytes_in,
        "bytes_out": runner.bytes_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer_mod.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
