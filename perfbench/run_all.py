"""Run every workload once and print all its metrics by name with their units.

    python3 perfbench/run_all.py [--seed 1] [--seconds 36] [--trace 0|1]

Exits 1 if any run fails or finds a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
