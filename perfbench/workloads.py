"""The three workloads: seeded streams of CLI requests, and their warm-ups.

Every request is one ``argv`` for ``gallai.cli.main`` plus the check its
output must pass.  A workload is built from the seed alone, so the same seed
always gives the same requests.  certify-roundtrip also reads recolored
inputs, which ``write_inputs`` writes with the program's own ``random``
command.

Costs inside each workload vary a lot between requests, so the streams are
stratified to keep one run's total work steady across seeds: vertex counts
and other parameters are drawn on a jittered lattice over their ranges, and
the oracle pool is sampled one entry per stratum of similar pinned cost.
On certify-roundtrip the lattice halves the seed-to-seed spread of plain
draws (README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import checker

# Requests per pass.  oracle-small sends more, because its latencies near p90
# are spread thin: with 100 requests, which pool entries a seed draws moved
# latency_p90_ms by about 7%, with 140 by about 3%.
DEFAULT_REQUESTS = {"construct-sweep": 100, "oracle-small": 140, "certify-roundtrip": 100}
MAX_COLORS = 5  # the default of ``gallai random --max-colors``

# construct-sweep shares of the stream; construct-div takes the rest, 0.4.
SWEEP_SHARES = {"balanced": 0.2, "k34": 0.15, "k5": 0.15, "best-effort": 0.1}
# Best-effort pool entries that took at least this long when pinned form the
# tail (6 of 400).  Drawn at random, one 0.2-2.3 s request in a pass of about
# 5 s would swing a run's throughput by up to a third from seed to seed, so
# the tail is represented by one fixed entry in every stream instead.  The
# other best-effort requests are drawn from the entries pinned ``built``, so
# every stream gives up on the same number of requests (the tail's one).
TAIL_SECONDS = 0.1
# Star search proves no special coloring exists, then construct gives up.
TAIL_ENTRY = (19, [57, 38, 23, 20, 19, 12, 1, 1])


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str, Optional[bytes]], checker.Outcome]
    out_file: Optional[str] = None  # removed before each run, checked after
    in_file: Optional[str] = None  # read by the request, checked after
    recolor: Optional[tuple[int, int, int]] = None  # (n, seed, edge) of in_file, see write_inputs

    @property
    def data_file(self) -> Optional[str]:
        return self.out_file or self.in_file


def lattice(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """``count`` points of [0, 1)^2, one in each row and each column of a
    count x count grid.

    Row i meets column i*a mod count, with a near 0.618*count and coprime to
    it, so the points cover the square evenly for every seed; the seed only
    moves each point within its cell.  Two parameters drawn this way vary
    jointly the same way in every stream.
    """
    a = max(1, round(0.618 * count))
    while math.gcd(a, count) != 1:
        a += 1
    return [((i + rng.random()) / count, ((i * a) % count + rng.random()) / count)
            for i in range(count)]


def scale(x: float, lo: int, hi: int) -> int:
    """The integer of lo..hi at quantile x of [0, 1)."""
    return lo + int(x * (hi - lo + 1))


def random_sizes(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """k positive class sizes summing to the edges of K_n, from uniform cuts."""
    e = checker.edge_count(n)
    cuts = sorted(rng.sample(range(1, e), k - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [e])), reverse=True))


def _dist(sizes: tuple[int, ...]) -> str:
    return ",".join(map(str, sizes))


def _construct(out: str, n: int, sizes: tuple[int, ...], pinned: str = "built") -> Request:
    argv = ("construct", "--n", str(n), "--dist", _dist(sizes), "--out", out)
    check = partial(checker.check_construct, n=n, sizes=sizes, out=out, special=False,
                    pinned=pinned, echo=True)
    return Request(argv, check, out_file=out)


def _division(out: str, n: int, u: float) -> Request:
    """The (k, p) pair at quantile u of all pairs with p >= n-1 and k*p <= the
    edges of K_n, ordered by k and then p."""
    e = checker.edge_count(n)
    rank = int(u * sum(e // k - n + 2 for k in range(1, e // (n - 1) + 1)))
    k = 1
    while rank >= e // k - n + 2:
        rank -= e // k - n + 2
        k += 1
    p = n - 1 + rank
    q = e - k * p
    sizes = tuple(sorted([p] * k + ([q] if q else []), reverse=True))
    argv = ("construct-div", "--n", str(n), "--k", str(k), "--p", str(p), "--q", str(q), "--out", out)
    check = partial(checker.check_construct, n=n, sizes=sizes, out=out, special=True,
                    pinned="built", echo=False)
    return Request(argv, check, out_file=out)


def _balanced(out: str, n: int, u: float) -> Request:
    """k at quantile u of 1..ceil(n/2)."""
    k = 1 + int(u * ((n + 1) // 2))
    small, extra = divmod(checker.edge_count(n), k)
    sizes = (small + 1,) * extra + (small,) * (k - extra)
    argv = ("construct-balanced", "--n", str(n), "--k", str(k), "--out", out)
    check = partial(checker.check_construct, n=n, sizes=sizes, out=out, special=True,
                    pinned="built", echo=False)
    return Request(argv, check, out_file=out)


def construct_sweep(rng: random.Random, workdir: str, count: int) -> list[Request]:
    """Division, balanced, guaranteed and best-effort constructions.

    Samples the regions tier-1 criteria 3, 4 and 6 sweep, at larger n.
    """
    counts = {name: round(count * share) for name, share in SWEEP_SHARES.items()}
    counts["div"] = count - sum(counts.values())
    out = iter(os.path.join(workdir, f"c{i}.coloring") for i in range(count))
    reqs = [_division(next(out), scale(x, 40, 200), u) for x, u in lattice(rng, counts["div"])]
    reqs += [_balanced(next(out), scale(x, 40, 200), u) for x, u in lattice(rng, counts["balanced"])]
    for x, u in lattice(rng, counts["k34"]):
        n = scale(x, 60, 200)
        reqs.append(_construct(next(out), n, random_sizes(rng, n, 3 + (u < 0.5))))
    for x, _ in lattice(rng, counts["k5"]):
        n = scale(x, 201, 215)
        reqs.append(_construct(next(out), n, random_sizes(rng, n, 5)))
    if counts["best-effort"]:
        pool = json.loads((checker.DATA / "best_effort_pool.json").read_text())
        tail = next(r for r in pool if (r["n"], r["sizes"]) == TAIL_ENTRY)
        body = [r for r in pool if r["seconds"] < TAIL_SECONDS and r["outcome"] == "built"]
        picks = [tail] + rng.sample(body, counts["best-effort"] - 1)
        reqs += [_construct(next(out), r["n"], tuple(r["sizes"]), r["outcome"])
                 for r in picks]
    rng.shuffle(reqs)
    return reqs


def oracle_small(rng: random.Random, workdir: str, count: int) -> list[Request]:
    """Exhaustive-search requests: the pool's costliest entry, and one entry
    from each of ``count - 1`` strata of the rest.

    The pool (every 4-part distribution of K_7 and K_8, every 5-part one of
    K_6 and K_7) is ordered by the time pinned with each request and cut into
    strata of consecutive entries.  The costliest entry has taken 1.2-1.6
    times as long as the next; left to the draw, it would move a run's
    throughput by several percent from seed to seed, so every stream holds it.
    """
    *body, tail = sorted(checker.load_oracle_table(),
                         key=lambda r: (r["seconds"], r["n"], r["sizes"]))
    strata = count - 1
    if not 1 <= strata <= len(body):
        raise ValueError(f"oracle-small takes 2..{len(body) + 1} requests, got {count}")
    rows = [rng.choice(body[len(body) * i // strata: len(body) * (i + 1) // strata])
            for i in range(strata)] + [tail]
    reqs = []
    for i, row in enumerate(rows):
        n, sizes = row["n"], tuple(row["sizes"])
        out = os.path.join(workdir, f"w{i}.coloring")
        argv = ("oracle", "--n", str(n), "--dist", _dist(sizes), "--out", out)
        check = partial(checker.check_oracle, n=n, sizes=sizes, out=out, verdict=row["verdict"])
        reqs.append(Request(argv, check, out_file=out))
    rng.shuffle(reqs)
    return reqs


def _recolor_one_edge(text: str, index: int) -> str:
    """The coloring with edge ``index`` (lexicographic) moved to a fresh color."""
    lines = text.split("\n")
    n, k = lines[0].split()
    u, v, _ = lines[1 + index].split()
    lines[0] = f"{n} {int(k) + 1}"
    lines[1 + index] = f"{u} {v} {int(k) + 1}"
    return "\n".join(lines)


def certify_roundtrip(rng: random.Random, workdir: str, count: int) -> list[Request]:
    """Items of three requests: write a random coloring, verify it, verify a
    recolored copy of the same coloring (written by ``write_inputs``)."""
    reqs = []
    for i, (x, u) in enumerate(lattice(rng, -(-count // 3))):
        n = scale(x, 100, 300)
        edge = int(u * checker.edge_count(n))  # where the scan of g can stop
        seed = rng.randrange(2**31)
        f = os.path.join(workdir, f"f{i}.coloring")
        g = os.path.join(workdir, f"g{i}.coloring")
        argv = ("random", "--n", str(n), "--seed", str(seed), "--out", f)
        reqs.append(Request(argv, partial(checker.check_random, n=n, out=f, max_colors=MAX_COLORS),
                            out_file=f))
        reqs.append(Request(("verify", f), checker.check_verify, in_file=f))
        reqs.append(Request(("verify", g), checker.check_verify, in_file=g,
                            recolor=(n, seed, edge)))
    return reqs


def write_inputs(cli, requests: list[Request]) -> None:
    """Write the input file of every request that reads a recolored coloring.

    Run this in another process than the timed requests, so that nothing the
    program caches while writing them can serve a timed request.
    """
    for req in requests:
        if req.recolor is None:
            continue
        n, seed, edge = req.recolor
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["random", "--n", str(n), "--seed", str(seed), "--out", req.in_file]) != 0:
                raise RuntimeError(f"random --n {n} --seed {seed} failed while writing inputs")
        with open(req.in_file) as fh:
            text = fh.read()
        with open(req.in_file, "w") as fh:
            fh.write(_recolor_one_edge(text, edge))


BUILDERS = {
    "construct-sweep": construct_sweep,
    "oracle-small": oracle_small,
    "certify-roundtrip": certify_roundtrip,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, workdir: str, count: Optional[int] = None) -> list[Request]:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), workdir,
                          count or DEFAULT_REQUESTS[name])


def warmup(name: str, workdir: str) -> list[list[str]]:
    """One fixed, untimed request per command kind the workload sends.

    A long-lived caller pays import and first-call costs once; these requests
    pay them before timing starts.  They also fill process-wide caches such as
    ``construct._SMALL_MEMO`` (the K_8 base path), so work moved into import or
    warm-up shows in setup_s.
    """
    out = os.path.join(workdir, "warmup.coloring")
    if name == "construct-sweep":
        return [
            ["construct-div", "--n", "60", "--k", "5", "--p", "120", "--q", "1170", "--out", out],
            ["construct-balanced", "--n", "60", "--k", "9", "--out", out],
            ["construct", "--n", "80", "--dist", "1500,900,500,260", "--out", out],
            ["construct", "--n", "20", "--dist", "80,50,30,20,10", "--out", out],
        ]
    if name == "oracle-small":
        return [["oracle", "--n", "7", "--dist", "9,4,4,4", "--out", out]]
    return [
        ["random", "--n", "150", "--seed", "0", "--out", out],
        ["verify", out],
    ]


def run_warmup(cli, name: str, workdir: str) -> None:
    """Send the warm-up requests; each must be answered (exit 0 or 1)."""
    for argv in warmup(name, workdir):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc not in (0, 1):
            raise RuntimeError(f"warm-up {argv} exited {rc}")
