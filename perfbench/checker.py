"""Independent checks of the program's outputs.

Nothing here imports the package under test: coloring files are parsed from
their text, rainbow triangles, class sizes and the special property are
recomputed with numpy, and oracle verdicts are compared against a pinned
reference table.  Each ``check_*`` function takes what one CLI request left
behind (exit code, stdout, the bytes of the file it wrote or read) and returns
``OK``, ``UNKNOWN`` or a string describing the failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

OK = "ok"
UNKNOWN = "unknown"
Outcome = str  # OK, UNKNOWN, or a failure message

DATA = Path(__file__).resolve().parent / "data"


class CheckFail(Exception):
    """An output violates the file format or a promised property."""


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def partitions(total: int, parts: int, cap: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of ``parts`` positive integers summing to ``total``."""
    cap = total if cap is None else cap
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total - parts + 1), 0, -1):
        if first * parts < total:
            break
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def necessary_fails_at(sizes: tuple[int, ...], n: int) -> Optional[int]:
    """Smallest l whose top-l classes cover fewer than (n-1)+...+(n-l) edges."""
    covered = bound = 0
    for ell, size in enumerate(sorted(sizes, reverse=True), start=1):
        covered += size
        bound += n - ell
        if covered < bound:
            return ell
    return None


# ---------------------------------------------------------------------------
# Coloring files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Facts:
    """What a coloring file says, recomputed from scratch."""

    n: int
    sizes: tuple[int, ...]  # non-increasing
    rainbow: Optional[tuple[int, int, int]]
    special: bool
    matrix: np.ndarray


def parse_coloring(data: Optional[bytes]) -> tuple[int, np.ndarray]:
    """Parse the text format into (n, symmetric color matrix); raise CheckFail."""
    if data is None:
        raise CheckFail("expected coloring file is missing")
    text = data.decode("ascii")
    head, _, body = text.partition("\n")
    try:
        n, k = (int(tok) for tok in head.split())
        nums = np.array(body.split(), dtype=np.int64)
    except ValueError as exc:
        raise CheckFail(f"unreadable coloring file: {exc}") from None
    e = edge_count(n)
    if n < 1 or body.count("\n") != e or not text.endswith("\n") or nums.size != 3 * e:
        raise CheckFail(f"coloring file does not hold {e} edge lines for n={n}")
    edges = nums.reshape(e, 3)
    us, vs = np.triu_indices(n, 1)
    if not (np.array_equal(edges[:, 0], us) and np.array_equal(edges[:, 1], vs)):
        raise CheckFail("edges are not listed in lexicographic order")
    colors = edges[:, 2]
    if e and (colors.min() < 1 or colors.max() != k):
        raise CheckFail(f"colors outside 1..{k} or header k is not the largest color")
    if e and np.count_nonzero(np.bincount(colors, minlength=k + 1)[1:]) != k:
        raise CheckFail("a declared color is unused")
    mat = np.zeros((n, n), dtype=np.int16)
    mat[us, vs] = colors
    mat[vs, us] = colors
    return n, mat


def rainbow_triangle(mat: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Some triangle u < v < w with three distinct colors, or None.

    For each top vertex w, compares the colors of the edges into w against
    every edge below w at once.
    """
    for w in range(2, mat.shape[0]):
        r = mat[w, :w]
        below = mat[:w, :w]
        bad = (r[:, None] != r[None, :]) & (r[:, None] != below) & (r[None, :] != below)
        hits = np.argwhere(np.triu(bad, 1))
        if hits.size:
            return int(hits[0][0]), int(hits[0][1]), w
    return None


def is_rainbow(mat: np.ndarray, u: int, v: int, w: int) -> bool:
    n = mat.shape[0]
    if not (0 <= u < v < w < n):
        return False
    a, b, c = mat[u, v], mat[u, w], mat[v, w]
    return a != b and a != c and b != c


def facts(data: Optional[bytes]) -> Facts:
    n, mat = parse_coloring(data)
    us, vs = np.triu_indices(n, 1)
    counts = np.bincount(mat[us, vs])[1:] if n > 1 else np.zeros(0, dtype=np.int64)
    sizes = tuple(sorted((int(c) for c in counts if c), reverse=True))
    # Special: every vertex v >= 1 sends all its edges to 0..v-1 in one color.
    special = all((mat[v, :v] == mat[v, 0]).all() for v in range(1, n))
    return Facts(n, sizes, rainbow_triangle(mat), special, mat)


# ---------------------------------------------------------------------------
# Pinned oracle verdicts
# ---------------------------------------------------------------------------

ORACLE_POOL_SHAPES = ((7, 4), (8, 4), (6, 5), (7, 5))


def load_oracle_table() -> list[dict]:
    """The pinned verdict of every pool distribution, cross-checked.

    The table must cover exactly every 4-part distribution of K_7 and K_8
    and every 5-part distribution of K_6 and K_7; its only infeasible 4-part
    entry is (9,4,4,4) on K_7 and no 4-part entry of K_8 is infeasible, which
    is g(4) = 8; and every entry failing the prefix-sum condition is
    infeasible.
    """
    rows = json.loads((DATA / "oracle_pool.json").read_text())
    want = {(n, sizes) for n, k in ORACLE_POOL_SHAPES for sizes in partitions(edge_count(n), k)}
    got = {(r["n"], tuple(r["sizes"])) for r in rows}
    if got != want or len(rows) != len(want):
        raise CheckFail("oracle table does not cover the pool exactly once")
    infeasible = {(r["n"], tuple(r["sizes"])) for r in rows if r["verdict"] == "infeasible"}
    four_part = {(n, s) for n, s in infeasible if len(s) == 4}
    if four_part != {(7, (9, 4, 4, 4))}:
        raise CheckFail(f"4-part infeasible entries {sorted(four_part)} contradict g(4) = 8")
    for r in rows:
        if r["verdict"] not in ("feasible", "infeasible"):
            raise CheckFail(f"bad pinned verdict {r}")
        if necessary_fails_at(tuple(r["sizes"]), r["n"]) and r["verdict"] != "infeasible":
            raise CheckFail(f"{r} fails the prefix-sum condition but is pinned feasible")
    return rows


# ---------------------------------------------------------------------------
# Per-request output checks
# ---------------------------------------------------------------------------

def _dist_line(n: int, sizes: tuple[int, ...]) -> str:
    return f"distribution: {','.join(map(str, sizes))} on K_{n}"


def _coloring_ok(data: Optional[bytes], n: int, sizes: Optional[tuple[int, ...]],
                 special: bool, max_colors: Optional[int] = None) -> Outcome:
    try:
        f = facts(data)
    except CheckFail as exc:
        return str(exc)
    if f.n != n:
        return f"coloring has n={f.n}, wanted {n}"
    if f.rainbow is not None:
        return f"coloring has rainbow triangle {f.rainbow}"
    if sizes is not None and f.sizes != sizes:
        return f"coloring has sizes {f.sizes}, wanted {sizes}"
    if special and not f.special:
        return "coloring is not special"
    if max_colors is not None and len(f.sizes) > max_colors:
        return f"coloring uses more than {max_colors} colors"
    return OK


# How much each outcome of ``construct`` settles, weakest first: giving up on
# a budget, giving up after star search proved no special coloring exists,
# and a definite answer.
STRENGTH = {"budget": 0, "no-special": 1, "built": 2, "necessary": 2}


def check_construct(rc: int, stdout: str, data: Optional[bytes], *, n: int,
                    sizes: tuple[int, ...], out: str, special: bool,
                    pinned: str, echo: bool) -> Outcome:
    """A construct, construct-div or construct-balanced request.

    ``pinned`` is the outcome the request had when the benchmark was defined
    (``built`` for every guaranteed request).  An answer weaker than that
    fails, so that giving up earlier cannot pass as speed; a prefix-sum
    failure claim is checked here.
    """
    lines = stdout.splitlines()
    if echo:
        if not lines or lines[0] != _dist_line(n, sizes):
            return f"construct did not echo the distribution: {lines[:1]}"
        lines = lines[1:]
    if rc == 0:
        if lines != [f"coloring written to {out}"]:
            return f"unexpected construct output {lines}"
        return _coloring_ok(data, n, sizes, special)
    if rc == 1 and lines and lines[0].startswith("not constructed: necessary-condition failure"):
        return OK if necessary_fails_at(sizes, n) else "claimed a prefix-sum failure that does not exist"
    if rc == 3 and lines and lines[0].startswith("not constructed: unknown"):
        got = "budget" if "budget" in lines[0] else "no-special"
        if STRENGTH[got] < STRENGTH[pinned]:
            return f"construct gave up ({lines[0]}) where the pinned outcome is {pinned}"
        return UNKNOWN
    return f"construct exited {rc} where the pinned outcome is {pinned}: {lines}"


def check_oracle(rc: int, stdout: str, data: Optional[bytes], *, n: int,
                 sizes: tuple[int, ...], out: str, verdict: str) -> Outcome:
    """An oracle request, against its pinned verdict; feasible needs a witness."""
    lines = stdout.splitlines()
    if not lines or lines[0] != _dist_line(n, sizes) or len(lines) < 2:
        return f"oracle did not echo the distribution: {lines[:1]}"
    tag = lines[1].split(" ", 1)[0]
    if rc == 3 and tag == "unknown":
        return UNKNOWN
    if tag != verdict or rc != (0 if verdict == "feasible" else 1):
        return f"oracle said {tag} (exit {rc}), pinned verdict is {verdict}"
    if verdict == "infeasible":
        return OK if len(lines) == 2 else f"unexpected oracle output {lines}"
    if lines[2:] != [f"witness written to {out}"]:
        return f"unexpected oracle output {lines}"
    return _coloring_ok(data, n, sizes, special=False)


def check_random(rc: int, stdout: str, data: Optional[bytes], *, n: int, out: str,
                 max_colors: int) -> Outcome:
    """A random request: a rainbow-free coloring of K_n in at most max_colors colors."""
    if rc != 0 or stdout.splitlines() != [f"coloring written to {out}"]:
        return f"random exited {rc}: {stdout.splitlines()}"
    return _coloring_ok(data, n, None, special=False, max_colors=max_colors)


def check_verify(rc: int, stdout: str, data: Optional[bytes]) -> Outcome:
    """A verify request: every stdout line must agree with the recomputed facts."""
    try:
        f = facts(data)
    except CheckFail as exc:
        return f"verify input unreadable: {exc}"
    lines = stdout.splitlines()
    gallai = f.rainbow is None
    want = [f"gallai: {'true' if gallai else 'false'}"]
    if not gallai:
        if len(lines) < 2 or not lines[1].startswith("rainbow triangle: "):
            return f"verify gave no rainbow witness: {lines}"
        try:
            u, v, w = (int(t) for t in lines[1].split(": ", 1)[1].split())
        except ValueError:
            return f"unreadable witness line {lines[1]!r}"
        if not is_rainbow(f.matrix, u, v, w):
            return f"verify witness {(u, v, w)} is not a rainbow triangle"
        want.append(lines[1])
    ell = necessary_fails_at(f.sizes, f.n)
    want += [
        f"sizes: {','.join(map(str, f.sizes))}",
        f"necessary-condition: {'pass' if ell is None else f'fail (l={ell})'}",
        f"special: {'true' if f.special else 'false'}",
    ]
    if lines != want:
        return f"verify printed {lines}, expected {want}"
    if rc != (0 if gallai else 1):
        return f"verify exited {rc} for gallai={gallai}"
    return OK

