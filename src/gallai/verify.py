"""Certificate checkers for rainbow-triangle-free colorings.

Everything here is a pure function of its inputs: the rainbow-freeness test,
class-size extraction, the prefix-sum necessary condition on distributions,
top-l cover totals, and extraction of a block decomposition with at most two
cross colors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .core import (
    Coloring,
    Distribution,
    GallaiPartition,
    InternalScheduleError,
    NotFound,
    NotGallai,
    PreconditionViolated,
    StarPartition,
    canonicalize,
    _ranked,
)


def _color_matrix(arr: np.ndarray, n: int) -> np.ndarray:
    """Symmetric n x n matrix of the colex colors ``arr`` of K_n (diagonal 0).

    The strict lower triangle read row by row is the colex edge order, so
    one boolean mask places the colors below the diagonal and, through the
    transpose, above it.
    """
    mat = np.zeros((n, n), dtype=arr.dtype)
    lower = np.tri(n, k=-1, dtype=bool)
    mat[lower] = arr
    mat.T[lower] = arr
    return mat


def _prefix_matrix(arr: np.ndarray, s: int, k: int) -> np.ndarray:
    """``_color_matrix`` of the coloring on 0..s-1 of a coloring with colex
    colors ``arr`` and k colors, in the narrowest unsigned dtype that holds
    k: uint8 for k < 256, then uint16, uint32."""
    return _color_matrix(arr[: s * (s - 1) // 2].astype(np.min_scalar_type(k)), s)


def _row_starts(n: int) -> np.ndarray:
    """Colex offset v(v-1)/2 = 0 + 1 + ... + (v-1) of the down-row of each
    vertex v = 1..n-1."""
    return np.arange(n - 1).cumsum()


def _mixed_rows(c: Coloring) -> np.ndarray:
    """The vertices whose down-edges (to 0..v-1) carry more than one color."""
    if c.n < 3:
        return np.empty(0, dtype=np.intp)
    arr, starts = c.colex_colors(), _row_starts(c.n)
    mixed = np.minimum.reduceat(arr, starts) != np.maximum.reduceat(arr, starts)
    return np.flatnonzero(mixed) + 1


# Ranges of at most this many vertices are scanned in one s^3 broadcast:
# below it, one numpy pass over the cube costs less than a pass per row.
_BROADCAST_MAX_S = 64


def _runs(ends: np.ndarray, breaks: np.ndarray, lo: int, s: int) -> np.ndarray:
    """run[z - lo] for z = lo..s-1: how many edges of z, to lo, lo+1, ... in
    turn, share the color of (z, lo), capped at z - lo.  Row z is mixed from
    lo exactly when run[z - lo] < z - lo.

    ``breaks`` are the colex positions whose color differs from the one
    before, ascending, and ``ends`` the same with the edge count appended:
    the first break past the position of (z, lo) ends its run.
    """
    z = np.arange(lo, s)
    at = z * (z - 1) // 2 + lo
    return np.minimum(ends[np.searchsorted(breaks, at, side="right")] - at, z - lo)


def _module_end(run: np.ndarray, lo: int, s: int) -> Optional[int]:
    """The largest t with lo + 3 <= t < s such that every z in t..s-1 joins
    lo..t-1 in one color (run[z - lo] >= t - lo, ``_runs``), or None."""
    m = s - lo
    floor = np.minimum.accumulate(run[m - 1 : 2 : -1])[::-1]  # min(run[i:m]), i = 3..m-1
    cuts = np.flatnonzero(floor >= np.arange(3, m))
    return lo + int(cuts[-1]) + 3 if cuts.size else None


def _first_rainbow(mat: np.ndarray, lo: int, hi: int, t: int) -> Optional[tuple[int, int, int]]:
    """The first rainbow (u, v, w) of the color matrix ``mat`` in row-major
    order with lo <= u < hi and t <= v, w < len(mat), or None.

    ``bad[i, j, l]`` says that (lo+i, t+j, t+l) is rainbow.  One call scans
    a range lo..s-1 whole (hi = s = len(mat), t = lo) or the row of lo over
    t..s-1 (hi = lo + 1); ``rainbow_witness`` says why the first hit is the
    lexicographically first witness.
    """
    a, sub = mat[lo:hi, t:], mat[t:, t:]
    bad = a[:, :, None] != a[:, None, :]
    bad &= a[:, :, None] != sub
    bad &= a[:, None, :] != sub
    h = int(bad.argmax())
    if not bad.flat[h]:
        return None
    m = len(sub)
    return (lo + h // (m * m), t + h // m % m, t + h % m)


def _first_from(
    mat: np.ndarray, run: np.ndarray, lo: int, s: int, ranges: list[tuple[int, int]]
) -> Optional[tuple[int, int, int]]:
    """The first rainbow triangle inside lo..s-1 if it starts below every
    range left to scan; else None, after pushing those ranges on
    ``ranges``, the lowest last.

    ``run`` holds the runs from lo (``_runs``) of at least lo..s-1.  While
    the range has a prefix module lo..t-1, it is cut to lo..t-1, and the row
    of lo over t..s-1 and the range t..s-1 are kept.  A range of more than
    ``_BROADCAST_MAX_S`` vertices with no module at lo keeps only the row of
    lo and lo+1..s-1, whose start gets the exact module test in turn; a
    smaller one is scanned whole.  See ``rainbow_witness``.
    """
    mixed = np.flatnonzero(run < np.arange(run.size))  # offsets from lo
    peeled: list[tuple[int, int]] = []  # (t, s), outermost first
    hit = None
    while True:
        below = int(np.searchsorted(mixed, s - lo))
        if below == 0:
            break
        s = lo + int(mixed[below - 1]) + 1  # star suffix
        if s - lo <= _BROADCAST_MAX_S:
            hit = _first_rainbow(mat[:s, :s], lo, s, lo)
            break
        t = _module_end(run, lo, s)
        if t is None:  # lo alone is a module: keep its row and lo+1..s-1
            peeled.append((lo + 1, s))
            break
        peeled.append((t, s))
        s = t
    if hit is not None and hit[0] == lo:
        return hit
    for t, top in reversed(peeled):
        row_hit = _first_rainbow(mat[:top, :top], lo, lo + 1, t)
        if row_hit is not None:
            return row_hit
    if hit is not None:
        return hit
    ranges += peeled
    return None


def rainbow_witness(c: Coloring) -> Optional[tuple[int, int, int]]:
    """Return the lexicographically first rainbow triangle (u, v, w), or None.

    The search runs over vertex ranges lo..s-1, starting from 0..n-1, and
    looks for triangles inside the range.  Two arguments shrink each range.

    Star-suffix argument: if the edges of a vertex w to lo..w-1 share one
    color, w is not the top of any rainbow triangle in the range, since its
    two edges in the triangle agree.  So the range ends after its last
    vertex whose edges down to lo are mixed.

    Prefix-module argument: let lo < t < s be such that every vertex z in
    t..s-1 sends its edges to lo..t-1 in one color, so lo..t-1 is a module
    (Gallai's substitution; the generator and the 8k^2+1 construction nest
    blocks this way).  A triangle with two vertices in lo..t-1 has two
    equal edges.  A triangle (x, v, w) with x in lo..t-1 has the colors of
    (lo, v, w), which is lexicographically no larger.  So the candidates
    are the first triangle inside lo..t-1 (found the same way), the first
    rainbow (lo, v, w) with v, w in t..s-1 (one m^2 pass over the row of
    lo) and the first triangle inside t..s-1 (a range of its own).  Lex
    order picks, in turn: an inner witness with u = lo; else a row witness;
    else the inner witness; else one from t..s-1.  At every range start lo
    the largest such t >= lo + 3 is taken and the inner range is cut again
    at lo.  With no such t, t = lo + 1, as lo alone is a module: the row of
    lo is scanned and lo+1..s-1 gets the same exact test at its start.  Row
    passes run innermost first, and the ranges t..s-1 wait on an explicit
    stack, lowest on top, so no Python recursion grows with n.  The runs
    that give s and t at lo are one ``searchsorted`` of the colex color
    breaks (``_runs``).

    Each scan is one ``_first_rainbow`` call: a range of at most
    ``_BROADCAST_MAX_S`` vertices whole, or the row of lo over t..s-1.  A
    triple with a repeated vertex is never rainbow, since two of its edges
    agree (the diagonal is 0), and a rainbow triple stays rainbow under any
    permutation.  The cube of a range is closed under every permutation,
    the row {lo} x (t..s-1)^2 under swapping v and w, so the first
    row-major hit, the lexicographically smallest, has u < v < w and is the
    first witness the call covers.

    Cost: one O(E) pass over the colors finds s: the ``reduceat`` pass of
    ``_mixed_rows`` up to ``_BROADCAST_MAX_S`` vertices, where one broadcast
    follows, else the color breaks.  Each range start and each module cut
    costs O(s) more.  The cubic work runs only on the rows of the range
    starts and on ranges of at most ``_BROADCAST_MAX_S`` vertices, so a
    nest of substitutions is scanned block by block.  A coloring with no
    contiguous module, such as a label-shuffled one, costs O(s^3), with one
    exact module test per row.  The scans run on a color matrix of 0..s-1
    only (``_prefix_matrix``).
    """
    if c.n < 3 or c.k < 3:
        return None
    arr = c.colex_colors()
    if c.n <= _BROADCAST_MAX_S:
        # No module is sought, so the star cut takes the cheaper pass.
        mixed = _mixed_rows(c)
        if mixed.size == 0:
            return None
        s = int(mixed[-1]) + 1
        return _first_rainbow(_prefix_matrix(arr, s, c.k), 0, s, 0)
    breaks = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    ends = np.append(breaks, arr.size)
    run = _runs(ends, breaks, 0, c.n)
    mixed = np.flatnonzero(run < np.arange(c.n))
    if mixed.size == 0:
        return None
    s = int(mixed[-1]) + 1  # the last mixed row belongs to vertex s-1
    mat = _prefix_matrix(arr, s, c.k)
    ranges = [(0, s)]
    while ranges:
        lo, s = ranges.pop()
        hit = _first_from(mat, run if lo == 0 else _runs(ends, breaks, lo, s), lo, s, ranges)
        if hit is not None:
            return hit
    return None


def is_gallai(c: Coloring) -> bool:
    """True iff no triangle of the coloring uses three distinct colors."""
    return rainbow_witness(c) is None


def class_sizes(c: Coloring) -> Distribution:
    """Canonical distribution of the per-color edge counts."""
    return canonicalize(c.counts, c.n)


def check_necessary(d: Distribution) -> tuple[bool, Optional[int]]:
    """Prefix-sum necessary condition for realizability.

    For every l in 1..k the l largest classes together must have at least
    (n-1) + (n-2) + ... + (n-l) edges.  Returns (True, None) if every prefix
    passes, else (False, smallest failing l).
    """
    prefix = 0
    bound = 0
    for ell, size in enumerate(d.sizes, start=1):
        prefix += size
        bound += d.n - ell
        if prefix < bound:
            return False, ell
    return True, None


def top_l_cover(c: Coloring, ell: int) -> tuple[tuple[int, ...], int]:
    """The l largest color classes and their total edge count.

    Ties in class size are broken toward the smaller color id.  Raises
    NotGallai when the input has a rainbow triangle (the cover guarantee
    only holds for rainbow-free colorings).
    """
    if not (1 <= ell <= c.k):
        raise PreconditionViolated(f"need 1 <= l <= k={c.k}, got {ell}")
    w = rainbow_witness(c)
    if w is not None:
        raise NotGallai(w)
    chosen = tuple(i + 1 for i in _ranked(c.counts)[:ell])
    return chosen, sum(c.counts[col - 1] for col in chosen)


def is_special_coloring(c: Coloring) -> bool:
    """True iff every vertex i >= 1 has all its down-edges in one color."""
    return _mixed_rows(c).size == 0


def star_partition_of(c: Coloring) -> Optional[StarPartition]:
    """Recover the star partition of a special coloring, or None."""
    if not is_special_coloring(c):
        return None
    groups: dict[int, list[int]] = {}
    for v, col in enumerate(c.colex_colors()[_row_starts(c.n)].tolist(), start=1):
        groups.setdefault(col, []).append(v)
    return StarPartition(c.n, tuple(tuple(g) for g in groups.values()))


# ---------------------------------------------------------------------------
# Gallai partition extraction
# ---------------------------------------------------------------------------

def _components(adj: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component of the graph ``adj``
    (a symmetric boolean matrix).

    Min-label propagation with pointer jumping: in each round every vertex
    reads the least label among its neighbors, each label moves to the
    least label one of its vertices read, and pointer jumping flattens the
    chains this makes.  A label only falls and always names a vertex of the
    same component, so at the fixpoint every component carries its least
    vertex.  A label with a smaller neighbor joins it at once, so a random
    path on 2,000 vertices takes 9 rounds, where moving each vertex to its
    neighbors' least label alone took hundreds.
    """
    labels = np.arange(len(adj), dtype=np.int32)
    while True:
        low = np.where(adj, labels, labels[:, None]).min(axis=1)
        if (low == labels).all():
            return labels
        moved = labels.copy()
        np.minimum.at(moved, labels, low)
        while not (moved[moved] == moved).all():
            moved = moved[moved]
        labels = moved[labels]


def find_gallai_partition(c: Coloring) -> GallaiPartition:
    """Extract a block decomposition with at most two cross colors.

    Tries every candidate color pair {a, b} (singletons included): the
    blocks are the components of the graph of edges colored neither a nor
    b, accepted when there are at least two of them and every block pair is
    monochromatic.  Raises NotFound when the input has a rainbow triangle.

    For rainbow-free input some pair always succeeds.  Take a component C
    of the non-{a, b} graph and a vertex z outside it.  If z met C in two
    colors, then along a non-{a, b} path inside C some edge uv would have
    zu != zv, and the triangle z, u, v would be rainbow.  So every pair of
    components is joined in one color from {a, b}.  Gallai's theorem
    (T. Gallai 1967; Gyarfas-Simonyi, J. Graph Theory 46, 2004) gives a
    pair {a, b} whose cross edges carry every edge between the parts of a
    partition into at least two parts, so that pair leaves at least two
    components.  Every cross edge joins two components, so it is colored a
    or b: there are never more than two cross colors.
    """
    if c.n < 2:
        raise PreconditionViolated("need n >= 2 for a block decomposition")
    mat = _color_matrix(c.colex_colors(), c.n)
    for a, b in combinations_with_replacement(range(1, c.k + 1), 2):
        blocks: dict[int, list[int]] = {}  # by least vertex, ascending
        for v, least in enumerate(_components((mat != a) & (mat != b)).tolist()):
            blocks.setdefault(least, []).append(v)
        if len(blocks) < 2:
            continue
        # One edge per block pair; validate_gallai_partition checks the rest.
        roots = list(blocks)
        reduced = mat[np.ix_(roots, roots)]  # diagonal 0
        gp = GallaiPartition(
            blocks=tuple(map(tuple, blocks.values())),
            cross_colors=frozenset(np.unique(reduced).tolist()) - {0},
            reduced=tuple(
                (i, j, row[j]) for i, row in enumerate(reduced.tolist()) for j in range(i + 1, len(row))
            ),
        )
        if validate_gallai_partition(c, gp):
            return gp
    w = rainbow_witness(c)
    if w is not None:
        raise NotFound(f"no decomposition: input has rainbow triangle {w}")
    raise InternalScheduleError(
        "no valid block decomposition found for a rainbow-free coloring"
    )


def validate_gallai_partition(c: Coloring, gp: GallaiPartition) -> bool:
    """Independent re-check of all Gallai-partition invariants."""
    seen: set[int] = set()
    owner: dict[int, int] = {}
    for bi, blk in enumerate(gp.blocks):
        if not blk:
            return False
        for v in blk:
            if v in seen or not (0 <= v < c.n):
                return False
            seen.add(v)
            owner[v] = bi
    if len(seen) != c.n:
        return False
    reduced = {(i, j): col for i, j, col in gp.reduced}
    if set(reduced.values()) - gp.cross_colors:
        return False
    needed = {(i, j) for i in range(gp.m) for j in range(i + 1, gp.m)}
    if set(reduced) != needed:
        return False
    # A color outside 1..k matches no edge, and every block pair has one.
    if not all(col in range(1, c.k + 1) for col in reduced.values()):
        return False
    table = np.zeros((gp.m, gp.m), dtype=np.int32)
    for (i, j), col in reduced.items():
        table[i, j] = table[j, i] = col
    block = np.array([owner[v] for v in range(c.n)])
    inside = block[:, None] == block
    return bool(np.all(inside | (_color_matrix(c.colex_colors(), c.n) == table[block[:, None], block])))
