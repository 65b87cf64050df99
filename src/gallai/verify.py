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


def _leads(arr: np.ndarray, n: int) -> np.ndarray:
    """lead[z] for z = 0..n-1: how many down-edges of z, to 0, 1, ... in
    turn, share the color of (z, 0) (lead[0] = 0).  Row z is mixed exactly
    when lead[z] < z.

    One O(E) pass: a run break is a colex position whose color differs from
    the one before it, and the first break past the start of row z, capped
    at the length z of the row, ends its leading run.
    """
    starts = _row_starts(n)
    breaks = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    ends = np.append(breaks, arr.size)[np.searchsorted(breaks, starts, side="right")]
    return np.concatenate(([0], np.minimum(ends - starts, np.arange(1, n))))


# Below this many vertices in 0..s-1 no prefix module is sought: on
# generator output, splitting one off first saves more scan time than it
# costs from about s = 48 up.  Below it in n, ``rainbow_witness`` finds s
# with the cheaper ``reduceat`` pass of ``_mixed_rows`` instead of the leads.
_MODULE_MIN_S = 48


def _prefix_module(lead: Optional[np.ndarray], s: int) -> int:
    """The largest t with 3 <= t < s and lead[z] >= t for every z in [t, s),
    or 1 if there is none (or s is below ``_MODULE_MIN_S``).

    Every vertex from t up then joins 0..t-1 in one color: 0..t-1 is a
    module, and t = 1 is the trivial one.
    """
    if s < _MODULE_MIN_S:
        return 1
    floor = np.minimum.accumulate(lead[s - 1 : 2 : -1])[::-1]  # min(lead[z:s]), z = 3..s-1
    cuts = np.flatnonzero(floor >= np.arange(3, s))
    return int(cuts[-1]) + 3 if cuts.size else 1


def _sub_colex(arr: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The colex colors of the coloring induced on ``verts`` (ascending)."""
    q = verts.size
    lens = np.arange(1, q)
    upper = np.repeat(verts[1:], lens)
    lower = verts[np.arange(q * (q - 1) // 2) - np.repeat(lens.cumsum() - lens, lens)]
    return arr[upper * (upper - 1) // 2 + lower]


def _scan(mat: np.ndarray, rows: range) -> Optional[tuple[int, int, int]]:
    """The first rainbow (u, v, w) of the color matrix ``mat`` with u in ``rows``."""
    size = len(mat)
    for u in rows:
        m = size - u - 1
        a = mat[u, u + 1 :]
        sub = mat[u + 1 :, u + 1 :]
        bad = (a[:, None] != a[None, :]) & (a[:, None] != sub) & (a[None, :] != sub)
        hits = np.flatnonzero(bad)
        if hits.size:
            h = int(hits[0])
            return (u, u + 1 + h // m, u + 1 + h % m)
    return None


def _first_rainbow(
    arr: np.ndarray, lead: Optional[np.ndarray], mixed: np.ndarray, dtype: np.dtype
) -> Optional[tuple[int, int, int]]:
    """``rainbow_witness`` of the coloring on 0..s-1, where s-1 is the last
    of the ascending ``mixed`` rows; ``arr`` holds the colex colors and
    ``lead`` the leads (``_leads``, None below ``_MODULE_MIN_S`` vertices)
    of a coloring that has it as a prefix."""
    if mixed.size == 0:
        return None
    s = int(mixed[-1]) + 1  # the last mixed row belongs to vertex s-1
    t = _prefix_module(lead, s)
    inner = None
    if t > 1:
        inner = _first_rainbow(arr, lead, mixed[: np.searchsorted(mixed, t)], dtype)
    if inner is not None and inner[0] == 0:
        return inner
    # The quotient: 0 stands for the module 0..t-1, beside t..s-1.  Its
    # rows after the first only matter when the module has no witness.
    q = s - t + 1
    verts = np.concatenate(([0], np.arange(t, s))) if t > 1 else None
    colex = arr[: s * (s - 1) // 2] if verts is None else _sub_colex(arr, verts)
    mat = _color_matrix(colex.astype(dtype), q)
    hit = _scan(mat, range(1) if inner is not None else range(q - 2))
    if hit is None:
        return inner
    return hit if verts is None else tuple(int(verts[x]) for x in hit)


def rainbow_witness(c: Coloring) -> Optional[tuple[int, int, int]]:
    """Return the lexicographically first rainbow triangle (u, v, w), or None.

    Star-suffix argument: if all down-edges of a vertex w (those to 0..w-1)
    share one color, w is not the top of any rainbow triangle, since its two
    edges in the triangle agree.  Let s be the least vertex such that every
    vertex from s up has a one-color down-row.  Then every rainbow triangle
    lies inside 0..s-1.

    Prefix-module argument: let t < s be such that every vertex z in
    t..s-1 sends its edges to 0..t-1 in one color, so 0..t-1 is a module
    (Gallai's substitution; the 8k^2+1 construction puts its block on top of
    the rest this way).  A triangle with two vertices in 0..t-1 has two
    equal edges.  A triangle with one vertex x in 0..t-1 has the colors of
    the one with x replaced by 0, which is lexicographically no larger.  So
    the first rainbow triangle is the lexicographically smaller of the first
    one inside 0..t-1, found by the same rule, and the first one of the
    quotient 0, t, ..., s-1.  Lex order decides between them: an inner
    witness with u = 0 wins; else a quotient witness with u = 0; else the
    inner witness, if any; else the rest of the quotient.  The largest such
    t with t >= 3 is taken; for s below ``_MODULE_MIN_S`` none is sought.

    Cost: one O(E) pass finds s: ``_leads``, which also gives t at every
    level, or below ``_MODULE_MIN_S`` vertices the cheaper ``reduceat``
    pass of ``_mixed_rows``.  The cubic scan then runs only on the
    quotients, so a substitution such as the 8k^2+1 construction is scanned
    block by block.  A coloring with no prefix module, such as a
    label-shuffled one, costs O(s^3) as before.

    The scan is vectorized row by row on a color matrix of the narrowest
    unsigned dtype that holds k.  For the row of u, ``bad[i, j]`` says that
    (u, v, w) with v = u+1+i, w = u+1+j is rainbow.  It is symmetric in
    (i, j), since the color matrix is, and false on the diagonal, where
    a[i] != a[j] fails.  So if (i, j) is a hit with i > j, then (j, i) is a
    hit too and comes first in row-major order: the first row-major hit has
    v < w, and as row-major order on i < j is the lexicographic order of
    (v, w), it is the lexicographically first witness with smallest vertex
    u.  No triangular mask is needed.
    """
    if c.n < 3 or c.k < 3:
        return None
    arr = c.colex_colors()
    if c.n < _MODULE_MIN_S:
        lead, mixed = None, _mixed_rows(c)
    else:
        lead = _leads(arr, c.n)
        mixed = np.flatnonzero(lead != np.arange(c.n))
    # uint8 for k < 256, then uint16, uint32
    return _first_rainbow(arr, lead, mixed, np.min_scalar_type(c.k))


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
    ranked = sorted(range(1, c.k + 1), key=lambda col: (-c.counts[col - 1], col))
    chosen = tuple(ranked[:ell])
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
    if gp.m < 2 or len(gp.cross_colors) > 2:
        return False
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
