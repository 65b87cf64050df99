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


def rainbow_witness(c: Coloring) -> Optional[tuple[int, int, int]]:
    """Return the lexicographically first rainbow triangle (u, v, w), or None.

    Star-suffix argument: if all down-edges of a vertex w (those to 0..w-1)
    share one color, w is not the top of any rainbow triangle, since its two
    edges in the triangle agree.  Let s be the least vertex such that every
    vertex from s up has a one-color down-row.  Then every rainbow triangle
    lies inside 0..s-1, whose edges are the colex prefix of length
    s(s-1)/2, and scanning only that prefix returns the same witness as a
    scan of all of K_n.  Finding s is O(E) with two ``reduceat`` passes; a
    special coloring has s <= 2 and is not scanned at all.

    The scan is O(s^3), vectorized row by row on a color matrix of the
    narrowest unsigned dtype that holds k.  For the row of u, ``bad[i, j]``
    says that (u, v, w) with v = u+1+i, w = u+1+j is rainbow.  It is
    symmetric in (i, j), since the color matrix is, and false on the
    diagonal, where a[i] != a[j] fails.  So if (i, j) is a hit with i > j,
    then (j, i) is a hit too and comes first in row-major order: the first
    row-major hit has v < w, and as row-major order on i < j is the
    lexicographic order of (v, w), it is the lexicographically first witness
    with smallest vertex u.  No triangular mask is needed.
    """
    if c.n < 3 or c.k < 3:
        return None
    mixed = _mixed_rows(c)
    if mixed.size == 0:
        return None
    s = int(mixed[-1]) + 1  # the last mixed row belongs to vertex s-1
    dtype = np.min_scalar_type(c.k)  # uint8 for k < 256, then uint16, uint32
    mat = _color_matrix(c.colex_colors()[: s * (s - 1) // 2].astype(dtype), s)
    for u in range(s - 2):
        m = s - u - 1
        a = mat[u, u + 1 :]
        sub = mat[u + 1 :, u + 1 :]
        bad = (a[:, None] != a[None, :]) & (a[:, None] != sub) & (a[None, :] != sub)
        hits = np.flatnonzero(bad)
        if hits.size:
            h = int(hits[0])
            return (u, u + 1 + h // m, u + 1 + h % m)
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


def top_l_cover(
    c: Coloring, ell: int, *, check: bool = True
) -> tuple[tuple[int, ...], int]:
    """The l largest color classes and their total edge count.

    Ties in class size are broken toward the smaller color id.  With
    ``check`` enabled, raises NotGallai when the input has a rainbow
    triangle (the cover guarantee only holds for rainbow-free colorings).
    """
    if not (1 <= ell <= c.k):
        raise PreconditionViolated(f"need 1 <= l <= k={c.k}, got {ell}")
    if check:
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

class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _blocks_for_pair(c: Coloring, a: int, b: int) -> list[list[int]]:
    """Connected components of the graph of edges NOT colored a or b."""
    dsu = _DSU(c.n)
    for u, v, col in c.edges():
        if col != a and col != b:
            dsu.union(u, v)
    comp: dict[int, list[int]] = {}
    for v in range(c.n):
        comp.setdefault(dsu.find(v), []).append(v)
    return sorted(comp.values(), key=lambda blk: blk[0])


def _pair_colors(c: Coloring, blocks: list[list[int]]) -> Optional[dict[tuple[int, int], int]]:
    """Color of each block pair if every pair is monochromatic, else None."""
    owner = {}
    for bi, blk in enumerate(blocks):
        for v in blk:
            owner[v] = bi
    reduced: dict[tuple[int, int], int] = {}
    for u, v, col in c.edges():
        bu, bv = owner[u], owner[v]
        if bu == bv:
            continue
        key = (bu, bv) if bu < bv else (bv, bu)
        prev = reduced.get(key)
        if prev is None:
            reduced[key] = col
        elif prev != col:
            return None
    return reduced


def _partition_from(blocks: list[list[int]], reduced: dict[tuple[int, int], int]) -> GallaiPartition:
    return GallaiPartition(
        blocks=tuple(tuple(blk) for blk in blocks),
        cross_colors=frozenset(reduced.values()),
        reduced=tuple(sorted((i, j, col) for (i, j), col in reduced.items())),
    )


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
    components.
    """
    if c.n < 2:
        raise PreconditionViolated("need n >= 2 for a block decomposition")
    for a, b in combinations_with_replacement(range(1, c.k + 1), 2):
        blocks = _blocks_for_pair(c, a, b)
        if len(blocks) < 2:
            continue
        reduced = _pair_colors(c, blocks)
        if reduced is None or len(set(reduced.values())) > 2:
            continue
        gp = _partition_from(blocks, reduced)
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
    for u, v, col in c.edges():
        bu, bv = owner[u], owner[v]
        if bu == bv:
            continue
        key = (bu, bv) if bu < bv else (bv, bu)
        if reduced[key] != col:
            return False
    return True
