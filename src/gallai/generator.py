"""Seeded random rainbow-free colorings by recursive block substitution.

Split the vertices into m >= 2 blocks, join the blocks by one or two colors,
recurse inside each block.  Every output is rainbow-free by construction,
and identical (n, seed, max_colors) always reproduce the same coloring; the
random stream is one explicitly seeded generator threaded through the
deterministic recursion, never global state.
"""

from __future__ import annotations

import random

import numpy as np

from .core import Coloring, PreconditionViolated


def random_gallai(
    n: int, seed: int, max_colors: int = 5
) -> tuple[Coloring, tuple[tuple[int, ...], ...]]:
    """Random rainbow-free coloring of K_n plus its top-level blocks.

    The recorded block structure is the outermost substitution step (useful
    to cross-check decomposition extraction); unused color ids are
    compacted so the result uses colors 1..k, in the order of the drawn ids.

    Every block is a contiguous vertex range: the cuts split a range into
    consecutive ranges, and recursion only splits those further.  So the
    edges between two blocks are exactly one rectangle of the strict lower
    triangle of an n x n matrix, and each block pair is filled by one slice
    assignment.
    """
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    if max_colors < 1:
        raise PreconditionViolated(f"need max_colors >= 1, got {max_colors}")
    rng = random.Random(seed)
    mat = np.zeros((n, n), dtype=np.int32)
    # Drawn color id -> the small id written into ``mat``, in order of first
    # use, so the table below stays small for any max_colors.
    slots: dict[int, int] = {}
    top_blocks = _fill(mat, 0, n, rng, max_colors, slots)
    rank = np.zeros(len(slots) + 1, dtype=np.int32)
    rank[[slots[color] for color in sorted(slots)]] = np.arange(1, len(slots) + 1)
    coloring = Coloring(n, rank[mat[np.tri(n, k=-1, dtype=bool)]])
    return coloring, tuple(tuple(range(lo, hi)) for lo, hi in top_blocks)


def _fill(
    mat: np.ndarray, lo: int, hi: int, rng: random.Random, max_colors: int,
    slots: dict[int, int],
) -> list[tuple[int, int]]:
    """Color the edges inside vertices lo..hi-1; return the blocks as ranges."""
    size = hi - lo
    if size < 2:
        return [(lo, hi)] if size else []
    m = rng.randint(2, min(size, 5))
    cuts = sorted(rng.sample(range(1, size), m - 1))
    bounds = [lo] + [lo + cut for cut in cuts] + [hi]
    blocks = list(zip(bounds, bounds[1:]))
    if max_colors == 1 or rng.random() < 0.25:
        palette = [rng.randint(1, max_colors)]
    else:
        palette = rng.sample(range(1, max_colors + 1), 2)
    for bi, (a0, a1) in enumerate(blocks):
        for b0, b1 in blocks[bi + 1 :]:
            color = palette[0] if len(palette) == 1 else rng.choice(palette)
            mat[b0:b1, a0:a1] = slots.setdefault(color, len(slots) + 1)
    for block in blocks:
        _fill(mat, *block, rng, max_colors, slots)
    return blocks
