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

from .core import Coloring, PreconditionViolated, total_edges


def random_gallai(
    n: int, seed: int, max_colors: int = 5
) -> tuple[Coloring, tuple[tuple[int, ...], ...]]:
    """Random rainbow-free coloring of K_n plus its top-level blocks.

    The recorded block structure is the outermost substitution step (useful
    to cross-check decomposition extraction); unused color ids are
    compacted so the result uses colors 1..k.
    """
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    if max_colors < 1:
        raise PreconditionViolated(f"need max_colors >= 1, got {max_colors}")
    rng = random.Random(seed)
    arr = [0] * total_edges(n)
    top_blocks = _fill(arr, list(range(n)), rng, max_colors)
    _, compact = np.unique(arr, return_inverse=True)
    coloring = Coloring(n, compact + 1)
    return coloring, tuple(tuple(b) for b in top_blocks)


def _fill(
    arr: list[int], vertices: list[int], rng: random.Random, max_colors: int
) -> list[list[int]]:
    size = len(vertices)
    if size < 2:
        return [vertices] if vertices else []
    m = rng.randint(2, min(size, 5))
    cuts = sorted(rng.sample(range(1, size), m - 1))
    blocks = []
    prev = 0
    for cut in cuts + [size]:
        blocks.append(vertices[prev:cut])
        prev = cut
    if max_colors == 1 or rng.random() < 0.25:
        palette = [rng.randint(1, max_colors)]
    else:
        palette = rng.sample(range(1, max_colors + 1), 2)
    for bi in range(m):
        for bj in range(bi + 1, m):
            color = palette[0] if len(palette) == 1 else rng.choice(palette)
            for u in blocks[bi]:
                for v in blocks[bj]:
                    lo, hi = (u, v) if u < v else (v, u)
                    arr[hi * (hi - 1) // 2 + lo] = color
    for block in blocks:
        _fill(arr, block, rng, max_colors)
    return blocks
