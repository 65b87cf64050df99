"""Seeded random rainbow-free colorings by recursive block substitution.

Split the vertices into m >= 2 blocks, join the blocks by one or two colors,
recurse inside each block.  Every output is rainbow-free by construction,
and identical (n, seed, max_colors) always reproduce the same coloring; the
random stream is one explicitly seeded generator, never global state.

The draws are those of ``randint``, ``sample``, ``choice`` and ``random`` on
``random.Random(seed)``, in the same order, but ``randint``, ``sample`` and
``choice`` are written out over the instance's ``getrandbits`` as CPython
3.10-3.13 write them: the rejection loop of ``_randbelow_with_getrandbits``,
and ``sample``'s pool path for populations up to 21 and its set path above.
The method calls cost several times the bits they draw.  The tests compare
every output with a reference that calls the methods, and CI pins bytes.
"""

from __future__ import annotations

import random

import numpy as np

from .core import Coloring, PreconditionViolated, _colex_runs


def random_gallai(
    n: int, seed: int, max_colors: int = 5
) -> tuple[Coloring, tuple[tuple[int, ...], ...]]:
    """Random rainbow-free coloring of K_n plus its top-level blocks.

    The recorded block structure is the outermost substitution step (useful
    to cross-check decomposition extraction); unused color ids are
    compacted so the result uses colors 1..k, in the order of the drawn ids.

    Every block is a contiguous vertex range: the cuts split a range into
    consecutive ranges, and recursion only splits those further.  The tree
    of blocks is walked in pre-order with an explicit stack, and each block
    carries its row prefix: one (color, length) run to each earlier block,
    at every ancestor.  A single vertex's colex row is its prefix, so the
    rows go out as runs (``core._colex_runs``), with no n x n matrix.
    """
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    if max_colors < 1:
        raise PreconditionViolated(f"need max_colors >= 1, got {max_colors}")
    rng = random.Random(seed)
    bits = rng.getrandbits

    def below(q: int) -> int:
        """``rng._randbelow(q)``: uniform on 0..q-1, drawing k-bit words."""
        k = q.bit_length()
        r = bits(k)
        while r >= q:
            r = bits(k)
        return r

    # Drawn color id -> slot, in order of first use; the slots are ranked by
    # color id at the end, so the table stays small for any max_colors.
    slots: dict[int, int] = {}
    runs: list[tuple[int, int]] = []  # (slot, length), row by row
    top = [0, n]
    stack: list[tuple[int, int, list[tuple[int, int]]]] = [(0, n, [])]
    while stack:
        lo, hi, prefix = stack.pop()
        q = hi - lo - 1  # the cut positions lo + 1..hi - 1
        if not q:
            runs += prefix  # a single vertex: its row is its prefix
            continue
        m = 2 + below(min(q, 4))  # randint(2, min(size, 5))
        # sample(range(lo + 1, hi), m - 1): its pool path for a population
        # of at most 21, its set path above.
        if q <= 21:
            pool = list(range(lo + 1, hi))
            cuts = []
            for i in range(q - 1, q - m, -1):
                r = below(i + 1)
                cuts.append(pool[r])
                pool[r] = pool[i]
        else:
            cuts = []
            while len(cuts) < m - 1:
                r = lo + 1 + below(q)
                if r not in cuts:
                    cuts.append(r)
        bounds = [lo, *sorted(cuts), hi]
        # randint(1, max_colors), or else sample(range(1, max_colors + 1), 2);
        # both begin with the same draw.  In the pool path, the place of the
        # first pick then holds max_colors.
        two = max_colors > 1 and rng.random() >= 0.25
        first = below(max_colors)
        if not two:
            palette = (1 + first,)
        elif max_colors <= 21:
            second = below(max_colors - 1)
            palette = (1 + first, max_colors if second == first else 1 + second)
        else:
            second = first
            while second == first:
                second = below(max_colors)
            palette = (1 + first, 1 + second)
        rows = [prefix[:] for _ in range(m)]
        for i in range(m):
            length = bounds[i + 1] - bounds[i]
            for j in range(i + 1, m):
                color = palette[below(2)] if two else palette[0]  # choice(palette)
                rows[j].append((slots.setdefault(color, len(slots)), length))
        if hi - lo == n:
            top = bounds
        stack += reversed(list(zip(bounds, bounds[1:], rows)))
    rank = np.empty(len(slots), dtype=np.int32)
    rank[[slots[color] for color in sorted(slots)]] = np.arange(1, len(slots) + 1)
    coloring = Coloring(n, _colex_runs(runs, rank))
    return coloring, tuple(tuple(range(a, b)) for a, b in zip(top, top[1:]))
