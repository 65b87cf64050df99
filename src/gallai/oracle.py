"""Exact decision procedures for small instances.

``search_realizable`` takes the one route of ``construct._route``: the
necessary condition, star search, then the table (``_structural``), which
answers from Gallai's decomposition (T. Gallai, *Transitiv orientierbare
Graphen*, 1967; Gyárfás–Simonyi, J. Graph Theory 46, 2004): every
rainbow-free coloring of K_s with s >= 2 is a 2-colored K_m (m >= 2) with
rainbow-free colorings substituted into its vertices, and every such
substitution is rainbow-free.  So the count vectors K_s realizes
follow exactly from those of smaller cliques.  For each color count k a
process-wide table holds, level by level, every count vector some
rainbow-free coloring of K_s realizes, as a non-increasing k-tuple with
zeros allowed (a level is closed under color permutation), each with one
recipe that rebuilds such a coloring as colex rows of one-color runs
(``_rebuild``).  A request grows the table up to its n and looks its sizes
up.  ``nodes_explored`` is the number of entries in levels 2..n: the same
whether this request or an earlier one built them, so a node budget means
the same in any process.  Budgets are checked while a
level is built, an unfinished level is never stored, and a budget turns
into an ``unknown`` verdict, never a wrong tag.  The node budget bounds the
entries and the partial sums held while a level is built, so it bounds
memory; only the time budget bounds how long the build takes.

Which decompositions a level needs: when the 2-colored K_m has a cut whose
crossing pairs share one color, merging the blocks on each side gives a
2-block decomposition, and every 2-coloring of K_3 has such a cut.  So a
level takes every 2-block decomposition in one cross color, and in two
cross colors only decompositions into m >= 4 blocks.  A count vector of
those depends only on the sum y of the blocks' vectors, the two colors and
the share e of the second one.  If some split of the cross pairs with
share e gives every pair at one block B_i one color, that coloring has the
one-color cut B_i | rest, and both sides are rainbow-free, so it is the
2-block decomposition (max(s_i, s - s_i), min(s_i, s - s_i)) in one cross
color.  A level takes that one first (its first block is larger, or as
large with a larger second), so the vector is stored already: the level
drops such shares (``_kept_shares``) and does not fold block sizes left
with none.  Only the m cuts at one block are tested, not all 2^(m - 1);
still, up to K_8 every level comes from 2-block decompositions alone.

``compute_g`` asks ``search_realizable`` about the k-part distributions of
K_n one at a time, keeping no witness, and moves on to n + 1 at the first
infeasible one; the first n with none is the threshold.

An independent second method, an edge-by-edge backtracking search, lives
with the tests (``tests/conftest.py``) and checks the table there.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass
from itertools import accumulate, combinations, groupby
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    BudgetExceeded,
    Distribution,
    PreconditionViolated,
    Verdict,
    canonicalize,
    total_edges,
    _colex_runs,
    _ranked,
)
from . import construct

Vector = tuple[int, ...]


class _OverNodeBudget(BudgetExceeded):
    """The level being built would hold more entries than the budget allows."""


class _Recipe(NamedTuple):
    """One coloring behind a table entry, in that entry's color order.

    Consecutive vertex blocks of ``sizes`` carry colorings with the count
    vectors ``parts``; the block pairs whose size products make up ``e_a``
    take color index ``a``, the other pairs color index ``b``.  So the row
    of a vertex in block j opens with one run per block i < j, in the color
    of the pair (i, j) and as long as block i.
    """

    sizes: tuple[int, ...]
    parts: tuple[Vector, ...]
    e_a: int
    a: int
    b: int


# k -> levels; levels[s] maps each count vector of K_s to its recipe
# (None for the empty K_1).  Index 0 is an unused empty level.
_TABLES: dict[int, list[dict[Vector, Optional[_Recipe]]]] = {}
_STORE = threading.Lock()
# k -> (block size, runs) -> the spreads over a sum with those runs of
# every vector of that block size's level, in level order: the work list
# of a fold, kept for later levels (a level is the same in every table).
_SPREADS: dict[int, dict[tuple[int, tuple[int, ...]], list[Vector]]] = {}


def _runs(y: Vector) -> tuple[int, ...]:
    """Lengths of the runs of equal values in the sorted vector ``y``."""
    return tuple(len(list(run)) for _, run in groupby(y))


def _spreads(x: Vector, runs: tuple[int, ...]) -> list[Vector]:
    """The permutations of the sorted ``x`` that are non-increasing on each
    run, in descending order: the order decides which recipe a level keeps.

    Added to a sorted vector with those runs, they reach every orbit
    (under color permutation) of its sums with a permutation of ``x``.
    """
    if not runs:
        return [()]
    out: list[Vector] = []
    for block in sorted(set(combinations(x, runs[0])), reverse=True):
        rest = list(x)
        for v in block:
            rest.remove(v)
        out += [block + tail for tail in _spreads(tuple(rest), runs[1:])]
    return out


def _pair_subsets(sizes: tuple[int, ...]):
    """Block pairs (i, j), i < j, and for each reachable sum of their size
    products one set of pair indices that reaches it."""
    pairs = [(i, j) for j in range(len(sizes)) for i in range(j)]
    reach: dict[int, tuple[int, ...]] = {0: ()}
    for idx, (i, j) in enumerate(pairs):
        w = sizes[i] * sizes[j]
        for total, chosen in list(reach.items()):
            reach.setdefault(total + w, chosen + (idx,))
    return pairs, reach


def _kept_shares(sizes: tuple[int, ...]) -> list[int]:
    """The shares e, 0 < 2e <= total, that the second cross color of a
    substitution into blocks of ``sizes`` takes, less every share some split
    of the cross pairs reaches while the pairs at one block share a color:
    for block i, the sums of the other pairs, with or without that block's
    s_i (s - s_i) pairs added.  In ``_pair_subsets`` order."""
    s = sum(sizes)
    pairs = list(combinations(range(len(sizes)), 2))
    reach = cut = 1  # bit e: share e is reached; reached with a one-color block
    for a, b in pairs:
        reach |= reach << sizes[a] * sizes[b]
    for i, size in enumerate(sizes):
        sums = 1
        for a, b in pairs:
            if i != a and i != b:
                sums |= sums << sizes[a] * sizes[b]
        cut |= sums | sums << size * (s - size)
    total = reach.bit_length() - 1
    kept = reach & ~cut & ((2 << total // 2) - 1)  # 0 < 2e <= total
    return [e for e in _pair_subsets(sizes)[1] if kept >> e & 1] if kept else []


def _splits(s: int) -> list[tuple[tuple[int, ...], Optional[list[int]]]]:
    """Block sizes of the substitutions that can add an entry to K_s's
    level, in the order it takes them, each with the shares of its second
    cross color (None for two blocks: their cross pairs take one color).

    Sizes do not increase, and the splits come in descending order; three
    blocks are covered by two, and m >= 4 blocks only with a share
    ``_kept_shares`` keeps.
    """
    out: list[tuple[tuple[int, ...], Optional[list[int]]]] = []
    splits = (p for m in range(2, s + 1) if m != 3 for p in partitions(s, m))
    for sizes in sorted(splits, reverse=True):
        shares = None if len(sizes) == 2 else _kept_shares(sizes)
        if shares is None or shares:
            out.append((sizes, shares))
    return out


def _tick(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("time budget exhausted")


def _fill_level(
    level: dict, levels: list, s: int, k: int, limit: Optional[int], deadline: Optional[float]
) -> None:
    """Put every count vector of K_s into ``level``, with one recipe each.

    Raises ``_OverNodeBudget`` once the level, or one fold of block sums,
    holds more than ``limit`` vectors, and ``BudgetExceeded`` past the
    deadline.  A fold never outgrows the finished level: a fold of blocks
    with sizes summing to t maps one-to-one into K_t's level (all cross
    pairs in the largest color), and K_t's level into K_s's (add s - t
    vertices, each joined to all earlier ones in the largest color).  So
    stopping on a fold never turns an answer into ``unknown``, and a fold
    left out because no split needs it (``_splits``) would only have
    stopped a level that stops anyway, with the same node count: every
    stop on the node budget counts the whole budget.

    The folds of the current block sizes are kept on a stack: the first is
    the first block's level, and each later one maps its sums to the sum
    and block spread it came from.  Only an entry the level stores gets its
    blocks' vectors, in its color order.
    """
    spread_lists = _SPREADS.setdefault(k, {})
    stack: list[dict] = []

    def parts(z: Vector, order: list[int]) -> tuple[Vector, ...]:
        """The block vectors behind the last fold's sum z, each taken in
        ``order`` of z's positions."""
        out = []
        for fold in reversed(stack[1:]):
            y, p = fold[z]
            ranked = _ranked(list(map(operator.add, y, p)))
            order = [ranked[i] for i in order]
            out.append(tuple(p[i] for i in order))
            z = y
        out.append(tuple(z[i] for i in order))
        return tuple(reversed(out))

    def add(v: list[int], sizes, z: Vector, e_a: int, a: int, b: int) -> None:
        key = tuple(sorted(v, reverse=True))
        if key in level:
            return
        order = _ranked(v)
        level[key] = _Recipe(sizes, parts(z, order), e_a, order.index(a), order.index(b))
        if limit is not None and len(level) > limit:
            raise _OverNodeBudget("node budget exhausted")

    def extend(fold: dict, size: int) -> dict:
        """Sums of the fold's vectors with a coloring of one more block."""
        out: dict[Vector, tuple[Vector, Vector]] = {}
        for y in fold:
            _tick(deadline)
            runs = _runs(y)
            spreads = spread_lists.get((size, runs))
            if spreads is None:
                spreads = [p for x in levels[size] for p in _spreads(x, runs)]
                spreads = spread_lists.setdefault((size, runs), spreads)
            for p in spreads:
                z = tuple(sorted(map(operator.add, y, p), reverse=True))
                if z not in out:
                    out[z] = (y, p)
                    if limit is not None and len(out) > limit:
                        raise _OverNodeBudget("node budget exhausted")
        return out

    def cross(fold: dict, sizes: tuple[int, ...], shares: Optional[list[int]]) -> None:
        """Add the cross pairs' colors to every sum of the blocks."""
        total = (s * s - sum(t * t for t in sizes)) // 2
        for y in fold:
            _tick(deadline)
            heads = [i for i, v in enumerate(y) if i == 0 or v != y[i - 1]]
            if shares is None:
                for a in heads:
                    v = list(y)
                    v[a] += total
                    add(v, sizes, y, total, a, a)
                continue
            # The larger share goes to either color through the ordered pairs.
            colors = [(a, b) for a in heads for b in heads if a != b]
            colors += [(a, a + 1) for a in heads if a + 1 < len(y) and y[a + 1] == y[a]]
            for a, b in colors:
                for e in shares:
                    v = list(y)
                    v[a] += total - e
                    v[b] += e
                    add(v, sizes, y, total - e, a, b)

    done: tuple[int, ...] = ()
    for sizes, shares in _splits(s):
        depth = 0
        while depth < len(done) and sizes[depth] == done[depth]:
            depth += 1
        del stack[depth:]
        for size in sizes[depth:]:
            if stack:
                stack.append(extend(stack[-1], size))
            else:  # one block: its own level
                if limit is not None and len(levels[size]) > limit:
                    raise _OverNodeBudget("node budget exhausted")
                stack.append(levels[size])
        done = sizes
        cross(stack[-1], sizes, shares)


def _rebuild(levels: list, n: int, key: Vector) -> np.ndarray:
    """Colex colors of the coloring that ``levels[n][key]`` describes;
    color c + 1 has ``key[c]`` edges.  Each recipe appends its cross runs
    to its blocks' rows, then recurses into the blocks (``_colex_runs``)."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def fill(s: int, key: Vector, first: int, label: list[int]) -> None:
        recipe = levels[s][key]
        if recipe is None:
            return
        starts = list(accumulate(recipe.sizes, initial=first))
        pairs, reach = _pair_subsets(recipe.sizes)
        chosen = set(reach[recipe.e_a])
        for idx, (i, j) in enumerate(pairs):
            run = (label[recipe.a] if idx in chosen else label[recipe.b], recipe.sizes[i])
            for v in range(starts[j], starts[j + 1]):
                rows[v].append(run)
        for start, size, x in zip(starts, recipe.sizes, recipe.parts):
            order = _ranked(x)
            fill(size, tuple(x[i] for i in order), start, [label[i] for i in order])

    fill(n, key, 0, list(range(1, len(key) + 1)))
    return _colex_runs([run for row in rows for run in row])


def _structural(
    n: int, sizes: Vector, max_nodes: Optional[int], deadline: Optional[float]
) -> tuple[str, Optional[np.ndarray], int]:
    """Table lookup, growing the table to K_n first; returns (tag, colex
    colors or None, nodes).  An unknown verdict from the node budget counts
    ``max_nodes``; one from the deadline counts the entries stored before
    the stop, at most ``max_nodes``."""
    k = len(sizes)
    levels = _TABLES.setdefault(k, [{}, {(0,) * k: None}])
    nodes = 0
    for s in range(2, n + 1):
        limit = None if max_nodes is None else max_nodes - nodes
        if s == len(levels):
            level: dict[Vector, Optional[_Recipe]] = {}
            try:
                _fill_level(level, levels, s, k, limit, deadline)
            except _OverNodeBudget:
                return "unknown", None, max_nodes
            except BudgetExceeded:
                spent = nodes + len(level)
                return "unknown", None, spent if max_nodes is None else min(spent, max_nodes)
            with _STORE:  # another thread may have stored it meanwhile
                if s == len(levels):
                    levels.append(level)
        nodes += len(levels[s])
        if max_nodes is not None and nodes > max_nodes:
            return "unknown", None, max_nodes
    if sizes in levels[n]:
        return "feasible", _rebuild(levels, n, sizes), nodes
    return "infeasible", None, nodes


def _check_budgets(max_nodes: Optional[int], max_ms: Optional[int]) -> None:
    for name, value in (("node budget", max_nodes), ("time budget in ms", max_ms)):
        if value is not None and value < 0:
            raise PreconditionViolated(f"{name} must be >= 0, got {value}")


def search_realizable(
    d: Distribution, *, max_nodes: Optional[int] = None, max_ms: Optional[int] = None
) -> Verdict:
    """Decide whether any rainbow-free coloring realizes d, by
    ``construct._route`` with the table.

    feasible comes with a certified witness; infeasible means the necessary
    condition fails or no count vector of K_n matches; unknown means a
    budget was hit.  The table suits small n: it holds every realizable
    count vector of every smaller clique.
    """
    _check_budgets(max_nodes, max_ms)
    answer, nodes = construct._route(d, table=True, max_nodes=max_nodes, max_ms=max_ms)
    if isinstance(answer, construct.NotConstructed):
        return Verdict("unknown" if answer.reason == "unknown" else "infeasible", None, nodes)
    return Verdict("feasible", answer, nodes)


@dataclass(frozen=True)
class EnumerationResult:
    """Classification of every k-part distribution of K_n."""

    n: int
    k: int
    verdicts: tuple[tuple[Distribution, Verdict], ...]

    @property
    def feasible(self) -> tuple[Distribution, ...]:
        return tuple(d for d, v in self.verdicts if v.is_feasible)

    @property
    def infeasible(self) -> tuple[Distribution, ...]:
        return tuple(d for d, v in self.verdicts if v.is_infeasible)

    @property
    def unknown(self) -> tuple[Distribution, ...]:
        return tuple(d for d, v in self.verdicts if v.is_unknown)


def partitions(total: int, parts: int, max_part: Optional[int] = None):
    """Non-increasing positive integer partitions of ``total``."""
    if max_part is None:
        max_part = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    least = -(-total // parts)
    for first in range(min(max_part, total - parts + 1), least - 1, -1):
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def enumerate_realizable(
    n: int,
    k: int,
    *,
    max_nodes: Optional[int] = None,
    max_ms: Optional[int] = None,
) -> EnumerationResult:
    """Classify every k-part distribution of the edges of K_n."""
    _check_budgets(max_nodes, max_ms)
    out = []
    for sizes in partitions(total_edges(n), k):
        d = canonicalize(sizes, n)
        out.append((d, search_realizable(d, max_nodes=max_nodes, max_ms=max_ms)))
    return EnumerationResult(n, k, tuple(out))


def compute_g(
    k: int,
    n_max: int,
    *,
    max_nodes: Optional[int] = None,
    max_ms: Optional[int] = None,
) -> Optional[int]:
    """Smallest n <= n_max where every k-part distribution is realizable.

    Thanks to the monotone star-extension property, the first fully
    feasible n is the threshold itself.  Each n is classified one verdict
    at a time, keeping no witness, and left at its first infeasible
    distribution.  Returns None (unknown) when a budget prevents
    classification or n_max is exhausted; an infeasible verdict at n still
    moves on to n + 1 past an earlier unknown one.
    """
    if k < 3:
        raise PreconditionViolated(f"the threshold is only defined for k >= 3, got k={k}")
    _check_budgets(max_nodes, max_ms)
    for n in range(max(2, 2 * k - 2), n_max + 1):
        unknown = False
        for sizes in partitions(total_edges(n), k):
            verdict = search_realizable(canonicalize(sizes, n), max_nodes=max_nodes, max_ms=max_ms)
            if verdict.is_infeasible:
                break
            unknown = unknown or verdict.is_unknown
        else:
            return None if unknown else n
    return None
