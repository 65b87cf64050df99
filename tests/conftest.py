"""Shared helpers: independent brute-force oracles and input strategies."""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from hypothesis import strategies as st

from gallai.construct import _STAR_NODES
from gallai.core import Coloring, total_edges


def naive_rainbow(c: Coloring):
    """Triple-loop rainbow-triangle scan, independent of the library's."""
    for a, b, d in combinations(range(c.n), 3):
        x = c.edge_color(a, b)
        y = c.edge_color(a, d)
        z = c.edge_color(b, d)
        if x != y and x != z and y != z:
            return (a, b, d)
    return None


def nested_modules(n: int) -> Coloring:
    """K_n where vertex 2j has color 1 below it and vertex 2j+1 has color 2
    to 0..2j-1 and color 3 to 2j: the modules 0..2j-1 nest n/2 deep, and
    (0, 2, 3) is the first rainbow triangle."""
    return Coloring(n, [
        col for v in range(1, n) for col in ([1] * v if v % 2 == 0 else [2] * (v - 1) + [3])
    ])


def compact_colors(raw: list[int]) -> list[int]:
    """Remap arbitrary positive ids onto 1..k so Coloring accepts them."""
    used = sorted(set(raw))
    remap = {old: new for new, old in enumerate(used, start=1)}
    return [remap[c] for c in raw]


@st.composite
def arbitrary_colorings(draw, min_n: int = 1, max_n: int = 7, max_colors: int = 4):
    """Completely arbitrary colorings (not necessarily rainbow-free)."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_colors),
            min_size=total_edges(n),
            max_size=total_edges(n),
        )
    )
    return Coloring(n, compact_colors(raw))


@st.composite
def label_partitions(draw, min_n: int = 2, max_n: int = 12):
    """Random star partitions: shuffle labels 1..n-1, cut into groups."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    labels = draw(st.permutations(list(range(1, n))))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    cuts = sorted(draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 2),
            min_size=k - 1,
            max_size=k - 1,
            unique=True,
        )
    )) if n > 2 and k > 1 else []
    groups = []
    prev = 0
    for cut in cuts + [n - 1]:
        groups.append(tuple(labels[prev:cut]))
        prev = cut
    return n, [g for g in groups if g]


# ---------------------------------------------------------------------------
# Backtracking search: a second method, independent of the oracle's table
# ---------------------------------------------------------------------------
# It colors edges in colex order (all edges into vertex v come after
# everything among 0..v-1), pruning on the rainbow triangle closed by the
# new edge, exhausted color budgets, symmetry among interchangeable colors,
# and the prefix-sum bound applied to the untouched vertex suffix.

def _suffix_bounds(n: int, k: int) -> list[Optional[tuple[int, ...]]]:
    """Per-edge prefix-sum requirements for the untouched suffix.

    Entry t is set when edge t opens a new vertex row v: any completion
    induces a rainbow-free coloring on the last n-v vertices, so the sorted
    remaining budgets must dominate the bound sums for K_{n-v}.
    """
    out: list[Optional[tuple[int, ...]]] = [None] * total_edges(n)
    t = 0
    for v in range(1, n):
        m_f = n - v
        if m_f >= 2:
            bounds = []
            acc = 0
            for j in range(1, min(k, m_f - 1) + 1):
                acc += m_f - j
                bounds.append(acc)
            out[t] = tuple(bounds)
        t += v
    return out


def _backtrack(n: int, sizes: tuple[int, ...]) -> tuple[str, Optional[tuple[int, ...]], int]:
    """Exhaustive search core; returns (tag, colex colors or None, nodes)."""
    k = len(sizes)
    E = total_edges(n)
    if E == 0:
        return ("feasible", (), 0) if k == 0 else ("infeasible", None, 0)
    if k == 0:
        return "infeasible", None, 0

    pairs_below: list[tuple[tuple[int, int], ...]] = []
    for v in range(n):
        for u in range(v):
            pairs_below.append(
                tuple(
                    (u * (u - 1) // 2 + w, v * (v - 1) // 2 + w) for w in range(u)
                )
            )
    row_bounds = _suffix_bounds(n, k)
    bit = [1 << c for c in range(k + 1)]
    full = (1 << (k + 1)) - 2
    sym_prev = [0] * (k + 1)
    for c in range(2, k + 1):
        if sizes[c - 1] == sizes[c - 2]:
            sym_prev[c] = c - 1

    rem = [0] + list(sizes)
    used = [0] * (k + 1)
    choice = [0] * E
    masks = [0] * E
    ptrs = [0] * E
    nodes = 0
    masks[0] = full
    t = 0

    while True:
        mask = masks[t]
        c = ptrs[t] + 1
        while c <= k:
            if (
                (mask >> c) & 1
                and rem[c] > 0
                and (used[c] or sym_prev[c] == 0 or used[sym_prev[c]])
            ):
                break
            c += 1
        if c > k:
            if t == 0:
                return "infeasible", None, nodes
            t -= 1
            cc = choice[t]
            rem[cc] += 1
            used[cc] -= 1
            continue
        ptrs[t] = c
        choice[t] = c
        rem[c] -= 1
        used[c] += 1
        nodes += 1
        nt = t + 1
        if nt == E:
            return "feasible", tuple(choice), nodes
        bounds = row_bounds[nt]
        if bounds is not None:
            rs = sorted(rem[1:], reverse=True)
            acc = 0
            ok = True
            for idx, b in enumerate(bounds):
                acc += rs[idx]
                if acc < b:
                    ok = False
                    break
            if not ok:
                rem[c] += 1
                used[c] -= 1
                continue
        m2 = full
        for ia, ib in pairs_below[nt]:
            a = choice[ia]
            b = choice[ib]
            if a != b:
                m2 &= bit[a] | bit[b]
                if not m2:
                    break
        masks[nt] = m2
        ptrs[nt] = 0
        t = nt


# ---------------------------------------------------------------------------
# Recursive star-partition search: the reference for the library's flat loop
# ---------------------------------------------------------------------------

def recursive_star_partition(d, max_nodes: Optional[int] = _STAR_NODES):
    """The star-partition search as one Python frame per label, with a set
    of the residuals tried at each depth: the same order, pruning and node
    count as ``construct.star_partition_for``.  Returns its StarPartition or
    None, and raises BudgetExceeded past max_nodes."""
    from gallai.construct import _capacity_ok
    from gallai.core import BudgetExceeded, star_partition

    n, k = d.n, d.k
    residual = list(d.sizes)
    if not _capacity_ok(residual, n - 1):
        return None
    assign = [0] * (n - 1)
    nodes = 0

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == n - 1:
            return True
        label = n - 1 - idx
        tried = set()
        for g in range(k):
            r = residual[g]
            if r < label or r in tried:
                continue
            tried.add(r)
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceeded(f"star partition search exceeded {max_nodes} nodes")
            residual[g] = r - label
            if _capacity_ok(residual, label - 1):
                assign[idx] = g
                if place(idx + 1):
                    return True
            residual[g] = r
        return False

    if not place(0):
        return None
    groups: list[list[int]] = [[] for _ in range(k)]
    for idx, g in enumerate(assign):
        groups[g].append(n - 1 - idx)
    return star_partition(n, groups)
