"""Exact decision procedures for small instances.

The search colors edges in colex order (all edges into vertex v come after
everything among 0..v-1), pruning on: the rainbow triangle closed by the new
edge, exhausted color budgets, symmetry among interchangeable colors, and the
prefix-sum bound applied to the untouched vertex suffix.  Budgets turn into
an ``unknown`` verdict, never a wrong tag.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .core import (
    BudgetExceeded,
    Coloring,
    Distribution,
    Verdict,
    canonicalize,
    total_edges,
)
from . import verify


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


def _backtrack(
    n: int,
    sizes: tuple[int, ...],
    max_nodes: Optional[int],
    deadline: Optional[float],
    prefix: tuple[int, ...] = (),
) -> tuple[str, Optional[tuple[int, ...]], int]:
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
    nf = len(prefix)
    masks[0] = full
    t = 0
    time_check = 0

    while True:
        mask = masks[t]
        c = ptrs[t] + 1
        if t < nf:
            # Forced prefix move (parallel subtree split).
            c = prefix[t] if ptrs[t] == 0 else k + 1
            if c <= k and not (
                (mask >> c) & 1
                and rem[c] > 0
                and (used[c] or sym_prev[c] == 0 or used[sym_prev[c]])
            ):
                c = k + 1
        else:
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
        if max_nodes is not None and nodes >= max_nodes:
            return "unknown", None, nodes
        if deadline is not None:
            time_check += 1
            if time_check >= 4096:
                time_check = 0
                if time.monotonic() > deadline:
                    return "unknown", None, nodes
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


def _backtrack_worker(args) -> tuple[str, Optional[tuple[int, ...]], int]:
    return _backtrack(*args)


def _root_prefixes(n: int, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Color choices for the first two edges (subtree split points).

    Invalid combinations are cheap: the worker rejects them immediately
    through the same validity checks as regular moves.
    """
    k = len(sizes)
    firsts = [c for c in range(1, k + 1) if c == 1 or sizes[c - 1] != sizes[c - 2]]
    if total_edges(n) < 2:
        return [(c,) for c in firsts]
    return [(c1, c2) for c1 in firsts for c2 in range(1, k + 1)]


def search_realizable(
    d: Distribution,
    *,
    max_nodes: Optional[int] = None,
    max_ms: Optional[int] = None,
    jobs: int = 1,
) -> Verdict:
    """Decide whether any rainbow-free coloring realizes d.

    feasible comes with a verified witness; infeasible means the pruned
    search space was exhausted; unknown means a budget was hit.  Intended
    for n <= 8 (larger inputs are accepted but may come back unknown).
    """
    ok, _ = verify.check_necessary(d)
    if not ok:
        return Verdict("infeasible", None, 0)
    deadline = time.monotonic() + max_ms / 1000.0 if max_ms is not None else None
    # Constructive fast path: a special coloring is a certificate.
    from . import construct

    try:
        sp = construct.star_partition_for(d, max_nodes=100_000)
    except BudgetExceeded:
        sp = None
    if sp is not None:
        witness = construct.special_coloring(sp)
        return Verdict("feasible", witness, 0)

    if jobs > 1 and total_edges(d.n) >= 2:
        prefixes = _root_prefixes(d.n, d.sizes)
        tasks = [(d.n, d.sizes, max_nodes, deadline, p) for p in prefixes]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_backtrack_worker, tasks))
        nodes = sum(r[2] for r in results)
        tags = [tag for tag, _, _ in results]
        if "feasible" in tags:
            tag, colors, _ = results[tags.index("feasible")]
        else:
            tag = "unknown" if "unknown" in tags else "infeasible"
    else:
        tag, colors, nodes = _backtrack(d.n, d.sizes, max_nodes, deadline)
    if tag == "feasible":
        assert colors is not None
        return Verdict("feasible", construct._checked(Coloring(d.n, colors), d), nodes)
    return Verdict(tag, None, nodes)


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
    jobs: int = 1,
) -> EnumerationResult:
    """Classify every k-part distribution of the edges of K_n."""
    out = []
    for sizes in partitions(total_edges(n), k):
        d = canonicalize(sizes, n)
        out.append((d, search_realizable(d, max_nodes=max_nodes, max_ms=max_ms, jobs=jobs)))
    return EnumerationResult(n, k, tuple(out))


def compute_g(
    k: int,
    n_max: int,
    *,
    max_nodes: Optional[int] = None,
    max_ms: Optional[int] = None,
    jobs: int = 1,
) -> Optional[int]:
    """Smallest n <= n_max where every k-part distribution is realizable.

    Thanks to the monotone star-extension property, the first fully
    feasible n is the threshold itself.  Returns None (unknown) when a
    budget prevents classification or n_max is exhausted.
    """
    if k < 3:
        raise ValueError("the threshold is only defined for k >= 3")
    for n in range(max(2, 2 * k - 2), n_max + 1):
        result = enumerate_realizable(n, k, max_nodes=max_nodes, max_ms=max_ms, jobs=jobs)
        if result.infeasible:
            continue
        if result.unknown:
            return None
        return n
    return None
