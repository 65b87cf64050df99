"""Constructive procedures for rainbow-triangle-free colorings.

Star-based special colorings are the workhorse: most builders produce a
partition of the vertex labels 1..n-1 into groups whose label sums are the
requested class sizes.  The division and balanced schedules follow the
paper's constructive proofs and have no fallback to star search: a schedule
that breaks raises (``InvariantViolation`` from ``star_partition`` for a bad
label partition, ``InternalScheduleError`` for wrong class sizes).

``_peeled`` peels a distribution to K_{g(k)}, for the k whose threshold
g(k) is known (``_THRESHOLDS``), or else to K_{8k^2+1}, whose base is the
paper's block construction (``_gk_phases``).  ``_route`` is the one route
to an answer outside those regions, and to a K_{g(k)} base: the necessary
condition, star search under the one budget ``_STAR_NODES``, then, where
asked, the oracle's table of Gallai substitutions.  ``construct_any`` asks
for the table below K_9, ``oracle.search_realizable`` always.

Substitutions are written as colex rows of one-color runs: a star, joined
or special, is one run per row, and a block row of the 8k^2+1 construction
is three (``core._colex_runs``).

Every public builder post-checks what it returns with ``_checked`` exactly
once per call: the class sizes and either speciality, where promised, or
rainbow-freeness.  Builders that recurse (peel/replay, the 8k^2+1
construction) call each other through the unchecked private
``_construct_guaranteed`` and ``_peeled``, so one public call pays for one
certification of the result, and a wrong schedule still cannot leak out
as a wrong coloring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    BudgetExceeded,
    Coloring,
    Distribution,
    DivisionParams,
    InternalScheduleError,
    PeelImpossible,
    PreconditionViolated,
    StarPartition,
    TooManyColors,
    balanced_sizes,
    canonicalize,
    star_partition,
    total_edges,
    _colex_runs,
    _lex_order,
    _ranked,
)
from . import oracle, verify


@dataclass(frozen=True, slots=True)
class NotConstructed:
    """Returned by construct_any when no coloring could be produced."""

    reason: str  # "necessary-condition failure" | "fallback exhausted" | "unknown"
    detail: str = ""


def _checked(c: Coloring, want: Distribution, *, special: bool = False) -> Coloring:
    """Certify a builder's result; fail loudly on a mismatch.

    Runs once per public call, on the coloring that call returns; the
    recursion below a public builder is not re-certified level by level.
    A coloring promised special is certified by ``is_special_coloring``
    alone, without ``rainbow_witness``: by the star argument, every vertex
    of a special coloring sends its down-edges in one color, so the top
    vertex of any triangle sees two of its edges in one color and no
    triangle is rainbow.  ``rainbow_witness`` scans an 8k^2+1 construction
    block by block, since the block joins the rest in one color.
    """
    if special:
        if not verify.is_special_coloring(c):
            raise InternalScheduleError("construction expected to be special is not")
    else:
        w = verify.rainbow_witness(c)
        if w is not None:
            raise InternalScheduleError(f"construction produced rainbow triangle {w}")
    got = verify.class_sizes(c)
    if got != want:
        raise InternalScheduleError(f"constructed sizes {got.sizes}, wanted {want.sizes}")
    return c


# ---------------------------------------------------------------------------
# Special colorings and the star-partition solver
# ---------------------------------------------------------------------------

def special_coloring(sp: StarPartition) -> Coloring:
    """Color edge (i, j) with i > j by the group containing i.

    Always rainbow-free: in any triangle the two edges at the largest vertex
    share a star, hence a color.  Class sizes are the group label sums.
    """
    label_color = [0] * sp.n
    for gi, group in enumerate(sp.groups, start=1):
        for label in group:
            label_color[label] = gi
    stars = np.array(label_color[1:], dtype=np.int32)
    return Coloring(sp.n, np.repeat(stars, np.arange(1, sp.n)))


_STAR_NODES = 2_000_000  # star search's node budget on every route


def star_partition_for(
    d: Distribution, *, max_nodes: Optional[int] = _STAR_NODES
) -> Optional[StarPartition]:
    """Find a star partition realizing d, or None when none exists.

    Backtracking over the labels n-1, n-2, ..., 1 (largest first), placing
    each into one of the k groups; among groups with equal residual need
    only the first is tried.  Exhaustion without success proves that no
    special coloring of d exists.  The search is one loop over the groups
    placed so far, with no recursion: backtracking pops the last label's
    group, gives its label back and tries the next group.

    Every node, and the root, must pass the capacity bound
    (``_capacity_ok``): with only the labels 1..top left, the nonzero
    residuals sorted ascending r_1 <= r_2 <= ... need r_1 + ... + r_j <=
    T(T+1)/2 with T = min(r_j, top), and at most top of them may be
    nonzero.  Proof: groups 1..j take disjoint labels, each at most r_j and
    at most top, so together at most 1 + ... + T, and every nonzero group
    takes at least one label.  The bound is necessary, so it cuts only
    subtrees without a solution: the first partition found, and every None,
    are those of the unpruned search.  ``max_nodes`` counts the nodes of the
    pruned search; past it the search raises BudgetExceeded.
    """
    n, k = d.n, d.k
    residual = list(d.sizes)
    if not _capacity_ok(residual, n - 1):
        return None
    assign: list[int] = []  # assign[i] is the group of label n - 1 - i
    nodes = g = 0
    while len(assign) < n - 1:
        label = n - 1 - len(assign)
        for g in range(g, k):
            r = residual[g]
            # The other residuals are restored: an equal one before g was tried.
            if r < label or r in residual[:g]:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise BudgetExceeded(f"star partition search exceeded {max_nodes} nodes")
            residual[g] = r - label
            if _capacity_ok(residual, label - 1):
                assign.append(g)
                g = 0
                break
            residual[g] = r
        else:
            if not assign:
                return None
            residual[assign[-1]] += label + 1
            g = assign.pop() + 1
    groups: list[list[int]] = [[] for _ in range(k)]
    for idx, g in enumerate(assign):
        groups[g].append(n - 1 - idx)
    return star_partition(n, groups)


def _capacity_ok(residual: list[int], top: int) -> bool:
    """The capacity bound of ``star_partition_for``; needs sum(residual) ==
    1 + ... + top, which the search keeps.

    By that sum, a prefix ending at r_j >= top meets its bound top(top+1)/2,
    so the scan stops at the first such residual.  The prefixes below it
    force the j-th smallest nonzero residual to be at least j (induction on
    j), and with that sum at most top residuals can be nonzero, so the
    count needs no test of its own.
    """
    filled = 0
    for r in sorted(residual):
        if r >= top:
            return True
        filled += r
        if 2 * filled > r * (r + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# Division: k classes of p edges plus one class of q edges
# ---------------------------------------------------------------------------

def _division_groups(n: int, k: int, p: int, q: int) -> tuple[list[list[int]], list[int]]:
    """Partition labels 1..n-1 into k groups of sum p and one of sum q.

    Every reduction removes a suffix of the label interval, so smaller
    instances live on prefixes [1, n'-1] and no relabeling is needed.  The
    two that repeat with n, a spanning star off the q class and a pair of
    stars off each p class, run in this loop, so the recursion of
    ``_division_rest`` does not deepen with n; each removed star joins its
    group after the labels of the smaller instance.
    """
    stars: list[int] = []  # off the q class, outermost first
    pairs: list[list[list[int]]] = []  # one pair per p class, outermost first
    while n > 1 and k > 0 and q < p:
        if q >= n - 1:
            # Remove a spanning star from the q class.
            stars.append(n - 1)
            n, q = n - 1, q - (n - 1)
            continue
        if p <= 2 * n - 3:
            break
        # p >= 2n-2: remove one pair of stars from each p class.
        n2, p2 = n - 2 * k, p - (2 * n - 2 * k - 1)
        if p2 < n2 - 1 and n - 4 * k != 2:
            break
        pairs.append([_pair(n - i, n2 - 1 + i) for i in range(1, k + 1)])
        if p2 < n2 - 1:
            # n = 4k+2, p = 8k+3, q = 3k+1: pairs, then a star off the q class.
            if p != 2 * n - 1 or q != 3 * k + 1:
                raise InternalScheduleError(f"delta=2 endgame mismatch: n={n}, p={p}, q={q}")
            stars.append(n2 - 1)
            n2, q = n2 - 1, q - (n2 - 1)
        n, p = n2, p2
    pgroups, qgroup = _division_rest(n, k, p, q)
    for row in reversed(pairs):
        for group, pair in zip(pgroups, row):
            group += pair
    return pgroups, qgroup + stars[::-1]


def _division_rest(n: int, k: int, p: int, q: int) -> tuple[list[list[int]], list[int]]:
    """``_division_groups`` where neither of its loop's reductions applies."""
    if n <= 1:
        if q != 0 or (k > 0 and p > 0):
            raise InternalScheduleError(f"bad base instance n={n}, k={k}, p={p}, q={q}")
        return [[] for _ in range(k)], []
    if k == 0:
        return [], list(range(1, n))
    if q >= p:
        # Split q into extra p-classes plus a remainder; re-merge afterwards.
        take, q_small = divmod(q, p)
        pgroups, qgroup = _division_groups(n, k + take, p, q_small)
        merged = qgroup
        for g in pgroups[k:]:
            merged = merged + g
        return pgroups[:k], merged

    # Now q <= min(n-2, p-1).
    if p <= 2 * n - 3:
        # Classes from pairs of stars with centers summing to p.
        if p % 2 == 1:
            count = n - (p + 1) // 2
            if count > k:
                raise InternalScheduleError(f"odd pairing count {count} exceeds k={k}")
            pairs = [_pair(n - 1 - t, p - n + 1 + t) for t in range(count)]
            n_rec = p - n + 1
            pgroups, qgroup = _division_groups(n_rec, k - count, p, q)
            return pgroups + pairs, qgroup
        half = p // 2
        count = n - 1 - half
        pairs = [_pair(n - 1 - t, p - n + 1 + t) for t in range(count)]
        n_rec = p - n + 1
        k2 = 2 * (k - count) - 1
        if k2 < -1:
            raise InternalScheduleError(f"even pairing count {count} exceeds k={k}")
        if k2 == -1:
            # All p-classes already formed; leftover star + remaining labels are q.
            if q != half + total_edges(n_rec):
                raise InternalScheduleError(
                    f"degenerate even case: q={q} != {half}+{total_edges(n_rec)}"
                )
            return pairs, [half] + list(range(1, n_rec))
        halves, qgroup = _division_groups(n_rec, k2, half, q)
        halves = halves + [[half]]
        merged = [halves[2 * t] + halves[2 * t + 1] for t in range(len(halves) // 2)]
        return merged + pairs, qgroup

    # p >= 2n-2, and removing the pairs would leave p below n-1.
    if n - 4 * k == 1:
        # n = 4k+1, p = 8k, q = 2k: one star triple plus k-1 quadruples.
        if p != 2 * n - 2 or q != 2 * k:
            raise InternalScheduleError(f"delta=1 endgame mismatch: n={n}, p={p}, q={q}")
        groups = [[4 * k, 4 * k - 1, 1]]
        for i in range(1, k):
            groups.append([4 * k - 2 * i, 4 * k - 2 * i - 1, 2 * i, 2 * i + 1])
        return groups, [2 * k]
    raise InternalScheduleError(f"unexpected endgame delta={n - 4 * k} for n={n}, k={k}, p={p}")


def _pair(hi: int, lo: int) -> list[int]:
    """Star pair as a label group; the empty star S(0) is simply skipped."""
    if not (0 <= lo < hi):
        raise InternalScheduleError(f"bad star pair ({hi}, {lo})")
    return [hi] if lo == 0 else [hi, lo]


def construct_division(params: DivisionParams) -> Coloring:
    """Special coloring with k classes of p edges and one class of q edges."""
    n, k, p, q = params.n, params.k, params.p, params.q
    target = params.target()
    pgroups, qgroup = _division_groups(n, k, p, q)
    groups = [g for g in pgroups if g]
    if qgroup:
        groups.append(qgroup)
    return _checked(special_coloring(star_partition(n, groups)), target, special=True)


# ---------------------------------------------------------------------------
# Balanced colorings
# ---------------------------------------------------------------------------

def _balanced_groups(n: int, k: int) -> list[list[int]]:
    """Label groups realizing the balanced k-part distribution of K_n."""
    if k == 1:
        return [list(range(1, n))]
    if n == 2 * k - 1:
        # k = ceil(n/2) with n odd: one class of 2k-2, the rest of size 2k-3.
        groups = [[2 * k - 2], [2 * k - 3]]
        groups.extend([j, 2 * k - 3 - j] for j in range(1, k - 1))
        return groups
    if n >= 4 * k:
        # Group the classes of a finer balanced coloring.
        r = max(2, -(-n // (4 * k)))
        if r * k > (n + 1) // 2:
            raise InternalScheduleError(f"no valid grouping factor for n={n}, k={k}")
        sub = _balanced_groups(n, r * k)
        buckets: list[list[int]] = [[] for _ in range(k)]
        for t, i in enumerate(_ranked([sum(g) for g in sub])):
            buckets[t % k].extend(sub[i])
        return buckets

    i = n - 2 * k
    ell, m = divmod(total_edges(i), k)
    z = 2 * k + 2 * i + ell - 1
    zp = z + 1
    if ell % 2 == 0:
        h = ell // 2
        if m <= h:
            pairs = [_pair(2 * k + i - 1 - t, i + ell + t) for t in range(k - h)]
            if h == 0:
                if i + ell > 1:
                    raise InternalScheduleError(f"nonempty residue with h=0 for n={n}, k={k}")
                return pairs
            sub = _balanced_groups(i + ell, h)
            _expect_sums(sub, [z] * (h - m) + [zp] * m, f"balanced n={n} k={k} even-a")
            return pairs + sub
        pairs_z = [_pair(2 * k + i - 1 - t, i + ell + t) for t in range(k - m)]
        pairs_zp = [
            _pair(k + i + m - 1 - t, k + i - m + ell + 1 + t) for t in range(m - h - 1)
        ]
        u1 = k + i - m + ell
        u2 = k + i + h
        if total_edges(i + ell) != h * zp + (m - h):
            raise InternalScheduleError(f"even-b identity failed for n={n}, k={k}")
        pgroups, qgroup = _division_groups(i + ell, h, zp, m - h)
        assembled = qgroup + [u1, u2]
        return pairs_z + pairs_zp + pgroups + [assembled]

    h1 = (ell + 1) // 2
    if k - h1 <= m:
        pairs = [_pair(2 * k + i - 1 - t, i + ell + 1 + t) for t in range(k - h1)]
        sub = _balanced_groups(i + ell + 1, h1)
        _expect_sums(sub, [z] * (k - m) + [zp] * (m - k + h1), f"balanced n={n} k={k} odd-a")
        return pairs + sub
    # Few large classes: pairs of both sums with one skipped center, then
    # division on the bottom interval completes the last class of sum z.
    t_count = k - m - h1
    pairs_z = [_pair(2 * k + i - 1 - t, i + ell + t) for t in range(t_count)]
    u = i + ell + t_count
    pairs_zp = [_pair(2 * k + i - 1 - t_count - t, u + 1 + t) for t in range(m)]
    if total_edges(i + ell) != (h1 - 1) * z + (z - u):
        raise InternalScheduleError(f"odd-b identity failed for n={n}, k={k}")
    pgroups, qgroup = _division_groups(i + ell, h1 - 1, z, z - u)
    assembled = qgroup + [u]
    return pairs_z + pairs_zp + pgroups + [assembled]


def _expect_sums(groups: Sequence[Sequence[int]], want: list[int], context: str) -> None:
    if sorted(sum(g) for g in groups) != sorted(want):
        raise InternalScheduleError(f"{context}: subschedule sums mismatch")


def construct_balanced(n: int, k: int) -> Coloring:
    """Rainbow-free k-coloring of K_n with class sizes differing by <= 1."""
    if k < 1:
        raise PreconditionViolated("k must be >= 1")
    if k > (n + 1) // 2:
        raise TooManyColors(f"balanced colorings need k <= ceil(n/2) = {(n + 1) // 2}, got k={k}")
    if n == 1:
        return Coloring(1, ())
    target = canonicalize(balanced_sizes(n, k), n)
    c = special_coloring(star_partition(n, _balanced_groups(n, k)))
    return _checked(c, target, special=True)


# ---------------------------------------------------------------------------
# Monotone extension and peeling
# ---------------------------------------------------------------------------

def extend_by_star(c: Coloring, color: int) -> Coloring:
    """Join a new vertex to all others in one color (may open a new class).

    The new vertex is homogeneously attached, so rainbow-freeness is
    preserved; the chosen class grows by n edges.
    """
    if not (1 <= color <= c.k + 1):
        raise PreconditionViolated(f"color must be in 1..{c.k + 1}, got {color}")
    return _join_stars(c, [color])


def _join_stars(c: Coloring, colors: Sequence[int]) -> Coloring:
    """Add one vertex per entry, each joined to all earlier vertices in it.

    The new rows go to the end of the colex array, so the result is built
    as a single Coloring however many vertices are added.
    """
    stars = np.repeat(np.asarray(colors, dtype=np.int32), np.arange(c.n, c.n + len(colors)))
    return Coloring(c.n + len(colors), np.concatenate([c.colex_colors(), stars]))


def peel_reduction(d: Distribution, base_n: int) -> tuple[Distribution, tuple[int, ...]]:
    """Shrink d to base_n vertices by repeatedly peeling spanning stars.

    At each intermediate size n' the largest class loses n'-1 edges, the
    lowest position among equal ones (``_ranked``).  Returns the residual
    distribution and the log of peeled class positions (indices into
    d.sizes); replay_peel re-attaches the stars and restores d.
    """
    if not (1 <= base_n <= d.n):
        raise PreconditionViolated(f"need 1 <= base_n <= {d.n}, got {base_n}")
    slots = list(d.sizes)
    log: list[int] = []
    for n_cur in range(d.n, base_n, -1):
        star = n_cur - 1
        slot = _ranked(slots)[0]
        if slots[slot] < star:
            raise PeelImpossible(
                f"largest class has {slots[slot]} < {star} edges at n'={n_cur}"
            )
        slots[slot] -= star
        log.append(slot)
    base = canonicalize([s for s in slots if s > 0], base_n)
    return base, tuple(log)


def _relabel(counts: Sequence[int], sizes: Sequence[int]) -> Optional[np.ndarray]:
    """int32 table t, t[c] the position of ``sizes`` that color c (of
    ``counts[c-1]`` edges) takes: both sides in ``_ranked`` order, by
    descending size with ties to the lower color and the lower position,
    matched rank by rank.  t[0] = 0, and a position of size 0 takes no
    color.  None when the nonzero ``sizes`` are not the ``counts``."""
    cols, places = _ranked(counts), _ranked(sizes)
    if [counts[c] for c in cols] != [sizes[p] for p in places if sizes[p]]:
        return None
    table = np.zeros(len(counts) + 1, dtype=np.int32)
    table[1:][cols] = places[: len(cols)]
    return table


def replay_peel(base: Coloring, d: Distribution, log: Sequence[int]) -> Coloring:
    """Inverse of peel_reduction: re-attach the logged stars onto ``base``."""
    if base.n + len(log) != d.n:
        raise PreconditionViolated(f"log length {len(log)} does not bridge {base.n} -> {d.n}")
    slots = list(d.sizes)
    for step, slot in enumerate(log):
        slots[slot] -= (d.n - step) - 1
    table = _relabel(base.counts, slots)
    if table is None:
        raise PreconditionViolated("base coloring does not match the peeled distribution")
    slot_color = np.zeros(len(slots), dtype=np.int32)
    slot_color[table[1:]] = np.arange(1, base.k + 1)
    # A slot the base lacks opens the next new color, in replay order.
    steps = list(reversed(log))
    new = [slot for slot in dict.fromkeys(steps) if not slot_color[slot]]
    slot_color[new] = np.arange(base.k + 1, base.k + 1 + len(new))
    return _join_stars(base, slot_color[steps])


# ---------------------------------------------------------------------------
# Guaranteed regions: two colors, and k colors from K_{g(k)} up
# ---------------------------------------------------------------------------

# g(k), the least n from which every k-part distribution of K_n is
# realizable: the paper proves g(3) = 5 and g(4) = 8, and ``compute_g``
# recomputes both from the oracle's table.
_THRESHOLDS = {3: 5, 4: 8}


def _lex_fill(n: int, sizes: Sequence[int]) -> Coloring:
    """Fill edges in lexicographic order; safe only for at most two colors."""
    if len(sizes) > 2:
        raise PreconditionViolated("lexicographic fill is only rainbow-free for k <= 2")
    _, _, at = _lex_order(n)  # the colex index of each edge, in lex order
    arr = np.empty(len(at), dtype=np.int32)
    arr[at] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return Coloring(n, arr)


# ---------------------------------------------------------------------------
# General k: the quadratic-threshold construction
# ---------------------------------------------------------------------------

def construct_gk_general(d: Distribution) -> Coloring:
    """Any k-part distribution once n reaches 8k^2 + 1.

    Above the threshold the instance is peeled down to it; at the threshold
    the smallest class is eliminated by spanning stars plus a residue placed
    inside a fresh block of 4k+1 vertices, and the remaining k-1 classes are
    built recursively on what is left.
    """
    k, n = d.k, d.n
    if k < 3:
        raise PreconditionViolated(f"need k >= 3, got k={k}")
    threshold = 8 * k * k + 1
    if n < threshold:
        raise PreconditionViolated(f"need n >= 8k^2+1 = {threshold}, got n={n}")
    return _checked(_peeled(d, threshold), d)


def _gk_phases(d: Distribution) -> Coloring:
    """n = 8k^2 + 1 as colex rows of runs: the rest, built with the other
    classes and relabelled; a block of 4k + 1 rows, each color 1 to the rest,
    color k to its first ``take`` block vertices (greedy from the top row
    down), then color 1; on top, spanning stars of color k, one run each."""
    k, n, sizes = d.k, d.n, d.sizes  # color i  <->  sizes[i-1]
    m, small = n, sizes[k - 1]
    while small >= m - 1:
        m -= 1
        small -= m
    block = 4 * k + 1
    n_rest = m - block
    if n_rest < 1:
        raise InternalScheduleError(f"block does not fit: n={n}, k={k}, stars={n - m}")
    runs, rem = [(k, v) for v in range(m, n)], small
    for j in range(block - 1, -1, -1):
        take = min(rem, j)
        rem -= take
        runs = [(1, n_rest), (k, take), (1, j - take)] + runs
    if rem:
        raise InternalScheduleError(f"block capacity exceeded: n={n}, k={k}")
    e1_rest = sizes[0] - block * n_rest - (total_edges(block) - small)
    if e1_rest < 0:
        raise InternalScheduleError(f"largest class too small: n={n}, k={k}, deficit={-e1_rest}")
    rest = (0, e1_rest) + sizes[1 : k - 1]  # indexed by color; 0 is unused
    csub = _construct_guaranteed(canonicalize([s for s in rest if s], n_rest))
    table = _relabel(csub.counts, rest)
    if table is None:
        raise InternalScheduleError("recursive level does not match the residual sizes")
    return Coloring(n, np.concatenate([table[csub.colex_colors()], _colex_runs(runs)]))


def _construct_guaranteed(d: Distribution) -> Coloring:
    """Builder for the regions where success is unconditional: two colors
    fill in lexicographic order, more are peeled to K_{g(k)}, else to
    K_{8k^2+1} (``peel_reduction`` refuses a smaller d.n)."""
    k = d.k
    if k <= 2:
        return _lex_fill(d.n, d.sizes)
    return _peeled(d, _THRESHOLDS.get(k, 8 * k * k + 1))


def _peeled(d: Distribution, g: int) -> Coloring:
    """d peeled to K_g, its base built and the stars put back; the base
    alone when nothing was peeled.  A base with k classes comes from
    ``_gk_phases`` at g = 8k^2+1, else from ``_route`` with the table;
    one with fewer, such as (5,5)/K_5 from (5,5,5)/K_6, from
    ``_construct_guaranteed``."""
    base, log = peel_reduction(d, g)
    if base.k < d.k:
        built = _construct_guaranteed(base)
    elif g == 8 * d.k * d.k + 1:
        built = _gk_phases(base)
    elif isinstance(built := _route(base, table=True)[0], NotConstructed):
        raise InternalScheduleError(f"no coloring found for {base} (expected total)")
    return replay_peel(built, d, log) if log else built


# ---------------------------------------------------------------------------
# Lower-bound witness, merging, dispatch
# ---------------------------------------------------------------------------

def lower_bound_witness(k: int) -> tuple[int, Distribution]:
    """The k-part distribution of K_{2k-3} that no coloring realizes.

    Its k-1 singleton classes cannot be pairwise disjoint on 2k-3 vertices,
    so two of them meet and close a rainbow triangle with any third color.
    """
    if k < 3:
        raise PreconditionViolated("need k >= 3")
    n = 2 * k - 3
    head = total_edges(n) - (k - 1)
    return n, canonicalize([head] + [1] * (k - 1), n)


def merge_classes(c: Coloring, grouping: Iterable[Iterable[int]]) -> Coloring:
    """Merge color classes; part j of the grouping becomes color j+1.

    Merging cannot create a rainbow triangle, and a special coloring stays
    special.
    """
    parts = [tuple(p) for p in grouping]
    seen: set[int] = set()
    for p in parts:
        if not p:
            raise PreconditionViolated("grouping parts must be nonempty")
        for col in p:
            if not (1 <= col <= c.k) or col in seen:
                raise PreconditionViolated(f"grouping must cover colors 1..{c.k} exactly once")
            seen.add(col)
    if len(seen) != c.k:
        raise PreconditionViolated(f"grouping must cover colors 1..{c.k} exactly once")
    table = np.zeros(c.k + 1, dtype=np.int32)
    for new, p in enumerate(parts, start=1):
        table[list(p)] = new
    return Coloring(c.n, table[c.colex_colors()])


def _route(
    d: Distribution, *, table: bool, max_nodes: Optional[int] = None, max_ms: Optional[int] = None
) -> tuple[Coloring | NotConstructed, int]:
    """The certified coloring or the refusal for d, and the table entries
    counted: the necessary condition, star search, then, if ``table``,
    ``oracle._structural`` under the budgets.  Star search is bounded by
    ``_STAR_NODES`` alone; running out leaves the answer to the table."""
    ok, ell = verify.check_necessary(d)
    if not ok:
        return NotConstructed("necessary-condition failure", f"prefix bound fails at l={ell}"), 0
    deadline = time.monotonic() + max_ms / 1000.0 if max_ms is not None else None
    try:
        sp = star_partition_for(d)
    except BudgetExceeded:
        if not table:
            return NotConstructed("unknown", "star partition search exceeded its budget"), 0
        sp = None
    if sp is not None:
        return _checked(special_coloring(sp), d, special=True), 0
    if not table:
        return NotConstructed("unknown", "no special coloring found and n too large for the oracle"), 0
    tag, colors, nodes = oracle._structural(d.n, d.sizes, max_nodes, deadline)
    if tag == "feasible":
        return _checked(Coloring(d.n, colors), d), nodes
    if tag == "infeasible":
        return NotConstructed("fallback exhausted", "exhaustive search proved infeasibility"), nodes
    return NotConstructed("unknown", "table search exceeded its budget"), nodes


def construct_any(d: Distribution) -> Coloring | NotConstructed:
    """Dispatch to the guaranteed builders, else ``_route``.

    Guaranteed regions: k <= 2 always; n >= g(k) for each k in
    ``_THRESHOLDS`` (g(3) = 5, g(4) = 8), by peeling to K_{g(k)}; any other
    k with n >= 8k^2+1.  Outside them the route decides n <= 8 exactly, with
    the table of every count vector of K_n; larger n get the necessary
    condition and star search alone, and stay ``unknown`` when that fails.
    """
    k, n = d.k, d.n
    if k <= 2 or n >= _THRESHOLDS.get(k, 8 * k * k + 1):
        return _checked(_construct_guaranteed(d), d)
    return _route(d, table=n <= 8)[0]
