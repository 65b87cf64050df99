"""Core domain types for rainbow-triangle-free edge colorings of complete graphs.

Vertices of K_n are labeled 0..n-1, colors are 1-based ids.  Edge colors are
stored in a dense triangular array indexed in colex order (all edges whose
larger endpoint is v form one contiguous row), which gives O(1) lookups and
makes star-shaped updates cheap.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GallaiError(Exception):
    """Base class for all errors raised by this package."""


class SumMismatch(GallaiError):
    """Distribution entries do not add up to the edge count of K_n."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"class sizes must sum to {expected}, got {got}")
        self.expected = expected
        self.got = got


class NonPositiveEntry(GallaiError):
    """A class size was zero or negative."""


class ParseError(GallaiError):
    """A serialized coloring could not be read."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(ParseError):
    """A structurally well-formed input violates a semantic invariant.

    Raised both at load time (missing edge, color out of range, phantom
    color) and at construction boundaries of core values.
    """


class NotGallai(GallaiError):
    """A coloring expected to be rainbow-triangle-free is not."""

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"rainbow triangle on vertices {witness}")
        self.witness = witness


class NotFound(GallaiError):
    """No certificate of the requested kind exists for the input."""


class BudgetExceeded(GallaiError):
    """A bounded search hit its node or time budget."""


class PreconditionViolated(GallaiError):
    """Arguments violate a documented precondition."""


class TooManyColors(PreconditionViolated):
    """A balanced coloring with more than ceil(n/2) colors was requested."""


class PeelImpossible(GallaiError):
    """The largest class is too small to remove a spanning star."""


class InternalScheduleError(GallaiError):
    """A constructive schedule or a search witness failed validation.

    Never returned silently: constructors validate their output and raise
    this instead of handing back a wrong coloring.
    """


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def total_edges(n: int) -> int:
    """Number of edges of K_n."""
    return n * (n - 1) // 2


def edge_index(u: int, v: int) -> int:
    """Position of edge {u,v} in the colex-ordered triangular array."""
    if u > v:
        u, v = v, u
    if u == v or u < 0:
        raise ValueError(f"not an edge: ({u}, {v})")
    return v * (v - 1) // 2 + u


def balanced_sizes(n: int, k: int) -> tuple[int, ...]:
    """The unique balanced k-part distribution of the edges of K_n."""
    if k <= 0:
        raise PreconditionViolated("k must be positive")
    small, extra = divmod(total_edges(n), k)
    return (small + 1,) * extra + (small,) * (k - extra)


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Distribution:
    """A multiset of positive class sizes bound to a vertex count.

    ``sizes`` is kept sorted non-increasing (canonical form) and must sum to
    the number of edges of K_n.
    """

    sizes: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvariantViolation(f"vertex count must be >= 1, got {self.n}")
        for s in self.sizes:
            if s < 1:
                raise NonPositiveEntry(f"class sizes must be >= 1, got {s}")
        if any(a < b for a, b in zip(self.sizes, self.sizes[1:])):
            raise InvariantViolation("sizes must be sorted non-increasing")
        expected = total_edges(self.n)
        got = sum(self.sizes)
        if got != expected:
            raise SumMismatch(expected, got)

    @property
    def k(self) -> int:
        return len(self.sizes)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + f") on K_{self.n}"


def canonicalize(sizes: Iterable[int], n: int) -> Distribution:
    """Sort class sizes into canonical non-increasing order and validate."""
    return Distribution(tuple(sorted(sizes, reverse=True)), n)


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------

class Coloring:
    """A complete assignment of a color id in 1..k to every edge of K_n.

    Immutable after construction: the colors are kept in a private,
    read-only int32 array in colex edge order.  Every color id in 1..k
    occurs on at least one edge (no phantom colors).  ``n``, ``k``,
    ``counts`` and the colors that ``edge_color`` and ``edges`` return are
    Python ints.
    """

    __slots__ = ("n", "k", "counts", "_colors")

    def __init__(self, n: int, colors: Iterable[int], k: Optional[int] = None):
        if n < 1:
            raise InvariantViolation(f"vertex count must be >= 1, got {n}")
        arr = colors if isinstance(colors, np.ndarray) else np.fromiter(colors, dtype=np.int64)
        edges = total_edges(n)
        if len(arr) != edges:
            raise InvariantViolation(
                f"expected {edges} edge colors for K_{n}, got {len(arr)}"
            )
        kk = int(arr.max()) if edges else 0
        if k is not None and k != kk:
            raise InvariantViolation(f"declared k={k} but max color in use is {kk}")
        if edges and arr.min() < 1:
            first = int(arr[np.argmax(arr < 1)])
            raise InvariantViolation(f"color ids must be >= 1, got {first}")
        # Refused before bincount allocates kk + 1 counters.
        if kk > edges:
            raise InvariantViolation(f"{kk} colors need at least {kk} edges; K_{n} has {edges}")
        counts = tuple(np.bincount(arr)[1:].tolist())
        if 0 in counts:
            raise InvariantViolation(f"phantom color {counts.index(0) + 1}: declared but unused")
        self.n = n
        self.k = kk
        self.counts = counts
        self._colors = arr.astype(np.int32)
        self._colors.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "Coloring":
        """Build a coloring from (u, v, color) triples covering every edge once."""
        arr: list[int] = [0] * total_edges(n)
        for u, v, c in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvariantViolation(f"bad edge ({u}, {v}) for K_{n}")
            i = edge_index(u, v)
            if arr[i] != 0:
                raise InvariantViolation(f"duplicate edge ({u}, {v})")
            arr[i] = c
        for i, c in enumerate(arr):
            if c == 0:
                raise InvariantViolation(f"missing edge at triangular index {i}")
        return cls(n, arr)

    def edge_color(self, u: int, v: int) -> int:
        return int(self._colors[edge_index(u, v)])

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, color) in lexicographic order of (u, v)."""
        arr = self._colors.tolist()
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, arr[v * (v - 1) // 2 + u]

    def colex_colors(self) -> np.ndarray:
        """The triangular color array in colex edge order (int32, read-only)."""
        return self._colors

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self._colors.tobytes() == other._colors.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.n, self._colors.tobytes()))

    def __reduce__(self):  # copies and pickles rebuild a read-only array
        return Coloring, (self.n, self._colors)

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, k={self.k}, counts={self.counts})"


# ---------------------------------------------------------------------------
# Star partitions (witnesses for special colorings)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StarPartition:
    """A partition of the vertex labels 1..n-1 into color groups.

    Group j collects the centers of the stars forming color class j; the
    class size is the sum of the group's labels.
    """

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise InvariantViolation("star partition groups must be nonempty")
            for i in g:
                if not (1 <= i <= self.n - 1):
                    raise InvariantViolation(f"label {i} out of range for K_{self.n}")
                if i in seen:
                    raise InvariantViolation(f"label {i} appears in two groups")
                seen.add(i)
        if len(seen) != self.n - 1:
            missing = set(range(1, self.n)) - seen
            raise InvariantViolation(f"labels not covered: {sorted(missing)}")

    @property
    def k(self) -> int:
        return len(self.groups)

    def group_sums(self) -> tuple[int, ...]:
        return tuple(sum(g) for g in self.groups)


def star_partition(n: int, groups: Iterable[Iterable[int]]) -> StarPartition:
    """Convenience constructor accepting any iterables of labels."""
    return StarPartition(n, tuple(tuple(sorted(g)) for g in groups))


# ---------------------------------------------------------------------------
# Gallai partitions (block decompositions with at most two cross colors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GallaiPartition:
    """A decomposition of the vertex set into m >= 2 blocks such that edges
    between any two blocks all carry a single color, and at most two colors
    appear between blocks overall."""

    blocks: tuple[tuple[int, ...], ...]
    cross_colors: frozenset[int]
    reduced: tuple[tuple[int, int, int], ...]  # (block_i, block_j, color), i < j

    def __post_init__(self) -> None:
        if len(self.blocks) < 2:
            raise InvariantViolation("a Gallai partition needs at least 2 blocks")
        if len(self.cross_colors) > 2:
            raise InvariantViolation("more than two cross colors")

    @property
    def m(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# Parameter records for the constructive procedures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DivisionParams:
    """Instance of the division problem: k classes of p edges plus one of q."""

    n: int
    k: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0 or self.q < 0:
            raise PreconditionViolated(
                f"need n >= 1, k >= 0, q >= 0; got n={self.n}, k={self.k}, q={self.q}"
            )
        if self.p < self.n - 1:
            raise PreconditionViolated(f"need p >= n-1, got p={self.p}, n={self.n}")
        if self.k >= 1 and self.p == 0:
            # Only reachable at n == 1; the k classes would be empty.
            raise PreconditionViolated(f"need p >= 1 when k >= 1, got p=0, k={self.k}")
        if self.k * self.p + self.q != total_edges(self.n):
            raise PreconditionViolated(
                f"k*p + q = {self.k * self.p + self.q} != {total_edges(self.n)}"
            )

    def target(self) -> Distribution:
        sizes = [self.p] * self.k
        if self.q:
            sizes.append(self.q)
        return canonicalize(sizes, self.n)


# ---------------------------------------------------------------------------
# Oracle verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Three-valued answer of the oracle.

    feasible carries a witness coloring, infeasible certifies that no
    rainbow-free coloring has the sizes, unknown means a budget was hit.
    ``nodes_explored`` is the oracle's work count (see ``oracle``).
    """

    tag: str  # "feasible" | "infeasible" | "unknown"
    witness: Optional[Coloring]
    nodes_explored: int

    def __post_init__(self) -> None:
        if self.tag not in ("feasible", "infeasible", "unknown"):
            raise InvariantViolation(f"bad verdict tag {self.tag!r}")
        if self.tag == "feasible" and self.witness is None:
            raise InvariantViolation("feasible verdict requires a witness")
        if self.tag != "feasible" and self.witness is not None:
            raise InvariantViolation("only feasible verdicts carry a witness")

    @property
    def is_feasible(self) -> bool:
        return self.tag == "feasible"

    @property
    def is_infeasible(self) -> bool:
        return self.tag == "infeasible"

    @property
    def is_unknown(self) -> bool:
        return self.tag == "unknown"

    def to_json_dict(self) -> dict:
        out: dict = {"tag": self.tag, "nodes_explored": self.nodes_explored}
        if self.witness is not None:
            out["witness"] = json.loads(serialize_json(self.witness))
        return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _lex_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (u, v), u < v, of K_n in lexicographic order: the arrays u
    and v and each edge's colex index v(v-1)/2 + u.

    u and v are int32 to keep the temporaries small; the index is int64
    because v(v-1) leaves the int32 range for n above 46,342.  Kept for the
    last n asked, so the arrays are read-only.
    """
    u, v = (a.astype(np.int32) for a in np.triu_indices(n, 1))
    out = u, v, v.astype(np.int64) * (v - 1) // 2 + u
    for a in out:
        a.flags.writeable = False
    return out


def _lex_edges(c: Coloring) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, v and color of every edge, in lexicographic order of (u, v)."""
    u, v, at = _lex_order(c.n)
    return u, v, c.colex_colors()[at]


def _digit_table(count: int) -> np.ndarray:
    """Row i holds the ASCII decimal digits of i, right-aligned, for i < count.

    Leading padding cells are 0, a byte the text format never contains.
    """
    power = 10 ** np.arange(len(str(count - 1)) - 1, -1, -1)
    x = np.arange(count)[:, None]
    return np.where((x >= power) | (power == 1), x // power % 10 + ord("0"), 0).astype(np.uint8)


def _text_bytes(n: int, k: int, u: np.ndarray, v: np.ndarray, colors: np.ndarray) -> bytes:
    """The text format of the edges (u[i], v[i]) colored colors[i] in 1..k.

    Every line is laid out in fixed-width cells, padding included, and the
    padding is dropped in one pass, so no Python code runs per edge.
    """
    vertex, color = _digit_table(n), _digit_table(k + 1)
    w, wc = vertex.shape[1], color.shape[1]
    cells = np.empty((len(u), 2 * w + wc + 3), dtype=np.uint8)
    cells[:, :w] = vertex.take(u, axis=0)
    cells[:, w] = ord(" ")
    cells[:, w + 1 : 2 * w + 1] = vertex.take(v, axis=0)
    cells[:, 2 * w + 1] = ord(" ")
    cells[:, 2 * w + 2 : -1] = color.take(colors, axis=0)
    cells[:, -1] = ord("\n")
    return f"{n} {k}\n".encode("ascii") + cells[cells != 0].tobytes()


# Below this many vertices one f-string per edge costs less than the fixed
# cost of the numpy calls of the vectorized writers (crossover between K_16
# and K_24, measured between backtracking searches on 2 vCPUs).
_VECTOR_MIN_N = 20

# The skeleton is built for the next multiple of this many vertices, so a
# caller whose n grows a little at a time rebuilds it once per step.  Steps
# of 32 and 64 measured no faster on the benchmark's construct and
# round-trip workloads.
_SKELETON_STEP = 128

# Offsets into a text shorter than this fit in int32, and int32 temporaries
# cost far less than int64 ones.
_INT32_TEXT = 2**31


def _digit_total(n: int) -> int:
    """The number of decimal digits in 0, 1, ..., n-1 together."""
    total, power = n, 10
    while power < n:
        total += n - power
        power *= 10
    return total


def _text_length(n: int, k: int) -> int:
    """Bytes in a canonical text of K_n with k <= 9: every edge line holds
    4 bytes besides its two vertices, and every vertex is on n-1 lines."""
    return len(f"{n} {k}\n") + 4 * total_edges(n) + (n - 1) * _digit_total(n)


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The body of the canonical text of K_N colored all 1, with the
    per-vertex sums that lay out the text of any K_n, n <= N, over it.

    Row u of a text of K_n with one-digit colors lists the edges (u, v) for
    v = u+1..n-1, so for every n <= N it is a byte prefix of row u here
    with the colors written in.
    """

    # colex_start and step are int32 while the text of K_N is shorter than
    # _INT32_TEXT bytes, else int64; layouts compute in the same width.
    size: int
    body: memoryview
    starts: list[int]  # where row u begins in body
    width: np.ndarray  # the bytes of a line of row u besides v: digits(u) + 4
    lead: np.ndarray  # u * width[u] + digits(0) + ... + digits(u)
    colex_start: np.ndarray  # v(v-1)/2, where the edges (., v) begin in colex order
    step: np.ndarray  # [v, b]: v (b + 5) + digits(0) + ... + digits(v)
    band: np.ndarray  # [v, b]: how many u < v have b + 1 digits


def _build_skeleton(size: int) -> _Skeleton:
    u, v = (a.astype(np.int32) for a in np.triu_indices(size, 1))
    text = _text_bytes(size, 1, u, v, np.ones(len(u), dtype=np.int32))
    vertex = np.arange(size)
    # Vertices low[b] up to high[b] - 1 have b + 1 digits.
    high = 10 ** np.arange(1, len(str(size - 1)) + 1)
    low = high // 10 * (high > 10)
    digits = (vertex[:, None] >= low).sum(axis=1)
    upto = np.cumsum(digits)
    width = digits + 4
    lead = vertex * width + upto
    rows = (size - 1) * width - lead + upto[-1]
    # The texts of K_n, n <= size, are no longer than this one.
    wide = np.int32 if len(text) < _INT32_TEXT else np.int64
    step = vertex[:, None] * (np.arange(len(low)) + 5) + upto[:, None]
    band = np.clip(vertex[:, None] - low, 0, high - low)
    return _Skeleton(
        size,
        memoryview(text)[len(f"{size} 1\n") :],
        (np.cumsum(rows) - rows).tolist(),
        width,
        lead,
        (vertex * (vertex - 1) // 2).astype(wide),
        step.astype(wide),
        band.astype(np.intp),
    )


@dataclass(frozen=True, eq=False)
class _Layout:
    """Any canonical text of K_n with k <= 9: its header, then ``rows``
    joined, with the color of the i-th edge in colex order at byte
    ``at[i]``."""

    n: int
    rows: list[memoryview]
    at: np.ndarray


def _layout(skeleton: _Skeleton, n: int) -> _Layout:
    """The layout of K_n, n <= the skeleton's size, in O(n^2) arithmetic."""
    width, lead = skeleton.width[:n], skeleton.lead[:n]
    rows = (n - 1) * width - lead + _digit_total(n)
    # Row u starts at first[u], and the color of edge (u, v) is the byte
    # before the LF of its line:
    #   first[u] + (v - u) width[u] + digits(u + 1) + ... + digits(v) - 2
    #   = base[u] + v width[u] + digits(0) + ... + digits(v).
    first = len(f"{n} 1\n") + np.cumsum(rows) - rows
    base = (first - lead - 2).astype(skeleton.colex_start.dtype)
    # Colex row v holds the edges (u, v), u = 0..v-1.  Along it, the last
    # two terms are constant while the digit count of u is: ``step`` once
    # per band of u, repeated ``band`` times.
    u = np.arange(total_edges(n), dtype=base.dtype)
    u -= np.repeat(skeleton.colex_start[:n], np.arange(n))
    at = base.take(u)
    at += np.repeat(skeleton.step[:n].ravel(), skeleton.band[:n].ravel())
    # Indexing by intp is about twice as fast as by int32.
    at = at.astype(np.intp)
    at.flags.writeable = False
    body, starts = skeleton.body, skeleton.starts
    return _Layout(n, [body[s : s + r] for s, r in zip(starts, rows[:-1].tolist())], at)


# The kept skeleton and the layout of the last K_n written or read (n >= 20,
# k <= 9), or None before the first.  Replaced by one assignment, so a
# concurrent caller sees either the old pair or the new one.
_TEXT_SLOT: Optional[tuple[_Skeleton, _Layout]] = None


def _text_slot(n: int) -> tuple[_Skeleton, _Layout]:
    """The kept pair if it is laid out for K_n; else the kept skeleton,
    rebuilt larger if it is smaller than K_n, with the layout of K_n."""
    slot = _TEXT_SLOT
    if slot is not None and slot[1].n == n:
        return slot
    if slot is not None and slot[0].size >= n:
        skeleton = slot[0]
    else:
        skeleton = _build_skeleton(-(-n // _SKELETON_STEP) * _SKELETON_STEP)
    return skeleton, _layout(skeleton, n)


def _join_rows(n: int, k: int, layout: _Layout) -> bytearray:
    """The canonical text of K_n colored all 1, with header k."""
    return bytearray().join([f"{n} {k}\n".encode("ascii"), *layout.rows])


def serialize(c: Coloring) -> str:
    """Text format: header "n k", then one line "u v c" per edge.

    Edges appear in lexicographic order of (u, v); every line ends with LF.
    Numbers are written in plain decimal, separated by one space.

    From K_20 up with k <= 9, the text is joined from the rows of the kept
    skeleton with the colors written in at the layout's offsets, and that
    layout is kept, so that reading the text back reuses it.
    """
    global _TEXT_SLOT
    n, k = c.n, c.k
    if n < _VECTOR_MIN_N:
        lines = [f"{n} {k}"]
        lines.extend(f"{u} {v} {col}" for u, v, col in c.edges())
        return "\n".join(lines) + "\n"
    if k > 9:
        return _text_bytes(n, k, *_lex_edges(c)).decode("ascii")
    slot = _TEXT_SLOT = _text_slot(n)
    out = _join_rows(n, k, slot[1])
    np.frombuffer(out, dtype=np.uint8)[slot[1].at] = c.colex_colors().astype(np.uint8) + ord("0")
    return out.decode("ascii")


def _coloring_from_entries(
    n: int,
    k: int,
    entries: list,
    parse: Callable[[object, Optional[int]], tuple[int, int, int]],
    first_line: Optional[int] = None,
) -> Coloring:
    """Validate the edge entries of either format and build the coloring.

    The entry count and k are compared with the edge count of K_n (k
    colors cannot all occur on fewer edges) before anything is allocated,
    so a header that claims a huge n or k costs nothing.  ``parse`` turns
    one entry into (u, v, color); the pairs must run through the edges in
    lexicographic order and the colors lie in 1..k.  When ``first_line`` is
    given, errors carry the line number of their entry, or of the header.
    """
    expected = total_edges(n)
    if len(entries) != expected:
        end = None if first_line is None else first_line + len(entries) - 1
        raise InvariantViolation(f"expected {expected} edge entries, got {len(entries)}", end)
    if k > expected:
        head = None if first_line is None else first_line - 1
        raise InvariantViolation(
            f"{k} colors need at least {k} edges; K_{n} has {expected}", head
        )
    arr = [0] * expected
    eu, ev = 0, 1
    for i, entry in enumerate(entries):
        ln = None if first_line is None else first_line + i
        u, v, col = parse(entry, ln)
        if (u, v) != (eu, ev):
            raise InvariantViolation(f"edge ({u}, {v}) out of order; expected ({eu}, {ev})", ln)
        if not (1 <= col <= k):
            raise InvariantViolation(f"color {col} out of range 1..{k}", ln)
        arr[ev * (ev - 1) // 2 + eu] = col
        ev += 1
        if ev == n:
            eu += 1
            ev = eu + 1
    return Coloring(n, arr, k=k)


def _parse_edge_line(raw: str, ln: Optional[int]) -> tuple[int, int, int]:
    parts = raw.split()
    if len(parts) != 3:
        raise ParseError(f"expected 'u v c', got {raw!r}", ln)
    try:
        return int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"non-numeric edge line {raw!r}", ln) from None


def _parse_edge_item(item: object, ln: Optional[int]) -> tuple[int, int, int]:
    if not (
        isinstance(item, list)
        and len(item) == 3
        and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
    ):
        raise ParseError(f"bad edge entry {item!r}", ln)
    return item[0], item[1], item[2]


def _read_canonical(text: str) -> Optional[Coloring]:
    """The coloring whose ``serialize`` output is exactly ``text``, or None.

    Only the colors are parsed: the whole text is then written again from
    (n, k, colors) and must come out byte for byte the same, which proves
    that every other token is what the line-by-line reader would have read.
    Nothing sized by n is allocated before the text's length (from K_20 up
    with k <= 9) or line count (otherwise) has matched n.
    """
    if not text.isascii():
        return None
    try:
        n, k = (int(tok) for tok in text[: text.index("\n")].split(" "))
    except ValueError:
        return None
    if n >= _VECTOR_MIN_N and 1 <= k <= 9:
        return _read_layout(text, n, k)
    edges = total_edges(n)
    if n < 1 or not 0 <= k <= edges or text.count("\n") != edges + 1:
        return None
    raw = text.encode("ascii")
    buf = np.frombuffer(raw, dtype=np.uint8)
    last = np.flatnonzero(buf == ord("\n"))[1:] - 1
    # The color is the run of digits before each LF; any other spelling
    # of the line fails the comparison below.
    colors = np.zeros(edges, dtype=np.int64)
    digit = np.ones(edges, dtype=bool)
    for place in range(len(str(k))):
        value = buf[last - place].astype(np.int64) - ord("0")
        digit &= (value >= 0) & (value <= 9)
        colors += np.where(digit, value, 0) * 10**place
    if edges and not (1 <= colors.min() and colors.max() <= k):
        return None
    u, v, at = _lex_order(n)
    if _text_bytes(n, k, u, v, colors) != raw:
        return None
    colex = np.empty(edges, dtype=np.int32)
    colex[at] = colors
    return Coloring(n, colex, k=k)


def _read_layout(text: str, n: int, k: int) -> Optional[Coloring]:
    """``_read_canonical`` for n >= 20 and k <= 9: the colors are read at
    the offsets of the layout of K_n and written into its rows joined.

    The layout of an accepted text is kept; a refused one leaves the kept
    skeleton and layout as they were.
    """
    global _TEXT_SLOT
    # A header that claims a huge n is refused here, before anything is
    # built for it.
    if len(text) != _text_length(n, k):
        return None
    slot = _text_slot(n)
    at = slot[1].at
    raw = text.encode("ascii")
    digits = np.frombuffer(raw, dtype=np.uint8)[at]
    colors = digits - np.uint8(ord("0"))
    # Bytes below "0" wrap above 9, so this range check refuses them.
    if not (1 <= colors.min() and colors.max() <= k):
        return None
    out = _join_rows(n, k, slot[1])
    np.frombuffer(out, dtype=np.uint8)[at] = digits
    if out != raw:
        return None
    c = Coloring(n, colors, k=k)
    _TEXT_SLOT = slot
    return c


def _read_lines(text: str) -> Coloring:
    """Line-by-line reader: the reference for ``deserialize``.

    Accepts any whitespace between tokens, CRLF line ends, signs and
    leading zeros, and a missing final LF; a malformed entry's error
    carries its line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected header 'n k', got {lines[0]!r}", 1)
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-numeric header {lines[0]!r}", 1) from None
    if n < 1:
        raise InvariantViolation(f"vertex count must be >= 1, got {n}", 1)
    return _coloring_from_entries(n, k, lines[1:], _parse_edge_line, first_line=2)


def deserialize(text: str) -> Coloring:
    """Parse the text format, enforcing totality and canonical edge order.

    Text written by ``serialize`` is read by a vectorized path; anything
    else, including every malformed input, goes through ``_read_lines``,
    which accepts the same spellings and raises the same errors.
    """
    c = _read_canonical(text)
    return c if c is not None else _read_lines(text)


def serialize_json(c: Coloring) -> str:
    """Structured equivalent of the text format with the same edge order."""
    payload = {
        "n": c.n,
        "k": c.k,
        "edges": np.column_stack(_lex_edges(c)).tolist(),
    }
    return json.dumps(payload, separators=(",", ":"))


def deserialize_json(text: str) -> Coloring:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    for key in ("n", "k", "edges"):
        if key not in payload:
            raise ParseError(f"missing key {key!r}")
    n, k, edges = payload["n"], payload["k"], payload["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvariantViolation(f"bad vertex count {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvariantViolation(f"bad color count {k!r}")
    if not isinstance(edges, list):
        raise InvariantViolation(f"expected {total_edges(n)} edge entries")
    return _coloring_from_entries(n, k, edges, _parse_edge_item)
