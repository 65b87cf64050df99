"""Core domain types for rainbow-triangle-free edge colorings of complete graphs.

Vertices of K_n are labeled 0..n-1, colors are 1-based ids.  Edge colors are
stored in a dense triangular array indexed in colex order (all edges whose
larger endpoint is v form one contiguous row), which gives O(1) lookups and
makes star-shaped updates cheap.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def _ranked(sizes: Sequence[int]) -> list[int]:
    """Positions of ``sizes`` by descending size, ties in position order:
    the one rule by which colors and slots are matched to class sizes."""
    return sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)


def _colex_runs(
    runs: Sequence[tuple[int, int]], table: Optional[np.ndarray] = None
) -> np.ndarray:
    """Colex colors from (color, length) runs, listed row by row; a length
    may be 0.  Row v, the edges from v down to 0..v-1, of a substitution is
    one run per earlier block, in its cross color, then v's row in its block.
    A ``table`` renames each run's color, table[color], before the repeat.
    """
    colors, lengths = zip(*runs) if runs else ((), ())
    colors = np.asarray(colors, dtype=np.int32)
    return np.repeat(colors if table is None else table[colors], lengths)


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
    occurs on at least one edge (no phantom colors), and color ids of a
    float, string or bool dtype are refused, not converted.  ``n``, ``k``,
    ``counts`` and the colors that ``edge_color`` and ``edges`` return are
    Python ints.
    """

    __slots__ = ("n", "k", "counts", "_colors")

    def __init__(self, n: int, colors: Iterable[int], k: Optional[int] = None):
        if n < 1:
            raise InvariantViolation(f"vertex count must be >= 1, got {n}")
        arr = colors if isinstance(colors, np.ndarray) else np.array(list(colors))
        if arr.dtype.kind not in "iu":
            if arr.size:  # np.array([]) is float64 and holds no bad value
                raise InvariantViolation(f"color ids must be integers, got dtype {arr.dtype}")
            arr = arr.astype(np.int64)
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
        arr: list[Optional[int]] = [None] * total_edges(n)
        for u, v, c in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvariantViolation(f"bad edge ({u}, {v}) for K_{n}")
            i = edge_index(u, v)
            if arr[i] is not None:
                raise InvariantViolation(f"duplicate edge ({u}, {v})")
            arr[i] = c
        if None in arr:
            raise InvariantViolation(f"missing edge at triangular index {arr.index(None)}")
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

def _lex_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (u, v), u < v, of K_n in lexicographic order: the arrays u
    and v and each edge's colex index v(v-1)/2 + u.

    u and v are int32 to keep the temporaries small; the index is int64
    because v(v-1) leaves the int32 range for n above 46,342.
    """
    u, v = (a.astype(np.int32) for a in np.triu_indices(n, 1))
    return u, v, v.astype(np.int64) * (v - 1) // 2 + u


def _digit_table(count: int) -> np.ndarray:
    """Row i holds the ASCII decimal digits of i, right-aligned, for i < count.

    Leading padding cells are 0, a byte the text format never contains.
    """
    power = 10 ** np.arange(len(str(count - 1)) - 1, -1, -1)
    x = np.arange(count)[:, None]
    return np.where((x >= power) | (power == 1), x // power % 10 + ord("0"), 0).astype(np.uint8)


def _text_bytes(n: int, color: int) -> bytes:
    """The text of K_n with every edge colored ``color``, header included.

    Every line is laid out in fixed-width cells, padding included, and the
    padding is dropped in one pass, so no Python code runs per edge.
    """
    u, v = (a.astype(np.int32) for a in np.triu_indices(n, 1))
    colors = np.full(len(u), color, dtype=np.int32)
    vertex, digits = _digit_table(n), _digit_table(color + 1)
    w, wc = vertex.shape[1], digits.shape[1]
    cells = np.empty((len(u), 2 * w + wc + 3), dtype=np.uint8)
    cells[:, :w] = vertex.take(u, axis=0)
    cells[:, w] = ord(" ")
    cells[:, w + 1 : 2 * w + 1] = vertex.take(v, axis=0)
    cells[:, 2 * w + 1] = ord(" ")
    cells[:, 2 * w + 2 : -1] = digits.take(colors, axis=0)
    cells[:, -1] = ord("\n")
    return f"{n} {color}\n".encode("ascii") + cells[cells != 0].tobytes()


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


def _over_skeleton(n: int, k: int) -> bool:
    """Whether texts of K_n with k colors are read over the kept skeleton.
    More colors than edges (K_2 to K_4 only) are left to _read_lines, which
    refuses them with the header's line number."""
    return n >= 2 and 1 <= k <= min(9, total_edges(n))


def _text_length(n: int, k: int) -> int:
    """Bytes in a canonical text of K_n with k <= 9: every edge line holds
    4 bytes besides its two vertices, and every vertex is on n-1 lines."""
    return len(f"{n} {k}\n") + 4 * total_edges(n) + (n - 1) * _digit_total(n)


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The body of the text of K_N with every color written in ``width``
    digits, with the per-vertex sums that lay out the text of any K_n,
    n <= N, with colors of that many digits over it.

    Row u of such a text of K_n lists the edges (u, v) for v = u+1..n-1, so
    for every n <= N it is a byte prefix of row u here with the colors
    written in.
    """

    # colex_start and step are int32 while the text of K_N is shorter than
    # _INT32_TEXT bytes, else int64; layouts compute in the same width.
    size: int
    width: int  # the digits of every color slot
    body: memoryview
    starts: list[int]  # where row u begins in body
    line: np.ndarray  # the bytes of a line of row u besides v: digits(u) + 3 + width
    lead: np.ndarray  # u * line[u] + digits(0) + ... + digits(u)
    colex_start: np.ndarray  # v(v-1)/2, where the edges (., v) begin in colex order
    step: np.ndarray  # [v, b]: v (b + 4 + width) + digits(0) + ... + digits(v)
    band: np.ndarray  # [v, b]: how many u < v have b + 1 digits


def _build_skeleton(size: int, width: int) -> _Skeleton:
    # Every color is written as 10^(width-1), the least number of that width.
    # A kept one-digit skeleton of the same size has " 1\n" at its color
    # slots and nowhere else, and widening them there is about twice as
    # fast as laying the text out again.
    narrow = _TEXT_SLOTS.get(1)
    if width > 1 and narrow is not None and narrow[0].size == size:
        text = narrow[0].body.obj.replace(b" 1\n", b" 1" + b"0" * (width - 1) + b"\n")
    else:
        text = _text_bytes(size, 10 ** (width - 1))
    vertex = np.arange(size)
    # Vertices low[b] up to high[b] - 1 have b + 1 digits.
    high = 10 ** np.arange(1, len(str(size - 1)) + 1)
    low = high // 10 * (high > 10)
    digits = (vertex[:, None] >= low).sum(axis=1)
    upto = np.cumsum(digits)
    line = digits + 3 + width
    lead = vertex * line + upto
    rows = (size - 1) * line - lead + upto[-1]
    # The texts of K_n, n <= size, are no longer than this one.
    wide = np.int32 if len(text) < _INT32_TEXT else np.int64
    step = vertex[:, None] * (np.arange(len(low)) + 4 + width) + upto[:, None]
    band = np.clip(vertex[:, None] - low, 0, high - low)
    return _Skeleton(
        size,
        width,
        memoryview(text)[len(str(size)) + 2 + width :],
        (np.cumsum(rows) - rows).tolist(),
        line,
        lead,
        (vertex * (vertex - 1) // 2).astype(wide),
        step.astype(wide),
        band.astype(np.intp),
    )


@dataclass(frozen=True, eq=False)
class _Layout:
    """Any canonical text of K_n whose k has the skeleton's width in digits:
    its header, then ``rows`` joined, with the first byte of the color slot
    of the i-th edge in colex order at byte ``at[i]``."""

    n: int
    rows: list[memoryview]
    at: np.ndarray


def _layout(skeleton: _Skeleton, n: int) -> _Layout:
    """The layout of K_n, n <= the skeleton's size, in O(n^2) arithmetic."""
    line, lead, width = skeleton.line[:n], skeleton.lead[:n], skeleton.width
    rows = (n - 1) * line - lead + _digit_total(n)
    # Row u starts at first[u], after the header of digits(n) + 2 + width
    # bytes, and the color slot of edge (u, v) is the width bytes before
    # the LF of its line:
    #   first[u] + (v - u) line[u] + digits(u + 1) + ... + digits(v) - 1 - width
    #   = base[u] + v line[u] + digits(0) + ... + digits(v).
    first = len(str(n)) + 2 + width + np.cumsum(rows) - rows
    base = (first - lead - (1 + width)).astype(skeleton.colex_start.dtype)
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


# The kept skeleton and the layout of the last K_n, n >= 2, written or read,
# one pair per color width in use, keyed by the width.  Each pair is
# replaced by one assignment, so a concurrent caller sees either the old
# pair or the new one.
_TEXT_SLOTS: dict[int, tuple[_Skeleton, _Layout]] = {}


def _text_slot(n: int, width: int) -> tuple[_Skeleton, _Layout]:
    """The kept pair of this color width if it is laid out for K_n; else its
    kept skeleton, rebuilt larger if it is smaller than K_n (or built if
    there is none), with the layout of K_n."""
    slot = _TEXT_SLOTS.get(width)
    if slot is not None and slot[1].n == n:
        return slot
    if slot is not None and slot[0].size >= n:
        skeleton = slot[0]
    else:
        skeleton = _build_skeleton(-(-n // _SKELETON_STEP) * _SKELETON_STEP, width)
    return skeleton, _layout(skeleton, n)


def _join_rows(n: int, k: int, layout: _Layout) -> bytearray:
    """The text of K_n with every color slot as in the skeleton, with
    header k."""
    return bytearray().join([f"{n} {k}\n".encode("ascii"), *layout.rows])


def serialize(c: Coloring) -> str:
    """Text format: header "n k", then one line "u v c" per edge.

    Edges appear in lexicographic order of (u, v); every line ends with LF.
    Numbers are written in plain decimal, separated by one space.

    K_1 is its header alone.  For K_n, n >= 2, the rows of the kept skeleton
    whose color slots are as wide as k are joined, and digit i of every
    color is written at the layout's offsets plus i, right-aligned in its
    slot; the slot bytes in front of a shorter color are NUL, and they are
    deleted in one pass.  With k <= 9 there are none.  The layout is kept
    with the skeleton of its width; the one-digit one also reads the text
    back.
    """
    n, k = c.n, c.k
    if n == 1:
        return f"{n} {k}\n"
    width = len(str(k))
    slot = _TEXT_SLOTS[width] = _text_slot(n, width)
    out = _join_rows(n, k, slot[1])
    text, at, colors = np.frombuffer(out, dtype=np.uint8), slot[1].at, c.colex_colors()
    if width == 1:
        text[at] = colors.astype(np.uint8) + ord("0")
        return out.decode("ascii")
    for i, digit in enumerate(_digit_table(k + 1).T):
        text[i:][at] = digit.take(colors)
    return out.replace(b"\0", b"").decode("ascii")


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
    # Every entry is an int from ``parse``: fromiter skips np.array's dtype search.
    return Coloring(n, np.fromiter(arr, dtype=np.int64, count=expected), k=k)


# A line of the text: numbers [+-]?[0-9]+ apart by runs of ASCII spaces or
# tabs, maybe padded with them and ended by the CR of a CRLF.  int() alone
# also takes other scripts' digits, "_" between digits and other whitespace.
_NUMBER = r"([+-]?[0-9]+)"
_HEADER_LINE = re.compile(rf"[ \t]*{_NUMBER}[ \t]+{_NUMBER}[ \t]*\r?")
_EDGE_LINE = re.compile(rf"[ \t]*{_NUMBER}[ \t]+{_NUMBER}[ \t]+{_NUMBER}[ \t]*\r?")
_GAP = re.compile(r"[ \t]+")


def _numbers(line: re.Pattern, raw: str, ln: Optional[int], shape: str, what: str) -> tuple[int, ...]:
    """The numbers of ``raw`` read by ``line``, else a ParseError at line
    ``ln``: "expected <shape>" if it does not hold as many tokens as
    ``line`` has numbers, else "non-numeric <what>"."""
    m = line.fullmatch(raw)
    if m is not None:
        try:
            return tuple(map(int, m.groups()))
        except ValueError:  # more digits than int() converts
            pass
    if len(_GAP.split(raw.removesuffix("\r").strip(" \t"))) != line.groups:
        raise ParseError(f"expected {shape}, got {raw!r}", ln)
    raise ParseError(f"non-numeric {what} {raw!r}", ln)


def _parse_edge_line(raw: str, ln: Optional[int]) -> tuple[int, int, int]:
    return _numbers(_EDGE_LINE, raw, ln, "'u v c'", "edge line")


def _parse_edge_item(item: object, ln: Optional[int]) -> tuple[int, int, int]:
    if not (
        isinstance(item, list)
        and len(item) == 3
        and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
    ):
        raise ParseError(f"bad edge entry {item!r}", ln)
    return item[0], item[1], item[2]


def _read_canonical(text: str) -> Optional[Coloring]:
    """The coloring whose ``serialize`` output is exactly ``text``, or None;
    only texts of K_n with n >= 2 and k <= 9 are read here.

    The colors are read at the offsets of the layout of K_n and written into
    its rows joined, which must come out byte for byte as ``text``: that
    proves every other token is what ``_read_lines`` would have read.
    Nothing sized by n is built before the text's length has matched n.
    The layout of an accepted text is kept; a refused one leaves the kept
    skeleton and layout as they were.
    """
    if not text.isascii():
        return None
    try:
        n, k = (int(tok) for tok in text[: text.index("\n")].split(" "))
    except ValueError:
        return None
    if not _over_skeleton(n, k) or len(text) != _text_length(n, k):
        return None
    slot = _text_slot(n, 1)
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
    _TEXT_SLOTS[1] = slot
    return c


def _read_lines(text: str) -> Coloring:
    """Line-by-line reader: the reference for ``deserialize``, and its reader
    for every text that ``_read_canonical`` refuses.

    Accepts runs of spaces or tabs around and between tokens, CRLF line
    ends, signs and leading zeros, and a missing final LF; a malformed
    entry's error carries its line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", 1)
    n, k = _numbers(_HEADER_LINE, lines[0], 1, "header 'n k'", "header")
    if n < 1:
        raise InvariantViolation(f"vertex count must be >= 1, got {n}", 1)
    return _coloring_from_entries(n, k, lines[1:], _parse_edge_line, first_line=2)


def deserialize(text: str) -> Coloring:
    """Parse the text format, enforcing totality and canonical edge order.

    Text that ``serialize`` wrote for K_n, n >= 2, with k <= 9 is read over
    the kept skeleton; every other text goes through ``_read_lines``: k = 0
    or k >= 10, other spellings and every malformed input.  Both give the
    same coloring for any text they both accept.
    """
    c = _read_canonical(text)
    return c if c is not None else _read_lines(text)


def serialize_json(c: Coloring) -> str:
    """Structured equivalent of the text format with the same edge order."""
    u, v, at = _lex_order(c.n)
    payload = {
        "n": c.n,
        "k": c.k,
        "edges": np.column_stack((u, v, c.colex_colors()[at])).tolist(),
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
