import inspect
import random
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gallai.core import (
    Coloring,
    NotFound,
    NotGallai,
    PreconditionViolated,
    canonicalize,
    edge_index,
    total_edges,
)
from gallai import verify
from gallai.construct import construct_gk_general, extend_by_star, special_coloring, _lex_fill
from gallai.core import StarPartition, balanced_sizes, star_partition
from gallai.generator import random_gallai
from gallai.verify import (
    _color_matrix,
    _mixed_rows,
    check_necessary,
    class_sizes,
    find_gallai_partition,
    is_gallai,
    is_special_coloring,
    rainbow_witness,
    star_partition_of,
    top_l_cover,
    validate_gallai_partition,
)

from conftest import arbitrary_colorings, compact_colors, label_partitions, naive_rainbow, nested_modules


def special(n, groups):
    return special_coloring(star_partition(n, groups))


def _one_rainbow_triangle() -> Coloring:
    """K_5 in color 1 except (1, 4) = 3 and (3, 4) = 2: only {1, 3, 4} is rainbow."""
    recolor = {(1, 4): 3, (3, 4): 2}
    return Coloring.from_edges(
        5, [(u, v, recolor.get((u, v), 1)) for u in range(5) for v in range(u + 1, 5)]
    )


@st.composite
def prefix_module_colorings(draw):
    """An arbitrary base on t <= 7 vertices; above it, vertices that each
    join the whole base in one color and meet each other arbitrarily; on
    top, maybe a one-color star suffix.  At most 12 vertices."""
    color = st.integers(min_value=1, max_value=4)
    t = draw(st.integers(min_value=1, max_value=7))
    tops = draw(st.integers(min_value=0, max_value=12 - t))
    stars = draw(st.integers(min_value=0, max_value=12 - t - tops))
    raw: list[int] = []
    for v in range(t):
        raw += draw(st.lists(color, min_size=v, max_size=v))
    for v in range(t, t + tops):
        raw += [draw(color)] * t + draw(st.lists(color, min_size=v - t, max_size=v - t))
    for v in range(t + tops, t + tops + stars):
        raw += [draw(color)] * v
    return Coloring(t + tops + stars, compact_colors(raw))


@st.composite
def nested_block_colorings(draw, max_n: int):
    """Nested substitutions of contiguous blocks, then maybe one edge moved
    to a fresh color.

    Each range is cut into 2 to 5 blocks joined in one or two colors of 1..6,
    as ``random_gallai`` does, or has 1 to 3 vertices cut off one end, which
    nests modules deeply; every block after the first of a cut is a module
    that starts at a nonzero vertex.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    mat = np.zeros((n, n), dtype=np.int32)
    todo = [(0, n)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        if rng.random() < 0.4:
            cut = rng.randint(1, min(3, hi - lo - 1))
            cuts = [lo + cut] if rng.random() < 0.5 else [hi - cut]
        else:
            cuts = sorted(rng.sample(range(lo + 1, hi), min(hi - lo - 1, rng.randint(1, 4))))
        bounds = [lo, *cuts, hi]
        palette = rng.sample(range(1, 7), rng.randint(1, 2))
        for i, (a0, a1) in enumerate(zip(bounds, bounds[1:])):
            for b0, b1 in zip(bounds[i + 1 :], bounds[i + 2 :]):
                mat[b0:b1, a0:a1] = rng.choice(palette)
        todo += zip(bounds, bounds[1:])
    colors = mat[np.tri(n, k=-1, dtype=bool)]
    if draw(st.booleans()):
        colors[draw(st.integers(min_value=0, max_value=colors.size - 1))] = 7
    return Coloring(n, compact_colors(colors.tolist()))


def _label_shuffled(c: Coloring, seed: int) -> Coloring:
    """``c`` with its vertices relabelled by a seeded permutation, which
    leaves it few contiguous modules to split off."""
    perm = np.random.default_rng(seed).permutation(c.n)
    return Coloring(c.n, _color_matrix(c.colex_colors(), c.n)[np.ix_(perm, perm)][np.tri(c.n, k=-1, dtype=bool)])


def _spy(monkeypatch, name: str) -> list:
    """Record (args, result) of every call of ``verify.<name>``."""
    calls = []
    real = getattr(verify, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(verify, name, spy)
    return calls


@pytest.fixture
def modules_at_every_size(monkeypatch):
    """Let ``rainbow_witness`` split ranges of any size by modules and rows
    where it would scan them in one broadcast."""
    monkeypatch.setattr(verify, "_BROADCAST_MAX_S", 2)


class TestRainbow:
    def test_rainbow_triangle(self):
        c = Coloring(3, (1, 2, 3))
        assert rainbow_witness(c) == (0, 1, 2)
        assert not is_gallai(c)

    def test_monochromatic_k10(self):
        c = Coloring(10, (1,) * total_edges(10))
        assert is_gallai(c)

    def test_special_coloring_is_rainbow_free(self):
        assert is_gallai(special(5, [(4, 3), (2,), (1,)]))

    def test_witness_is_genuinely_rainbow(self):
        c = Coloring(4, (1, 2, 3, 1, 1, 1))
        w = rainbow_witness(c)
        assert w is not None
        a, b, d = w
        colors = {c.edge_color(a, b), c.edge_color(a, d), c.edge_color(b, d)}
        assert len(colors) == 3

    @given(arbitrary_colorings(max_n=7))
    def test_matches_naive_scan(self, c):
        assert rainbow_witness(c) == naive_rainbow(c)

    @given(arbitrary_colorings(min_n=8, max_n=12, max_colors=6))
    @settings(max_examples=30)
    def test_matches_naive_scan_bigger(self, c):
        assert rainbow_witness(c) == naive_rainbow(c)

    @given(
        arbitrary_colorings(min_n=3, max_n=8, max_colors=5),
        st.lists(st.integers(min_value=1, max_value=8), max_size=5),
    )
    @settings(max_examples=60)
    def test_star_suffix_keeps_the_first_witness(self, base, picks):
        # A one-color suffix on top of a base that may hold rainbow triangles.
        c = base
        for pick in picks:
            c = extend_by_star(c, min(pick, c.k + 1))
        assert rainbow_witness(c) == naive_rainbow(c)

    def test_only_triangle_tops_the_last_mixed_row(self):
        # Vertex 4 is the last vertex whose down-row has two colors; vertices
        # 5 and 6 are one-color stars on top of it.
        c = extend_by_star(extend_by_star(_one_rainbow_triangle(), 1), 2)
        assert naive_rainbow(c) == (1, 3, 4)
        assert rainbow_witness(c) == (1, 3, 4)

    @given(prefix_module_colorings())
    @settings(max_examples=300)
    def test_prefix_module_keeps_the_first_witness(self, c):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verify, "_BROADCAST_MAX_S", 2)
            assert rainbow_witness(c) == naive_rainbow(c)

    @given(nested_block_colorings(max_n=12))
    @settings(max_examples=300)
    def test_nested_modules_keep_the_first_witness(self, c):
        want = naive_rainbow(c)
        assert rainbow_witness(c) == want
        with pytest.MonkeyPatch.context() as m:
            m.setattr(verify, "_BROADCAST_MAX_S", 2)
            assert rainbow_witness(c) == want

    def test_quotient_witness_at_zero_beats_a_later_inner_one(self, modules_at_every_size, monkeypatch):
        # 0..3 is a module with its own rainbow triangle (1, 2, 3); vertices
        # 4 and 5 join it in colors 2 and 3 and each other in color 1, so the
        # quotient 0, 4, 5 is rainbow and comes first.
        recolor = {(1, 2): 2, (1, 3): 3, **{(u, 4): 2 for u in range(4)},
                   **{(u, 5): 3 for u in range(4)}}
        c = Coloring.from_edges(
            6, [(u, v, recolor.get((u, v), 1)) for v in range(6) for u in range(v)]
        )
        ends = _spy(monkeypatch, "_module_end")
        assert rainbow_witness(c) == naive_rainbow(c) == (0, 4, 5)
        assert [(args[1:], t) for args, t in ends] == [((0, 6), 4), ((0, 4), None)]

    def test_inner_witness_at_zero_beats_the_quotient(self, modules_at_every_size, monkeypatch):
        # 0..2 is a rainbow module; vertices 3 and 4 join it in colors 2 and
        # 3 and each other in color 1, so the quotient 0, 3, 4 is rainbow too.
        colors = {(0, 1): 1, (0, 2): 2, (1, 2): 3, (3, 4): 1,
                  **{(u, 3): 2 for u in range(3)}, **{(u, 4): 3 for u in range(3)}}
        c = Coloring.from_edges(5, [(u, v, col) for (u, v), col in colors.items()])
        ends = _spy(monkeypatch, "_module_end")
        scans = _spy(monkeypatch, "_first_rainbow")
        assert rainbow_witness(c) == naive_rainbow(c) == (0, 1, 2)
        assert [(args[1:], t) for args, t in ends] == [((0, 5), 3), ((0, 3), None)]
        # The inner witness starts at 0, so the row of 0 over 3..4 is not scanned.
        assert [(args[1:], len(args[0])) for args, _ in scans] == [((0, 1, 1), 3)]

    def test_deeply_nested_modules_need_no_recursion(self):
        # A scan that called itself once per module went past the recursion
        # limit on these 1,100 nested modules.  Here the limit leaves 50
        # frames above the test's own.
        c = nested_modules(2200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            w = rainbow_witness(c)
        finally:
            sys.setrecursionlimit(limit)
        assert w == _int32_rainbow_witness(c) == (0, 2, 3)
        small = nested_modules(12)
        assert rainbow_witness(small) == naive_rainbow(small) == (0, 2, 3)

    def test_one_color_row_below_a_mixed_row_is_scanned(self):
        # Vertex 3 has a one-color down-row but sits below the mixed row of
        # vertex 4, and the only rainbow triangle passes through it.
        c = _one_rainbow_triangle()
        assert len({c.edge_color(u, 3) for u in range(3)}) == 1
        assert rainbow_witness(c) == naive_rainbow(c) == (1, 3, 4)


class TestClassSizes:
    def test_special_sizes(self):
        assert class_sizes(special(5, [(4, 3), (2,), (1,)])).sizes == (7, 2, 1)

    def test_monochromatic_k4(self):
        assert class_sizes(Coloring(4, (1,) * 6)).sizes == (6,)

    def test_two_disjoint_edges(self):
        edges = []
        for u in range(5):
            for v in range(u + 1, 5):
                if (u, v) == (0, 1):
                    edges.append((u, v, 2))
                elif (u, v) == (2, 3):
                    edges.append((u, v, 3))
                else:
                    edges.append((u, v, 1))
        c = Coloring.from_edges(5, edges)
        assert class_sizes(c).sizes == (8, 1, 1)
        assert is_gallai(c)


class TestNecessaryCondition:
    def test_passing_sequence_on_k6(self):
        ok, ell = check_necessary(canonicalize([7, 3, 2, 2, 1], 6))
        assert ok and ell is None

    def test_failing_first_prefix(self):
        ok, ell = check_necessary(canonicalize([2, 2, 2], 4))
        assert not ok and ell == 1

    def test_k5_721(self):
        # 7 >= 4, 9 >= 7, 10 >= 9
        ok, ell = check_necessary(canonicalize([7, 2, 1], 5))
        assert ok and ell is None

    def test_failing_later_prefix(self):
        # On K_6: 6 >= 5 passes, but 6+2 = 8 < 5+4 = 9 fails at the second prefix.
        ok, ell = check_necessary(canonicalize([6, 2, 2, 2, 2, 1], 6))
        assert not ok and ell == 2


class TestTopLCover:
    def test_singleton_stars_meet_bound_exactly(self):
        n = 7
        c = special(n, [(i,) for i in range(n - 1, 0, -1)])
        # The l largest classes are the first l of the full ranking.
        ranked, _ = top_l_cover(c, n - 1)
        for ell in range(1, n):
            total = sum(c.counts[col - 1] for col in ranked[:ell])
            assert total == sum(n - j for j in range(1, ell + 1))

    def test_monochromatic_total(self):
        c = Coloring(6, (1,) * 15)
        cols, total = top_l_cover(c, 1)
        assert cols == (1,) and total == 15

    def test_tie_break_prefers_smaller_id(self):
        c = _lex_fill(4, [3, 3])
        cols, _ = top_l_cover(c, 1)
        assert cols == (1,)

    def test_rejects_rainbow_input(self):
        with pytest.raises(NotGallai):
            top_l_cover(Coloring(3, (1, 2, 3)), 1)

    def test_bad_ell(self):
        with pytest.raises(PreconditionViolated):
            top_l_cover(Coloring(3, (1, 1, 1)), 2)


class TestSpecialDetection:
    def test_special_is_detected(self):
        c = special(6, [(5, 2), (4, 1), (3,)])
        assert is_special_coloring(c)
        sp = star_partition_of(c)
        assert sp is not None
        assert sorted(sp.group_sums(), reverse=True) == sorted(
            class_sizes(c).sizes, reverse=True
        )

    def test_non_special_detected(self):
        edges = []
        for u in range(5):
            for v in range(u + 1, 5):
                if (u, v) == (0, 1):
                    edges.append((u, v, 2))
                elif (u, v) == (2, 3):
                    edges.append((u, v, 3))
                else:
                    edges.append((u, v, 1))
        c = Coloring.from_edges(5, edges)
        assert not is_special_coloring(c)
        assert star_partition_of(c) is None


def _loop_is_special(c: Coloring) -> bool:
    """The per-row loop ``is_special_coloring`` replaced; kept as its reference."""
    arr = c.colex_colors().tolist()
    pos = 0
    for v in range(1, c.n):
        row = arr[pos : pos + v]
        if any(col != row[0] for col in row):
            return False
        pos += v
    return True


def _loop_star_partition(c: Coloring):
    """The per-row loop ``star_partition_of`` replaced; kept as its reference."""
    if not _loop_is_special(c):
        return None
    groups: dict[int, list[int]] = {}
    arr = c.colex_colors().tolist()
    pos = 0
    for v in range(1, c.n):
        groups.setdefault(arr[pos], []).append(v)
        pos += v
    return StarPartition(c.n, tuple(tuple(g) for g in groups.values()))


@st.composite
def near_special_colorings(draw):
    """Special colorings, half of them with one edge recolored."""
    n, groups = draw(label_partitions())
    arr = special(n, groups).colex_colors().tolist()
    if draw(st.booleans()):
        arr[draw(st.integers(0, len(arr) - 1))] = draw(st.integers(1, max(arr) + 1))
    return Coloring(n, compact_colors(arr))


class TestSpecialAgainstRowLoop:
    @given(st.one_of(arbitrary_colorings(max_n=6), near_special_colorings()))
    @example(Coloring(1, ()))
    @example(Coloring(2, (1,)))
    @settings(max_examples=300)
    def test_matches_the_row_loop(self, c):
        assert is_special_coloring(c) == _loop_is_special(c)
        assert star_partition_of(c) == _loop_star_partition(c)


def _int32_rainbow_witness(c: Coloring):
    """The scan ``rainbow_witness`` had before its color matrix was narrowed
    to the dtype of k and its strict upper-triangular mask was dropped;
    kept as its reference."""
    if c.n < 3 or c.k < 3:
        return None
    mixed = _mixed_rows(c)
    if mixed.size == 0:
        return None
    s = int(mixed[-1]) + 1
    mat = _color_matrix(c.colex_colors()[: s * (s - 1) // 2], s)
    upper = np.triu(np.ones((s - 1, s - 1), dtype=bool), k=1)
    for u in range(s - 2):
        m = s - u - 1
        a = mat[u, u + 1 :]
        sub = mat[u + 1 :, u + 1 :]
        bad = (a[:, None] != a[None, :]) & (a[:, None] != sub) & (a[None, :] != sub)
        bad &= upper[u:, u:]
        hits = np.flatnonzero(bad)
        if hits.size:
            h = int(hits[0])
            return (u, u + 1 + h // m, u + 1 + h % m)
    return None


class TestRainbowAgainstInt32Scan:
    @pytest.mark.parametrize("n", range(20, 61))
    def test_generator_output_with_one_fresh_edge(self, n):
        # Arbitrary colorings almost always break at u = 0; a rainbow-free
        # coloring with one edge moved to a fresh color can break late.
        rng = random.Random(n)
        for seed in range(3):
            arr = random_gallai(n, seed, 4)[0].colex_colors().tolist()
            for _ in range(3):
                moved = list(arr)
                moved[rng.randrange(len(moved))] = max(arr) + 1
                c = Coloring(n, compact_colors(moved))
                assert rainbow_witness(c) == _int32_rainbow_witness(c)

    @pytest.mark.parametrize("n", [201, 208, 215])
    def test_gk_output_with_one_fresh_edge(self, n):
        # The 8k^2+1 construction puts a block on top of a recursive part
        # that it joins in one color: the scan splits at that prefix module.
        # A fresh edge inside the module, inside the block or between them
        # moves the first witness, or breaks the module.
        c = construct_gk_general(canonicalize(balanced_sizes(n, 5), n))
        assert rainbow_witness(c) is None
        assert _int32_rainbow_witness(c) is None
        arr = c.colex_colors().tolist()
        rng = random.Random(n)
        for at in rng.sample(range(len(arr)), 6):
            moved = list(arr)
            moved[at] = c.k + 1
            m = Coloring(n, moved)
            assert rainbow_witness(m) == _int32_rainbow_witness(m)

    @given(nested_block_colorings(max_n=150))
    @settings(max_examples=60, deadline=None)
    def test_nested_modules_with_one_fresh_edge(self, c):
        assert rainbow_witness(c) == _int32_rainbow_witness(c)

    @pytest.mark.parametrize("n", [70, 110, 150])
    def test_label_shuffled_generator_output(self, n):
        # Relabelled, a substitution has few contiguous modules: the scan
        # goes row by row, with the exact module test at every row.
        rng = random.Random(n)
        for seed in range(3):
            c = _label_shuffled(random_gallai(n, seed)[0], seed)
            assert rainbow_witness(c) is _int32_rainbow_witness(c) is None
            arr = c.colex_colors().tolist()
            arr[rng.randrange(len(arr))] = c.k + 1
            moved = Coloring(n, arr)
            assert rainbow_witness(moved) == _int32_rainbow_witness(moved)

    @pytest.mark.parametrize("s", [64, 65])
    def test_broadcast_up_to_the_cutoff_and_rows_above(self, s, monkeypatch):
        # Edge (0, s-1) in a fresh color keeps s-1 the last mixed row, so
        # 0..s-1 is the first range.  Up to _BROADCAST_MAX_S vertices it is
        # scanned in one broadcast; above, from the rows of 0 up.
        assert verify._BROADCAST_MAX_S == 64
        for seed in range(4):
            c = _label_shuffled(random_gallai(s, seed)[0], seed)
            arr = c.colex_colors().copy()
            for at in (edge_index(0, s - 1), edge_index(s // 2, s - 2)):
                arr[at] = c.k + 1
                moved = Coloring(s, arr)
                with monkeypatch.context() as m:
                    scans = _spy(m, "_first_rainbow")
                    assert rainbow_witness(moved) == _int32_rainbow_witness(moved)
                # A broadcast scans a range lo..s-1 whole (t = lo), a row
                # pass the row of lo alone (hi = lo + 1, t > lo).
                wide = [args for args, _ in scans if args[3] == args[1]]
                rows = [args for args, _ in scans if args[3] != args[1]]
                assert all(args[2] == args[1] + 1 for args in rows)
                if s == 64:
                    assert [(len(args[0]), args[1]) for args in wide] == [(64, 0)]
                    assert rows == []
                else:
                    assert all(len(args[0]) - args[1] <= 64 for args in wide)
                    assert rows[0][1:] == (0, 1, 1)

    def test_more_than_255_colors(self):
        # One star per vertex: vertex v has color 260 - v below it.  Edge
        # (255, 256) moves to color 260, so (0, 255, 256) is the first
        # rainbow triangle.  Reduced mod 256, 260 would equal the color 4
        # of vertex 256 and hide it.
        c = special(260, [(v,) for v in range(259, 0, -1)])
        arr = c.colex_colors().copy()
        arr[edge_index(255, 256)] = c.k + 1
        c = Coloring(260, arr)
        assert c.k == 260
        assert rainbow_witness(c) == _int32_rainbow_witness(c) == (0, 255, 256)


class TestGallaiPartition:
    def test_monochromatic_gives_singletons(self):
        gp = find_gallai_partition(Coloring(4, (1,) * 6))
        assert gp.m == 4 and gp.cross_colors == frozenset({1})
        assert validate_gallai_partition(Coloring(4, (1,) * 6), gp)

    def test_two_coloring_always_decomposes(self):
        c = _lex_fill(6, [8, 7])
        gp = find_gallai_partition(c)
        assert validate_gallai_partition(c, gp)
        assert gp.cross_colors <= {1, 2}

    def test_rainbow_input_has_no_partition(self):
        with pytest.raises(NotFound):
            find_gallai_partition(Coloring(3, (1, 2, 3)))

    def test_requires_two_vertices(self):
        with pytest.raises(PreconditionViolated):
            find_gallai_partition(Coloring(1, ()))

    def test_every_coloring_of_k4(self):
        # All 4^6 color arrays on the six edges of K_4, compacted to 1..k.
        # Rainbow-free input always decomposes (see the docstring's proof);
        # rainbow input may decompose or raise NotFound, never anything else.
        rainbow_free = 0
        for raw in product(range(1, 5), repeat=6):
            c = Coloring(4, compact_colors(list(raw)))
            if naive_rainbow(c) is None:
                rainbow_free += 1
                assert validate_gallai_partition(c, find_gallai_partition(c))
                continue
            try:
                gp = find_gallai_partition(c)
            except NotFound:
                continue
            assert validate_gallai_partition(c, gp)
        assert 0 < rainbow_free < 4**6

    def test_components_match_a_graph_search(self):
        # Random paths make long label chains; sparse graphs leave many
        # components.
        rng = np.random.default_rng(3)
        graphs = []
        for n in (2, 50, 300):
            perm = rng.permutation(n)
            path = np.zeros((n, n), dtype=bool)
            path[perm[:-1], perm[1:]] = True
            graphs.append(path)
            graphs.append(rng.random((n, n)) < 1.5 / n)
        for adj in graphs:
            adj = adj | adj.T
            want = np.full(len(adj), -1)
            for s in range(len(adj)):
                stack = [s] if want[s] < 0 else []
                while stack:
                    v = stack.pop()
                    if want[v] < 0:
                        want[v] = s
                        stack += np.flatnonzero(adj[v]).tolist()
            assert verify._components(adj).tolist() == want.tolist()

    def test_partitions_keep_their_bytes(self):
        # The digest of every answer over generator output on K_2..K_41 and
        # every compacted three-color array on K_4; a change to how blocks
        # are found must leave it as it is.
        import hashlib

        colorings = [random_gallai(n, n)[0] for n in range(2, 42)]
        colorings += [Coloring(4, compact_colors(list(raw))) for raw in product(range(1, 4), repeat=6)]
        h = hashlib.sha256()
        for c in colorings:
            try:
                gp = find_gallai_partition(c)
                text = f"{gp.blocks}{sorted(gp.cross_colors)}{gp.reduced}"
            except NotFound:
                text = "NotFound"
            h.update(f"{text}\n".encode())
        assert h.hexdigest() == "099c579564993240d608c6367fc3f75e3cb9f10347abe7ba016f3348139acfa6"

    @staticmethod
    def _loop_validate(c, gp):
        """validate_gallai_partition edge by edge: the reference."""
        if gp.m < 2 or len(gp.cross_colors) > 2:
            return False
        owner = {}
        for bi, blk in enumerate(gp.blocks):
            if not blk:
                return False
            for v in blk:
                if v in owner or not (0 <= v < c.n):
                    return False
                owner[v] = bi
        if len(owner) != c.n:
            return False
        reduced = {(i, j): col for i, j, col in gp.reduced}
        if set(reduced.values()) - gp.cross_colors:
            return False
        if set(reduced) != {(i, j) for i in range(gp.m) for j in range(i + 1, gp.m)}:
            return False
        return all(
            owner[u] == owner[v] or reduced[min(owner[u], owner[v]), max(owner[u], owner[v])] == col
            for u, v, col in c.edges()
        )

    def test_validator_matches_the_edge_loop(self):
        # Found partitions and altered ones: a vertex moved, a pair
        # recolored (inside 1..k or past it), a pair listed twice (the
        # last one counts), a pair dropped, a spare cross color.
        from gallai.core import GallaiPartition

        rng = random.Random(11)
        verdicts = []
        for seed in range(120):
            c, _ = random_gallai(2 + seed % 30, seed, 1 + seed % 5)
            gp = find_gallai_partition(c)
            for kind in range(6):
                blocks, reduced = [list(b) for b in gp.blocks], list(gp.reduced)
                cross = set(gp.cross_colors)
                at = rng.randrange(len(reduced))
                i, j, _ = reduced[at]
                if kind == 1 and any(len(b) > 1 for b in blocks):
                    big = next(b for b in blocks if len(b) > 1)
                    blocks[blocks.index(big) - 1].append(big.pop())
                elif kind == 2:
                    reduced[at] = (i, j, rng.choice([1, c.k, c.k + 1, 300]))
                elif kind == 3:
                    reduced.insert(at + rng.randrange(2), (i, j, rng.randint(1, c.k)))
                elif kind == 4:
                    del reduced[at]
                elif kind == 5:
                    cross.add(rng.randint(1, c.k + 1))
                cross |= {col for *_, col in reduced}
                if len(cross) > 2:
                    continue
                q = GallaiPartition(tuple(map(tuple, blocks)), frozenset(cross), tuple(reduced))
                verdicts.append(validate_gallai_partition(c, q))
                assert verdicts[-1] == self._loop_validate(c, q), (seed, kind)
        assert 300 < len(verdicts) and 0 < sum(verdicts) < len(verdicts)

    def test_validator_rejects_wrong_partition(self):
        from gallai.core import GallaiPartition

        c = Coloring(3, (1, 1, 2))
        bad = GallaiPartition(
            blocks=((0, 1), (2,)),
            cross_colors=frozenset({1}),
            reduced=((0, 1, 1),),
        )
        # Edge (0,2) is color 1 but (1,2) is color 2: the pair is not monochromatic.
        assert not validate_gallai_partition(c, bad)

    @pytest.mark.parametrize("blocks, reduced", [
        (((0, 1, 2), ()), ((0, 1, 1),)),  # an empty block
        (((0, 1), (1, 2)), ((0, 1, 1),)),  # vertex 1 twice
        (((0, 1), (2, 3)), ((0, 1, 1),)),  # no vertex 3 in K_3
        (((0,), (1,)), ((0, 1, 1),)),  # vertex 2 in no block
        (((0,), (1, 2)), ((0, 1, 2),)),  # color 2 is not a cross color
        (((0,), (1,), (2,)), ((0, 1, 1), (0, 2, 1))),  # no color for (1, 2)
    ])
    def test_validator_refuses_malformed_partitions(self, blocks, reduced):
        from gallai.core import GallaiPartition

        c = Coloring(3, (1, 1, 1))
        whole = GallaiPartition(((0,), (1,), (2,)), frozenset({1}), ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
        assert validate_gallai_partition(c, whole)
        assert not validate_gallai_partition(c, GallaiPartition(blocks, frozenset({1}), reduced))

    def test_generator_output_decomposes(self):
        for seed in range(25):
            c, _ = random_gallai(3 + seed % 14, seed, 4)
            gp = find_gallai_partition(c)
            assert validate_gallai_partition(c, gp)

    def test_recorded_generator_blocks_form_a_valid_partition(self):
        from gallai.core import GallaiPartition

        for seed in range(25):
            c, blocks = random_gallai(2 + seed % 14, seed + 500, 4)
            owner = {v: bi for bi, blk in enumerate(blocks) for v in blk}
            reduced: dict[tuple[int, int], int] = {}
            for u, v, col in c.edges():
                bu, bv = owner[u], owner[v]
                if bu != bv:
                    reduced.setdefault((min(bu, bv), max(bu, bv)), col)
            gp = GallaiPartition(
                blocks=blocks,
                cross_colors=frozenset(reduced.values()),
                reduced=tuple(sorted((i, j, col) for (i, j), col in reduced.items())),
            )
            assert validate_gallai_partition(c, gp)
