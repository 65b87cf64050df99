from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _backtrack
from gallai.core import PreconditionViolated, canonicalize, total_edges
from gallai.oracle import (
    compute_g,
    enumerate_realizable,
    partitions,
    search_realizable,
)
from gallai.verify import class_sizes, is_gallai


class TestPartitions:
    def test_exact_sets(self):
        assert set(partitions(6, 3)) == {(4, 1, 1), (3, 2, 1), (2, 2, 2)}

    def test_count_for_k5(self):
        assert len(list(partitions(10, 3))) == 8

    def test_empty(self):
        assert list(partitions(5, 0)) == []
        assert list(partitions(0, 0)) == [()]
        assert list(partitions(0, 1)) == []


class TestSearch:
    def test_rainbow_triangle_infeasible(self):
        v = search_realizable(canonicalize([1, 1, 1], 3))
        assert v.is_infeasible

    def test_necessary_failure_short_circuits(self):
        v = search_realizable(canonicalize([2, 2, 2], 4))
        assert v.is_infeasible and v.nodes_explored == 0

    def test_disjoint_edges_feasible(self):
        v = search_realizable(canonicalize([8, 1, 1], 5))
        assert v.is_feasible
        assert v.witness is not None
        assert is_gallai(v.witness)
        assert class_sizes(v.witness).sizes == (8, 1, 1)

    def test_k6_separating_instance(self):
        v = search_realizable(canonicalize([7, 3, 2, 2, 1], 6))
        assert v.is_infeasible

    def test_special_gap_instance_feasible(self):
        v = search_realizable(canonicalize([8, 3, 3, 1], 6))
        assert v.is_feasible

    def test_budget_returns_unknown(self):
        v = search_realizable(canonicalize([8, 3, 3, 1], 6), max_nodes=3)
        assert v.is_unknown and v.witness is None

    @pytest.mark.parametrize("budget", [{"max_nodes": -1}, {"max_ms": -5}])
    def test_negative_budget_is_refused(self, budget):
        with pytest.raises(PreconditionViolated):
            search_realizable(canonicalize([8, 3, 3, 1], 6), **budget)

    def test_deterministic_tags(self):
        d = canonicalize([7, 3, 2, 2, 1], 6)
        v1 = search_realizable(d)
        v2 = search_realizable(d)
        assert v1.tag == v2.tag and v1.nodes_explored == v2.nodes_explored

    def test_trivial_sizes(self):
        v = search_realizable(canonicalize([1], 2))
        assert v.is_feasible
        v = search_realizable(canonicalize([], 1))
        assert v.is_feasible

    def test_verdict_serialization(self):
        v = search_realizable(canonicalize([3], 3))
        payload = v.to_json_dict()
        assert payload["tag"] == "feasible" and "witness" in payload

    def test_star_search_has_the_budget_of_construct(self):
        # Star search needs more than 10^5 nodes here, and finds a special
        # coloring within the one budget both routes share; with no table
        # entry to spend, the answer is construct_any's coloring.
        from gallai import construct_any

        d = canonicalize([210, 206, 197, 166, 129, 115, 52, 49, 4], 48)
        v = search_realizable(d, max_nodes=0)
        assert v.is_feasible and v.nodes_explored == 0
        assert v.witness == construct_any(d)

    @pytest.mark.parametrize("sizes, n, tag", [((5, 4, 3, 3), 6, "feasible"),
                                               ((7, 3, 2, 2, 1), 6, "infeasible")])
    def test_star_search_over_budget_leaves_the_table_verdict(self, monkeypatch, sizes, n, tag):
        from gallai import construct
        from gallai.core import BudgetExceeded

        def over_budget(*args, **kwargs):
            raise BudgetExceeded("node budget exhausted")

        monkeypatch.setattr(construct, "star_partition_for", over_budget)
        d = canonicalize(sizes, n)
        v = search_realizable(d)
        # A star-search answer counts no nodes; the table's counts its entries.
        assert v.tag == tag and v.nodes_explored > 0
        assert v.witness is None or class_sizes(v.witness) == d


class TestEnumerate:
    def test_k4_on_four_vertices(self):
        result = enumerate_realizable(4, 3)
        feas = {d.sizes for d in result.feasible}
        infeas = {d.sizes for d in result.infeasible}
        assert feas == {(4, 1, 1), (3, 2, 1)}
        assert infeas == {(2, 2, 2)}
        assert not result.unknown

    def test_k5_three_colors_all_feasible(self):
        result = enumerate_realizable(5, 3)
        assert len(result.verdicts) == 8
        assert len(result.feasible) == 8

    def test_triangle(self):
        result = enumerate_realizable(3, 3)
        assert {d.sizes for d in result.infeasible} == {(1, 1, 1)}


class TestEnumerateK7:
    def test_k7_four_colors_has_exactly_one_infeasible(self):
        result = enumerate_realizable(7, 4)
        assert {d.sizes for d in result.infeasible} == {(9, 4, 4, 4)}
        assert not result.unknown


class TestComputeG:
    def test_three_colors(self):
        assert compute_g(3, 6) == 5

    def test_budget_gives_unknown(self):
        assert compute_g(3, 6, max_nodes=2) is None

    def test_n_max_too_small(self):
        assert compute_g(3, 4) is None

    def test_four_colors_needs_eight_vertices(self):
        # Every n <= 7 still has an infeasible 4-part distribution.
        assert compute_g(4, 7) is None

    def test_rejects_small_k(self):
        with pytest.raises(PreconditionViolated):
            compute_g(2, 10)

    def test_stops_at_the_first_infeasible(self, monkeypatch):
        from gallai import oracle

        calls = []
        real = oracle.search_realizable

        def search(d, **budgets):
            calls.append(d)
            return real(d, **budgets)

        monkeypatch.setattr(oracle, "search_realizable", search)
        assert compute_g(4, 8) == 8
        # Not k = 3: (2,2,2), the one infeasible 3-part distribution of K_4,
        # is the last of its three.
        every = sum(len(list(partitions(total_edges(n), 4))) for n in (6, 7, 8))
        assert len(calls) < every


class TestSoundness:
    def test_every_feasible_witness_verifies(self):
        for n in range(2, 7):
            for k in range(1, 5):
                for sizes in partitions(total_edges(n), k):
                    d = canonicalize(sizes, n)
                    v = search_realizable(d)
                    if v.is_feasible:
                        assert v.witness is not None
                        assert is_gallai(v.witness)
                        assert class_sizes(v.witness) == d


class TestWitnessCheck:
    # (8,3,3,1) on K_6 has no special coloring, so the table answers it.
    D = canonicalize([8, 3, 3, 1], 6)
    # Triangle {0,1,2} is rainbow; the class sizes are still (8,3,3,1).
    RAINBOW = (1, 2, 3) + (1,) * 7 + (2, 2, 3, 3, 4)
    # Rainbow-free (one color) but with the wrong class sizes.
    WRONG_SIZES = (1,) * 15

    # calls=1 builds the table inside the request; calls=2 also answers a
    # second request from the table the first one left cached.
    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("colors", [RAINBOW, WRONG_SIZES])
    def test_bad_backtrack_witness_is_refused(self, monkeypatch, calls, colors):
        from gallai import oracle
        from gallai.core import Coloring, InternalScheduleError

        assert class_sizes(Coloring(6, self.RAINBOW)) == self.D
        monkeypatch.setattr(oracle, "_TABLES", {})
        monkeypatch.setattr(oracle, "_rebuild", lambda *args: list(colors))
        for _ in range(calls):
            with pytest.raises(InternalScheduleError):
                search_realizable(self.D)
        assert 4 in oracle._TABLES

    # (5,4,3,3) on K_6 has a star partition, so star search answers it.
    STAR_D = canonicalize([5, 4, 3, 3], 6)
    # Its special coloring with edges (0,4) and (1,4) swapped: the class
    # sizes are still (5,4,3,3), but vertex 4 sees two colors below it.
    NOT_SPECIAL = (4, 4, 4, 3, 3, 3, 1, 2, 2, 2, 2, 1, 1, 1, 1)

    @pytest.mark.parametrize("colors", [NOT_SPECIAL, WRONG_SIZES])
    def test_bad_star_witness_is_refused(self, monkeypatch, colors):
        from gallai import construct
        from gallai.core import Coloring, InternalScheduleError

        assert construct.star_partition_for(self.STAR_D) is not None
        assert class_sizes(Coloring(6, self.NOT_SPECIAL)) == self.STAR_D
        monkeypatch.setattr(construct, "special_coloring", lambda sp: Coloring(6, colors))
        with pytest.raises(InternalScheduleError):
            search_realizable(self.STAR_D)


class TestStructural:
    """The substitution table against the backtracker, and its budgets."""

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda k: st.tuples(*[st.lists(st.integers(0, 4), min_size=k, max_size=k)] * 2)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_spreads_are_the_run_sorted_permutations(self, pair):
        # Both the set and the order: the order decides which recipe each
        # level stores.
        from gallai import oracle

        x, y = (tuple(sorted(v, reverse=True)) for v in pair)
        runs = oracle._runs(y)
        cuts = [sum(runs[:i]) for i in range(len(runs) + 1)]

        def run_sorted(p):
            return all(list(p[a:b]) == sorted(p[a:b], reverse=True) for a, b in zip(cuts, cuts[1:]))

        want = sorted({p for p in permutations(x) if run_sorted(p)}, reverse=True)
        assert oracle._spreads(x, runs) == want

    def test_agrees_with_backtracking(self):
        from gallai import oracle
        from gallai.construct import _checked
        from gallai.core import Coloring

        # Every distribution with n <= 6, and with n = 7 and k <= 5.
        cases = [
            canonicalize(sizes, n)
            for n in range(2, 8)
            for k in range(1, (total_edges(n) if n < 7 else 5) + 1)
            for sizes in partitions(total_edges(n), k)
        ]
        assert len(cases) == 233 + 221
        for d in cases:
            tag, colors, _ = oracle._structural(d.n, d.sizes, None, None)
            assert (tag, d) == (_backtrack(d.n, d.sizes)[0], d)
            if tag == "feasible":
                _checked(Coloring(d.n, colors), d)

    # sha256 over every rebuilt entry of levels 2..8, keys in sorted order:
    # a rebuild that wrote another valid witness would still pass the checks.
    ENTRY_PIN = {
        3: (178, "d96c1a067ba9c76e5314ec56c4f4a652357d5ebcaa5165dbf3c5785b96821dc6"),
        4: (444, "d9745aaccc58d73e932050103466239ae1fd46ddf813e1c48345cfb9bc9df454"),
        5: (751, "7d593b017301d1fa8f3c9aa26be8a893b211fb189342b27fde201c439c215a78"),
    }

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_every_entry_rebuilds(self, k):
        import hashlib

        from gallai import oracle
        from gallai.core import Coloring

        oracle._structural(8, (0,) * k, None, None)
        levels = oracle._TABLES[k]
        h = hashlib.sha256()
        entries = 0
        for s in range(2, 9):
            for key in sorted(levels[s]):
                c = Coloring(s, oracle._rebuild(levels, s, key))
                assert is_gallai(c)
                assert class_sizes(c).sizes == tuple(v for v in key if v)
                h.update(f"{s}:{key}\n".encode() + c.colex_colors().astype("uint8").tobytes())
                entries += 1
        assert (entries, h.hexdigest()) == self.ENTRY_PIN[k]

    # sha256 over repr(list(level.items())) of levels 2..top in order, with
    # the level sizes: keys, insertion order and recipes.  From K_9 on some
    # splits into four blocks add entries, and the builder leaves out the
    # shares and folds that cannot; these are the tables of the builder
    # that took every split.
    LEVEL_PIN = {
        3: ([1, 2, 6, 14, 27, 48, 80, 127, 192, 280, 397],
            "3cbb6cbebcc26362a992a652aec8c1cd8e823571728bf68448c25f42d10928a5"),
        4: ([1, 2, 6, 17, 50, 119, 249, 478, 864, 1495],
            "301366e53bb2df924c3971053b40db5947f164aea96200e246c70cd488fa93d8"),
        5: ([1, 2, 6, 17, 56, 171, 498, 1215, 2611],
            "bbba74c067f6771aeec0fb366882b2f8d3cd9d4215974415e81458c1ae0f3255"),
        6: ([1, 2, 6, 17, 56, 182, 637, 1993, 5623, 13601],
            "d82cfb4cc7524a13b79fdd0be858b1775ee2f38a4d46b7afffd8baf99c0ec13a"),
        7: ([1, 2, 6, 17, 56, 182, 660, 2323, 8134],
            "5c0c597236e9930cc0d4cb062efc816fcf2828aa423caa8ecc3ee3637efe3c87"),
    }

    @pytest.mark.parametrize("k", sorted(LEVEL_PIN))
    def test_levels_keep_keys_order_and_recipes(self, k):
        import hashlib

        from gallai import oracle

        sizes, digest = self.LEVEL_PIN[k]
        top = len(sizes) + 1
        oracle._structural(top, (0,) * k, None, None)
        levels = oracle._TABLES[k][2 : top + 1]
        h = hashlib.sha256()
        for level in levels:
            h.update(repr(list(level.items())).encode())
        assert ([len(level) for level in levels], h.hexdigest()) == (sizes, digest)

    def test_dropped_shares_have_a_one_color_block(self):
        # Brute force over every split of the cross pairs between the two
        # colors: a share is dropped exactly when some split reaching it
        # gives every pair at one block one color.
        from gallai import oracle

        for s in range(4, 11):
            for m in (4, 5):
                for sizes in partitions(s, m):
                    pairs = [(i, j) for j in range(m) for i in range(j)]
                    weights = [sizes[i] * sizes[j] for i, j in pairs]
                    at = [sum(1 << q for q, pair in enumerate(pairs) if i in pair) for i in range(m)]
                    reached, cut = set(), set()
                    for split in range(1 << len(pairs)):
                        e = sum(w for q, w in enumerate(weights) if split >> q & 1)
                        reached.add(e)
                        if any(split & bits in (0, bits) for bits in at):
                            cut.add(e)
                    shares = [e for e in reached if 0 < e and 2 * e <= sum(weights)]
                    kept = oracle._kept_shares(sizes)
                    assert sorted(kept) == [e for e in sorted(shares) if e not in cut], sizes

    def test_splits_are_every_partition_but_three_blocks(self):
        # Brute force over every composition of s, its cuts as a bit mask:
        # the non-increasing ones with 2 or m >= 4 parts, in descending
        # order, each kept with its shares unless ``_kept_shares`` has none.
        from gallai import oracle

        for s in range(2, 17):
            sizes_of = set()
            for cuts in range(1, 1 << (s - 1)):
                ends = [i for i in range(1, s) if cuts >> (i - 1) & 1] + [s]
                parts = tuple(b - a for a, b in zip([0] + ends, ends))
                if len(parts) != 3 and list(parts) == sorted(parts, reverse=True):
                    sizes_of.add(parts)
            want = []
            for sizes in sorted(sizes_of, reverse=True):
                shares = None if len(sizes) == 2 else oracle._kept_shares(sizes)
                if shares != []:
                    want.append((sizes, shares))
            assert oracle._splits(s) == want, s

    def test_two_blocks_make_every_level_up_to_k8(self, monkeypatch):
        from gallai import oracle

        monkeypatch.setattr(oracle, "_TABLES", {})
        monkeypatch.setattr(oracle, "_SPREADS", {})
        real_splits, taken = oracle._splits, []

        def splits(s):
            out = real_splits(s)
            taken.extend(sizes for sizes, _ in out)
            return out

        monkeypatch.setattr(oracle, "_splits", splits)
        oracle._structural(8, (0,) * 5, None, None)
        # Only the prefixes of these sizes are folded.
        assert taken and all(len(sizes) == 2 for sizes in taken)
        assert [len(level) for level in oracle._TABLES[5]] == [0, 1, 1, 2, 6, 17, 56, 171, 498]
        taken.clear()
        oracle._structural(9, (0,) * 5, None, None)
        assert (5, 2, 1, 1) in taken and (4, 3, 1, 1) in taken

    def test_needs_more_than_two_blocks(self):
        # Every coloring of K_9 with these sizes is a substitution into a
        # 2-colored K_m, m >= 4, with no one-colored cut; star search finds
        # none, and the backtracker gives up after 2*10^7 nodes.
        from gallai import oracle

        d = canonicalize([17, 10, 3, 2, 2, 2], 9)
        v = search_realizable(d)
        assert v.is_feasible and v.witness is not None and is_gallai(v.witness)
        assert class_sizes(v.witness) == d
        assert len(oracle._TABLES[6][9][d.sizes].sizes) == 4

    @pytest.mark.parametrize(
        "sizes", [(20, 2, 2, 2, 2), (12, 4, 4, 4, 4), (8, 5, 5, 5, 5), (6, 6, 6, 6, 4), (6, 6, 6, 5, 5)]
    )
    def test_k8_five_color_infeasible(self, sizes):
        # The backtracker proved these; it cannot finish the rest of K_8.
        assert search_realizable(canonicalize(sizes, 8)).is_infeasible

    def test_nodes_equal_cold_and_warm(self, monkeypatch):
        from gallai import oracle

        d = canonicalize([9, 7, 3, 1, 1], 7)
        monkeypatch.setattr(oracle, "_TABLES", {})
        cold = search_realizable(d)
        warm = search_realizable(d)
        assert cold.tag == warm.tag == "infeasible"
        # Levels 2..7 of the five-color table.
        assert cold.nodes_explored == warm.nodes_explored == 1 + 2 + 6 + 17 + 56 + 171
        # A smaller clique counts only its own levels, though K_7 is built.
        assert search_realizable(canonicalize([8, 3, 2, 1, 1], 6)).nodes_explored == 82

    @pytest.mark.parametrize("warm", [False, True])
    def test_node_budget_is_the_entry_count(self, monkeypatch, warm):
        from gallai import oracle

        d = canonicalize([8, 3, 3, 1], 6)
        monkeypatch.setattr(oracle, "_TABLES", {})
        if warm:
            search_realizable(d)
        assert search_realizable(d, max_nodes=76).tag == "feasible"
        short = search_realizable(d, max_nodes=75)
        assert short.is_unknown and short.nodes_explored == 75
        assert search_realizable(d).nodes_explored == 76

    def test_unfinished_level_is_not_stored(self, monkeypatch):
        from gallai import oracle

        monkeypatch.setattr(oracle, "_TABLES", {})
        d = canonicalize([8, 3, 3, 1], 6)
        assert search_realizable(d, max_nodes=30).is_unknown
        # Levels 2..5 hold 1 + 2 + 6 + 17 entries; level 6 (50) went past the budget.
        assert [len(level) for level in oracle._TABLES[4]] == [0, 1, 1, 2, 6, 17]
        assert search_realizable(d, max_ms=0).is_unknown
        assert len(oracle._TABLES[4]) == 6
        assert search_realizable(d).is_feasible

    def test_node_budget_bounds_the_block_sums(self, monkeypatch):
        from gallai import oracle
        from gallai.core import BudgetExceeded

        monkeypatch.setattr(oracle, "_TABLES", {})
        search_realizable(canonicalize([9, 7, 3, 1, 1], 7))
        levels = oracle._TABLES[5]
        # K_8's first fold is K_7's 171 vectors: a limit of 170 stops there,
        # before any entry of K_8 is made.
        level = {}
        with pytest.raises(BudgetExceeded):
            oracle._fill_level(level, levels, 8, 5, 170, None)
        assert level == {}

    def test_node_budget_stops_the_level_itself(self, monkeypatch):
        import traceback

        from gallai import oracle

        monkeypatch.setattr(oracle, "_TABLES", {})
        real_fill, stops = oracle._fill_level, []

        def fill(*args):
            try:
                real_fill(*args)
            except oracle._OverNodeBudget as exc:
                stops.append(traceback.extract_tb(exc.__traceback__)[-1].name)
                raise

        monkeypatch.setattr(oracle, "_fill_level", fill)
        # K_2's one vector leaves a limit of 1 for K_3, whose folds hold one
        # vector each: its second entry, not a fold, goes past the budget.
        assert oracle._structural(3, (1, 1, 1), 2, None) == ("unknown", None, 2)
        assert stops == ["add"]

    def test_node_budget_stops_a_fold(self, monkeypatch):
        import traceback

        from gallai import oracle

        # Hand-made levels: K_5's split (4, 1) adds two entries, and the fold
        # of K_3's one vector with K_2's five, taken for (3, 2), holds four
        # sums before the level reaches the limit of three.  The spreads of
        # these levels must not reach a real table.
        monkeypatch.setattr(oracle, "_SPREADS", {})
        levels = [
            {},
            {(0, 0, 0): None},
            {(1, 0, 0): None, (0, 1, 0): None, (2, 0, 0): None, (3, 0, 0): None, (4, 0, 0): None},
            {(3, 0, 0): None},
            {(6, 0, 0): None},
        ]
        level = {}
        with pytest.raises(oracle._OverNodeBudget) as exc:
            oracle._fill_level(level, levels, 5, 3, 3, None)
        assert traceback.extract_tb(exc.value.__traceback__)[-1].name == "extend"
        assert len(level) == 2

    def test_threads_share_one_table(self, monkeypatch):
        import sys
        import threading

        from gallai import oracle

        monkeypatch.setattr(oracle, "_TABLES", {})
        cases = [canonicalize([9, 7, 3, 1, 1], 7), canonicalize([8, 3, 2, 1, 1], 6)] * 3
        results = [None] * len(cases)

        def ask(i):
            results[i] = search_realizable(cases[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        # A level stored twice would shift every level above it.
        assert [len(level) for level in oracle._TABLES[5]] == [0, 1, 1, 2, 6, 17, 56, 171]
        assert [(v.tag, v.nodes_explored) for v in results] == [
            ("infeasible", 253), ("feasible", 82)
        ] * 3
