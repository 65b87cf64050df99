import inspect
import re
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gallai import construct
from gallai.core import (
    BudgetExceeded,
    Coloring,
    DivisionParams,
    InternalScheduleError,
    InvariantViolation,
    PeelImpossible,
    PreconditionViolated,
    TooManyColors,
    balanced_sizes,
    canonicalize,
    star_partition,
    total_edges,
)
from gallai.construct import (
    _THRESHOLDS,
    NotConstructed,
    _construct_guaranteed,
    construct_any,
    construct_balanced,
    construct_division,
    construct_gk_general,
    extend_by_star,
    lower_bound_witness,
    merge_classes,
    peel_reduction,
    replay_peel,
    special_coloring,
    star_partition_for,
)
from gallai.generator import random_gallai
from gallai.oracle import compute_g, partitions
from gallai.verify import class_sizes, is_gallai, is_special_coloring, top_l_cover


def verified(c: Coloring, sizes) -> None:
    assert is_gallai(c)
    assert class_sizes(c) == canonicalize(sizes, c.n)


class TestSpecialColoring:
    def test_k5_table_entry(self):
        c = special_coloring(star_partition(5, [(4, 3), (2,), (1,)]))
        verified(c, [7, 2, 1])
        assert is_special_coloring(c)

    def test_k5_other_entry(self):
        c = special_coloring(star_partition(5, [(4,), (3, 1), (2,)]))
        verified(c, [4, 4, 2])

    def test_single_edge(self):
        c = special_coloring(star_partition(2, [(1,)]))
        verified(c, [1])

    def test_down_edges_share_group_color(self):
        c = special_coloring(star_partition(6, [(5, 2), (4, 1), (3,)]))
        for j in range(5):
            assert c.edge_color(j, 5) == c.edge_color(0, 5)


class TestStarPartitionSearch:
    def test_finds_721(self):
        sp = star_partition_for(canonicalize([7, 2, 1], 5))
        assert sp is not None
        assert sorted(sp.group_sums(), reverse=True) == [7, 2, 1]

    def test_singleton_stars(self):
        sp = star_partition_for(canonicalize([3, 2, 1], 4))
        assert sp is not None and sorted(sp.group_sums(), reverse=True) == [3, 2, 1]

    def test_8331_has_no_special_realization(self):
        assert star_partition_for(canonicalize([8, 3, 3, 1], 6)) is None

    def test_more_groups_than_labels(self):
        assert star_partition_for(canonicalize([1, 1, 1], 3)) is None

    def test_node_budget_raises_then_finds(self):
        # The real budget of the search, with nothing patched.
        d = canonicalize(balanced_sizes(10, 4), 10)
        with pytest.raises(BudgetExceeded, match="exceeded 3 nodes"):
            star_partition_for(d, max_nodes=3)
        sp = star_partition_for(d, max_nodes=10)
        assert sp is not None and sorted(sp.group_sums()) == sorted(d.sizes)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_found_partitions_realize_the_distribution(self, n, seed):
        import random

        rng = random.Random(seed)
        total = total_edges(n)
        k = rng.randint(1, min(total, n + 1))
        cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        d = canonicalize(sizes, n)
        sp = star_partition_for(d)
        if sp is not None:
            verified(special_coloring(sp), d.sizes)

    @staticmethod
    def _block_sums(n: int) -> set:
        """Sorted block sums of every set partition of the labels 1..n-1."""
        out = set()

        def grow(label: int, sums: list) -> None:
            if label == n:
                out.add(tuple(sorted(sums, reverse=True)))
                return
            for i in range(len(sums)):
                sums[i] += label
                grow(label + 1, sums)
                sums[i] -= label
            sums.append(label)
            grow(label + 1, sums)
            sums.pop()

        grow(1, [])
        return out

    def test_agrees_with_set_partition_enumeration(self):
        from gallai.oracle import partitions

        # Second method: for n <= 9 list every set partition of {1..n-1}
        # (Bell(8) = 4,140 at n = 9) instead of searching.
        for n in range(2, 10):
            special = self._block_sums(n)
            for k in range(1, total_edges(n) + 1):
                for sizes in partitions(total_edges(n), k):
                    sp = star_partition_for(canonicalize(sizes, n))
                    assert (sp is not None) == (sizes in special), (n, sizes)
                    if sp is not None:
                        assert tuple(sorted(sp.group_sums(), reverse=True)) == sizes

    @pytest.mark.parametrize("n, sizes", [
        (19, (57, 38, 23, 20, 19, 12, 1, 1)),
        (25, (186, 48, 34, 21, 4, 3, 3, 1)),
    ])
    def test_capacity_bound_refutes_within_small_budget(self, n, sizes):
        # Each took more than 10^5 nodes before the capacity bound.
        assert star_partition_for(canonicalize(sizes, n), max_nodes=1_000) is None

    @pytest.mark.parametrize("n, sizes", [
        (23, (61, 40, 39, 36, 33, 31, 12, 1)),
        (38, (209, 144, 123, 113, 45, 45, 24)),
    ])
    def test_capacity_bound_finds_within_small_budget(self, n, sizes):
        sp = star_partition_for(canonicalize(sizes, n), max_nodes=1_000)
        assert sp is not None
        verified(special_coloring(sp), sizes)

    @staticmethod
    def _outcome(search, d, budget):
        """A search's partition or None, or its BudgetExceeded message;
        budget "default" leaves max_nodes out."""
        try:
            return search(d) if budget == "default" else search(d, max_nodes=budget)
        except BudgetExceeded as exc:
            return "budget", str(exc)

    def test_matches_the_recursive_reference(self):
        import random

        from conftest import recursive_star_partition

        # Every distribution of K_n, n <= 8, and seeded random compositions
        # with k = 5..9 and n = 2k..60: the same partition, or the same
        # budget verdict, at each budget.
        cases = [
            canonicalize(sizes, n)
            for n in range(1, 9)
            for k in range(1, total_edges(n) + 1)
            for sizes in partitions(total_edges(n), k)
        ]
        rng = random.Random(25)
        for _ in range(400):
            k = rng.randint(5, 9)
            n = rng.randint(2 * k, 60)
            cuts = sorted(rng.sample(range(1, total_edges(n)), k - 1))
            cases.append(canonicalize([b - a for a, b in zip([0] + cuts, cuts + [total_edges(n)])], n))
        budgeted = 0
        for d in cases:
            for budget in (1, 3, 10, 100, 10**4, "default"):
                got = self._outcome(star_partition_for, d, budget)
                assert got == self._outcome(recursive_star_partition, d, budget), (d, budget)
                budgeted += isinstance(got, tuple)
        assert budgeted > 0

    def test_k1000_search_needs_no_recursion(self):
        # The search took one frame per label and went past the recursion
        # limit from about K_995 on, so construct exited 1, a false "not
        # constructed".  Here the limit leaves 50 frames above the test's own.
        sizes = (101933, 100537, 63284, 55200, 38676, 33087, 28737, 24088, 23682, 20180, 8622, 1474)
        d = canonicalize(sizes, 1000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            sp = star_partition_for(d)
            c = construct_any(d)
        finally:
            sys.setrecursionlimit(limit)
        assert sp is not None and c == special_coloring(sp)
        assert is_special_coloring(c) and class_sizes(c) == d


class TestDivision:
    def test_spec_examples(self):
        c = construct_division(DivisionParams(n=5, k=2, p=4, q=2))
        verified(c, [4, 4, 2])
        assert is_special_coloring(c)
        c = construct_division(DivisionParams(n=4, k=1, p=6, q=0))
        verified(c, [6])
        c = construct_division(DivisionParams(n=7, k=3, p=6, q=3))
        verified(c, [6, 6, 6, 3])

    def test_q_larger_than_p_is_normalized(self):
        # q >= p exercises the split-and-merge reduction.
        c = construct_division(DivisionParams(n=6, k=1, p=5, q=10))
        verified(c, [5, 10])

    def test_endgame_delta_one(self):
        # n = 4k+1, p = 2n-2 forces the star triple/quadruple schedule.
        for k in (1, 2, 3):
            n = 4 * k + 1
            c = construct_division(DivisionParams(n=n, k=k, p=2 * n - 2, q=2 * k))
            verified(c, [2 * n - 2] * k + [2 * k])

    def test_endgame_delta_two(self):
        for k in (1, 2, 3):
            n = 4 * k + 2
            c = construct_division(DivisionParams(n=n, k=k, p=2 * n - 1, q=3 * k + 1))
            verified(c, [2 * n - 1] * k + [3 * k + 1])

    def test_grid_small(self):
        for n in range(2, 17):
            total = total_edges(n)
            for p in range(n - 1, total + 1):
                for k in range(1, total // p + 1):
                    q = total - k * p
                    c = construct_division(DivisionParams(n=n, k=k, p=p, q=q))
                    assert is_special_coloring(c)
                    want = [p] * k + ([q] if q else [])
                    assert class_sizes(c) == canonicalize(want, n)

    @pytest.mark.parametrize("p, q", [(999501, 999499), (1998995, 5)])
    def test_stars_and_pairs_off_k_2000_need_no_recursion(self, p, q):
        # Each removed a spanning star off the q class, or a star pair off the
        # p class, in a call of its own, and went past the recursion limit.
        # Here the limit leaves 50 frames above the test's own.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            c = construct_division(DivisionParams(n=2000, k=1, p=p, q=q))
        finally:
            sys.setrecursionlimit(limit)
        assert is_special_coloring(c)
        assert class_sizes(c) == canonicalize([p, q], 2000)

    def test_single_vertex(self):
        c = construct_division(DivisionParams(n=1, k=0, p=0, q=0))
        assert c.n == 1 and c.k == 0
        assert c == Coloring(1, ())

    def test_special_certificate_refuses_non_special_colorings(self):
        # _checked(special=True) skips rainbow_witness; speciality alone must
        # still refuse a rainbow-free non-special and a rainbow coloring.
        for colors in ((1, 1, 2), (1, 2, 3)):
            c = Coloring(3, colors)
            with pytest.raises(InternalScheduleError, match="special"):
                construct._checked(c, class_sizes(c), special=True)

    def test_broken_schedule_raises(self, monkeypatch):
        # There is no star-search fallback: a wrong schedule fails loudly.
        params = DivisionParams(n=5, k=2, p=4, q=2)
        monkeypatch.setattr(construct, "_division_groups", lambda *a: ([[4], [3]], [2, 1]))
        with pytest.raises(InternalScheduleError):
            construct_division(params)
        monkeypatch.setattr(construct, "_division_groups", lambda *a: ([[4], [3, 1]], [1]))
        with pytest.raises(InvariantViolation):
            construct_division(params)


class TestBalanced:
    def test_k6_three_colors(self):
        c = construct_balanced(6, 3)
        verified(c, [5, 5, 5])

    def test_k5_three_colors(self):
        c = construct_balanced(5, 3)
        verified(c, [4, 3, 3])

    def test_too_many_colors(self):
        with pytest.raises(TooManyColors):
            construct_balanced(5, 4)

    def test_no_colors_refused(self):
        with pytest.raises(PreconditionViolated, match="k must be >= 1"):
            construct_balanced(5, 0)

    def test_single_vertex(self):
        assert construct_balanced(1, 1) == Coloring(1, ())

    def test_ceiling_boundary_odd_n(self):
        for n in (3, 5, 7, 9, 11):
            k = (n + 1) // 2
            c = construct_balanced(n, k)
            sizes = class_sizes(c).sizes
            assert len(sizes) == k and max(sizes) - min(sizes) <= 1
            assert is_gallai(c)

    def test_broken_schedule_raises(self, monkeypatch):
        monkeypatch.setattr(construct, "_balanced_groups", lambda n, k: [[5, 1], [4], [3, 2]])
        with pytest.raises(InternalScheduleError):
            construct_balanced(6, 3)
        monkeypatch.setattr(construct, "_balanced_groups", lambda n, k: [[5], [4, 1], [3]])
        with pytest.raises(InvariantViolation):
            construct_balanced(6, 3)

    def test_grid(self):
        for n in range(2, 31):
            for k in range(1, (n + 1) // 2 + 1):
                c = construct_balanced(n, k)
                sizes = class_sizes(c).sizes
                assert len(sizes) == k
                assert max(sizes) - min(sizes) <= 1
                assert is_special_coloring(c)


class TestExtendAndPeel:
    def test_extend_monochromatic(self):
        c = extend_by_star(Coloring(3, (1, 1, 1)), 1)
        verified(c, [6])

    def test_extend_grows_count_by_n(self):
        base = special_coloring(star_partition(5, [(4, 3), (2,), (1,)]))
        c = extend_by_star(base, 1)
        assert class_sizes(c).sizes == (12, 2, 1)

    def test_extend_with_fresh_color(self):
        c = extend_by_star(Coloring(3, (1, 1, 1)), 2)
        assert class_sizes(c).sizes == (3, 3)
        assert is_gallai(c)

    def test_extend_rejects_far_color(self):
        with pytest.raises(PreconditionViolated):
            extend_by_star(Coloring(3, (1, 1, 1)), 5)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40)
    def test_extend_preserves_rainbow_freeness(self, seed, color):
        c, _ = random_gallai(6, seed, 4)
        col = min(color, c.k + 1)
        assert is_gallai(extend_by_star(c, col))

    def test_peel_example(self):
        base, log = peel_reduction(canonicalize([12, 2, 1], 6), 5)
        assert base.sizes == (7, 2, 1)
        assert log == (0,)

    def test_peel_identity(self):
        d = canonicalize([7, 2, 1], 5)
        base, log = peel_reduction(d, 5)
        assert base == d and log == ()

    def test_peel_impossible(self):
        with pytest.raises(PeelImpossible):
            peel_reduction(canonicalize([2, 2, 2], 4), 3)

    def test_peel_can_empty_a_class(self):
        base, log = peel_reduction(canonicalize([2, 1], 3), 2)
        assert base.sizes == (1,) and log == (0,)

    def test_replay_restores_distribution(self):
        d = canonicalize([12, 6, 3], 7)
        base, log = peel_reduction(d, _THRESHOLDS[3])
        assert base.n == 5 and base.k == 3
        c = replay_peel(_construct_guaranteed(base), d, log)
        verified(c, d.sizes)

    def test_replay_refuses_a_log_that_does_not_bridge(self):
        d = canonicalize(balanced_sizes(7, 3), 7)
        base, log = peel_reduction(d, 5)
        built = _construct_guaranteed(base)
        with pytest.raises(PreconditionViolated, match="log length 1 does not bridge 5 -> 7"):
            replay_peel(built, d, log[:1])

    def test_replay_refuses_a_base_of_other_sizes(self):
        d = canonicalize(balanced_sizes(7, 3), 7)
        base, log = peel_reduction(d, 5)
        other = _construct_guaranteed(canonicalize([4, 3, 3], 5))
        assert base != canonicalize([4, 3, 3], 5)
        with pytest.raises(PreconditionViolated, match="does not match the peeled distribution"):
            replay_peel(other, d, log)

    @pytest.mark.parametrize("sizes", [[6, 4], [4, 3, 3], [10]])
    def test_replay_refuses_a_base_of_other_sizes_after_an_emptied_class(self, sizes):
        # (5,5,5)/K_6 peels to (5,5)/K_5, and its emptied slot 0 has no base
        # color; a base of any other sizes is still refused.
        d = canonicalize([5, 5, 5], 6)
        _, log = peel_reduction(d, 5)
        other = _construct_guaranteed(canonicalize(sizes, 5))
        with pytest.raises(PreconditionViolated, match="does not match the peeled distribution"):
            replay_peel(other, d, log)

    def test_replay_recreates_emptied_classes(self):
        d = canonicalize([7, 7, 7, 7], 8)
        base, log = peel_reduction(d, 5)
        c = replay_peel(_construct_guaranteed(base), d, log)
        verified(c, d.sizes)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_peel_then_replay_is_identity_on_distributions(self, seed):
        import random

        rng = random.Random(seed)
        base_ns = {1: 2, 2: 2, **_THRESHOLDS}
        k = rng.randint(1, 4)
        n = rng.randint(base_ns[k], 16)
        total = total_edges(n)
        if total < k:
            return
        cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        d = canonicalize(sizes, n)
        base_n = base_ns[d.k]
        if d.n <= base_n:
            return
        try:
            base, log = peel_reduction(d, base_n)
        except PeelImpossible:
            return
        built = construct_any(base)
        if not isinstance(built, Coloring):
            return
        c = replay_peel(built, d, log)
        assert class_sizes(c) == d
        assert is_gallai(c)


def _relabel_by_pairs(counts, targets):
    """The (size, id) matcher that ``_relabel`` replaced, kept as the
    reference: both sides ranked by (-size, id), matched in rank order."""
    ranked = sorted(range(1, len(counts) + 1), key=lambda col: (-counts[col - 1], col))
    want = sorted(targets, key=lambda t: (-t[0], t[1]))
    if [counts[col - 1] for col in ranked] != [size for size, _ in want]:
        return None
    return {col: tid for col, (_, tid) in zip(ranked, want)}


class TestOneRanking:
    """Colors and slots are matched to class sizes by one rule, ``_ranked``:
    descending size, ties to the lower position."""

    @pytest.mark.parametrize(
        "ranking, want",
        [
            # (7,7,7)/K_7: the first star takes slot 0 of three tied ones,
            # the second slot 1 of the two left at 7.
            (lambda: peel_reduction(canonicalize([7, 7, 7], 7), 5), (canonicalize([7, 2, 1], 5), (0, 1))),
            # Two classes of 3 edges, colored 2 before 1 in colex order.
            (lambda: top_l_cover(Coloring(4, (2, 2, 2, 1, 1, 1)), 1), ((1,), 3)),
            # Colors 1 and 2 tie at 2 edges and take positions 1 and 2 of
            # the tied sizes, in that order; color 3 takes position 0.
            (lambda: construct._relabel((2, 2, 1), (1, 2, 2)).tolist(), [0, 1, 2, 0]),
        ],
        ids=["peel_reduction", "top_l_cover", "_relabel"],
    )
    def test_ties_go_to_the_lower_position(self, ranking, want):
        assert ranking() == want

    def test_relabel_matches_the_pair_matcher(self):
        # Every count vector with up to 3 colors of 1..3 edges against every
        # size vector with up to 4 positions of 0..3 edges.
        for k in range(4):
            for counts in product(range(1, 4), repeat=k):
                for m in range(5):
                    for sizes in product(range(4), repeat=m):
                        table = construct._relabel(counts, sizes)
                        ref = _relabel_by_pairs(counts, [(s, i) for i, s in enumerate(sizes) if s > 0])
                        if ref is None:
                            assert table is None, (counts, sizes)
                            continue
                        assert table.dtype == np.int32 and table[0] == 0
                        assert dict(enumerate(table.tolist()[1:], start=1)) == ref, (counts, sizes)


class TestThresholds:
    """Each k in ``_THRESHOLDS`` peels to K_{g(k)} and builds the base there."""

    def test_thresholds_match_the_table(self):
        for k, g in _THRESHOLDS.items():
            assert compute_g(k, g) == g

    def test_only_five_fives_empties_a_class(self):
        # A peel step from K_m empties the largest class only when it has
        # m - 1 edges, so only when m(m-1)/2 <= k(m-1); above K_{g(k)} that
        # leaves (5,5,5)/K_6 alone.
        emptied = set()
        for k, g in _THRESHOLDS.items():
            for n in range(g + 1, 13):
                for sizes in partitions(total_edges(n), k):
                    base, _ = peel_reduction(canonicalize(sizes, n), g)
                    if base.k < k:
                        emptied.add((k, base.sizes))
        assert emptied == {(3, (5, 5))}

    def test_five_fives_builds_a_two_part_base(self):
        d = canonicalize([5, 5, 5], 6)
        base, log = peel_reduction(d, _THRESHOLDS[3])
        assert base == canonicalize([5, 5], 5) and log == (0,)
        c = construct_any(d)
        assert isinstance(c, Coloring)
        verified(c, d.sizes)
        # The two-color fill of (5,5)/K_5 plus a star, as before the route
        # was shared; star search would give other (special) bytes.  Large
        # 3-part requests peel through (5,5,5)/K_6 too, e.g.
        # (2697,1399,854)/K_100, so this keeps their output unchanged.
        assert c == Coloring(6, [1, 1, 1, 1, 2, 2, 1, 2, 2, 2, 3, 3, 3, 3, 3])


class TestK3Base:
    """The K_5 bases, built by ``construct_any``."""

    def test_all_eight_distributions(self):
        # Special exactly when star search finds a partition; otherwise the
        # coloring is the oracle's table witness.
        parts = list(partitions(10, 3))
        assert len(parts) == 8
        special = 0
        for sizes in parts:
            d = canonicalize(sizes, 5)
            c = construct_any(d)
            assert isinstance(c, Coloring), sizes
            verified(c, sizes)
            assert is_special_coloring(c) == (star_partition_for(d) is not None), sizes
            special += is_special_coloring(c)
        assert special == 6

    def test_table_entry_is_special(self):
        c = construct_any(canonicalize([6, 3, 1], 5))
        assert is_special_coloring(c)

    def test_ad_hoc_cases_are_not_special(self):
        assert not is_special_coloring(construct_any(canonicalize([8, 1, 1], 5)))
        assert not is_special_coloring(construct_any(canonicalize([6, 2, 2], 5)))

    def test_bipartite_class_structure(self):
        # The largest class of (6,2,2) is a complete bipartite K_{2,3}.
        c = construct_any(canonicalize([6, 2, 2], 5))
        side = {0} | {v for v in range(1, 5) if c.edge_color(0, v) != 1}
        crossing = {(u, v) for u, v, col in c.edges() if col == 1}
        assert len(side) in (2, 3)
        assert crossing == {(u, v) for u, v, _ in c.edges() if (u in side) != (v in side)}

    def test_rejects_wrong_instance(self):
        with pytest.raises(PreconditionViolated):
            _construct_guaranteed(canonicalize([6, 3, 1, 5], 6))


class TestK4Base:
    """The K_8 bases, built by ``construct_any``."""

    @staticmethod
    def built(sizes, n=8):
        c = construct_any(canonicalize(sizes, n))
        assert isinstance(c, Coloring), sizes
        verified(c, sizes)
        return c

    def test_case1_clique_rows(self):
        self.built([16, 4, 4, 4])
        self.built([25, 1, 1, 1])

    def test_sevens_peel_down(self):
        self.built([7, 7, 7, 7])

    def test_tricky_reduced_instances(self):
        # (12,12,2,2) has no star partition, so the oracle's table builds it;
        # the other four are special colorings from star search.
        for sizes in ([13, 12, 2, 1], [13, 11, 3, 1], [12, 12, 2, 2], [8, 8, 6, 6], [13, 5, 5, 5]):
            c = self.built(sizes)
            assert is_special_coloring(c) == (sizes != [12, 12, 2, 2])

    def test_all_partitions(self):
        # Special exactly when star search finds a partition; otherwise the
        # coloring is the oracle's table witness.
        star = 0
        for sizes in partitions(28, 4):
            c = self.built(sizes)
            found = star_partition_for(canonicalize(sizes, 8)) is not None
            assert is_special_coloring(c) == found, sizes
            star += found
        assert star == 136

    def test_every_k9_distribution_over_the_base(self):
        # 43 of the 351 peel to a K_8 base without a star partition, so
        # replay_peel re-attaches stars to a table witness.
        table_bases = 0
        for sizes in partitions(36, 4):
            table_bases += not is_special_coloring(self.built(sizes, 9))
        assert table_bases == 43


class TestGkGeneral:
    @staticmethod
    def _row(c: Coloring, v: int):
        """The colors of the down-edges of v, to 0..v-1."""
        start = v * (v - 1) // 2
        return c.colex_colors()[start : start + v]

    def test_k3_threshold(self):
        # Peeled stars of the smallest class (color 3) on top, then the
        # block of 4k+1 = 13 vertices joined to the rest in color 1.
        d = canonicalize([876, 876, 876], 73)
        c = construct_gk_general(d)
        verified(c, d.sizes)
        top = [set(self._row(c, v).tolist()) for v in range(60, 73)]
        assert top == [{3}] * 13
        assert set(self._row(c, 59)[:47].tolist()) == {1}

    def test_k4_threshold_skewed(self):
        # A class of one edge is smaller than any spanning star: nothing is
        # peeled, and its edge lies inside the block of the top 17 vertices.
        d = canonicalize([total_edges(129) - 3, 1, 1, 1], 129)
        c = construct_gk_general(d)
        verified(c, d.sizes)
        assert set(self._row(c, 128).tolist()) != {4}
        colors = c.colex_colors()
        assert (colors == 4).sum() == 1
        assert all((self._row(c, v)[:112] != 4).all() for v in range(112, 129))

    def test_k5_balanced_star_budget(self):
        # 200 + 199 + ... + 180 <= 4020 < 200 + ... + 179: exactly the top
        # 21 rows are peeled stars of color 5.
        d = canonicalize(balanced_sizes(201, 5), 201)
        c = construct_gk_general(d)
        verified(c, d.sizes)
        assert all(set(self._row(c, v).tolist()) == {5} for v in range(180, 201))
        assert set(self._row(c, 179).tolist()) != {5}

    def test_above_threshold_peels_first(self):
        # K_80 peels seven stars down to K_73; replay_peel puts them back on
        # top, each a one-color row.
        d = canonicalize(balanced_sizes(80, 3), 80)
        c = construct_gk_general(d)
        verified(c, d.sizes)
        assert all(len(set(self._row(c, v).tolist())) == 1 for v in range(73, 80))

    def test_below_threshold_rejected(self):
        with pytest.raises(PreconditionViolated):
            construct_gk_general(canonicalize(balanced_sizes(72, 3), 72))
        with pytest.raises(PreconditionViolated):
            construct_gk_general(canonicalize(balanced_sizes(10, 2), 10))

    def test_six_colors_recursion_chain(self):
        n = 8 * 36 + 1
        d = canonicalize(balanced_sizes(n, 6), n)
        verified(construct_gk_general(d), d.sizes)

    def test_rest_with_other_sizes_is_refused(self, monkeypatch):
        # The rest below the block is relabelled by class size; a coloring
        # of it with other sizes must raise, not be written in.
        monkeypatch.setattr(
            construct, "_construct_guaranteed", lambda d: Coloring(d.n, [1] * total_edges(d.n))
        )
        with pytest.raises(InternalScheduleError, match="does not match the residual sizes"):
            construct_gk_general(canonicalize(balanced_sizes(73, 3), 73))


class TestLowerBoundWitness:
    def test_values(self):
        assert lower_bound_witness(3) == (3, canonicalize([1, 1, 1], 3))
        assert lower_bound_witness(4) == (5, canonicalize([7, 1, 1, 1], 5))
        assert lower_bound_witness(5) == (7, canonicalize([17, 1, 1, 1, 1], 7))

    def test_rejects_small_k(self):
        with pytest.raises(PreconditionViolated):
            lower_bound_witness(2)


class TestMergeClasses:
    def test_pairwise_merge(self):
        c = construct_balanced(7, 4)
        merged = merge_classes(c, [(1, 2), (3, 4)])
        sizes = class_sizes(c).sizes
        assert sorted(class_sizes(merged).sizes) == sorted(
            [sizes[0] + sizes[1], sizes[2] + sizes[3]]
        )
        assert is_gallai(merged)

    def test_identity_grouping(self):
        c = construct_balanced(6, 3)
        assert merge_classes(c, [(1,), (2,), (3,)]) == c

    def test_balanced_merge_stays_balanced(self):
        c = construct_balanced(12, 6)
        merged = merge_classes(c, [(1, 6), (2, 5), (3, 4)])
        sizes = class_sizes(merged).sizes
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_partial_grouping(self):
        c = construct_balanced(6, 3)
        with pytest.raises(PreconditionViolated):
            merge_classes(c, [(1, 2)])

    @pytest.mark.parametrize("grouping", [[(1, 1), (2, 3)], [(1, 4), (2, 3)], [(0, 1), (2, 3)]])
    def test_rejects_bad_color_inside_a_part(self, grouping):
        c = construct_balanced(6, 3)
        with pytest.raises(PreconditionViolated, match="cover colors 1..3 exactly once"):
            merge_classes(c, grouping)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40)
    def test_merge_preserves_rainbow_freeness(self, seed):
        import random

        c, _ = random_gallai(8, seed, 5)
        rng = random.Random(seed)
        colors = list(range(1, c.k + 1))
        rng.shuffle(colors)
        split = max(1, len(colors) // 2)
        grouping = [tuple(colors[:split]), tuple(colors[split:])]
        grouping = [g for g in grouping if g]
        assert is_gallai(merge_classes(c, grouping))


class TestConstructAny:
    def test_base_with_no_witness_is_an_internal_error(self, monkeypatch, capsys):
        # At n = g(4) = 8 nothing is peeled, and the route with the table
        # must build the base.  Should it ever answer without a coloring,
        # the guard refuses, and the CLI says "unknown" (exit 3) rather than
        # "infeasible".
        from gallai.cli import main

        d = canonicalize([16, 4, 4, 4], 8)
        message = f"no coloring found for {d} (expected total)"
        real = construct._route

        def route(e, *args, **kwargs):
            return (NotConstructed("unknown"), 0) if e == d else real(e, *args, **kwargs)

        monkeypatch.setattr(construct, "_route", route)
        with pytest.raises(InternalScheduleError, match=re.escape(message)):
            construct_any(d)
        assert main(["construct", "--n", "8", "--dist", "16,4,4,4"]) == 3
        assert capsys.readouterr().err == f"internal error: {message}\n"

    def test_k3_base_region(self):
        c = construct_any(canonicalize([6, 2, 2], 5))
        assert isinstance(c, Coloring)
        verified(c, [6, 2, 2])

    def test_two_colors_any_split(self):
        c = construct_any(canonicalize([14, 1], 6))
        assert isinstance(c, Coloring)
        verified(c, [14, 1])

    def test_infeasible_instance(self):
        result = construct_any(canonicalize([9, 4, 4, 4], 7))
        assert isinstance(result, NotConstructed)
        assert result.reason == "fallback exhausted"

    def test_necessary_failure_detected_early(self):
        result = construct_any(canonicalize([2, 2, 2], 4))
        assert isinstance(result, NotConstructed)
        assert result.reason == "necessary-condition failure"

    def test_necessary_passes_but_still_infeasible(self):
        result = construct_any(canonicalize([7, 3, 2, 2, 1], 6))
        assert isinstance(result, NotConstructed)
        assert result.reason == "fallback exhausted"

    def test_star_search_over_budget_is_unknown(self, monkeypatch):
        # Above K_8 and outside every guaranteed region, star search alone
        # answers; running out of nodes leaves the request undecided.
        def over_budget(*args, **kwargs):
            raise BudgetExceeded("node budget exhausted")

        monkeypatch.setattr(construct, "star_partition_for", over_budget)
        result = construct_any(canonicalize([57, 38, 23, 20, 19, 12, 1, 1], 19))
        assert result == NotConstructed("unknown", "star partition search exceeded its budget")

    def test_special_gap_instance_succeeds_via_oracle(self):
        c = construct_any(canonicalize([8, 3, 3, 1], 6))
        assert isinstance(c, Coloring)
        verified(c, [8, 3, 3, 1])

    def test_guaranteed_region_k4(self):
        for n in (8, 9, 12):
            d = canonicalize(balanced_sizes(n, 4), n)
            c = construct_any(d)
            assert isinstance(c, Coloring)
            verified(c, d.sizes)

    def test_guaranteed_region_k5(self):
        d = canonicalize(balanced_sizes(201, 5), 201)
        c = construct_any(d)
        assert isinstance(c, Coloring)
        verified(c, d.sizes)

    def test_agreement_with_oracle_small(self):
        from gallai.oracle import partitions, search_realizable

        for n in range(2, 7):
            total = total_edges(n)
            for k in range(1, min(total, 6) + 1):
                for sizes in partitions(total, k):
                    d = canonicalize(sizes, n)
                    built = construct_any(d)
                    verdict = search_realizable(d)
                    if isinstance(built, Coloring):
                        assert verdict.is_feasible
                    else:
                        assert verdict.is_infeasible

    @staticmethod
    def _pinned_requests():
        yield (), 1  # K_1: no class at all
        yield (1,), 2
        for n in (5, 8, 20):  # two colors: the lexicographic fill
            for sizes in partitions(total_edges(n), 2):
                yield sizes, n
        # Every k-part distribution of K_3..K_8 with k >= 3: the K_5 and K_8
        # bases through star search and the table, (8,3,3,1)/K_6 through
        # the table, star search and the table below the thresholds, and
        # the necessary-condition and fallback-exhausted refusals.
        for n in range(3, 9):
            for k in range(3, n + 1):
                for sizes in partitions(total_edges(n), k):
                    yield sizes, n
        yield (5, 5, 5), 6  # peels to the two-color (5,5)/K_5
        yield (11, 5, 5), 7
        for n in (9, 12):
            yield balanced_sizes(n, 3), n
            yield balanced_sizes(n, 4), n
        for n in range(201, 216):  # the 8k^2+1 construction for k = 5
            yield balanced_sizes(n, 5), n
        yield (11153, 4900, 1683, 1638, 1129), 203
        for n in range(12, 41):  # best-effort star search
            yield balanced_sizes(n, 5), n
            yield balanced_sizes(n, 6), n
        yield (57, 38, 23, 20, 19, 12, 1, 1), 19  # unknown: n too large for the oracle

    def test_every_route_keeps_its_bytes(self):
        # The digest of every answer over a fixed list of requests that
        # takes each route of construct_any; a refactor of the routing must
        # leave it as it is.
        import hashlib

        from gallai.core import serialize

        h = hashlib.sha256()
        reasons = set()
        for sizes, n in self._pinned_requests():
            got = construct_any(canonicalize(sizes, n))
            if isinstance(got, NotConstructed):
                reasons.add(got.reason)
                text = repr(got)
            else:
                text = serialize(got)
            h.update(f"{n}:{sizes}\n{text}\n".encode())
        assert reasons == {"necessary-condition failure", "fallback exhausted", "unknown"}
        assert h.hexdigest() == "c2ebc2156d6d61505ec8e951770a8961a8af777bed736438d1d346d993687dab"


class TestWorkCounts:
    """Guards by counts, not time: certification and replay do not grow with n."""

    @staticmethod
    def _counted(monkeypatch, build):
        from gallai import verify

        calls = {"rainbow_witness": 0, "Coloring": 0}
        real_witness = verify.rainbow_witness
        real_init = Coloring.__init__

        def witness(c):
            calls["rainbow_witness"] += 1
            return real_witness(c)

        def init(self, *args, **kwargs):
            calls["Coloring"] += 1
            real_init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(verify, "rainbow_witness", witness)
            m.setattr(Coloring, "__init__", init)
            result = build()
        return result, calls

    def test_construct_any_certifies_once_per_call(self, monkeypatch):
        d205 = canonicalize(balanced_sizes(205, 5), 205)
        # Peeling d215 removes the stars 214..205 from its first class and
        # lands on d205, so both take the same path below K_205.
        d215 = canonicalize((d205.sizes[0] + sum(range(205, 215)),) + d205.sizes[1:], 215)
        counts = []
        for d in (d205, d215):
            construct_any(d)  # pays first-call costs, such as the oracle's table
            c, calls = self._counted(monkeypatch, lambda: construct_any(d))
            verified(c, d.sizes)
            counts.append(calls)
        assert [calls["rainbow_witness"] for calls in counts] == [1, 1]
        assert counts[0]["Coloring"] == counts[1]["Coloring"]

    def test_gk_certification_scans_the_block_not_all_of_k_n(self, monkeypatch):
        # This request peels two stars to the 8k^2+1 threshold, where a block
        # of 4k+1 = 21 vertices sits on top of a four-color part and joins it
        # in color 1.  A scan of every row below the last mixed one ran 194
        # rows; split at that prefix module, only the row of vertex 0 over
        # the block and the block itself are left to scan.
        from gallai import verify

        d = canonicalize([11153, 4900, 1683, 1638, 1129], 203)
        construct_any(d)  # pays first-call costs, such as the oracle's table
        sizes = []  # vertices each row pass or broadcast looked at

        real = verify._first_rainbow

        def scan(mat, lo, hi, t):  # a row pass (hi = lo + 1) or a broadcast (t = lo)
            sizes.append(len(mat) - t)
            return real(mat, lo, hi, t)

        with monkeypatch.context() as m:
            m.setattr(verify, "_first_rainbow", scan)
            c, calls = self._counted(monkeypatch, lambda: construct_any(d))
        assert calls["rainbow_witness"] == 1
        assert sizes and max(sizes) <= 21
        verified(c, d.sizes)

    def test_table_fallback_searches_and_certifies_once(self, monkeypatch):
        # No star partition realizes (8,3,3,1)/K_6, so the oracle's table answers.
        from gallai import verify

        d = canonicalize([8, 3, 3, 1], 6)
        assert star_partition_for(d) is None
        stars = []
        real_star = construct.star_partition_for

        def star(*args, **kwargs):
            stars.append(args)
            return real_star(*args, **kwargs)

        monkeypatch.setattr(construct, "star_partition_for", star)
        necessary = []
        real_necessary = verify.check_necessary

        def check(*args):
            necessary.append(args)
            return real_necessary(*args)

        monkeypatch.setattr(verify, "check_necessary", check)
        c, calls = self._counted(monkeypatch, lambda: construct_any(d))
        assert len(stars) == 1
        # The one route checks the necessary condition once, before star search.
        assert len(necessary) == 1
        assert calls["rainbow_witness"] == 1
        # The table witness the route returned.
        assert c == Coloring(6, [2, 2, 2, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 4])
        verified(c, d.sizes)

    @pytest.mark.parametrize("sizes, n, reason", [
        ((7, 3, 2, 2, 1), 6, "fallback exhausted"),  # the table refuses it
        ((2, 2, 2), 4, "necessary-condition failure"),  # the prefix bound refuses it
    ])
    def test_each_refusal_checks_the_necessary_condition_once(
        self, monkeypatch, sizes, n, reason
    ):
        from gallai import verify

        necessary = []
        real_necessary = verify.check_necessary

        def check(*args):
            necessary.append(args)
            return real_necessary(*args)

        monkeypatch.setattr(verify, "check_necessary", check)
        result = construct_any(canonicalize(sizes, n))
        assert isinstance(result, NotConstructed) and result.reason == reason
        assert len(necessary) == 1

    @pytest.mark.parametrize("n", [5, 6, 9, 30])
    def test_replay_builds_one_coloring(self, monkeypatch, n):
        d = canonicalize(balanced_sizes(n, 3), n)
        base, log = peel_reduction(d, 5)
        built = construct_any(base)
        assert isinstance(built, Coloring)
        c, calls = self._counted(monkeypatch, lambda: replay_peel(built, d, log))
        assert len(log) == n - 5
        assert calls["Coloring"] == 1
        verified(c, d.sizes)
