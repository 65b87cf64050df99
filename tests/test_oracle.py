import pytest

from gallai.core import canonicalize, total_edges
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

    def test_deterministic_tags(self):
        d = canonicalize([7, 3, 2, 2, 1], 6)
        v1 = search_realizable(d)
        v2 = search_realizable(d)
        assert v1.tag == v2.tag and v1.nodes_explored == v2.nodes_explored

    def test_parallel_matches_sequential(self):
        d = canonicalize([7, 3, 2, 2, 1], 6)
        assert search_realizable(d, jobs=2).tag == search_realizable(d).tag
        d = canonicalize([8, 3, 3, 1], 6)
        par = search_realizable(d, jobs=2)
        assert par.tag == "feasible"
        assert par.witness is not None and is_gallai(par.witness)

    def test_trivial_sizes(self):
        v = search_realizable(canonicalize([1], 2))
        assert v.is_feasible
        v = search_realizable(canonicalize([], 1))
        assert v.is_feasible

    def test_verdict_serialization(self):
        v = search_realizable(canonicalize([3], 3))
        payload = v.to_json_dict()
        assert payload["tag"] == "feasible" and "witness" in payload


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
        with pytest.raises(ValueError):
            compute_g(2, 10)


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


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWitnessCheck:
    # (8,3,3,1) on K_6 has no special coloring, so the backtracker answers it.
    D = canonicalize([8, 3, 3, 1], 6)
    # Triangle {0,1,2} is rainbow; the class sizes are still (8,3,3,1).
    RAINBOW = (1, 2, 3) + (1,) * 7 + (2, 2, 3, 3, 4)
    # Rainbow-free (one color) but with the wrong class sizes.
    WRONG_SIZES = (1,) * 15

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("colors", [RAINBOW, WRONG_SIZES])
    def test_bad_backtrack_witness_is_refused(self, monkeypatch, jobs, colors):
        from gallai import oracle
        from gallai.core import Coloring, InternalScheduleError

        assert class_sizes(Coloring(6, self.RAINBOW)) == self.D
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(oracle, "_backtrack", lambda *args: ("feasible", colors, 1))
        with pytest.raises(InternalScheduleError):
            search_realizable(self.D, jobs=jobs)
