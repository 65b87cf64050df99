import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gallai.core import (
    Coloring,
    Distribution,
    DivisionParams,
    GallaiError,
    InvariantViolation,
    NonPositiveEntry,
    ParseError,
    PreconditionViolated,
    StarPartition,
    SumMismatch,
    Verdict,
    balanced_sizes,
    canonicalize,
    deserialize,
    deserialize_json,
    edge_index,
    serialize,
    serialize_json,
    star_partition,
    total_edges,
)
from gallai import core
from gallai.core import _lex_edges, _read_canonical, _read_lines, _text_bytes
from gallai.generator import random_gallai

from conftest import arbitrary_colorings, compact_colors, label_partitions
from test_fuzz import _mutate


class TestCanonicalize:
    def test_sorts_non_increasing(self):
        d = canonicalize([1, 2, 7], 5)
        assert d.sizes == (7, 2, 1)
        assert d.n == 5 and d.k == 3

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch) as exc:
            canonicalize([4, 4, 4], 4)
        assert exc.value.expected == 6 and exc.value.got == 12

    def test_nonpositive_entry(self):
        with pytest.raises(NonPositiveEntry):
            canonicalize([10, 0], 5)

    def test_unrealizable_distribution_still_exists(self):
        # A distribution is just a multiset; realizability is a separate question.
        d = canonicalize([9, 4, 4, 4], 7)
        assert d.sizes == (9, 4, 4, 4)

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(InvariantViolation):
            Distribution((1, 2, 7), 5)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8), st.randoms())
    def test_idempotent_and_permutation_invariant(self, sizes, rnd):
        total = sum(sizes)
        n = next(m for m in range(2, 200) if total_edges(m) >= total)
        if total_edges(n) != total:
            sizes = sizes + [total_edges(n) - total]
        d1 = canonicalize(sizes, n)
        shuffled = list(sizes)
        rnd.shuffle(shuffled)
        d2 = canonicalize(shuffled, n)
        assert d1 == d2
        assert canonicalize(d1.sizes, n) == d1


class TestColoring:
    def test_edge_index_is_colex(self):
        seen = sorted(edge_index(u, v) for v in range(6) for u in range(v))
        assert seen == list(range(total_edges(6)))
        assert edge_index(0, 1) == 0
        assert edge_index(3, 1) == edge_index(1, 3)

    def test_counts_and_lookup(self):
        c = Coloring(3, (1, 1, 2))
        assert c.k == 2 and c.counts == (2, 1)
        assert c.edge_color(1, 2) == 2

    def test_phantom_color_rejected(self):
        with pytest.raises(InvariantViolation):
            Coloring(3, (1, 1, 3))

    def test_wrong_length_rejected(self):
        with pytest.raises(InvariantViolation):
            Coloring(4, (1, 1, 1))

    def test_from_edges_requires_totality(self):
        with pytest.raises(InvariantViolation):
            Coloring.from_edges(3, [(0, 1, 1), (0, 2, 1)])
        with pytest.raises(InvariantViolation):
            Coloring.from_edges(3, [(0, 1, 1), (0, 1, 1), (1, 2, 1)])

    def test_single_vertex(self):
        c = Coloring(1, ())
        assert c.k == 0 and c.counts == ()

    def test_colors_are_read_only(self):
        c = Coloring(3, (1, 1, 2))
        assert c.colex_colors().dtype == np.int32
        with pytest.raises(ValueError):
            c.colex_colors()[0] = 2

    def test_source_array_is_copied(self):
        src = np.array([1, 1, 2], dtype=np.int32)
        c = Coloring(3, src)
        src[0] = 2
        assert c.colex_colors().tolist() == [1, 1, 2] and c.counts == (2, 1)

    def test_copies_stay_read_only(self):
        c = Coloring(3, (1, 1, 2))
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert twin == c and hash(twin) == hash(c)
            with pytest.raises(ValueError):
                twin.colex_colors()[0] = 2

    def test_equal_from_any_source(self):
        colors = (1, 2, 2, 1, 3, 3)
        made = [
            Coloring(4, colors),
            Coloring(4, list(colors)),
            Coloring(4, (col for col in colors)),
            Coloring(4, np.array(colors, dtype=np.int32)),
            Coloring(4, np.array(colors, dtype=np.int64)),
        ]
        assert all(c == made[0] and hash(c) == hash(made[0]) for c in made)
        assert Coloring(4, (1, 2, 2, 1, 3, 1)) != made[0]

    def test_values_are_python_ints(self):
        # numpy scalars would print as np.int32(...) in messages and reprs.
        c = Coloring(4, np.array([1, 2, 2, 1, 3, 3], dtype=np.int64))
        assert all(type(x) is int for x in c.counts)
        assert type(c.edge_color(0, 3)) is int and type(c.k) is int
        assert all(type(x) is int for edge in c.edges() for x in edge)

    def test_huge_color_is_refused_before_counting(self):
        with pytest.raises(InvariantViolation, match="need at least"):
            Coloring(2, [10**12])


class TestStarPartition:
    def test_valid(self):
        sp = star_partition(5, [(4, 3), (2,), (1,)])
        assert sp.group_sums() == (7, 2, 1)

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(InvariantViolation):
            star_partition(5, [(4, 3), (3,), (1,)])
        with pytest.raises(InvariantViolation):
            star_partition(5, [(4, 3), (1,)])
        with pytest.raises(InvariantViolation):
            star_partition(5, [(4, 3), (), (2, 1)])

    @given(label_partitions())
    def test_group_sums_cover_all_edges(self, data):
        # The stars with centers 1..n-1 partition the edge set of K_n.
        n, groups = data
        sp = star_partition(n, groups)
        assert sum(sp.group_sums()) == total_edges(n)


class TestParams:
    def test_division_params_validation(self):
        with pytest.raises(PreconditionViolated):
            DivisionParams(n=5, k=2, p=3, q=4)  # p < n-1
        with pytest.raises(PreconditionViolated):
            DivisionParams(n=5, k=2, p=4, q=1)  # sum mismatch
        with pytest.raises(PreconditionViolated, match="p >= 1 when k >= 1"):
            DivisionParams(n=1, k=2, p=0, q=0)  # k empty classes on K_1

    def test_verdict_validation(self):
        with pytest.raises(InvariantViolation):
            Verdict("feasible", None, 0)
        with pytest.raises(InvariantViolation):
            Verdict("maybe", None, 0)

    def test_balanced_sizes(self):
        assert balanced_sizes(6, 3) == (5, 5, 5)
        assert balanced_sizes(5, 3) == (4, 3, 3)


class TestSerialization:
    def test_monochromatic_triangle_text(self):
        c = Coloring(3, (1, 1, 1))
        assert serialize(c) == "3 1\n0 1 1\n0 2 1\n1 2 1\n"

    def test_text_round_trip_examples(self):
        c = Coloring(4, (1, 2, 2, 1, 3, 3))
        assert deserialize(serialize(c)) == c
        text = serialize(c)
        assert serialize(deserialize(text)) == text

    @given(arbitrary_colorings())
    def test_text_round_trip(self, c):
        assert deserialize(serialize(c)) == c

    @given(arbitrary_colorings())
    def test_json_round_trip(self, c):
        assert deserialize_json(serialize_json(c)) == c
        text = serialize_json(c)
        assert serialize_json(deserialize_json(text)) == text

    def test_missing_edge_is_parse_error(self):
        text = "3 1\n0 1 1\n0 2 1\n"
        with pytest.raises(ParseError):
            deserialize(text)

    def test_out_of_order_edge(self):
        text = "3 1\n0 2 1\n0 1 1\n1 2 1\n"
        with pytest.raises(InvariantViolation):
            deserialize(text)

    def test_color_out_of_range(self):
        text = "3 2\n0 1 1\n0 2 3\n1 2 2\n"
        with pytest.raises(InvariantViolation):
            deserialize(text)

    def test_garbage_line_reports_line_number(self):
        text = "3 1\n0 1 1\nnope\n1 2 1\n"
        with pytest.raises(ParseError) as exc:
            deserialize(text)
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(ParseError):
            deserialize("banana\n")

    def test_huge_header_without_edges_fails_at_once(self):
        # The entry count is checked against n(n-1)/2 before anything is
        # allocated; building the edge list first would ask for ~5*10^9 slots.
        serialize(_k_colored(20, 3, 0))
        kept = core._TEXT_SLOT
        with pytest.raises(InvariantViolation) as exc:
            deserialize("100000 1\n")
        assert exc.value.line == 1
        # The text length is checked before a skeleton of K_100000 is built.
        assert core._TEXT_SLOT is kept
        with pytest.raises(InvariantViolation):
            deserialize_json('{"n": 100000, "k": 1, "edges": []}')

    def test_huge_declared_k_fails_at_once(self):
        # k colors cannot all occur on fewer than k edges; the header is
        # refused before a count array of k + 1 slots could be built.
        k = 10**12
        with pytest.raises(InvariantViolation) as exc:
            deserialize(f"2 {k}\n0 1 {k}\n")
        assert exc.value.line == 1
        with pytest.raises(InvariantViolation) as exc:
            deserialize_json(json.dumps({"n": 2, "k": k, "edges": [[0, 1, k]]}))
        assert exc.value.line is None

    def test_json_that_is_not_an_object(self):
        for text in ("5", "null", '"n k edges"', "[1]"):
            with pytest.raises(ParseError):
                deserialize_json(text)

    def test_json_structure(self):
        c = Coloring(3, (1, 1, 2))
        payload = json.loads(serialize_json(c))
        assert payload["n"] == 3 and payload["k"] == 2
        assert payload["edges"][0] == [0, 1, 1]


def _fstring_serialize(c: Coloring) -> str:
    """The text writer before vectorization: one f-string per edge."""
    arr = c.colex_colors()
    lines = [f"{c.n} {c.k}"]
    lines.extend(
        f"{u} {v} {arr[v * (v - 1) // 2 + u]}" for u in range(c.n) for v in range(u + 1, c.n)
    )
    return "\n".join(lines) + "\n"


def _outcome(read, text: str):
    """What a reader makes of ``text``: the coloring, or the error it raises."""
    try:
        return read(text)
    except GallaiError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# Spellings the line-by-line reader accepts that serialize never writes.
NON_CANONICAL = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "repeated spaces": lambda t: t.replace(" ", "   "),
    "leading zeros": lambda t: re.sub(r"\b(\d)", r"0\1", t),
    "plus signs": lambda t: re.sub(r"\b(\d)", r"+\1", t),
    "no final LF": lambda t: t[:-1],
    "padded lines": lambda t: t.replace("\n", " \n"),
}


def _k_colored(n: int, k: int, seed: int) -> Coloring:
    """A coloring of K_n (not necessarily rainbow-free) using all of 1..k."""
    colors = np.arange(total_edges(n)) % k + 1
    np.random.default_rng(seed).shuffle(colors)
    return Coloring(n, colors)


def _set_line(i: int, edit):
    """A text mutation that rewrites line i (the header is line 0)."""
    def mutate(text: str, k: int) -> str:
        lines = text.split("\n")
        lines[i] = edit(lines[i], k)
        return "\n".join(lines)
    return mutate


def _join_lines(text: str, k: int) -> str:
    """Lines 200 and 201 joined by a space in place of the LF."""
    lines = text.split("\n")
    lines[200:202] = [lines[200] + " " + lines[201]]
    return "\n".join(lines)


# Mutations that keep the length of a text of K_30 with one-digit colors, so
# the reader reads it at the layout's offsets; line 200 is an edge line.
SAME_LENGTH = {
    "vertex digit": _set_line(200, lambda ln, k: ln[:-3] + str(int(ln[-3]) ^ 1) + ln[-2:]),
    "first vertex digit": _set_line(1, lambda ln, k: "1" + ln[1:]),
    "color 0": _set_line(200, lambda ln, k: ln[:-1] + "0"),
    "color above k": _set_line(200, lambda ln, k: ln[:-1] + str(k + 1)),
    "color letter": _set_line(200, lambda ln, k: ln[:-1] + "x"),
    "color space": _set_line(200, lambda ln, k: ln[:-1] + " "),
    "header k up": _set_line(0, lambda ln, k: ln[:-1] + str(k + 1)),
    "header k down": _set_line(0, lambda ln, k: ln[:-1] + str(k - 1)),
    "header k zero": _set_line(0, lambda ln, k: ln[:-1] + "0"),
    "header n": _set_line(0, lambda ln, k: "31" + ln[2:]),
    "tab": _set_line(200, lambda ln, k: ln.replace(" ", "\t", 1)),
    "LF to space": _join_lines,
}


class TestVectorizedText:
    """``deserialize`` against ``_read_lines``, and ``serialize`` against the
    per-edge writer, which stay the references for the vectorized paths."""

    @pytest.mark.parametrize("mutation", sorted(SAME_LENGTH))
    @pytest.mark.parametrize("k", [2, 5])
    def test_kept_layout_refuses_what_the_line_reader_refuses(self, mutation, k):
        c = _k_colored(30, k, seed=k)
        text = serialize(c)
        assert core._TEXT_SLOT[1].n == 30
        assert deserialize(text) == c
        mutated = SAME_LENGTH[mutation](text, k)
        assert len(mutated) == len(text) and mutated != text
        assert _outcome(deserialize, mutated) == _outcome(_read_lines, mutated)
        # The kept layout still reads its own K_n afterwards.
        assert deserialize(text) == c

    @pytest.mark.parametrize("mutation", sorted(SAME_LENGTH))
    def test_smaller_text_refuses_what_the_line_reader_refuses(self, mutation):
        # The layout of K_30 over a skeleton larger than the one K_30 alone
        # would build.
        serialize(_k_colored(130, 4, seed=1))
        skeleton = core._TEXT_SLOT[0]
        assert skeleton.size > core._SKELETON_STEP
        c = _k_colored(30, 5, seed=2)
        text = serialize(c)
        assert core._TEXT_SLOT[0] is skeleton
        mutated = SAME_LENGTH[mutation](text, 5)
        assert _outcome(deserialize, mutated) == _outcome(_read_lines, mutated)
        assert deserialize(text) == c
        assert core._TEXT_SLOT[0] is skeleton

    def test_round_trip_across_sizes_and_color_widths(self):
        steps = [(20, 9), (20, 10), (20, 9), (45, 3), (20, 1), (20, 12), (45, 9),
                 (45, 9), (20, 9), (45, 10), (45, 2)]
        for seed, (n, k) in enumerate(steps):
            c = _k_colored(n, k, seed)
            text = serialize(c)
            assert text == _fstring_serialize(c)
            assert deserialize(text) == c
            assert deserialize(text) == c

    def test_kept_layout_needs_no_rebuild(self, monkeypatch):
        first, second = _k_colored(33, 7, 0), _k_colored(33, 4, 1)
        other = serialize(second)
        text = serialize(first)

        def rebuild(*args):
            raise AssertionError("the text was rebuilt")

        for name in ("_text_bytes", "_build_skeleton", "_layout", "_lex_order"):
            monkeypatch.setattr(core, name, rebuild)
        assert deserialize(text) == first
        # A text of the same K_n that is not the kept one reuses it too.
        assert deserialize(other) == second
        # So does a write of that K_n.
        assert serialize(second) == other

    def test_refused_text_is_not_kept(self, monkeypatch):
        text = serialize(_k_colored(25, 3, 0))
        monkeypatch.setattr(core, "_TEXT_SLOT", None)
        # The right layout, but k = 4 is not the largest color in use.
        with pytest.raises(InvariantViolation):
            deserialize(text.replace("25 3", "25 4", 1))
        assert core._TEXT_SLOT is None
        # A refused text of a larger K_n leaves the smaller skeleton kept.
        text = serialize(_k_colored(150, 3, 0))
        monkeypatch.setattr(core, "_TEXT_SLOT", None)
        kept = core._text_slot(25)
        assert kept[0].size < 150
        monkeypatch.setattr(core, "_TEXT_SLOT", kept)
        with pytest.raises(InvariantViolation):
            deserialize(text.replace("150 3", "150 4", 1))
        assert core._TEXT_SLOT is kept

    def test_rebuild_points_in_both_directions(self, monkeypatch):
        monkeypatch.setattr(core, "_TEXT_SLOT", None)
        step = core._SKELETON_STEP
        sizes = [20, 63, 64, 65, step - 1, step, step + 1, 2 * step, 2 * step + 1]
        size = seed = 0
        for n in sizes + sizes[::-1]:
            for k in (1, 9, 10, 12):
                seed += 1
                c = _k_colored(n, k, seed)
                text = serialize(c)
                assert text == _fstring_serialize(c)
                assert deserialize(text) == c
                if k <= 9:
                    # Built for the next multiple of the step above the
                    # largest K_n so far, never smaller.
                    size = max(size, -(-n // step) * step)
                    assert (core._TEXT_SLOT[0].size, core._TEXT_SLOT[1].n) == (size, n)
        assert size == 3 * step

    def test_int64_offsets_give_the_same_text(self, monkeypatch):
        # Texts of 2^31 bytes or more, from K_18328 up, are laid out in int64.
        monkeypatch.setattr(core, "_TEXT_SLOT", None)
        monkeypatch.setattr(core, "_INT32_TEXT", 0)
        c = _k_colored(120, 6, 3)
        text = serialize(c)
        assert core._TEXT_SLOT[0].colex_start.dtype == np.int64
        assert text == _fstring_serialize(c)
        assert deserialize(text) == c
        assert core._text_length(18327, 1) < 2**31 <= core._text_length(18328, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 300])
    def test_writer_is_byte_identical(self, n):
        for seed, max_colors in ((0, 5), (1, 12)):
            c = random_gallai(n, seed, max_colors)[0]
            assert serialize(c) == _fstring_serialize(c)
            # The vectorized writer at every size, not only where serialize uses it.
            assert _text_bytes(n, c.k, *_lex_edges(c)).decode("ascii") == serialize(c)
            edges = [[u, v, c.edge_color(u, v)] for u in range(n) for v in range(u + 1, n)]
            assert serialize_json(c) == json.dumps(
                {"n": n, "k": c.k, "edges": edges}, separators=(",", ":")
            )

    @given(st.integers(1, 40), st.integers(1, 12), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_mutated_text_matches_line_reader(self, n, max_colors, rnd):
        raw = [rnd.randint(1, max_colors) for _ in range(total_edges(n))]
        c = Coloring(n, compact_colors(raw))
        text = serialize(c)
        assert _read_canonical(text) == c
        mutated = _mutate(text, rnd)
        assert _outcome(deserialize, mutated) == _outcome(_read_lines, mutated)

    @pytest.mark.parametrize("spelling", sorted(NON_CANONICAL))
    def test_non_canonical_spellings_take_the_line_reader(self, spelling):
        for n, seed in ((1, 0), (2, 0), (12, 3)):
            c = random_gallai(n, seed, 12)[0]
            text = NON_CANONICAL[spelling](serialize(c))
            if text == serialize(c):
                continue
            assert _read_canonical(text) is None
            assert deserialize(text) == c == _read_lines(text)

    @pytest.mark.parametrize("text", [
        "3 3\n0 1 1\n0 2 1\n1 2 2\n",  # declared k above the colors in use
        "3 3\n0 1 1\n0 2 3\n1 2 3\n",  # phantom color
        "3 2\n0 1 1\n0 2 3\n1 2 2\n",  # color out of range
        "3 1\n0 1 1\n0 2 1\n1 3 1\n",  # wrong vertex
        "1 0\n",
        "1 -1\n",
        "0 0\n",
        "3 0\n0 1 0\n0 2 0\n1 2 0\n",
        "2 1\n0 1 1\n\n",
        "2 10\n0 1 10\n",
        "\n",
        "",
    ])
    def test_edge_cases_match_line_reader(self, text):
        assert _outcome(deserialize, text) == _outcome(_read_lines, text)


def test_public_names_resolve_once():
    import gallai

    assert len(gallai.__all__) == len(set(gallai.__all__))
    missing = [name for name in gallai.__all__ if not hasattr(gallai, name)]
    assert missing == []
