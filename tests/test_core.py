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
    GallaiPartition,
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
from gallai.core import _read_canonical, _read_lines, _text_bytes
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

    @pytest.mark.parametrize("colors", [(1, 0, 2), (2, 1, -3)])
    def test_color_below_one_rejected(self, colors):
        with pytest.raises(InvariantViolation) as exc:
            Coloring(3, colors)
        assert str(exc.value) == f"color ids must be >= 1, got {min(colors)}"

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

    def test_loop_is_not_an_edge(self):
        with pytest.raises(ValueError, match=re.escape("not an edge: (2, 2)")):
            edge_index(2, 2)

    def test_no_vertices_refused(self):
        with pytest.raises(InvariantViolation, match="vertex count must be >= 1, got 0"):
            Coloring(0, ())
        with pytest.raises(InvariantViolation, match="vertex count must be >= 1, got 0"):
            Distribution((), 0)

    def test_from_edges_refuses_a_vertex_outside(self):
        with pytest.raises(InvariantViolation, match=re.escape("bad edge (0, 3) for K_3")):
            Coloring.from_edges(3, [(0, 1, 1), (0, 3, 1), (1, 2, 1)])

    def test_from_edges_refuses_a_duplicate_of_a_color_0_edge(self):
        # Filled slots are marked apart from their color, so a first copy in
        # color 0 is still seen.
        with pytest.raises(InvariantViolation, match=re.escape("duplicate edge (0, 1)")):
            Coloring.from_edges(2, [(0, 1, 0), (0, 1, 1)])

    def test_from_edges_passes_color_0_to_the_color_check(self):
        with pytest.raises(InvariantViolation, match="color ids must be >= 1, got 0"):
            Coloring.from_edges(2, [(0, 1, 0)])

    @pytest.mark.parametrize(
        "colors", [[1.5, 1, 2], ["1", "1", "2"], np.array([1.0, 1.0, 2.0]), [True, True, True]]
    )
    def test_non_integer_colors_refused(self, colors):
        # Converted to int64, the first two read as colors (1, 1, 2); the
        # float array stopped in np.bincount with a bare TypeError.
        with pytest.raises(InvariantViolation, match="color ids must be integers"):
            Coloring(3, colors)


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
        with pytest.raises(InvariantViolation, match="label 5 out of range for K_4"):
            star_partition(4, [[1, 2], [5]])

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
        with pytest.raises(PreconditionViolated, match="p >= 1 when k >= 1"):
            DivisionParams(1, 1, 0, 0)

    def test_gallai_partition_validation(self):
        with pytest.raises(InvariantViolation, match="at least 2 blocks"):
            GallaiPartition(((0, 1),), frozenset(), ())
        with pytest.raises(InvariantViolation, match="more than two cross colors"):
            GallaiPartition(((0,), (1,), (2,), (3,)), frozenset({1, 2, 3}), ())

    def test_verdict_validation(self):
        with pytest.raises(InvariantViolation):
            Verdict("feasible", None, 0)
        with pytest.raises(InvariantViolation):
            Verdict("maybe", None, 0)
        with pytest.raises(InvariantViolation, match="only feasible verdicts carry a witness"):
            Verdict("infeasible", Coloring(3, (1, 1, 1)), 0)

    def test_balanced_sizes(self):
        assert balanced_sizes(6, 3) == (5, 5, 5)
        assert balanced_sizes(5, 3) == (4, 3, 3)
        with pytest.raises(PreconditionViolated, match="k must be positive"):
            balanced_sizes(5, 0)


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

    def test_non_numeric_header(self):
        with pytest.raises(ParseError) as exc:
            deserialize("2 x\n0 1 1\n")
        assert str(exc.value) == "line 1: non-numeric header '2 x'"

    def test_non_ascii_text_takes_the_line_reader(self):
        # The header n spelled in Arabic-Indic digits: the text has the
        # canonical length, but the skeleton reader reads ASCII only.
        text = "\u0663\u0660" + serialize(_k_colored(30, 5, 0))[2:]
        assert len(text) == core._text_length(30, 5)
        assert _read_canonical(text) is None
        assert _outcome(deserialize, text) == _outcome(_read_lines, text)
        bad = text.replace("\n0 1 ", "\n0 \u00e9 ", 1)
        assert _outcome(deserialize, bad) == _outcome(_read_lines, bad)
        # The line reader refuses the header before it reaches line 2.
        assert _outcome(deserialize, bad)[2] == 1

    @pytest.mark.parametrize("text, line", [
        ("3 1\n0 1 1\n0 2 1\n1 2 0_1\n", 4),  # int() takes "_" between digits
        ("\u0663 1\n0 1 1\n0 2 1\n1 2 1\n", 1),  # Arabic-Indic 3
        ("3 1\n0 1 1\n0 2 1\n1 2 \uff11\n", 4),  # fullwidth 1
    ])
    def test_numbers_are_ascii_decimal(self, text, line):
        raw = text.split("\n")[line - 1]
        what = "header" if line == 1 else "edge line"
        with pytest.raises(ParseError) as exc:
            deserialize(text)
        assert str(exc.value) == f"line {line}: non-numeric {what} {raw!r}"
        assert exc.value.line == line

    @pytest.mark.parametrize("space", ["\u00a0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2003"])
    def test_only_spaces_and_tabs_separate_tokens(self, space):
        # str.split() also splits at these, so each text here read as K_3.
        texts = {
            f"3 1\n0 1 1\n0 2 1\n1{space}2 1\n": (4, "expected 'u v c', got"),
            f"3 1\n0 1 1\n0 2 1\n1 2 1{space}\n": (4, "non-numeric edge line"),
            f"3{space}1\n0 1 1\n0 2 1\n1 2 1\n": (1, "expected header 'n k', got"),
            f"{space}3 1\n0 1 1\n0 2 1\n1 2 1\n": (1, "non-numeric header"),
        }
        for text, (line, what) in texts.items():
            raw = text.split("\n")[line - 1]
            with pytest.raises(ParseError) as exc:
                deserialize(text)
            assert str(exc.value) == f"line {line}: {what} {raw!r}"
            assert exc.value.line == line

    def test_number_too_long_for_int_is_refused_at_its_line(self):
        # int() refuses more than sys.get_int_max_str_digits() digits (4,300
        # by default) where the interpreter has that limit; elsewhere the
        # color is out of range.  Either way the error is at line 4.
        text = "3 1\n0 1 1\n0 2 1\n1 2 " + "1" * 5000 + "\n"
        with pytest.raises(ParseError) as exc:
            deserialize(text)
        assert exc.value.line == 4

    def test_huge_header_without_edges_fails_at_once(self):
        # The entry count is checked against n(n-1)/2 before anything is
        # allocated; building the edge list first would ask for ~5*10^9 slots.
        serialize(_k_colored(20, 3, 0))
        kept = core._TEXT_SLOTS[1]
        with pytest.raises(InvariantViolation) as exc:
            deserialize("100000 1\n")
        assert exc.value.line == 1
        # The text length is checked before a skeleton of K_100000 is built.
        assert core._TEXT_SLOTS[1] is kept
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

    @pytest.mark.parametrize("payload, message", [
        ({"n": 0, "k": 1, "edges": []}, "bad vertex count 0"),
        ({"n": "3", "k": 1, "edges": []}, "bad vertex count '3'"),
        ({"n": True, "k": 1, "edges": []}, "bad vertex count True"),
        ({"n": 2, "k": -1, "edges": []}, "bad color count -1"),
        ({"n": 2, "k": 1.0, "edges": []}, "bad color count 1.0"),
        ({"n": 2, "k": False, "edges": []}, "bad color count False"),
        ({"n": 2, "k": 1, "edges": {"0": [0, 1, 1]}}, "expected 1 edge entries"),
        ({"n": 2, "k": 1, "edges": "0 1 1"}, "expected 1 edge entries"),
    ])
    def test_json_bad_fields(self, payload, message):
        with pytest.raises(InvariantViolation) as exc:
            deserialize_json(json.dumps(payload))
        assert str(exc.value) == message and exc.value.line is None

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


def _no_rebuild(*args):
    raise AssertionError("the text was laid out again")


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
        assert core._TEXT_SLOTS[1][1].n == 30
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
        skeleton = core._TEXT_SLOTS[1][0]
        assert skeleton.size > core._SKELETON_STEP
        c = _k_colored(30, 5, seed=2)
        text = serialize(c)
        assert core._TEXT_SLOTS[1][0] is skeleton
        mutated = SAME_LENGTH[mutation](text, 5)
        assert _outcome(deserialize, mutated) == _outcome(_read_lines, mutated)
        assert deserialize(text) == c
        assert core._TEXT_SLOTS[1][0] is skeleton

    def test_round_trip_across_sizes_and_color_widths(self, monkeypatch):
        # Kept skeletons of both widths large enough for every step, so that
        # no step builds one.
        monkeypatch.setattr(core, "_TEXT_SLOTS", {w: core._text_slot(45, w) for w in (1, 2)})
        lines, builds = [], []
        monkeypatch.setattr(core, "_read_lines", lambda text: lines.append(text) or _read_lines(text))
        monkeypatch.setattr(core, "_build_skeleton", lambda *args: builds.append(args))
        steps = [(20, 9), (2, 1), (20, 10), (19, 9), (20, 9), (45, 3), (3, 3), (20, 1), (1, 0),
                 (19, 10), (20, 12), (45, 9), (45, 9), (2, 1), (20, 9), (45, 10), (1, 0),
                 (5, 4), (45, 2), (5, 10), (45, 12)]
        for seed, (n, k) in enumerate(steps):
            c = _k_colored(n, k, seed)
            narrow = core._TEXT_SLOTS[1]
            text = serialize(c)
            assert text == _fstring_serialize(c)
            # Every K_n, n >= 2, is written over the kept skeleton whose
            # color slots are as wide as k, which keeps the layout of K_n;
            # K_1 is its header alone.  A write with 10 colors or more
            # leaves the one-digit pair as it was.
            if n >= 2:
                assert core._TEXT_SLOTS[len(str(k))][1].n == n
            if n == 1 or k >= 10:
                assert core._TEXT_SLOTS[1] is narrow
            assert deserialize(text) == c
            assert deserialize(text) == c
            # Only texts with at most 9 colors are read over the skeleton.
            if n >= 2 and k <= 9:
                assert not lines and core._TEXT_SLOTS[1][1].n == n
            else:
                assert lines == [text, text] and core._TEXT_SLOTS[1] is narrow
                lines.clear()
        assert not builds

    def test_kept_layout_needs_no_rebuild(self, monkeypatch):
        first, second = _k_colored(33, 7, 0), _k_colored(33, 4, 1)
        other = serialize(second)
        text = serialize(first)
        for name in ("_text_bytes", "_build_skeleton", "_layout", "_lex_order"):
            monkeypatch.setattr(core, name, _no_rebuild)
        assert deserialize(text) == first
        # A text of the same K_n that is not the kept one reuses it too.
        assert deserialize(other) == second
        # So does a write of that K_n.
        assert serialize(second) == other

    def test_refused_text_is_not_kept(self, monkeypatch):
        text = serialize(_k_colored(25, 3, 0))
        monkeypatch.setattr(core, "_TEXT_SLOTS", {})
        # The right layout, but k = 4 is not the largest color in use.
        with pytest.raises(InvariantViolation):
            deserialize(text.replace("25 3", "25 4", 1))
        assert core._TEXT_SLOTS == {}
        # A refused text of a larger K_n leaves the smaller skeleton kept.
        text = serialize(_k_colored(150, 3, 0))
        monkeypatch.setattr(core, "_TEXT_SLOTS", {})
        kept = core._text_slot(25, 1)
        assert kept[0].size < 150
        monkeypatch.setattr(core, "_TEXT_SLOTS", {1: kept})
        with pytest.raises(InvariantViolation):
            deserialize(text.replace("150 3", "150 4", 1))
        assert core._TEXT_SLOTS == {1: kept}

    def test_rebuild_points_in_both_directions(self, monkeypatch):
        monkeypatch.setattr(core, "_TEXT_SLOTS", {})
        step = core._SKELETON_STEP
        sizes = [20, 63, 64, 65, step - 1, step, step + 1, 2 * step, 2 * step + 1]
        size, seed = {1: 0, 2: 0}, 0
        for n in sizes + sizes[::-1]:
            for k in (1, 9, 10, 12):
                seed += 1
                c = _k_colored(n, k, seed)
                text = serialize(c)
                assert text == _fstring_serialize(c)
                assert deserialize(text) == c
                # The skeleton of each color width is built for the next
                # multiple of the step above the largest K_n written with
                # such colors so far, never smaller.
                width = len(str(k))
                size[width] = max(size[width], -(-n // step) * step)
                skeleton, layout = core._TEXT_SLOTS[width]
                assert (skeleton.size, skeleton.width, layout.n) == (size[width], width, n)
        assert size == {1: 3 * step, 2: 3 * step}

    def test_int64_offsets_give_the_same_text(self, monkeypatch):
        # Texts of 2^31 bytes or more, from K_18328 up, are laid out in int64.
        monkeypatch.setattr(core, "_TEXT_SLOTS", {})
        monkeypatch.setattr(core, "_INT32_TEXT", 0)
        for k in (6, 10, 101):
            c = _k_colored(120, k, 3)
            text = serialize(c)
            assert core._TEXT_SLOTS[len(str(k))][0].colex_start.dtype == np.int64
            assert text == _fstring_serialize(c)
            assert deserialize(text) == c
        assert core._text_length(18327, 1) < 2**31 <= core._text_length(18328, 1)

    @pytest.mark.parametrize("n, k", [
        (20, 9), (20, 10), (20, 99), (20, 100), (20, 101),
        (5, 10), (14, 91), (15, 105),  # every edge in a color of its own
        (127, 10), (128, 10), (129, 10), (257, 10),
        (127, 101), (128, 101), (129, 101), (257, 101),
    ])
    def test_wide_writer_at_width_boundaries(self, n, k):
        c = _k_colored(n, k, seed=n + k)
        text = serialize(c)
        assert text == _fstring_serialize(c)
        skeleton, layout = core._TEXT_SLOTS[len(str(k))]
        assert (skeleton.width, layout.n) == (len(str(k)), n)
        assert deserialize(text) == c

    @given(st.integers(2, 40), st.integers(1, 150), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_fstrings_up_to_150_colors(self, n, max_colors, rnd):
        raw = [rnd.randint(1, max_colors) for _ in range(total_edges(n))]
        c = Coloring(n, compact_colors(raw))
        text = serialize(c)
        assert text == _fstring_serialize(c)
        assert deserialize(text) == c

    def test_alternating_widths_rebuild_nothing(self, monkeypatch):
        narrow, wide = _k_colored(60, 5, 0), _k_colored(60, 15, 1)
        texts = serialize(narrow), serialize(wide)
        assert texts == (_fstring_serialize(narrow), _fstring_serialize(wide))
        # Each width keeps its own skeleton and layout of K_60.
        for name in ("_build_skeleton", "_layout"):
            monkeypatch.setattr(core, name, _no_rebuild)
        for _ in range(3):
            assert (serialize(narrow), serialize(wide)) == texts

    def test_wide_text_takes_the_line_reader(self, monkeypatch):
        narrow, wide = _k_colored(50, 7, 0), _k_colored(50, 23, 1)
        small = serialize(narrow)
        text = serialize(wide)
        lines = []
        monkeypatch.setattr(core, "_read_lines", lambda t: lines.append(t) or _read_lines(t))
        assert deserialize(text) == wide and lines == [text]
        # Writing and reading the wide text left the one-digit layout of
        # K_50 kept for the next narrow read.
        for name in ("_build_skeleton", "_layout"):
            monkeypatch.setattr(core, name, _no_rebuild)
        assert deserialize(small) == narrow and lines == [text]

    def test_wide_skeleton_widens_the_kept_narrow_one(self, monkeypatch):
        monkeypatch.setattr(core, "_TEXT_SLOTS", {1: core._text_slot(130, 1)})
        size = core._TEXT_SLOTS[1][0].size
        built = []
        monkeypatch.setattr(
            core, "_text_bytes", lambda n, color: built.append(n) or _text_bytes(n, color)
        )
        for width in (2, 3):
            widened = core._build_skeleton(size, width)
            assert not built
            with monkeypatch.context() as m:
                m.setattr(core, "_TEXT_SLOTS", {})
                laid_out = core._build_skeleton(size, width)
            assert built == [size]
            built.clear()
            assert widened.body.tobytes() == laid_out.body.tobytes()
            assert widened.starts == laid_out.starts
        # A kept narrow skeleton of another size is not widened.
        core._build_skeleton(2 * size, 2)
        assert built == [2 * size]

    def test_single_vertex_is_its_header(self, monkeypatch):
        for name in ("_lex_order", "_text_bytes", "_build_skeleton", "_layout"):
            monkeypatch.setattr(core, name, _no_rebuild)
        c = Coloring(1, [])
        assert serialize(c) == "1 0\n" == _fstring_serialize(c)

    @pytest.mark.parametrize("n", [1, 2, 11, 101])
    def test_skeleton_text_has_every_edge_in_one_color(self, n):
        for color in (1, 10, 100):
            lines = [f"{n} {color}"] + [
                f"{u} {v} {color}" for u in range(n) for v in range(u + 1, n)
            ]
            assert _text_bytes(n, color).decode("ascii") == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 19, 101, 300])
    def test_writer_is_byte_identical(self, n):
        for seed, max_colors in ((0, 5), (1, 12)):
            c = random_gallai(n, seed, max_colors)[0]
            assert serialize(c) == _fstring_serialize(c)
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
        if n >= 2 and 1 <= c.k <= 9:
            assert _read_canonical(text) == c
        else:
            assert _read_canonical(text) is None
        assert deserialize(text) == c
        kept = dict(core._TEXT_SLOTS)
        mutated = _mutate(text, rnd)
        outcome = _outcome(deserialize, mutated)
        assert outcome == _outcome(_read_lines, mutated)
        # A refused text leaves the kept skeletons and layouts as they were.
        assert isinstance(outcome, Coloring) or core._TEXT_SLOTS == kept

    @pytest.mark.parametrize("spelling", sorted(NON_CANONICAL))
    def test_non_canonical_spellings_take_the_line_reader(self, spelling):
        for n, seed, max_colors in ((1, 0, 12), (2, 0, 12), (12, 3, 12), (30, 1, 9)):
            c = random_gallai(n, seed, max_colors)[0]
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
        "2 2\n0 1 1\n",  # more colors than edges, at the canonical length
        "3 4\n0 1 1\n0 2 1\n1 2 1\n",
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
