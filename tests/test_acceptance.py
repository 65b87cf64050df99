"""End-to-end acceptance checks, one test per headline criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run doubles as a scoreboard.  Budgets and tolerances are pinned here; every
check is exact (zero tolerated failures).
"""

import hashlib
import random

from gallai.cli import main as cli_main
from gallai.core import Coloring, DivisionParams, balanced_sizes, canonicalize, total_edges
from gallai.construct import (
    construct_any,
    construct_balanced,
    construct_division,
    construct_gk_general,
    lower_bound_witness,
    star_partition_for,
)
from gallai.generator import random_gallai
from gallai.oracle import enumerate_realizable, partitions, search_realizable
from gallai.verify import (
    check_necessary,
    class_sizes,
    find_gallai_partition,
    is_gallai,
    is_special_coloring,
    top_l_cover,
    validate_gallai_partition,
)


def _report(cid: str, detail: str) -> None:
    print(f"[criterion {cid}] PASS: {detail}")


def _cli(capsys, *argv) -> tuple[int, str]:
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_g3_is_5(capsys):
    result = enumerate_realizable(5, 3)
    assert len(result.verdicts) == 8
    for d, verdict in result.verdicts:
        assert verdict.is_feasible
        assert verdict.witness is not None
        assert is_gallai(verdict.witness) and class_sizes(verdict.witness) == d
    code, out = _cli(capsys, "enumerate", "--n", "5", "--k", "3")
    assert code == 0 and out.count(": feasible") == 8
    assert "total 8: 8 feasible, 0 infeasible, 0 unknown" in out

    code, _ = _cli(capsys, "oracle", "--n", "4", "--dist", "2,2,2")
    assert code == 1

    code, out = _cli(capsys, "compute-g", "--k", "3", "--n-max", "6")
    assert code == 0 and out.strip() == "5"
    _report("1", "g(3) = 5: all 8 distributions on K_5 feasible with verified "
                 "witnesses; (2,2,2) infeasible on K_4")


def test_criterion_2_g4_is_8(capsys):
    count = 0
    for sizes in partitions(28, 4):
        d = canonicalize(sizes, 8)
        c = construct_any(d)
        assert isinstance(c, Coloring), f"not constructed: {d}"
        assert is_gallai(c) and class_sizes(c) == d
        count += 1
    assert count == 169

    code, out = _cli(
        capsys, "oracle", "--n", "7", "--dist", "9,4,4,4", "--budget-nodes", "1000000000"
    )
    assert code == 1 and "infeasible" in out

    code, out = _cli(capsys, "compute-g", "--k", "4", "--n-max", "8")
    assert code == 0 and out.strip() == "8"
    _report("2", f"g(4) = 8: construct_any verified on all {count} partitions of 28; "
                 "(9,4,4,4) proven infeasible on K_7")


def test_criterion_3_division_totality():
    count = 0
    for n in range(2, 41):
        total = total_edges(n)
        for p in range(n - 1, total + 1):
            for k in range(1, total // p + 1):
                q = total - k * p
                c = construct_division(DivisionParams(n=n, k=k, p=p, q=q))
                assert is_gallai(c)
                assert is_special_coloring(c)
                want = [p] * k + ([q] if q else [])
                assert class_sizes(c) == canonicalize(want, n)
                count += 1
    _report("3", f"division totality: {count} instances with 2 <= n <= 40, "
                 "all special and verified, zero failures")


def test_criterion_4_balanced_totality():
    count = 0
    for n in range(2, 61):
        for k in range(1, (n + 1) // 2 + 1):
            c = construct_balanced(n, k)
            sizes = class_sizes(c).sizes
            assert is_gallai(c)
            assert len(sizes) == k
            assert max(sizes) - min(sizes) <= 1
            count += 1
    _report("4", f"balanced totality: {count} instances with 2 <= n <= 60, "
                 "k <= ceil(n/2), zero failures")


def test_criterion_5_cover_bound_properties():
    checked = 0
    for seed in range(10_000):
        n = 2 + seed % 49
        c, _ = random_gallai(n, seed, 1 + seed % 6)
        # The l largest classes are the first l of the full ranking; one
        # call checks for a rainbow triangle once, not once per l.
        ranked, _ = top_l_cover(c, c.k)
        for ell in range(1, c.k + 1):
            covered = sum(c.counts[col - 1] for col in ranked[:ell])
            assert covered >= sum(n - j for j in range(1, ell + 1)), (n, seed, ell)
        ok, _ = check_necessary(class_sizes(c))
        assert ok, (n, seed)
        checked += 1
    _report("5", f"cover bounds: {checked} generator outputs with n <= 50, "
                 "every top-l total and every prefix sum within bound")


def test_criterion_6_general_construction_at_scale():
    rng = random.Random(20_240_801)
    built = 0
    # The colorings' bytes, not only their validity: a rewrite of the
    # construction must write the same colex arrays.
    h = hashlib.sha256()
    for k in (3, 4, 5):
        n = 8 * k * k + 1
        total = total_edges(n)
        dists = [balanced_sizes(n, k), tuple([total - k + 1] + [1] * (k - 1))]
        while len(dists) < 100:
            cuts = sorted(rng.sample(range(1, total), k - 1))
            dists.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [total])))
        for sizes in dists:
            d = canonicalize(sizes, n)
            c = construct_gk_general(d)
            assert is_gallai(c) and class_sizes(c) == d
            h.update(c.colex_colors().astype("uint8").tobytes())
            built += 1
    assert h.hexdigest() == "bafc15df769d392ec02248f3f3c1f9200b38a2fc4c98748b633fcb238c1d110f"
    _report("6", f"general construction: {built} distributions verified at "
                 "n = 73, 129, 201 (k = 3, 4, 5)")


def test_criterion_7_lower_bound_witnesses():
    expected_n = {3: 3, 4: 5, 5: 7}
    for k in (3, 4, 5):
        n, d = lower_bound_witness(k)
        assert n == expected_n[k]
        verdict = search_realizable(d)
        assert verdict.is_infeasible, (k, d)
    _report("7", "lower bound: witness distributions for k = 3, 4, 5 "
                 "(n = 3, 5, 7) all proven infeasible")


def test_criterion_8_necessary_not_sufficient():
    d = canonicalize([7, 3, 2, 2, 1], 6)
    ok, _ = check_necessary(d)
    assert ok
    verdict = search_realizable(d)
    assert verdict.is_infeasible
    _report("8", "(7,3,2,2,1) on K_6 passes the necessary condition "
                 "yet is proven infeasible")


def test_criterion_9_special_coloring_gap():
    d = canonicalize([8, 3, 3, 1], 6)
    assert star_partition_for(d) is None
    verdict = search_realizable(d)
    assert verdict.is_feasible
    assert verdict.witness is not None and is_gallai(verdict.witness)
    _report("9", "(8,3,3,1) on K_6 has no special coloring but is feasible")


def test_criterion_10_partition_extraction():
    checked = 0
    for seed in range(1000):
        n = 2 + seed % 29
        c, _ = random_gallai(n, seed + 777, 5)
        gp = find_gallai_partition(c)
        assert validate_gallai_partition(c, gp), (n, seed)
        checked += 1
    _report("10", f"block decomposition: {checked} generator outputs with "
                  "n <= 30, extracted partition always validates")
