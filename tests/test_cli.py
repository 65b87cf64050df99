import pytest

from gallai import construct, generator, oracle
from gallai.cli import main
from gallai.core import InternalScheduleError, deserialize
from gallai.verify import class_sizes, is_gallai


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_verifiable_file(self, tmp_path, capsys):
        out = tmp_path / "c.coloring"
        code, stdout, _ = run(capsys, "construct", "--n", "5", "--dist", "6,2,2", "--out", str(out))
        assert code == 0
        assert "6,2,2" in stdout
        c = deserialize(out.read_text())
        assert is_gallai(c) and class_sizes(c).sizes == (6, 2, 2)

    def test_unsorted_dist_is_canonicalized(self, capsys):
        code, stdout, _ = run(capsys, "construct", "--n", "5", "--dist", "2,6,2")
        assert code == 0
        assert "distribution: 6,2,2" in stdout

    def test_infeasible_distribution(self, capsys):
        code, stdout, _ = run(capsys, "construct", "--n", "7", "--dist", "9,4,4,4")
        assert code == 1
        assert "not constructed" in stdout

    def test_bad_sum_is_usage_error(self, capsys):
        code, _, stderr = run(capsys, "construct", "--n", "4", "--dist", "4,4,4")
        assert code == 2
        assert "error" in stderr

    def test_undecided_distribution_is_unknown(self, capsys):
        # Eight colors on K_19 lie outside every guaranteed region, star
        # search finds no partition, and n is too large for the oracle.
        code, stdout, stderr = run(
            capsys, "construct", "--n", "19", "--dist", "57,38,23,20,19,12,1,1"
        )
        assert code == 3 and stderr == ""
        assert stdout.splitlines()[-1].startswith("not constructed: unknown")

    def test_internal_error_is_unknown(self, monkeypatch, capsys):
        def broken(d, stats=None):
            raise InternalScheduleError("schedule broke")

        monkeypatch.setattr(construct, "_construct_guaranteed", broken)
        code, stdout, stderr = run(capsys, "construct", "--n", "5", "--dist", "6,2,2")
        assert code == 3
        assert stdout == "distribution: 6,2,2 on K_5\n"
        assert stderr == "internal error: schedule broke\n"


class TestConstructDivBalanced:
    def test_division(self, tmp_path, capsys):
        out = tmp_path / "d.coloring"
        code, _, _ = run(
            capsys, "construct-div", "--n", "5", "--k", "2", "--p", "4", "--q", "2",
            "--out", str(out),
        )
        assert code == 0
        c = deserialize(out.read_text())
        assert class_sizes(c).sizes == (4, 4, 2)

    def test_division_bad_params(self, capsys):
        code, _, stderr = run(capsys, "construct-div", "--n", "5", "--k", "2", "--p", "3", "--q", "4")
        assert code == 2

    def test_division_single_vertex_with_empty_classes(self, capsys):
        code, stdout, stderr = run(capsys, "construct-div", "--n", "1", "--k", "2", "--p", "0", "--q", "0")
        assert code == 2 and stdout == ""
        assert stderr == "error: need p >= 1 when k >= 1, got p=0, k=2\n"

    def test_balanced(self, tmp_path, capsys):
        out = tmp_path / "b.coloring"
        code, _, _ = run(capsys, "construct-balanced", "--n", "9", "--k", "4", "--out", str(out))
        assert code == 0
        sizes = class_sizes(deserialize(out.read_text())).sizes
        assert max(sizes) - min(sizes) <= 1 and len(sizes) == 4

    def test_balanced_too_many_colors(self, capsys):
        code, _, _ = run(capsys, "construct-balanced", "--n", "5", "--k", "4")
        assert code == 2


class TestVerify:
    def test_accepts_constructed_files(self, tmp_path, capsys):
        for args in (
            ["construct", "--n", "6", "--dist", "5,5,5"],
            ["construct-div", "--n", "6", "--k", "2", "--p", "6", "--q", "3"],
            ["construct-balanced", "--n", "7", "--k", "3"],
            ["random", "--n", "8", "--seed", "5"],
        ):
            out = tmp_path / "x.coloring"
            code, _, _ = run(capsys, *args, "--out", str(out))
            assert code == 0
            code, stdout, _ = run(capsys, "verify", str(out))
            assert code == 0
            assert "gallai: true" in stdout
            assert "necessary-condition: pass" in stdout

    def test_rejects_rainbow_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.coloring"
        bad.write_text("3 3\n0 1 1\n0 2 2\n1 2 3\n")
        code, stdout, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "gallai: false" in stdout
        assert "rainbow triangle" in stdout

    def test_corrupt_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.coloring"
        bad.write_text("3 1\n0 1 1\n")
        code, _, stderr = run(capsys, "verify", str(bad))
        assert code == 2


@pytest.mark.parametrize("command", ["verify", "export-dot"])
def test_undecodable_file_is_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.coloring"
    bad.write_bytes(b"2 1\n0 1 \xff\n")
    code, stdout, stderr = run(capsys, command, str(bad))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestCheckNecessary:
    def test_pass(self, capsys):
        code, stdout, _ = run(capsys, "check-necessary", "--n", "6", "--dist", "7,3,2,2,1")
        assert code == 0 and "pass" in stdout

    def test_fail(self, capsys):
        code, stdout, _ = run(capsys, "check-necessary", "--n", "4", "--dist", "2,2,2")
        assert code == 1 and "fail (l=1)" in stdout


class TestOracle:
    def test_feasible_with_witness_file(self, tmp_path, capsys):
        out = tmp_path / "w.coloring"
        code, stdout, _ = run(
            capsys, "oracle", "--n", "5", "--dist", "8,1,1", "--out", str(out)
        )
        assert code == 0 and "feasible" in stdout
        c = deserialize(out.read_text())
        assert is_gallai(c) and class_sizes(c).sizes == (8, 1, 1)

    def test_infeasible(self, capsys):
        code, stdout, _ = run(capsys, "oracle", "--n", "4", "--dist", "2,2,2")
        assert code == 1 and "infeasible" in stdout

    def test_unknown_on_tiny_budget(self, capsys):
        code, stdout, _ = run(
            capsys, "oracle", "--n", "6", "--dist", "8,3,3,1", "--budget-nodes", "3"
        )
        assert code == 3 and "unknown" in stdout

    @pytest.mark.parametrize("budget", [["--budget-nodes", "-1"], ["--budget-ms", "-5"]])
    def test_negative_budget_is_usage_error(self, capsys, budget):
        code, stdout, stderr = run(capsys, "oracle", "--n", "6", "--dist", "8,3,3,1", *budget)
        assert code == 2 and stdout == "distribution: 8,3,3,1 on K_6\n"
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_internal_error_is_unknown(self, monkeypatch, capsys):
        def broken(*args):
            raise InternalScheduleError("table witness broke")

        monkeypatch.setattr(oracle, "_table_verdict", broken)
        # No star partition realizes (8,3,3,1)/K_6, so the table step runs.
        code, stdout, stderr = run(capsys, "oracle", "--n", "6", "--dist", "8,3,3,1")
        assert code == 3
        assert stdout == "distribution: 8,3,3,1 on K_6\n"
        assert stderr == "internal error: table witness broke\n"


class TestEnumerateAndG:
    def test_enumerate(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--n", "4", "--k", "3")
        assert code == 0
        assert "2,2,2: infeasible" in stdout
        assert "total 3: 2 feasible, 1 infeasible, 0 unknown" in stdout

    def test_enumerate_k1_has_no_distribution(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--n", "1", "--k", "1")
        assert code == 0
        assert stdout.strip() == "total 0: 0 feasible, 0 infeasible, 0 unknown"

    def test_enumerate_unknown_on_tiny_budget(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--n", "6", "--k", "4", "--budget-nodes", "3")
        assert code == 3
        assert stdout.splitlines()[-1].endswith(" unknown") and ": unknown" in stdout

    # The second of each pair asks for no search at all: K_1 has no 1-part
    # distribution, and no n <= 1 is tried for k = 3.
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "6", "--k", "4"],
            ["enumerate", "--n", "1", "--k", "1"],
            ["compute-g", "--k", "4", "--n-max", "8"],
            ["compute-g", "--k", "3", "--n-max", "1"],
        ],
    )
    @pytest.mark.parametrize("budget", [["--budget-nodes", "-1"], ["--budget-ms", "-5"]])
    def test_negative_budget_is_usage_error(self, capsys, argv, budget):
        code, stdout, stderr = run(capsys, *argv, *budget)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_compute_g(self, capsys):
        code, stdout, _ = run(capsys, "compute-g", "--k", "3", "--n-max", "6")
        assert code == 0 and stdout.strip() == "5"

    def test_compute_g_unknown(self, capsys):
        code, stdout, _ = run(capsys, "compute-g", "--k", "3", "--n-max", "4")
        assert code == 3 and stdout.strip() == "unknown"

    def test_compute_g_small_k_is_usage_error(self, capsys):
        code, stdout, stderr = run(capsys, "compute-g", "--k", "2", "--n-max", "5")
        assert code == 2 and stdout == ""
        assert stderr == "error: the threshold is only defined for k >= 3, got k=2\n"


class TestRandomAndDot:
    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "random", "--n", "9", "--seed", "11", "--out", str(a))
        run(capsys, "random", "--n", "9", "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "5", "--max-colors", "0"]])
    def test_random_bad_size_is_usage_error(self, capsys, argv):
        code, stdout, stderr = run(capsys, "random", "--seed", "1", *argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: need ")

    def test_out_of_memory_is_unknown(self, monkeypatch, capsys):
        # What an N x N matrix for N = 10^5 would raise; nothing is allocated.
        def too_big(n, seed, max_colors):
            raise MemoryError

        monkeypatch.setattr(generator, "random_gallai", too_big)
        code, stdout, stderr = run(capsys, "random", "--n", "100000", "--seed", "1")
        assert code == 3 and stdout == ""
        assert stderr == "error: out of memory; no answer was reached\n"

    def test_export_dot(self, tmp_path, capsys):
        out = tmp_path / "c.coloring"
        run(capsys, "construct", "--n", "4", "--dist", "4,1,1", "--out", str(out))
        code, stdout, _ = run(capsys, "export-dot", str(out))
        assert code == 0
        assert stdout.startswith("graph coloring {")
        assert "0 -- 1 [color=" in stdout
        assert stdout.rstrip().endswith("}")


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--n", "5"])
        assert exc.value.code == 2

    def test_bad_dist_string(self, capsys):
        code, _, stderr = run(capsys, "construct", "--n", "5", "--dist", "6,x,2")
        assert code == 2


def test_parsed_values_do_not_leak_between_calls(tmp_path, capsys):
    """``main`` reuses one parser; each call must see only its own flags."""
    from gallai.cli import _parser

    out = tmp_path / "w.coloring"
    argv = ["oracle", "--n", "6", "--dist", "8,3,3,1", "--budget-nodes", "3", "--out", str(out)]
    assert run(capsys, *argv)[0] == 3
    code, stdout, _ = run(capsys, "construct", "--n", "5", "--dist", "6,2,2")
    assert code == 0 and stdout.startswith("distribution: 6,2,2 on K_5\n5 3\n")
    # The same subcommand without the budget and the output file.
    code, stdout, _ = run(capsys, "oracle", "--n", "6", "--dist", "8,3,3,1")
    assert code == 0 and "witness written" not in stdout and not out.exists()
    args = _parser().parse_args(["enumerate", "--n", "4", "--k", "3"])
    assert vars(args) == {
        "command": "enumerate", "n": 4, "k": 3, "budget_nodes": None, "budget_ms": None,
        "func": args.func,
    }
    assert _parser() is _parser()
