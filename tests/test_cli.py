import hashlib
import json
import multiprocessing.pool
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from wlpgraph import cli, ranks, tensor, verify
from wlpgraph.algebra import from_generators
from wlpgraph.cli import main
from wlpgraph.verify import DEFAULT_SEED, check_path_modes, random_artinian_algebra


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestIndpoly:
    def test_lollipop_4_9(self, capsys):
        code, out = run_cli(capsys, ["indpoly", "--lollipop", "4", "9"])
        lines = out.splitlines()
        assert lines[0] == "1 + 13t + 63t^2 + 140t^3 + 140t^4 + 51t^5 + 3t^6"
        assert lines[1] == "unimodal: yes"
        assert lines[2] == "mode: 3"
        assert code == 0

    def test_path_1(self, capsys):
        code, out = run_cli(capsys, ["indpoly", "--path", "1"])
        assert out.splitlines()[0] == "1 + t"
        assert out.splitlines()[2] == "mode: 0"

    def test_empty_graph_file(self, capsys, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("n 0\n")
        code, out = run_cli(capsys, ["indpoly", "--graph-file", str(f)])
        assert out.splitlines()[0] == "1"
        assert code == 0

    def test_json(self, capsys):
        code, out = run_cli(capsys, ["--output", "json", "indpoly", "--path", "4"])
        data = json.loads(out)
        assert data == {"polynomial": ["1", "4", "3"], "unimodal": True, "mode": 1}


class TestHilbert:
    def test_graph_source(self, capsys):
        code, out = run_cli(capsys, ["hilbert", "--lollipop", "3", "4"])
        assert out.splitlines()[0] == "1 + 7t + 14t^2 + 7t^3"
        assert code == 0

    def test_gens_file(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("y1^2\ny2^2\n")
        code, out = run_cli(capsys, ["hilbert", "--gens-file", str(f)])
        assert out.splitlines()[0] == "1 + 2t + t^2"

    def test_not_artinian_is_error(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("y1^2\ny1 y2\n")  # y2 appears but has no pure power
        code, out = run_cli(capsys, ["hilbert", "--gens-file", str(f)])
        assert code == 2


class TestWlp:
    def test_path13_exit0(self, capsys):
        code, out = run_cli(capsys, ["wlp", "--path", "13"])
        assert code == 0
        assert out.splitlines()[-1] == "WLP: yes"

    def test_lollipop_3_2_exit1(self, capsys):
        code, out = run_cli(capsys, ["wlp", "--lollipop", "3", "2"])
        assert code == 1
        assert out.splitlines()[-1] == "WLP: no"

    def test_complete6(self, capsys):
        code, out = run_cli(capsys, ["wlp", "--complete", "6"])
        assert code == 0

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, ["--output", "json", "wlp", "--path", "8"])
        data = json.loads(out)
        assert data["wlp"] is False
        assert data["failing"] == [{"degree": 2, "kind": "surjectivity"}]
        assert code == 1

    def test_graph_file_matches_family_flag(self, capsys, tmp_path):
        from wlpgraph import lollipop

        g = lollipop(3, 8)
        lines = ["n 11"] + [f"{u} {v}" for e in sorted(map(sorted, g.edges)) for u, v in [e]]
        f = tmp_path / "lollipop.txt"
        f.write_text("\n".join(lines) + "\n")
        code_file, out_file = run_cli(capsys, ["wlp", "--graph-file", str(f)])
        code_flag, out_flag = run_cli(capsys, ["wlp", "--lollipop", "3", "8"])
        assert (code_file, out_file) == (code_flag, out_flag)
        assert code_file == 1

    def test_gens_file(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("y1^2\ny2^2\ny3^2\ny1 y2\ny2 y3\n")  # the path on 3 vertices
        code, out = run_cli(capsys, ["wlp", "--gens-file", str(f)])
        assert code == 0
        assert out.splitlines()[-1] == "WLP: yes"


class TestClassify:
    def test_single_cell(self, capsys):
        code, out = run_cli(capsys, ["classify", "--m", "3..3", "--n", "7..7"])
        assert code == 0
        assert "agreements 1/1" in out

    def test_small_grid(self, capsys):
        code, out = run_cli(capsys, ["classify", "--m", "1..3", "--n", "1..5"])
        assert code == 0
        assert "agreements 15/15" in out

    def test_json(self, capsys):
        code, out = run_cli(capsys, ["--output", "json", "classify", "--m", "4..4", "--n", "9..9"])
        data = json.loads(out)
        assert data["agreements"] == 1 and data["cells"][0]["computed"] is False

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, ["classify", "--m", "1..2", "--n", "1..4"])
        _, out2 = run_cli(capsys, ["classify", "--m", "1..2", "--n", "1..4"])
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _ = run_cli(capsys, ["classify", "--m", "5..2", "--n", "1..3"])
        assert code == 2


class TestBlockcheck:
    def test_random_suite(self, capsys):
        code, out = run_cli(capsys, ["--seed", "7", "blockcheck", "--random", "2",
                                     "--block-vars", "1", "2"])
        assert code == 0
        assert "all agree" in out

    def test_gens_file(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("y1^3\ny2^2\n")
        code, out = run_cli(capsys, ["blockcheck", "--gens-file", str(f), "--block-vars", "2"])
        assert code == 0

    def test_negative_count_rejected(self, capsys):
        assert main(["blockcheck", "--random", "-1"]) == 2
        assert "--random: must be at least 0, got -1" in capsys.readouterr().err
        code, out = run_cli(capsys, ["blockcheck", "--random", "0"])
        assert code == 0 and "(0 degree verdicts)" in out

    def test_bad_block_vars_rejected_before_any_rank(self, capsys):
        # refused by the parser: no n = 1 line is printed before the error
        code = main(["blockcheck", "--random", "1", "--block-vars", "1", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--block-vars: must be at least 1, got 0" in captured.err

    def test_repeated_block_vars_rejected(self, capsys):
        # a size given twice would check every (algebra, n, degree) twice
        code = main(["blockcheck", "--random", "1", "--block-vars", "1", "2", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["wlpgraph blockcheck: error: argument --block-vars: value 1 given twice"]

    def test_text_frozen(self, capsys):
        # sha256 of the text printed for 30 random algebras at seed 2; printing
        # each line as it is computed must not change a byte
        code, out = run_cli(capsys, ["--seed", "2", "blockcheck", "--random", "30",
                                     "--block-vars", "1", "2", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bb89da4d71e083b52fd0648715a575f8fe47c5b4df2fded5f8c3649bd107b621"
        )

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_reports_dropped_as_formatted(self, capsys, monkeypatch, output):
        # when a verdict is computed, at most the previous report is alive:
        # each one is formatted and released, not held until the end
        real = tensor.verdict_via_theorem
        refs = []
        alive = []

        def spy(tb, i):
            alive.append(sum(ref() is not None for ref in refs))
            rep = real(tb, i)
            refs.append(weakref.ref(rep))
            return rep

        monkeypatch.setattr(tensor, "verdict_via_theorem", spy)
        code, _ = run_cli(capsys, ["--output", output, "--seed", "2", "blockcheck",
                                   "--random", "5"])
        assert code == 0
        assert len(alive) > 10 and max(alive) <= 1

    def test_each_distinct_algebra_realised_once(self, capsys, monkeypatch):
        # 30 draws at seed 2 hold 21 distinct generator sets, 19 up to variable
        # order: a repeat reuses the verdicts already computed and realises no
        # tensor product
        rng = random.Random(2)
        draws = [random_artinian_algebra(rng) for _ in range(30)]
        assert len({(a.num_vars, a.generators) for a in draws}) == 21
        assert len({tensor.algebra_key(a) for a in draws}) == 19
        real = tensor.tensor_with_squarefree_block
        calls = []

        def spy(n, algebra):
            calls.append(n)
            return real(n, algebra)

        monkeypatch.setattr(tensor, "tensor_with_squarefree_block", spy)
        code, _ = run_cli(capsys, ["--seed", "2", "blockcheck", "--random", "30"])
        assert code == 0
        assert len(calls) == 19 * 3

    def test_benchmark_json_frozen(self, capsys):
        # sha256 of the JSON of the tensor-blockcheck benchmark workload at
        # seed 1 (2 000 draws), captured before orbit keys and the build memo
        code, out = run_cli(capsys, ["--output", "json", "--seed", "1", "blockcheck",
                                     "--random", "2000", "--block-vars", "1", "2", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6ae75cdae2a1d09b98ac2069bf20bcf56657114a97afdbeab4b786f7df46aa0c"
        )

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_equal_algebras_share_verdicts(self, capsys, monkeypatch, output):
        # two separately built algebras with equal minimal generators: the
        # second index gets the first one's lines, and each degree is checked once
        draws = iter([from_generators(2, [(2, 0), (0, 3)]),
                      from_generators(2, [(0, 3), (2, 1), (2, 0)])])
        monkeypatch.setattr(verify, "random_artinian_algebra", lambda rng: next(draws))
        real = tensor.verdict_via_theorem
        degrees = []

        def spy(tb, i):
            degrees.append(i)
            return real(tb, i)

        monkeypatch.setattr(tensor, "verdict_via_theorem", spy)
        code, out = run_cli(capsys, ["--output", output, "blockcheck", "--random", "2",
                                     "--block-vars", "1", "2"])
        assert code == 0
        # socle degree 3: degrees 0..3 once for each block size
        assert degrees == [0, 1, 2, 3] * 2
        if output == "json":
            reports = json.loads(out)["reports"]
            by_index = [[{k: v for k, v in r.items() if k != "algebra"}
                         for r in reports if r["algebra"] == idx] for idx in (0, 1)]
        else:
            lines = out.splitlines()[:-1]
            by_index = [[line.split(" ", 2)[2] for line in lines
                         if line.startswith(f"algebra {idx} ")] for idx in (0, 1)]
        assert len(by_index[0]) == 8 and by_index[0] == by_index[1]

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_seed_and_output_after_subcommand(self, capsys, output):
        before = run_cli(capsys, ["--output", output, "--seed", "7", "blockcheck",
                                  "--random", "3"])
        after = run_cli(capsys, ["blockcheck", "--random", "3", "--seed", "7",
                                 "--output", output])
        assert after == before and before[0] == 0
        # the seed took effect: the default seed draws other algebras
        assert run_cli(capsys, ["--output", output, "blockcheck", "--random", "3"]) != before


@pytest.mark.parametrize("argv, seed", [
    (["verify-paper", "--seed", "9"], 9),
    (["--seed", "9", "verify-paper"], 9),
    (["--seed", "3", "verify-paper", "--seed", "9"], 9),
    (["verify-paper"], DEFAULT_SEED),
])
def test_verify_paper_seed_parsed_either_side(argv, seed):
    args = cli.build_parser().parse_args(argv)
    assert args.seed == seed and args.output == "text"


class TestErrors:
    def test_missing_source(self, capsys):
        assert main(["indpoly"]) == 2

    def test_bad_graph_file(self, capsys):
        assert main(["indpoly", "--graph-file", "/nonexistent/file.txt"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_recursion_limit_exits_2(self, capsys):
        # P_1000 is too deep for the deletion recursion of the independence
        # polynomial: input too large, not a negative outcome
        assert main(["indpoly", "--path", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "recursion limit" in captured.err


class TestJobs:
    def test_below_one_rejected(self, capsys):
        for bad in ("0", "-3"):
            assert main(["--jobs", bad, "classify", "--m", "1", "--n", "1"]) == 2
            assert f"--jobs: must be at least 1, got {bad}" in capsys.readouterr().err
        assert main(["--jobs", "two", "classify", "--m", "1", "--n", "1"]) == 2
        assert "--jobs: expected an integer, got 'two'" in capsys.readouterr().err

    def test_no_pool_started(self, capsys, monkeypatch):
        # --jobs starts nothing: the sweep runs in this process, so its output
        # cannot depend on the value
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", refuse)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        runs = [run_cli(capsys, ["--output", "json", "--jobs", jobs,
                                 "classify", "--m", "1..3", "--n", "1..6"]) for jobs in ("2", "1")]
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == 0 and json.loads(out)["total"] == 18

    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        # the engine's float64 products are exact (partial sums below 2^53),
        # so the number of BLAS threads cannot change a result; both commands
        # reach the streamed echelon form and the Cholesky stage (wlp exits 1:
        # C_16 lacks the WLP)
        cycle = tmp_path / "c16.txt"
        cycle.write_text("n 16\n" + "".join(f"{i} {(i + 1) % 16}\n" for i in range(16)))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for argv in (["classify", "--m", "1..3", "--n", "1..15"], ["wlp", "--graph-file", str(cycle)]):
            outs = [subprocess.run([sys.executable, "-m", "wlpgraph.cli", "--output", "json", *argv],
                                   env={**env, "OPENBLAS_NUM_THREADS": threads},
                                   capture_output=True, check=False).stdout
                    for threads in ("1", "2")]
            assert outs[0] == outs[1] and json.loads(outs[0])


def test_bad_range_reason_reaches_stderr(capsys):
    code = main(["classify", "--m", "0..3", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad range '0..3'" in captured.err


class TestUncertified:
    def test_classify_exits_2(self, capsys, starved_engine):
        code = main(["classify", "--m", "1..1", "--n", "11..11"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ell^2 rank of P_10 at degree 2 not certified")

    def test_classify_budget_error_names_the_map(self, capsys, starved_engine, monkeypatch):
        # with Bareiss off, a tiny dense budget refuses a block of the ell^2
        # map of P_10 from degree 1; the error names the path, the power and
        # the degree, not only the refused image
        monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", 100)
        code = main(["classify", "--m", "1..1", "--n", "11..11"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.match(r"error: ell\^2 rank of P_10 at degree 1 not certified: "
                        r"elimination of \d+x\d+ exceeds the budget of 100 .* at degree 1$",
                        captured.err)

    def test_blockcheck_json_writes_nothing(self, capsys, starved_engine):
        # the JSON is written only once every verdict is in: no partial document
        code = main(["--output", "json", "--seed", "7", "blockcheck", "--random", "30"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.match(r"error: rank \d+ at degree \d+ not certified", captured.err)

    def test_wlp_exits_2(self, capsys, starved_engine, monkeypatch, tmp_path):
        # C_12 has no structured reduction: its ranks come from the engine;
        # with a tiny dense budget, its first image is refused instead, and
        # the error names the degree
        f = tmp_path / "c12.txt"
        f.write_text("n 12\n" + "".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
        for cap, error in ((ranks.DENSE_ELEMS_CAP, r"error: rank 102 at degree 3 not certified"),
                           (100, r"error: elimination of \d+x\d+ exceeds the budget of 100 .* "
                                 r"at degree 2$")):
            monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", cap)
            for argv in (["wlp", "--graph-file", str(f)],
                         ["--output", "json", "wlp", "--graph-file", str(f)]):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert re.match(error, captured.err)


def test_verify_paper_manifest_cpu_seconds(capsys):
    code, out = run_cli(capsys, ["--output", "json", "verify-paper"])
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 11
    assert all(0 <= c["cpu_seconds"] for c in checks)


def test_corrupted_mode_table_fails_check():
    # negative control: the verification harness must notice a wrong table
    wrong = (9,) * 20
    result = check_path_modes(table=wrong)
    assert not result.passed


@pytest.mark.parametrize("forged", ["independence_polynomial", "independent_set_masks_by_size"])
def test_forged_route_fails_identity_check(monkeypatch, forged):
    # negative control: the Hilbert series (the polynomial) and the
    # enumerated basis are separate routes, and each is compared with the
    # brute force; a forged one fails the check instead of passing silently
    from wlpgraph import algebra
    from wlpgraph.indpoly import IntPolynomial
    from wlpgraph.verify import check_hilbert_independence_identity

    real = getattr(algebra, forged)

    def fake(g):
        if forged == "independence_polynomial":
            return IntPolynomial(real(g).coeffs + (1,))
        return [level[1:] for level in real(g)]

    assert check_hilbert_independence_identity(count=5).passed
    monkeypatch.setattr(algebra, forged, fake)
    result = check_hilbert_independence_identity(count=5)
    assert not result.passed and result.detail == "5 mismatches"
