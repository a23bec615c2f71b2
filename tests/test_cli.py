import json
import multiprocessing.pool
import os
import re

import pytest

from wlpgraph import ranks
from wlpgraph.cli import main
from wlpgraph.verify import check_path_modes


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


class TestErrors:
    def test_missing_source(self, capsys):
        assert main(["indpoly"]) == 2

    def test_bad_graph_file(self, capsys):
        assert main(["indpoly", "--graph-file", "/nonexistent/file.txt"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


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
                        r"dense image \d+x\d+ exceeds the budget of 100 .* at degree 1$",
                        captured.err)

    def test_wlp_exits_2(self, capsys, starved_engine, monkeypatch, tmp_path):
        # C_12 has no structured reduction: its ranks come from the engine;
        # with a tiny dense budget, its first image is refused instead, and
        # the error names the degree
        f = tmp_path / "c12.txt"
        f.write_text("n 12\n" + "".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
        for cap, error in ((ranks.DENSE_ELEMS_CAP, r"error: rank 102 at degree 3 not certified"),
                           (100, r"error: dense image \d+x\d+ exceeds the budget of 100 .* "
                                 r"at degree 2$")):
            monkeypatch.setattr(ranks, "DENSE_ELEMS_CAP", cap)
            for argv in (["wlp", "--graph-file", str(f)],
                         ["--output", "json", "wlp", "--graph-file", str(f)]):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert re.match(error, captured.err)


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
