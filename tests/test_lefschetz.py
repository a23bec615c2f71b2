import pytest

from wlpgraph import (
    LinearForm,
    classify_lollipop,
    complete,
    custom,
    exact_rank,
    expected_lollipop_wlp,
    failure_localization,
    from_generators,
    from_graph,
    lollipop,
    mode_of_path,
    multiplication_map,
    path,
    tensor_with_squarefree_block,
    verdict_via_theorem,
    wlp_report,
    wlp_report_with_form,
)
import wlpgraph.lefschetz as lefschetz_mod
from wlpgraph import ranks
from wlpgraph.ranks import UncertifiedRankError


class TestWlpReport:
    def test_path13_has_wlp(self):
        report = wlp_report(from_graph(path(13)))
        assert report.has_wlp and not report.failing_degrees

    def test_path8_fails_surjectivity_at_mode(self):
        report = wlp_report(from_graph(path(8)))
        assert not report.has_wlp
        assert report.failing_degrees == ((2, "surjectivity"),)

    def test_complete5(self):
        report = wlp_report(from_graph(complete(5)))
        assert report.has_wlp
        assert report.verdicts[0].injective
        assert report.verdicts[1].surjective  # onto the zero space

    def test_degree_conventions(self):
        report = wlp_report(from_graph(path(3)))
        top = report.verdicts[-1]
        assert top.degree == report.socle_degree
        assert top.h_target == 0 and top.rank == 0
        assert top.surjective and not top.injective and top.maximal_rank
        assert report.verdicts[0].injective

    def test_json_schema(self):
        d = wlp_report(from_graph(path(8))).to_json_dict()
        assert set(d) == {"hilbert", "socle_degree", "wlp", "verdicts", "failing"}
        assert d["wlp"] is False
        assert d["failing"] == [{"degree": 2, "kind": "surjectivity"}]
        assert set(d["verdicts"][0]) == {"degree", "h_i", "h_next", "rank",
                                         "injective", "surjective"}
        assert all(isinstance(c, str) for c in d["hilbert"])

    def test_non_unimodal_hilbert_implies_no_wlp(self):
        # h = (1, 4, 3, 4): valley at degree 2
        gens = [
            (0, 0, 2, 0), (0, 0, 0, 2), (0, 0, 1, 1),
            (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
            (4, 0, 0, 0), (3, 1, 0, 0), (2, 2, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0),
        ]
        a = from_generators(4, gens)
        report = wlp_report(a)
        assert report.hilbert.coeffs == (1, 4, 3, 4)
        assert not report.hilbert_unimodal
        assert not report.has_wlp


class TestWlpWithForm:
    def test_all_ones_equals_default(self):
        a = from_graph(path(6))
        left = wlp_report(a)
        right = wlp_report_with_form(a, LinearForm.all_ones(6))
        assert left == right

    def test_single_variable_form_on_complete3(self):
        a = from_graph(complete(3))
        report = wlp_report_with_form(a, LinearForm((1, 0, 0)))
        assert report.verdicts[0].rank == 1
        assert report.has_wlp

    def test_partial_form_on_path3_degree0(self):
        a = from_graph(path(3))
        report = wlp_report_with_form(a, LinearForm((1, 0, 1)))
        assert report.verdicts[0].injective

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            LinearForm((0, 0, 0))


class TestExpectedTable:
    def test_m1_row(self):
        assert {n for n in range(1, 21) if expected_lollipop_wlp(1, n)} == {
            1, 2, 3, 4, 5, 6, 8, 9, 12
        }

    def test_m1_row_is_path_classification_shifted(self):
        # L_{1,n} is the path on n+1 vertices
        path_set = {1, 2, 3, 4, 5, 6, 7, 9, 10, 13}
        assert {n for n in range(1, 21) if expected_lollipop_wlp(1, n)} == {
            n for n in range(1, 21) if n + 1 in path_set
        }

    def test_m2_row_is_path_classification_shifted_twice(self):
        path_set = {1, 2, 3, 4, 5, 6, 7, 9, 10, 13}
        assert {n for n in range(1, 21) if expected_lollipop_wlp(2, n)} == {
            n for n in range(1, 21) if n + 2 in path_set
        }

    def test_m2_row(self):
        assert {n for n in range(1, 21) if expected_lollipop_wlp(2, n)} == {
            1, 2, 3, 4, 5, 7, 8, 11
        }

    def test_m_large_rows(self):
        for m in (3, 5, 8):
            assert {n for n in range(1, 21) if expected_lollipop_wlp(m, n)} == {1, 3, 4, 7}

    def test_bad_args(self):
        with pytest.raises(ValueError):
            expected_lollipop_wlp(0, 5)


class TestClassify:
    def test_agreeing_cells(self):
        assert classify_lollipop(3, 7).agrees
        assert classify_lollipop(1, 12).report.has_wlp

    def test_l49_failure(self):
        c = classify_lollipop(4, 9)
        assert not c.report.has_wlp
        kinds = dict(c.report.failing_degrees)
        assert kinds.get(3) in ("surjectivity", "both")

    def test_strict_raises_on_forced_mismatch(self, monkeypatch):
        monkeypatch.setattr(lefschetz_mod, "expected_lollipop_wlp", lambda m, n: False)
        with pytest.raises(RuntimeError):
            lefschetz_mod.classify_lollipop(3, 7)
        result = lefschetz_mod.classify_lollipop(3, 7, strict=False)
        assert not result.agrees


class TestFailureLocalization:
    def test_lollipop_3_8(self):
        lam = mode_of_path(8)
        report = wlp_report(from_graph(lollipop(3, 8)))
        tags = failure_localization(report, lam)
        assert any(t.degree == lam + 1 and t.kind == "surjectivity" for t in tags)
        assert any(t.label == "surjectivity failure at mode+1" for t in tags)

    def test_lollipop_5_9_injectivity(self):
        # eta_{5,9} = lambda_9 + 1, and the failure is injectivity at lambda_9
        lam = mode_of_path(9)
        report = wlp_report(from_graph(lollipop(5, 9)))
        tags = failure_localization(report, lam)
        assert any(t.degree == lam and t.kind == "injectivity" for t in tags)

    def test_lollipop_3_9_surjectivity(self):
        # eta_{3,9} = lambda_9, so the mode-degree map fails surjectivity
        lam = mode_of_path(9)
        report = wlp_report(from_graph(lollipop(3, 9)))
        tags = failure_localization(report, lam)
        assert any(t.degree == lam and t.kind in ("surjectivity", "both") for t in tags)

    def test_path17(self):
        lam = mode_of_path(17)
        report = wlp_report(from_graph(path(17)))
        tags = failure_localization(report, lam)
        assert any(t.degree == lam and t.kind == "surjectivity" and t.offset_from_mode == 0
                   for t in tags)

    def test_rejects_wlp_true(self):
        with pytest.raises(ValueError):
            failure_localization(wlp_report(from_graph(path(5))), 1)


class TestEmptyGraphAlgebra:
    def test_base_field_has_wlp(self):
        from wlpgraph import custom

        report = wlp_report(from_graph(custom(0, [])))
        assert report.has_wlp
        assert report.hilbert.coeffs == (1,)
        assert report.linear_form is None
        assert report.verdicts[0].surjective


class TestRelabelingInvariance:
    """A scrambled lollipop is not recognized by the structured route, so the
    generic engine decides it; dims, ranks and verdict must match the
    canonical labeling."""

    @pytest.mark.parametrize("m,n", [(3, 5), (4, 6), (5, 4)])
    def test_scrambled_lollipop_same_report(self, m, n):
        import random

        from wlpgraph import classify_family, custom, lollipop as make_lollipop

        g = make_lollipop(m, n)
        rng = random.Random(m * 100 + n)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        scrambled = custom(
            g.vertex_count,
            [(perm[u], perm[v]) for e in g.edges for u, v in [sorted(e)]],
        )
        if scrambled.edges == g.edges:
            return  # permutation happened to be an automorphism of the labeling
        assert classify_family(scrambled) is None
        canonical = wlp_report(from_graph(g))
        generic = wlp_report(from_graph(scrambled))
        assert canonical.hilbert == generic.hilbert
        assert [v.rank for v in canonical.verdicts] == [v.rank for v in generic.verdicts]
        assert canonical.has_wlp == generic.has_wlp
        assert canonical.failing_degrees == generic.failing_degrees


class TestTensorConsistency:
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("n", [8, 11, 14, 15])
    def test_quotient_failure_propagates(self, m, n):
        lam = mode_of_path(n)
        tb = tensor_with_squarefree_block(m - 1, from_graph(path(n)))
        rep = verdict_via_theorem(tb, lam + 1)
        assert rep.direct.surjective is False
        report = wlp_report(from_graph(lollipop(m, n)))
        kinds = dict(report.failing_degrees)
        assert kinds.get(lam + 1) in ("surjectivity", "both")


@pytest.mark.parametrize(
    "entry", ["wlp_report", "GradedMap.rank", "algebra.exact_rank", "ranks.exact_rank"]
)
def test_uncertified_rank_raises_at_every_entry(starved_engine, entry):
    # C_12 matches no structured family, so its degree-3 map goes to the
    # engine, which under these caps only bounds its rank below by 102: no
    # entry point may turn that bound into a rank or a WLP verdict
    algebra = from_graph(custom(12, [(v, (v + 1) % 12) for v in range(12)]))
    gm = multiplication_map(algebra, LinearForm.all_ones(12), 3)
    calls = {
        "wlp_report": lambda: wlp_report(algebra),
        "GradedMap.rank": lambda: gm.rank,
        "algebra.exact_rank": lambda: exact_rank(gm),
        "ranks.exact_rank": lambda: ranks.exact_rank(gm.matrix),
    }
    with pytest.raises(UncertifiedRankError, match=r"^rank 102 .*not certified"):
        calls[entry]()
    assert gm.rank_info.rank == 102 and not gm.rank_info.certified
