import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlpgraph import (
    EmptyGeneratorsError,
    LinearForm,
    MonomialAlgebra,
    NotArtinianError,
    UncertifiedRankError,
    complete,
    custom,
    exact_rank,
    from_generators,
    from_graph,
    hilbert_series,
    independent_sets_of_size,
    lollipop,
    multiplication_map,
    parse_generators,
    path,
    rank_modular,
)
from wlpgraph import algebra as algebra_module
from wlpgraph import indpoly as indpoly_module
from wlpgraph import ranks
from wlpgraph.indpoly import IntPolynomial
from wlpgraph.lefschetz import classify_lollipop, wlp_report_with_form
from wlpgraph.ranks import rank_bareiss
from wlpgraph.verify import random_artinian_algebra

from conftest import random_graph


class TestFromGraph:
    def test_complete3(self):
        a = from_graph(complete(3))
        assert a.dims == (1, 3) and a.socle_degree == 1

    def test_path4(self):
        assert from_graph(path(4)).dims == (1, 4, 3)

    def test_lollipop31(self):
        assert from_graph(lollipop(3, 1)).dims == (1, 4, 2)

    def test_basis_matches_independent_sets(self, rng):
        for _ in range(10):
            g = random_graph(rng, max_vertices=8)
            a = from_graph(g)
            for d in range(a.socle_degree + 1):
                sets = independent_sets_of_size(g, d)
                basis = a.basis(d)
                assert len(basis) == len(sets)
                for mono, s in zip(basis, sets):
                    assert {v for v, e in enumerate(mono) if e} == set(s)
                    assert all(e in (0, 1) for e in mono)

    def test_generators(self):
        a = from_graph(path(2))
        assert (2, 0) in a.generators and (0, 2) in a.generators and (1, 1) in a.generators

    def test_forged_dims_raise_on_bases(self, monkeypatch):
        # the dimensions come from the independence polynomial; the first
        # read of the bases enumerates the sets and checks their counts
        monkeypatch.setattr(algebra_module, "independence_polynomial",
                            lambda g: IntPolynomial((1, 5, 6, 2)))
        a = from_graph(path(5))  # true dims (1, 5, 6, 1)
        assert a.dims == (1, 5, 6, 2)
        with pytest.raises(RuntimeError, match=r"\[1, 5, 6, 1\] disagree .* \[1, 5, 6, 2\]"):
            a.bases

    def test_lollipop_classification_enumerates_no_lollipop(self, monkeypatch):
        # the ranks come from the path reductions, so the lollipop's own
        # independent sets are never listed
        seen = []
        real = indpoly_module.independent_set_masks_by_size

        def spy(g):
            seen.append(g)
            return real(g)

        # reductions lists path sets through from_graph, so algebra's binding sees them
        for module in (indpoly_module, algebra_module):
            monkeypatch.setattr(module, "independent_set_masks_by_size", spy)
        g = lollipop(3, 9)

        def lollipop_listed():
            return any(h.vertex_count == g.vertex_count and h.edges == g.edges for h in seen)

        assert not classify_lollipop(3, 9).report.has_wlp
        assert not lollipop_listed()
        from_graph(g).bases  # the spy sees the enumeration where one happens
        assert lollipop_listed()


class TestLinearForm:
    def test_non_integer_coefficient_rejected(self):
        # truncated, (0.4, 0.3) read as zero and failed as "must be nonzero"
        with pytest.raises(ValueError, match=r"^coefficient 0 is not an integer: 0.4$"):
            LinearForm((0.4, 0.3))
        with pytest.raises(ValueError, match=r"^coefficient 1 is not an integer: inf$"):
            LinearForm((1, float("inf")))
        ell = LinearForm((1.0, np.int64(-2), True))
        assert ell.coefficients == (1, -2, 1)
        assert all(type(c) is int for c in ell.coefficients)
        with pytest.raises(ValueError, match="must be nonzero"):
            LinearForm((0.0, 0))


class TestFromGenerators:
    def test_two_squares(self):
        a = from_generators(2, [(2, 0), (0, 2)])
        assert a.dims == (1, 2, 1) and a.socle_degree == 2

    def test_single_cube(self):
        a = from_generators(1, [(3,)])
        assert a.dims == (1, 1, 1)

    def test_not_artinian(self):
        with pytest.raises(NotArtinianError, match="y2"):
            from_generators(2, [(2, 0)])

    def test_empty(self):
        with pytest.raises(EmptyGeneratorsError):
            from_generators(2, [])

    def test_minimalization(self):
        a = from_generators(2, [(2, 0), (0, 2), (2, 1), (2, 0)])
        assert set(a.generators) == {(2, 0), (0, 2)}

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            from_generators(1, [(0,)])

    def test_non_integer_exponent_rejected(self):
        # truncated, 2.9 read as 2 and built k[y1,y2]/(y1^2, y2^2)
        with pytest.raises(ValueError, match=r"^exponent 0 of generator 0 is not an integer: 2.9$"):
            from_generators(2, [(2.9, 0), (0, 2)])
        with pytest.raises(ValueError, match=r"^exponent 1 of generator 1 is not an integer: nan$"):
            from_generators(2, [(2, 0), (0, float("nan"))])
        a = from_generators(2, [(2.0, 0), (0, np.int64(2)), (True, True)])
        assert a.generators == ((2, 0), (1, 1), (0, 2)) and a.dims == (1, 2)

    def test_mixed_generators(self):
        # k[y1,y2]/(y1^3, y2^2, y1 y2): basis 1, y1, y2, y1^2
        a = from_generators(2, [(3, 0), (0, 2), (1, 1)])
        assert a.dims == (1, 2, 1)
        assert a.basis(1) == ((1, 0), (0, 1))
        assert a.basis(2) == ((2, 0),)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        # every monomial of the box below the pure powers that no generator
        # divides, by degree, each level in descending tuple order
        k = data.draw(st.integers(1, 5))
        caps = data.draw(st.lists(st.integers(2, 5), min_size=k, max_size=k))
        pure = [tuple(c if v == j else 0 for v in range(k)) for j, c in enumerate(caps)]
        extra = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * k).filter(any),
                                   max_size=2 * k))
        gens = pure + extra
        a = from_generators(k, gens)
        standard = [m for m in product(*(range(c) for c in caps))
                    if not any(all(d <= e for d, e in zip(g, m)) for g in gens)]
        top = max(map(sum, standard))
        want = tuple(tuple(sorted((m for m in standard if sum(m) == d), reverse=True))
                     for d in range(top + 1))
        assert a.bases == want
        minimal = {g for g in gens
                   if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)}
        assert set(a.generators) == minimal


class TestHilbertSeries:
    def test_paper_values(self):
        assert hilbert_series(from_graph(lollipop(3, 4))).coeffs == (1, 7, 14, 7)
        assert hilbert_series(from_graph(lollipop(3, 7))).coeffs == (1, 10, 35, 50, 25, 2)
        assert hilbert_series(from_generators(2, [(2, 0), (0, 2)])).coeffs == (1, 2, 1)


class TestMultiplicationMap:
    def test_path2_degree0(self):
        a = from_graph(path(2))
        gm = multiplication_map(a, LinearForm.all_ones(2), 0, 1)
        assert gm.matrix.to_dense() == [[1], [1]]
        assert gm.rank == 1

    def test_complete_top_is_empty(self):
        a = from_graph(complete(4))
        gm = multiplication_map(a, LinearForm.all_ones(4), 1, 1)
        assert gm.shape == (0, 4) and gm.rank == 0

    def test_square_of_form_two_vars(self):
        a = from_generators(2, [(2, 0), (0, 2)])
        gm = multiplication_map(a, LinearForm.all_ones(2), 0, 2)
        assert gm.matrix.to_dense() == [[2]]
        assert gm.rank == 1

    def test_composition_equals_direct_expansion(self, rng):
        for _ in range(12):
            nv = rng.randint(1, 4)
            gens = [tuple(rng.randint(2, 4) if j == v else 0 for j in range(nv))
                    for v in range(nv)]
            for _ in range(rng.randint(0, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(nv))
                if sum(mono) >= 2:
                    gens.append(mono)
            a = from_generators(nv, gens)
            ell = LinearForm(tuple(rng.randint(-2, 3) or 1 for _ in range(nv)))
            for t in (2, 3):
                for i in range(min(a.socle_degree, 3)):
                    composed = multiplication_map(a, ell, i, t).matrix.to_dense()
                    assert composed == _direct_power_matrix(a, ell, i, t)

    def test_graph_masks_match_monomial_route(self, rng):
        # guard: a graph algebra builds its maps from its masks; the same
        # algebra with explicit bases goes through the monomial tuples
        for _ in range(40):
            g = random_graph(rng, max_vertices=9)
            a = from_graph(g)
            twin = MonomialAlgebra(g.vertex_count, a.generators, bases=a.bases)
            ell = LinearForm(tuple(rng.choice((0, 1, 2, -3)) or 1 for _ in range(g.vertex_count)))
            for i in range(a.socle_degree + 1):
                for t in (1, 2):
                    got = multiplication_map(a, ell, i, t).matrix
                    want = multiplication_map(twin, ell, i, t).matrix
                    assert (got.nrows, got.ncols, got.cols) == (want.nrows, want.ncols, want.cols)

    def test_basis_canonicality(self):
        g = lollipop(3, 4)
        a1, a2 = from_graph(g), from_graph(g)
        assert a1.bases == a2.bases
        m1 = multiplication_map(a1, LinearForm.all_ones(7), 1, 1).matrix.to_dense()
        m2 = multiplication_map(a2, LinearForm.all_ones(7), 1, 1).matrix.to_dense()
        assert m1 == m2


def _direct_power_matrix(a, ell, i, t):
    """Expand ell^t * m monomial by monomial; the oracle for composition."""
    src = a.basis(i)
    tgt = {m: r for r, m in enumerate(a.basis(i + t))}
    out = [[0] * len(src) for _ in range(a.dim(i + t))]
    vars_and_coeffs = [(j, c) for j, c in enumerate(ell.coefficients) if c]
    for col, mono in enumerate(src):
        for combo in product(vars_and_coeffs, repeat=t):
            exps = list(mono)
            coeff = 1
            for j, c in combo:
                exps[j] += 1
                coeff *= c
            row = tgt.get(tuple(exps))
            if row is not None:
                out[row][col] += coeff
    return out


def _spy_builds(monkeypatch) -> list:
    """(degree, power) of every map that ``map_rank`` builds, whole or split."""
    real_map = algebra_module.multiplication_map
    real_blocks = algebra_module.symmetric_blocks
    built = []

    def spy_map(a, ell, i, t=1):
        built.append((i, t))
        return real_map(a, ell, i, t)

    def spy_blocks(a, gens, i, t):
        built.append((i, t))
        return real_blocks(a, gens, i, t)

    monkeypatch.setattr(algebra_module, "multiplication_map", spy_map)
    monkeypatch.setattr(algebra_module, "symmetric_blocks", spy_blocks)
    return built


class TestMapRank:
    def test_memoized_per_algebra(self, monkeypatch):
        a = from_graph(lollipop(3, 4))
        ell = LinearForm.all_ones(7)
        want = [multiplication_map(a, ell, i, t).rank for i in range(3) for t in (1, 2)]
        built = _spy_builds(monkeypatch)
        for _ in range(2):
            assert [a.map_rank(ell, i, t) for i in range(3) for t in (1, 2)] == want
        # the socle degree is 3: ell^2 from degree 2 lands in the zero space,
        # and its rank 0 is returned without building the map
        assert built == [(i, t) for i in range(3) for t in (1, 2) if (i, t) != (2, 2)]
        other = LinearForm((1,) * 6 + (2,))  # a new form is a new key
        assert a.map_rank(other, 1) == multiplication_map(a, other, 1).rank
        assert a.map_rank(ell, 1) == a.map_rank(ell, 1, 1) and len(built) == 6
        from_graph(lollipop(3, 4)).map_rank(ell, 0)  # another instance has its own memo
        assert len(built) == 7

    @pytest.mark.parametrize("route", ["formula", "split", "generic"])
    def test_arguments_checked_on_every_route(self, route):
        # P_4 takes the lollipop formula in wlp_report and the reflection
        # split in map_rank; a relabelled C_5 takes the split in both; the
        # generic algebra builds the map
        a = {"formula": lambda: from_graph(path(4)),
             "split": lambda: from_graph(custom(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])),
             "generic": lambda: from_generators(3, [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0)]),
             }[route]()
        for wrong in (LinearForm.all_ones(a.num_vars - 1), LinearForm.all_ones(a.num_vars + 1)):
            with pytest.raises(ValueError, match="arity does not match"):
                a.map_rank(wrong, 1)
            with pytest.raises(ValueError, match="arity does not match"):
                wlp_report_with_form(a, wrong)
        ell = LinearForm.all_ones(a.num_vars)
        with pytest.raises(ValueError, match="degree must be non-negative"):
            a.map_rank(ell, -1)
        with pytest.raises(ValueError, match="t must be >= 1"):
            a.map_rank(ell, 0, 0)
        # the checks come before the zero-space answer
        with pytest.raises(ValueError, match="arity does not match"):
            a.map_rank(LinearForm.all_ones(a.num_vars + 1), a.socle_degree + 5)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("graph", "lollipop", "sampler")), st.integers(0, 10**6))
    def test_rank_matches_the_built_map(self, kind, seed):
        rng = random.Random(seed)
        if kind == "graph":
            a = from_graph(random_graph(rng, max_vertices=9))
        elif kind == "lollipop":
            g = lollipop(rng.randint(1, 4), rng.randint(1, 5))
            label = rng.sample(range(g.vertex_count), g.vertex_count)
            a = from_graph(custom(g.vertex_count, [(label[u], label[v]) for u, v in g.edges]))
        else:
            a = random_artinian_algebra(rng)
        ell = LinearForm.all_ones(a.num_vars)
        for t in (1, 2):
            for i in range(a.socle_degree + 2):
                registry = []
                with ranks.recording(registry):
                    got = a.map_rank(ell, i, t)
                if not a.dim(i) or not a.dim(i + t):
                    assert got == 0 and registry == [], (i, t)
                assert got == multiplication_map(a, ell, i, t).rank, (i, t)

    def test_uncertified_is_not_stored(self, starved_engine, monkeypatch):
        # under these caps the degree-3 map of C_12 has only a lower bound:
        # each call re-ranks it and raises, and no bound is kept as a rank
        a = from_graph(custom(12, [(v, (v + 1) % 12) for v in range(12)]))
        ell = LinearForm.all_ones(12)
        built = _spy_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(UncertifiedRankError, match=r"^rank 102 at degree 3 not certified"):
                a.map_rank(ell, 3)
        assert built == [(3, 1), (3, 1)]


class TestExactRank:
    def test_examples(self):
        assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert exact_rank([[1, 1], [1, 1]]) == 1

    def test_lollipop49_degree3_not_surjective(self):
        a = from_graph(lollipop(4, 9))
        gm = multiplication_map(a, LinearForm.all_ones(13), 3, 1)
        assert gm.shape == (140, 140)
        r = exact_rank(gm)
        assert r < 140
        assert r == rank_bareiss(gm.matrix) == rank_modular(gm.matrix)

    def test_accepts_graded_map(self):
        a = from_graph(path(3))
        gm = multiplication_map(a, LinearForm.all_ones(3), 0, 1)
        assert exact_rank(gm) == 1


class TestParseGenerators:
    def test_basic(self):
        num_vars, gens, labels = parse_generators("y1^2\ny1 y3\n")
        assert num_vars == 3 and labels == ["y1", "y3"] or num_vars == 2
        # y1 and y3 are the only names: contiguous numbering
        assert num_vars == 2
        assert set(gens) == {(2, 0), (1, 1)}

    def test_comments_and_blanks(self):
        num_vars, gens, labels = parse_generators("# squares\n\ny1^2\ny2^2 # another\n")
        assert num_vars == 2 and set(gens) == {(2, 0), (0, 2)}

    def test_repeated_factor_accumulates(self):
        _, gens, _ = parse_generators("y1 y1\n")
        assert gens == [(2,)]

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_generators("y1^\n")
        with pytest.raises(ValueError):
            parse_generators("1y\n")

    def test_empty(self):
        with pytest.raises(EmptyGeneratorsError):
            parse_generators("# nothing\n")


def test_graded_map_json():
    a = from_graph(path(2))
    gm = multiplication_map(a, LinearForm.all_ones(2), 0, 1)
    d = gm.to_json_dict()
    assert d["shape"] == [2, 1] and d["rank"] == 1
    assert sorted(d["entries"]) == [[0, 0, 1], [1, 0, 1]]


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm((0, 0))
    assert LinearForm.all_ones(3) == LinearForm((1, 1, 1)) != LinearForm((1, 1))
    assert LinearForm.all_ones(3) is LinearForm.all_ones(3)
