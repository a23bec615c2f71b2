import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlpgraph import (
    LinearForm,
    MonomialAlgebra,
    block_matrix,
    from_generators,
    from_graph,
    hilbert_series,
    lollipop,
    multiplication_map,
    path,
    tensor_failure_witness,
    tensor_with_squarefree_block,
    verdict_via_theorem,
)
from wlpgraph import algebra as algebra_module
from wlpgraph import cli, ranks, tensor, verify
from wlpgraph.algebra import monomial_divides
from wlpgraph.ranks import UncertifiedRankError
from wlpgraph.tensor import map_flags
from wlpgraph.verify import _expected_block_layout, random_artinian_algebra


def ky_mod(power):
    return from_generators(1, [(power,)])


class TestTensorConstruction:
    def test_one_variable_square(self):
        tb = tensor_with_squarefree_block(1, ky_mod(2))
        assert hilbert_series(tb.realized).coeffs == (1, 2, 1)
        assert tb.realized.socle_degree == tb.inner.socle_degree + 1

    def test_dimension_formula(self):
        a = from_graph(path(2))
        tb = tensor_with_squarefree_block(2, a)
        assert tb.realized.dim(1) == 2 + 2
        # dim [B]_i = n*h_{i-1} + h_i in the middle, n*h_D at the top
        for i in range(1, a.socle_degree + 1):
            assert tb.realized.dim(i) == 2 * a.dim(i - 1) + a.dim(i)
        assert tb.realized.dim(a.socle_degree + 1) == 2 * a.dim(a.socle_degree)

    def test_hilbert_factorization(self, rng):
        for _ in range(8):
            algebra = random_artinian_algebra(rng, max_vars=3, socle_range=(1, 4))
            n = rng.randint(1, 3)
            tb = tensor_with_squarefree_block(n, algebra)
            inner_hs = hilbert_series(algebra)
            want = [0] * (algebra.socle_degree + 2)
            for d, c in enumerate(inner_hs.coeffs):
                want[d] += c
                want[d + 1] += n * c
            assert hilbert_series(tb.realized).coeffs == tuple(want)

    def test_quotient_model_hilbert(self):
        # the m-1 block over a path algebra models the clique-collapsed quotient
        for m, n in [(3, 4), (4, 6)]:
            tb = tensor_with_squarefree_block(m - 1, from_graph(path(n)))
            hs = hilbert_series(tb.realized).coeffs
            inner = hilbert_series(from_graph(path(n))).coeffs
            want = [0] * (len(inner) + 1)
            for d, c in enumerate(inner):
                want[d] += c
                want[d + 1] += (m - 1) * c
            assert hs == tuple(want)

    def test_socle_zero_rejected(self):
        tensor_with_squarefree_block(1, from_graph(path(1)))  # socle degree 1 is fine
        with pytest.raises(ValueError):
            tensor_with_squarefree_block(1, ky_mod(1))  # k[y]/(y) has socle degree 0

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            tensor_with_squarefree_block(0, ky_mod(2))

    def test_forged_basis_rejected(self):
        # a basis claiming y^2 is standard although y^2 generates the ideal:
        # the realised monomial y^2 is divisible by the embedded generator
        forged = MonomialAlgebra(1, [(2,)], bases=[[(0,)], [(1,)], [(2,)]])
        with pytest.raises(AssertionError,
                           match=r"monomial \(0, 2\) is divisible by generator \(0, 2\)"):
            tensor_with_squarefree_block(1, forged)

    @pytest.mark.parametrize("block_elems", [1 << 20, 7])
    def test_standard_check_matches_loop(self, monkeypatch, block_elems):
        # the vectorized check against the per-monomial divisibility loop,
        # also when the monomials are compared in many small blocks
        monkeypatch.setattr(tensor, "_CHECK_ELEMS", block_elems)
        rng = random.Random(4)
        for _ in range(300):
            nv = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(1, 4))]
            mons = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(1, 12))]
            first = next(((m, g) for m in mons for g in gens if monomial_divides(g, m)), None)
            if first is None:
                tensor._check_standard(mons, gens)
            else:
                with pytest.raises(AssertionError) as err:
                    tensor._check_standard(mons, gens)
                assert str(err.value) == (f"realised basis monomial {first[0]} is divisible "
                                          f"by generator {first[1]}")

    def test_forged_basis_rejected_under_optimization(self):
        # the check is an explicit raise, so python -O does not drop it
        code = ("from wlpgraph import MonomialAlgebra, tensor_with_squarefree_block\n"
                "tensor_with_squarefree_block(1, MonomialAlgebra(1, [(2,)], "
                "bases=[[(0,)], [(1,)], [(2,)]]))")
        src = os.path.dirname(os.path.dirname(tensor.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "AssertionError: realised basis monomial (0, 2)" in proc.stderr


class TestBlockMatrix:
    def test_degree0_column(self):
        a = from_graph(path(2))
        tb = tensor_with_squarefree_block(3, a)
        gm = block_matrix(tb, 0)
        assert gm.shape == (3 + a.dim(1), 1)
        assert [row[0] for row in gm.matrix.to_dense()] == [1, 1, 1, 1, 1]

    def test_one_var_square_top(self):
        tb = tensor_with_squarefree_block(1, ky_mod(2))
        gm = block_matrix(tb, 1)
        assert gm.shape == (1, 2)
        assert gm.matrix.to_dense() == [[1, 1]]

    def test_out_of_range(self):
        tb = tensor_with_squarefree_block(1, ky_mod(2))
        with pytest.raises(ValueError):
            block_matrix(tb, 2)

    def test_assembly_matches_direct(self, rng):
        for _ in range(8):
            algebra = random_artinian_algebra(rng, max_vars=3, socle_range=(1, 4))
            n = rng.randint(1, 3)
            tb = tensor_with_squarefree_block(n, algebra)
            for i in range(algebra.socle_degree + 1):
                assert block_matrix(tb, i).matrix.to_dense() == _expected_block_layout(tb, i)


class TestVerdicts:
    def test_degree0_always_injective(self):
        tb = tensor_with_squarefree_block(2, from_graph(path(3)))
        rep = verdict_via_theorem(tb, 0)
        assert rep.predicted.injective is True
        assert rep.direct_rank == 1
        assert rep.agree

    def test_ky3_middle_degree(self):
        tb = tensor_with_squarefree_block(1, ky_mod(3))
        rep = verdict_via_theorem(tb, 1)
        assert rep.direct.injective and rep.direct.surjective
        assert rep.predicted.injective and rep.predicted.surjective
        assert rep.agree

    def test_path9_quotient_not_surjective_at_mode(self):
        # with two extra squarefree variables this models the m = 3 quotient;
        # at degree lambda_9 = 3 the map must fail surjectivity
        tb = tensor_with_squarefree_block(2, from_graph(path(9)))
        rep = verdict_via_theorem(tb, 3)
        assert rep.direct.surjective is False
        assert rep.predicted.surjective is False
        assert rep.agree

    def test_single_block_variable_surjectivity_edge(self):
        # with one extra variable the one-step inner map does not constrain
        # surjectivity: this B-map is a bijection (its 3x3 matrix has
        # determinant -2) although the inner step [A]_0 -> [A]_1 maps a line
        # into a plane
        a = from_generators(2, [(2, 0), (0, 2)])
        tb = tensor_with_squarefree_block(1, a)
        gm = block_matrix(tb, 1)
        assert sorted(gm.matrix.to_dense()) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        rep = verdict_via_theorem(tb, 1)
        assert rep.direct.surjective and rep.direct.injective
        assert rep.predicted.surjective and rep.predicted.injective
        assert rep.agree

    def test_single_block_variable_top_degree_edge(self):
        # at the top degree with n = 1 the identity block spans every row, so
        # the map is surjective no matter what the inner one-step map does
        a = from_generators(2, [(2, 0), (1, 1), (0, 2)])  # dims (1, 2), socle 1
        tb = tensor_with_squarefree_block(1, a)
        rep = verdict_via_theorem(tb, 1)
        assert rep.direct.surjective and rep.direct.maximal_rank
        assert rep.predicted.maximal_rank
        assert rep.agree

    def test_equivalence_randomized(self, rng):
        for _ in range(10):
            algebra = random_artinian_algebra(rng)
            for n in (1, 2, 3):
                tb = tensor_with_squarefree_block(n, algebra)
                for i in range(algebra.socle_degree + 1):
                    assert verdict_via_theorem(tb, i).agree

    def test_inner_maps_built_once_across_block_sizes(self, monkeypatch):
        # the three block sizes share the inner ranks: each (degree, power)
        # inner map is built once, not once per n
        inner = from_graph(path(6))  # dims (1, 6, 10, 4)
        real = algebra_module.multiplication_map
        real_blocks = algebra_module.symmetric_blocks
        built = []

        def spy(a, ell, i, t=1):
            built.append((a, i, t))
            return real(a, ell, i, t)

        def spy_blocks(a, gens, i, t):  # the inner path's maps, split by its reflection
            built.append((a, i, t))
            return real_blocks(a, gens, i, t)

        monkeypatch.setattr(algebra_module, "multiplication_map", spy)
        monkeypatch.setattr(algebra_module, "symmetric_blocks", spy_blocks)
        monkeypatch.setattr(tensor, "multiplication_map", spy)
        for n in (1, 2, 3):
            tb = tensor_with_squarefree_block(n, inner)
            for i in range(inner.socle_degree + 1):
                assert verdict_via_theorem(tb, i).agree
        inner_maps = sorted((i, t) for a, i, t in built if a is inner)
        assert inner_maps == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)]
        assert sum(1 for a, _, _ in built if a is not inner) == 3 * 4  # block matrices

    def test_all_ones_forms_shared(self, monkeypatch):
        # one all-ones form per arity serves every verdict and block matrix
        inner = from_graph(path(5))
        tb = tensor_with_squarefree_block(2, inner)
        verdict_via_theorem(tb, 1)
        made = []
        real = LinearForm.__post_init__
        monkeypatch.setattr(LinearForm, "__post_init__",
                            lambda self: (made.append(self), real(self))[1])
        for i in range(inner.socle_degree + 1):
            assert verdict_via_theorem(tb, i).agree
        assert made == []
        assert block_matrix(tb, 1).form is LinearForm.all_ones(7)

    def test_report_json(self):
        tb = tensor_with_squarefree_block(1, ky_mod(2))
        d = verdict_via_theorem(tb, 0).to_json_dict()
        assert set(d) == {"degree", "predicted", "direct", "agree"}


class TestCheckedVerdicts:
    """Criterion 06 checks each random algebra once up to variable order."""

    def test_each_distinct_draw_realised_once(self, monkeypatch):
        # 50 draws at the default seed hold 28 distinct generator sets, 27 up
        # to variable order; every draw's verdicts are still counted
        real = tensor.tensor_with_squarefree_block
        calls = []

        def spy(n, algebra):
            calls.append(n)
            return real(n, algebra)

        monkeypatch.setattr(tensor, "tensor_with_squarefree_block", spy)
        result = verify.check_theorem_equivalence(verify.DEFAULT_SEED)
        assert len(calls) == 27 * 3
        assert result.passed
        assert result.detail == ("609 degree verdicts agree across 50 random algebras "
                                 "(27 distinct up to variable order) x n=1..3")

    @staticmethod
    def per_draw_loop(draw):
        # every verdict of the 50 draws at the default seed, no sweep
        rng = random.Random(verify.DEFAULT_SEED)
        for _ in range(50):
            algebra = draw(rng)
            for n in (1, 2, 3):
                tb = tensor_with_squarefree_block(n, algebra)
                for i in range(algebra.socle_degree + 1):
                    verdict_via_theorem(tb, i)

    @staticmethod
    def recorded(run):
        registry = []
        with ranks.recording(registry):
            run()
            return ranks.distinct_recorded_matrices(registry), len(registry)

    def test_same_matrices_recorded_as_per_draw_loop(self):
        # the rows of a repeat come from the first draw of its orbit: the audit
        # sees the matrices of one member per orbit, in fewer calls than a loop
        # over all 50 draws (four distinct matrices belong only to permuted
        # repeats, whose ranks equal those already recorded)
        loop_distinct, loop_calls = self.recorded(
            lambda: self.per_draw_loop(random_artinian_algebra))
        swept_distinct, swept_calls = self.recorded(
            lambda: verify.check_theorem_equivalence(verify.DEFAULT_SEED))
        assert (loop_distinct, swept_distinct) == (365, 361)
        assert swept_calls < loop_calls

    def test_no_rank_reused_across_sweeps(self, capsys):
        # after a blockcheck sweep over the same draws, fresh draws build fresh
        # algebras: no rank cached by the first sweep is reused, so the audit
        # still records every matrix of a per-draw loop
        assert cli.main(["--seed", str(verify.DEFAULT_SEED), "blockcheck", "--random", "50"]) == 0
        capsys.readouterr()
        distinct, _ = self.recorded(lambda: self.per_draw_loop(random_artinian_algebra))
        assert distinct == 365


def _permuted(a, perm):
    return from_generators(a.num_vars, [tuple(g[v] for v in perm) for g in a.generators])


class TestAlgebraKey:
    def test_constant_on_permutation_orbits(self):
        # permuting the variables fixes the key and every row of the sweep:
        # verdicts, direct ranks and the report JSON, for n = 1..3
        rng = random.Random(5)
        keep = lambda rep: rep.to_json_dict()
        for _ in range(8):
            a = random_artinian_algebra(rng)
            rows = [row[1:] for row in tensor.checked_verdicts([a], (1, 2, 3), keep)]
            for perm in itertools.permutations(range(a.num_vars)):
                b = _permuted(a, perm)
                assert tensor.algebra_key(b) == tensor.algebra_key(a)
                assert [row[1:] for row in tensor.checked_verdicts([b], (1, 2, 3), keep)] == rows

    def test_equal_hilbert_function_not_merged(self):
        a = from_generators(2, [(2, 0), (0, 3)])
        b = from_generators(2, [(2, 0), (0, 4), (1, 2)])
        assert hilbert_series(a).coeffs == hilbert_series(b).coeffs == (1, 2, 2, 1)
        assert tensor.algebra_key(a) != tensor.algebra_key(b)

    def test_permuted_repeat_checked_once(self, monkeypatch):
        # a draw equal to an earlier one up to variable order realises nothing
        a = from_generators(3, [(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 0)])
        b = _permuted(a, (2, 0, 1))
        assert b.generators != a.generators
        real = tensor.tensor_with_squarefree_block
        calls = []
        monkeypatch.setattr(tensor, "tensor_with_squarefree_block",
                            lambda n, alg: (calls.append(alg), real(n, alg))[1])
        rows = list(tensor.checked_verdicts([a, b], (1, 2)))
        assert calls == [a, a]
        assert [row[1:] for row in rows if row[0] == 0] == [row[1:] for row in rows if row[0] == 1]

    def test_many_variables_keyed_by_generators(self):
        # past _KEY_MAX_VARS the permutations are not tried
        k = tensor._KEY_MAX_VARS + 1
        a = from_generators(k, [tuple(2 if v == j else 0 for v in range(k)) for j in range(k)])
        assert tensor.algebra_key(a) == (k, a.generators)


class TestFailureWitness:
    def test_injective_mode_inapplicable(self):
        a = ky_mod(2)
        with pytest.raises(ValueError):
            tensor_failure_witness(a, 0, a, 0, "injective")

    def test_surjective_onto_zero_counts_as_surjective(self):
        a = ky_mod(2)
        with pytest.raises(ValueError):
            tensor_failure_witness(a, 1, a, 1, "surjective")

    def test_path8_pair(self):
        a8 = from_graph(path(8))
        assert tensor_failure_witness(a8, 2, a8, 2, "surjective") is True

    def test_bad_mode(self):
        a = ky_mod(2)
        with pytest.raises(ValueError):
            tensor_failure_witness(a, 0, a, 0, "bijective")

    def test_forged_factor_rejected(self):
        # the forged factor of test_forged_basis_rejected fails injectivity at
        # degree 2, as k[y]/(y^2) does at degree 1; their product is checked
        forged = MonomialAlgebra(1, [(2,)], bases=[[(0,)], [(1,)], [(2,)]])
        with pytest.raises(AssertionError,
                           match=r"monomial \(0, 2\) is divisible by generator \(0, 2\)"):
            tensor_failure_witness(ky_mod(2), 1, forged, 2, "injective")


@st.composite
def _factors(draw):
    """A draw within the bounds of random_artinian_algebra, a path or a lollipop."""
    kind = draw(st.sampled_from(["sampler", "path", "lollipop"]))
    if kind == "path":
        return from_graph(path(draw(st.integers(1, 6))))
    if kind == "lollipop":
        return from_graph(lollipop(draw(st.integers(3, 4)), draw(st.integers(1, 3))))
    k = draw(st.integers(1, 4))
    powers = draw(st.lists(st.integers(2, 4), min_size=k, max_size=k))
    pure = [tuple(e if v == j else 0 for v in range(k)) for j, e in enumerate(powers)]
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * k).filter(lambda m: 2 <= sum(m) <= 4),
                          max_size=2 * k))
    return from_generators(k, pure + extra)


@given(a1=_factors(), a2=_factors())
@settings(max_examples=60, deadline=None)
def test_product_matches_from_generators(a1, a2):
    # a monomial of a1 (x) a2 is standard exactly when both of its parts are
    labels = tuple(f"a{j}" for j in range(a1.num_vars)) + tuple(f"b{j}" for j in range(a2.num_vars))
    gens = ([g + (0,) * a2.num_vars for g in a1.generators]
            + [(0,) * a1.num_vars + g for g in a2.generators])
    want = from_generators(a1.num_vars + a2.num_vars, gens, var_labels=labels)
    got = tensor._product(a1, a2, labels)
    assert got.bases == want.bases
    assert set(got.generators) == set(want.generators)
    assert got.var_labels == labels


@pytest.mark.parametrize("via_verdict", [False, True])
def test_uncertified_rank_raises(starved_engine, via_verdict):
    # a deficient core keeps only its sparse rank mod p, a lower bound (the
    # first is a 22x22 map of rank 21): the flags and verdicts built on it
    # must raise instead of reading it as a definite injective/surjective answer
    rng = random.Random(7)
    with pytest.raises(UncertifiedRankError, match="not certified"):
        for _ in range(30):
            algebra = random_artinian_algebra(rng)
            for n in (1, 2, 3):
                tb = tensor_with_squarefree_block(n, algebra)
                ell = LinearForm.all_ones(tb.realized.num_vars)
                for i in range(algebra.socle_degree + 1):
                    if via_verdict:
                        verdict_via_theorem(tb, i)
                    else:
                        map_flags(tb.realized, ell, i, 1)


def test_blockcheck_json_frozen(capsys):
    # sha256 of the JSON printed for 30 random algebras at seed 2, captured
    # before the inner ranks were memoized and the realisation check vectorized
    assert cli.main(["--output", "json", "--seed", "2", "blockcheck", "--random", "30",
                     "--block-vars", "1", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "10440a719d478cab3423ea3f943009efc80b566154884e23025897a4ce3f3a3e"
    )
