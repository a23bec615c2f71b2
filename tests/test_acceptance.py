"""Acceptance suite: every release criterion, one test each, with its stated
runtime bound and a printed PASS/FAIL line.

The whole module runs inside a single engine-recording scope: every rank the
engine computes anywhere in these criteria is registered, matrices small
enough for the arbitrary-precision route are re-ranked with both Bareiss and
the >2^30 modular engine (a disagreement raises immediately), and the final
cross-validation criterion audits the registry.  Structured-rank caches are
cleared first so nothing computed by the unit tests leaks in.
"""

import time

import pytest

from wlpgraph import ranks, reductions, verify
from wlpgraph.cli import main as cli_main
from wlpgraph.indpoly import mode_of_path

_registry: list = []


@pytest.fixture(scope="module", autouse=True)
def recording_scope():
    reductions.path_ell_rank.cache_clear()
    reductions.path_ell2_rank.cache_clear()
    reductions._path_algebra.cache_clear()  # and the ranks its algebras keep
    reductions.path_dims.cache_clear()
    mode_of_path.cache_clear()
    with ranks.recording(_registry):
        yield
    uncertified = [info for info in _registry if not info.certified]
    print(f"\n[acceptance] engine calls recorded: {len(_registry)}, "
          f"cross-checked: {sum(1 for i in _registry if i.crosscheck)}, "
          f"uncertified: {len(uncertified)}")
    assert not uncertified, "some rank computations ended uncertified"


def _report(result, limit=None):
    print()
    print(f"{result.line()} [{result.seconds:.1f}s]")
    assert result.passed, result.detail
    if limit is not None:
        assert result.seconds < limit, (
            f"{result.name} took {result.seconds:.1f}s, over the {limit}s budget"
        )


def test_criterion_01_path_modes():
    _report(verify.check_path_modes(), limit=1.0)


def test_criterion_02_hilbert_series_examples():
    _report(verify.check_hilbert_examples(), limit=1.0)


def test_criterion_03_path_wlp_classification():
    _report(verify.check_path_classification(), limit=30.0)


def test_criterion_04_lollipop_grid():
    _report(verify.check_lollipop_grid(), limit=300.0)


def test_criterion_05_failure_localization():
    _report(verify.check_failure_localization())


def test_criterion_06_tensor_verdict_equivalence():
    _report(verify.check_theorem_equivalence(verify.DEFAULT_SEED), limit=120.0)


def test_criterion_07_block_matrix_structure():
    _report(verify.check_block_structure(verify.DEFAULT_SEED))


def test_criterion_08_hilbert_independence_identity():
    _report(verify.check_hilbert_independence_identity(verify.DEFAULT_SEED), limit=60.0)


def test_criterion_09_rank_engine_cross_validation():
    _report(verify.check_rank_engines(verify.DEFAULT_SEED, registry=_registry))


def test_criterion_10_mode_propositions():
    _report(verify.check_mode_propositions())


def test_criterion_11_tensor_failure_witnesses():
    _report(verify.check_tensor_witnesses(verify.DEFAULT_SEED))


def test_cli_verify_paper_manifest(capsys):
    # the CLI front end over the same checks; caches are warm by now
    code = cli_main(["--output", "json", "--jobs", "2", "verify-paper"])
    out = capsys.readouterr().out
    import json

    manifest = json.loads(out)
    assert manifest["ok"] is True
    names = [c["name"] for c in manifest["checks"]]
    assert len(names) == 11 and len(set(names)) == 11
    assert all(c["passed"] for c in manifest["checks"])
    assert code == 0
