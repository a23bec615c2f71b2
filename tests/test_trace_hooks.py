"""The benchmark's tracer patches library functions by name, and its
workloads read library results by attribute; these tests keep both working,
so a refactor cannot silently break benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wlpgraph.cli import main
from wlpgraph.ranks import exact_rank_info

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"wlpgraph_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load("tracer")
    for span, module, attr in tracer.TRACED:
        owner = importlib.import_module(f"wlpgraph.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: wlpgraph.{module}.{attr} is missing"
        assert callable(owner), span


def test_classify_spans_recorded(capsys):
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert main(["classify", "--m", "1..2", "--n", "3..4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = set(tracer.names)
    assert tracer.names.count("cli.classify_column") == 2
    assert {"cli.cmd_classify", "lefschetz.wlp_report", "graphs.lollipop"} <= names
    assert all(p >= 0 for n, p in zip(tracer.names, tracer.parents) if n != "cli.cmd_classify")


@pytest.mark.parametrize("workload", ["lollipop-grid", "cycle-wlp", "tensor-blockcheck", "verify-audit"])
def test_workload_gates_pass(workload):
    make_inputs, execute = _load("workloads").WORKLOADS[workload]
    outcome = execute(make_inputs(7, "tiny"))
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.errors


def test_routes_cover_every_rank_method(request):
    # a renamed or orphaned route would silently zero its ranks.route.* metric
    rng = np.random.default_rng(3)
    # 120 * 110 * 110 is over BAREISS_OPS_CAP, so these go to the modular engine
    deficient = (rng.integers(-2, 3, size=(120, 100)) @ rng.integers(-2, 3, size=(100, 110))).tolist()
    corpus = [
        [[0, 0], [0, 0]],                               # trivial
        [[1, 0], [0, 1]],                               # peel
        [[1, 2], [2, 4]],                               # peel+bareiss
        rng.integers(1, 3, size=(120, 110)).tolist(),   # peel+modular-full
        deficient,                                      # peel+modular+nullcert
    ]
    methods = {exact_rank_info(m).method for m in corpus}
    request.getfixturevalue("starved_engine")
    methods.add(exact_rank_info(deficient).method)      # modular-consensus
    assert methods == set(_load("tracer").ROUTES)
