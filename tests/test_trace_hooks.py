"""The benchmark's tracer patches library functions by name; these tests keep
those names resolvable, so a refactor cannot silently break traced runs."""

import importlib
import importlib.util
from pathlib import Path

from wlpgraph.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("wlpgraph_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for span, module, attr in tracer.TRACED:
        owner = importlib.import_module(f"wlpgraph.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: wlpgraph.{module}.{attr} is missing"
        assert callable(owner), span


def test_classify_spans_recorded(capsys):
    tracer = _load_tracer().Tracer()
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
