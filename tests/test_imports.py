"""Every module-level import of the library is used in its module, and only
the modules that draw seeded inputs import ``random``.  Importing the
command line does no more work than it did, and leaves the lookup of
OpenBLAS's thread controls to the first rank that uses them.
Importing the package sets OpenBLAS's idle-thread default only where that can
take effect.

No linter runs on this tree, so a deletion that leaves an import behind is
caught here instead.  ``__init__.py`` is exempt: its imports are the public
re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wlpgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        "line 1: os", "line 2: lcm"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports, anywhere."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_seeded_input_modules_import_random():
    # no result may depend on a prime or a pivot drawn at random: verify and
    # cli draw the seeded random inputs of the checks, and nothing else does
    users = [p.stem for p in sorted(PACKAGE.glob("*.py"))
             if "random" in _imported_modules(p.read_text(encoding="utf-8"))]
    assert users == ["cli", "verify"]


# Records every prime that _is_prime confirms while wlpgraph.cli is
# imported, then prints them and the engine's prime.
_WATCH_PRIMES = """
import sys
found = []
def watch(frame, event, arg):
    if event == "return" and frame.f_code.co_name == "_is_prime" and arg:
        found.append(frame.f_locals["n"])
sys.setprofile(watch)
import wlpgraph.cli
sys.setprofile(None)
from wlpgraph import ranks
print(*found, ranks.ENGINE_PRIME)
"""


def _child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this checkout,
    without the thread timeout this process set when it imported wlpgraph."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return {**env, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]), **extra}


def test_cli_import_makes_only_the_engine_primes():
    # every command pays for its import: the engine's one prime is made
    # then, and the primes of the certificate's CRT fallback, which lie
    # below it, only when a certificate needs one
    env = _child_env()
    out = subprocess.run([sys.executable, "-c", _WATCH_PRIMES], env=env,
                         capture_output=True, text=True, check=True).stdout
    *found, engine = map(int, out.split())
    assert found == [engine] == [(1 << 20) - 3]


@pytest.mark.parametrize("imports, extra, expected", [
    ("wlpgraph", {}, "4"),
    ("wlpgraph", {"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
    # OpenBLAS read its environment when numpy loaded it: nothing to set
    ("numpy, wlpgraph", {}, "None"),
], ids=["clean", "caller-value", "numpy-first"])
def test_openblas_thread_timeout_default(imports, extra, expected):
    code = f"import os, {imports}; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(**extra),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == expected


# Prints how often the lookup of OpenBLAS's thread controls has run: after
# the CLI is imported, and after one hold.
_WATCH_BLAS_LOOKUP = """
import wlpgraph.cli
from wlpgraph import ranks
print(ranks._blas_threads.cache_info().misses)
with ranks._one_blas_thread():
    pass
print(ranks._blas_threads.cache_info().misses)
"""


def test_cli_import_leaves_the_blas_lookup_for_first_use():
    # the engine looks up the thread controls when it first holds BLAS at
    # one thread, so a command that never does pays nothing for them
    out = subprocess.run([sys.executable, "-c", _WATCH_BLAS_LOOKUP], env=_child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "1"]
