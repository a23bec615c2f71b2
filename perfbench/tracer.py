"""In-memory spans around the public functions of each ``wlpgraph`` layer.

The library itself is not instrumented: :class:`Tracer` replaces a function
in every ``wlpgraph`` module namespace that binds it, because ``lefschetz``,
``tensor``, ``verify`` and ``cli`` import names with ``from .x import y`` and
patching only the defining module would miss their calls.  Spans are kept in
parallel lists and turned into per-layer metrics after the workload ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# (span name, defining module, attribute) for every traced public function.
# Span names are "<layer>.<function>"; the layer is the package module.
TRACED = (
    ("graphs.path", "graphs", "path"),
    ("graphs.lollipop", "graphs", "lollipop"),
    ("graphs.custom", "graphs", "custom"),
    ("graphs.classify_family", "graphs", "classify_family"),
    ("indpoly.enumerate", "indpoly", "independent_set_masks_by_size"),
    ("indpoly.independence_polynomial", "indpoly", "independence_polynomial"),
    ("algebra.from_graph", "algebra", "from_graph"),
    ("algebra.from_generators", "algebra", "from_generators"),
    ("algebra.multiplication_map", "algebra", "multiplication_map"),
    ("ranks.exact_rank_info", "ranks", "exact_rank_info"),
    ("ranks.rank_bareiss", "ranks", "rank_bareiss"),
    ("ranks.rank_modular", "ranks", "rank_modular"),
    ("ranks.null_vectors", "ranks", "exact_right_null_vectors"),
    ("ranks.matmul", "ranks", "SparseCols.matmul"),
    ("reductions.path_ell2_rank", "reductions", "path_ell2_rank"),
    ("reductions.path_ell_matrix", "reductions", "path_ell_matrix"),
    ("lefschetz.wlp_report", "lefschetz", "wlp_report"),
    ("tensor.realize", "tensor", "tensor_with_squarefree_block"),
    ("tensor.verdict", "tensor", "verdict_via_theorem"),
    ("verify.check_path_classification", "verify", "check_path_classification"),
    ("verify.check_failure_localization", "verify", "check_failure_localization"),
    ("verify.check_theorem_equivalence", "verify", "check_theorem_equivalence"),
    ("verify.check_block_structure", "verify", "check_block_structure"),
    ("verify.check_hilbert_independence_identity", "verify",
     "check_hilbert_independence_identity"),
    ("verify.check_tensor_witnesses", "verify", "check_tensor_witnesses"),
    ("verify.check_rank_engines", "verify", "check_rank_engines"),
    ("cli.cmd_classify", "cli", "cmd_classify"),
    ("cli.classify_column", "cli", "_classify_column"),
    ("cli.cmd_blockcheck", "cli", "cmd_blockcheck"),
)

ROUTES = {
    "trivial": "ranks.route.trivial",
    "peel": "ranks.route.peel",
    "peel+bareiss": "ranks.route.peel_bareiss",
    "peel+modular-full": "ranks.route.modular_full",
    "peel+modular+nullcert": "ranks.route.nullcert",
    "modular-consensus": "ranks.route.consensus",
}


def _note_rank(args, kwargs, info):
    return {"shape": list(info.shape), "nnz": info.nnz, "rank": info.rank,
            "route": info.method, "certified": info.certified}


def _note_null_vectors(args, kwargs, vecs):
    count = kwargs["count"] if "count" in kwargs else args[1]
    return {"requested": count, "returned": len(vecs)}


NOTES = {
    "ranks.exact_rank_info": _note_rank,
    "ranks.null_vectors": _note_null_vectors,
}


class Tracer:
    """Records one span per call of each function in :data:`TRACED`."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.child_time: list[float] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            parent = self._stack[-1] if self._stack else -1
            self.names.append(name)
            self.parents.append(parent)
            self.starts.append(0.0)
            self.durations.append(0.0)
            self.child_time.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self.starts[idx] = t0
                self.durations[idx] = dur
                if parent >= 0:
                    self.child_time[parent] += dur
            if note is not None:
                self.notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Patch every traced function wherever a ``wlpgraph`` module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "wlpgraph" or n.startswith("wlpgraph.")]
        for name, module, attr in TRACED:
            owner = sys.modules[f"wlpgraph.{module}"]
            if "." in attr:  # a method: patch the class attribute once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def self_time(self, idx: int) -> float:
        return self.durations[idx] - self.child_time[idx]

    def top_level_seconds(self) -> float:
        return sum(d for d, p in zip(self.durations, self.parents) if p < 0)

    def slowest_rank_calls(self, count: int = 10) -> list[dict]:
        calls = [(self.durations[i], i) for i, n in enumerate(self.names)
                 if n == "ranks.exact_rank_info"]
        calls.sort(reverse=True)
        return [dict(self.notes.get(i, {}), seconds=round(d, 6)) for d, i in calls[:count]]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""
        by_name: dict[str, list[int]] = {}
        for i, n in enumerate(self.names):
            by_name.setdefault(n, []).append(i)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(self.durations[i] for i in spans(name))

        def self_total(name):
            return sum(self.self_time(i) for i in spans(name))

        def matmul_under(layer):
            return sum(self.durations[i] for i in spans("ranks.matmul")
                       if self.parents[i] >= 0 and self.names[self.parents[i]].startswith(layer))

        rank_calls = spans("ranks.exact_rank_info")
        rank_notes = [self.notes.get(i, {}) for i in rank_calls]
        ell2 = spans("reductions.path_ell2_rank")
        eliminated = {self.parents[i] for i in rank_calls} & set(ell2)
        null_notes = [self.notes.get(i, {}) for i in spans("ranks.null_vectors")]
        requested = sum(n.get("requested", 0) for n in null_notes)
        returned = sum(n.get("returned", 0) for n in null_notes)
        rank_durations = [self.durations[i] for i in rank_calls]
        reports = [self.durations[i] for i in spans("lefschetz.wlp_report")]
        checks = [i for n, idx in by_name.items() if n.startswith("verify.check_") for i in idx]

        out = {
            "graphs.build_s": total("graphs.path") + total("graphs.lollipop")
            + total("graphs.custom") + total("graphs.classify_family"),
            "indpoly.enumerate_s": self_total("indpoly.enumerate"),
            "indpoly.enumerate_calls": len(spans("indpoly.enumerate")),
            "algebra.assemble_s": self_total("algebra.multiplication_map")
            + matmul_under("algebra."),
            "algebra.assemble_calls": len(spans("algebra.multiplication_map")),
            "algebra.from_generators_s": self_total("algebra.from_generators"),
            "tensor.realize_s": self_total("tensor.realize"),
            "tensor.verdict_self_s": self_total("tensor.verdict"),
            "reductions.ell2_calls": len(ell2),
            "reductions.ell2_eliminations": len(eliminated),
            "reductions.ell2_hit_ratio": (len(ell2) - len(eliminated)) / len(ell2) if ell2 else 0.0,
            "reductions.matrix_s": total("reductions.path_ell_matrix")
            + matmul_under("reductions."),
            "ranks.calls": len(rank_calls),
        }
        for route, metric in ROUTES.items():
            out[metric] = sum(1 for n in rank_notes if n.get("route") == route)
        out.update({
            "ranks.engine_s": sum(rank_durations),
            "ranks.elim_s": self_total("ranks.exact_rank_info"),
            "ranks.nullcert_s": total("ranks.null_vectors"),
            "ranks.nullcert_calls": len(null_notes),
            "ranks.nullvec_yield": returned / requested if requested else 1.0,
            "ranks.bareiss_s": total("ranks.rank_bareiss"),
            "ranks.crosscheck_s": total("ranks.rank_modular"),
            "ranks.call_p50_us": statistics.median(rank_durations) * 1e6 if rank_durations else 0.0,
            "ranks.max_call_s": max(rank_durations, default=0.0),
            "ranks.uncertified": sum(1 for n in rank_notes if not n.get("certified", True)),
            "lefschetz.report_max_s": max(reports, default=0.0),
            "verify.checks_s": sum(self.durations[i] for i in checks),
            "cli.self_s": self_total("cli.cmd_classify") + self_total("cli.classify_column")
            + self_total("cli.cmd_blockcheck"),
        })
        return out

    def dump(self) -> dict:
        """Every span as [name, parent index, start, duration], plus call notes."""
        return {
            "spans": [[n, p, round(s, 6), round(d, 6)] for n, p, s, d in
                      zip(self.names, self.parents, self.starts, self.durations)],
            "notes": {str(i): n for i, n in self.notes.items()},
        }
