"""Exact-arithmetic toolkit for the weak Lefschetz property of monomial algebras.

Build graphs, form the Artinian algebras defined by their edge ideals plus
all variable squares, compute independence polynomials and Hilbert series,
and decide the weak Lefschetz property by exact integer rank computations of
the multiplication maps.  Includes the tensor-product block-matrix machinery
and the full path/lollipop classification.
"""

import os
import sys

# OpenBLAS reads this when numpy loads it.  Its default (28) lets idle worker
# threads spin for about 2^28 cycles after each threaded product; the rank
# engine's products are small with Python work between them, so that spin was
# most of the process's CPU time.  4 is the smallest value OpenBLAS accepts.
# A caller's value is kept, and once numpy is loaded setting it would do
# nothing.  Waking a sleeping worker costs milliseconds, so the engine runs
# its bounded products with OpenBLAS held at one thread (ranks._one_blas_thread).
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .graphs import (
    Graph,
    VertexSet,
    classify_family,
    closed_neighborhood,
    complete,
    custom,
    disjoint_union,
    is_independent,
    lollipop,
    parse_edge_list,
    path,
    read_edge_list,
)
from .indpoly import (
    IntPolynomial,
    ModeAnalysis,
    check_unimodal_sum,
    independence_polynomial,
    independent_sets_of_size,
    mode_analysis,
    mode_of_path,
)
from .algebra import (
    EmptyGeneratorsError,
    GradedMap,
    LinearForm,
    Monomial,
    MonomialAlgebra,
    NotArtinianError,
    exact_rank,
    from_generators,
    from_graph,
    hilbert_series,
    multiplication_map,
    parse_generators,
)
from .ranks import RankInfo, SparseCols, UncertifiedRankError, rank_bareiss, rank_modular
from .tensor import (
    BlockMatrixReport,
    TensorAlgebra,
    block_matrix,
    tensor_failure_witness,
    tensor_with_squarefree_block,
    verdict_via_theorem,
)
from .lefschetz import (
    DegreeVerdict,
    FailureTag,
    LollipopClassification,
    WlpReport,
    classify_lollipop,
    expected_lollipop_wlp,
    failure_localization,
    wlp_report,
    wlp_report_with_form,
)

__version__ = "0.1.0"

__all__ = [
    "Graph", "VertexSet", "path", "complete", "lollipop", "custom",
    "disjoint_union", "is_independent", "closed_neighborhood",
    "parse_edge_list", "read_edge_list", "classify_family",
    "IntPolynomial", "ModeAnalysis", "independence_polynomial",
    "independent_sets_of_size", "mode_analysis", "mode_of_path",
    "check_unimodal_sum",
    "MonomialAlgebra", "LinearForm", "GradedMap", "Monomial",
    "from_graph", "from_generators", "hilbert_series", "multiplication_map",
    "exact_rank", "parse_generators", "EmptyGeneratorsError", "NotArtinianError",
    "SparseCols", "RankInfo", "UncertifiedRankError", "rank_bareiss", "rank_modular",
    "TensorAlgebra", "BlockMatrixReport", "tensor_with_squarefree_block",
    "block_matrix", "verdict_via_theorem", "tensor_failure_witness",
    "DegreeVerdict", "WlpReport", "FailureTag", "LollipopClassification",
    "wlp_report", "wlp_report_with_form", "classify_lollipop",
    "expected_lollipop_wlp", "failure_localization",
]
