"""Sparse probability mappings with exact backward passes, combinatorial
MAP oracles, and exact marginalization of downstream losses over sparse
supports."""

from .activeset import (
    ActiveSetCycleError,
    DegenerateSupportError,
    SparseMapResult,
    sparsemap,
    sparsemap_rows,
    sparsemap_vjp,
    sparsemap_vjp_probs,
    sparsemap_vjp_rows,
)
from .bitvec import (
    BitVectorPolytope,
    BudgetedBitVectorPolytope,
    IdentityPolytope,
    KBest,
    Structure,
    budget_map_oracle,
    config_matrix,
    enumerate_all,
    kbest,
    kbest_rows,
    map_oracle,
)
from .estimators import (
    Estimate,
    MovingAverageBaseline,
    RowEstimates,
    dense_grad,
    sfe_grad,
    sfe_rows,
    sum_and_sample_grad,
    sum_and_sample_rows,
)
from .marginalize import (
    CallStats,
    LossOracle,
    log_marginal_split,
    sparse_expectation,
)
from .rng import make_rng
from .simplex import (
    SparseDistribution,
    entropy,
    softmax,
    softmax_vjp,
    sparsemax,
    sparsemax_rows,
    sparsemax_vjp,
    sparsemax_vjp_rows,
)
from .topk import TopKResult, top_k, topk_sparsemax, topk_sparsemax_rows, topk_sparsemax_vjp

__version__ = "0.1.0"

__all__ = [
    "ActiveSetCycleError",
    "BitVectorPolytope",
    "BudgetedBitVectorPolytope",
    "CallStats",
    "DegenerateSupportError",
    "Estimate",
    "IdentityPolytope",
    "KBest",
    "LossOracle",
    "MovingAverageBaseline",
    "RowEstimates",
    "SparseDistribution",
    "SparseMapResult",
    "Structure",
    "TopKResult",
    "budget_map_oracle",
    "config_matrix",
    "dense_grad",
    "entropy",
    "enumerate_all",
    "kbest",
    "kbest_rows",
    "log_marginal_split",
    "make_rng",
    "map_oracle",
    "sfe_grad",
    "sfe_rows",
    "softmax",
    "softmax_vjp",
    "sparse_expectation",
    "sparsemap",
    "sparsemap_rows",
    "sparsemap_vjp",
    "sparsemap_vjp_probs",
    "sparsemap_vjp_rows",
    "sparsemax",
    "sparsemax_rows",
    "sparsemax_vjp",
    "sparsemax_vjp_rows",
    "sum_and_sample_grad",
    "sum_and_sample_rows",
    "top_k",
    "topk_sparsemax",
    "topk_sparsemax_rows",
    "topk_sparsemax_vjp",
    "__version__",
]
