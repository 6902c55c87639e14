"""Sparse probability mappings with exact backward passes, combinatorial
MAP oracles, and exact marginalization of downstream losses over sparse
supports."""

from .activeset import (
    ActiveSetCycleError,
    ActiveSetState,
    CholeskyFactor,
    DegenerateSupportError,
    SparseMapResult,
    active_set_step,
    sparsemap,
    sparsemap_vjp,
    sparsemap_vjp_probs,
)
from .bitvec import (
    BitVectorPolytope,
    BudgetedBitVectorPolytope,
    IdentityPolytope,
    Structure,
    budget_map_oracle,
    config_matrix,
    enumerate_all,
    kbest,
    map_oracle,
)
from .estimators import (
    Estimate,
    MovingAverageBaseline,
    dense_grad,
    sfe_grad,
    sum_and_sample_grad,
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
    sparsemax_vjp,
)
from .topk import TopKResult, top_k, topk_sparsemax, topk_sparsemax_vjp

__version__ = "0.1.0"

__all__ = [
    "ActiveSetCycleError",
    "ActiveSetState",
    "BitVectorPolytope",
    "BudgetedBitVectorPolytope",
    "CallStats",
    "CholeskyFactor",
    "DegenerateSupportError",
    "Estimate",
    "IdentityPolytope",
    "LossOracle",
    "MovingAverageBaseline",
    "SparseDistribution",
    "SparseMapResult",
    "Structure",
    "TopKResult",
    "active_set_step",
    "budget_map_oracle",
    "config_matrix",
    "dense_grad",
    "entropy",
    "enumerate_all",
    "kbest",
    "log_marginal_split",
    "make_rng",
    "map_oracle",
    "sfe_grad",
    "softmax",
    "softmax_vjp",
    "sparse_expectation",
    "sparsemap",
    "sparsemap_vjp",
    "sparsemap_vjp_probs",
    "sparsemax",
    "sparsemax_vjp",
    "sum_and_sample_grad",
    "top_k",
    "topk_sparsemax",
    "topk_sparsemax_vjp",
    "__version__",
]
