"""Cardinality-constrained projections: top-k masking composed with sparsemax.

The composition keeps the k highest scores, projects the kept subvector
onto the simplex, and reports a certificate that is true exactly when the
support ended up strictly smaller than k.  A true certificate means the
mask did not bind, so the result coincides with the unconstrained
sparsemax; masked entries are handled by subsetting, never by writing
-inf placeholders into the score vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import SparseDistribution, _as_scores, sparsemax, sparsemax_vjp

__all__ = ["TopKResult", "top_k", "topk_sparsemax", "topk_sparsemax_vjp"]


@dataclass(frozen=True, eq=False)
class TopKResult:
    """Indices and scores of the k largest entries, ascending by index."""

    indices: np.ndarray
    scores: np.ndarray
    dim: int


def top_k(s, k: int) -> TopKResult:
    """Select the k largest scores; ties go to the lowest index.

    k larger than the vector is clamped: everything is kept.
    """
    s = _as_scores(s)
    if k < 1:
        raise ValueError("k must be >= 1")
    # Stable sort of the negated scores keeps ties in ascending index order.
    order = np.argsort(-s, kind="stable")
    kept = np.sort(order[: min(k, s.size)])
    return TopKResult(kept, s[kept], s.size)


def topk_sparsemax(s, k: int):
    """Sparsemax restricted to the k highest scores.

    Returns ``(dist, certificate)``.  The certificate is true iff the
    support is strictly smaller than k, in which case the cardinality
    constraint was inactive and ``dist`` equals plain sparsemax of ``s``.
    """
    kept = top_k(s, k)
    sub = sparsemax(kept.scores)
    dist = SparseDistribution(
        kept.indices[sub.indices], sub.probs, sub.threshold, kept.dim
    )
    return dist, sub.support_size < k


def topk_sparsemax_vjp(s, k: int, dist: SparseDistribution, upstream) -> np.ndarray:
    """Transposed Jacobian of topk_sparsemax applied to ``upstream``.

    The masking step has a constant multi-hot Jacobian, and the sparsemax
    rows are already zero on kept-but-unsupported coordinates, so the
    composition reduces to the sparsemax vjp on the result's support.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return sparsemax_vjp(s, dist, upstream)
