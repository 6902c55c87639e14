"""Cardinality-constrained projections: top-k masking composed with sparsemax.

The composition keeps the k highest scores, projects the kept subvector
onto the simplex, and reports a certificate that is true exactly when the
support ended up strictly smaller than k.  A true certificate means the
mask did not bind, so the result coincides with the unconstrained
sparsemax; masked entries are handled by subsetting, never by writing
-inf placeholders into the score vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .simplex import SparseDistribution, _as_rows, _as_scores, _sparsemax_rows, _support_of
from .simplex import sparsemax_vjp

__all__ = ["TopKResult", "top_k", "topk_sparsemax", "topk_sparsemax_rows", "topk_sparsemax_vjp"]


@dataclass(frozen=True, eq=False)
class TopKResult:
    """Indices and scores of the k largest entries, ascending by index."""

    indices: np.ndarray
    scores: np.ndarray
    dim: int


def _as_k(k) -> int:
    """``k`` read as an integer through ``operator.index``; anything else,
    such as a float, raises a ValueError that names k."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError("k must be an integer, got %r" % (k,)) from None


def _kept(s, k: int):
    """Indices of the k largest scores of a vector, or of each row,
    ascending, and the order they were cut from: every index by
    descending score, ties in ascending index order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = _as_k(k)  # after the range test, so that k < 1 keeps its own error
    order = np.argsort(-s, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1), order


def top_k(s, k: int) -> TopKResult:
    """Select the k largest scores; ties go to the lowest index.

    k larger than the vector is clamped: everything is kept.
    """
    s = _as_scores(s)
    kept, _ = _kept(s, k)
    return TopKResult(kept, s[kept], s.size)


def _topk_sparsemax_rows(s, k: int):
    """Top-k sparsemax of each row of a checked (B, K) matrix: dense
    probabilities, each row's threshold and each row's certificate."""
    kept, _ = _kept(s, k)
    rows = np.arange(s.shape[0])[:, None]
    sub, tau = _sparsemax_rows(s[rows, kept])
    probs = np.zeros(s.shape)
    probs[rows, kept] = sub
    return probs, tau, (sub > 0).sum(axis=1) < k


def topk_sparsemax_rows(scores, k: int):
    """Sparsemax of each row of a (B, K) matrix restricted to its k highest
    scores, as dense (B, K) rows, and each row's certificate: true iff the
    row's support is strictly smaller than k, so that the constraint was
    inactive and the row equals plain sparsemax.  Its vjp is
    :func:`sparsemax_vjp_rows` at the result's supports."""
    probs, _, certificates = _topk_sparsemax_rows(_as_rows(scores), k)
    return probs, certificates


def topk_sparsemax(s, k: int):
    """``(dist, certificate)``: the one-row case of :func:`topk_sparsemax_rows`,
    with ``dist`` in sparse form."""
    s = _as_scores(s)
    probs, tau, certificates = _topk_sparsemax_rows(s[None], k)
    return _support_of(probs[0], tau[0]), bool(certificates[0])


def topk_sparsemax_vjp(s, k: int, dist: SparseDistribution, upstream) -> np.ndarray:
    """Transposed Jacobian of topk_sparsemax applied to ``upstream``.

    The masking step has a constant multi-hot Jacobian, and the sparsemax
    rows are already zero on kept-but-unsupported coordinates, so the
    composition reduces to the sparsemax vjp on the result's support.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _as_k(k)
    return sparsemax_vjp(s, dist, upstream)
