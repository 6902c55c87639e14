"""Mappings from score vectors onto the probability simplex.

The central operation is sparsemax, the Euclidean projection onto the
simplex.  Unlike softmax it assigns exact zeros to low-scoring outcomes,
so results are returned in sparse form: only the support (outcomes with
strictly positive probability) is materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseDistribution",
    "sparsemax",
    "sparsemax_rows",
    "sparsemax_vjp",
    "softmax",
    "softmax_vjp",
    "entropy",
]


def _as_scores(s, ndim=1):
    """Finite float scores: a nonempty vector, or with ``ndim=2`` also a matrix of rows."""
    s = np.asarray(s, dtype=np.float64)
    if not 1 <= s.ndim <= ndim or s.size == 0:
        raise ValueError("scores must be a nonempty 1-d vector" if ndim == 1
                         else "scores must be a nonempty vector or matrix")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


@dataclass(frozen=True, eq=False)
class SparseDistribution:
    """A distribution stored as (index, probability) pairs over its support.

    Indices are unique and sorted ascending, probabilities are strictly
    positive and sum to one.  ``threshold`` is the cutoff tau such that
    prob = score - tau on the support for projection-style mappings.
    """

    indices: np.ndarray
    probs: np.ndarray
    threshold: float
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        pr = np.asarray(self.probs, dtype=np.float64)
        if idx.shape != pr.shape or idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices and probs must be matching nonempty 1-d arrays")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.dim:
            raise ValueError("indices out of range")
        if not np.all(pr > 0):
            raise ValueError("support probabilities must be strictly positive")
        if abs(pr.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to one")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "probs", pr)

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    def densify(self) -> np.ndarray:
        """Expand to a dense length-``dim`` probability vector."""
        out = np.zeros(self.dim)
        out[self.indices] = self.probs
        return out


def _support_test(sorted_desc):
    """Running sums and support size along the last axis.

    Position j (1-based) passes when s_(j) * j > cumsum_j - 1, that is,
    when its score stays above the running threshold.  The support is the
    longest prefix in which every position passes: the sort-based
    projection of Martins & Astudillo (2016).  In exact arithmetic the
    passing positions are exactly that prefix; in floating point a tie a
    hair past the threshold can fail and a later position pass again, and
    the first failure still ends the support.
    """
    css = np.cumsum(sorted_desc, axis=-1)
    j = np.arange(1, sorted_desc.shape[-1] + 1)
    ok = sorted_desc * j > css - 1.0
    return css, np.logical_and.accumulate(ok, axis=-1).sum(axis=-1)


def sparsemax(s) -> SparseDistribution:
    """Euclidean projection of a score vector onto the probability simplex.

    The solution has the form p_i = max(s_i - tau, 0) with tau chosen so
    the result sums to one, read from one descending sort in O(K log K).
    The scores are thresholded relative to their maximum, so a large
    common offset does not swamp the probabilities; ``threshold`` is
    reported in the units of ``s``.
    """
    s = _as_scores(s)
    shift = s.max()
    z = s - shift
    css, rho = _support_test(np.sort(z)[::-1])
    tau = (css[rho - 1] - 1.0) / rho
    # Strict inequality: an entry exactly at the threshold carries zero
    # probability and is excluded from the support.
    idx = np.nonzero(z > tau)[0]
    return SparseDistribution(idx, z[idx] - tau, float(tau + shift), z.size)


def sparsemax_rows(scores) -> np.ndarray:
    """Sparsemax of every row of a (B, K) score matrix, as dense (B, K) rows.

    Row i equals ``sparsemax(scores[i]).densify()`` bit for bit: the same
    max shift, and the same descending sort read by the same support rule.
    Off-support entries are exactly zero.
    """
    s = _as_scores(scores, ndim=2)
    if s.ndim != 2:
        raise ValueError("scores must be a (B, K) matrix")
    z = s - s.max(axis=1, keepdims=True)
    css, rho = _support_test(np.sort(z, axis=1)[:, ::-1])
    tau = (css[np.arange(z.shape[0]), rho - 1] - 1.0) / rho
    return np.where(z > tau[:, None], z - tau[:, None], 0.0)


def sparsemax_vjp(s, dist: SparseDistribution, upstream) -> np.ndarray:
    """Apply the transposed sparsemax Jacobian at ``dist`` to ``upstream``.

    On the support the Jacobian is I - 11^T / n (n = support size), so the
    vjp centers the upstream by its mean over the support.  Off-support
    coordinates get exactly zero: small score changes cannot move them.
    """
    s = _as_scores(s)
    upstream = np.asarray(upstream, dtype=np.float64)
    if s.size != dist.dim or upstream.shape != s.shape:
        raise ValueError("scores, distribution and upstream sizes disagree")
    out = np.zeros(dist.dim)
    u = upstream[dist.indices]
    out[dist.indices] = u - u.mean()
    return out


def softmax(s) -> np.ndarray:
    """Dense softmax, shifted by the max score for stability.

    A (B, K) matrix gives the softmax of every row; each row equals the
    softmax of that row alone, bit for bit.
    """
    s = _as_scores(s, ndim=2)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(p, upstream) -> np.ndarray:
    """Apply the transposed softmax Jacobian at ``p = softmax(s)`` to ``upstream``.

    The Jacobian is diag(p) - p p^T, so the vjp is p * (upstream - p . upstream).
    """
    return p * (upstream - p @ upstream)


def entropy(p) -> float:
    """Shannon entropy in nats of a SparseDistribution or dense vector.

    Zero-probability outcomes contribute nothing (0 log 0 = 0).
    """
    probs = p.probs if isinstance(p, SparseDistribution) else np.asarray(p, dtype=np.float64)
    q = probs[probs > 0]
    return float(-(q * np.log(q)).sum())
