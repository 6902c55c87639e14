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
    "sparsemax_fullsort",
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


@dataclass(frozen=True)
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
    """Running sums and the support condition along the last axis.

    Position j (1-based) passes when its score stays above the running
    threshold (cumsum - 1) / j.  In exact arithmetic the condition holds
    for exactly the first rho positions; in floating point, ties a hair
    past the threshold can fail it and pass again further down, so the
    support size depends on the prefix searched.  Both are prefix
    quantities, so a sorted top-k prefix gives the same bits as the full
    sort.
    """
    css = np.cumsum(sorted_desc, axis=-1)
    j = np.arange(1, sorted_desc.shape[-1] + 1)
    return css, sorted_desc * j > css - 1.0


def _threshold(sorted_desc):
    """Support size and tau from scores sorted in descending order."""
    css, ok = _support_test(sorted_desc)
    rho = int(np.nonzero(ok)[0][-1]) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return rho, tau


def _from_threshold(z, tau, shift):
    # z = s - shift holds the scores relative to their maximum.  Strict
    # inequality: an entry exactly at the threshold carries zero
    # probability and is excluded from the support.
    idx = np.nonzero(z > tau)[0]
    return SparseDistribution(idx, z[idx] - tau, float(tau + shift), z.size)


def sparsemax(s) -> SparseDistribution:
    """Euclidean projection of a score vector onto the probability simplex.

    The solution has the form p_i = max(s_i - tau, 0) with tau chosen so
    the result sums to one.  Works on top-k prefixes of doubling size, so
    the cost stays near O(K) when the solution is sparse; the plain
    O(K log K) full-sort variant is :func:`sparsemax_fullsort`.  Both
    threshold the scores relative to their maximum, so a large common
    offset does not swamp the probabilities; ``threshold`` is reported in
    the units of ``s``.
    """
    s = _as_scores(s)
    shift = s.max()
    z = s - shift
    K = s.size
    k = min(8, K)
    while True:
        if k >= K:
            top = np.sort(z)[::-1]
        else:
            part = np.argpartition(z, K - k)[K - k:]
            top = np.sort(z[part])[::-1]
        rho, tau = _threshold(top)
        if rho < k or k >= K:
            return _from_threshold(z, tau, shift)
        k = min(2 * k, K)


def sparsemax_fullsort(s) -> SparseDistribution:
    """Sparsemax via one full descending sort (reference path)."""
    s = _as_scores(s)
    shift = s.max()
    z = s - shift
    _, tau = _threshold(np.sort(z)[::-1])
    return _from_threshold(z, tau, shift)


def sparsemax_rows(scores) -> np.ndarray:
    """Sparsemax of every row of a (B, K) score matrix, as dense (B, K) rows.

    Row i equals ``sparsemax(scores[i]).densify()`` bit for bit: the same
    max shift, the same prefix sums and support test, and the same support
    size, found by replaying the 1-d solver's doubling prefixes (8, 16, ...)
    on one full row sort.  Off-support entries are exactly zero.
    """
    s = _as_scores(scores, ndim=2)
    if s.ndim != 2:
        raise ValueError("scores must be a (B, K) matrix")
    z = s - s.max(axis=1, keepdims=True)
    css, ok = _support_test(np.sort(z, axis=1)[:, ::-1])
    B, K = z.shape
    rows = np.arange(B)
    rho = np.zeros(B, dtype=np.int64)
    todo = np.ones(B, dtype=bool)
    k = min(8, K)
    while todo.any():
        # Support size on the prefix of length k: one past its last pass.
        last = k - np.argmax(ok[:, k - 1::-1], axis=1)
        done = todo & ((last < k) | (k >= K))
        rho[done] = last[done]
        todo &= ~done
        k = min(2 * k, K)
    tau = (css[rows, rho - 1] - 1.0) / rho
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
