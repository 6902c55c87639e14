"""Mappings from score vectors onto the probability simplex.

The central operation is sparsemax, the Euclidean projection onto the
simplex.  Unlike softmax it assigns exact zeros to low-scoring outcomes.
Each mapping and its vjp is written once, on the rows of a (B, K) matrix;
the 1-d functions are its one-row case, and only they build the sparse
form, a :class:`SparseDistribution` holding just the support.

Each public kernel checks its input and then runs a private core that
checks nothing (``_sparsemax_rows``, ``_softmax_rows``,
``_softmax_vjp_rows``, ``_sparsemax_vjp_pairs``).  Training calls the
cores once its divergence guard has found a batch's scores finite, so the
checks run once per input from outside the program, not once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RowSupports",
    "SparseDistribution",
    "sparsemax",
    "sparsemax_rows",
    "sparsemax_vjp",
    "sparsemax_vjp_rows",
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
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return s


def _as_rows(scores):
    """Finite float scores as a nonempty (B, K) matrix."""
    if np.ndim(scores) != 2:
        raise ValueError("scores must be a (B, K) matrix")
    return _as_scores(scores, ndim=2)


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

    @classmethod
    def _of(cls, indices, probs, threshold: float, dim: int) -> "SparseDistribution":
        """A distribution the library built with every invariant in place:
        int64 indices strictly increasing in range, float64 probabilities
        that are positive and sum to one.  Not checked again."""
        dist = object.__new__(cls)
        for name, value in zip(("indices", "probs", "threshold", "dim"),
                               (indices, probs, threshold, dim)):
            object.__setattr__(dist, name, value)
        return dist

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


def _sparsemax_rows(s):
    """Sparsemax of each row of a checked (B, K) matrix, and each row's
    threshold.  Rows are thresholded relative to their maximum, so a large
    offset does not swamp the probabilities; an entry exactly at the
    threshold gets exactly zero."""
    shift = s.max(axis=1, keepdims=True)
    z = s - shift
    css, rho = _support_test(np.sort(z, axis=1)[:, ::-1])
    tau = ((css[np.arange(z.shape[0]), rho - 1] - 1.0) / rho)[:, None]
    # Each tau is below max(z) = 0, so no z - tau is -0.0, and for finite z
    # it is positive exactly where z > tau: the bits of
    # ``np.where(z > tau, z - tau, 0.0)``.
    return np.maximum(z - tau, 0.0), (tau + shift)[:, 0]


def sparsemax_rows(scores) -> np.ndarray:
    """Euclidean projection of each row of a (B, K) score matrix onto the
    probability simplex, as dense (B, K) rows: p_i = max(s_i - tau, 0), with
    tau read from one descending sort.  :func:`sparsemax` is its one-row case."""
    return _sparsemax_rows(_as_rows(scores))[0]


def sparsemax(s) -> SparseDistribution:
    """Sparsemax of a score vector in sparse form: the one-row case of
    :func:`sparsemax_rows`."""
    s = _as_scores(s)
    probs, tau = _sparsemax_rows(s[None])
    return _support_of(probs[0], tau[0])


def _support_of(probs, tau) -> SparseDistribution:
    """The sparse form of a dense row a sparsemax kernel returned, built
    unchecked: its support holds by construction."""
    idx = np.flatnonzero(probs).astype(np.int64, copy=False)
    return SparseDistribution._of(idx, probs[idx], float(tau), probs.size)


def _row_dots(a, b):
    """``a[..., p] @ b[..., p]`` for each row, each as its own dot product."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class RowSupports:
    """The supports of the rows of a (B, K) probability matrix, as flat
    (row, outcome) pairs sorted stably by the row's support size.

    Each size's rows are one contiguous run, read as an (n, size) block
    with a row's support per line.  A line of a C-ordered block has unit
    stride, so its dot and mean give the bits of the 1-d ``@`` and
    ``mean`` on that support alone.
    """

    shape: tuple  # (B, K) of the probability matrix
    rows: np.ndarray
    outcomes: np.ndarray
    sizes: np.ndarray  # each row's support size
    runs: list  # (rows, start, stop, (n, size)) of each size's run of pairs

    @classmethod
    def of(cls, probs) -> "RowSupports":
        probs = np.asarray(probs)
        rows, outcomes = (probs > 0).nonzero()
        sizes = np.bincount(rows, minlength=len(probs))
        by_size = sizes[rows].argsort(kind="stable")
        rows, runs, at = rows[by_size], [], 0
        for size, n in enumerate(np.bincount(sizes).tolist()):
            if n and size:
                runs.append((rows[at:at + n * size:size], at, at + n * size, (n, size)))
                at += n * size
        return cls(probs.shape, rows, outcomes[by_size], sizes, runs)

    def sweep(self, flat, dots: int = 0):
        """Each row's dots and means over its support, from one read of each
        size's run of the C-ordered (T, pairs) stack ``flat`` of flat terms.

        With ``dots`` > 0, ``flat[0]`` is dotted with ``flat[1:dots + 1]``
        and the rest are averaged; with none, every term is averaged.
        Returns the dots as (dots, B) and the means as (terms averaged, B).
        """
        lead = dots + 1 if dots else 0
        out_dots = np.zeros((dots, self.shape[0]))
        out_means = np.zeros((len(flat) - lead, self.shape[0]))
        for rows, start, stop, shape in self.runs:
            block = flat[:, start:stop].reshape((len(flat),) + shape)
            if dots:
                out_dots[:, rows] = _row_dots(block[0], block[1:lead])
            if lead < len(flat):
                # The bits of ``mean(axis=-1)``, each line's pairwise sum over
                # its length, without the Python layer of ``mean``.
                out_means[:, rows] = np.add.reduce(block[lead:], axis=-1) / shape[1]
        return out_dots, out_means

    def dots(self, p, *terms) -> np.ndarray:
        """Each row's dots of ``p`` with ``terms`` (flat pairs), as (len(terms), B)."""
        return self.sweep(np.array((p,) + terms), len(terms))[0]

    def means(self, flat) -> np.ndarray:
        """Each row's mean of ``flat`` (flat pairs) over its support."""
        return self.sweep(np.asarray(flat)[None])[1][0]


def sparsemax_vjp_rows(supports: RowSupports, upstream) -> np.ndarray:
    """Transposed sparsemax Jacobian of each row, at ``supports`` (those of
    the projection), applied to (B, K) ``upstream``: on a row's support the
    Jacobian is I - 11^T / n, so the vjp is the upstream minus its support
    mean there, and exactly zero off the support."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != supports.shape:
        raise ValueError("upstream must have the (B, K) shape of the supports' matrix")
    u = upstream[supports.rows, supports.outcomes]
    return _sparsemax_vjp_pairs(supports, u, supports.means(u))


def _sparsemax_vjp_pairs(supports: RowSupports, u, mean) -> np.ndarray:
    """:func:`sparsemax_vjp_rows` from the upstream ``u`` on the flat pairs
    and each row's support ``mean`` of it, unchecked: ``u`` minus its row's
    mean on the support, zero off it."""
    out = np.zeros(supports.shape)
    out[supports.rows, supports.outcomes] = u - mean[supports.rows]
    return out


def sparsemax_vjp(s, dist: SparseDistribution, upstream) -> np.ndarray:
    """The sparsemax vjp at ``dist``: the one-row case of :func:`sparsemax_vjp_rows`."""
    s = _as_scores(s)
    upstream = np.asarray(upstream, dtype=np.float64)
    if s.size != dist.dim or upstream.shape != s.shape:
        raise ValueError("scores, distribution and upstream sizes disagree")
    return sparsemax_vjp_rows(RowSupports.of(dist.densify()[None]), upstream[None])[0]


def _softmax_rows(s):
    """Softmax along the last axis of checked finite scores, shifted by
    each row's max: every entry is finite and non-negative, and each row
    sums to one within its rounding."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(s) -> np.ndarray:
    """Dense softmax, shifted by the max score for stability.

    A (B, K) matrix gives the softmax of every row; each row equals the
    softmax of that row alone, bit for bit.  The scores are checked, then
    mapped by the unchecked core that training calls past its guard.
    """
    return _softmax_rows(_as_scores(s, ndim=2))


def _log_softmax(u):
    """Log-softmax along the last axis; each row as if taken alone."""
    shifted = u - u.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_vjp(p, upstream) -> np.ndarray:
    """Apply the transposed softmax Jacobian at ``p = softmax(s)`` to ``upstream``.

    The Jacobian is diag(p) - p p^T, so the vjp is p * (upstream - p . upstream).
    (B, K) matrices give each row's vjp, with the bits of that row alone.
    """
    p, upstream = np.asarray(p, dtype=np.float64), np.asarray(upstream, dtype=np.float64)
    if p.shape != upstream.shape or not 1 <= p.ndim <= 2:
        raise ValueError("p and upstream must have one shape, a vector or a (B, K) matrix")
    return _softmax_vjp_rows(p, upstream)


def _softmax_vjp_rows(p, upstream):
    """:func:`softmax_vjp` of float arrays of one shape, unchecked."""
    return p * (upstream - _row_dots(p, upstream)[..., None])


def entropy(p) -> float:
    """Shannon entropy in nats of a SparseDistribution or dense vector.

    Zero-probability outcomes contribute nothing (0 log 0 = 0).
    """
    probs = p.probs if isinstance(p, SparseDistribution) else np.asarray(p, dtype=np.float64)
    q = probs[probs > 0]
    return float(-(q * np.log(q)).sum())
