"""SparseMAP: quadratic projection of variable scores onto the moment
polytope of a structured space, solved by an active-set method.

Given a polytope exposing a maximization oracle ``map(t)`` over vertices
a_z in {0,1}^D, solve

    min_{p in simplex} || A p - t ||^2

where the columns of A are the vertices touched so far.  The solution
puts positive weight on at most D + 1 structures, found by alternating
relaxed equality-constrained QP solves with oracle calls on the residual
scores.  The relaxed solves go through a Cholesky factor of the bordered
Gram matrix A'A + 11^T, which stays positive definite even when a support
contains the all-zeros vertex and absorbs the simplex equality constraint,
and which is grown and shrunk by one structure per iteration.

The backward pass differentiates the fixed-support KKT system; both vjps
(through the structure probabilities and through the moments) reuse the
same bordered projection.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .bitvec import Structure
from .simplex import SparseDistribution

__all__ = [
    "ActiveSetState",
    "SparseMapResult",
    "CholeskyFactor",
    "DegenerateSupportError",
    "ActiveSetCycleError",
    "active_set_step",
    "sparsemap",
    "sparsemap_vjp",
    "sparsemap_vjp_probs",
]

_COND_LIMIT = 1e12
# Outcome ids are int64 while every id fits; past that they stay Python ints.
_INT64_OUTCOMES = 1 << 63


class DegenerateSupportError(RuntimeError):
    """The active support is affinely dependent; the KKT system is singular."""


class ActiveSetCycleError(RuntimeError):
    """The newest structure kept being dropped at zero step length through
    refactorization and three tolerance widenings."""


def _triangular_solve(L, b, trans: int) -> np.ndarray:
    """Solve ``L x = b`` (``trans=1``) or ``L' x = b`` (``trans=0``) for a
    C-ordered lower-triangular ``L``.

    LAPACK sees the Fortran view ``L.T``, an upper factor; this is the
    call ``scipy.linalg.solve_triangular`` makes for that layout, without
    its per-call validation.  ``L`` is always a Cholesky factor built
    here, so only the right-hand side needs the finite check.
    """
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite")
    x, info = dtrtrs(L.T, b, lower=0, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError("singular triangular factor (dtrtrs info %d)" % info)
    return x


class CholeskyFactor:
    """Lower-triangular factor of the bordered Gram matrix A'A + 11^T.

    Supports growing by one column (rank-one update against the existing
    factor) and deleting an arbitrary column (row removal followed by
    Givens re-triangularization), plus two-triangular-solve application
    of the inverse.
    """

    def __init__(self, gram):
        gram = np.atleast_2d(np.asarray(gram, dtype=np.float64))
        self._L = np.linalg.cholesky(gram)

    def copy(self) -> "CholeskyFactor":
        out = object.__new__(CholeskyFactor)
        out._L = self._L.copy()
        return out

    @property
    def size(self) -> int:
        return self._L.shape[0]

    def append(self, cross, diag: float):
        """Grow by one structure given its cross terms and diagonal entry."""
        L = self._L
        ell = _triangular_solve(L, np.asarray(cross, dtype=np.float64), 1)
        pivot = diag - ell @ ell
        if pivot <= 1e-12 * max(diag, 1.0):
            raise np.linalg.LinAlgError("new column is numerically dependent")
        n = L.shape[0]
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = L
        grown[n, :n] = ell
        grown[n, n] = np.sqrt(pivot)
        self._L = grown

    def drop(self, j: int):
        """Delete row/column j of the factored matrix."""
        L = self._L
        n = L.shape[0]
        M = np.delete(L, j, axis=0)
        # Rows past j now reach one column beyond the diagonal; rotate
        # column pairs to push the factor back to lower-triangular form.
        for r in range(j, n - 1):
            a, b = M[r, r], M[r, r + 1]
            rad = float(np.hypot(a, b))
            if rad == 0.0:
                continue
            c, s = a / rad, b / rad
            col_a = M[:, r].copy()
            col_b = M[:, r + 1].copy()
            M[:, r] = c * col_a + s * col_b
            M[:, r + 1] = c * col_b - s * col_a
            M[r, r] = rad
            M[r, r + 1] = 0.0
        self._L = np.ascontiguousarray(M[:, : n - 1])

    def solve(self, b) -> np.ndarray:
        y = _triangular_solve(self._L, np.asarray(b, dtype=np.float64), 1)
        return _triangular_solve(self._L, y, 0)

    def condition_estimate(self) -> float:
        d = np.abs(np.diag(self._L))
        lo = d.min()
        return float((d.max() / lo) ** 2) if lo > 0 else np.inf


def _vertex_rows(structures) -> np.ndarray:
    """Vertex matrix A' with one C-ordered row per structure, shape (n, D)."""
    return np.array([s.bits for s in structures], dtype=np.float64)


def _gram(rows) -> np.ndarray:
    """Bordered Gram matrix A'A + 11^T of the vertex rows."""
    return rows @ rows.T + 1.0


def _bordered_gram(structures) -> np.ndarray:
    return _gram(_vertex_rows(structures))


@dataclass(eq=False)
class ActiveSetState:
    """One iterate of the active-set solve.

    ``probs`` are the current simplex weights over ``structures``,
    ``moments`` is their combination A p, and ``kkt_factor`` holds the
    bordered Gram factor for the current support.  ``rows`` is the vertex
    matrix A' (one row per structure), grown and shrunk with the factor;
    it is built from ``structures`` when not given.  ``adds``, ``drops``
    and ``refactorizations`` count support changes and factors rebuilt
    from scratch.  States are treated as immutable:
    :func:`active_set_step` returns a fresh state.
    """

    structures: list
    probs: np.ndarray
    moments: np.ndarray
    tau: float
    kkt_factor: CholeskyFactor
    iteration: int = 0
    converged: bool = False
    nu_min: float = float("nan")
    tol: float = 1e-9
    widen_count: int = 0
    rows: np.ndarray | None = field(default=None, repr=False)
    adds: int = 0
    drops: int = 0
    refactorizations: int = 0

    def __post_init__(self):
        if self.rows is None:
            self.rows = _vertex_rows(self.structures)


def _solve_relaxed(state: ActiveSetState, t):
    """Solve the equality-constrained QP on the current support.

    With K = A'A + 11^T the bordered KKT system reduces to two solves:
    p = K^{-1} A't + (1 - tau) K^{-1} 1, with 1 - tau fixed by 1'p = 1.
    """
    u = state.kkt_factor.solve(state.rows @ t)
    v = state.kkt_factor.solve(np.ones(len(state.structures)))
    lam = (1.0 - u.sum()) / v.sum()
    return u + lam * v, 1.0 - lam


def _handle_cycle(state: ActiveSetState) -> ActiveSetState:
    # Called after a zero-length drop of the newest structure, the one the
    # previous step added at weight 0.  That drop leaves the factor as
    # exactly L[:-1, :-1] and the weights and moments bitwise where the add
    # put them, so the next step would ask the oracle at the same residual
    # and add the same structure again.  Refactorize and widen the dual
    # tolerance, giving up after three rounds.
    if state.widen_count >= 3:
        raise ActiveSetCycleError(
            "active set keeps exchanging the same structure after 3 tolerance widenings"
        )
    return replace(
        state,
        kkt_factor=CholeskyFactor(_gram(state.rows)),
        tol=state.tol * 10.0,
        widen_count=state.widen_count + 1,
        refactorizations=state.refactorizations + 1,
    )


def active_set_step(state: ActiveSetState, oracle, t) -> ActiveSetState:
    """One iteration: relaxed QP solve, then either drop a blocking
    structure or query the oracle and add the most violated one.

    A converged state is returned unchanged.  The support changes by at
    most one structure per call and the objective never increases.
    """
    if state.converged:
        return state
    t = np.asarray(t, dtype=np.float64)
    p_hat, tau_hat = _solve_relaxed(state, t)
    probs = state.probs

    gamma = 1.0
    blocker = -1
    for j in range(probs.size):
        if probs[j] > p_hat[j]:
            ratio = probs[j] / (probs[j] - p_hat[j])
            if ratio < gamma:
                gamma = ratio
                blocker = j

    if blocker >= 0 and gamma < 1.0:
        new_probs = (1.0 - gamma) * probs + gamma * p_hat
        new_probs[blocker] = 0.0
        structures = [s for i, s in enumerate(state.structures) if i != blocker]
        rows = np.delete(state.rows, blocker, axis=0)
        new_probs = np.delete(new_probs, blocker)
        factor = state.kkt_factor.copy()
        factor.drop(blocker)
        # No condition check here: in exact arithmetic, deleting a structure
        # conditions each later Cholesky pivot on fewer structures, so no
        # pivot falls, and the next add runs the check again.
        out = replace(
            state,
            structures=structures,
            rows=rows,
            probs=new_probs,
            moments=rows.T @ new_probs,
            kkt_factor=factor,
            iteration=state.iteration + 1,
            drops=state.drops + 1,
        )
        if gamma == 0.0 and blocker == probs.size - 1:
            # Only this drop can repeat; see _handle_cycle.
            out = _handle_cycle(out)
        return out

    moments = state.rows.T @ p_hat
    candidate = oracle.map(t - moments)
    nu = tau_hat - candidate.score
    known = any(s.bits == candidate.bits for s in state.structures)
    if nu >= -state.tol or known:
        return replace(
            state,
            probs=p_hat,
            moments=moments,
            tau=tau_hat,
            iteration=state.iteration + 1,
            converged=True,
            nu_min=nu,
        )

    a_new = candidate.as_array()
    rows = np.vstack([state.rows, a_new])
    factor = state.kkt_factor.copy()
    refactorizations = state.refactorizations
    try:
        factor.append(state.rows @ a_new + 1.0, float(a_new @ a_new) + 1.0)
    except np.linalg.LinAlgError:
        try:
            factor = CholeskyFactor(_gram(rows))
        except np.linalg.LinAlgError as exc:
            raise DegenerateSupportError(
                "candidate structure is affinely dependent on the active set"
            ) from exc
        refactorizations += 1
    if factor.condition_estimate() > _COND_LIMIT:
        factor = CholeskyFactor(_gram(rows))
        refactorizations += 1
    return replace(
        state,
        structures=state.structures + [candidate],
        rows=rows,
        probs=np.append(p_hat, 0.0),
        moments=moments,
        tau=tau_hat,
        kkt_factor=factor,
        iteration=state.iteration + 1,
        adds=state.adds + 1,
        refactorizations=refactorizations,
        nu_min=nu,
    )


@dataclass(frozen=True, eq=False)
class SparseMapResult:
    """Converged (or iteration-capped) SparseMAP solution.

    ``probs`` and the rows of the vertex matrix ``rows`` align with
    ``structures``.  ``index_of`` is the oracle's ``outcome_index`` hook
    (``Structure.index`` by default); ``outcome_ids`` applies it to every
    structure when first read, giving its integer code in the polytope's
    outcome space.  ``adds``, ``drops``,
    ``refactorizations`` and ``widenings`` count what the solver did:
    ``iterations == adds + drops + int(converged)``.
    """

    structures: list
    probs: np.ndarray
    moments: np.ndarray
    tau: float
    converged: bool
    iterations: int
    nu_min: float
    n_outcomes: int
    index_of: Callable = field(repr=False)
    rows: np.ndarray = field(repr=False)
    adds: int
    drops: int
    refactorizations: int
    widenings: int

    @property
    def support_size(self) -> int:
        return len(self.structures)

    @cached_property
    def outcome_ids(self) -> np.ndarray:
        """The structures' codes: int64 while ``n_outcomes`` fits, and
        Python ints (object dtype) past that."""
        return np.array(
            [self.index_of(s) for s in self.structures],
            dtype=np.int64 if self.n_outcomes <= _INT64_OUTCOMES else object,
        )

    @property
    def distribution(self) -> SparseDistribution:
        if self.n_outcomes > _INT64_OUTCOMES:
            raise ValueError(
                "a SparseDistribution keys outcomes by int64, but this polytope "
                "has %d outcomes; use structures and outcome_ids" % self.n_outcomes
            )
        order = np.argsort(self.outcome_ids)
        return SparseDistribution(
            self.outcome_ids[order], self.probs[order], self.tau, self.n_outcomes
        )


def sparsemap(oracle, t, *, max_iter: int | None = None, tol: float = 1e-9) -> SparseMapResult:
    """Project ``t`` onto the polytope served by ``oracle``.

    ``oracle`` must expose ``dim`` and ``map(scores) -> Structure``; the
    optional ``n_outcomes`` / ``outcome_index`` hooks control how the
    result is keyed as a distribution.  Starts from the MAP vertex and
    runs until the oracle certifies dual feasibility (``nu_min >= -tol``)
    or ``max_iter`` (default 100 + 10 D) steps have been taken.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or t.size != oracle.dim:
        raise ValueError("scores must be a 1-d vector of length oracle.dim")
    if not np.all(np.isfinite(t)):
        raise ValueError("scores must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 100 + 10 * oracle.dim
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    first = oracle.map(t)
    state = ActiveSetState(
        structures=[first],
        probs=np.array([1.0]),
        moments=first.as_array(),
        tau=float("nan"),
        kkt_factor=CholeskyFactor(_bordered_gram([first])),
        tol=tol,
    )
    for _ in range(max_iter):
        state = active_set_step(state, oracle, t)
        if state.converged:
            break

    keep = state.probs > 0.0
    structures = [s for s, k in zip(state.structures, keep) if k]
    probs = state.probs[keep]
    return SparseMapResult(
        structures=structures,
        probs=probs,
        moments=state.moments,
        tau=state.tau,
        converged=state.converged,
        iterations=state.iteration,
        nu_min=state.nu_min,
        n_outcomes=getattr(oracle, "n_outcomes", 1 << oracle.dim),
        index_of=getattr(oracle, "outcome_index", lambda s: s.index),
        rows=state.rows[keep],
        adds=state.adds,
        drops=state.drops,
        refactorizations=state.refactorizations,
        widenings=state.widen_count,
    )


def _apply_kkt_projection(rows, vec) -> np.ndarray:
    """Apply X = K^{-1} - K^{-1}1 1'K^{-1} / (1'K^{-1}1), K = A'A + 11^T.

    X is the fixed-support sensitivity of the probabilities to their
    scores A't; it reduces to the centering projector I - 11^T/n when the
    structures are orthonormal one-hots.
    """
    try:
        factor = CholeskyFactor(_gram(rows))
    except np.linalg.LinAlgError as exc:
        raise DegenerateSupportError("active-set Gram matrix is singular") from exc
    u = factor.solve(np.asarray(vec, dtype=np.float64))
    v = factor.solve(np.ones(rows.shape[0]))
    return u - (u.sum() / v.sum()) * v


def sparsemap_vjp_probs(result: SparseMapResult, upstream) -> np.ndarray:
    """Gradient w.r.t. t of sum_z upstream_z * prob_z at fixed support.

    ``upstream`` aligns with ``result.structures``.  Differentiates the
    KKT system of the relaxed QP on the converged support; constants in
    the upstream vanish because X annihilates the ones vector.
    """
    if not result.converged:
        raise ValueError("backward pass requires a converged result")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(result.structures),):
        raise ValueError("upstream must align with the support structures")
    x = _apply_kkt_projection(result.rows, upstream)
    return result.rows.T @ x


def sparsemap_vjp(result: SparseMapResult, upstream_moments) -> np.ndarray:
    """Gradient w.r.t. t of <upstream, moments(t)> at fixed support."""
    upstream_moments = np.asarray(upstream_moments, dtype=np.float64)
    if upstream_moments.shape != result.moments.shape:
        raise ValueError("upstream must match the moments vector")
    if not np.all(np.isfinite(upstream_moments)):
        raise ValueError("upstream must be finite")
    return sparsemap_vjp_probs(result, result.rows @ upstream_moments)
