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

import math
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
# A growing factor or vertex matrix reserves room for this many structures,
# and twice its size when that is full.
_MIN_ROOM = 16
_ONES = np.ones(128)
_ONES.flags.writeable = False
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


class DegenerateSupportError(RuntimeError):
    """The active support is affinely dependent; the KKT system is singular."""


class ActiveSetCycleError(RuntimeError):
    """The newest structure kept being dropped at zero step length through
    refactorization and three tolerance widenings."""


def _ones(n: int) -> np.ndarray:
    return _ONES[:n] if n <= _ONES.size else np.ones(n)


def _room(buf, n: int, shape) -> np.ndarray:
    """``buf`` if it has a row free past its first ``n``, else a zeroed
    buffer of ``shape`` holding the same leading block."""
    if n < buf.shape[0]:
        return buf
    grown = np.zeros(shape)
    grown[:n, : buf.shape[1]] = buf[:n]
    return grown


def _dtrtrs(L, b, trans: int) -> np.ndarray:
    """Solve ``L x = b`` (``trans=1``) or ``L' x = b`` (``trans=0``) for the
    lower triangle of the leading square block of ``L``: its n C-ordered
    rows, each at least n long.

    LAPACK sees the Fortran view ``L.T``, an upper factor whose leading
    dimension is the row length; this is the call
    ``scipy.linalg.solve_triangular`` makes for a square ``L``, without its
    per-call validation.  An emptied factor is passed as 0 x 0, which
    LAPACK refuses (info -7, a leading dimension below 1).
    """
    x, info = dtrtrs(L.T if L.shape[0] else L[:, :0], b, lower=0, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError("singular triangular factor (dtrtrs info %d)" % info)
    return x


def _triangular_solve(L, b, trans: int) -> np.ndarray:
    """:func:`_dtrtrs` for a right-hand side that must be finite.  ``L`` is
    always a Cholesky factor built here, so only ``b`` needs the check,
    made on Python floats: at the sizes of a support that is faster than
    two numpy calls."""
    if not all(map(math.isfinite, b.ravel().tolist())):
        raise ValueError("right-hand side must be finite")
    return _dtrtrs(L, b, trans)


class CholeskyFactor:
    """Lower-triangular factor of the bordered Gram matrix A'A + 11^T.

    Supports growing by one column (rank-one update against the existing
    factor) and deleting an arbitrary column (row removal followed by
    Givens re-triangularization), plus two-triangular-solve application
    of the inverse.  The factor is the leading block of a buffer with
    room to grow, zero right of its diagonal, and it keeps the largest and
    smallest |diagonal| entry for :meth:`condition_estimate`: exact on an
    append, recomputed on first use after a drop, whose rotations change
    the diagonal.
    """

    def __init__(self, gram):
        gram = np.atleast_2d(np.asarray(gram, dtype=np.float64))
        self._buf = np.linalg.cholesky(gram)
        self._n = self._buf.shape[0]
        self._bounds = None

    def copy(self) -> "CholeskyFactor":
        out = object.__new__(CholeskyFactor)
        out._buf = self._buf.copy()
        out._n = self._n
        out._bounds = self._bounds
        return out

    @property
    def size(self) -> int:
        return self._n

    @property
    def _L(self) -> np.ndarray:
        """The factor, a view of the leading block of the buffer."""
        return self._buf[: self._n, : self._n]

    def append(self, cross, diag: float):
        """Grow by one structure given its cross terms and diagonal entry."""
        n = self._n
        ell = _triangular_solve(self._buf[:n], np.asarray(cross, dtype=np.float64), 1)
        pivot = diag - float(ell @ ell)
        if pivot <= 1e-12 * max(diag, 1.0):
            raise np.linalg.LinAlgError("new column is numerically dependent")
        self._buf = buf = _room(self._buf, n, (max(2 * n, _MIN_ROOM),) * 2)
        buf[n, :n] = ell
        buf[n, n] = root = math.sqrt(pivot)
        self._n = n + 1
        if self._bounds is not None:
            hi, lo = self._bounds
            # A NaN pivot passes the test above; the recompute's numpy max
            # and min then carry the NaN.
            self._bounds = (max(hi, root), min(lo, root)) if root == root else None

    def drop(self, j: int):
        """Delete row/column j of the factored matrix."""
        n = self._n
        M = self._buf
        M[j : n - 1] = M[j + 1 : n]
        # Rows past j now reach one column beyond the diagonal; rotate
        # column pairs to push the factor back to lower-triangular form.
        # Rows above r hold zeros in both columns, so only rows r.. turn.
        # Row n - 1 is left as it was: the next append writes all of it
        # that is not already zero.
        for r in range(j, n - 1):
            a, b = M[r, r], M[r, r + 1]
            rad = float(np.hypot(a, b))
            if rad == 0.0:
                continue
            c, s = a / rad, b / rad
            col_a, col_b = M[r : n - 1, r], M[r : n - 1, r + 1]
            new_a = c * col_a + s * col_b
            M[r : n - 1, r + 1] = c * col_b - s * col_a
            M[r : n - 1, r] = new_a
            M[r, r] = rad
            M[r, r + 1] = 0.0
        self._n = n - 1
        self._bounds = None

    def solve(self, b) -> np.ndarray:
        L = self._buf[: self._n]
        y = _triangular_solve(L, np.asarray(b, dtype=np.float64), 1)
        return _triangular_solve(L, y, 0)

    def solve_ones(self) -> np.ndarray:
        """``solve`` of the all-ones vector, which needs no finite check."""
        L = self._buf[: self._n]
        return _dtrtrs(L, _dtrtrs(L, _ones(self._n), 1), 0)

    def condition_estimate(self) -> float:
        """(max |diag L| / min |diag L|)^2, inf when the smallest is 0."""
        if self._bounds is None:
            d = np.abs(np.diagonal(self._L))
            self._bounds = (float(d.max()), float(d.min()))
        hi, lo = self._bounds
        if not lo > 0:
            return math.inf
        try:
            return (hi / lo) ** 2
        except OverflowError:
            return math.inf


def _vertex_rows(structures) -> np.ndarray:
    """Vertex matrix A' with one C-ordered row per structure, shape (n, D)."""
    return np.array([s.bits for s in structures], dtype=np.float64)


def _gram(rows) -> np.ndarray:
    """Bordered Gram matrix A'A + 11^T of the vertex rows."""
    return rows @ rows.T + 1.0


_OVERFLOW = "scores overflow: a relaxed solve of the active set is not finite"


def _unresolved(t, what: str) -> ValueError:
    """The error for scores whose scale the relaxed solves cannot resolve:
    at |t| near 1e16 and past, A't swamps the simplex constraint's ones."""
    return ValueError("scores too large to resolve (max |t| = %.3g): %s"
                      % (float(np.abs(t).max()), what))


@dataclass(eq=False)
class ActiveSetState:
    """One iterate of the active-set solve.

    ``probs`` are the current simplex weights over ``structures``,
    ``moments`` is their combination A p, and ``kkt_factor`` holds the
    bordered Gram factor for the current support.  ``rows`` is the vertex
    matrix A' (one row per structure), grown and shrunk with the factor;
    it is built from ``structures`` when not given.  ``adds``, ``drops``
    and ``refactorizations`` count support changes and factors rebuilt
    from scratch, and ``max_condition`` is the largest
    :meth:`CholeskyFactor.condition_estimate` met so far: the first
    factor's, then the one checked after each add.
    :func:`sparsemap` advances one state in place;
    :func:`active_set_step` steps a copy and leaves its input as it was.
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
    max_condition: float | None = None
    # ``rows`` is the leading block of this buffer, and ``_known`` holds
    # the bits of every structure in the support.
    _row_buf: np.ndarray = field(init=False, repr=False)
    _known: set = field(init=False, repr=False)

    def __post_init__(self):
        rows = _vertex_rows(self.structures) if self.rows is None else self.rows
        self._row_buf = np.array(rows, dtype=np.float64)
        self.rows = self._row_buf[: len(self.structures)]
        self._known = {s.bits for s in self.structures}
        if self.max_condition is None:
            self.max_condition = self.kkt_factor.condition_estimate()

    def copy(self) -> "ActiveSetState":
        """A state that shares no mutable part with this one."""
        return replace(self, structures=list(self.structures), kkt_factor=self.kkt_factor.copy())

    def _add(self, structure, row):
        n = len(self.structures)
        self._row_buf = buf = _room(self._row_buf, n, (max(2 * n, _MIN_ROOM), row.size))
        buf[n] = row
        self.rows = buf[: n + 1]
        self.structures.append(structure)
        self._known.add(structure.bits)

    def _drop(self, j: int):
        n = len(self.structures)
        buf = self._row_buf
        buf[j : n - 1] = buf[j + 1 : n]
        self.rows = buf[: n - 1]
        self._known.discard(self.structures.pop(j).bits)


def _solve_relaxed(state: ActiveSetState, t):
    """Solve the equality-constrained QP on the current support.

    With K = A'A + 11^T the bordered KKT system reduces to two solves:
    p = K^{-1} A't + (1 - tau) K^{-1} 1, with 1 - tau fixed by 1'p = 1.
    Only A't and what the forward solve makes of it can be non-finite,
    when scores near the float range add up past it.
    """
    try:
        u = state.kkt_factor.solve(state.rows @ t)
    except np.linalg.LinAlgError:  # a ValueError, but not a finite check's
        raise
    except ValueError:
        raise ValueError(_OVERFLOW) from None
    v = state.kkt_factor.solve_ones()
    lam = (1.0 - u.sum()) / v.sum()
    return u + lam * v, 1.0 - lam


def _refactorize(state: ActiveSetState):
    state.kkt_factor = CholeskyFactor(_gram(state.rows))
    state.refactorizations += 1


def _advance(state: ActiveSetState, oracle, t):
    """:func:`active_set_step` made on ``state`` itself.  A step that
    raises may leave ``state`` part-way through it."""
    p_hat, tau_hat = _solve_relaxed(state, t)

    # Python floats are IEEE doubles: the ratio test keeps numpy's bits.
    gamma = 1.0
    blocker = -1
    for j, (p, q) in enumerate(zip(state.probs.tolist(), p_hat.tolist())):
        if p > q:
            ratio = p / (p - q)
            if ratio < gamma:
                gamma = ratio
                blocker = j

    if blocker >= 0 and gamma < 1.0:
        if state.probs.size == 1:
            raise _unresolved(t, "a drop would empty the support")
        # A zero-length drop of the newest structure, the one the previous
        # step added at weight 0, leaves the factor as exactly L[:-1, :-1]
        # and the weights and moments bitwise where the add put them, so the
        # next step would ask the oracle at the same residual and add the
        # same structure again.  Refactorize and widen the dual tolerance,
        # giving up after three rounds.
        cycle = gamma == 0.0 and blocker == state.probs.size - 1
        if cycle and state.widen_count >= 3:
            raise ActiveSetCycleError(
                "active set keeps exchanging the same structure after 3 tolerance widenings"
            )
        probs = (1.0 - gamma) * state.probs + gamma * p_hat
        state.probs = np.delete(probs, blocker)
        state._drop(blocker)
        state.kkt_factor.drop(blocker)
        # No condition check here: in exact arithmetic, deleting a structure
        # conditions each later Cholesky pivot on fewer structures, so no
        # pivot falls, and the next add runs the check again.
        state.moments = state.rows.T @ state.probs
        state.iteration += 1
        state.drops += 1
        if cycle:
            _refactorize(state)
            state.tol *= 10.0
            state.widen_count += 1
        return

    moments = state.rows.T @ p_hat
    candidate = oracle.map(t - moments)
    nu = tau_hat - candidate.score
    if nu >= -state.tol or candidate.bits in state._known:
        state.probs = p_hat
        state.converged = True
    else:
        a_new = candidate.as_array()
        state._add(candidate, a_new)
        try:
            # 0/1 products: whole numbers, so ``dot`` has the bits of ``@``.
            state.kkt_factor.append(
                state.rows[:-1].dot(a_new) + 1.0, float(a_new.dot(a_new)) + 1.0
            )
        except np.linalg.LinAlgError:
            try:
                _refactorize(state)
            except np.linalg.LinAlgError as exc:
                raise DegenerateSupportError(
                    "candidate structure is affinely dependent on the active set"
                ) from exc
        cond = state.kkt_factor.condition_estimate()
        if cond > state.max_condition:
            state.max_condition = cond
        if cond > _COND_LIMIT:
            _refactorize(state)
        state.probs = np.concatenate((p_hat, _ZERO))
        state.adds += 1
    state.moments = moments
    state.tau = tau_hat
    state.nu_min = nu
    state.iteration += 1


def active_set_step(state: ActiveSetState, oracle, t) -> ActiveSetState:
    """One iteration: relaxed QP solve, then either drop a blocking
    structure or query the oracle and add the most violated one.

    A converged state is returned unchanged; otherwise the step is made on
    a copy, which is returned.  The support changes by at most one
    structure per call and the objective never increases.
    """
    if state.converged:
        return state
    out = state.copy()
    _advance(out, oracle, np.asarray(t, dtype=np.float64))
    return out


@dataclass(frozen=True, eq=False)
class SparseMapResult:
    """Converged (or iteration-capped) SparseMAP solution.

    ``probs`` and the rows of the vertex matrix ``rows`` align with
    ``structures``.  ``index_of`` is the oracle's ``outcome_index`` hook
    (``Structure.index`` by default); ``outcome_ids`` applies it to every
    structure when first read, giving its integer code in the polytope's
    outcome space.  ``adds``, ``drops``,
    ``refactorizations`` and ``widenings`` count what the solver did:
    ``iterations == adds + drops + int(converged)``.  ``max_condition`` is
    the largest condition estimate of the bordered Gram factor the solver
    met (see :class:`ActiveSetState`); past 1e12 it rebuilt the factor.
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
    max_condition: float

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

    # Scores near the float range can overflow in the oracle's scores and
    # in A't.  The step that meets a non-finite A't raises ValueError, and
    # numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore"):
        first = oracle.map(t)
        row = first.as_array()
        state = ActiveSetState(
            structures=[first],
            probs=np.array([1.0]),
            moments=row,
            tau=float("nan"),
            kkt_factor=CholeskyFactor(_gram(row[None])),
            tol=tol,
            rows=row[None],
            max_condition=1.0,  # the estimate of a 1 x 1 factor
        )
        for _ in range(max_iter):
            _advance(state, oracle, t)
            if state.converged:
                break

    keep = state.probs > 0.0
    if not keep.any():
        raise _unresolved(t, "no structure keeps positive weight")
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
        max_condition=state.max_condition,
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
    v = factor.solve_ones()
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
