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

The rows of a score matrix are solved together (:func:`sparsemap_rows`):
every row advances one step at a time, and each step takes the rows of
one support size at once, as stacked arrays, leaving only the triangular
solves and the factor updates to each row.  Every row keeps the bits of
its solve alone, so :func:`sparsemap` and :func:`active_set_step` are
the one-row case.

The backward pass differentiates the fixed-support KKT system; both vjps
(through the structure probabilities and through the moments) reuse the
same bordered projection, taken for a batch of solutions grouped by
support size (:func:`sparsemap_vjp_rows`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .bitvec import Structure
from .simplex import SparseDistribution, _row_dots

__all__ = [
    "ActiveSetState",
    "SparseMapResult",
    "CholeskyFactor",
    "DegenerateSupportError",
    "ActiveSetCycleError",
    "active_set_step",
    "sparsemap",
    "sparsemap_rows",
    "sparsemap_vjp",
    "sparsemap_vjp_probs",
    "sparsemap_vjp_rows",
]

_COND_LIMIT = 1e12
# Outcome ids are int64 while every id fits; past that they stay Python ints.
_INT64_OUTCOMES = 1 << 63
# A growing factor or vertex matrix reserves room for this many structures,
# and twice its size when that is full.
_MIN_ROOM = 16
_ONES = np.ones(128)
_ONES.flags.writeable = False


class DegenerateSupportError(RuntimeError):
    """The active support is affinely dependent; the KKT system is singular."""


class ActiveSetCycleError(RuntimeError):
    """The newest structure kept being dropped at zero step length through
    refactorization and three tolerance widenings."""


def _ones(n: int) -> np.ndarray:
    return _ONES[:n] if n <= _ONES.size else np.ones(n)


def _room(buf, n: int, square: bool = False) -> np.ndarray:
    """``buf`` if it has a row free past its first ``n``, else a zeroed
    buffer of max(2 n, 16) rows holding the same leading block: as many
    columns when ``square``, else as wide as ``buf``."""
    if n < buf.shape[0]:
        return buf
    rows = max(2 * n, _MIN_ROOM)
    grown = np.zeros((rows, rows if square else buf.shape[1]))
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
    x, info = dtrtrs(L.T if L.shape[0] else L[:, :0], b, 0, trans)  # lower=0
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

    @classmethod
    def _of(cls, L) -> "CholeskyFactor":
        """The factor whose lower triangle is the square array ``L``, taken as it is."""
        out = object.__new__(cls)
        out._buf, out._n, out._bounds = L, L.shape[0], None
        return out

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
        ell = _triangular_solve(self._buf[: self._n], np.asarray(cross, dtype=np.float64), 1)
        self._grow(ell, diag - float(ell @ ell), diag)

    def _grow(self, ell, pivot: float, diag: float):
        """Append the row ``ell`` = L^{-1} cross, whose pivot is diag - ell'ell."""
        if pivot <= 1e-12 * max(diag, 1.0):
            raise np.linalg.LinAlgError("new column is numerically dependent")
        n = self._n
        buf = self._buf
        if n >= buf.shape[0]:
            self._buf = buf = _room(buf, n, square=True)
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
        # that is not already zero.  The rotations run on Python floats,
        # IEEE doubles like numpy's, on the block of rows j.. and columns
        # j.. that they change.
        block = M[j : n - 1, j:n].tolist()
        for k in range(n - 1 - j):
            a, b = block[k][k], block[k][k + 1]
            rad = float(np.hypot(a, b))
            if rad == 0.0:
                continue
            c, s = a / rad, b / rad
            for row in block[k:]:
                x, y = row[k], row[k + 1]
                row[k], row[k + 1] = c * x + s * y, c * y - s * x
            block[k][k], block[k][k + 1] = rad, 0.0
        if block:
            M[j : n - 1, j:n] = block
        self._n = n - 1
        self._bounds = None

    def solve(self, b) -> np.ndarray:
        L = self._buf[: self._n]
        y = _triangular_solve(L, np.asarray(b, dtype=np.float64), 1)
        return _triangular_solve(L, y, 0)

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


def _structures_of(rows, scores) -> list:
    """One Structure per 0/1 row of ``rows``, with its oracle score."""
    return [Structure(tuple(bits), score)
            for bits, score in zip(rows.astype(np.uint8).tolist(), scores)]


def _gram(rows) -> np.ndarray:
    """Bordered Gram matrix A'A + 11^T of the vertex rows."""
    return rows @ rows.T + 1.0


_OVERFLOW = "scores overflow: a relaxed solve of the active set is not finite"


def _unresolved(t, what: str) -> ValueError:
    """The error for scores whose scale the relaxed solves cannot resolve:
    at |t| near 1e16 and past, A't swamps the simplex constraint's ones."""
    return ValueError("scores too large to resolve (max |t| = %.3g): %s"
                      % (float(np.abs(t).max()), what))


class ActiveSetState:
    """One iterate of the active-set solve.

    ``probs`` are the current simplex weights over ``structures``,
    ``moments`` is their combination A p, and ``kkt_factor`` holds the
    bordered Gram factor for the current support.  ``rows`` is the vertex
    matrix A' (one row per structure), grown and shrunk with the factor;
    it is built from ``structures`` when not given.  The solver keeps only
    the rows and each structure's oracle score: ``structures`` is built
    from them when first read, and kept up to date from then on.
    ``adds``, ``drops`` and ``refactorizations`` count support changes and
    factors rebuilt from scratch, and ``max_condition`` is the largest
    :meth:`CholeskyFactor.condition_estimate` met so far: the first
    factor's, then the one checked after each add.  The solvers advance
    their states in place; :func:`active_set_step` steps a copy and leaves
    its input as it was.
    """

    def __init__(self, structures, probs, moments, tau, kkt_factor, iteration=0,
                 converged=False, nu_min=float("nan"), tol=1e-9, widen_count=0, rows=None,
                 adds=0, drops=0, refactorizations=0, max_condition=None):
        # ``rows`` is the leading block of ``_row_buf``.
        rows = _vertex_rows(structures) if rows is None else rows
        self._row_buf = np.array(rows, dtype=np.float64)
        self.rows = self._row_buf[: len(structures)]
        self._structures = structures
        self._scores = [s.score for s in structures]
        self.probs, self.moments, self.tau, self.kkt_factor = probs, moments, tau, kkt_factor
        self.iteration, self.converged, self.nu_min = iteration, converged, nu_min
        self.tol, self.widen_count = tol, widen_count
        self.adds, self.drops, self.refactorizations = adds, drops, refactorizations
        self.max_condition = (kkt_factor.condition_estimate() if max_condition is None
                              else max_condition)

    @classmethod
    def _at_vertex(cls, row, score: float, factor: CholeskyFactor, tol: float) -> "ActiveSetState":
        """The first iterate of a solve: weight 1 on the vertex of the float
        ``row``, whose factor is 1 x 1; its Structure is not built."""
        state = object.__new__(cls)
        state._row_buf = row[None].copy()
        state.rows = state._row_buf
        state._structures, state._scores = None, [score]
        state.probs, state.moments, state.tau, state.kkt_factor = np.ones(1), row, math.nan, factor
        state.iteration, state.converged, state.nu_min = 0, False, math.nan
        state.tol, state.widen_count = tol, 0
        state.adds = state.drops = state.refactorizations = 0
        state.max_condition = 1.0  # the estimate of a 1 x 1 factor
        return state

    @property
    def structures(self) -> list:
        if self._structures is None:
            self._structures = _structures_of(self.rows, self._scores)
        return self._structures

    def copy(self) -> "ActiveSetState":
        """A state that shares no mutable part with this one."""
        out = object.__new__(ActiveSetState)
        out.__dict__.update(self.__dict__)
        out._row_buf = out.rows = np.array(self.rows)
        out._scores = list(self._scores)
        if self._structures is not None:
            out._structures = list(self._structures)
        out.kkt_factor = self.kkt_factor.copy()
        return out

    def _add(self, row, score: float):
        n = len(self._scores)
        buf = self._row_buf
        if n >= buf.shape[0]:
            self._row_buf = buf = _room(buf, n)
        buf[n] = row
        self.rows = buf[: n + 1]
        self._scores.append(score)
        if self._structures is not None:
            self._structures += _structures_of(row[None], [score])

    def _drop(self, j: int):
        n = len(self._scores)
        buf = self._row_buf
        buf[j : n - 1] = buf[j + 1 : n]
        self.rows = buf[: n - 1]
        self._scores.pop(j)
        if self._structures is not None:
            self._structures.pop(j)


def _oracle_rows(oracle, R):
    """The oracle's best vertex for each row of R: uint8 (B, D) bits, float
    (B,) scores, and {row: exception} for the rows whose call raised.

    ``oracle.map_rows`` takes the whole matrix where the oracle has it; if
    that raises, each row is asked alone, so that only the rows at fault
    fail.  An oracle with only ``map`` is asked row by row.
    """
    map_rows = getattr(oracle, "map_rows", None)
    if map_rows is not None:
        try:
            bits, scores = map_rows(R)
            return bits, scores, {}
        except Exception:  # some row is at fault; each row's own call shows which
            def one(r):
                bits, scores = map_rows(r[None])
                return bits[0], scores[0]
    else:
        def one(r):
            structure = oracle.map(r)
            return structure.bits, structure.score
    bits, scores, errors = np.zeros(R.shape, dtype=np.uint8), np.zeros(len(R)), {}
    for i, r in enumerate(R):
        try:
            bits[i], scores[i] = one(r)
        except Exception as exc:  # the error this row's own solve meets
            errors[i] = exc
    return bits, scores, errors


def _refactorize(state: ActiveSetState):
    state.kkt_factor = CholeskyFactor(_gram(state.rows))
    state.refactorizations += 1


def _relaxed_checked(state: ActiveSetState, At) -> None:
    """Raise the error the relaxed solve of one row meets, if any: a
    non-finite A't or forward solve (scores near the float range adding up
    past it), or a singular factor."""
    if not (np.isfinite(At).all()
            and np.isfinite(_dtrtrs(state.kkt_factor._buf[: At.size], At, 1)).all()):
        raise ValueError(_OVERFLOW)


def _relaxed_rows(states, idx, T, errors):
    """The relaxed QP on the current support of the states at ``idx``, all
    of one support size.

    With K = A'A + 11^T the bordered KKT system reduces to two solves:
    p = K^{-1} A't + (1 - tau) K^{-1} 1, with 1 - tau fixed by 1'p = 1.
    The solves run unchecked.  Where a factor is singular or a solution
    not finite, each row is checked again step by step
    (:func:`_relaxed_checked`) before anything else is computed, and a
    row's error goes to ``errors``.  Returns the positions solved, their
    stacked vertex rows and scores, p and tau.
    """
    g, n = len(idx), states[idx[0]].probs.size
    R = np.array([states[i].rows for i in idx])
    Tg = T[idx]
    At = np.matmul(R, Tg[:, :, None])[..., 0]
    ones = _ones(n)
    UV, singular = [None] * (2 * g), False
    for j, (i, b) in enumerate(zip(idx, At)):
        L = states[i].kkt_factor._buf[:n].T  # dtrtrs(a, b, lower, trans), as _dtrtrs calls it
        y, info = dtrtrs(L, b, 0, 1)
        singular |= info != 0
        UV[j] = dtrtrs(L, y, 0, 0)[0]
        UV[g + j] = dtrtrs(L, dtrtrs(L, ones, 0, 1)[0], 0, 0)[0]
    UV = np.array(UV)
    if singular or not np.isfinite(UV).all():
        keep = []
        for j, i in enumerate(idx):
            try:
                _relaxed_checked(states[i], At[j])
                keep.append(j)
            except ValueError as exc:  # LinAlgError included
                errors[i] = exc
        if not keep:
            return [], None, None, None, None
        if len(keep) < g:
            UV = UV[keep + [g + j for j in keep]]
            idx, R, Tg, g = [idx[j] for j in keep], R[keep], Tg[keep], len(keep)
    sums = UV.sum(axis=1)
    lam = (1.0 - sums[:g]) / sums[g:]
    return idx, R, Tg, UV[:g] + lam[:, None] * UV[g:], 1.0 - lam


def _drop_step(state: ActiveSetState, t, gamma: float, blocker: int, p_hat):
    """Step ``gamma`` of the way to ``p_hat`` and drop the structure at
    ``blocker``, whose weight that brings to zero."""
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


def _add_step(state: ActiveSetState, row, score: float, ell, pivot: float, diag: float):
    """Add the vertex of the float ``row`` to ``state``'s support, growing
    its factor by the new row ``ell`` = L^{-1} cross and its pivot."""
    state._add(row, score)
    try:
        state.kkt_factor._grow(ell, pivot, diag)
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
    state.adds += 1


def _advance_rows(states, oracle, T) -> dict:
    """One :func:`active_set_step` of every state in ``states`` (none
    converged) on its row of ``T``, made in place.

    The states are grouped by support size.  Each group takes A't, the
    sums of the relaxed solution and the moments as stacked products, and
    the ratio test, the "already in the support" test and an add's cross
    terms and pivots for all its rows at once; the triangular solves,
    drops, refactorizations and widenings run per row on its own factor.
    Every stacked product is one per-row kernel on arrays of one size, so
    each row has the bits of its step alone.  The oracle is asked once,
    for every row that reaches it.  Returns {position: exception} for the
    rows whose step raised; those may be left part-way.
    """
    errors, by_size, reach = {}, {}, []
    for i, state in enumerate(states):
        by_size.setdefault(state.probs.size, []).append(i)
    for idx in by_size.values():
        idx, R, Tg, P_hat, tau_hat = _relaxed_rows(states, idx, T, errors)
        if not idx:
            continue
        # The ratio test: the first index at the smallest p / (p - p_hat)
        # over p > p_hat, and only below 1.  A ratio below 1 needs a
        # p_hat below 0: p > p_hat >= 0 gives p - p_hat <= p, and a ratio of
        # at least 1 in floating point too.  Like a test on Python floats,
        # it warns of nothing, and fmin skips the NaN of inf / inf.
        if (P_hat < 0.0).any():
            P = np.array([states[i].probs for i in idx])
            with np.errstate(all="ignore"):
                ratio = np.divide(P, P - P_hat, out=np.full(P.shape, np.inf), where=P > P_hat)
            gamma = np.fmin.reduce(ratio, axis=1)
            go = []
            for j, blocked in enumerate((gamma < 1.0).tolist()):
                if not blocked:
                    go.append(j)
                    continue
                blocker = int(np.argmax(ratio[j] == gamma[j]))
                try:
                    _drop_step(states[idx[j]], T[idx[j]], float(ratio[j, blocker]), blocker,
                               P_hat[j])
                except Exception as exc:
                    errors[idx[j]] = exc
            if not go:
                continue
            if len(go) < len(idx):
                idx, R, Tg = [idx[j] for j in go], R[go], Tg[go]
                P_hat, tau_hat = P_hat[go], tau_hat[go]
        M = np.matmul(R.transpose(0, 2, 1), P_hat[:, :, None])[..., 0]
        reach.append((idx, R, P_hat, tau_hat, M, Tg - M))
    if not reach:
        return errors
    bits, scores, failed = _oracle_rows(
        oracle, reach[0][5] if len(reach) == 1 else np.concatenate([r[5] for r in reach]))
    at = 0
    for idx, R, P_hat, tau_hat, M, _ in reach:
        g = len(idx)
        cand, score = bits[at:at + g], scores[at:at + g]
        nu = tau_hat - score
        known = (R == cand[:, None, :]).all(axis=2).any(axis=1).tolist()
        add = []
        for j, (i, v, k) in enumerate(zip(idx, nu.tolist(), known)):
            if failed and at + j in failed:
                errors[i] = failed[at + j]
                continue
            state = states[i]
            state.moments, state.tau, state.nu_min = M[j], tau_hat[j], nu[j]
            state.iteration += 1
            if v >= -state.tol or k:
                state.probs = P_hat[j]
                state.converged = True
            else:
                add.append(j)
        at += g
        if not add:
            continue
        if len(add) < g:
            cand, score, R, P_hat = cand[add], score[add], R[add], P_hat[add]
        F = cand.astype(np.float64)
        # 0/1 products: whole numbers, so any summation order gives their bits.
        cross = np.matmul(R, F[:, :, None])[..., 0] + 1.0
        diag = F.sum(axis=1) + 1.0
        n = R.shape[1]
        probs = np.zeros((len(add), n + 1))
        probs[:, :n] = P_hat
        ells = [dtrtrs(states[idx[k]].kkt_factor._buf[:n].T, c, 0, 1)[0]
                for k, c in zip(add, cross)]
        E = np.array(ells)
        pivots, diag = (diag - _row_dots(E, E)).tolist(), diag.tolist()
        for j, (k, sc) in enumerate(zip(add, score.tolist())):
            state = states[idx[k]]
            state.probs = probs[j]
            try:
                _add_step(state, F[j], sc, ells[j], pivots[j], diag[j])
            except Exception as exc:
                errors[idx[k]] = exc
    return errors


def active_set_step(state: ActiveSetState, oracle, t) -> ActiveSetState:
    """One iteration: relaxed QP solve, then either drop a blocking
    structure or query the oracle and add the most violated one.

    A converged state is returned unchanged; otherwise the step is made on
    a copy, which is returned.  The support changes by at most one
    structure per call and the objective never increases.  This is the
    one-row case of the step :func:`sparsemap_rows` takes.
    """
    if state.converged:
        return state
    out = state.copy()
    errors = _advance_rows([out], oracle, np.asarray(t, dtype=np.float64)[None])
    if errors:
        raise errors[0]
    return out


@dataclass(frozen=True, eq=False)
class SparseMapResult:
    """Converged (or iteration-capped) SparseMAP solution.

    ``probs`` and the rows of the vertex matrix ``rows`` align with
    ``structures``, which is built from the rows and the oracle's scores
    when first read.  ``index_of`` is the oracle's ``outcome_index`` hook
    (``Structure.index`` by default); ``outcome_ids`` applies it to every
    structure when first read, giving its integer code in the polytope's
    outcome space.  ``adds``, ``drops``,
    ``refactorizations`` and ``widenings`` count what the solver did:
    ``iterations == adds + drops + int(converged)``.  ``max_condition`` is
    the largest condition estimate of the bordered Gram factor the solver
    met (see :class:`ActiveSetState`); past 1e12 it rebuilt the factor.
    """

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
    _scores: list = field(repr=False)

    @property
    def support_size(self) -> int:
        return self.probs.size

    @cached_property
    def structures(self) -> list:
        return _structures_of(self.rows, self._scores)

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


def _check_solver(oracle, tol: float, max_iter) -> int:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 100 + 10 * oracle.dim
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return max_iter


def _solve_rows(oracle, T, max_iter: int, tol: float) -> list:
    """:func:`sparsemap_rows` of a (B, oracle.dim) matrix, after the
    argument checks.  The states advance in lockstep; once a row raises,
    the rows after it stop, since the batch raises the first row's error."""
    B = T.shape[0]
    errors = {i: ValueError("scores must be finite")
              for i in np.flatnonzero(~np.isfinite(T).all(axis=1)).tolist()}
    states = {}
    # Scores near the float range can overflow in the oracle's scores and
    # in A't.  The step that meets a non-finite A't raises ValueError, and
    # numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore"):
        head = min(errors, default=B)
        if head:
            bits, scores, failed = _oracle_rows(oracle, T[:head])
            errors.update(failed)
            F = bits.astype(np.float64)
            L = np.linalg.cholesky(F.sum(axis=1)[:, None, None] + 1.0)  # the 1 x 1 Gram factors
            for i, score in enumerate(scores.tolist()):
                if i not in failed:
                    factor = CholeskyFactor._of(L[i])
                    states[i] = ActiveSetState._at_vertex(F[i], score, factor, tol)
        live = sorted(states)
        for _ in range(max_iter):
            head = min(errors, default=B)
            live = [i for i in live if i < head and not states[i].converged]
            if not live:
                break
            for j, exc in _advance_rows([states[i] for i in live], oracle, T[live]).items():
                errors[live[j]] = exc
    n_outcomes = getattr(oracle, "n_outcomes", 1 << oracle.dim)
    index_of = getattr(oracle, "outcome_index", lambda s: s.index)
    results = []
    for i in range(B):
        if i in errors:
            raise errors[i]
        state = states[i]
        probs, rows, scores = state.probs, state.rows, state._scores
        keep = probs > 0.0
        if not keep.all():
            if not keep.any():
                raise _unresolved(T[i], "no structure keeps positive weight")
            probs, rows = probs[keep], rows[keep]
            scores = [s for s, k in zip(scores, keep.tolist()) if k]
        results.append(SparseMapResult(
            probs=probs,
            moments=state.moments,
            tau=state.tau,
            converged=state.converged,
            iterations=state.iteration,
            nu_min=state.nu_min,
            n_outcomes=n_outcomes,
            index_of=index_of,
            rows=rows,
            adds=state.adds,
            drops=state.drops,
            refactorizations=state.refactorizations,
            widenings=state.widen_count,
            max_condition=state.max_condition,
            _scores=scores,
        ))
    return results


def sparsemap_rows(oracle, scores, *, max_iter: int | None = None, tol: float = 1e-9) -> list:
    """:func:`sparsemap` of each row of a (B, oracle.dim) score matrix, as a
    list of B results, each with the bits of that row's solve alone.

    The rows are solved together: each step advances every unconverged
    row once, the rows of one support size as stacked arrays, and
    ``oracle.map_rows(scores)``, when the oracle has it, answers every row
    of a step in one call; an oracle with only ``map`` is called once per
    row.  ``max_iter`` caps each row's steps.  If rows raise, the error
    raised is the one of the lowest-index row, the error a loop of
    :func:`sparsemap` over the rows would raise.
    """
    T = np.asarray(scores, dtype=np.float64)
    if T.ndim != 2 or T.shape[1] != oracle.dim:
        raise ValueError("scores must be a (B, oracle.dim) matrix")
    return _solve_rows(oracle, T, _check_solver(oracle, tol, max_iter), tol)


def sparsemap(oracle, t, *, max_iter: int | None = None, tol: float = 1e-9) -> SparseMapResult:
    """Project ``t`` onto the polytope served by ``oracle``: the one-row
    case of :func:`sparsemap_rows`.

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
    return _solve_rows(oracle, t[None], _check_solver(oracle, tol, max_iter), tol)[0]


def _vjp_rows(results, upstream) -> np.ndarray:
    """:func:`sparsemap_vjp_rows` after the shape check.

    Each support's bordered projection X = K^{-1} - K^{-1}1 1'K^{-1} /
    (1'K^{-1}1), K = A'A + 11^T, is applied to its upstream and mapped
    back through A.  X is the fixed-support sensitivity of the
    probabilities to their scores A't; it reduces to the centering
    projector I - 11^T/n when the structures are orthonormal one-hots.
    The supports of one size take their Gram matrices, Cholesky factors,
    sums and the products with A as stacks, and the triangular solves run
    per row.
    """
    errors, by_size = {}, {}
    for i, res in enumerate(results):
        if res.converged:
            by_size.setdefault(res.probs.size, []).append(i)
        else:
            errors[i] = ValueError("backward pass requires a converged result")
    out = np.empty((len(results), results[0].rows.shape[1] if results else 0))
    for n, idx in by_size.items():
        R = np.array([results[i].rows for i in idx])
        G = np.matmul(R, R.transpose(0, 2, 1)) + 1.0
        try:
            Ls = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:  # find the rows at fault
            Ls = np.empty_like(G)
            for j, i in enumerate(idx):
                try:
                    Ls[j] = np.linalg.cholesky(G[j])
                except np.linalg.LinAlgError as exc:
                    errors[i] = DegenerateSupportError("active-set Gram matrix is singular")
                    errors[i].__cause__ = exc
        U, V, ok = [], [], []
        for j, i in enumerate(idx):
            if i in errors:
                continue
            try:
                U.append(_triangular_solve(Ls[j], _triangular_solve(Ls[j], upstream[i, :n], 1), 0))
            except ValueError as exc:
                errors[i] = exc
                continue
            V.append(_dtrtrs(Ls[j], _dtrtrs(Ls[j], _ones(n), 1), 0))
            ok.append(j)
        if ok:
            U, V, R = np.array(U), np.array(V), R[ok]
            X = U - (U.sum(axis=1) / V.sum(axis=1))[:, None] * V
            out[[idx[j] for j in ok]] = np.matmul(R.transpose(0, 2, 1), X[:, :, None])[..., 0]
    if errors:
        raise errors[min(errors)]
    return out


def sparsemap_vjp_rows(results, upstream) -> np.ndarray:
    """:func:`sparsemap_vjp_probs` of each result in ``results``, as a
    (B, D) matrix: row i is the gradient w.r.t. that row's scores of
    sum_z upstream[i, z] * prob_z at fixed support.

    ``upstream`` is (B, K), K at least the largest support; the first
    ``support_size`` entries of row i align with ``results[i].structures``
    and the rest are ignored.  Every row has the bits of its one-row
    call.  If rows raise, the error raised is the lowest-index row's.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim != 2 or upstream.shape[0] != len(results) or (
            results and upstream.shape[1] < max(res.probs.size for res in results)):
        raise ValueError("upstream must be a (B, K) matrix with one row per result and "
                         "K at least the largest support")
    return _vjp_rows(results, upstream)


def sparsemap_vjp_probs(result: SparseMapResult, upstream) -> np.ndarray:
    """Gradient w.r.t. t of sum_z upstream_z * prob_z at fixed support:
    the one-row case of :func:`sparsemap_vjp_rows`.

    ``upstream`` aligns with ``result.structures``.  Differentiates the
    KKT system of the relaxed QP on the converged support; constants in
    the upstream vanish because X annihilates the ones vector.
    """
    if not result.converged:
        raise ValueError("backward pass requires a converged result")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (result.probs.size,):
        raise ValueError("upstream must align with the support structures")
    return _vjp_rows([result], upstream[None])[0]


def sparsemap_vjp(result: SparseMapResult, upstream_moments) -> np.ndarray:
    """Gradient w.r.t. t of <upstream, moments(t)> at fixed support."""
    upstream_moments = np.asarray(upstream_moments, dtype=np.float64)
    if upstream_moments.shape != result.moments.shape:
        raise ValueError("upstream must match the moments vector")
    if not np.all(np.isfinite(upstream_moments)):
        raise ValueError("upstream must be finite")
    return sparsemap_vjp_probs(result, result.rows @ upstream_moments)
