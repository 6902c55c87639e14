"""SparseMAP: quadratic projection of variable scores onto the moment
polytope of a structured space, solved by an active-set method.

Given a polytope exposing ``dim`` and a row maximization oracle
``map_rows(T)`` over vertices a_z in {0,1}^D (the uint8 (B, D) bits of
each row's best vertex and their float (B,) scores), solve

    min_{p in simplex} || A p - t ||^2

where the columns of A are the vertices touched so far.  The solution
puts positive weight on at most D + 1 structures, found by alternating
relaxed equality-constrained QP solves with oracle calls on the residual
scores.  The relaxed solves go through a Cholesky factor of the bordered
Gram matrix A'A + 11^T, which stays positive definite even when a support
contains the all-zeros vertex and absorbs the simplex equality constraint,
and which is grown and shrunk by one structure per iteration.

The rows of a score matrix are solved together (:func:`sparsemap_rows`):
their active sets are one stack of vertex rows, factors, weights and
moments (:class:`_ActiveSets`), every row advances one step at a
time, and each step gathers the rows of one support size, takes their
products as stacked arrays and scatters the results back, leaving the
triangular solves, drops and refactorizations to each row.  Between
steps the stack makes room for one more structure where a live row needs
it, evicting its converged rows first, so a large batch holds room for
the rows still running only.  Every row keeps the bits of its solve
alone, so :func:`sparsemap` is the one-row case.

The backward pass differentiates the fixed-support KKT system; both vjps
(through the structure probabilities and through the moments) reuse the
same bordered projection, taken for a batch of solutions grouped by
support size (:func:`sparsemap_vjp_rows`).

The solve and the vjp are array kernels (:func:`_solve`, :func:`_vjp`):
a solved batch is its weights, vertex rows and per-row figures as arrays
and lists (:class:`_Solved`), which training reads directly.  The public
functions are thin adapters that check their arguments and build one
:class:`SparseMapResult` per row from each solved part, or read the rows
of a list of them.

A batch, solved or differentiated, raises the error of its lowest-index
row that raises, the error a loop of one-row calls would raise.  The
stacked pass keeps no account of which row is at fault: if it raises
anything, its rows are run again one at a time, in order, and the first
of them to raise raises.  A batch that raises thus runs its rows again,
up to and including the failing one; a batch that does not pays nothing.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .bitvec import _as_score_rows, _Polytope, _structures
from .simplex import SparseDistribution, _row_dots

__all__ = [
    "SparseMapResult",
    "DegenerateSupportError",
    "ActiveSetCycleError",
    "sparsemap",
    "sparsemap_rows",
    "sparsemap_vjp",
    "sparsemap_vjp_probs",
    "sparsemap_vjp_rows",
]

_COND_LIMIT = 1e12
# Outcome ids are int64 while every id fits; past that they stay Python ints.
_INT64_OUTCOMES = 1 << 63
# A stack of factors or vertex rows starts with room for this many
# structures in each row, and doubles its room when a live row needs more.
_MIN_ROOM = 16
# LAPACK's dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b), bound
# by _lapack() on the first solve: importing the library loads no scipy,
# and the first solve loads LAPACK's extension alone, no scipy package.
dtrtrs = None
_FLAPACK = "scipy.linalg._flapack"


def _lapack() -> None:
    """Bind :data:`dtrtrs`, once, to the function ``scipy.linalg.lapack``
    exports: from the extension ``scipy.linalg`` has loaded, or else from
    that extension loaded alone, so that neither ``scipy/__init__`` nor
    ``scipy/linalg/__init__`` runs.  Where it cannot be found or loaded
    alone (a wheel whose libraries scipy's ``__init__`` locates), from
    ``scipy.linalg.lapack``.
    """
    global dtrtrs
    if dtrtrs is None:
        flapack = sys.modules.get(_FLAPACK) or _flapack_alone()
        if flapack is None:
            from scipy.linalg.lapack import dtrtrs
        else:
            dtrtrs = flapack.dtrtrs


def _flapack_alone():
    """scipy's LAPACK extension, loaded from beside the installed scipy and
    left unregistered, so that a later ``import scipy.linalg`` imports as
    usual; None where it cannot be found or loaded so."""
    scipy = importlib.util.find_spec("scipy")  # imports nothing
    roots = (scipy.submodule_search_locations if scipy else None) or ()
    paths = [os.path.join(root, "linalg", "_flapack" + suffix)
             for root in roots for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        return None
    loader = ExtensionFileLoader(_FLAPACK, path)
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(module)
    except (ImportError, OSError):
        return None
    finally:
        sys.modules.pop(_FLAPACK, None)
    return module


class DegenerateSupportError(RuntimeError):
    """The active support is affinely dependent; the KKT system is singular."""


class ActiveSetCycleError(RuntimeError):
    """The newest structure kept being dropped at zero step length through
    refactorization and three tolerance widenings."""


def _room(a, cap: int, axes) -> np.ndarray:
    """A zeroed array like ``a`` but ``cap`` long along ``axes``, holding
    ``a`` in its leading block."""
    shape = list(a.shape)
    for axis in axes:
        shape[axis] = cap
    out = np.zeros(shape)
    out[tuple(map(slice, a.shape))] = a
    return out


def _dtrtrs(L, b, trans: int) -> np.ndarray:
    """Solve ``L x = b`` (``trans=1``) or ``L' x = b`` (``trans=0``) for the
    lower triangle of the leading square block of ``L``: its n C-ordered
    rows, each at least n long.

    LAPACK sees the Fortran view ``L.T``, an upper factor whose leading
    dimension is the row length; this is the call
    ``scipy.linalg.solve_triangular`` makes for a square ``L``, without its
    per-call validation.  The solution has the same bits whatever the
    leading dimension.  An emptied factor is passed as 0 x 0, which LAPACK
    refuses (info -7, a leading dimension below 1).
    """
    _lapack()
    x, info = dtrtrs(L.T if L.shape[0] else L[:, :0], b, 0, trans)  # lower=0
    if info != 0:
        raise np.linalg.LinAlgError("singular triangular factor (dtrtrs info %d)" % info)
    return x


def _condition(hi: float, lo: float) -> float:
    """(hi / lo)^2, inf when ``lo`` is not positive or the square overflows."""
    if not lo > 0:
        return math.inf
    try:
        return (hi / lo) ** 2
    except OverflowError:
        return math.inf


def _gram(rows) -> np.ndarray:
    """Bordered Gram matrix A'A + 11^T of the vertex rows."""
    return rows @ rows.T + 1.0


_OVERFLOW = "scores overflow: a relaxed solve of the active set is not finite"


def _unresolved(t, what: str) -> ValueError:
    """The error for scores whose scale the relaxed solves cannot resolve:
    at |t| near 1e16 and past, A't swamps the simplex constraint's ones."""
    return ValueError("scores too large to resolve (max |t| = %.3g): %s"
                      % (float(np.abs(t).max()), what))


class _ActiveSets:
    """The active sets of the rows of a (B, D) score matrix ``T``, stacked.

    Row b's support holds ``n[b]`` structures: their vertex rows are the
    leading rows of ``V[b]`` (cap, D) and their weights the leading
    entries of ``W[b]``, both zero past them, their bits (as bytes) the list
    ``keys[b]``, and ``M[b]`` holds the moments.  No structure's score is
    kept: a result scores its structures against its row of ``T`` when
    they are read.  The lower-triangular factor of their bordered Gram
    matrix A'A + 11^T is the leading ``n[b]`` x ``n[b]`` block of
    ``L[b]``, zero right of its diagonal; the rows below it are scratch
    that the next append overwrites.  All rows share one room ``cap``,
    which :meth:`_reserve` grows and :meth:`_keep` shrinks to fewer rows:
    LAPACK gives a triangular solve the same bits whatever the leading
    dimension, and wherever the factor sits in the stack.  Stack row b
    solves row ``origin[b]`` of the batch, and ``T[b]`` holds its scores.
    ``hi[b]`` and ``lo[b]`` are the largest and smallest |diagonal| entry
    of row b's factor, NaN while it holds a NaN, as numpy's max and min
    give them: an append updates them, and a drop or a rebuild reads them
    off the factor again.  The per-row lists ``tau``, ``nu_min``, ``tol``,
    ``converged``, ``iterations``, ``adds``, ``drops``,
    ``refactorizations``, ``widenings`` and ``max_condition`` hold the
    rest of each row's iterate.  The sizes, bounds and scalars are lists
    of Python numbers: a step reads and writes them for a few rows at a
    time, where a numpy call per update costs more.  A new stack holds
    empty supports.
    """

    def __init__(self, T, cap: int, tol):
        B, D = T.shape
        self.T = T
        self.L, self.V = np.zeros((B, cap, cap)), np.zeros((B, cap, D))
        self.W = np.zeros((B, cap))
        self.M = np.zeros((B, D))
        self.n, self.keys = [0] * B, [[] for _ in range(B)]
        self.hi, self.lo = [math.nan] * B, [math.nan] * B
        self.tau, self.nu_min, self.tol = [math.nan] * B, [math.nan] * B, [tol] * B
        self.converged = [False] * B
        self.iterations, self.adds, self.drops = [0] * B, [0] * B, [0] * B
        self.refactorizations, self.widenings = [0] * B, [0] * B
        self.max_condition = [1.0] * B
        self.origin = list(range(B))

    def _reserve(self, size: int):
        """Make room for ``size`` structures in every row."""
        cap = self.L.shape[1]
        if size > cap:
            cap = max(2 * cap, size)
            self.L = _room(self.L, cap, (1, 2))
            self.V, self.W = _room(self.V, cap, (1,)), _room(self.W, cap, (1,))

    def _keep(self, rows: list):
        """Keep only the stack rows ``rows``, in order: every array and
        list is cut to them."""
        vars(self).update({name: a[rows] if isinstance(a, np.ndarray) else [a[b] for b in rows]
                           for name, a in vars(self).items()})

    def _grow(self, ids, n: int, E, pivots: list, diag: list):
        """Append to the factors of the rows ``ids`` (an int array), all of
        size ``n``, the rows of ``E`` = L^{-1} cross, whose pivots are
        diag - ell'ell, with diagonal entries sqrt(pivot), in a stack with
        room for n + 1 structures.  Returns the rows whose pivot is
        numerically zero, which stay as they were, and the others with
        their grown factors' condition estimates (:func:`_condition`), as
        lists."""
        bad, grown, roots, cond = [], [], [], []
        sizes, hi, lo = self.n, self.hi, self.lo
        for b, pivot, d in zip(ids.tolist(), pivots, diag):
            if pivot <= 1e-12 * max(d, 1.0):
                bad.append(b)
                continue
            # A NaN pivot passes the test, and its root makes both bounds
            # NaN; a NaN bound stays NaN, since no comparison with it holds.
            r = math.sqrt(pivot)
            sizes[b] = n + 1
            hi[b] = h = r if r > hi[b] or r != r else hi[b]
            lo[b] = l = r if r < lo[b] or r != r else lo[b]
            cond.append(_condition(h, l))
            grown.append(b)
            roots.append(r)
        if bad:
            ok = ~np.isin(ids, bad)
            ids, E = ids[ok], E[ok]
        self.L[ids, n, :n] = E
        self.L[ids, n, n] = roots
        return bad, grown, cond

    def _drop(self, b: int, j: int):
        """Delete row/column j of row b's factor."""
        n = self.n[b]
        M = self.L[b]
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
            a, c = block[k][k], block[k][k + 1]
            rad = float(np.hypot(a, c))
            if rad == 0.0:
                continue
            cos, sin = a / rad, c / rad
            for row in block[k:]:
                x, y = row[k], row[k + 1]
                row[k], row[k + 1] = cos * x + sin * y, cos * y - sin * x
            block[k][k], block[k][k + 1] = rad, 0.0
        if block:
            M[j : n - 1, j:n] = block
        self.n[b] = n - 1
        self._bound(b)

    def _rebuild(self, b: int, gram):
        """Make row b's factor the Cholesky factor of ``gram``, which the
        stack has room for; raises LinAlgError, leaving the row as it was,
        if that is not positive definite."""
        m = gram.shape[0]
        factor = np.linalg.cholesky(gram)
        self.L[b, :m, :m] = factor
        self.n[b] = m
        self._bound(b)

    def _bound(self, b: int):
        """Read ``hi[b]`` and ``lo[b]`` off row b's factor."""
        d = np.abs(self.L[b].diagonal()[: self.n[b]])
        self.hi[b], self.lo[b] = float(d.max()), float(d.min())

    def _refactorize(self, b: int, size: int):
        """Rebuild row b's factor from its first ``size`` vertex rows."""
        self._rebuild(b, _gram(self.V[b, :size]))
        self.refactorizations[b] += 1


def _oracle_rows(oracle, R):
    """The oracle's best vertex for each row of R, from one call: uint8
    (B, D) bits and a list of B float scores.

    A library polytope whose ``map_rows`` is the library's checked
    wrapper answers through its unchecked ``_map_rows``: the solver's
    residuals have the polytope's width, and a residual entry that is not
    finite makes its row's score not finite (its product with a 0 or 1
    bit is), so only then is R checked, raising as ``map_rows`` would.
    Any other oracle answers through its ``map_rows``.
    """
    if type(oracle).map_rows is _Polytope.map_rows:
        bits, scores = oracle._map_rows(R)
        scores = scores.tolist()
        if not math.isfinite(sum(scores)):  # or a sum past the float range
            _as_score_rows(R)
        return bits, scores
    bits, scores = oracle.map_rows(R)
    return np.ascontiguousarray(bits, dtype=np.uint8), np.asarray(scores, dtype=np.float64).tolist()


def _relaxed_checked(L, At) -> None:
    """Raise the error the relaxed solve of one row meets, if any: a
    non-finite A't or forward solve (scores near the float range adding up
    past it), or a singular factor ``L``."""
    if not (np.isfinite(At).all() and np.isfinite(_dtrtrs(L, At, 1)).all()):
        raise ValueError(_OVERFLOW)


def _relaxed_rows(sets: _ActiveSets, ids, n: int):
    """The relaxed QP on the current supports of the rows ``ids`` of
    ``sets``, all of size ``n``.

    With K = A'A + 11^T the bordered KKT system reduces to two solves:
    p = K^{-1} A't + (1 - tau) K^{-1} 1, with 1 - tau fixed by 1'p = 1.
    The solves run unchecked, one row at a time: a triangular solve with
    two right-hand sides does not give the bits of two one-column solves.
    Where a factor is singular or a solution not finite, each row is
    checked again step by step (:func:`_relaxed_checked`) before anything
    else is computed.  Returns the rows' stacked vertex rows, scores and
    factors, p and tau.
    """
    R, Tg, Lg = sets.V[ids, :n], sets.T[ids], sets.L[:, :n, :n][ids]
    At = np.matmul(R, Tg[:, :, None])[..., 0]
    g = ids.size
    UV = np.empty((2 * g, n))
    UV[:g], UV[g:] = At, 1.0
    singular = 0
    # dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b), as _dtrtrs
    # calls it, solving in place: rows j and g + j of UV become K^{-1} A't
    # and K^{-1} 1 of row j.
    for L, u, v in zip(Lg.transpose(0, 2, 1), UV[:g], UV[g:]):
        singular |= dtrtrs(L, u, 0, 1, 0, n, 1)[1]
        dtrtrs(L, u, 0, 0, 0, n, 1)
        dtrtrs(L, v, 0, 1, 0, n, 1)
        dtrtrs(L, v, 0, 0, 0, n, 1)
    sums = UV.sum(axis=1)
    # A row sum is finite wherever its row is; one that overflows only
    # sends the rows through the checks, which then pass.
    if singular or not math.isfinite(sum(sums.tolist())):
        for L, at in zip(Lg, At):
            _relaxed_checked(L, at)
    lam = (1.0 - sums[:g]) / sums[g:]
    return R, Tg, Lg, UV[:g] + lam[:, None] * UV[g:], 1.0 - lam


def _drop_step(sets: _ActiveSets, b: int, gamma: float, blocker: int, p_hat):
    """Step row b ``gamma`` of the way to ``p_hat`` and drop the structure
    at ``blocker``, whose weight that brings to zero."""
    n = sets.n[b]
    if n == 1:
        raise _unresolved(sets.T[b], "a drop would empty the support")
    # A zero-length drop of the newest structure, the one the previous
    # step added at weight 0, leaves the factor as exactly L[:-1, :-1]
    # and the weights and moments bitwise where the add put them, so the
    # next step would ask the oracle at the same residual and add the
    # same structure again.  Refactorize and widen the dual tolerance,
    # giving up after three rounds.
    cycle = gamma == 0.0 and blocker == n - 1
    if cycle and sets.widenings[b] >= 3:
        raise ActiveSetCycleError(
            "active set keeps exchanging the same structure after 3 tolerance widenings"
        )
    W = sets.W[b]
    probs = (1.0 - gamma) * W[:n] + gamma * p_hat
    W[:blocker], W[blocker : n - 1], W[n - 1] = probs[:blocker], probs[blocker + 1 :], 0.0
    V = sets.V[b]
    V[blocker : n - 1], V[n - 1] = V[blocker + 1 : n], 0.0
    del sets.keys[b][blocker]
    sets._drop(b, blocker)
    # No condition check here: in exact arithmetic, deleting a structure
    # conditions each later Cholesky pivot on fewer structures, so no
    # pivot falls, and the next add runs the check again.
    sets.M[b] = sets.V[b, : n - 1].T @ W[: n - 1]
    sets.iterations[b] += 1
    sets.drops[b] += 1
    if cycle:
        sets._refactorize(b, n - 1)
        sets.tol[b] *= 10.0
        sets.widenings[b] += 1


def _add_step(sets: _ActiveSets, ids, n: int, F, E, pivots: list, diag: list):
    """Add to the supports of the rows ``ids`` (an int array), all of size
    ``n``, the vertices of the float rows ``F``, growing each factor by its
    row of ``E`` = L^{-1} cross, its pivot and its diagonal entry a'a + 1."""
    sets.V[ids, n] = F  # the weight is W[b, n], kept at 0
    bad, grown, cond = sets._grow(ids, n, E, pivots, diag)
    for b in bad:
        try:
            sets._refactorize(b, n + 1)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSupportError(
                "candidate structure is affinely dependent on the active set") from exc
        grown.append(b)
        cond.append(_condition(sets.hi[b], sets.lo[b]))
    best, adds = sets.max_condition, sets.adds
    for b, c in zip(grown, cond):
        if c > best[b]:
            best[b] = c
        if c > _COND_LIMIT:
            sets._refactorize(b, n + 1)
        adds[b] += 1


def _advance_rows(sets: _ActiveSets, oracle, live) -> None:
    """One active-set step of each row in the list ``live`` of ``sets``
    (none converged), made in place: a relaxed QP solve, then either a
    drop of the structure that blocks the step or an oracle query that
    adds the most violated structure or certifies the row converged.  A
    step changes a support by at most one structure and never raises the
    objective.

    The rows are grouped by support size.  Each group gathers its vertex
    rows and factors from the stack, and takes A't, the sums of the
    relaxed solution, the moments, the ratio test and an add's cross
    terms and pivots as stacked arrays, and writes the weights, moments,
    added vertex rows and factor rows back by scatter; the triangular
    solves, the drops, the refactorizations and the widenings run per
    row, and so do the tests and counters on the per-row lists.  Every
    stacked product is one per-row kernel on arrays of one size, so each
    row has the bits of its step alone.  The oracle is asked once, for
    every row that reaches it.  A step that raises may leave its rows
    part-way.
    """
    reach, by_size, sizes = [], {}, sets.n
    for b in live:
        by_size.setdefault(sizes[b], []).append(b)
    for n, ids in by_size.items():
        ids = np.array(ids)
        R, Tg, Lg, P_hat, tau_hat = _relaxed_rows(sets, ids, n)
        # The ratio test: the first index at the smallest p / (p - p_hat)
        # over p > p_hat, and only below 1.  A ratio below 1 needs a
        # p_hat below 0 (fmin skips NaN, as a test p_hat < 0 would): p >
        # p_hat >= 0 gives p - p_hat <= p, and a ratio of at least 1 in
        # floating point too.  Like a test on Python floats, it warns of
        # nothing, and fmin skips the NaN of inf / inf.
        if np.fmin.reduce(P_hat, axis=None) < 0.0:
            P = sets.W[ids, :n]
            with np.errstate(all="ignore"):
                ratio = np.divide(P, P - P_hat, out=np.full(P.shape, np.inf), where=P > P_hat)
            gamma = np.fmin.reduce(ratio, axis=1)
            blocked = gamma < 1.0
            if True in blocked.tolist():
                blocker = np.argmax(ratio == gamma[:, None], axis=1)
                for j in np.flatnonzero(blocked).tolist():
                    k = int(blocker[j])
                    _drop_step(sets, int(ids[j]), float(ratio[j, k]), k, P_hat[j])
                go = ~blocked
                if True not in go.tolist():
                    continue
                ids, R, Tg, Lg, P_hat, tau_hat = (
                    ids[go], R[go], Tg[go], Lg[go], P_hat[go], tau_hat[go])
        M = np.matmul(R.transpose(0, 2, 1), P_hat[:, :, None])[..., 0]
        reach.append((n, ids, R, Lg, P_hat, tau_hat, M, Tg - M))
    if not reach:
        return
    bits, scores = _oracle_rows(
        oracle, reach[0][-1] if len(reach) == 1 else np.concatenate([r[-1] for r in reach]))
    D = bits.shape[1]
    raw, at, ones = bits.tobytes(), 0, bits.sum(axis=1).tolist()  # ones: each vertex's a'a
    tau_of, nu_of, steps, tol, converged, known = (
        sets.tau, sets.nu_min, sets.iterations, sets.tol, sets.converged, sets.keys)
    for n, ids, R, Lg, P_hat, tau_hat, M, _ in reach:
        g = ids.size
        sets.M[ids], sets.W[ids, :n] = M, P_hat
        start, add, diag = at, [], []
        for b, tau in zip(ids.tolist(), tau_hat.tolist()):
            nu = tau - scores[at]
            tau_of[b], nu_of[b] = tau, nu
            steps[b] += 1
            if nu >= -tol[b]:
                converged[b] = True
            else:  # unless the candidate is already in the support
                key = raw[at * D:(at + 1) * D]
                if key in known[b]:
                    converged[b] = True
                else:
                    add.append(at)
                    known[b].append(key)
                    diag.append(ones[at] + 1.0)  # a'a + 1
            at += 1
        if not add:
            continue
        if len(add) < g:
            go = np.array(add) - start
            ids, R, Lg = ids[go], R[go], Lg[go]
            F = bits[add].astype(np.float64)
        else:
            F = bits[start:at].astype(np.float64)
        # 0/1 products: whole numbers, so any summation order gives their bits.
        E = np.matmul(R, F[:, :, None])[..., 0] + 1.0  # the cross terms, then in place
        for L, cross in zip(Lg.transpose(0, 2, 1), E):  # ell = L^{-1} cross
            dtrtrs(L, cross, 0, 1, 0, n, 1)
        pivots = [d - e for d, e in zip(diag, _row_dots(E, E).tolist())]
        _add_step(sets, ids, n, F, E, pivots, diag)


@dataclass(frozen=True, eq=False)
class SparseMapResult:
    """Converged (or iteration-capped) SparseMAP solution.

    ``probs`` and the rows of the vertex matrix ``rows`` align with
    ``structures``, built when first read, each scored by the dot of its
    bits with the scores that were projected, as ``map_rows`` scores a
    vertex.  ``index_of`` is the oracle's ``outcome_index`` hook
    (``Structure.index`` by default); ``outcome_ids`` applies it to every
    structure when first read, giving its integer code in the polytope's
    outcome space.  ``adds``, ``drops``,
    ``refactorizations`` and ``widenings`` count what the solver did:
    ``iterations == adds + drops + int(converged)``.  ``max_condition`` is
    the largest condition estimate of the bordered Gram factor the solver
    checked, (max |diag L| / min |diag L|)^2: the first factor's, then the
    one after each add; past 1e12 it rebuilt the factor.
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
    _t: np.ndarray = field(repr=False)

    @property
    def support_size(self) -> int:
        return self.probs.size

    @cached_property
    def structures(self) -> list:
        return _structures(self.rows, _row_dots(self.rows, self._t))

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


def _row_by_row(stacked, join, *batch):
    """``stacked(*batch)``, the rows of the batch run together; if that
    raises, ``join`` of the list of ``stacked`` of each row alone instead,
    in order, so that the first row that raises raises, and a batch of one
    re-raises."""
    try:
        return stacked(*batch)
    except Exception:
        if len(batch[0]) == 1:
            raise
    return join([stacked(*(a[i:i + 1] for a in batch)) for i in range(len(batch[0]))])


# Each row's figures in a solved batch, named as its SparseMapResult names them.
_FIGURES = ("tau", "converged", "iterations", "nu_min", "adds", "drops", "refactorizations",
            "widenings", "max_condition")


class _Solved:
    """A solved batch as arrays, in batch order, sharing no memory with
    the solver's stack.

    Row i's support is the ``sizes[i]`` structures its active set gives
    positive weight, in the active set's order: their weights are the
    leading entries of ``probs[i]`` and their vertex rows the leading rows
    of ``rows[i]``, zeros past them, where ``probs`` is (B, S), ``rows``
    (B, S, D) and S the largest support.  ``moments`` is (B, D); ``sizes``
    and each name of :data:`_FIGURES` are lists of B Python values.
    """

    def __init__(self, probs, rows, moments, figures: dict):
        self.probs, self.rows, self.moments = probs, rows, moments
        vars(self).update(figures)

    @classmethod
    def _of(cls, sets: _ActiveSets, rows: list) -> "_Solved":
        """The stack rows ``rows`` of ``sets``, in that order, each
        support's structures of positive weight packed to the front, as
        :func:`sparsemap` keeps them; raises for a row that has none."""
        sizes, W = [sets.n[b] for b in rows], sets.W[rows]
        S = max(sizes, default=0)
        keep = W > 0.0  # and W and V are 0 past each support
        if np.count_nonzero(keep) == sum(sizes):  # every structure keeps weight
            probs, packed = W[:, :S], sets.V[rows, :S]
        else:
            sizes = np.count_nonzero(keep, axis=1)
            if not sizes.all():
                raise _unresolved(sets.T[rows[int(sizes.argmin())]],
                                  "no structure keeps positive weight")
            on = np.arange(sizes.max()) < sizes[:, None]  # the packed places
            probs, packed = np.zeros(on.shape), np.zeros(on.shape + (sets.V.shape[2],))
            r, c = keep.nonzero()
            probs[on], packed[on] = W[r, c], sets.V[np.asarray(rows)[r], c]
            sizes = sizes.tolist()
        figures = {name: [getattr(sets, name)[b] for b in rows] for name in _FIGURES}
        return cls(probs, packed, sets.M[rows], dict(figures, sizes=sizes))

    @classmethod
    def _join(cls, parts: list, origins: list) -> "_Solved":
        """One batch of the solved ``parts``, the rows of part k being the
        batch rows ``origins[k]``; a lone part is returned as it is."""
        if len(parts) == 1:
            return parts[0]
        B, S = sum(map(len, origins)), max(part.probs.shape[1] for part in parts)
        probs, rows = np.zeros((B, S)), np.zeros((B, S, parts[0].rows.shape[2]))
        moments = np.empty((B, parts[0].moments.shape[1]))
        figures = {name: [None] * B for name in _FIGURES + ("sizes",)}
        for part, origin in zip(parts, origins):
            width = part.probs.shape[1]
            probs[origin, :width], rows[origin, :width] = part.probs, part.rows
            moments[origin] = part.moments
            for name, values in figures.items():
                for i, value in zip(origin, getattr(part, name)):
                    values[i] = value
        return cls(probs, rows, moments, figures)


def _solve_rows(oracle, T, max_iter: int, tol: float):
    """:func:`_solve` of a (B, oracle.dim) matrix, after the argument
    checks, as one stack (:class:`_ActiveSets`) whose rows advance in
    lockstep; the first error met in any row is raised.  Returns the
    solved parts (:class:`_Solved`) and the batch rows of each part.

    A step adds at most one structure to a row, so the stack grows only
    between steps, when a live row's support fills the room.  Before the
    room doubles, the converged rows leave the stack as one packed part:
    a batch holds room for its live rows only.  The rows left at the end
    make the last part, which is the whole batch if it is the only one.
    """
    _lapack()
    if not np.isfinite(T).all():
        raise ValueError("scores must be finite")
    B = T.shape[0]
    sets = _ActiveSets(T, _MIN_ROOM, tol)
    parts, origins = [], []
    # Scores near the float range can overflow in the oracle's scores and
    # in A't, and a residual that is not finite gives the unchecked oracle
    # 0 * inf products.  The step that meets a non-finite A't or residual
    # raises ValueError, and numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        if B:
            # Each row starts at weight 1 on its MAP vertex, with the 1 x 1
            # factor sqrt(a'a + 1), the bits of np.linalg.cholesky, which
            # is both of its diagonal bounds.
            bits, _ = _oracle_rows(oracle, T)
            F = bits.astype(np.float64)
            sets.V[:, 0], sets.W[:, 0], sets.M[:] = F, 1.0, F
            roots = np.sqrt(F.sum(axis=1) + 1.0)
            sets.L[:, 0, 0] = roots
            sets.n[:] = [1] * B
            sets.keys[:] = [[key] for key in map(bytes, bits)]
            sets.hi[:] = sets.lo[:] = roots.tolist()
        for _ in range(max_iter):
            live = [b for b, done in enumerate(sets.converged) if not done]
            if not live:
                break
            size = max(sets.n[b] for b in live) + 1
            if size > sets.V.shape[1]:
                if len(live) < len(sets.n):
                    done = [b for b, finished in enumerate(sets.converged) if finished]
                    parts.append(_Solved._of(sets, done))
                    origins.append([sets.origin[b] for b in done])
                    sets._keep(live)
                    live = list(range(len(live)))
                sets._reserve(size)
            _advance_rows(sets, oracle, live)
    parts.append(_Solved._of(sets, list(range(len(sets.n)))))
    origins.append(sets.origin)
    return parts, origins


def _solve(oracle, T, max_iter: int | None = None, tol: float = 1e-9) -> _Solved:
    """The solve of each row of a float (B, oracle.dim) matrix ``T``, as a
    :class:`_Solved`: the core of :func:`sparsemap_rows`, with the bits
    and the errors of its results, for a caller that made ``T``."""
    max_iter = _check_solver(oracle, tol, max_iter)
    return _row_by_row(lambda rows: _Solved._join(*_solve_rows(oracle, rows, max_iter, tol)),
                       lambda parts: _Solved._join(parts, [[i] for i in range(len(parts))]), T)


def _results(oracle, T, max_iter: int, tol: float) -> list:
    """One :class:`SparseMapResult` per row of ``T`` from :func:`_solve_rows`,
    each part turned into its results and let go before the next; no
    result shares memory with another, with the solve or with ``T``."""
    parts, origins = _solve_rows(oracle, T, max_iter, tol)
    n_outcomes = getattr(oracle, "n_outcomes", 1 << oracle.dim)
    index_of = getattr(oracle, "outcome_index", lambda s: s.index)
    results = [None] * T.shape[0]
    while parts:
        solved, origin = parts.pop(), origins.pop()
        figures = zip(*(getattr(solved, name) for name in _FIGURES))
        for i, n, probs, rows, moments, values in zip(
                origin, solved.sizes, solved.probs, solved.rows, solved.moments, figures):
            results[i] = SparseMapResult(
                probs=probs[:n].copy(), moments=moments.copy(), n_outcomes=n_outcomes,
                index_of=index_of, rows=rows[:n].copy(), _t=T[i].copy(),
                **dict(zip(_FIGURES, values)))
    return results


def sparsemap_rows(oracle, scores, *, max_iter: int | None = None, tol: float = 1e-9) -> list:
    """:func:`sparsemap` of each row of a (B, oracle.dim) score matrix, as a
    list of B results, each with the bits of that row's solve alone.

    The rows are solved together: each step advances every unconverged
    row once, the rows of one support size as stacked arrays, and
    ``oracle.map_rows`` answers every row of a step in one call.
    ``max_iter`` caps each row's steps.  If rows raise, the error raised
    is the one of the lowest-index row, the error a loop of
    :func:`sparsemap` over the rows would raise.
    """
    T = np.asarray(scores, dtype=np.float64)
    if T.ndim != 2 or T.shape[1] != oracle.dim:
        raise ValueError("scores must be a (B, oracle.dim) matrix")
    max_iter = _check_solver(oracle, tol, max_iter)
    return _row_by_row(lambda rows: _results(oracle, rows, max_iter, tol),
                       lambda parts: [res for part in parts for res in part], T)


def sparsemap(oracle, t, *, max_iter: int | None = None, tol: float = 1e-9) -> SparseMapResult:
    """Project ``t`` onto the polytope served by ``oracle``: the one-row
    case of :func:`sparsemap_rows`.

    ``oracle`` must expose ``dim`` and ``map_rows(T)``, which returns the
    uint8 (B, D) bits of the best vertex of each row of T and their float
    (B,) scores; the optional ``n_outcomes`` / ``outcome_index`` hooks
    control how the result is keyed as a distribution.  Starts from the MAP vertex and
    runs until the oracle certifies dual feasibility (``nu_min >= -tol``)
    or ``max_iter`` (default 100 + 10 D) steps have been taken.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or t.size != oracle.dim:
        raise ValueError("scores must be a 1-d vector of length oracle.dim")
    if not np.all(np.isfinite(t)):
        raise ValueError("scores must be finite")
    return _results(oracle, t[None], _check_solver(oracle, tol, max_iter), tol)[0]


def _vjp_rows(rows, sizes: list, converged: list, upstream) -> np.ndarray:
    """:func:`_vjp` of all rows together; the first error met in any row
    is raised.

    Each support's bordered projection X = K^{-1} - K^{-1}1 1'K^{-1} /
    (1'K^{-1}1), K = A'A + 11^T, is applied to its upstream and mapped
    back through A.  X is the fixed-support sensitivity of the
    probabilities to their scores A't; it reduces to the centering
    projector I - 11^T/n when the structures are orthonormal one-hots.
    The supports of one size take their Gram matrices, Cholesky factors,
    finiteness tests (of the upstream, then of the forward solves), sums
    and the products with A as stacks, and the triangular solves run per
    row.  A factor from a Cholesky decomposition has a positive diagonal,
    so LAPACK never finds it singular.
    """
    _lapack()
    if not all(converged):
        raise ValueError("backward pass requires a converged result")
    by_size = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    out = np.empty((len(sizes), rows.shape[2]))
    for n, idx in by_size.items():
        R = rows[idx, :n]
        G = np.matmul(R, R.transpose(0, 2, 1)) + 1.0
        try:
            Ls = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSupportError("active-set Gram matrix is singular") from exc
        # dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b), as _dtrtrs
        # calls it, solving in place: U becomes K^{-1} upstream, V K^{-1} 1.
        Lt, U, V = Ls.transpose(0, 2, 1), upstream[idx, :n], np.ones((len(idx), n))
        if not np.isfinite(U).all():
            raise ValueError("right-hand side must be finite")
        for L, u in zip(Lt, U):
            dtrtrs(L, u, 0, 1, 0, n, 1)
        if not np.isfinite(U).all():
            raise ValueError("right-hand side must be finite")
        for L, u, v in zip(Lt, U, V):
            dtrtrs(L, u, 0, 0, 0, n, 1)
            dtrtrs(L, v, 0, 1, 0, n, 1)
            dtrtrs(L, v, 0, 0, 0, n, 1)
        X = U - (U.sum(axis=1) / V.sum(axis=1))[:, None] * V
        out[idx] = np.matmul(R.transpose(0, 2, 1), X[:, :, None])[..., 0]
    return out


def _vjp(rows, sizes: list, converged: list, upstream) -> np.ndarray:
    """The (B, D) vjp of a solved batch: row i's support is the leading
    ``sizes[i]`` of its (B, S, D) vertex ``rows``, ``converged[i]`` its
    flag, and the leading ``sizes[i]`` entries of the float (B, K)
    ``upstream`` its upstream, K at least the largest support.  The core
    of :func:`sparsemap_vjp_rows`, with its bits and errors, for a caller
    that made ``upstream``."""
    return _row_by_row(_vjp_rows, np.concatenate, rows, sizes, converged, upstream)


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
    sizes = [res.probs.size for res in results]
    if upstream.ndim != 2 or upstream.shape[0] != len(results) or (
            results and upstream.shape[1] < max(sizes)):
        raise ValueError("upstream must be a (B, K) matrix with one row per result and "
                         "K at least the largest support")
    rows = np.zeros((len(results), max(sizes, default=0),
                     results[0].rows.shape[1] if results else 0))
    for row, n, res in zip(rows, sizes, results):
        row[:n] = res.rows
    return _vjp(rows, sizes, [res.converged for res in results], upstream)


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
    return _vjp_rows(result.rows[None], [result.probs.size], [True], upstream[None])[0]


def sparsemap_vjp(result: SparseMapResult, upstream_moments) -> np.ndarray:
    """Gradient w.r.t. t of <upstream, moments(t)> at fixed support."""
    upstream_moments = np.asarray(upstream_moments, dtype=np.float64)
    if upstream_moments.shape != result.moments.shape:
        raise ValueError("upstream must match the moments vector")
    if not np.all(np.isfinite(upstream_moments)):
        raise ValueError("upstream must be finite")
    return sparsemap_vjp_probs(result, result.rows @ upstream_moments)
