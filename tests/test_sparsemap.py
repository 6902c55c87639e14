"""Active-set projection onto structure polytopes and its backward pass."""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

import sparsemarg.activeset as activeset
import sparsemarg.bitvec as bitvec
from sparsemarg.activeset import (
    _MIN_ROOM,
    ActiveSetCycleError,
    DegenerateSupportError,
    SparseMapResult,
    _ActiveSets,
    _condition,
    _dtrtrs,
    sparsemap,
    sparsemap_rows,
    sparsemap_vjp,
    sparsemap_vjp_probs,
    sparsemap_vjp_rows,
)
from sparsemarg.bitvec import (
    BitVectorPolytope,
    BudgetedBitVectorPolytope,
    IdentityPolytope,
    Structure,
    enumerate_all,
)
from sparsemarg.reference import central_difference, hypercube_projection, relative_error
from sparsemarg.rng import make_rng
from sparsemarg.simplex import _row_dots, sparsemax, sparsemax_vjp


def _objective(it):
    return float(((it.rows.T @ it.probs - it.t) ** 2).sum())


def _iterate(sets, b):
    """Row b of the stack ``sets``, copied: its scores, vertex rows,
    weights, moments, factor, the bits of its structures, and its
    scalars."""
    n = sets.n[b]
    return SimpleNamespace(
        t=sets.T[b].copy(), rows=sets.V[b, :n].copy(), probs=sets.W[b, :n].copy(),
        moments=sets.M[b].copy(), L=sets.L[b, :n, :n].copy(),
        bits=[tuple(key) for key in sets.keys[b]], tol=sets.tol[b],
        converged=sets.converged[b], iterations=sets.iterations[b], adds=sets.adds[b],
        drops=sets.drops[b], refactorizations=sets.refactorizations[b],
        widenings=sets.widenings[b], max_condition=sets.max_condition[b])


def _frozen(it):
    """Everything an iterate holds, by value and by bytes."""
    return {key: value.tobytes() if isinstance(value, np.ndarray) else value
            for key, value in vars(it).items()}


def _observe(monkeypatch):
    """Record every step the solver takes: each call of ``_advance_rows``
    appends the stack, its live rows, each live row's iterate before the
    step, each one's after it (none if the step raised), and the
    exception the step raised (or None), to the returned list.  A step
    that raises still raises."""
    steps, advance = [], activeset._advance_rows

    def advance_rows(sets, oracle, live):
        step = SimpleNamespace(sets=sets, live=list(live), after={}, error=None,
                               before={b: _iterate(sets, b) for b in live})
        steps.append(step)
        try:
            advance(sets, oracle, live)
        except Exception as exc:
            step.error = exc
            raise
        step.after = {b: _iterate(sets, b) for b in live}

    monkeypatch.setattr(activeset, "_advance_rows", advance_rows)
    return steps


def test_identity_polytope_equals_sparsemax_frozen():
    res = sparsemap(IdentityPolytope(3), [1.0, 0.5, -0.2])
    np.testing.assert_allclose(res.distribution.densify(), [0.75, 0.25, 0.0], atol=1e-12)
    assert res.converged


def test_identity_polytope_equals_sparsemax_random():
    rng = make_rng(0)
    for _ in range(300):
        k = int(rng.integers(2, 11))
        s = rng.normal(size=k) * float(rng.choice([0.5, 2.0]))
        res = sparsemap(IdentityPolytope(k), s)
        np.testing.assert_allclose(
            res.distribution.densify(), sparsemax(s).densify(), atol=1e-6
        )


def test_bitvec_frozen_moments():
    # Moments are unique even when the distribution over vertices is not;
    # frozen from the hypercube-projection closed form.
    res = sparsemap(BitVectorPolytope(2), [0.3, -0.2])
    np.testing.assert_allclose(res.moments, [0.3, 0.0], atol=1e-10)
    probs = {s.bits: p for s, p in zip(res.structures, res.probs)}
    assert sum(probs.values()) == pytest.approx(1.0)


def test_bitvec_vertex_point_mass():
    res = sparsemap(BitVectorPolytope(2), [5.0, 5.0])
    np.testing.assert_allclose(res.moments, [1.0, 1.0], atol=1e-12)
    assert res.support_size == 1
    assert res.structures[0].bits == (1, 1)


def test_bitvec_moments_match_clipping():
    rng = make_rng(1)
    for _ in range(200):
        d = int(rng.integers(2, 11))
        t = rng.normal(size=d) * 1.5
        res = sparsemap(BitVectorPolytope(d), t)
        assert res.converged
        np.testing.assert_allclose(res.moments, hypercube_projection(t), atol=1e-6)
        assert res.support_size <= d + 1
        # Optimality certified by one more oracle query.
        assert res.nu_min >= -1e-9


def test_budgeted_polytope_respects_budget():
    rng = make_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        b = int(rng.integers(1, d + 1))
        t = rng.normal(size=d)
        res = sparsemap(BudgetedBitVectorPolytope(d, b), t)
        assert all(sum(s.bits) <= b for s in res.structures)
        assert res.moments.sum() <= b + 1e-9


def test_iteration_bound_loose():
    rng = make_rng(3)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        res = sparsemap(BitVectorPolytope(d), rng.normal(size=d))
        assert res.iterations <= 50 * d


def test_max_iter_reached_returns_best_iterate():
    res = sparsemap(BitVectorPolytope(6), np.linspace(-0.4, 0.4, 6), max_iter=1)
    assert not res.converged
    assert res.support_size >= 1
    with pytest.raises(ValueError, match="requires a converged result"):
        sparsemap_vjp_probs(res, np.ones(res.support_size))


def test_vjp_rejects_misaligned_upstream():
    res = sparsemap(BitVectorPolytope(4), [0.4, -0.3, 0.1, 0.2])
    assert res.converged and res.support_size >= 2
    for bad in (np.ones(res.support_size + 1), np.ones((res.support_size, 1))):
        with pytest.raises(ValueError, match="align with the support structures"):
            sparsemap_vjp_probs(res, bad)
    for bad in (np.ones(5), np.ones((4, 1)), 1.0):
        with pytest.raises(ValueError, match="must match the moments vector"):
            sparsemap_vjp(res, bad)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sparsemap(BitVectorPolytope(2), [np.inf, 0.0])
    with pytest.raises(ValueError):
        sparsemap(BitVectorPolytope(2), [0.1])
    with pytest.raises(ValueError):
        sparsemap(BitVectorPolytope(2), [0.1, 0.2], tol=0.0)
    with pytest.raises(ValueError):
        sparsemap(BitVectorPolytope(2), [0.1, 0.2], max_iter=0)


def test_step_adds_second_vertex_on_near_tie(monkeypatch):
    # Hand trace: starting at the MAP vertex e0 for t = [1, 0.9], the
    # first step must bring in the runner-up vertex.
    steps = _observe(monkeypatch)
    sparsemap(IdentityPolytope(2), [1.0, 0.9])
    assert steps[0].before[0].bits == [(1, 0)]
    assert set(steps[0].after[0].bits) == {(1, 0), (0, 1)}


def test_step_at_optimum_is_converged_noop(monkeypatch):
    # The rows of a batch converge steps apart.  Once a row has converged
    # no later step takes it, and its iterate stays as that step left it.
    steps = _observe(monkeypatch)
    for oracle, T in ((IdentityPolytope(2), np.array([[1.0, 0.9], [0.2, 0.1], [5.0, -5.0]])),
                      (BitVectorPolytope(8), _mixed_rows(make_rng(20), 12, 8))):
        steps.clear()
        solved = sparsemap_rows(oracle, T)
        done = {}
        for step in steps:
            assert not done.keys() & set(step.live)
            done.update({b: it for b, it in step.after.items() if it.converged})
        assert sorted(done) == list(range(len(T)))
        assert len({res.iterations for res in solved}) > 1
        for b, it in done.items():
            assert _frozen(_iterate(steps[-1].sets, b)) == _frozen(it)
            assert solved[b].iterations == it.iterations


def test_step_objective_monotone(monkeypatch):
    steps = _observe(monkeypatch)
    rng = make_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        assert sparsemap(BitVectorPolytope(d), rng.normal(size=d)).converged
    for step in steps:
        for b, it in step.after.items():
            assert _objective(it) <= _objective(step.before[b]) + 1e-12


def test_vjp_identity_matches_sparsemax_vjp():
    rng = make_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        s = rng.normal(size=k)
        res = sparsemap(IdentityPolytope(k), s)
        u = rng.normal(size=k)
        dist = sparsemax(s)
        np.testing.assert_allclose(
            sparsemap_vjp(res, u), sparsemax_vjp(s, dist, u), atol=1e-8
        )


def test_vjp_singleton_support_is_zero():
    res = sparsemap(BitVectorPolytope(3), [4.0, 5.0, 6.0])
    assert res.support_size == 1
    np.testing.assert_allclose(sparsemap_vjp(res, [1.0, 2.0, 3.0]), 0.0)


def _support_stable(t, res, h):
    # The support set must be identical at every FD evaluation point,
    # otherwise the difference quotient straddles a kink.
    bits = {s.bits for s in res.structures}
    for i in range(t.size):
        for sign in (-1.0, 1.0):
            x = t.copy()
            x[i] += sign * h
            probe = sparsemap(BitVectorPolytope(t.size), x)
            if {s.bits for s in probe.structures} != bits:
                return False
    return True


def test_vjp_moments_matches_finite_differences():
    rng = make_rng(6)
    checked = 0
    for _ in range(200):
        t = rng.normal(size=4)
        res = sparsemap(BitVectorPolytope(4), t)
        if not _support_stable(t, res, 1e-5):
            continue
        u = rng.normal(size=4)

        def f(x):
            return u @ sparsemap(BitVectorPolytope(4), x).moments

        fd = central_difference(f, t, 1e-5)
        assert relative_error(sparsemap_vjp(res, u), fd) <= 1e-3
        checked += 1
    assert checked > 50


def test_vjp_probs_matches_finite_differences():
    rng = make_rng(7)
    checked = 0
    for _ in range(200):
        t = rng.normal(size=4)
        res = sparsemap(BitVectorPolytope(4), t)
        if res.support_size < 2 or not _support_stable(t, res, 1e-5):
            continue
        # Loss table over every configuration so the FD probe stays
        # defined even if a perturbation nudges the support.
        table = {s.bits: float(rng.normal()) for s in enumerate_all(np.zeros(4))}
        losses = np.array([table[s.bits] for s in res.structures])

        def f(x):
            r = sparsemap(BitVectorPolytope(4), x)
            return sum(table[s.bits] * p for s, p in zip(r.structures, r.probs))

        fd = central_difference(f, t, 1e-5)
        assert relative_error(sparsemap_vjp_probs(res, losses), fd) <= 1e-3
        checked += 1
    assert checked > 30


def test_distribution_keys_by_outcome_id():
    res = sparsemap(BitVectorPolytope(3), [0.4, -0.3, 0.1])
    dist = res.distribution
    assert dist.dim == 8
    assert dist.indices.tolist() == sorted(dist.indices.tolist())
    np.testing.assert_allclose(dist.probs.sum(), 1.0)


def _stack(B):
    """An empty stack of B rows, with the solver's starting room."""
    return _ActiveSets(np.zeros((B, 1)), _MIN_ROOM, 1e-9)


def _append(sets, ids, crosses, diags):
    """Grow the factors of the rows ``ids`` of ``sets``, all of one size,
    by one structure each, given its cross terms and diagonal entry, as
    the solver's add does: ell = L^{-1} cross (here by scipy), pivot
    diag - ell'ell, after making room for them as the solver does
    before a step.  Returns what ``_ActiveSets._grow`` returns."""
    n = sets.n[ids[0]]
    sets._reserve(n + 1)
    E = np.array([solve_triangular(sets.L[b, :n, :n], cross, lower=True)
                  for b, cross in zip(ids, crosses)])
    return sets._grow(np.array(ids), n, E, [d - e @ e for d, e in zip(diags, E)], list(diags))


def test_cholesky_factor_append_drop_agree_with_refactor():
    # One stack of 50 rows, each grown column by column to its own bordered
    # matrix and then dropped one structure: two triangular solves through
    # each factor, read in the stack's wider buffer, solve the matrix.
    rng = make_rng(8)
    sets, grams = _stack(50), []
    for b in range(50):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n + 2))
        grams.append(m @ m.T + np.eye(n))  # PD
        sets._rebuild(b, grams[b][:1, :1].copy())
    for j in range(1, 6):
        ids = [b for b, gram in enumerate(grams) if j < len(gram)]
        _append(sets, ids, [grams[b][:j, j] for b in ids], [float(grams[b][j, j]) for b in ids])

    def solve(b, rhs):
        L = sets.L[b, : sets.n[b]]
        return _dtrtrs(L, _dtrtrs(L, rhs, 1), 0)

    for b, gram in enumerate(grams):
        n = len(gram)
        np.testing.assert_allclose(solve(b, np.ones(n)), np.linalg.solve(gram, np.ones(n)),
                                   atol=1e-9)
        j = int(rng.integers(n))
        sets._drop(b, j)
        reduced = np.delete(np.delete(gram, j, axis=0), j, axis=1)
        np.testing.assert_allclose(solve(b, np.ones(n - 1)),
                                   np.linalg.solve(reduced, np.ones(n - 1)), atol=1e-9)


def test_dtrtrs_solves_match_scipy_wrapper():
    # scipy's checked solve_triangular is the reference for the direct
    # LAPACK calls: same bits, forward, back and through the factor, in
    # place as the solver calls dtrtrs, and in a stack's wider buffer.
    rng = make_rng(9)
    for n in range(1, 41):
        for _ in range(8):
            m = rng.normal(size=(n, n + 2))
            gram = m @ m.T + np.eye(n)
            L = np.linalg.cholesky(gram)
            b = rng.normal(size=n) * float(rng.choice([1e-3, 1.0, 1e3]))
            forward = solve_triangular(L, b, lower=True)
            assert np.array_equal(_dtrtrs(L, b, 1), forward)
            assert np.array_equal(_dtrtrs(L, b, 0), solve_triangular(L.T, b, lower=False))
            expected = solve_triangular(L.T, forward, lower=False)
            assert np.array_equal(_dtrtrs(L, _dtrtrs(L, b, 1), 0), expected)
            # dtrtrs(a, b, lower, trans, unitdiag, lda, overwrite_b), in place.
            x = b.copy()
            dtrtrs(L.T, x, 0, 1, 0, n, 1)
            assert np.array_equal(x, forward)
            dtrtrs(L.T, x, 0, 0, 0, n, 1)
            assert np.array_equal(x, expected)
            B = rng.normal(size=(n, 2))
            expected = solve_triangular(L.T, solve_triangular(L, B, lower=True), lower=False)
            assert np.array_equal(_dtrtrs(L, _dtrtrs(L, B, 1), 0), expected)
            if n > 1:
                # Row 1 of a stack grows to the whole matrix by one append;
                # LAPACK reads its factor with the stack's room as the
                # leading dimension and gives the same bits.  The stack
                # grows only between steps, so the room is made first.
                sets = _stack(2)
                sets._reserve(n)
                sets._rebuild(1, gram[:-1, :-1])
                _append(sets, [1], [gram[:-1, -1]], [float(gram[-1, -1])])
                Lg = sets.L[1, :n, :n].copy()
                ell = solve_triangular(Lg[:-1, :-1], gram[:-1, -1], lower=True)
                assert np.array_equal(Lg[-1, :-1], ell)
                expected = solve_triangular(Lg.T, solve_triangular(Lg, b, lower=True), lower=False)
                wide = sets.L[1, :n]
                assert np.array_equal(_dtrtrs(wide, _dtrtrs(wide, b, 1), 0), expected)


def test_non_finite_right_hand_side_raises_value_error():
    res = sparsemap(BitVectorPolytope(4), [0.3, -0.2, 0.1, 0.05])
    assert res.converged and res.support_size >= 2
    for bad in (np.nan, np.inf, -np.inf):
        upstream = np.zeros(res.support_size)
        upstream[0] = bad
        with pytest.raises(ValueError):
            sparsemap_vjp_probs(res, upstream)
        upstream_moments = np.zeros(4)
        upstream_moments[1] = bad
        with pytest.raises(ValueError):
            sparsemap_vjp(res, upstream_moments)


def test_singular_factor_raises_linalg_error():
    L = np.array([[1.0, 0.0], [0.5, 0.0]])
    for trans in (0, 1):
        with pytest.raises(np.linalg.LinAlgError):
            _dtrtrs(L, np.ones(2), trans)
    with pytest.raises(np.linalg.LinAlgError):
        solve_triangular(L, np.ones(2), lower=True)
    sets = _stack(2)
    sets._rebuild(1, np.eye(2))
    sets.L[1, 1, 1] = 0.0
    for trans in (0, 1):
        with pytest.raises(np.linalg.LinAlgError):
            _dtrtrs(sets.L[1, :2], np.ones(2), trans)


class _ScriptedOracle:
    """Serves the given vertices first, one per row asked, each with a
    score high enough to force an add, then the true MAP vertex of
    ``BitVectorPolytope``.  The first is a solve's starting vertex."""

    def __init__(self, dim, script):
        self.dim = dim
        self.script = [tuple(int(b) for b in bits) for bits in script]
        self.polytope = BitVectorPolytope(dim)

    def map_rows(self, T):
        bits, scores = self.polytope.map_rows(T)
        for i in range(min(len(T), len(self.script))):
            bits[i], scores[i] = self.script.pop(0), 1e3
        return bits, scores


def _assert_rows_track(it):
    rebuilt = np.array(it.bits, dtype=np.float64).reshape(it.rows.shape)
    assert np.array_equal(it.rows, rebuilt)
    np.testing.assert_allclose(it.L @ it.L.T, rebuilt @ rebuilt.T + 1.0, rtol=1e-9, atol=1e-9)


def _check_steps(steps):
    """The kept vertex matrix and factor before and after every step."""
    for step in steps:
        assert step.sets.V.flags.c_contiguous
        for b, it in step.after.items():
            prev = step.before[b]
            _assert_rows_track(prev)
            _assert_rows_track(it)
            if it.drops > prev.drops:
                assert np.array_equal(it.moments, it.rows.T @ it.probs)
            if it.widenings > prev.widenings:
                # Only a step that leaves the iterate where it was is a cycle.
                assert np.array_equal(it.moments, prev.moments)


def test_vertex_matrix_tracks_structures_on_random_scores(monkeypatch):
    steps = _observe(monkeypatch)
    rng = make_rng(10)
    drops = 0
    for _ in range(60):
        d = int(rng.integers(2, 25))
        res = sparsemap(BitVectorPolytope(d), rng.normal(size=d) * 1.5)
        assert res.converged
        drops += res.drops
    assert drops > 0
    _check_steps(steps)


def test_vertex_matrix_tracks_structures_on_ties_and_zeros(monkeypatch):
    steps = _observe(monkeypatch)
    rng = make_rng(11)
    for trial in range(80):
        d = int(rng.integers(2, 12))
        if trial % 2:
            t = np.zeros(d)
        else:
            t = np.round(rng.normal(size=d) * 2.0) / 4.0
        assert sparsemap(BitVectorPolytope(d), t).converged
    # Quarter-step ties at D = 6 drop a vertex and add it back, but the drop
    # lowers the objective (0.3958 to 0.375), so it is not a cycle.
    t = [-0.25, -0.5, 0.5, 0.25, 0.0, -0.25]
    exchanged = sparsemap(BitVectorPolytope(6), t)
    assert exchanged.converged and exchanged.drops > 0
    assert exchanged.widenings == 0
    np.testing.assert_allclose(exchanged.moments, hypercube_projection(t), atol=1e-12)
    _check_steps(steps)


def test_vertex_matrix_tracks_structures_on_budgeted_polytope(monkeypatch):
    steps = _observe(monkeypatch)
    rng = make_rng(12)
    for trial in range(60):
        d = int(rng.integers(2, 12))
        b = int(rng.integers(1, d + 1))
        t = np.zeros(d) if trial % 3 == 0 else rng.normal(size=d)
        assert sparsemap(BudgetedBitVectorPolytope(d, b), t).converged
    # Zero scores: at D = 7 a structure is dropped and re-added, but the
    # drop lowers the objective from 1.43 to 1.6e-34; at D = 38 a step of
    # length zero drops an older structure of weight zero.  Neither repeats.
    for d, b in ((7, 5), (38, 11)):
        exchanged = sparsemap(BudgetedBitVectorPolytope(d, b), np.zeros(d))
        assert exchanged.converged and exchanged.drops > 0
        assert exchanged.widenings == 0
    _check_steps(steps)


def test_vertex_matrix_survives_cycle_handling_until_it_gives_up(monkeypatch):
    # An oracle that keeps offering a vertex the relaxed QP rejects makes
    # the active set add and drop it in turn: three refactorizations with
    # widened tolerance, then ActiveSetCycleError.
    steps = _observe(monkeypatch)
    with pytest.raises(ActiveSetCycleError):
        sparsemap(_ScriptedOracle(2, [(1, 0)] + [(0, 1)] * 10), [1.0, -1.0])
    assert isinstance(steps[-1].error, ActiveSetCycleError)
    assert all(step.error is None for step in steps[:-1])
    _check_steps(steps)
    # The step that gives up leaves the row as the step before it did.
    last = _iterate(steps[-1].sets, 0)
    assert _frozen(last) == _frozen(steps[-2].after[0])
    assert last.widenings == 3
    assert last.refactorizations == 3
    assert last.tol == pytest.approx(1e-6)


def test_exchange_that_lowers_the_objective_is_not_a_cycle():
    # Ties and zeros make the active set drop and re-add structures many
    # times over, but each drop lowers the objective, so none is a cycle.
    t = np.array([0, 0, 0.75, 0, 0.625, 0, 0.375, 0, 0, 0, -0.625,
                  0, 0, 0, 0.25, 0.875, 1.125, 0.625])
    res = sparsemap(BitVectorPolytope(18), t)
    assert res.converged
    assert res.widenings == 0
    np.testing.assert_allclose(res.moments, hypercube_projection(t), atol=1e-12)


def test_vertex_matrix_survives_append_fallback(monkeypatch):
    # (0,0,1,0) = (0,1,1,1) + (1,0,0,0) - (1,1,0,1) is affinely dependent
    # on the support, so the rank-one append refuses it and the solver
    # refactorizes from the vertex matrix (or reports the degeneracy).
    t = np.array([0.35965336448637086, 0.25290413531651446,
                  -0.16609138370147483, 0.2841483171693065])
    script = [(0, 1, 1, 1), (1, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)]
    steps = _observe(monkeypatch)
    try:
        res = sparsemap(_ScriptedOracle(4, script), t)
    except DegenerateSupportError:
        assert len(steps) == 3 and isinstance(steps[2].error, DegenerateSupportError)
        res = None
    assert [step.after[0].refactorizations for step in steps[:2]] == [0, 0]
    _check_steps(steps)
    if res is not None:
        assert steps[2].after[0].refactorizations >= 1
        assert res.converged


def test_solver_counters_account_for_every_iteration():
    rng = make_rng(13)
    for trial in range(200):
        d = int(rng.integers(1, 16))
        kind = trial % 3
        if kind == 0:
            oracle = BitVectorPolytope(d)
        elif kind == 1:
            oracle = BudgetedBitVectorPolytope(d, int(rng.integers(1, d + 1)))
        else:
            oracle = IdentityPolytope(d)
        t = np.round(rng.normal(size=d) * 2.0) / 4.0 if trial % 3 == 0 else rng.normal(size=d)
        max_iter = 2 if trial % 10 == 0 else None
        res = sparsemap(oracle, t, max_iter=max_iter)
        assert res.iterations == res.adds + res.drops + int(res.converged)
        assert res.support_size <= 1 + res.adds - res.drops
        assert res.widenings <= res.refactorizations
        assert res.rows.shape == (res.support_size, d)


@pytest.mark.parametrize("d", [63, 64, 100])
def test_ids_past_int64_stay_exact(d):
    rng = make_rng(14)
    for t in (np.ones(d), rng.normal(size=d)):
        res = sparsemap(BitVectorPolytope(d), t)
        assert res.converged
        assert [int(i) for i in res.outcome_ids] == [s.index for s in res.structures]
        # Read the bits as a binary numeral, bit 0 last.
        assert [s.index for s in res.structures] == [
            int("".join(str(b) for b in reversed(s.bits)), 2) for s in res.structures
        ]
        np.testing.assert_allclose(res.moments, hypercube_projection(t), atol=1e-6)
        if d < 64:
            assert res.outcome_ids.dtype == np.int64
            assert res.distribution.dim == 1 << d
        else:
            assert res.outcome_ids.dtype == object
            with pytest.raises(ValueError, match="int64"):
                res.distribution


def test_identity_polytope_ids_stay_int64_at_large_dim():
    # The id type follows the outcome count, not the dimension.
    res = sparsemap(IdentityPolytope(100), make_rng(15).normal(size=100))
    assert res.outcome_ids.dtype == np.int64
    assert res.distribution.dim == 100


def test_outcome_ids_are_computed_on_first_read(monkeypatch):
    # Training never reads the ids, so a solve must not pay for them.
    reads = []
    index = Structure.index
    monkeypatch.setattr(Structure, "index", property(lambda s: reads.append(s) or index.fget(s)))
    res = sparsemap(BitVectorPolytope(6), make_rng(16).normal(size=6))
    assert reads == []
    ids = res.outcome_ids
    assert reads == res.structures
    assert res.outcome_ids is ids
    assert ids.tolist() == [index.fget(s) for s in res.structures]


def _reference_append(L, cross, diag):
    # The factor update as a fresh zeroed (n+1)^2 matrix.
    n = L.shape[0]
    ell = solve_triangular(L, cross, lower=True)
    grown = np.zeros((n + 1, n + 1))
    grown[:n, :n] = L
    grown[n, :n] = ell
    grown[n, n] = np.sqrt(diag - ell @ ell)
    return grown


def _reference_drop(L, j):
    # Row deletion, then Givens rotations of whole columns.
    n = L.shape[0]
    M = np.delete(L, j, axis=0)
    for r in range(j, n - 1):
        a, b = M[r, r], M[r, r + 1]
        rad = float(np.hypot(a, b))
        if rad == 0.0:
            continue
        c, s = a / rad, b / rad
        col_a, col_b = M[:, r].copy(), M[:, r + 1].copy()
        M[:, r] = c * col_a + s * col_b
        M[:, r + 1] = c * col_b - s * col_a
        M[r, r] = rad
        M[r, r + 1] = 0.0
    return np.ascontiguousarray(M[:, : n - 1])


def _reference_condition(L):
    """(max |diag L| / min |diag L|)^2, inf when the min is not > 0 or the
    square overflows."""
    d = np.abs(np.diag(L))
    hi, lo = float(d.max()), float(d.min())
    if not lo > 0:
        return math.inf
    try:
        return (hi / lo) ** 2
    except OverflowError:
        return math.inf


def test_factor_updates_and_diagonal_bounds_are_exact():
    # Random append and drop sequences at sizes 1 to 40, one per row of a
    # stack of 60, with the appends of one size grown together as the
    # solver grows them.  Each factor's lower triangle has the bits of the
    # whole-matrix updates, its upper triangle stays zero, the stack's
    # room doubles from 16 to 64, and the condition estimate is
    # (max |diag| / min |diag|)^2 of the factor, bit for bit, both as
    # _grow returns it and as _condition gives it from the row's bounds,
    # which are the max and min of the factor's |diagonal| after every
    # append, drop and rebuild.  The estimate is read for a random half of
    # the rows each round.  From a second stream, some appends get a NaN
    # pivot and some rows are rebuilt from their Gram matrix.  A row given
    # a NaN is then only dropped from until a rebuild: its bounds are NaN
    # while its factor holds one, and its estimates are those
    # _reference_condition reads off the factor in the stack, inf while a
    # NaN is left.
    rng, events = make_rng(18), make_rng(19)
    B = 60
    sets, grams, members, pools, refs, rounds = _stack(B), [], [], [], [], []
    for trial in range(B):
        N = int(rng.integers(1, 41))
        if trial % 2:
            rows = (rng.random((N, N + 3)) < 0.5).astype(np.float64)
            gram = rows @ rows.T + 1.0 + np.eye(N)
        else:
            m = rng.normal(size=(N, N + 2))
            gram = m @ m.T + np.eye(N)
        order = [int(i) for i in rng.permutation(N)]
        grams.append(gram)
        members.append(order[:1])
        pools.append(order[1:])
        first = gram[np.ix_(members[-1], members[-1])]
        sets._rebuild(trial, first)
        refs.append(np.linalg.cholesky(first))
        rounds.append(3 * N)
    rooms, poisoned, counts = {sets.L.shape[1]}, set(), dict.fromkeys(
        ("nan", "nan_drops", "nan_reads", "rebuilt"), 0)

    def factor(b):
        n = sets.n[b]
        return sets.L[b, :n, :n]

    for r in range(max(rounds)):
        grow = {}
        for b in range(B):
            if r >= rounds[b]:
                continue
            if b in poisoned and len(members[b]) > 1 and events.random() < 0.7:
                k = int(events.integers(len(members[b])))
                sets._drop(b, k)
                pools[b].append(members[b].pop(k))
                counts["nan_drops"] += 1
            elif b in poisoned or events.random() < 0.05:
                sub = grams[b][np.ix_(members[b], members[b])]
                sets._rebuild(b, sub)
                refs[b] = np.linalg.cholesky(sub)
                poisoned.discard(b)
                counts["rebuilt"] += 1
            elif pools[b] and (len(members[b]) == 1 or rng.random() < 0.6):
                grow.setdefault(sets.n[b], []).append((b, pools[b].pop()))
            elif len(members[b]) > 1:
                k = int(rng.integers(len(members[b])))
                sets._drop(b, k)
                refs[b] = _reference_drop(refs[b], k)
                pools[b].append(members[b].pop(k))
        for adds in grow.values():
            ids = [b for b, _ in adds]
            crosses = [grams[b][members[b], j] for b, j in adds]
            diags = [math.nan if events.random() < 0.03 else float(grams[b][j, j])
                     for b, j in adds]
            bad, grown, cond = _append(sets, ids, crosses, diags)
            assert bad == [] and grown == ids
            for (b, j), cross, diag, c in zip(adds, crosses, diags, cond):
                members[b].append(j)
                if diag != diag:  # a NaN pivot, and a NaN diagonal entry
                    poisoned.add(b)
                    counts["nan"] += 1
                    assert c == math.inf == _reference_condition(factor(b))
                    continue
                refs[b] = _reference_append(refs[b], cross, diag)
                assert c == _reference_condition(refs[b])
        rooms.add(sets.L.shape[1])
        for b in range(B):
            n, L = sets.n[b], factor(b)
            assert n == len(members[b])
            d = np.abs(np.diagonal(L))
            assert np.array_equal([sets.hi[b], sets.lo[b]], [d.max(), d.min()], equal_nan=True)
            if b in poisoned:  # no reference until a rebuild
                if np.isnan(L).any():
                    counts["nan_reads"] += 1
                assert _condition(sets.hi[b], sets.lo[b]) == _reference_condition(L)
                continue
            assert np.tril(L).tobytes() == np.tril(refs[b]).tobytes()
            assert not np.triu(L, 1).any()
            if rng.random() < 0.5:
                assert _condition(sets.hi[b], sets.lo[b]) == _reference_condition(refs[b])
    assert rooms == {16, 32, 64}
    assert min(counts.values()) > 0, counts


def test_max_condition_is_the_largest_estimate_the_solver_checked(monkeypatch):
    steps = _observe(monkeypatch)
    rng = make_rng(19)
    for trial in range(60):
        d = int(rng.integers(1, 14))
        oracle = BudgetedBitVectorPolytope(d, max(1, d // 2)) if trial % 2 else BitVectorPolytope(d)
        steps.clear()
        res = sparsemap(oracle, rng.normal(size=d))
        its = [steps[0].before[0]] + [step.after[0] for step in steps]
        estimates = [_reference_condition(its[0].L)]
        assert estimates == [1.0] and its[0].max_condition == 1.0
        for prev, it in zip(its, its[1:]):
            if it.adds > prev.adds:
                estimates.append(_reference_condition(it.L))
            assert it.max_condition == max(estimates)
        assert its[-1].converged
        assert res.max_condition == its[-1].max_condition
        assert res.max_condition >= 1.0
    assert sparsemap(BitVectorPolytope(3), [4.0, 5.0, 6.0]).max_condition == 1.0


@pytest.mark.parametrize(
    "oracle", [BitVectorPolytope(4), BudgetedBitVectorPolytope(4, 2), BudgetedBitVectorPolytope(4, 4)]
)
def test_score_overflow_is_a_clear_error(oracle):
    # Each score is finite, but the best structure's score is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scores overflow"):
            sparsemap(oracle, [1e308, 1e308, -1.0, 0.5])


@pytest.mark.parametrize("t, what", [
    # The relaxed solve gives the MAP vertex weight 0, and the oracle
    # certifies that support: no structure keeps positive weight.
    ([1e17, 0.5, -3.0], "no structure keeps positive weight"),
    # The second step's ratio test would drop the only structure left.
    ([1e16, 3e18], "a drop would empty the support"),
])
def test_scores_past_the_solvable_scale_are_a_clear_error(t, what, capfd):
    with pytest.raises(ValueError, match=r"scores too large to resolve \(max \|t\| = .*\): " + what):
        sparsemap(BitVectorPolytope(len(t)), t)
    # LAPACK never sees an emptied factor, so it prints nothing.
    assert capfd.readouterr() == ("", "")


# --- The batch solver ------------------------------------------------------


def _map_one(oracle, t):
    """The oracle's best vertex for one score vector: its bits, its score."""
    bits, scores = oracle.map_rows(t[None])
    return tuple(bits[0].tolist()), float(scores[0])


def _reference_solve(oracle, t, max_iter=None, tol=1e-9, cond_limit=1e12):
    """The active set one row at a time, written out apart from the
    solver: scipy's triangular solves, a Python-float ratio test, a list
    of bit tuples for the known structures, and the factor grown and
    shrunk by this file's whole-matrix updates, rebuilt where an append's
    pivot is numerically zero or the condition estimate passes
    ``cond_limit``."""
    t = np.asarray(t, dtype=np.float64)
    max_iter = 100 + 10 * oracle.dim if max_iter is None else max_iter
    known = [_map_one(oracle, t)[0]]
    rows = np.asarray(known[0], dtype=np.float64)[None]
    probs, moments, tau, nu = np.ones(1), rows[0], np.nan, np.nan
    L = np.linalg.cholesky(rows @ rows.T + 1.0)

    def solve(b):
        return solve_triangular(L.T, solve_triangular(L, b, lower=True), lower=False)

    out = dict(iterations=0, adds=0, drops=0, refactorizations=0, widenings=0,
               max_condition=1.0, converged=False)
    for _ in range(max_iter):
        u, v = solve(rows @ t), solve(np.ones(len(rows)))
        lam = (1.0 - u.sum()) / v.sum()
        p_hat, tau_hat = u + lam * v, 1.0 - lam
        gamma, blocker = 1.0, -1
        for j, (p, q) in enumerate(zip(probs.tolist(), p_hat.tolist())):
            if p > q and p / (p - q) < gamma:
                gamma, blocker = p / (p - q), j
        out["iterations"] += 1
        if blocker >= 0:
            cycle = gamma == 0.0 and blocker == probs.size - 1
            assert not (cycle and out["widenings"] >= 3)
            probs = np.delete((1.0 - gamma) * probs + gamma * p_hat, blocker)
            del known[blocker]
            rows = np.delete(rows, blocker, axis=0)
            L = _reference_drop(L, blocker)
            moments = rows.T @ probs
            out["drops"] += 1
            if cycle:
                L = np.linalg.cholesky(rows @ rows.T + 1.0)
                out["refactorizations"] += 1
                out["widenings"] += 1
                tol *= 10.0
            continue
        moments, tau = rows.T @ p_hat, tau_hat
        bits, score = _map_one(oracle, t - moments)
        nu = tau_hat - score
        if nu >= -tol or bits in known:
            probs, out["converged"] = p_hat, True
            break
        a = np.asarray(bits, dtype=np.float64)
        cross, diag = rows.dot(a) + 1.0, float(a.dot(a)) + 1.0
        known.append(bits)
        rows = np.vstack([rows, a])
        ell = solve_triangular(L, cross, lower=True)
        if diag - ell @ ell <= 1e-12 * max(diag, 1.0):  # the append refuses it
            L = np.linalg.cholesky(rows @ rows.T + 1.0)
            out["refactorizations"] += 1
        else:
            L = _reference_append(L, cross, diag)
        cond = _reference_condition(L)
        out["max_condition"] = max(out["max_condition"], cond)
        if cond > cond_limit:
            L = np.linalg.cholesky(rows @ rows.T + 1.0)
            out["refactorizations"] += 1
        probs = np.concatenate((p_hat, [0.0]))
        out["adds"] += 1
    keep = probs > 0.0
    out.update(bits=[bits for bits, k in zip(known, keep) if k], probs=probs[keep].tobytes(),
               rows=rows[keep].tobytes(), moments=moments.tobytes(),
               tau=np.float64(tau).tobytes(), nu_min=np.float64(nu).tobytes())
    return out


def _fingerprint(res):
    """Everything a result holds, by value and by bytes."""
    return dict(bits=[s.bits for s in res.structures], probs=res.probs.tobytes(),
                rows=res.rows.tobytes(), moments=res.moments.tobytes(),
                tau=np.float64(res.tau).tobytes(), nu_min=np.float64(res.nu_min).tobytes(),
                converged=res.converged, iterations=res.iterations, adds=res.adds,
                drops=res.drops, refactorizations=res.refactorizations,
                widenings=res.widenings, max_condition=res.max_condition)


def _array_fingerprints(solved):
    """What each row of a solved batch (:func:`activeset._solve`) holds, as
    :func:`_fingerprint` gives it for that row's result, after checking
    that the arrays are zero past each row's support."""
    out = []
    for i, n in enumerate(solved.sizes):
        probs, rows = solved.probs[i], solved.rows[i]
        assert not probs[n:].any() and not rows[n:].any()
        out.append(dict(bits=[tuple(int(x) for x in row) for row in rows[:n]],
                        probs=probs[:n].tobytes(), rows=rows[:n].tobytes(),
                        moments=solved.moments[i].tobytes(),
                        tau=np.float64(solved.tau[i]).tobytes(),
                        nu_min=np.float64(solved.nu_min[i]).tobytes(),
                        **{name: getattr(solved, name)[i] for name in (
                            "converged", "iterations", "adds", "drops", "refactorizations",
                            "widenings", "max_condition")}))
    return out


def _packs(monkeypatch):
    """A list to which each packing of stack rows into a solved batch
    appends the pairs (the row's active set size, its support size), a
    pair apart where a structure of zero weight is left out."""
    packs, pack = [], activeset._Solved._of

    def spy(sets, rows):
        part = pack(sets, rows)
        packs.append([(sets.n[b], n) for b, n in zip(rows, part.sizes)])
        return part

    monkeypatch.setattr(activeset._Solved, "_of", staticmethod(spy))
    return packs


def _mixed_rows(rng, n, d):
    """n score rows of four kinds in turn: normal, quarter-step ties, all
    zeros, and normal with 40 % exact zeros."""
    T = rng.normal(size=(n, d))
    T[1::4] = np.round(T[1::4] * 2.0) / 4.0
    T[2::4] = 0.0
    zeros40 = T[3::4]
    zeros40[rng.random(zeros40.shape) < 0.4] = 0.0
    T[3::4] = zeros40
    return T


def _polytopes(d):
    return [BitVectorPolytope(d)] + [BudgetedBitVectorPolytope(d, b)
                                     for b in sorted({1, max(1, d // 4), d})]


@pytest.mark.parametrize("d", [1, 2, 8, 32, 40])
def test_rows_solve_equals_each_row_alone_byte_for_byte(d, monkeypatch):
    # Two routes through one solve: the results of sparsemap_rows and the
    # arrays of the core that training reads (activeset._solve).  At D = 32
    # a second set of batches, 24 near-zero score rows each, grows supports
    # past the room of 16 after other rows converged, so they are evicted
    # and packed mid-solve.  All-zero rows end with a structure of weight 0
    # in their active set, which both routes leave out.
    packs = _packs(monkeypatch)
    rng = make_rng(300 + d)
    batches = [(oracle, _mixed_rows(rng, 12, d)) for oracle in _polytopes(d)]
    if d == 32:
        batches += [(oracle, _mixed_rows(rng, 24, d) * 0.01) for oracle in _polytopes(d)]
    dropped = 0
    for oracle, T in batches:
        packs.clear()
        solved = sparsemap_rows(oracle, T)
        assert len(solved) == len(T)
        assert [_fingerprint(res) for res in solved] == _array_fingerprints(
            activeset._solve(oracle, T))
        if len(T) == 24:  # a pack per eviction, then one at the end, in each route
            assert len(packs) > 2
        dropped += sum(n > size for pack in packs for n, size in pack)
        steps = [res.iterations for res in solved]
        for t, res in zip(T, solved):
            alone = _fingerprint(sparsemap(oracle, t))
            assert _fingerprint(res) == alone
            reference = _reference_solve(oracle, t)
            assert {key: alone[key] for key in reference} == reference
        if d >= 8:  # rows of one batch converge many steps apart
            assert max(steps) - min(steps) >= (5 if d == 8 else 12)
    assert dropped > 0 or d == 1


def test_rows_solve_steps_rows_that_drop_beside_rows_that_add(monkeypatch):
    # Record, for each lockstep step, which rows dropped and which added.
    steps, current = [], {}
    advance, drop, add = activeset._advance_rows, activeset._drop_step, activeset._add_step

    def advance_rows(sets, oracle, live):
        current.clear()
        out = advance(sets, oracle, live)
        steps.append(dict(current))
        return out

    def drop_step(sets, row, *args):
        current[row] = "drop"
        return drop(sets, row, *args)

    def add_step(sets, rows, *args):
        current.update(dict.fromkeys(rows.tolist(), "add"))
        return add(sets, rows, *args)

    monkeypatch.setattr(activeset, "_advance_rows", advance_rows)
    monkeypatch.setattr(activeset, "_drop_step", drop_step)
    monkeypatch.setattr(activeset, "_add_step", add_step)
    rng = make_rng(310)
    oracle = BitVectorPolytope(24)
    T = _mixed_rows(rng, 16, 24)
    solved = sparsemap_rows(oracle, T)
    assert any({"drop", "add"} <= set(step.values()) for step in steps)
    monkeypatch.undo()
    for t, res in zip(T, solved):
        assert _fingerprint(res) == _fingerprint(sparsemap(oracle, t))


def test_stacked_rows_outgrow_their_room_beside_drops_rebuilds_and_convergence(monkeypatch):
    # One batch at D = 40, the condition limit lowered to 5 so that factors
    # are rebuilt often.  At one lockstep step a row's support outgrows the
    # room for 16 structures that every row of the stack starts with, while
    # other rows drop, rebuild their factor and converge.  Every row has
    # the bits and counters of the reference, and keeps them when the
    # batch is reversed or split in two.
    monkeypatch.setattr(activeset, "_COND_LIMIT", 5.0)
    steps, advance = [], activeset._advance_rows

    def advance_rows(sets, oracle, live):
        n, drops, rebuilds, done = (list(sets.n), list(sets.drops),
                                    list(sets.refactorizations), list(sets.converged))
        out = advance(sets, oracle, live)
        steps.append(dict(
            grew={b for b in live if n[b] == _MIN_ROOM < sets.n[b]},
            dropped={b for b in live if sets.drops[b] > drops[b]},
            rebuilt={b for b in live if sets.refactorizations[b] > rebuilds[b]},
            converged={b for b in live if sets.converged[b] and not done[b]}))
        return out

    monkeypatch.setattr(activeset, "_advance_rows", advance_rows)
    oracle = BitVectorPolytope(40)
    T = _mixed_rows(make_rng(402), 16, 40) * 0.5
    solved = [_fingerprint(res) for res in sparsemap_rows(oracle, T)]
    monkeypatch.setattr(activeset, "_advance_rows", advance)
    others = ("dropped", "rebuilt", "converged")
    assert any(step["grew"] and all(step[k] - step["grew"] for k in others) for step in steps)
    assert max(len(fp["bits"]) for fp in solved) > 16
    for t, fp in zip(T, solved):
        reference = _reference_solve(oracle, t, cond_limit=5.0)
        assert {key: fp[key] for key in reference} == reference
    assert [_fingerprint(res) for res in sparsemap_rows(oracle, T[::-1])] == solved[::-1]
    halves = [[_fingerprint(res) for res in sparsemap_rows(oracle, T[k::2])] for k in (0, 1)]
    assert [fp for pair in zip(*halves) for fp in pair] == solved


def test_rows_solve_evicts_converged_rows_before_its_room_grows(monkeypatch):
    # 256 normal score rows at D = 64: the room grows from 16 to 32 while
    # nearly every row is live, and from 32 to 64 only after most rows
    # have converged.  At each growth, and only then, the converged rows
    # leave the stack, which then holds exactly the live rows, in batch
    # order.  Every row has the bits and counters of its one-row solve.
    steps, advance = [], activeset._advance_rows

    def advance_rows(sets, oracle, live):
        steps.append((sets.V.shape[1], list(sets.origin), list(sets.converged)))
        return advance(sets, oracle, live)

    monkeypatch.setattr(activeset, "_advance_rows", advance_rows)
    oracle = BitVectorPolytope(64)
    T = make_rng(330).normal(size=(256, 64))
    solved = sparsemap_rows(oracle, T)
    monkeypatch.undo()
    grown = [k for k in range(1, len(steps)) if steps[k][0] > steps[k - 1][0]]
    assert [steps[k][0] for k in grown] == [32, 64]
    assert steps[0][:2] == (16, list(range(256)))
    for k, (room, origin, converged) in enumerate(steps):
        # A row is live at step k while it has taken k steps or fewer.
        live = [i for i, res in enumerate(solved) if res.iterations > k]
        if k in grown:
            assert origin == live and not any(converged)
        else:
            assert k == 0 or origin == steps[k - 1][1]
    assert len(steps[grown[0]][1]) > 240 and len(steps[grown[1]][1]) < 16
    for t, res in zip(T, solved):
        assert _fingerprint(res) == _fingerprint(sparsemap(oracle, t))
    # The core's arrays, packed at each eviction and joined, hold the same.
    assert _array_fingerprints(activeset._solve(oracle, T)) == [
        _fingerprint(res) for res in solved]


class _ForcingOracle:
    """``BitVectorPolytope(2)``, except that at the residual (0, -1) it
    offers the vertex (0, 1) with score 1e3 its first ``times`` times: the
    relaxed QP rejects it, so the row refactorizes and widens its
    tolerance once each time.  The rows of a call are answered in order."""

    dim = 2

    def __init__(self, times):
        self.times = times
        self.polytope = BitVectorPolytope(2)

    def map_rows(self, T):
        bits, scores = self.polytope.map_rows(T)
        for i, t in enumerate(T):
            if self.times and np.array_equal(t, [0.0, -1.0]):
                self.times -= 1
                bits[i], scores[i] = (0, 1), 1e3
        return bits, scores


def test_rows_solve_widens_one_row_beside_rows_that_do_not():
    T = np.array([[0.3, -0.2], [1.0, -1.0], [0.25, 0.25], [0.0, 0.0], [2.0, -0.5]])
    solved = sparsemap_rows(_ForcingOracle(2), T)
    assert [res.widenings for res in solved] == [0, 2, 0, 0, 0]
    for t, res in zip(T, solved):
        assert _fingerprint(res) == _fingerprint(sparsemap(_ForcingOracle(2), t))
        reference = _reference_solve(_ForcingOracle(2), t)
        assert {key: _fingerprint(res)[key] for key in reference} == reference
    with pytest.raises(ActiveSetCycleError):
        sparsemap_rows(_ForcingOracle(10), T)


class _ConstantOracle:
    """Offers the vertex (1, 0, 0) with score 1e3 at any scores: from its
    second call on, a candidate already in the support whose nu is far
    below -tol."""

    dim = 3

    def map_rows(self, T):
        bits = np.zeros((len(T), 3), dtype=np.uint8)
        bits[:, 0] = 1
        return bits, np.full(len(T), 1e3)


def test_rows_solve_stops_at_a_candidate_already_in_the_support():
    T = make_rng(315).normal(size=(5, 3))
    solved = sparsemap_rows(_ConstantOracle(), T)
    for t, res in zip(T, solved):
        assert res.converged and res.iterations == 1 and res.nu_min < -1e2
        assert [s.bits for s in res.structures] == [(1, 0, 0)]
        assert _fingerprint(res) == _fingerprint(sparsemap(_ConstantOracle(), t))
        reference = _reference_solve(_ConstantOracle(), t)
        assert {key: _fingerprint(res)[key] for key in reference} == reference


def test_rows_solve_leaves_its_scores_and_shares_no_memory_between_results():
    # The score matrix is left byte for byte as it was, and no two results
    # of a batch, nor a result and the scores, share memory: writing to one
    # result's probs, moments or rows changes nothing else.
    rng = make_rng(316)
    drops = 0
    for oracle in _polytopes(12):
        T = _mixed_rows(rng, 16, 12)
        before = T.tobytes()
        solved = sparsemap_rows(oracle, T)
        assert T.tobytes() == before
        drops += sum(res.drops for res in solved)
        arrays = [(i, a) for i, res in enumerate(solved)
                  for a in (res.probs, res.moments, res.rows, res._t)]
        for (i, a), (j, b) in itertools.combinations(arrays, 2):
            assert i == j or not np.shares_memory(a, b)
        assert not any(np.shares_memory(a, T) for _, a in arrays)
    assert drops > 0


def test_rows_solve_results_share_no_memory_with_the_solver_stacks(monkeypatch):
    # Each row is packed while it is still in the stack, at an eviction or
    # at the end of the solve; neither the packed batch nor a result may be
    # a view of the stack's weights, moments, vertex rows, factors or
    # scores, nor a result a view of the packed batch, so holding one
    # result keeps no other row's.
    rng = make_rng(317)
    packed, pack = [], activeset._Solved._of

    def spy(sets, rows):
        part = pack(sets, rows)
        packed.append((part, len(rows), [sets.W, sets.M, sets.V, sets.L, sets.T]))
        return part

    monkeypatch.setattr(activeset._Solved, "_of", staticmethod(spy))
    evicted = 0
    for oracle, B in ((BitVectorPolytope(16), 200), (BudgetedBitVectorPolytope(16, 4), 200),
                      (BitVectorPolytope(32), 24)):
        packed.clear()
        T = _mixed_rows(rng, B, oracle.dim) * (0.01 if B == 24 else 1.0)  # the last evicts
        solved = sparsemap_rows(oracle, T)
        assert sum(rows for _, rows, _ in packed) == len(T)
        evicted += len(packed) - 1
        stacks = [stack for _, _, arrays in packed for stack in arrays]
        parts = [a for part, _, _ in packed for a in (part.probs, part.rows, part.moments)]
        for a in parts:
            assert not any(np.shares_memory(a, stack) for stack in stacks)
        for res in solved:
            for a in (res.probs, res.moments, res.rows, res._t):
                assert not any(np.shares_memory(a, b) for b in stacks + parts)
    assert evicted > 0


def test_structure_scores_are_the_dots_of_their_bits_with_the_projected_scores():
    # A result scores each structure as map_rows scores a vertex: the dot
    # of its bits with the scores that were projected, in the bytes of a
    # per-row dot, whether the row was solved alone or in a batch, and
    # after drops.  The solver's residual scores are no structure's score:
    # here (1, 0, 0, 1) scores 0.3 + 0.9, not 0.2.
    res = sparsemap(BudgetedBitVectorPolytope(4, 2), [0.3, 0.6, -0.2, 0.9])
    assert {st.bits: st.score for st in res.structures}[(1, 0, 0, 1)] == pytest.approx(1.2)
    rng = make_rng(318)
    drops = 0
    for d in (1, 3, 8, 12):
        for oracle in _polytopes(d) + [IdentityPolytope(d)]:
            T = _mixed_rows(rng, 12, d)
            for t, res in zip(T, sparsemap_rows(oracle, T)):
                drops += res.drops
                for one in (res, sparsemap(oracle, t)):
                    bits = np.array([st.bits for st in one.structures], dtype=np.float64)
                    dots = _row_dots(bits, np.tile(t, (len(bits), 1)))
                    scores = np.array([st.score for st in one.structures])
                    assert scores.tobytes() == dots.tobytes(), (d, t)
    assert drops > 0


@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_rows_solve_caps_each_row_at_max_iter(max_iter):
    rng = make_rng(320 + max_iter)
    oracle = BudgetedBitVectorPolytope(16, 5)
    T = _mixed_rows(rng, 8, 16)
    T[4], T[7] = 5.0, -5.0  # vertices: one step each
    solved = sparsemap_rows(oracle, T, max_iter=max_iter)
    assert all(res.iterations <= max_iter for res in solved)
    assert any(not res.converged for res in solved) and any(res.converged for res in solved)
    for t, res in zip(T, solved):
        assert _fingerprint(res) == _fingerprint(sparsemap(oracle, t, max_iter=max_iter))


def _first_error(oracle, T):
    """The error a loop of one-row solves over T raises first."""
    for t in T:
        try:
            sparsemap(oracle, t)
        except Exception as exc:  # the loop stops at the first row that raises
            return exc
    return None


@pytest.mark.parametrize("rows, expected", [
    # Overflow at the first step (row 1) before a drop that would empty the
    # support at the second (row 3): the lower row's error wins.
    ([[0.3, -0.2], [1e308, 1e308], [0.5, 0.5], [1e16, 3e18]], "scores overflow"),
    ([[0.3, -0.2], [1e16, 3e18], [0.5, 0.5], [1e308, 1e308]], "a drop would empty"),
    ([[0.1, 0.2], [np.nan, 0.0], [1e308, 1e308]], "scores must be finite"),
    ([[1e17, 0.5], [1e308, 1e308]], "no structure keeps positive weight"),
    ([[0.1, 0.2], [1e17, 0.5], [np.inf, 0.0]], "no structure keeps positive weight"),
])
def test_rows_solve_raises_the_error_of_the_lowest_row(rows, expected, capfd):
    T = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for oracle in (BitVectorPolytope(2), BudgetedBitVectorPolytope(2, 2)):
            loop = _first_error(oracle, T)
            assert loop is not None and expected in str(loop)
            for solve in (sparsemap_rows, activeset._solve):
                with pytest.raises(type(loop)) as raised:
                    solve(oracle, T)
                assert str(raised.value) == str(loop)
    assert capfd.readouterr() == ("", "")


# Rows at D = 2 that raise alone: not finite; overflowing; so large that no
# structure keeps positive weight; so large that a drop would empty the
# support.
_FAILING_ROWS = ([np.nan, 0.5], [0.5, np.nan], [np.inf, 0.0], [-1.0, -np.inf],
                 [1e308, 1e308], [1e17, 0.5], [1e16, 3e18])
_D2_POLYTOPES = _polytopes(2)
_contract = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _rows_with_failures(draw, failing):
    """2-12 rows: normal score rows at D = 2, with 0-3 of them, at random
    positions, replaced by draws from ``failing``."""
    B = draw(st.integers(2, 12))
    rows = draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
                         min_size=B, max_size=B))
    bad = draw(st.lists(st.integers(0, B - 1), max_size=3, unique=True))
    return rows, {i: draw(st.sampled_from(failing)) for i in bad}


def _quietly(call, capfd):
    """``call()``'s result or exception, asserting that it warns of nothing
    and prints nothing."""
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # the outcome under test
            out = exc
    assert caught == []
    assert capfd.readouterr() == ("", "")
    return out


@_contract
@given(oracle=st.sampled_from(_D2_POLYTOPES), drawn=_rows_with_failures(_FAILING_ROWS))
def test_rows_solve_raises_the_first_error_of_a_loop(oracle, drawn, capfd):
    rows, bad = drawn
    for i, row in bad.items():
        rows[i] = row
    T = np.array(rows)
    before = T.tobytes()
    loop = _quietly(lambda: _first_error(oracle, T), capfd)
    solved = _quietly(lambda: sparsemap_rows(oracle, T), capfd)
    arrays = _quietly(lambda: activeset._solve(oracle, T), capfd)
    assert T.tobytes() == before
    if loop is None:
        assert not bad
        assert [_fingerprint(res) for res in solved] == _array_fingerprints(arrays) == [
            _fingerprint(sparsemap(oracle, t)) for t in T]
    else:
        for raised in (solved, arrays):
            assert type(raised) is type(loop) and str(raised) == str(loop)


def test_rows_solve_rejects_bad_arguments():
    oracle = BitVectorPolytope(3)
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match=r"\(B, oracle.dim\) matrix"):
            sparsemap_rows(oracle, bad)
    with pytest.raises(ValueError, match="tol"):
        sparsemap_rows(oracle, np.zeros((2, 3)), tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        sparsemap_rows(oracle, np.zeros((2, 3)), max_iter=0)
    assert sparsemap_rows(oracle, np.zeros((0, 3))) == []


class _OneRowOracle:
    """``BitVectorPolytope(3)``, refusing to answer more than one row at a
    time."""

    dim = 3

    def map_rows(self, T):
        if len(T) > 1:
            raise RuntimeError("one row at a time")
        return BitVectorPolytope(3).map_rows(T)


def test_a_batch_that_raises_where_no_row_alone_does_returns_each_row_alone():
    T = make_rng(342).normal(size=(5, 3))
    alone = [_fingerprint(sparsemap(_OneRowOracle(), t)) for t in T]
    assert [_fingerprint(res) for res in sparsemap_rows(_OneRowOracle(), T)] == alone
    assert _array_fingerprints(activeset._solve(_OneRowOracle(), T)) == alone


def test_library_polytopes_answer_the_solver_unchecked(monkeypatch):
    # The solver checks its scores once, at its entry, and then asks a
    # library polytope through the unchecked _map_rows: no solve, through
    # the results or the core's arrays, runs bitvec's score check, which
    # the public map_rows still runs.
    calls, check = [], bitvec._as_score_rows
    monkeypatch.setattr(bitvec, "_as_score_rows", lambda T: calls.append(len(T)) or check(T))
    rng = make_rng(341)
    for oracle in _polytopes(8) + [IdentityPolytope(8)]:
        T = _mixed_rows(rng, 12, 8)
        assert sum(res.iterations for res in sparsemap_rows(oracle, T)) > 12
        activeset._solve(oracle, T)
        sparsemap(oracle, T[0])
    assert calls == []
    oracle.map_rows(T)
    assert calls == [12]


def test_a_polytope_subclass_with_its_own_map_rows_is_asked_through_it():
    # The unchecked _map_rows stands in only for the library's own
    # map_rows: a subclass that overrides map_rows is asked through it.
    asked = []

    class Counted(BitVectorPolytope):
        def map_rows(self, scores):
            asked.append(len(scores))
            return super().map_rows(scores)

    T = _mixed_rows(make_rng(343), 6, 5)
    solved = sparsemap_rows(Counted(5), T)
    assert sum(asked) == sum(res.iterations for res in solved) + len(T) - sum(
        res.drops for res in solved)
    assert [_fingerprint(res) for res in solved] == [
        _fingerprint(res) for res in sparsemap_rows(BitVectorPolytope(5), T)]


def test_a_residual_that_is_not_finite_raises_as_the_checked_oracle_would():
    # A residual entry that is not finite makes its row's score NaN or
    # infinite, and only then is the residual checked: the error is the
    # checked map_rows's.  Finite residuals whose score overflows pass,
    # with the checked oracle's bits and scores.
    for oracle in _polytopes(3) + [IdentityPolytope(3)]:
        for bad in (np.nan, np.inf, -np.inf):
            R = np.array([[0.5, -0.25, 1.0], [0.5, bad, 1.0]])
            with pytest.raises(ValueError) as checked:
                oracle.map_rows(R)
            with pytest.raises(ValueError) as raised, np.errstate(invalid="ignore"):
                activeset._oracle_rows(oracle, R)  # in a solve, which ignores 0 * inf
            assert str(raised.value) == str(checked.value) == "variable scores must be finite"
        R = np.array([[1e308, 1e308, -1.0], [0.5, -0.25, 1.0]])
        with np.errstate(over="ignore"):
            bits, scores = activeset._oracle_rows(oracle, R)
            expected = oracle.map_rows(R)
        assert bits.tobytes() == expected[0].tobytes()
        assert np.array(scores).tobytes() == expected[1].tobytes()


def _reference_vjp(res, upstream):
    # The projection as it was written for one result: a fresh Cholesky
    # factor of the bordered Gram matrix and two triangular solves each.
    L = np.linalg.cholesky(res.rows @ res.rows.T + 1.0)
    u = solve_triangular(L.T, solve_triangular(L, upstream, lower=True), lower=False)
    ones = np.ones(len(upstream))
    v = solve_triangular(L.T, solve_triangular(L, ones, lower=True), lower=False)
    return res.rows.T @ (u - (u.sum() / v.sum()) * v)


@pytest.mark.parametrize("d", [2, 8, 32])
def test_rows_vjp_has_the_bits_of_each_row_alone(d):
    rng = make_rng(330 + d)
    for oracle in _polytopes(d):
        T = _mixed_rows(rng, 16, d)
        solved = sparsemap_rows(oracle, T)
        sizes = [res.support_size for res in solved]
        K = max(sizes) + 2
        upstream = rng.normal(size=(len(T), K)) * 10.0 ** rng.integers(-3, 4, size=(len(T), 1))
        upstream[::3] = -upstream[::3]
        upstream[1, 0] = -0.0
        g = sparsemap_vjp_rows(solved, upstream)
        assert g.shape == (len(T), d)
        # The core's vjp, on the core's arrays, as training calls it.
        arrays = activeset._solve(oracle, T)
        assert activeset._vjp(arrays.rows, arrays.sizes, arrays.converged,
                              upstream).tobytes() == g.tobytes()
        for i, res in enumerate(solved):
            alone = sparsemap_vjp_probs(res, upstream[i, :sizes[i]])
            assert g[i].tobytes() == alone.tobytes()  # sign bits included
            assert alone.tobytes() == _reference_vjp(res, upstream[i, :sizes[i]]).tobytes()
        if d >= 8:
            assert len(set(sizes)) > 2
        # Entries past a row's support are ignored.
        padded = upstream.copy()
        for i, n in enumerate(sizes):
            padded[i, n:] = np.nan
        assert sparsemap_vjp_rows(solved, padded).tobytes() == g.tobytes()


def test_rows_vjp_raises_the_error_of_the_lowest_row():
    oracle = BitVectorPolytope(4)
    T = np.array([[0.4, -0.3, 0.1, 0.2], [0.3, -0.2, 0.1, 0.05], [0.2, 0.1, -0.1, 0.3]])
    solved = sparsemap_rows(oracle, T)
    capped = sparsemap(oracle, np.linspace(-0.4, 0.4, 4), max_iter=1)
    assert not capped.converged
    upstream = np.ones((3, 8))
    upstream[2, 0] = np.inf
    with pytest.raises(ValueError, match="requires a converged result"):
        sparsemap_vjp_rows([solved[0], capped, solved[2]], upstream)
    with pytest.raises(ValueError, match="must be finite"):
        sparsemap_vjp_rows(solved, upstream)
    for bad in (np.ones((2, 8)), np.ones((3, 1)), np.ones(8)):
        with pytest.raises(ValueError, match=r"\(B, K\) matrix"):
            sparsemap_vjp_rows(solved, bad)


@_contract
@given(oracle=st.sampled_from(_D2_POLYTOPES),
       drawn=_rows_with_failures(["unconverged", np.nan, np.inf, -np.inf]),
       data=st.data())
def test_rows_vjp_raises_the_first_error_of_a_loop(oracle, drawn, data, capfd):
    rows, bad = drawn
    solved = [sparsemap(oracle, t) for t in rows]
    capped = sparsemap(oracle, [0.3, -0.2], max_iter=1)
    assert not capped.converged
    K = max(res.support_size for res in solved + [capped]) + data.draw(st.integers(0, 2))
    upstream = data.draw(arrays(np.float64, (len(rows), K), elements=st.floats(-10.0, 10.0)))
    for i, kind in bad.items():
        if kind == "unconverged":
            solved[i] = capped
        else:  # at an entry past the row's support it is ignored
            upstream[i, data.draw(st.integers(0, K - 1))] = kind
    before = upstream.tobytes()

    def loop():
        for res, u in zip(solved, upstream):
            try:
                sparsemap_vjp_probs(res, u[:res.support_size])
            except Exception as exc:  # the loop stops at the first row that raises
                return exc
        return None

    first = _quietly(loop, capfd)
    g = _quietly(lambda: sparsemap_vjp_rows(solved, upstream), capfd)
    assert upstream.tobytes() == before
    if first is None:
        assert g.shape == (len(rows), 2)
        for res, u, row in zip(solved, upstream, g):
            assert row.tobytes() == sparsemap_vjp_probs(res, u[:res.support_size]).tobytes()
    else:
        assert type(g) is type(first) and str(g) == str(first)
