"""Active-set projection onto structure polytopes and its backward pass."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from sparsemarg.activeset import (
    ActiveSetCycleError,
    ActiveSetState,
    CholeskyFactor,
    DegenerateSupportError,
    SparseMapResult,
    _triangular_solve,
    active_set_step,
    sparsemap,
    sparsemap_vjp,
    sparsemap_vjp_probs,
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
from sparsemarg.simplex import sparsemax, sparsemax_vjp


def _objective(oracle_dim, structures, probs, t):
    cols = np.array([s.as_array() for s in structures]).T
    mu = cols @ probs
    return float(((mu - t) ** 2).sum())


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


def test_step_adds_second_vertex_on_near_tie():
    # Hand trace: starting at the MAP vertex e0 for t = [1, 0.9], the
    # first step must bring in the runner-up vertex.
    oracle = IdentityPolytope(2)
    t = np.array([1.0, 0.9])
    state = _initial_state(oracle, t)
    assert [s.bits for s in state.structures] == [(1, 0)]
    stepped = active_set_step(state, oracle, t)
    assert {s.bits for s in stepped.structures} == {(1, 0), (0, 1)}


def test_step_at_optimum_is_converged_noop():
    oracle = IdentityPolytope(2)
    t = np.array([1.0, 0.9])
    state = _initial_state(oracle, t)
    for _ in range(10):
        state = active_set_step(state, oracle, t)
        if state.converged:
            break
    assert state.converged
    again = active_set_step(state, oracle, t)
    assert again is state


def test_step_objective_monotone():
    rng = make_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        t = rng.normal(size=d)
        oracle = BitVectorPolytope(d)
        state = _initial_state(oracle, t)
        prev = _objective(d, state.structures, state.probs, t)
        for _ in range(100):
            state = active_set_step(state, oracle, t)
            cur = _objective(d, state.structures, state.probs, t)
            assert cur <= prev + 1e-12
            prev = cur
            if state.converged:
                break
        assert state.converged


def _initial_state(oracle, t):
    from sparsemarg.activeset import CholeskyFactor, _bordered_gram

    first = oracle.map(np.asarray(t, dtype=np.float64))
    return ActiveSetState(
        structures=[first],
        probs=np.array([1.0]),
        moments=first.as_array(),
        tau=float("nan"),
        kkt_factor=CholeskyFactor(_bordered_gram([first])),
    )


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


def test_cholesky_factor_append_drop_agree_with_refactor():
    rng = make_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n + 2))
        gram = m @ m.T + np.eye(n)  # PD
        factor = CholeskyFactor(gram[:1, :1].copy())
        for j in range(1, n):
            factor.append(gram[:j, j].copy(), float(gram[j, j]))
        direct = np.linalg.cholesky(gram)
        np.testing.assert_allclose(factor.solve(np.ones(n)),
                                   np.linalg.solve(gram, np.ones(n)), atol=1e-9)
        j = int(rng.integers(n))
        factor.drop(j)
        reduced = np.delete(np.delete(gram, j, axis=0), j, axis=1)
        np.testing.assert_allclose(
            factor.solve(np.ones(n - 1)),
            np.linalg.solve(reduced, np.ones(n - 1)),
            atol=1e-9,
        )
        del direct


def test_triangular_solves_match_scipy_wrapper():
    # scipy's checked solve_triangular is the reference for the direct
    # LAPACK call: same bits, forward, back and through the factor.
    rng = make_rng(9)
    for n in range(1, 41):
        for _ in range(8):
            m = rng.normal(size=(n, n + 2))
            gram = m @ m.T + np.eye(n)
            L = np.linalg.cholesky(gram)
            b = rng.normal(size=n) * float(rng.choice([1e-3, 1.0, 1e3]))
            assert np.array_equal(_triangular_solve(L, b, 1), solve_triangular(L, b, lower=True))
            assert np.array_equal(_triangular_solve(L, b, 0), solve_triangular(L.T, b, lower=False))
            expected = solve_triangular(L.T, solve_triangular(L, b, lower=True), lower=False)
            assert np.array_equal(CholeskyFactor(gram).solve(b), expected)
            if n > 1:
                grown = CholeskyFactor(gram[:-1, :-1])
                grown.append(gram[:-1, -1].copy(), float(gram[-1, -1]))
                ell = solve_triangular(grown._L[:-1, :-1], gram[:-1, -1], lower=True)
                assert np.array_equal(grown._L[-1, :-1], ell)


def test_non_finite_right_hand_side_raises_value_error():
    factor = CholeskyFactor(np.eye(3) + 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            factor.solve([1.0, bad, 0.0])
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
            _triangular_solve(L, np.ones(2), trans)
    with pytest.raises(np.linalg.LinAlgError):
        solve_triangular(L, np.ones(2), lower=True)
    factor = CholeskyFactor(np.eye(2))
    factor._L[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        factor.solve(np.ones(2))


class _ScriptedOracle:
    """Serves the given vertices first, each with a score high enough to
    force an add, then the true MAP vertex of ``BitVectorPolytope``."""

    def __init__(self, dim, script):
        self.dim = dim
        self.script = [tuple(int(b) for b in bits) for bits in script]
        self.polytope = BitVectorPolytope(dim)

    def map(self, t):
        if self.script:
            return Structure(self.script.pop(0), 1e3)
        return self.polytope.map(t)


def _state_at(bits):
    from sparsemarg.activeset import _bordered_gram

    first = Structure(bits, 0.0)
    return ActiveSetState(
        structures=[first],
        probs=np.array([1.0]),
        moments=first.as_array(),
        tau=float("nan"),
        kkt_factor=CholeskyFactor(_bordered_gram([first])),
    )


def _assert_rows_track(state):
    rebuilt = np.array([s.bits for s in state.structures], dtype=np.float64)
    assert state.rows.flags.c_contiguous
    assert np.array_equal(state.rows, rebuilt)
    L = state.kkt_factor._L
    np.testing.assert_allclose(L @ L.T, rebuilt @ rebuilt.T + 1.0, rtol=1e-9, atol=1e-9)


def _checked_steps(oracle, t, state=None, max_steps=500):
    """Step to convergence, checking the kept vertex matrix after every step."""
    t = np.asarray(t, dtype=np.float64)
    state = _initial_state(oracle, t) if state is None else state
    _assert_rows_track(state)
    for _ in range(max_steps):
        prev = state
        state = active_set_step(state, oracle, t)
        _assert_rows_track(state)
        if state.drops > prev.drops:
            assert np.array_equal(state.moments, state.rows.T @ state.probs)
        if state.converged:
            return state
    raise AssertionError("no convergence in %d steps" % max_steps)


def test_vertex_matrix_tracks_structures_on_random_scores():
    rng = make_rng(10)
    drops = 0
    for _ in range(60):
        d = int(rng.integers(2, 25))
        state = _checked_steps(BitVectorPolytope(d), rng.normal(size=d) * 1.5)
        drops += state.drops
    assert drops > 0


def test_vertex_matrix_tracks_structures_on_ties_and_zeros():
    rng = make_rng(11)
    for trial in range(80):
        d = int(rng.integers(2, 12))
        if trial % 2:
            t = np.zeros(d)
        else:
            t = np.round(rng.normal(size=d) * 2.0) / 4.0
        _checked_steps(BitVectorPolytope(d), t)
    # Quarter-step ties at D = 6 exchange one vertex back and forth, which
    # reaches the cycle handler's refactorization.
    cycled = _checked_steps(BitVectorPolytope(6), [-0.25, -0.5, 0.5, 0.25, 0.0, -0.25])
    assert cycled.widen_count >= 1
    assert cycled.refactorizations >= cycled.widen_count


def test_vertex_matrix_tracks_structures_on_budgeted_polytope():
    rng = make_rng(12)
    for trial in range(60):
        d = int(rng.integers(2, 12))
        b = int(rng.integers(1, d + 1))
        t = np.zeros(d) if trial % 3 == 0 else rng.normal(size=d)
        _checked_steps(BudgetedBitVectorPolytope(d, b), t)
    cycled = _checked_steps(BudgetedBitVectorPolytope(7, 5), np.zeros(7))
    assert cycled.widen_count >= 1


def test_vertex_matrix_survives_cycle_handling_until_it_gives_up():
    # An oracle that keeps offering a vertex the relaxed QP rejects makes
    # the active set add and drop it in turn: three refactorizations with
    # widened tolerance, then ActiveSetCycleError.
    t = np.array([1.0, -1.0])
    oracle = _ScriptedOracle(2, [(0, 1)] * 10)
    state = _state_at((1, 0))
    with pytest.raises(ActiveSetCycleError):
        for _ in range(10):
            state = active_set_step(state, oracle, t)
            _assert_rows_track(state)
    assert state.widen_count == 3
    assert state.refactorizations == 3
    assert state.tol == pytest.approx(1e-6)


def test_vertex_matrix_survives_append_fallback():
    # (0,0,1,0) = (0,1,1,1) + (1,0,0,0) - (1,1,0,1) is affinely dependent
    # on the support, so the rank-one append refuses it and the solver
    # refactorizes from the vertex matrix (or reports the degeneracy).
    t = np.array([0.35965336448637086, 0.25290413531651446,
                  -0.16609138370147483, 0.2841483171693065])
    script = [(1, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)]
    oracle = _ScriptedOracle(4, script)
    state = _state_at((0, 1, 1, 1))
    for _ in range(2):
        state = active_set_step(state, oracle, t)
        _assert_rows_track(state)
    assert state.refactorizations == 0
    try:
        state = active_set_step(state, oracle, t)
    except DegenerateSupportError:
        return
    _assert_rows_track(state)
    assert state.refactorizations >= 1
    _checked_steps(oracle, t, state)


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
