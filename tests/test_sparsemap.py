"""Active-set projection onto structure polytopes and its backward pass."""

import warnings

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
    return _state_of(oracle.map(np.asarray(t, dtype=np.float64)))


def _state_of(first):
    v = first.as_array()
    return ActiveSetState(
        structures=[first],
        probs=np.array([1.0]),
        moments=v,
        tau=float("nan"),
        kkt_factor=CholeskyFactor(np.array([[v @ v + 1.0]])),
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
            B = rng.normal(size=(n, 2))
            expected = solve_triangular(L.T, solve_triangular(L, B, lower=True), lower=False)
            assert np.array_equal(CholeskyFactor(gram).solve(B), expected)
            if n > 1:
                grown = CholeskyFactor(gram[:-1, :-1])
                grown.append(gram[:-1, -1].copy(), float(gram[-1, -1]))
                ell = solve_triangular(grown._L[:-1, :-1], gram[:-1, -1], lower=True)
                assert np.array_equal(grown._L[-1, :-1], ell)
                # The grown factor sits in a wider buffer; LAPACK reads it
                # with that leading dimension and gives the same bits.
                Lg = grown._L.copy()
                expected = solve_triangular(Lg.T, solve_triangular(Lg, b, lower=True), lower=False)
                assert np.array_equal(grown.solve(b), expected)


def test_non_finite_right_hand_side_raises_value_error():
    factor = CholeskyFactor(np.eye(3) + 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            factor.solve([1.0, bad, 0.0])
        with pytest.raises(ValueError):
            factor.solve([[1.0, bad], [0.0, 0.0], [0.0, 0.0]])
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
    return _state_of(Structure(bits, 0.0))


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
        if state.widen_count > prev.widen_count:
            # Only a step that leaves the iterate where it was is a cycle.
            assert np.array_equal(state.moments, prev.moments)
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
    # Quarter-step ties at D = 6 drop a vertex and add it back, but the drop
    # lowers the objective (0.3958 to 0.375), so it is not a cycle.
    t = [-0.25, -0.5, 0.5, 0.25, 0.0, -0.25]
    exchanged = _checked_steps(BitVectorPolytope(6), t)
    assert exchanged.widen_count == 0
    np.testing.assert_allclose(exchanged.moments, hypercube_projection(t), atol=1e-12)


def test_vertex_matrix_tracks_structures_on_budgeted_polytope():
    rng = make_rng(12)
    for trial in range(60):
        d = int(rng.integers(2, 12))
        b = int(rng.integers(1, d + 1))
        t = np.zeros(d) if trial % 3 == 0 else rng.normal(size=d)
        _checked_steps(BudgetedBitVectorPolytope(d, b), t)
    # Zero scores: at D = 7 a structure is dropped and re-added, but the
    # drop lowers the objective from 1.43 to 1.6e-34; at D = 38 a step of
    # length zero drops an older structure of weight zero.  Neither repeats.
    for d, b in ((7, 5), (38, 11)):
        exchanged = _checked_steps(BudgetedBitVectorPolytope(d, b), np.zeros(d))
        assert exchanged.widen_count == 0


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


def test_exchange_that_lowers_the_objective_is_not_a_cycle():
    # Ties and zeros make the active set drop and re-add structures many
    # times over, but each drop lowers the objective, so none is a cycle.
    t = np.array([0, 0, 0.75, 0, 0.625, 0, 0.375, 0, 0, 0, -0.625,
                  0, 0, 0, 0.25, 0.875, 1.125, 0.625])
    res = sparsemap(BitVectorPolytope(18), t)
    assert res.converged
    assert res.widenings == 0
    np.testing.assert_allclose(res.moments, hypercube_projection(t), atol=1e-12)


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


def _snapshot(state):
    """Everything a step could change in a state, by identity or by bytes."""
    return (
        [id(s) for s in state.structures],
        state.probs.tobytes(),
        state.moments.tobytes(),
        state.rows.tobytes(),
        state.kkt_factor._L.tobytes(),
        (state.iteration, state.adds, state.drops, state.widen_count,
         state.refactorizations, state.tol, state.converged),
    )


def test_active_set_step_leaves_its_input_as_it_was():
    # sparsemap steps one state in place; the public step must copy first.
    runs = [(_ScriptedOracle(2, [(0, 1)] * 10), np.array([1.0, -1.0]), _state_at((1, 0)))]
    rng = make_rng(17)
    for _ in range(40):
        d = int(rng.integers(2, 12))
        t = rng.normal(size=d)
        runs.append((BitVectorPolytope(d), t, _initial_state(BitVectorPolytope(d), t)))
    seen = set()
    for oracle, t, state in runs:
        for _ in range(200):
            before = _snapshot(state)
            try:
                out = active_set_step(state, oracle, t)
            except ActiveSetCycleError:
                assert _snapshot(state) == before
                break
            assert out is not state
            assert _snapshot(state) == before
            assert out.structures is not state.structures
            assert out.kkt_factor is not state.kkt_factor
            if out.widen_count > state.widen_count:
                seen.add("widen")
            elif out.drops > state.drops:
                seen.add("drop")
            elif out.adds > state.adds:
                seen.add("add")
            state = out
            if state.converged:
                assert active_set_step(state, oracle, t) is state
                break
    assert seen == {"add", "drop", "widen"}


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


def test_factor_updates_and_diagonal_bounds_are_exact():
    # Random append and drop sequences at sizes 1 to 40: the factor's lower
    # triangle has the bits of the whole-matrix updates, its upper triangle
    # stays zero, and condition_estimate() is (max |diag| / min |diag|)^2
    # of the factor, bit for bit, though it keeps the bounds as it goes.
    rng = make_rng(18)
    for trial in range(60):
        N = int(rng.integers(1, 41))
        if trial % 2:
            rows = (rng.random((N, N + 3)) < 0.5).astype(np.float64)
            gram = rows @ rows.T + 1.0 + np.eye(N)
        else:
            m = rng.normal(size=(N, N + 2))
            gram = m @ m.T + np.eye(N)
        order = [int(i) for i in rng.permutation(N)]
        members = order[:1]
        pool = order[1:]
        factor = CholeskyFactor(gram[np.ix_(members, members)])
        ref = factor._L.copy()
        for _ in range(3 * N):
            if pool and (len(members) == 1 or rng.random() < 0.6):
                j = pool.pop()
                cross, diag = gram[members, j], float(gram[j, j])
                factor.append(cross.copy(), diag)
                ref = _reference_append(ref, cross, diag)
                members.append(j)
            else:
                k = int(rng.integers(len(members)))
                factor.drop(k)
                ref = _reference_drop(ref, k)
                pool.append(members.pop(k))
            L = factor._L
            assert L.shape == (len(members), len(members))
            assert np.tril(L).tobytes() == np.tril(ref).tobytes()
            assert not np.triu(L, 1).any()
            d = np.abs(np.diag(L))
            assert factor.condition_estimate() == float((d.max() / d.min()) ** 2)
            copied = factor.copy()
            assert copied.condition_estimate() == factor.condition_estimate()
            assert copied._L.tobytes() == L.tobytes()


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


def test_max_condition_is_the_largest_estimate_the_solver_checked():
    rng = make_rng(19)
    for trial in range(60):
        d = int(rng.integers(1, 14))
        oracle = BudgetedBitVectorPolytope(d, max(1, d // 2)) if trial % 2 else BitVectorPolytope(d)
        t = rng.normal(size=d)
        res = sparsemap(oracle, t)
        state = _initial_state(oracle, t)
        estimates = [state.kkt_factor.condition_estimate()]
        assert estimates == [1.0] and state.max_condition == 1.0
        while not state.converged:
            prev = state
            state = active_set_step(state, oracle, t)
            if state.adds > prev.adds:
                estimates.append(state.kkt_factor.condition_estimate())
            assert state.max_condition == max(estimates)
        assert res.max_condition == state.max_condition
        assert res.max_condition >= 1.0
    assert sparsemap(BitVectorPolytope(3), [4.0, 5.0, 6.0]).max_condition == 1.0


# --- The batch solver ------------------------------------------------------


def _reference_solve(oracle, t, max_iter=None, tol=1e-9, cond_limit=1e12):
    """The active set one row at a time, written as it was before the batch
    solver: a Python-float ratio test, a set of bit tuples for the known
    structures, and the factor grown and shrunk through its public API,
    rebuilt when its condition estimate passes ``cond_limit``."""
    t = np.asarray(t, dtype=np.float64)
    max_iter = 100 + 10 * oracle.dim if max_iter is None else max_iter
    first = oracle.map(t)
    structures, rows = [first], np.asarray(first.bits, dtype=np.float64)[None]
    probs, moments, tau, nu = np.ones(1), rows[0], np.nan, np.nan
    factor = CholeskyFactor(rows @ rows.T + 1.0)
    out = dict(iterations=0, adds=0, drops=0, refactorizations=0, widenings=0,
               max_condition=1.0, converged=False)
    for _ in range(max_iter):
        u, v = factor.solve(rows @ t), factor.solve(np.ones(len(rows)))
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
            del structures[blocker]
            rows = np.delete(rows, blocker, axis=0)
            factor.drop(blocker)
            moments = rows.T @ probs
            out["drops"] += 1
            if cycle:
                factor = CholeskyFactor(rows @ rows.T + 1.0)
                out["refactorizations"] += 1
                out["widenings"] += 1
                tol *= 10.0
            continue
        moments, tau = rows.T @ p_hat, tau_hat
        candidate = oracle.map(t - moments)
        nu = tau_hat - candidate.score
        if nu >= -tol or candidate.bits in {s.bits for s in structures}:
            probs, out["converged"] = p_hat, True
            break
        a = np.asarray(candidate.bits, dtype=np.float64)
        cross = rows.dot(a) + 1.0
        structures.append(candidate)
        rows = np.vstack([rows, a])
        try:
            factor.append(cross, float(a.dot(a)) + 1.0)
        except np.linalg.LinAlgError:
            factor = CholeskyFactor(rows @ rows.T + 1.0)
            out["refactorizations"] += 1
        cond = factor.condition_estimate()
        out["max_condition"] = max(out["max_condition"], cond)
        if cond > cond_limit:
            factor = CholeskyFactor(rows @ rows.T + 1.0)
            out["refactorizations"] += 1
        probs = np.concatenate((p_hat, [0.0]))
        out["adds"] += 1
    keep = probs > 0.0
    out.update(bits=[s.bits for s, k in zip(structures, keep) if k], probs=probs[keep].tobytes(),
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
def test_rows_solve_equals_each_row_alone_byte_for_byte(d):
    rng = make_rng(300 + d)
    for oracle in _polytopes(d):
        T = _mixed_rows(rng, 12, d)
        solved = sparsemap_rows(oracle, T)
        assert len(solved) == len(T)
        steps = [res.iterations for res in solved]
        for t, res in zip(T, solved):
            alone = _fingerprint(sparsemap(oracle, t))
            assert _fingerprint(res) == alone
            reference = _reference_solve(oracle, t)
            assert {key: alone[key] for key in reference} == reference
        if d >= 8:  # rows of one batch converge many steps apart
            assert max(steps) - min(steps) >= (5 if d == 8 else 12)


def test_rows_solve_steps_rows_that_drop_beside_rows_that_add(monkeypatch):
    # Record, for each lockstep step, which rows dropped and which added.
    import sparsemarg.activeset as activeset

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
    import sparsemarg.activeset as activeset

    monkeypatch.setattr(activeset, "_COND_LIMIT", 5.0)
    steps, advance = [], activeset._advance_rows

    def advance_rows(sets, oracle, live):
        n, drops, rebuilds, done, room = (list(sets.n), list(sets.drops),
                                          list(sets.refactorizations), list(sets.converged),
                                          sets.V.shape[1])
        out = advance(sets, oracle, live)
        steps.append(dict(
            grew={b for b in live if n[b] == room < sets.n[b]},
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


class _ForcingOracle:
    """``BitVectorPolytope(2)``, except that at the residual (0, -1) it
    offers the vertex (0, 1) with score 1e3 its first ``times`` times: the
    relaxed QP rejects it, so the row refactorizes and widens its
    tolerance once each time.  Only ``map``: the batch solver reaches it
    through its one-row adapter."""

    dim = 2

    def __init__(self, times):
        self.times = times
        self.polytope = BitVectorPolytope(2)

    def map(self, t):
        if self.times and np.array_equal(t, [0.0, -1.0]):
            self.times -= 1
            return Structure((0, 1), 1e3)
        return self.polytope.map(t)


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

    def map(self, t):
        return Structure((1, 0, 0), 1e3)


def test_rows_solve_stops_at_a_candidate_already_in_the_support():
    T = make_rng(315).normal(size=(5, 3))
    solved = sparsemap_rows(_ConstantOracle(), T)
    for t, res in zip(T, solved):
        assert res.converged and res.iterations == 1 and res.nu_min < -1e2
        assert [s.bits for s in res.structures] == [(1, 0, 0)]
        assert _fingerprint(res) == _fingerprint(sparsemap(_ConstantOracle(), t))
        reference = _reference_solve(_ConstantOracle(), t)
        assert {key: _fingerprint(res)[key] for key in reference} == reference


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
            with pytest.raises(type(loop)) as raised:
                sparsemap_rows(oracle, T)
            assert str(raised.value) == str(loop)
    assert capfd.readouterr() == ("", "")


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
