"""Support-only expectations, ELBO terms, and the split log-marginal."""

import numpy as np
import pytest
from scipy.special import logsumexp

from sparsemarg.activeset import sparsemap
from sparsemarg.bitvec import IdentityPolytope
from sparsemarg.marginalize import (
    CallStats,
    LossOracle,
    call_curve,
    elbo_terms,
    grad_scores_through_mapping,
    log_marginal_split,
    sparse_expectation,
)
from sparsemarg.rng import make_rng
from sparsemarg.simplex import sparsemax


def _table_oracle(table):
    return LossOracle(lambda z: table[z])


def test_point_mass_single_call():
    dist = sparsemax([10.0, 0.0, 0.0])
    oracle = _table_oracle([7.5, 0.0, 0.0])
    report = sparse_expectation(dist, oracle)
    assert report.expected_loss == pytest.approx(7.5)
    assert report.calls_used == 1
    assert oracle.calls == 1


def test_uniform_two_outcomes():
    dist = sparsemax([0.0, 0.0])
    report = sparse_expectation(dist, _table_oracle([0.0, 1.0]))
    assert report.expected_loss == pytest.approx(0.5)
    assert report.calls_used == 2


def test_equals_dense_sum_with_masked_losses():
    rng = make_rng(0)
    for _ in range(100):
        s = rng.normal(size=10) * 2.0
        dist = sparsemax(s)
        table = rng.normal(size=10)
        report = sparse_expectation(dist, _table_oracle(table))
        assert report.expected_loss == pytest.approx(
            dist.densify() @ table, abs=1e-12
        )
        assert report.calls_used == dist.support_size


def test_grad_constant_losses_is_zero():
    s = np.array([0.4, 0.1, -0.3])
    dist = sparsemax(s)
    g = grad_scores_through_mapping(s, dist, np.ones(dist.support_size))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_grad_frozen_sparsemax_example():
    # Frozen from finite differences of the scalar expectation.
    s = np.array([1.0, 0.5, -0.2])
    dist = sparsemax(s)
    assert dist.indices.tolist() == [0, 1]
    g = grad_scores_through_mapping(s, dist, np.array([1.0, 0.0]))
    np.testing.assert_allclose(g, [0.5, -0.5, 0.0], atol=1e-12)


def test_grad_sparsemap_identity_matches_categorical():
    s = np.array([1.0, 0.5, -0.2])
    res = sparsemap(IdentityPolytope(3), s)
    losses = np.array([1.0 if st.bits[0] else 0.0 for st in res.structures])
    g = grad_scores_through_mapping(s, res, losses)
    np.testing.assert_allclose(g, [0.5, -0.5, 0.0], atol=1e-8)


def test_grad_support_mismatch_raises():
    s = np.array([1.0, 0.5, -0.2])
    dist = sparsemax(s)
    with pytest.raises(ValueError):
        grad_scores_through_mapping(s, dist, np.ones(3))


def test_elbo_uniform_has_zero_kl():
    dist = sparsemax([0.0, 0.0, 0.0, 0.0])
    recon, kl = elbo_terms(dist, _table_oracle([1.0, 2.0, 3.0, 4.0]))
    assert kl == pytest.approx(0.0, abs=1e-12)
    assert recon == pytest.approx(2.5)


def test_elbo_point_mass_kl_is_d_log2():
    d = 6
    dist = sparsemax(np.r_[10.0, np.zeros(2 ** d - 1)])
    _, kl = elbo_terms(dist, _table_oracle(np.zeros(2 ** d)))
    assert kl == pytest.approx(d * np.log(2.0))


def test_elbo_frozen_entropy_example():
    dist = sparsemax([1.0, 0.5, -5.0, -5.0])
    assert dist.densify()[:2] == pytest.approx([0.75, 0.25])
    _, kl = elbo_terms(dist, _table_oracle(np.zeros(4)))
    assert kl == pytest.approx(np.log(4.0) - 0.5623351446188083, abs=1e-12)


def test_elbo_explicit_prior():
    dist = sparsemax([1.0, 0.5, -5.0])
    prior = np.array([0.5, 0.25, 0.25])
    _, kl = elbo_terms(dist, _table_oracle(np.zeros(3)), prior=prior)
    q = dist.densify()
    expected = sum(qi * np.log(qi / pi) for qi, pi in zip(q, prior) if qi > 0)
    assert kl == pytest.approx(expected, abs=1e-12)


def test_log_marginal_full_support_is_exact():
    dist = sparsemax([0.0, 0.0, 0.0])
    logs = np.array([-1.0, -2.0, -3.0])
    est, err = log_marginal_split(dist, _table_oracle(logs), 16, seed=0)
    assert est == pytest.approx(logsumexp(logs), abs=1e-12)
    assert err == 0.0


def test_log_marginal_within_stderr_on_enumerable_model():
    rng = make_rng(1)
    logs = rng.normal(size=1024) - 5.0
    dist = sparsemax(rng.normal(size=1024) * 3.0)
    exact = logsumexp(logs)
    est, err = log_marginal_split(dist, _table_oracle(logs), 256, seed=2)
    assert err > 0.0
    assert abs(est - exact) <= 3.0 * err


def test_log_marginal_stderr_shrinks_with_samples():
    rng = make_rng(3)
    logs = rng.normal(size=512)
    dist = sparsemax(rng.normal(size=512) * 3.0)
    errs = []
    for n in (32, 512):
        ests = []
        for seed in range(20):
            _, err = log_marginal_split(dist, _table_oracle(logs), n, seed=seed)
            ests.append(err)
        errs.append(np.median(ests))
    assert errs[1] < errs[0]


def test_log_marginal_all_minus_inf_complement():
    dist = sparsemax([5.0, 4.9, -10.0, -10.0])
    logs = np.array([-1.0, -2.0, -np.inf, -np.inf])
    est, err = log_marginal_split(dist, _table_oracle(logs), 8, seed=4)
    assert est == pytest.approx(logsumexp(logs[:2]), abs=1e-12)
    assert err == 0.0


def test_log_marginal_zero_samples_invalid():
    dist = sparsemax([5.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        log_marginal_split(dist, _table_oracle(np.zeros(3)), 0, seed=0)


def test_call_curve_stats():
    class R:
        def __init__(self, calls):
            self.calls_used = calls

    curve = call_curve([[R(1)], [R(1), R(2), R(3)], [R(256)] * 4])
    assert curve[0] == CallStats(1.0, 1.0, 1.0, 1.0)
    assert curve[1].median == 2.0
    assert curve[2].mean == 256.0
    with pytest.raises(ValueError):
        call_curve([])


def test_oracle_counter_is_monotone():
    oracle = _table_oracle([1.0, 2.0])
    oracle.eval(0)
    oracle.eval(1)
    oracle.eval(0)
    assert oracle.calls == 3


def test_vectorised_lookup_counts_the_values_it_returns():
    table = 1.5 * np.arange(10.0)
    oracle = _table_oracle(table)
    np.testing.assert_array_equal(oracle.eval_many(np.array([3, 1, 3])), [4.5, 1.5, 4.5])
    assert oracle.calls == 3
    assert oracle.eval_many(np.array([], dtype=np.int64)).size == 0
    assert oracle.calls == 3
    assert oracle.eval_many(np.arange(10).reshape(2, 5)).shape == (2, 5)
    assert oracle.calls == 13
    assert oracle.eval(2) == 3.0
    assert oracle.calls == 14


def test_log_marginal_rejects_dim_past_int64():
    # The uniform draws are int64; numpy raised "high is out of bounds
    # for int64" from inside the sampling loop.
    dist = sparsemax([0.0, 0.0])
    with pytest.raises(ValueError, match="2\\^63"):
        log_marginal_split(dist, LossOracle(lambda z: 0.0), 4, seed=0, dim=(1 << 63) + 1)
    est, err = log_marginal_split(dist, LossOracle(lambda z: 0.0), 4, seed=0, dim=1 << 63)
    assert est == pytest.approx(63 * np.log(2.0))
    assert err == 0.0
