"""Support-only expectations, call statistics, and the split log-marginal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from sparsemarg.marginalize import (
    CallStats,
    LossOracle,
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
    assert sparse_expectation(dist, oracle) == pytest.approx(7.5)
    assert oracle.calls == 1


def test_uniform_two_outcomes():
    dist = sparsemax([0.0, 0.0])
    oracle = _table_oracle([0.0, 1.0])
    assert sparse_expectation(dist, oracle) == pytest.approx(0.5)
    assert oracle.calls == 2


def test_equals_dense_sum_with_masked_losses():
    rng = make_rng(0)
    for _ in range(100):
        s = rng.normal(size=10) * 2.0
        dist = sparsemax(s)
        table = rng.normal(size=10)
        oracle = _table_oracle(table)
        assert sparse_expectation(dist, oracle) == pytest.approx(
            dist.densify() @ table, abs=1e-12
        )
        assert oracle.calls == dist.support_size


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


def test_call_stats_from_counts():
    assert CallStats.from_counts([1]) == CallStats(1.0, 1.0, 1.0, 1.0)
    assert CallStats.from_counts([1, 2, 3]).median == 2.0
    assert CallStats.from_counts([256] * 4).mean == 256.0
    stats = CallStats.from_counts([1, 2, 3, 4, 10])
    assert (stats.mean, stats.p10, stats.median, stats.p90) == pytest.approx((4.0, 1.4, 3.0, 7.6))
    with pytest.raises(ValueError):
        CallStats.from_counts([])


@settings(max_examples=300, deadline=None)
@given(counts=st.one_of(
    st.lists(st.integers(0, 400), min_size=1, max_size=400),  # ties, n = 1 among them
    st.lists(st.integers(1, 3), min_size=1, max_size=60),  # mostly ties
    st.builds(lambda c, n: [c] * n, st.integers(0, 400), st.integers(1, 400)),  # all equal
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
))
def test_call_stats_quantiles_have_the_bytes_of_np_percentile(counts):
    stats = CallStats.from_counts(counts)
    expected = np.percentile(np.asarray(counts, dtype=np.float64), (10, 50, 90))
    assert np.array([stats.p10, stats.median, stats.p90]).tobytes() == expected.tobytes()
    assert stats.mean == np.mean(np.asarray(counts, dtype=np.float64))


def test_call_stats_of_counts_that_are_not_finite_follow_np_percentile():
    for counts in ([1.0, np.nan, 3.0], [np.inf, 1.0], [1e308, 1e308, 2.0], [-np.inf, np.inf]):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
            stats = CallStats.from_counts(counts)
            expected = np.percentile(np.asarray(counts), (10, 50, 90))
        assert np.array([stats.p10, stats.median, stats.p90]).tobytes() == expected.tobytes()


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
