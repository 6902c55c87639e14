"""Dense, score-function, and sum-and-sample gradient estimators."""

import numpy as np
import pytest

from sparsemarg.estimators import (
    MovingAverageBaseline,
    _sas_term,
    _sfe_term,
    dense_grad,
    sfe_grad,
    sum_and_sample_grad,
)
from sparsemarg.marginalize import LossOracle
from sparsemarg.reference import central_difference
from sparsemarg.rng import make_rng
from sparsemarg.simplex import softmax
from sparsemarg.topk import top_k


def _oracle(table):
    return LossOracle(lambda z: table[z])


def test_dense_constant_losses_zero():
    g = dense_grad(np.array([0.3, -0.1, 0.7]), _oracle([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_dense_frozen_two_class_example():
    # Analytic softmax Jacobian at the uniform point.
    g = dense_grad(np.array([0.0, 0.0]), _oracle([0.0, 1.0]))
    np.testing.assert_allclose(g, [-0.25, 0.25], atol=1e-15)


def test_dense_matches_finite_differences():
    rng = make_rng(0)
    for _ in range(100):
        s = rng.normal(size=5)
        table = rng.normal(size=5)

        def f(x):
            return softmax(x) @ table

        fd = central_difference(f, s, 1e-6)
        g = dense_grad(s, _oracle(table))
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-9) <= 1e-6


def test_dense_counts_every_outcome():
    oracle = _oracle(np.zeros(7))
    dense_grad(np.zeros(7), oracle)
    assert oracle.calls == 7


def test_dense_enumeration_guard():
    with pytest.raises(ValueError):
        dense_grad(np.zeros(5000), _oracle(np.zeros(5000)))


def test_sfe_unbiased_by_enumeration():
    rng = make_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        s = rng.normal(size=k)
        table = rng.normal(size=k)
        b = float(rng.normal())
        p = softmax(s)
        mean = sum(p[z] * _sfe_term(p, z, table[z], b) for z in range(k))
        exact = dense_grad(s, _oracle(table))
        np.testing.assert_allclose(mean, exact, atol=1e-10)


def test_sfe_loss_equal_baseline_gives_zero():
    s = np.array([0.2, -0.4, 0.1])
    est, _ = sfe_grad(s, _oracle([3.0, 3.0, 3.0]), MovingAverageBaseline(3.0), make_rng(0))
    np.testing.assert_allclose(est.grad, 0.0, atol=1e-15)


def test_sfe_single_outcome_gives_zero():
    est, _ = sfe_grad(np.array([1.7]), _oracle([5.0]), MovingAverageBaseline(0.0), make_rng(0))
    np.testing.assert_allclose(est.grad, 0.0, atol=1e-15)


def test_sfe_uses_one_call_and_updates_baseline():
    oracle = _oracle([1.0, 2.0])
    base = MovingAverageBaseline(0.0, decay=0.9)
    _, updated = sfe_grad(np.array([0.0, 0.0]), oracle, base, make_rng(3))
    assert oracle.calls == 1
    assert updated.value in (pytest.approx(0.1), pytest.approx(0.2))
    assert base.value == 0.0  # input state untouched


def test_sas_unbiased_by_enumeration():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        s = rng.normal(size=n)
        table = rng.normal(size=n)
        p = softmax(s)
        kept = top_k(s, k).indices
        comp = np.setdiff1d(np.arange(n), kept)
        comp_mass = p[comp].sum()
        mean = np.zeros(n)
        for z in comp:
            w = p[z] / comp_mass
            mean = mean + w * _sas_term(p, kept, table[kept], comp_mass, int(z), table[z])
        exact = dense_grad(s, _oracle(table))
        np.testing.assert_allclose(mean, exact, atol=1e-10)


def test_sas_k_plus_one_calls():
    oracle = _oracle(np.arange(6.0))
    sum_and_sample_grad(np.linspace(0, 1, 6), oracle, 3, make_rng(0))
    assert oracle.calls == 4


def test_sas_zero_complement_mass_is_exact_topk():
    # All mass provably inside the kept set: complement sampling skipped.
    s = np.array([0.0, 0.0, -200.0, -200.0])
    oracle = _oracle([1.0, 2.0, 3.0, 4.0])
    est = sum_and_sample_grad(s, oracle, 2, make_rng(0))
    assert oracle.calls == 2
    exact = dense_grad(s, _oracle([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(est.grad, exact, atol=1e-10)


def test_sas_k_out_of_range():
    with pytest.raises(ValueError):
        sum_and_sample_grad(np.zeros(3), _oracle(np.zeros(3)), 0, make_rng(0))
    with pytest.raises(ValueError):
        sum_and_sample_grad(np.zeros(3), _oracle(np.zeros(3)), 3, make_rng(0))


def test_sas_variance_below_sfe():
    # Replicated single-draw comparison on one random problem.
    rng = make_rng(3)
    s = rng.normal(size=10)
    table = rng.normal(size=10) * 2.0
    exact = dense_grad(s, _oracle(table))
    sfe_sq = np.zeros(10)
    sas_sq = np.zeros(10)
    reps = 2000
    base = MovingAverageBaseline(float(table.mean()))
    for r in range(reps):
        est, _ = sfe_grad(s, _oracle(table), base, make_rng(r))
        sfe_sq += (est.grad - exact) ** 2
        est = sum_and_sample_grad(s, _oracle(table), 5, make_rng(r))
        sas_sq += (est.grad - exact) ** 2
    assert sas_sq.sum() < sfe_sq.sum()


def test_estimates_report_their_evaluations():
    rng = make_rng(4)
    for _ in range(20):
        s = rng.normal(size=6)
        table = rng.normal(size=6)
        oracle = _oracle(table)
        sfe, _ = sfe_grad(s, oracle, MovingAverageBaseline(0.5), rng)
        sas = sum_and_sample_grad(s, oracle, 2, rng)
        assert oracle.calls == sfe.outcomes.size + sas.outcomes.size
        for est in (sfe, sas):
            np.testing.assert_array_equal(est.probs, softmax(s))
            np.testing.assert_array_equal(est.values, table[est.outcomes])
            assert est.loss == pytest.approx(est.weights @ est.values, abs=1e-12)
        assert sfe.weights.tolist() == [1.0]
        kept = top_k(s, 2).indices
        np.testing.assert_array_equal(sas.outcomes[:2], kept)
        np.testing.assert_allclose(sas.weights, [*softmax(s)[kept], 1.0 - softmax(s)[kept].sum()])


def test_baseline_update_rule():
    base = MovingAverageBaseline(1.0, decay=0.75)
    assert base.updated(5.0).value == pytest.approx(0.75 * 1.0 + 0.25 * 5.0)
