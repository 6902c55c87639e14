"""Dense, score-function, and sum-and-sample gradient estimators."""

import numpy as np
import pytest

from sparsemarg.estimators import (
    MovingAverageBaseline,
    _draw_rows,
    _sas_term,
    _sfe_term,
    dense_grad,
    sfe_grad,
    sfe_rows,
    sum_and_sample_grad,
    sum_and_sample_rows,
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
        terms = _sfe_term(np.tile(p, (k, 1)), np.arange(k), table, np.full(k, b))
        mean = sum(p[z] * terms[z] for z in range(k))
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
        m = comp.size
        terms = _sas_term(np.tile(p, (m, 1)), np.tile(kept, (m, 1)), np.tile(table[kept], (m, 1)),
                          np.full(m, comp_mass), comp, table[comp])
        mean = np.zeros(n)
        for z, term in zip(comp, terms):
            w = p[z] / comp_mass
            mean = mean + w * term
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
    before, after = base.advanced([5.0, -2.0])
    assert before == [1.0, base.updated(5.0).value]
    assert after.value == base.updated(5.0).updated(-2.0).value


@pytest.mark.parametrize("method,k", [("sfe", 0), ("sum_and_sample", 1),
                                      ("sum_and_sample", 2), ("sum_and_sample", 5)])
def test_row_estimators_draw_from_p_and_average_to_the_exact_gradient(method, k):
    # The real sampler on 20,000 copies of one score row: each outcome's
    # draw frequency matches p (sfe) or p / comp_mass on the complement
    # (sum-and-sample), and the mean gradient and loss estimates match the
    # exact ones, all within 4 standard errors.
    n, K = 20_000, 6
    s = np.array([0.9, -0.4, 0.3, 1.2, -1.0, 0.1])
    table = np.array([1.5, -0.7, 2.0, 0.3, -1.2, 0.8])
    oracle = LossOracle(lambda pairs: table[pairs[1]])
    scores = np.tile(s, (n, 1))
    p = softmax(s)
    if method == "sfe":
        est, _ = sfe_rows(scores, oracle, MovingAverageBaseline(), make_rng(40))
        drawn, target = est.outcomes, p
    else:
        est = sum_and_sample_rows(scores, oracle, k, make_rng(40))
        assert est.outcomes.size == n * (k + 1)  # every row draws once
        drawn = est.outcomes.reshape(n, k + 1)[:, k]
        target = p.copy()
        target[top_k(s, k).indices] = 0.0
        target /= target.sum()
    assert oracle.calls == est.outcomes.size
    freq = np.bincount(drawn, minlength=K) / n
    assert np.all(np.abs(freq - target) <= 4.0 * np.sqrt(target * (1.0 - target) / n))
    exact = dense_grad(s, _oracle(table))
    err = np.abs(est.grad.mean(axis=0) - exact)
    assert np.all(err <= 4.0 * est.grad.std(axis=0, ddof=1) / np.sqrt(n) + 1e-12)
    assert abs(est.loss.mean() - p @ table) <= 4.0 * est.loss.std(ddof=1) / np.sqrt(n) + 1e-12


def test_row_draws_are_generator_choice_draws():
    # Inverse cdf on one rng.random(B) gives the outcome rng.choice(K, p=row)
    # draws row after row, zero entries included, and uses the same stream.
    rng = make_rng(43)
    probs = rng.random((300, 7)) ** 4
    probs[rng.random(probs.shape) < 0.2] = 0.0
    probs[:, 0] += 1e-3  # no row is all zeros
    probs /= probs.sum(axis=1, keepdims=True)
    batched, single = make_rng(44), make_rng(44)
    drawn = _draw_rows(probs, batched)
    assert drawn.tolist() == [int(single.choice(7, p=row)) for row in probs]
    assert batched.random() == single.random()


@pytest.mark.parametrize("row, match", [
    ([0.5, np.nan, 0.5], "NaN"),
    ([0.6, -0.1, 0.5], "non-negative"),
    ([0.5, 0.2, 0.2], "sum to 1"),
])
def test_row_draws_reject_what_generator_choice_rejects(row, match):
    with pytest.raises(ValueError):
        make_rng(0).choice(3, p=np.array(row))
    with pytest.raises(ValueError, match=match):
        _draw_rows(np.array([[0.2, 0.3, 0.5], row]), make_rng(0))


def test_row_estimators_reject_bad_scores_and_k():
    oracle = LossOracle(lambda pairs: np.zeros(len(pairs[1])))
    runs = (lambda s: sfe_rows(s, oracle, MovingAverageBaseline(), make_rng(0)),
            lambda s, k=1: sum_and_sample_rows(s, oracle, k, make_rng(0)))
    for run in runs:
        for bad in (np.zeros(4), np.zeros((2, 2, 4))):
            with pytest.raises(ValueError, match=r"\(B, K\) matrix"):
                run(bad)
        with pytest.raises(ValueError, match="finite"):
            run(np.array([[0.0, 1.0, 2.0], [0.0, np.inf, 1.0]]))
    for k in (0, 3):
        with pytest.raises(ValueError, match="1 <= k < K"):
            runs[1](np.zeros((2, 3)), k)
    assert oracle.calls == 0


@pytest.mark.parametrize("method", ["sfe", "sum_and_sample"])
def test_row_estimators_equal_rows_one_at_a_time(method):
    # A batch that mixes rows that draw with rows whose complement mass is
    # at most 1e-14 gives, bit for bit, each row's estimate alone, from the
    # same draws, with the same loss calls and the same rng state after.
    rng = make_rng(41)
    s = rng.normal(size=(9, 20))
    s[[1, 4, 5]] = np.repeat([0.0, -200.0], [2, 18])
    s[7] = np.repeat([0.5, -1.0], 10)  # ten tied top scores: top_k keeps the lowest indices
    table = rng.normal(size=(9, 20))
    oracle = LossOracle(lambda pairs: table[pairs[0], pairs[1]])
    start = MovingAverageBaseline(0.3)
    whole_rng, single_rng = make_rng(42), make_rng(42)
    if method == "sfe":
        whole, whole_base = sfe_rows(s, oracle, start, whole_rng)
    else:
        whole = sum_and_sample_rows(s, oracle, 2, whole_rng)
    base, calls = start, []
    for i in range(9):
        one = _oracle(table[i])
        if method == "sfe":
            est, base = sfe_grad(s[i], one, base, single_rng)
        else:
            est = sum_and_sample_grad(s[i], one, 2, single_rng)
        row = whole.row(i)
        assert row.loss == est.loss
        if method == "sum_and_sample":
            assert np.array_equal(row.outcomes[:2], top_k(s[i], 2).indices)
        for field in ("grad", "probs", "outcomes", "weights", "values"):
            got, want = getattr(row, field), getattr(est, field)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        calls.append(one.calls)
    assert np.bincount(whole.rows).tolist() == calls
    assert oracle.calls == sum(calls)
    if method == "sfe":
        assert whole_base == base
    else:
        assert [calls[i] for i in (1, 4, 5)] == [2, 2, 2] and max(calls) == 3
    assert whole_rng.random() == single_rng.random()
