"""Simplex projection: solver agreement, frozen examples, vjp, entropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsemarg.reference import central_difference, sparsemax_bruteforce
from sparsemarg.rng import make_rng
from sparsemarg.simplex import (
    SparseDistribution,
    entropy,
    softmax,
    sparsemax,
    sparsemax_fullsort,
    sparsemax_rows,
    sparsemax_vjp,
)


def test_uniform_on_constant_scores():
    dist = sparsemax([0.0, 0.0, 0.0])
    np.testing.assert_allclose(dist.densify(), [1 / 3, 1 / 3, 1 / 3])
    assert dist.threshold == pytest.approx(-1 / 3)


def test_point_mass_on_dominant_score():
    dist = sparsemax([10.0, 0.0, 0.0])
    np.testing.assert_allclose(dist.densify(), [1.0, 0.0, 0.0])
    assert dist.threshold == pytest.approx(9.0)
    assert dist.support_size == 1


def test_frozen_two_support_example():
    # Expected values frozen from the exhaustive-support QP oracle.
    dist = sparsemax([1.0, 0.5, -0.2])
    np.testing.assert_allclose(dist.densify(), [0.75, 0.25, 0.0], atol=1e-15)
    assert dist.threshold == pytest.approx(0.25)


def test_matches_bruteforce_qp_oracle():
    rng = make_rng(3)
    for _ in range(300):
        k = int(rng.integers(2, 11))
        s = rng.normal(size=k) * float(rng.choice([0.1, 1.0, 10.0]))
        got = sparsemax(s).densify()
        np.testing.assert_allclose(got, sparsemax_bruteforce(s), atol=1e-10)


def test_doubling_solver_equals_full_sort():
    rng = make_rng(4)
    for _ in range(300):
        k = int(rng.integers(1, 200))
        s = rng.normal(size=k) * 3.0
        a = sparsemax(s)
        b = sparsemax_fullsort(s)
        assert a.indices.tolist() == b.indices.tolist()
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


def test_translation_invariance():
    rng = make_rng(5)
    for _ in range(100):
        s = rng.normal(size=8)
        c = float(rng.normal()) * 10
        a = sparsemax(s)
        b = sparsemax(s + c)
        assert a.indices.tolist() == b.indices.tolist()
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
@pytest.mark.parametrize("K", [16, 100])
def test_large_offsets_keep_the_projection(offset, K):
    # Thresholding the raw scores lost the probabilities to rounding here:
    # sparsemax(s + 1e8) raised "probabilities must sum to one".
    rng = make_rng(1)
    for _ in range(60):
        s = rng.normal(size=K)
        base = sparsemax(s)
        for solver in (sparsemax, sparsemax_fullsort):
            shifted = solver(s + offset)
            np.testing.assert_allclose(shifted.densify(), base.densify(), rtol=0.0, atol=1e-6)
            assert abs((shifted.threshold - offset) - base.threshold) <= 1e-6


def _assert_rows_are_sparsemax(s):
    probs = sparsemax_rows(s)
    assert probs.shape == s.shape
    for row, out in zip(s, probs):
        dist = sparsemax(row)
        support = np.flatnonzero(out)
        assert np.array_equal(support, dist.indices)
        assert np.array_equal(out[support], dist.probs)


def test_sparsemax_rows_equal_sparsemax_bit_for_bit():
    # Sizes on both sides of the 1-d solver's doubling prefixes (8, 16, 32).
    rng = make_rng(21)
    for K in (2, 7, 8, 9, 16, 17, 33, 100):
        for scale in (0.1, 1.0, 10.0):
            _assert_rows_are_sparsemax(scale * rng.normal(size=(12, K)))


def test_sparsemax_rows_on_ties():
    rng = make_rng(22)
    for K in (3, 8, 16, 33):
        s = np.round(2.0 * rng.normal(size=(20, K))) / 4.0
        s[0] = 0.0
        s[1] = 1.0
        s[2, : K // 2] = 0.5
        _assert_rows_are_sparsemax(s)


def test_near_ties_give_a_point_mass_in_every_solver():
    # Ties a hair past distance 1 below the max: in floating point the
    # support test fails at position 2 and passes again further down the
    # sort.  The first failure ends the support, so the doubling solver,
    # the full sort and the row-wise solver all keep one outcome.
    for K, ulps in ((16, 14), (16, 12), (20, 28)):
        s = np.full((1, K), -1.0 - ulps * 2.0 ** -52)
        s[0, 0] = 0.0
        dists = [sparsemax(s[0]), sparsemax_fullsort(s[0])]
        rows = sparsemax_rows(s)
        for dist in dists:
            assert dist.support_size == 1
            assert np.array_equal(dist.densify(), rows[0])
        assert np.array_equal(rows[0], np.eye(K)[0])


def test_sparsemax_rows_single_outcome():
    s = np.array([[3.0], [-1e8], [0.0]])
    _assert_rows_are_sparsemax(s)
    np.testing.assert_array_equal(sparsemax_rows(s), np.ones((3, 1)))


def test_sparsemax_rows_validation():
    for bad in ([1.0, 2.0], [[np.inf, 0.0]], np.zeros((2, 0)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError):
            sparsemax_rows(bad)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)),
           elements=st.floats(-10.0, 10.0)),
    st.floats(-1e8, 1e8),
)
def test_sparsemax_rows_property_with_large_offsets(s, offset):
    # Row-wise and 1-d sparsemax agree exactly at any offset, and the
    # offset moves neither far from the unshifted projection.
    shifted = s + offset
    _assert_rows_are_sparsemax(shifted)
    np.testing.assert_allclose(sparsemax_rows(shifted), sparsemax_rows(s), rtol=0.0, atol=1e-6)
    for row, base in zip(shifted, s):
        np.testing.assert_allclose(sparsemax(row).densify(), sparsemax(base).densify(),
                                   rtol=0.0, atol=1e-6)


def test_softmax_rows_equal_softmax_bit_for_bit():
    rng = make_rng(23)
    for K in (1, 2, 16, 100):
        s = rng.normal(size=(9, K)) * 5.0
        rows = softmax(s)
        for i in range(s.shape[0]):
            assert np.array_equal(rows[i], softmax(s[i].copy()))


def test_permutation_equivariance():
    rng = make_rng(6)
    for _ in range(100):
        s = rng.normal(size=7)
        perm = rng.permutation(7)
        direct = sparsemax(s[perm]).densify()
        np.testing.assert_allclose(direct, sparsemax(s).densify()[perm], atol=1e-15)


def test_order_preservation():
    rng = make_rng(7)
    for _ in range(200):
        s = rng.normal(size=6)
        p = sparsemax(s).densify()
        for i in range(6):
            for j in range(6):
                if s[i] > s[j] and p[j] > 0:
                    assert p[i] >= p[j]


def test_rejects_non_finite_scores():
    with pytest.raises(ValueError):
        sparsemax([np.nan, 0.0])
    with pytest.raises(ValueError):
        sparsemax([np.inf, 0.0])


def test_vjp_constant_upstream_is_zero():
    s = np.array([0.1, 0.2, 0.3])
    dist = sparsemax(s)
    assert dist.support_size == 3
    np.testing.assert_allclose(sparsemax_vjp(s, dist, [1.0, 1.0, 1.0]), 0.0, atol=1e-15)


def test_vjp_frozen_two_support_example():
    # Frozen from central finite differences with h = 1e-6.
    s = np.array([1.0, 0.5, -0.2])
    dist = sparsemax(s)
    got = sparsemax_vjp(s, dist, [1.0, 0.0, 5.0])
    np.testing.assert_allclose(got, [0.5, -0.5, 0.0], atol=1e-12)


def test_vjp_singleton_support_is_zero():
    s = np.array([5.0, 0.0])
    dist = sparsemax(s)
    np.testing.assert_allclose(sparsemax_vjp(s, dist, [3.0, 7.0]), 0.0)


def test_vjp_matches_finite_differences_on_stable_points():
    rng = make_rng(8)
    checked = 0
    for _ in range(300):
        k = int(rng.integers(2, 9))
        s = rng.normal(size=k)
        dist = sparsemax(s)
        # Only differentiable where the support is stable under +-h.
        if sparsemax(s + 1e-4).support_size != dist.support_size:
            continue
        u = rng.normal(size=k)
        fd = central_difference(lambda x: u @ sparsemax(x).densify(), s, 1e-6)
        np.testing.assert_allclose(sparsemax_vjp(s, dist, u), fd, atol=1e-7)
        checked += 1
    assert checked > 100


def test_vjp_rejects_mismatched_sizes():
    s = np.array([1.0, 0.5, -0.2])
    dist = sparsemax(s)
    for upstream in ([1.0, 0.0], np.ones(4)):
        with pytest.raises(ValueError):
            sparsemax_vjp(s, dist, upstream)
    with pytest.raises(ValueError):
        sparsemax_vjp(s[:2], dist, [1.0, 0.0])


def test_softmax_basics():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(softmax([1000.0, 0.0]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3])


def test_entropy_values():
    assert entropy(sparsemax([10.0, 0.0])) == 0.0
    assert entropy(sparsemax([0.0] * 4)) == pytest.approx(np.log(4))
    # Frozen from high-precision -sum(p log p) on [0.75, 0.25].
    assert entropy(sparsemax([1.0, 0.5])) == pytest.approx(0.5623351446188083, abs=1e-15)


def test_distribution_validation():
    with pytest.raises(ValueError):
        SparseDistribution(np.array([1, 0]), np.array([0.5, 0.5]), 0.0, 3)
    with pytest.raises(ValueError):
        SparseDistribution(np.array([0, 1]), np.array([0.5, 0.4]), 0.0, 3)
    with pytest.raises(ValueError):
        SparseDistribution(np.array([0, 1]), np.array([1.0, 0.0]), 0.0, 3)
