"""Simplex projection: optimality, solver agreement, frozen examples, vjp, entropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsemarg.reference import central_difference, sparsemax_bruteforce
from sparsemarg.rng import make_rng
from sparsemarg.simplex import (
    RowSupports,
    SparseDistribution,
    _row_dots,
    entropy,
    softmax,
    softmax_vjp,
    sparsemax,
    sparsemax_rows,
    sparsemax_vjp,
    sparsemax_vjp_rows,
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


def _assert_projection_optimality(s, p, tau):
    """The optimality (KKT) conditions of min ||p - s||^2 over the simplex,
    checked without a sort: p >= 0 summing to one, p_i = s_i - tau on the
    support and s_j <= tau off it, within 1e-9 of the score scale."""
    tol = 1e-9 * max(1.0, np.abs(s).max())
    on = p > 0
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.abs(p[on] - (s[on] - tau)).max() <= tol
    assert np.all(s[~on] <= tau + tol)


def _projection_inputs():
    """Score matrices at K = 1 to 4096: normal rows at four scales, quarter-
    step ties, all-equal and half-tied rows, near-ties and ties a hair past
    distance 1 below the max, each at offsets up to 1e8."""
    rng = make_rng(31)
    for K in (1, 2, 5, 16, 33, 64, 257, 1000, 4096):
        normal = rng.normal(size=(4, K)) * np.array([[0.1], [1.0], [10.0], [100.0]])
        ties = np.round(2.0 * rng.normal(size=(3, K))) / 4.0
        ties[0] = 0.0
        ties[1, : (K + 1) // 2] = 0.5
        near = ties[2] + 1e-12 * rng.normal(size=(2, K))
        hair = np.full((1, K), -1.0 - 14 * 2.0 ** -52)
        hair[0, 0] = 0.0
        block = np.vstack([normal, ties, near, hair])
        for offset in (0.0, -1e4, 1e8):
            yield block + offset


def test_solvers_meet_the_projection_optimality_conditions():
    for s in _projection_inputs():
        for row, p in zip(s, sparsemax_rows(s)):
            dist = sparsemax(row)
            _assert_projection_optimality(row, dist.densify(), dist.threshold)
            on = p > 0
            _assert_projection_optimality(row, p, np.mean(row[on] - p[on]))


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
        shifted = sparsemax(s + offset)
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
    # sort.  The first failure ends the support, so the 1-d and the
    # row-wise solver both keep one outcome.
    for K, ulps in ((16, 14), (16, 12), (20, 28)):
        s = np.full((1, K), -1.0 - ulps * 2.0 ** -52)
        s[0, 0] = 0.0
        dist = sparsemax(s[0])
        rows = sparsemax_rows(s)
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


def _spread(rng, shape):
    """Normal entries scaled by powers of ten over 1e-8..1e8, a fifth of them -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    return values


def _same_bits(got, expected):
    return (np.array_equal(got, expected)
            and np.array_equal(np.signbit(got), np.signbit(expected)))


def test_grouped_support_dots_and_means_equal_per_row_forms():
    # RowSupports reads each support size's rows as an (n, size) block of
    # one C-ordered stack of flat terms (the categorical pass stacks
    # probabilities, values and log-probabilities), and reduces it with
    # stacked 1 x size by size x 1 products and a mean along the rows.
    # Every row must keep the bits of the 1-d @ and .mean() on that
    # support alone, on both sides of numpy's eight-wide pairwise-sum
    # unroll.
    rng = make_rng(37)
    for size in list(range(1, 41)) + [8, 9, 16] * 5:
        n = int(rng.integers(1, 17))
        at = int(rng.integers(0, 4))  # blocks start anywhere in the flat layout
        stack = _spread(rng, (4, at + n * size + 3))
        block = stack[:, at:at + n * size].reshape(4, n, size)
        dots = _row_dots(block[0], block[1:])
        for j in range(3):
            expected = np.array([q @ v for q, v in zip(block[0], block[j + 1])])
            assert _same_bits(dots[j], expected), (size, n, j)
        expected = np.array([row.mean() for row in block[3]])
        assert _same_bits(block[3].mean(axis=1), expected), (size, n)


_SIZES = list(range(1, 41)) + [8, 9, 16]


def _mixed_support_rows(rng, K=48):
    """Probability rows over K outcomes with support sizes 1 to 40 and 8, 9
    and 16 again, one to three rows of each, shuffled, on random outcomes."""
    sizes = rng.permutation(np.repeat(_SIZES, rng.integers(1, 4, size=len(_SIZES))))
    p = np.zeros((sizes.size, K))
    for row, size in zip(p, sizes):
        weights = rng.random(size) + 0.1
        row[rng.choice(K, size=size, replace=False)] = weights / weights.sum()
    return p


def test_row_supports_reduce_each_row_with_the_bits_of_its_support_alone():
    rng = make_rng(38)
    for _ in range(3):
        p = _mixed_support_rows(rng)
        supports = RowSupports.of(p)
        assert np.array_equal(supports.sizes, (p > 0).sum(axis=1))
        on = supports.rows, supports.outcomes
        flat = _spread(rng, (2,) + p.shape)
        dots = supports.dots(p[on], flat[0][on], flat[1][on])
        means = supports.means(flat[0][on])
        for i, row in enumerate(p):
            idx = np.flatnonzero(row)
            for j in range(2):
                assert _same_bits(dots[j, i], row[idx] @ flat[j, i, idx]), (i, j)
            assert _same_bits(means[i], flat[0, i, idx].mean()), i


def test_row_vjps_have_the_bits_of_the_one_row_call():
    # Every row of the row vjps, signed zeros included, equals the 1-d
    # call on that row and the per-row formula: support sizes 1 to 40,
    # mixed in one batch for sparsemax, and row lengths 1 to 40 for
    # softmax.
    rng = make_rng(39)
    for _ in range(3):
        p = _mixed_support_rows(rng)
        u = _spread(rng, p.shape)
        got = sparsemax_vjp_rows(RowSupports.of(p), u)
        for row, p_row, u_row in zip(got, p, u):
            idx = np.flatnonzero(p_row)
            dist = SparseDistribution(idx, p_row[idx], 0.0, p_row.size)
            expected = np.zeros(p_row.size)
            expected[idx] = u_row[idx] - u_row[idx].mean()
            assert _same_bits(row, expected), idx.size
            assert _same_bits(row, sparsemax_vjp(np.zeros(p_row.size), dist, u_row)), idx.size
    for K in _SIZES:
        p = softmax(3.0 * rng.normal(size=(int(rng.integers(1, 17)), K)))
        u = _spread(rng, p.shape)
        got = softmax_vjp(p, u)
        for row, p_row, u_row in zip(got, p, u):
            assert _same_bits(row, p_row * (u_row - p_row @ u_row)), K
            assert _same_bits(row, softmax_vjp(p_row, u_row)), K


def test_softmax_vjp_works_row_by_row():
    # The vjp once took p @ u as a matrix product: a square batch gave
    # wrong values with no error, a non-square one failed inside numpy.
    rng = make_rng(1)
    for B, K in ((4, 4), (3, 5), (1, 6)):
        s = rng.normal(size=(B, K))
        u = rng.normal(size=(B, K))
        fd = central_difference(lambda x: (u * softmax(x.reshape(B, K))).sum(), s.ravel(), 1e-6)
        np.testing.assert_allclose(softmax_vjp(softmax(s), u), fd.reshape(B, K), atol=1e-8)


def test_softmax_vjp_rejects_mismatched_shapes():
    bad = [(np.full(3, 1 / 3), np.ones(4)), (np.full((2, 3), 1 / 3), np.ones(3)),
           (np.full((2, 3), 1 / 3), np.ones((3, 2))), (np.full((1, 1, 2), 0.5), np.ones((1, 1, 2)))]
    for p, u in bad:
        with pytest.raises(ValueError, match="one shape"):
            softmax_vjp(p, u)


def test_sparsemax_vjp_rows_rejects_an_upstream_of_another_shape():
    supports = RowSupports.of(sparsemax_rows(np.array([[1.0, 0.5, -0.2], [0.0, 0.0, 0.0]])))
    for upstream in (np.ones((2, 2)), np.ones((1, 3)), np.ones(3), np.ones((2, 4))):
        with pytest.raises(ValueError, match="shape of the supports"):
            sparsemax_vjp_rows(supports, upstream)
