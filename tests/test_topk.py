"""Top-k masking, the sparsemax composition, and its certificate."""

import numpy as np
import pytest

from sparsemarg.reference import central_difference, topk_sparsemax_bruteforce
from sparsemarg.rng import make_rng
from sparsemarg.simplex import sparsemax, sparsemax_vjp
from sparsemarg.topk import top_k, topk_sparsemax, topk_sparsemax_rows, topk_sparsemax_vjp


def test_top_k_selection():
    assert top_k([3.0, 1.0, 2.0], 2).indices.tolist() == [0, 2]
    assert top_k([1.0, 1.0, 1.0], 2).indices.tolist() == [0, 1]
    assert top_k([3.0, 1.0, 2.0], 5).indices.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        top_k([1.0], 0)


def test_tie_break_stable_under_permutation():
    # The rule is positional (lowest index), so permuting and undoing the
    # permutation must reproduce the same kept set.
    rng = make_rng(0)
    s = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
    for _ in range(50):
        perm = rng.permutation(s.size)
        inv = np.argsort(perm)
        kept = top_k(s[perm], 2).indices
        assert sorted(perm[kept].tolist()) == sorted(
            perm[top_k(s[perm], 2).indices].tolist()
        )
        assert top_k(s, 2).indices.tolist() == [0, 1]
        del inv


def test_frozen_restricted_example():
    # Full sparsemax of this vector is [0.7, 0.2, 0, 0.1] (support 3), so
    # k=2 binds: the projection restricted to the top-2 set, frozen from
    # the masked exhaustive-support oracle.
    dist, cert = topk_sparsemax([1.0, 0.5, -0.2, 0.4], 2)
    np.testing.assert_allclose(dist.densify(), [0.75, 0.25, 0.0, 0.0], atol=1e-15)
    assert cert is False
    full = sparsemax([1.0, 0.5, -0.2, 0.4]).densify()
    np.testing.assert_allclose(full, [0.7, 0.2, 0.0, 0.1], atol=1e-15)


def test_certificate_true_case():
    dist, cert = topk_sparsemax([10.0, 0.0, 0.0], 2)
    np.testing.assert_allclose(dist.densify(), [1.0, 0.0, 0.0])
    assert cert is True


def test_k_of_exact_support_size_yields_no_certificate():
    # Support lands exactly on k: result coincides with sparsemax but the
    # strict inequality makes the certificate false.
    s = [1.0, 0.5]
    dist, cert = topk_sparsemax(s, 2)
    np.testing.assert_allclose(dist.densify(), sparsemax(s).densify())
    assert cert is False


def test_k_at_least_dim_equals_sparsemax():
    rng = make_rng(1)
    for _ in range(100):
        s = rng.normal(size=6)
        dist, cert = topk_sparsemax(s, 6)
        full = sparsemax(s)
        np.testing.assert_allclose(dist.densify(), full.densify(), atol=1e-15)
        assert cert == (full.support_size < 6)


def test_certificate_soundness_random():
    rng = make_rng(2)
    fired = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        s = rng.normal(size=n) * float(rng.choice([0.5, 2.0]))
        dist, cert = topk_sparsemax(s, k)
        assert dist.support_size <= k
        if cert:
            fired += 1
            np.testing.assert_allclose(
                dist.densify(), sparsemax(s).densify(), atol=1e-12
            )
    assert fired > 50


def test_matches_support_enumeration_oracle():
    rng = make_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        s = rng.normal(size=n)
        dist, _ = topk_sparsemax(s, k)
        np.testing.assert_allclose(
            dist.densify(), topk_sparsemax_bruteforce(s, k), atol=1e-10
        )


def test_vjp_constant_upstream_zero_and_masked_zero():
    s = np.array([1.0, 0.5, -0.2, 0.4])
    dist, _ = topk_sparsemax(s, 2)
    g = topk_sparsemax_vjp(s, 2, dist, np.ones(4))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)
    g = topk_sparsemax_vjp(s, 2, dist, np.array([1.0, -2.0, 4.0, 8.0]))
    assert g[2] == 0.0 and g[3] == 0.0


def test_vjp_k_at_least_dim_equals_sparsemax_vjp():
    rng = make_rng(4)
    s = rng.normal(size=5)
    dist, _ = topk_sparsemax(s, 5)
    u = rng.normal(size=5)
    np.testing.assert_allclose(
        topk_sparsemax_vjp(s, 5, dist, u), sparsemax_vjp(s, dist, u)
    )


def test_vjp_matches_finite_differences():
    rng = make_rng(5)
    checked = 0
    for _ in range(300):
        s = rng.normal(size=4)
        dist, _ = topk_sparsemax(s, 2)
        kept = top_k(s, 2).indices
        bumped = top_k(s + 1e-4, 2).indices
        stable = (
            kept.tolist() == bumped.tolist()
            and topk_sparsemax(s + 1e-4, 2)[0].support_size == dist.support_size
        )
        if not stable:
            continue
        u = rng.normal(size=4)
        fd = central_difference(lambda x: u @ topk_sparsemax(x, 2)[0].densify(), s, 1e-6)
        np.testing.assert_allclose(topk_sparsemax_vjp(s, 2, dist, u), fd, atol=1e-7)
        checked += 1
    assert checked > 100


def test_topk_sparsemax_rows_equal_the_one_row_call_and_the_composition():
    # Every row, ties included, has the bits of the 1-d call and of top_k
    # followed by sparsemax of the kept scores; the certificate is true
    # exactly when the support is below k.
    rng = make_rng(6)
    for K in (1, 2, 5, 12, 40):
        s = rng.normal(size=(6, K))
        s[0] = 0.0
        s[1] = np.round(2.0 * s[1]) / 2.0
        for k in sorted({1, 2, K // 2 + 1, K, K + 3}):
            probs, certificates = topk_sparsemax_rows(s, k)
            assert probs.shape == s.shape and certificates.shape == (6,)
            for row, p_row, certificate in zip(s, probs, certificates):
                kept = top_k(row, k)
                sub = sparsemax(kept.scores)
                expected = np.zeros(K)
                expected[kept.indices[sub.indices]] = sub.probs
                dist, one_certificate = topk_sparsemax(row, k)
                assert np.array_equal(p_row, expected), (K, k)
                assert np.array_equal(dist.densify(), expected), (K, k)
                assert dist.threshold == sub.threshold
                assert certificate == one_certificate == (sub.support_size < k)


def test_topk_sparsemax_rows_validation():
    for bad in ([1.0, 2.0], [[np.nan, 0.0]], np.zeros((2, 0))):
        with pytest.raises(ValueError):
            topk_sparsemax_rows(bad, 1)
    with pytest.raises(ValueError):
        topk_sparsemax_rows(np.zeros((2, 3)), 0)
