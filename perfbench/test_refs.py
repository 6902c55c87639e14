"""Tests of the benchmark's own reference routes and output checks.

The references are compared with ``sparsemarg.reference`` brute force at
sizes small enough to enumerate, and each workload's check must pass on
the program's real output and fail once that output is perturbed.
"""

import dataclasses

import numpy as np
import pytest
from sparsemarg import reference

import refs
import workloads as W


@pytest.mark.parametrize("d", range(1, 7))
def test_budget_projection_is_the_projection(d):
    # x is the projection of t onto P iff x is in P and no vertex v of P
    # has (t - x) . v > (t - x) . x; the vertices are the bit-vectors with
    # at most `budget` ones, the set budget_bruteforce searches.
    rng = np.random.default_rng(d)
    binding = 0
    for budget in range(1, d + 1):
        for _ in range(20):
            t = rng.normal(0.5, 1.0, size=d)
            x = refs.budget_projection(t, budget)
            assert np.all(x >= 0.0) and np.all(x <= 1.0) and x.sum() <= budget + 1e-9
            r = t - x
            vertex = np.array(reference.budget_bruteforce(r, budget), dtype=np.float64)
            assert r @ vertex <= r @ x + 1e-9
            if np.clip(t, 0.0, 1.0).sum() <= budget:
                np.testing.assert_array_equal(x, reference.hypercube_projection(t))
            else:
                binding += 1
    assert binding > 0 or d == 1


@pytest.mark.parametrize("d", range(1, 11))
def test_restricted_kbest_matches_bruteforce(d):
    rng = np.random.default_rng(100 + d)
    for k in sorted({1, 2, 3, d, 2 * d, 16}):
        t = rng.normal(size=d)
        bits = np.array(reference.kbest_bruteforce(t, k), dtype=np.float64)
        np.testing.assert_allclose(refs.restricted_kbest_scores(t, k), bits @ t,
                                   rtol=0.0, atol=1e-12)


SMALL = {
    "categorical_sparse": dict(n=32, size=4, width=8, epochs=3),
    "categorical_dense": dict(n=16, size=4, width=8, epochs=1),
    "bitvec_sparsemap": dict(n=8, size=6, width=12, epochs=1, budget=2),
    "bitvec_topk": dict(n=8, size=12, width=12, epochs=1, k=4),
}


def _small_runs(name, seed=3):
    wl = dataclasses.replace(W.WORKLOADS[name], replicas=2, **SMALL[name])
    replicas = []
    for s in wl.seeds(seed):
        data = W.make_data(wl, s)
        runs = {}
        for method in wl.methods:
            model = W.make_model(wl, s)
            runs[method] = (model, W.train(wl, model, data, W.config(wl, method, s)))
        replicas.append((s, data, runs))
    return wl, replicas, [(0, 0), (1, 1), (0, 2)]


def _perturb(name, monkeypatch):
    """Make the program's output wrong in a way the check must catch."""
    import sparsemarg
    from sparsemarg import toys

    if name == "categorical_sparse":
        label_loss = toys.ToyCategoricalModel.label_loss
        monkeypatch.setattr(toys.ToyCategoricalModel, "label_loss",
                            lambda self, z, y: label_loss(self, z, y) + 1e-6)
    elif name == "categorical_dense":
        softmax = toys.softmax
        monkeypatch.setattr(toys, "softmax", lambda s: softmax(s * (1.0 + 1e-4)))
    elif name == "bitvec_sparsemap":
        sparsemap = sparsemarg.sparsemap
        monkeypatch.setattr(sparsemarg, "sparsemap", lambda poly, t: dataclasses.replace(
            sparsemap(poly, t), moments=sparsemap(poly, t).moments + 1e-5))
    else:
        kbest = sparsemarg.kbest
        # Skips the (k-1)-th best configuration.
        monkeypatch.setattr(sparsemarg, "kbest",
                            lambda t, k: kbest(t, k + 1)[: k - 1] + kbest(t, k + 1)[k:])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_program_output(name):
    refs.CHECKS[name](*_small_runs(name))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_fail_on_perturbed_output(name, monkeypatch):
    args = _small_runs(name)
    _perturb(name, monkeypatch)
    with pytest.raises(refs.CheckFailed):
        refs.CHECKS[name](*args)
