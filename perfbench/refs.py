"""Checks of each workload's outputs against computations made apart from
the training code.

Every check recomputes what it needs from the model's parameters with
plain numpy and scipy, or with ``sparsemarg.reference`` brute force, and
raises :class:`CheckFailed` on the first mismatch.  Nothing compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.special import logsumexp
from scipy.special import softmax as softmax_ref

import sparsemarg
from sparsemarg import reference

import workloads as W

# Probabilities at or below this are treated as outside a brute-force support.
SUPPORT_EPS = 1e-12
# Central differences of the piecewise-linear SparseMAP probabilities.
FD_STEP = 1e-5
GRAD_TOL = 1e-3  # model_grad_check relative error
VJP_TOL = 1e-6
MOMENT_TOL = 1e-6


class CheckFailed(AssertionError):
    pass


def require(ok, message: str, *args):
    if not ok:
        raise CheckFailed(message % args if args else message)


def close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= tol * scale


# ---------------------------------------------------------------- references


def budget_projection(t, budget: int, iters: int = 200) -> np.ndarray:
    """Projection of ``t`` onto {x in [0, 1]^D : sum(x) <= budget}.

    The KKT conditions give x = clip(t - lam, 0, 1) with lam >= 0, and
    lam > 0 only when the budget binds; sum(clip(t - lam, 0, 1)) is
    non-increasing in lam, so bisection finds it.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.clip(t, 0.0, 1.0).sum() <= budget:
        return np.clip(t, 0.0, 1.0)
    lo, hi = 0.0, float(t.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(t - mid, 0.0, 1.0).sum() > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(t - 0.5 * (lo + hi), 0.0, 1.0)


def restricted_kbest_scores(t, k: int) -> np.ndarray:
    """Scores of the k best bit-vectors, best first, by enumerating flips
    of the k smallest-|t| variables away from the sign configuration.

    A configuration that flips any other variable j costs at least |t_j|,
    while the sign configuration and the single flips of the k - 1
    smallest variables are k configurations that each cost at most |t_j|;
    so the k best always lie among the 2^k enumerated ones.
    """
    t = np.asarray(t, dtype=np.float64)
    m = min(k, t.size)
    cost = np.sort(np.abs(t))[:m]
    masks = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    scores = t[t >= 0].sum() - masks @ cost
    return np.sort(scores)[::-1][:k]


def recon_loss(model, bits, x) -> float:
    """Bernoulli reconstruction loss of ``x`` from ``bits``, recomputed."""
    out = model.dec_w @ bits + model.dec_b
    return float(np.logaddexp(0.0, out).sum() - x @ out)


# ------------------------------------------------------------------ helpers


def _single_example_log(wl, model, data, i: int, method: str, seed: int):
    """Train on example ``i`` alone for one epoch at lr 0: the log then
    reports that example's loss calls, support and certificate."""
    cfg = W.config(wl, method, seed, epochs=1, lr=0.0, batch_size=1)
    log = W.train(wl, copy.deepcopy(model), W.subset(wl, data, slice(i, i + 1)), cfg)
    require(not log.diverged and len(log.rows) == 1, "single-example run of %s failed", method)
    return log


def _categorical_reference(model, x, y: int, mapping):
    """Probabilities over all K messages and the expected decoder loss."""
    p = mapping(model.enc_w @ x + model.enc_b)
    losses = logsumexp(model.dec_w, axis=1) - model.dec_w[:, y]
    return p, float(p @ losses)


# ------------------------------------------------------------ workload checks
#
# Each check takes the workload, the replicas as (seed, data, runs) with
# runs mapping a method to its trained (model, log), and a sample of
# (replica, example) pairs to check one by one.


def check_categorical_sparse(wl, replicas, sample):
    for _, _, runs in replicas:
        log = runs["sparse"][1]
        require(log.rows[-1].loss < log.initial_loss,
                "final training loss %.6g is not below the initial %.6g",
                log.rows[-1].loss, log.initial_loss)
    for j, (r, i) in enumerate(sample):
        seed, data, runs = replicas[r]
        model = runs["sparse"][0]
        x, y = data.features[i], int(data.labels[i])
        p, expected = _categorical_reference(model, x, y, reference.sparsemax_bruteforce)
        support = tuple(int(z) for z in np.nonzero(p > SUPPORT_EPS)[0])
        objective, _, signature = model.objective_with_grad(
            (x, y), sparsemarg.toys.TrainConfig(method="sparse", entropy_coef=0.0))
        require(close(objective, expected, 1e-9),
                "example %d: expected loss %.12g, brute force over K gives %.12g",
                i, objective, expected)
        require(signature == support, "example %d: support %s, brute force %s",
                i, signature, support)
        single = _single_example_log(wl, model, data, i, "sparse", seed)
        require(close(single.initial_loss, expected, 1e-9),
                "example %d: training loss %.12g, brute force %.12g",
                i, single.initial_loss, expected)
        calls = single.rows[0].calls.mean
        require(calls == len(support) == single.rows[0].support_mean,
                "example %d: %g loss calls for support %d", i, calls, len(support))
        if j < 2:
            report = sparsemarg.toys.model_grad_check(
                model, W.config(wl, "sparse", seed), (x, y))
            require(report.max_rel_err <= GRAD_TOL,
                    "example %d: gradient off central differences by %.3g", i, report.max_rel_err)


def check_categorical_dense(wl, replicas, sample):
    K, k = wl.size, wl.k
    expected_calls = {"dense": (K, K), "sfe": (1, 1), "sum_and_sample": (k, k + 1)}
    for _, _, runs in replicas:
        for method, (lo, hi) in expected_calls.items():
            for row in runs[method][1].rows:
                require(lo <= row.calls.p10 and row.calls.p90 <= hi
                        and lo <= row.calls.mean <= hi,
                        "%s epoch %d: calls outside [%d, %d]", method, row.epoch, lo, hi)
    for r, i in sample:
        seed, data, runs = replicas[r]
        x, y = data.features[i], int(data.labels[i])
        model = runs["dense"][0]
        _, expected = _categorical_reference(model, x, y, softmax_ref)
        single = _single_example_log(wl, model, data, i, "dense", seed)
        require(close(single.initial_loss, expected, 1e-9),
                "example %d: dense expectation %.12g, softmax sum over K gives %.12g",
                i, single.initial_loss, expected)
        for method, (lo, hi) in expected_calls.items():
            log = _single_example_log(wl, runs[method][0], data, i, method, seed)
            calls = log.rows[0].calls.mean
            require(calls in (lo, hi), "example %d: %s made %g loss calls", i, method, calls)


def _sparsemap_fd_check(model, polytope, x, t, res):
    """The probability vjp against central differences of
    sum_z p_z(t) c_z, skipping coordinates whose step changes the support."""
    rows = [np.asarray(s.bits, dtype=np.float64) for s in res.structures]
    costs = np.array([recon_loss(model, b, x) for b in rows])
    grad = sparsemarg.sparsemap_vjp_probs(res, costs)
    base = {s.bits for s in res.structures}
    fd = np.full(t.size, np.nan)
    for j in range(t.size):
        sides = []
        for sign in (1.0, -1.0):
            bumped = t.copy()
            bumped[j] += sign * FD_STEP
            r = sparsemarg.sparsemap(polytope, bumped)
            if {s.bits for s in r.structures} != base:
                break
            sides.append(sum(p * recon_loss(model, np.asarray(s.bits, dtype=np.float64), x)
                             for p, s in zip(r.probs, r.structures)))
        if len(sides) == 2:
            fd[j] = (sides[0] - sides[1]) / (2.0 * FD_STEP)
    stable = np.isfinite(fd)
    require(stable.any(), "no coordinate keeps the SparseMAP support under a %g step", FD_STEP)
    require(close(grad[stable], fd[stable], VJP_TOL),
            "SparseMAP vjp off central differences by %.3g",
            float(np.abs(grad[stable] - fd[stable]).max()))


def check_bitvec_sparsemap(wl, replicas, sample):
    D = wl.size
    polytopes = {
        "sparsemap": (sparsemarg.BitVectorPolytope(D), reference.hypercube_projection),
        "sparsemap_budget": (sparsemarg.BudgetedBitVectorPolytope(D, wl.budget),
                             lambda t: budget_projection(t, wl.budget)),
    }
    for j, (r, i) in enumerate(sample):
        seed, data, runs = replicas[r]
        x = data.images[i]
        for method, (polytope, project) in polytopes.items():
            model = runs[method][0]
            t = model.enc_w @ x + model.enc_b
            res = sparsemarg.sparsemap(polytope, t)
            require(res.converged, "%s example %d: solve did not converge", method, i)
            require(np.all(res.probs > 0) and abs(res.probs.sum() - 1.0) <= 1e-9,
                    "%s example %d: probabilities not a distribution", method, i)
            require(res.support_size <= D + 1, "%s example %d: support %d exceeds D + 1",
                    method, i, res.support_size)
            bits = np.array([s.bits for s in res.structures], dtype=np.float64)
            mu = project(t)
            require(close(res.moments, mu, MOMENT_TOL) and close(bits.T @ res.probs, mu, MOMENT_TOL),
                    "%s example %d: moments off the analytic projection by %.3g",
                    method, i, float(np.abs(res.moments - mu).max()))
            single = _single_example_log(wl, model, data, i, method, seed)
            require(single.rows[0].calls.mean == res.support_size,
                    "%s example %d: %g loss calls for support %d",
                    method, i, single.rows[0].calls.mean, res.support_size)
            if j < 2:
                _sparsemap_fd_check(model, polytope, x, t, res)


def check_bitvec_topk(wl, replicas, sample):
    k = wl.k
    for _, _, runs in replicas:
        for row in runs["topk"][1].rows:
            require((row.cert_frac == 1.0) == (row.support_max < k),
                    "epoch %d: certificate rate %g with largest support %d",
                    row.epoch, row.cert_frac, row.support_max)
    for r, i in sample:
        seed, data, runs = replicas[r]
        model = runs["topk"][0]
        x = data.images[i]
        t = model.enc_w @ x + model.enc_b
        structs = sparsemarg.kbest(t, k)
        scores = np.array([s.score for s in structs])
        distinct = len({s.bits for s in structs})
        require(distinct == len(structs) == k,
                "example %d: kbest returned %d distinct of %d", i, distinct, k)
        require(close(scores, [np.dot(s.bits, t) for s in structs], 1e-12),
                "example %d: kbest scores disagree with their bits", i)
        truth = restricted_kbest_scores(t, k)
        require(close(scores, truth, 1e-9),
                "example %d: kbest scores off the restricted enumeration by %.3g",
                i, float(np.abs(scores - truth).max()))
        support = int((reference.sparsemax_bruteforce(truth) > SUPPORT_EPS).sum())
        row = _single_example_log(wl, model, data, i, "topk", seed).rows[0]
        require(row.calls.mean == row.support_mean == support,
                "example %d: %g loss calls, support %g, brute force support %d",
                i, row.calls.mean, row.support_mean, support)
        require(row.cert_frac == float(support < k),
                "example %d: certificate %g with support %d of k = %d",
                i, row.cert_frac, support, k)


CHECKS = {
    "categorical_sparse": check_categorical_sparse,
    "categorical_dense": check_categorical_dense,
    "bitvec_sparsemap": check_bitvec_sparsemap,
    "bitvec_topk": check_bitvec_topk,
}
