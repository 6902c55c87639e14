"""Randomized property suites behind the ``check`` CLI command.

Each suite replays a module's core contracts against an independent
reference (brute force, finite differences, or a closed form) over
seeded random trials and reports per-property pass counts and the worst
error seen.  The suites are intentionally cheap per trial so the trial
count can be cranked up from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitvec import (
    BitVectorPolytope,
    IdentityPolytope,
    budget_map_oracle,
    enumerate_all,
    kbest,
    map_oracle,
)
from .estimators import (
    MovingAverageBaseline,
    _sas_term,
    _sfe_term,
    dense_grad,
    sfe_grad,
    sum_and_sample_grad,
)
from .marginalize import LossOracle, log_marginal_split, sparse_expectation
from .reference import (
    budget_bruteforce,
    central_difference,
    hypercube_projection,
    kbest_bruteforce,
    sparsemax_bruteforce,
    topk_sparsemax_bruteforce,
)
from .rng import make_rng
from .simplex import RowSupports, softmax, sparsemax, sparsemax_rows, sparsemax_vjp
from .simplex import sparsemax_vjp_rows
from .activeset import sparsemap
from .topk import top_k, topk_sparsemax, topk_sparsemax_rows, topk_sparsemax_vjp

__all__ = ["PropertyResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    passes: int
    worst_error: float
    # Statistical properties (interval coverage) tolerate this miss rate.
    allowed_miss_rate: float = 0.0

    @property
    def ok(self) -> bool:
        """Passed: run at least once, and missed no more often than allowed."""
        return self.trials > 0 and self.trials - self.passes <= self.allowed_miss_rate * self.trials


def _result(name, errors, tol, allowed_miss_rate: float = 0.0) -> PropertyResult:
    """The result of one error per trial; a property with no trial has a
    NaN worst error and fails."""
    errors = np.asarray(errors, dtype=np.float64)
    return PropertyResult(name, errors.size, int((errors <= tol).sum()),
                          float(errors.max()) if errors.size else np.nan,
                          allowed_miss_rate)


def _random_scores(rng, size, scale) -> np.ndarray:
    return scale * rng.normal(size=size)


def _score_batch(rng, k_low, k_high, scales) -> np.ndarray:
    """A (B, K) batch of 1 to 4 random rows, each at its own scale so that
    support sizes mix, and each in quarter-step ties with probability 0.3,
    then one interior row: the ranks of the first row's scores times
    0.4 / K^2.  Its scores are distinct and spread less than 1 / K, so
    every outcome keeps probability above 0.6 / K in sparsemax, or in the
    sparsemax of any top-k set, and no central-difference probe moves its
    support or its top-k set: each vjp property has a row to check."""
    s = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(k_low, k_high))))
    s *= rng.choice(scales, size=(len(s), 1))
    ties = rng.random(len(s)) < 0.3
    s[ties] = np.round(4.0 * s[ties]) / 4.0
    ranks = np.argsort(np.argsort(s[0], kind="stable"), kind="stable")
    return np.vstack([s, ranks * (0.4 / s.shape[1] ** 2)])


def _vjp_errors(forward, s, u, vjps) -> list:
    """Each row's largest gap between each of ``vjps`` and central differences
    of sum(u * forward(s)), on rows whose support no probe moves."""
    base, moved = forward(s) > 0, np.zeros(len(s), dtype=bool)

    def f(x):
        p = forward(x.reshape(s.shape))
        moved[:] |= ((p > 0) != base).any(axis=1)
        return float((u * p).sum())

    fd = central_difference(f, s.ravel(), 1e-6).reshape(s.shape)
    return [err for g in vjps for err in np.abs(g - fd).max(axis=1)[~moved]]


def check_simplex(trials: int, seed: int) -> list:
    """The row kernels on every row of a small batch, and the 1-d API on each row alone."""
    rng = make_rng(seed)
    vs_brute, shift, vjp_err = [], [], []
    for _ in range(trials):
        s = _score_batch(rng, 2, 11, [0.1, 1.0, 10.0])
        p = sparsemax_rows(s)
        dists = [sparsemax(row) for row in s]
        vs_brute += [max(np.abs(q - sparsemax_bruteforce(row)).max() for q in (p_row, d.densify()))
                     for row, p_row, d in zip(s, p, dists)]
        shift.append(np.abs(sparsemax_rows(s + rng.normal(size=(len(s), 1))) - p).max())
        u = rng.normal(size=s.shape)
        one_row = np.array([sparsemax_vjp(row, dist, v) for row, dist, v in zip(s, dists, u)])
        vjp_err += _vjp_errors(sparsemax_rows, s, u,
                               [sparsemax_vjp_rows(RowSupports.of(p), u), one_row])
    return [
        _result("sparsemax vs exhaustive support", vs_brute, 1e-10),
        _result("shift invariance", shift, 1e-10),
        _result("vjp vs central differences", vjp_err, 1e-5),
    ]


def check_topk(trials: int, seed: int) -> list:
    """As :func:`check_simplex`.  Ties at the k-th score leave several
    projections equally close, so the enumeration is matched by distance.
    Each trial also projects its first row at k one past its sparsemax
    support, where the certificate must hold (an error of inf if not)."""
    rng = make_rng(seed)
    cert_eq, vs_brute, size_ok, vjp_off, vjp_err = [], [], [], [], []
    for _ in range(trials):
        s = _score_batch(rng, 3, 13, [0.5, 2.0])
        k = int(rng.integers(1, s.shape[1] + 1))
        p, certs = topk_sparsemax_rows(s, k)
        u = rng.normal(size=s.shape)
        one_row = []
        for row, p_row, cert, v in zip(s, p, certs, u):
            dist, one_cert = topk_sparsemax(row, k)
            gap = ((topk_sparsemax_bruteforce(row, k) - row) ** 2).sum()
            vs_brute.append(max(abs(((q - row) ** 2).sum() - gap) + abs(q.sum() - 1.0)
                                for q in (p_row, dist.densify())))
            size_ok.append(0.0 if max(dist.support_size, (p_row > 0).sum()) <= k
                           and cert == one_cert else 1.0)
            if cert:
                cert_eq.append(np.abs(p_row - sparsemax(row).densify()).max())
            one_row.append(topk_sparsemax_vjp(row, k, dist, v))
        free = sparsemax(s[0])
        capped, cert = topk_sparsemax(s[0], free.support_size + 1)
        cert_eq.append(np.abs(capped.densify() - free.densify()).max() if cert else np.inf)
        vjps = [sparsemax_vjp_rows(RowSupports.of(p), u), np.array(one_row)]
        vjp_off.append(max(np.abs(g[p == 0]).max(initial=0.0) for g in vjps))
        vjp_err += _vjp_errors(lambda x: topk_sparsemax_rows(x, k)[0], s, u, vjps)
    return [
        _result("matches masked enumeration", vs_brute, 1e-10),
        _result("certificate implies sparsemax", cert_eq, 1e-12),
        _result("support never exceeds k", size_ok, 0.0),
        _result("vjp zero off support", vjp_off, 0.0),
        _result("vjp vs central differences", vjp_err, 1e-5),
    ]


def check_bitvec(trials: int, seed: int) -> list:
    rng = make_rng(seed)
    map_best, budget_eq, kbest_eq, order_ok = [], [], [], []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        t = _random_scores(rng, d, 1.0)
        if rng.random() < 0.3:
            t[rng.random(d) < 0.4] = 0.0

        best = max(enumerate_all(t), key=lambda st: st.score)
        map_best.append(abs(map_oracle(t).score - best.score))

        b = int(rng.integers(1, d + 1))
        got = budget_map_oracle(t, b)
        budget_eq.append(0.0 if got.bits == budget_bruteforce(t, b) else 1.0)

        k = int(rng.integers(1, 2 ** d + 1))
        ours = [st.bits for st in kbest(t, k)]
        ref = kbest_bruteforce(t, k)
        kbest_eq.append(0.0 if ours == ref else 1.0)
        scores = [st.score for st in kbest(t, k)]
        order_ok.append(0.0 if all(a >= b_ - 1e-12 for a, b_ in zip(scores, scores[1:])) else 1.0)
    return [
        _result("map oracle maximizes score", map_best, 1e-12),
        _result("budget oracle vs brute force", budget_eq, 0.0),
        _result("kbest vs sorted enumeration", kbest_eq, 0.0),
        _result("kbest scores non-increasing", order_ok, 0.0),
    ]


def check_sparsemap(trials: int, seed: int) -> list:
    rng = make_rng(seed)
    vs_sparsemax, vs_clip, supp_ok, dual_ok = [], [], [], []
    for _ in range(trials):
        k = int(rng.integers(2, 11))
        s = _random_scores(rng, k, float(rng.choice([0.5, 2.0])))
        res = sparsemap(IdentityPolytope(k), s)
        vs_sparsemax.append(np.abs(res.moments - sparsemax(s).densify()).max())

        d = int(rng.integers(2, 9))
        t = _random_scores(rng, d, 1.5)
        res = sparsemap(BitVectorPolytope(d), t)
        vs_clip.append(np.abs(res.moments - hypercube_projection(t)).max())
        supp_ok.append(0.0 if len(res.structures) <= d + 1 else 1.0)
        dual_ok.append(max(0.0, -res.nu_min))
    return [
        _result("identity polytope equals sparsemax", vs_sparsemax, 1e-8),
        _result("hypercube moments equal clipping", vs_clip, 1e-6),
        _result("support at most dim + 1", supp_ok, 0.0),
        _result("oracle certifies optimality", dual_ok, 1e-9),
    ]


def check_marginal(trials: int, seed: int) -> list:
    """Each trial builds two sparsemax distributions over k outcomes: one
    of full support (scores spread less than 1 / k), where the split
    estimator is exact, and one with an outcome 2 below the top score,
    out of its support, where the split estimator samples."""
    from scipy.special import logsumexp

    rng = make_rng(seed)
    expect_eq, call_eq, split_cover, full_exact = [], [], [], []
    for i in range(trials):
        k = int(rng.integers(3, 12))
        full = rng.uniform(-0.2, 0.2, size=k) / k
        split = _random_scores(rng, k, 2.0)
        top = int(split.argmax())
        split[(top + int(rng.integers(1, k))) % k] = split[top] - 2.0
        for scores in (full, split):
            dist = sparsemax(scores)
            table = rng.normal(size=k)
            oracle = LossOracle(lambda z: table[z])
            expected = sparse_expectation(dist, oracle)
            expect_eq.append(abs(expected - dist.densify() @ table))
            call_eq.append(0.0 if oracle.calls == dist.support_size else 1.0)

            logs = rng.normal(size=k)
            exact = logsumexp(logs)
            est, err = log_marginal_split(dist, LossOracle(lambda z: logs[z]), 64, seed + i)
            if dist.support_size == k:
                full_exact.append(abs(est - exact))
            else:
                split_cover.append(0.0 if abs(est - exact) <= 4.0 * err + 1e-12 else 1.0)
    return [
        _result("support expectation is exact", expect_eq, 1e-12),
        _result("calls equal support size", call_eq, 0.0),
        _result("split covers truth at 4 stderr", split_cover, 0.0, allowed_miss_rate=0.02),
        _result("full support is exact", full_exact, 1e-12),
    ]


def _enumerate_sfe(s, table, baseline):
    p = softmax(s)
    K = s.size
    terms = _sfe_term(np.tile(p, (K, 1)), np.arange(K), table, np.full(K, baseline))
    return sum(p[z] * terms[z] for z in range(K))


def _enumerate_sas(s, table, k):
    """Every complement draw as one row of the estimator's term, plus a
    last row that draws nothing, averaged by the draw probabilities."""
    p = softmax(s)
    kept = top_k(s, k).indices
    comp = np.setdiff1d(np.arange(s.size), kept)
    comp_mass = p[comp].sum()
    n = comp.size + 1
    terms = _sas_term(np.tile(p, (n, 1)), np.tile(kept, (n, 1)), np.tile(table[kept], (n, 1)),
                      np.full(n, comp_mass), np.append(comp, -1), np.append(table[comp], 0.0))
    base = terms[-1]
    if comp_mass <= 1e-14:
        return base
    cond = p[comp] / comp_mass
    return base + sum(w * (term - base) for term, w in zip(terms[:-1], cond))


def check_estimators(trials: int, seed: int) -> list:
    rng = make_rng(seed)
    sfe_bias, sas_bias, sas_calls, sfe_sampled = [], [], [], []
    for i in range(trials):
        k = int(rng.integers(3, 9))
        s = _random_scores(rng, k, 1.0)
        table = rng.normal(size=k)
        exact = dense_grad(s, LossOracle(lambda z: table[z]))

        baseline = float(rng.normal())
        sfe_bias.append(np.abs(_enumerate_sfe(s, table, baseline) - exact).max())

        m = int(rng.integers(1, k))
        sas_bias.append(np.abs(_enumerate_sas(s, table, m) - exact).max())

        oracle = LossOracle(lambda z: table[z])
        sum_and_sample_grad(s, oracle, m, make_rng(seed + i))
        sas_calls.append(0.0 if oracle.calls <= m + 1 else 1.0)

        est, _ = sfe_grad(s, LossOracle(lambda z: table[z]), MovingAverageBaseline(baseline),
                          make_rng(seed + i))
        sfe_sampled.append(0.0 if np.all(np.isfinite(est.grad)) else 1.0)
    return [
        _result("sfe unbiased by enumeration", sfe_bias, 1e-10),
        _result("sum-and-sample unbiased by enumeration", sas_bias, 1e-10),
        _result("sum-and-sample uses at most k+1 calls", sas_calls, 0.0),
        _result("sfe sample is finite", sfe_sampled, 0.0),
    ]


SUITES = {
    "simplex": check_simplex,
    "topk": check_topk,
    "bitvec": check_bitvec,
    "sparsemap": check_sparsemap,
    "marginal": check_marginal,
    "estimators": check_estimators,
}


def run_suite(name: str, trials: int, seed: int) -> list:
    if name not in SUITES:
        raise KeyError("unknown suite: %s" % name)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return SUITES[name](trials, seed)
