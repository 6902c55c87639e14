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
from .simplex import softmax, sparsemax, sparsemax_vjp
from .activeset import sparsemap
from .topk import top_k, topk_sparsemax, topk_sparsemax_vjp

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
        return self.trials - self.passes <= self.allowed_miss_rate * self.trials


def _result(name, errors, tol, allowed_miss_rate: float = 0.0) -> PropertyResult:
    errors = np.asarray(errors, dtype=np.float64)
    return PropertyResult(
        name, errors.size, int((errors <= tol).sum()), float(errors.max()), allowed_miss_rate
    )


def _random_scores(rng, size, scale) -> np.ndarray:
    return scale * rng.normal(size=size)


def check_simplex(trials: int, seed: int) -> list:
    rng = make_rng(seed)
    vs_brute, shift, vjp_err = [], [], []
    for _ in range(trials):
        k = int(rng.integers(2, 11))
        s = _random_scores(rng, k, float(rng.choice([0.1, 1.0, 10.0])))
        p = sparsemax(s)
        dense = p.densify()
        vs_brute.append(np.abs(dense - sparsemax_bruteforce(s)).max())
        shift.append(np.abs(sparsemax(s + rng.normal()).densify() - dense).max())

        u = rng.normal(size=k)
        g = sparsemax_vjp(s, p, u)
        fd = central_difference(lambda x: u @ sparsemax(x).densify(), s, 1e-6)
        if sparsemax(s + 1e-4 * rng.normal(size=k)).support_size == p.support_size:
            vjp_err.append(np.abs(g - fd).max())
    return [
        _result("sparsemax vs exhaustive support", vs_brute, 1e-10),
        _result("shift invariance", shift, 1e-10),
        _result("vjp vs central differences", vjp_err, 1e-5),
    ]


def check_topk(trials: int, seed: int) -> list:
    rng = make_rng(seed)
    cert_eq, vs_brute, size_ok, vjp_off = [], [], [], []
    for _ in range(trials):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        s = _random_scores(rng, n, float(rng.choice([0.5, 2.0])))
        res, cert = topk_sparsemax(s, k)
        vs_brute.append(np.abs(res.densify() - topk_sparsemax_bruteforce(s, k)).max())
        size_ok.append(0.0 if res.support_size <= k else 1.0)
        if cert:
            cert_eq.append(np.abs(res.densify() - sparsemax(s).densify()).max())
        u = rng.normal(size=n)
        g = topk_sparsemax_vjp(s, k, res, u)
        off = np.setdiff1d(np.arange(n), res.indices)
        vjp_off.append(np.abs(g[off]).max() if off.size else 0.0)
    return [
        _result("matches masked enumeration", vs_brute, 1e-10),
        _result("certificate implies sparsemax", cert_eq, 1e-12),
        _result("support never exceeds k", size_ok, 0.0),
        _result("vjp zero off support", vjp_off, 0.0),
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
    rng = make_rng(seed)
    expect_eq, call_eq, split_cover, full_exact = [], [], [], []
    for i in range(trials):
        k = int(rng.integers(3, 12))
        dist = sparsemax(_random_scores(rng, k, 2.0))
        table = rng.normal(size=k)
        oracle = LossOracle(lambda z: table[z])
        expected = sparse_expectation(dist, oracle)
        expect_eq.append(abs(expected - dist.densify() @ table))
        call_eq.append(0.0 if oracle.calls == dist.support_size else 1.0)

        logs = rng.normal(size=k)
        from scipy.special import logsumexp

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
    return sum(p[z] * _sfe_term(p, z, table[z], baseline) for z in range(s.size))


def _enumerate_sas(s, table, k):
    p = softmax(s)
    kept = top_k(s, k).indices
    comp = np.setdiff1d(np.arange(s.size), kept)
    comp_mass = p[comp].sum()
    base = _sas_term(p, kept, table[kept], 0.0, -1, 0.0)
    if comp_mass <= 1e-14:
        return base
    cond = p[comp] / comp_mass
    return base + sum(w * (_sas_term(p, kept, table[kept], comp_mass, int(z), table[z]) - base)
                      for z, w in zip(comp, cond))


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
