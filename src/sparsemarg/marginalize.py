"""Exact expectations of a downstream loss over sparse supports.

When the posterior over outcomes has small support, the expected loss,
its gradient with respect to the scores, and ELBO-style terms can all be
computed exactly by evaluating the loss only on the support.  The loss
goes behind a counting oracle so experiments can report how many
evaluations each method actually spent.  For log-marginals the support
sum is exact and the complement is estimated by uniform rejection
sampling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .activeset import SparseMapResult, sparsemap_vjp_probs
from .rng import make_rng
from .simplex import SparseDistribution, sparsemax_vjp

__all__ = [
    "LossOracle",
    "MarginalReport",
    "CallStats",
    "sparse_expectation",
    "grad_scores_through_mapping",
    "elbo_terms",
    "log_marginal_split",
    "call_curve",
]


class LossOracle:
    """Wraps a scalar loss function and counts its evaluations.

    ``fn`` maps an outcome id (or structure) to a float.  The counter is
    guarded by a lock, so an oracle shared between threads still counts
    every evaluation; it only ever increases.
    """

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._lock = threading.Lock()

    def eval(self, z) -> float:
        with self._lock:
            self.calls += 1
        return float(self.fn(z))


@dataclass(frozen=True)
class MarginalReport:
    expected_loss: float
    grad_wrt_scores: np.ndarray | None
    calls_used: int
    support_size: int


@dataclass(frozen=True)
class CallStats:
    mean: float
    p10: float
    median: float
    p90: float

    @classmethod
    def from_counts(cls, counts) -> "CallStats":
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            raise ValueError("no call counts given")
        return cls(
            mean=float(counts.mean()),
            p10=float(np.percentile(counts, 10)),
            median=float(np.percentile(counts, 50)),
            p90=float(np.percentile(counts, 90)),
        )


def sparse_expectation(dist: SparseDistribution, loss: LossOracle) -> MarginalReport:
    """Exact expected loss over the support of ``dist``.

    Evaluates the loss exactly once per supported outcome, so the call
    count equals the support size.
    """
    outcomes = [int(i) for i in dist.indices]
    values = [loss.eval(z) for z in outcomes]
    expected = float(dist.probs @ np.asarray(values))
    return MarginalReport(expected, None, len(outcomes), dist.support_size)


def grad_scores_through_mapping(scores, mapping_result, losses_on_support) -> np.ndarray:
    """Gradient of sum_z p_z loss_z with respect to the scores.

    ``mapping_result`` picks the backward rule: a SparseDistribution from
    sparsemax or top-k sparsemax (losses aligned with ``.indices``), or a
    SparseMapResult (losses aligned with ``.structures``).  Off-support
    outcomes never contribute, so only support losses are needed.
    """
    losses = np.asarray(losses_on_support, dtype=np.float64)
    if isinstance(mapping_result, SparseMapResult):
        return sparsemap_vjp_probs(mapping_result, losses)
    if isinstance(mapping_result, SparseDistribution):
        if losses.shape != mapping_result.indices.shape:
            raise ValueError("losses must align with the support")
        upstream = np.zeros(mapping_result.dim)
        upstream[mapping_result.indices] = losses
        return sparsemax_vjp(scores, mapping_result, upstream)
    raise TypeError("unsupported mapping result: %r" % type(mapping_result).__name__)


def elbo_terms(dist: SparseDistribution, loss: LossOracle, prior=None):
    """Expected reconstruction term and KL(dist || prior), support-only.

    ``prior=None`` means uniform over ``dist.dim`` outcomes, for which
    the KL reduces to log(dim) minus the entropy of ``dist``.  An
    explicit prior is a dense probability vector.
    """
    report = sparse_expectation(dist, loss)
    q = dist.probs
    if prior is None:
        kl = float(np.log(dist.dim) + (q * np.log(q)).sum())
    else:
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (dist.dim,):
            raise ValueError("prior must be a dense vector over all outcomes")
        pz = prior[dist.indices]
        if np.any(pz <= 0):
            raise ValueError("prior must be positive on the support")
        kl = float((q * (np.log(q) - np.log(pz))).sum())
    return report.expected_loss, kl


def log_marginal_split(
    dist: SparseDistribution,
    log_joint: LossOracle,
    num_samples: int,
    seed: int,
    dim: int | None = None,
):
    """Estimate log sum_z exp(log_joint(z)) by exact support + sampled rest.

    The sum over the support of ``dist`` is computed exactly; the
    complement is estimated from ``num_samples`` uniform draws rejected
    into the complement and scaled by its size.  Returns ``(estimate,
    stderr)`` where the standard error is for the log estimate (delta
    method).  With full support the answer is exact and the stderr is 0.
    """
    dim = dist.dim if dim is None else dim
    support = [int(i) for i in dist.indices]
    exact = logsumexp([log_joint.eval(z) for z in support])
    n_comp = dim - len(support)
    if n_comp == 0:
        return float(exact), 0.0
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1 when the support is not full")

    member = set(support)
    rng = make_rng(seed)
    cap = 1000 * num_samples
    draws = []
    attempts = 0
    while len(draws) < num_samples:
        attempts += 1
        if attempts > cap:
            raise RuntimeError(
                "rejection sampling exceeded %d draws; support nearly covers the space" % cap
            )
        z = int(rng.integers(dim))
        if z not in member:
            draws.append(z)

    comp_logs = np.array([log_joint.eval(z) for z in draws])
    shift = comp_logs.max()
    if not np.isfinite(shift):
        # Every sampled complement term is exp(-inf) = 0.
        return float(exact), 0.0
    y = np.exp(comp_logs - shift)
    mean_y = y.mean()
    comp_log = np.log(n_comp) + shift + np.log(mean_y)
    total = float(np.logaddexp(exact, comp_log))
    if num_samples == 1:
        return total, float("inf")
    sem_y = y.std(ddof=1) / np.sqrt(num_samples)
    if sem_y == 0.0:
        return total, 0.0
    stderr = float(np.exp(np.log(n_comp) + shift + np.log(sem_y) - total))
    return total, stderr


def call_curve(reports_per_epoch) -> list:
    """Per-epoch (mean, p10, median, p90) of calls from MarginalReports.

    ``reports_per_epoch`` is a list of epochs, each a nonempty list of
    MarginalReport (or anything with ``calls_used``).
    """
    if not reports_per_epoch:
        raise ValueError("no epochs given")
    out = []
    for epoch in reports_per_epoch:
        if not epoch:
            raise ValueError("empty epoch in call curve input")
        out.append(CallStats.from_counts([r.calls_used for r in epoch]))
    return out
