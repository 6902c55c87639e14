"""Exact expectations of a downstream loss over sparse supports.

When the posterior over outcomes has small support, the expected loss is
computed exactly by evaluating the loss only on the support; its gradient
with respect to the scores is the mapping's own vjp applied to those
losses.  The loss goes behind a counting oracle so experiments can report
how many evaluations each method actually spent.  For log-marginals the
support sum is exact and the complement is estimated by uniform rejection
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng
from .simplex import SparseDistribution

__all__ = [
    "LossOracle",
    "CallStats",
    "sparse_expectation",
    "log_marginal_split",
]


class LossOracle:
    """Wraps a scalar loss function and counts its evaluations.

    ``fn`` maps an outcome id (or structure) to a float; for
    :meth:`eval_many` it maps an array of outcomes to one value each.  The
    counter only ever increases.
    """

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def eval(self, z) -> float:
        self.calls += 1
        return float(self.fn(z))

    def eval_many(self, outcomes) -> np.ndarray:
        """Evaluate an array of outcomes in one call of ``fn``.

        Counts one call per value returned, the count that evaluating
        each outcome through :meth:`eval` would give.
        """
        values = np.asarray(self.fn(outcomes), dtype=np.float64)
        self.calls += values.size
        return values


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
        values = sorted(counts.tolist())
        if not math.isfinite(sum(values)):  # NaN does not sort: numpy's rule for these
            p10, median, p90 = np.percentile(counts, (10, 50, 90)).tolist()
        else:
            p10, median, p90 = (_percentile(values, q) for q in (10, 50, 90))
        return cls(mean=float(counts.mean()), p10=p10, median=median, p90=p90)


def _percentile(values: list, q: int) -> float:
    """``np.percentile(values, q)`` of a sorted nonempty list of finite
    floats, for q below 100, with its bits: numpy's linear interpolation
    between the neighbours of index (n - 1) q / 100, taken from the upper
    one when the fraction is at least one half.  At n = 1 numpy takes
    the one value from the upper one, keeping the sign of a -0.0."""
    n = len(values)
    v = (n - 1) * (q / 100)
    i = math.floor(v)
    a, b = values[i], values[min(i + 1, n - 1)]
    g, d = v - i, b - a
    return b - d * (1 - g) if g >= 0.5 or n == 1 else a + d * g


def sparse_expectation(dist: SparseDistribution, loss: LossOracle) -> float:
    """Exact expected loss over the support of ``dist``.

    Evaluates the loss exactly once per supported outcome, so ``loss.calls``
    grows by the support size.
    """
    values = [loss.eval(int(z)) for z in dist.indices]
    return float(dist.probs @ np.asarray(values))


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
    The draws are int64, so ``dim`` past 2^63 is rejected up front.
    """
    # Imported here: importing the library loads no scipy.
    from scipy.special import logsumexp

    dim = dist.dim if dim is None else dim
    if dim > 1 << 63:
        raise ValueError("dim %d is past the 2^63 outcomes int64 draws can index" % dim)
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

