"""Gradient estimators for expected losses under a softmax distribution.

These are the comparison points for exact sparse marginalization: full
enumeration (K loss calls), the score function estimator with a moving
average baseline (1 call), and sum-and-sample (exact over the top-k
outcomes plus one importance-weighted draw from the complement, k + 1
calls).  All estimate the gradient of sum_z softmax(s)_z * loss(z) with
respect to the scores s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .marginalize import LossOracle
from .simplex import _as_scores, softmax, softmax_vjp
from .topk import top_k

__all__ = [
    "Estimate",
    "MovingAverageBaseline",
    "dense_grad",
    "sfe_grad",
    "sum_and_sample_grad",
]

_MAX_ENUMERABLE = 4096
_COMPLEMENT_EPS = 1e-14


@dataclass(frozen=True)
class Estimate:
    """A sampled gradient estimate and the loss evaluations it was built from.

    ``loss`` estimates sum_z softmax(s)_z * loss(z) as the sum of
    ``weights * values`` over the evaluated ``outcomes``; ``grad`` is the
    matching estimate of its gradient with respect to s, and ``probs`` is
    softmax(s).
    """

    grad: np.ndarray
    loss: float
    probs: np.ndarray
    outcomes: np.ndarray
    weights: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class MovingAverageBaseline:
    """Exponential moving average of observed losses, b <- d*b + (1-d)*l."""

    value: float = 0.0
    decay: float = 0.9

    def updated(self, loss_value: float) -> "MovingAverageBaseline":
        return replace(self, value=self.decay * self.value + (1.0 - self.decay) * loss_value)


def dense_grad(s, loss: LossOracle) -> np.ndarray:
    """Exact gradient by enumerating every outcome (K loss calls)."""
    s = _as_scores(s)
    if s.size > _MAX_ENUMERABLE:
        raise ValueError("dense enumeration capped at %d outcomes" % _MAX_ENUMERABLE)
    p = softmax(s)
    values = np.array([loss.eval(z) for z in range(s.size)])
    return softmax_vjp(p, values)


def _sfe_term(p, z: int, loss_value: float, baseline_value: float) -> np.ndarray:
    return (loss_value - baseline_value) * _one_hot_minus_p(p, z)


def sfe_grad(s, loss: LossOracle, baseline: MovingAverageBaseline, rng: np.random.Generator):
    """Score function (REINFORCE) estimate from a single sampled outcome.

    Returns ``(estimate, updated_baseline)``.  The gradient estimate is
    (loss(z) - b) * grad log softmax(s)_z for z ~ softmax(s), drawn from
    ``rng``; subtracting the running baseline changes variance only, not
    the mean.  The loss estimate is loss(z).
    """
    s = _as_scores(s)
    p = softmax(s)
    z = int(rng.choice(s.size, p=p))
    value = loss.eval(z)
    estimate = Estimate(_sfe_term(p, z, value, baseline.value), value, p,
                        np.array([z]), np.ones(1), np.array([value]))
    return estimate, baseline.updated(value)


def _sas_term(p, kept, kept_values, comp_mass, z, loss_value) -> np.ndarray:
    """Deterministic part plus the single-draw complement term.

    The exact half sums loss_z * grad p_z over the kept set; the sampled
    half importance-weights one complement draw by the complement mass,
    which cancels the sampling probability p_z / comp_mass.
    """
    weighted = p[kept] * kept_values
    g = -p * weighted.sum()
    g[kept] += weighted
    if z >= 0:
        g += loss_value * comp_mass * _one_hot_minus_p(p, z)
    return g


def _one_hot_minus_p(p, z: int) -> np.ndarray:
    out = -p.copy()
    out[z] += 1.0
    return out


def sum_and_sample_grad(s, loss: LossOracle, k: int, rng: np.random.Generator) -> Estimate:
    """Exact estimate over the top-k outcomes plus one complement sample.

    Uses k + 1 loss calls (k when the complement carries no mass).  The
    complement draw comes from ``rng`` and is weighted by the complement
    mass, so both the loss and the gradient estimate are unbiased for
    every k.
    """
    s = _as_scores(s)
    if not 1 <= k < s.size:
        raise ValueError("k must satisfy 1 <= k < K")
    p = softmax(s)
    kept = top_k(s, k).indices
    kept_values = np.array([loss.eval(int(z)) for z in kept])
    kept_loss = float((p[kept] * kept_values).sum())
    comp_mass = 1.0 - p[kept].sum()
    if comp_mass <= _COMPLEMENT_EPS:
        return Estimate(_sas_term(p, kept, kept_values, 0.0, -1, 0.0), kept_loss, p,
                        kept, p[kept], kept_values)
    comp = np.setdiff1d(np.arange(s.size), kept)
    z = int(rng.choice(comp, p=p[comp] / p[comp].sum()))
    value = loss.eval(z)
    return Estimate(_sas_term(p, kept, kept_values, comp_mass, z, value),
                    kept_loss + comp_mass * value, p, np.append(kept, z),
                    np.append(p[kept], comp_mass), np.append(kept_values, value))
