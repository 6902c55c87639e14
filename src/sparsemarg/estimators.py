"""Gradient estimators for expected losses under a softmax distribution.

These are the comparison points for exact sparse marginalization: full
enumeration (K loss calls), the score function estimator with a moving
average baseline (1 call), and sum-and-sample (exact over the top-k
outcomes plus one importance-weighted draw from the complement, k + 1
calls).  All estimate the gradient of sum_z softmax(s)_z * loss(z) with
respect to the scores s.

The sampling estimators work on the rows of a (B, K) score matrix at once
(:func:`sfe_rows`, :func:`sum_and_sample_rows`), each row with the bits,
draws and loss calls it would get alone; :func:`sfe_grad` and
:func:`sum_and_sample_grad` are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .marginalize import LossOracle
from .simplex import _as_rows, _as_scores, softmax, softmax_vjp
from .topk import _kept

__all__ = [
    "Estimate",
    "MovingAverageBaseline",
    "RowEstimates",
    "dense_grad",
    "sfe_grad",
    "sfe_rows",
    "sum_and_sample_grad",
    "sum_and_sample_rows",
]

_MAX_ENUMERABLE = 4096
_COMPLEMENT_EPS = 1e-14
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # Generator.choice's sum tolerance


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class RowEstimates:
    """The estimates of every row of a (B, K) score matrix.

    ``grad`` and ``probs`` are (B, K) and ``loss`` is (B,).  The evaluated
    outcomes are flat, in (row, outcome) order: ``outcomes[j]`` belongs to
    row ``rows[j]`` and was weighted by ``weights[j]`` with loss
    ``values[j]``.  :meth:`row` gives one row's :class:`Estimate`.
    """

    grad: np.ndarray
    loss: np.ndarray
    probs: np.ndarray
    rows: np.ndarray
    outcomes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def row(self, i: int) -> Estimate:
        on = self.rows == i
        return Estimate(self.grad[i], float(self.loss[i]), self.probs[i],
                        self.outcomes[on], self.weights[on], self.values[on])


@dataclass(frozen=True)
class MovingAverageBaseline:
    """Exponential moving average of observed losses, b <- d*b + (1-d)*l."""

    value: float = 0.0
    decay: float = 0.9

    def updated(self, loss_value: float) -> "MovingAverageBaseline":
        return self.advanced([loss_value])[1]

    def advanced(self, loss_values):
        """Feed ``loss_values`` in order: the value before each one, and the
        baseline after the last."""
        value, before = self.value, []
        for loss_value in loss_values:
            before.append(value)
            value = self.decay * value + (1.0 - self.decay) * loss_value
        return before, replace(self, value=value)


def dense_grad(s, loss: LossOracle) -> np.ndarray:
    """Exact gradient by enumerating every outcome (K loss calls)."""
    s = _as_scores(s)
    if s.size > _MAX_ENUMERABLE:
        raise ValueError("dense enumeration capped at %d outcomes" % _MAX_ENUMERABLE)
    p = softmax(s)
    values = np.array([loss.eval(z) for z in range(s.size)])
    return softmax_vjp(p, values)


def _one_hot_minus_p(p, z) -> np.ndarray:
    """e_z - p for each row of ``p``, with z one outcome per row."""
    out = -p
    out[np.arange(z.size), z] += 1.0
    return out


def _draw_rows(probs, rng: np.random.Generator) -> np.ndarray:
    """One outcome per row of ``probs``, as ``rng.choice(K, p=row)`` row by row.

    Each row takes the next uniform u of one ``rng.random(B)`` and returns
    the number of entries of cumsum(row) / its last entry that are <= u,
    which is the index ``Generator.choice`` gives for that u.  Rows that
    ``choice`` rejects raise: NaN or negative entries, or a sum that is
    not 1 within sqrt(float64 eps).
    """
    total = probs.sum(axis=1)
    if np.isnan(total).any():
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(total - 1.0) > _CHOICE_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(probs.shape[0])[:, None]).sum(axis=1)


def _one_row(loss: LossOracle) -> LossOracle:
    """A (row, outcome) oracle for a single row that calls ``loss.eval``
    once per outcome, in order."""
    return LossOracle(lambda pairs: [loss.eval(int(z)) for z in pairs[1]])


def _sfe_term(p, z, loss_value, baseline_value) -> np.ndarray:
    """(loss(z) - b) * grad log softmax(s)_z for each row of ``p``."""
    return (loss_value - baseline_value)[:, None] * _one_hot_minus_p(p, z)


def sfe_rows(scores, loss: LossOracle, baseline: MovingAverageBaseline,
             rng: np.random.Generator):
    """Score function (REINFORCE) estimates for every row of a (B, K) matrix.

    Returns ``(estimates, updated_baseline)`` as B calls of
    :func:`sfe_grad` in row order would give them: row i draws
    z_i ~ softmax(s_i) from ``rng`` and uses the baseline the rows before
    it left.  ``loss.eval_many((rows, outcomes))`` reads the loss of each
    (row, outcome) pair, one call per row.
    """
    s = _as_rows(scores)
    p = softmax(s)
    z = _draw_rows(p, rng)
    rows = np.arange(s.shape[0])
    values = loss.eval_many((rows, z))
    before, baseline = baseline.advanced(values.tolist())
    grad = _sfe_term(p, z, values, np.array(before))
    return RowEstimates(grad, values, p, rows, z, np.ones(rows.size), values), baseline


def sfe_grad(s, loss: LossOracle, baseline: MovingAverageBaseline, rng: np.random.Generator):
    """Score function (REINFORCE) estimate from a single sampled outcome.

    Returns ``(estimate, updated_baseline)``.  The gradient estimate is
    (loss(z) - b) * grad log softmax(s)_z for z ~ softmax(s), drawn from
    ``rng``; subtracting the running baseline changes variance only, not
    the mean.  The loss estimate is loss(z).  This is the one-row case of
    :func:`sfe_rows`.
    """
    estimates, baseline = sfe_rows(_as_scores(s)[None], _one_row(loss), baseline, rng)
    return estimates.row(0), baseline


def _sas_term(p, kept, kept_values, comp_mass, z, loss_value) -> np.ndarray:
    """Deterministic part plus the single-draw complement term, per row.

    The exact half sums loss_z * grad p_z over each row's kept set; the
    sampled half importance-weights the row's complement draw z by the
    complement mass, which cancels the sampling probability
    p_z / comp_mass.  A row with z = -1 drew nothing and has no sampled
    half.
    """
    rows = np.arange(p.shape[0])[:, None]
    weighted = p[rows, kept] * kept_values
    g = -p * weighted.sum(axis=1, keepdims=True)
    g[rows, kept] += weighted
    drawn = np.flatnonzero(z >= 0)
    g[drawn] += (loss_value * comp_mass)[drawn, None] * _one_hot_minus_p(p[drawn], z[drawn])
    return g


def sum_and_sample_rows(scores, loss: LossOracle, k: int,
                        rng: np.random.Generator) -> RowEstimates:
    """Sum-and-sample estimates for every row of a (B, K) score matrix.

    Each row is what :func:`sum_and_sample_grad` gives it, with the rows
    drawing from ``rng`` in row order.  A row's top-k set (ties to the
    lower index) is the one :func:`top_k` keeps, and its complement is
    the rest of the order it was cut from; both are read in ascending
    index order.  Rows whose complement mass is at most 1e-14 draw
    nothing; the others draw from their complement in proportion to p.
    ``loss.eval_many((rows, outcomes))`` reads every row's kept outcomes
    and then its draw, k or k + 1 calls per row.
    """
    s = _as_rows(scores)
    B, K = s.shape
    if not 1 <= k < K:
        raise ValueError("k must satisfy 1 <= k < K")
    p = softmax(s)
    kept, order = _kept(s, k)
    rows = np.arange(B)[:, None]
    p_kept = p[rows, kept]
    comp_mass = 1.0 - p_kept.sum(axis=1)
    drawn = np.flatnonzero(comp_mass > _COMPLEMENT_EPS)
    comp = np.sort(order[drawn, k:], axis=1)
    p_comp = p[drawn[:, None], comp]
    # Each row's outcomes are its kept set, then its draw (-1 for none).
    outcomes = np.column_stack((kept, np.full(B, -1)))
    outcomes[drawn, k] = comp[np.arange(drawn.size),
                              _draw_rows(p_comp / p_comp.sum(axis=1, keepdims=True), rng)]
    evaluated = outcomes >= 0
    eval_rows = np.nonzero(evaluated)[0]
    values = np.zeros((B, k + 1))
    values[evaluated] = loss.eval_many((eval_rows, outcomes[evaluated]))
    weights = np.column_stack((p_kept, comp_mass))
    estimate = (p_kept * values[:, :k]).sum(axis=1)
    estimate[drawn] += comp_mass[drawn] * values[drawn, k]
    grad = _sas_term(p, kept, values[:, :k], comp_mass, outcomes[:, k], values[:, k])
    return RowEstimates(grad, estimate, p, eval_rows, outcomes[evaluated], weights[evaluated],
                        values[evaluated])


def sum_and_sample_grad(s, loss: LossOracle, k: int, rng: np.random.Generator) -> Estimate:
    """Exact estimate over the top-k outcomes plus one complement sample.

    Uses k + 1 loss calls (k when the complement carries no mass).  The
    complement draw comes from ``rng`` and is weighted by the complement
    mass, so both the loss and the gradient estimate are unbiased for
    every k.  This is the one-row case of :func:`sum_and_sample_rows`.
    """
    return sum_and_sample_rows(_as_scores(s)[None], _one_row(loss), k, rng).row(0)
