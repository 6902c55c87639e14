"""Desk-scale training tasks that exercise the sparse mappings end to end.

Two synthetic setups, each one linear map per component and trained with
plain SGD:

* a categorical communication task: cluster-labeled Gaussian feature
  vectors are encoded into a distribution over K discrete messages, and a
  per-message decoder predicts the cluster label;
* a bit-vector autoencoder: tiny binary images are encoded into scores
  over D binary latent variables, a decoder reconstructs pixels from the
  bits, and training minimizes the negative ELBO under a uniform prior.

Both tasks evaluate the downstream loss only on the support of the
chosen mapping, so the per-example loss-call counts are the quantity of
interest.  Gradients are hand-derived and validated against central
finite differences by :func:`model_grad_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activeset import sparsemap, sparsemap_vjp_probs
from .bitvec import (
    BitVectorPolytope,
    BudgetedBitVectorPolytope,
    config_matrix,
    kbest,
)
from .estimators import MovingAverageBaseline, sfe_grad, sum_and_sample_grad
from .marginalize import CallStats, LossOracle
from .rng import make_rng
from .simplex import softmax, softmax_vjp, sparsemax, sparsemax_rows, sparsemax_vjp

__all__ = [
    "TrainConfig",
    "TrainingLog",
    "EpochRow",
    "GradCheckReport",
    "ClusterData",
    "BitImageData",
    "ToyCategoricalModel",
    "ToyBitVectorVAE",
    "make_cluster_data",
    "make_bitvec_images",
    "train_categorical",
    "train_bitvec_vae",
    "model_grad_check",
]

CATEGORICAL_METHODS = ("dense", "sparse", "sfe", "sum_and_sample")
BITVEC_METHODS = ("dense", "sparse", "topk", "sparsemap", "sparsemap_budget")
_ENUM_LIMIT = 12  # largest D for which 2^D enumeration paths are allowed


@dataclass(frozen=True)
class TrainConfig:
    method: str = "dense"
    epochs: int = 20
    lr: float = 0.2
    batch_size: int = 16
    seed: int = 0
    k: int = 1  # top-k size (topk mapping, sum_and_sample estimator)
    budget: int = 0  # max active bits; 0 means D // 2
    entropy_coef: float = 0.05  # categorical task only
    baseline_decay: float = 0.9  # sfe only


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    loss: float
    metric: float
    calls: CallStats
    support_mean: float
    support_max: int
    cert_frac: float | None = None


@dataclass
class TrainingLog:
    task: str
    config: TrainConfig
    initial_loss: float
    rows: list = field(default_factory=list)
    diverged: bool = False


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    n_unstable: int
    n_params: int


@dataclass(frozen=True, eq=False)
class ClusterData:
    features: np.ndarray  # (n, feat_dim)
    labels: np.ndarray  # (n,)
    n_classes: int


@dataclass(frozen=True, eq=False)
class BitImageData:
    images: np.ndarray  # (n, n_pixels), entries in {0, 1}
    d: int
    n_pixels: int


def make_cluster_data(n: int = 256, n_clusters: int = 16, feat_dim: int = 64, seed: int = 0,
                      noise: float = 1.0, label_flip: float = 0.1) -> ClusterData:
    """Gaussian blobs: one cluster per label, plus uniformly resampled labels.

    ``label_flip`` resamples that fraction of labels uniformly.  The
    mislabeled points pin the cross-entropy floor, so any method that
    recovers the clustering converges to the same training loss.
    """
    rng = make_rng(seed)
    centers = rng.normal(size=(n_clusters, feat_dim))
    labels = rng.integers(0, n_clusters, size=n)
    features = centers[labels] + noise * rng.normal(size=(n, feat_dim))
    flips = rng.random(n) < label_flip
    labels = np.where(flips, rng.integers(0, n_clusters, size=n), labels)
    return ClusterData(features, labels, n_clusters)


def make_bitvec_images(n: int = 128, d: int = 8, n_pixels: int = 36, seed: int = 0,
                       flip_prob: float = 0.05) -> BitImageData:
    """Binary images: a union of active template patterns plus pixel flips."""
    rng = make_rng(seed)
    templates = rng.random((d, n_pixels)) < 0.4
    codes = rng.integers(0, 2, size=(n, d))
    clean = (codes @ templates) > 0
    flips = rng.random((n, n_pixels)) < flip_prob
    images = np.logical_xor(clean, flips).astype(np.float64)
    return BitImageData(images, d, n_pixels)


def _log_softmax(u):
    """Log-softmax along the last axis; each row as if taken alone."""
    shifted = u - u.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class _ParamLayout:
    """Parameter plumbing for a model whose arrays are named, in order, by ``PARAMS``.

    That order is the layout of the flat vector :func:`model_grad_check`
    perturbs, so parameters and gradients flatten the same way.
    """

    PARAMS: tuple = ()

    def flatten(self, arrays) -> np.ndarray:
        """The ``PARAMS`` entries of ``arrays`` (a dict or the model's own
        attributes) as one flat vector."""
        return np.concatenate([arrays[key].ravel() for key in self.PARAMS])

    def get_params(self) -> np.ndarray:
        return self.flatten(vars(self))

    def set_params(self, v):
        start = 0
        for key in self.PARAMS:
            param = getattr(self, key)
            stop = start + param.size
            setattr(self, key, v[start:stop].reshape(param.shape).copy())
            start = stop

    def zero_grads(self):
        return {key: np.zeros_like(getattr(self, key)) for key in self.PARAMS}

    def sgd_update(self, grads, lr: float):
        for key in self.PARAMS:
            param = getattr(self, key)
            param -= lr * grads[key]


@dataclass(eq=False)
class ToyCategoricalModel(_ParamLayout):
    """Linear encoder to K message scores, per-message label logits."""

    PARAMS = ("enc_w", "enc_b", "dec_w")
    # Each model class holds its own sgd_update entry, so a tracer can wrap
    # one class's update through that class's __dict__.
    sgd_update = _ParamLayout.sgd_update

    enc_w: np.ndarray  # (K, feat_dim)
    enc_b: np.ndarray  # (K,)
    dec_w: np.ndarray  # (K, n_classes)

    @classmethod
    def init(cls, n_messages: int = 16, n_classes: int = 16, feat_dim: int = 64,
             seed: int = 0, scale: float = 0.01) -> "ToyCategoricalModel":
        rng = make_rng(seed)
        return cls(
            enc_w=scale * rng.normal(size=(n_messages, feat_dim)),
            enc_b=np.zeros(n_messages),
            dec_w=scale * rng.normal(size=(n_messages, n_classes)),
        )

    @property
    def n_messages(self) -> int:
        return self.enc_w.shape[0]

    def scores(self, x) -> np.ndarray:
        return self.enc_w @ x + self.enc_b

    def label_loss(self, z, y):
        """Cross-entropy of label ``y`` under message ``z``'s decoder.

        Elementwise over arrays of (z, y), broadcast together; the
        decoder's log-softmax table is computed once per call.
        """
        return -_log_softmax(self.dec_w)[z, y]

    def objective_with_grad(self, example, cfg: TrainConfig):
        """Total objective, flat gradient, and support signature.

        Deterministic methods only; the objective includes the entropy
        regularizer so the gradient is exactly its derivative.
        """
        if cfg.method not in ("dense", "sparse"):
            raise ValueError("gradient check needs a deterministic method")
        x, y = example
        out, _ = _categorical_batch(self, np.asarray(x)[None], [int(y)], [0], cfg)
        if out.grads is None:
            raise ValueError("the objective is not finite at these parameters")
        return (float(out.objectives[0]), self.flatten(out.grads),
                tuple(np.flatnonzero(out.probs[0]).tolist()))


@dataclass(eq=False)
class ToyBitVectorVAE(_ParamLayout):
    """Linear encoder to D variable scores, linear decoder to pixel logits.

    ``recon`` picks the reconstruction term: ``bernoulli`` for per-pixel
    Bernoulli logits, ``squared`` for a plain squared error on the linear
    decoder output (quadratic in every parameter).
    """

    PARAMS = ("enc_w", "enc_b", "dec_w", "dec_b")
    sgd_update = _ParamLayout.sgd_update

    enc_w: np.ndarray  # (D, n_pixels)
    enc_b: np.ndarray  # (D,)
    dec_w: np.ndarray  # (n_pixels, D)
    dec_b: np.ndarray  # (n_pixels,)
    recon: str = "bernoulli"

    @classmethod
    def init(cls, d: int = 8, n_pixels: int = 36, seed: int = 0, scale: float = 0.01,
             recon: str = "bernoulli") -> "ToyBitVectorVAE":
        rng = make_rng(seed)
        return cls(
            enc_w=scale * rng.normal(size=(d, n_pixels)),
            enc_b=np.zeros(d),
            dec_w=scale * rng.normal(size=(n_pixels, d)),
            dec_b=np.zeros(n_pixels),
            recon=recon,
        )

    @property
    def d(self) -> int:
        return self.enc_w.shape[0]

    def var_scores(self, x) -> np.ndarray:
        return self.enc_w @ x + self.enc_b

    def recon_loss_and_dlogits(self, bits, x):
        """Reconstruction loss of ``x`` from latent ``bits`` and its
        gradient with respect to the decoder outputs."""
        out = self.dec_w @ bits + self.dec_b
        if self.recon == "squared":
            resid = out - x
            return 0.5 * float(resid @ resid), resid
        # Bernoulli negative log-likelihood with logits:
        # softplus(out) - x * out, gradient sigmoid(out) - x.
        val = float(np.logaddexp(0.0, out).sum() - x @ out)
        return val, 1.0 / (1.0 + np.exp(-out)) - x

    def objective_with_grad(self, example, cfg: TrainConfig):
        """Total objective, flat gradient, and the set of supported bit rows."""
        _check_config("bitvec", cfg, 1, self.d)
        out = _bitvec_batch(self, np.asarray(example, dtype=np.float64)[None], [0], cfg)
        if out.grads is None:
            raise ValueError("the objective is not finite at these parameters")
        return (float(out.objectives[0]), self.flatten(out.grads),
                frozenset(map(tuple, out.rows[0].tolist())))


@dataclass(eq=False)
class _BatchPass:
    """One minibatch: per-example log entries and the summed gradients.

    ``stats`` holds (loss, metric, calls, support, certificate) per
    example, and ``objectives`` each example's differentiated objective,
    both in batch order.  ``grads`` holds the sums of the per-example
    gradients, or None when the divergence guard tripped: a non-finite
    score, or a zero probability whose log the objective would take.
    The categorical pass also returns the (B, K) probabilities, the
    bit-vector pass each example's (support, D) bit rows.
    """

    stats: list
    grads: dict | None
    objectives: np.ndarray | None = None
    probs: np.ndarray | None = None
    rows: list | None = None

    @classmethod
    def diverged(cls, size: int) -> "_BatchPass":
        return cls([(np.nan, np.nan, 0, 0, None)] * size, None)


def _ordered_sum(terms, axis=0):
    """Sum ``terms`` along ``axis`` in index order, as repeated ``+=`` into zeros.

    A sum reduction may add pairwise; an accumulation never does.  Adding
    0.0 first turns -0.0 into +0.0, as the zeros it replaces would.
    """
    return np.cumsum(terms + 0.0, axis=axis).take(-1, axis=axis)


def _categorical_batch(model: ToyCategoricalModel, features, labels, batch, cfg: TrainConfig,
                       rng=None, baseline: MovingAverageBaseline | None = None):
    """One minibatch: forward, loss reads, hand gradients summed in example order.

    The dense and sparse methods marginalize exactly over the mapping's
    support; sfe and sum_and_sample are the library estimators, called
    once per example in batch order with ``rng`` (sfe also with the
    running ``baseline``).  The decoder's loss table is computed once, and
    every per-example quantity has the bits a batch of one gives: the
    mappings and elementwise algebra work on whole (B, K) matrices, while
    the scores, dot products, support means and sums stay in example (or
    outcome) order.  Returns the batch record and the baseline, updated
    when sfe drew samples.  Callers check ``cfg.method`` first.
    """
    K = model.n_messages
    method = cfg.method
    coef = cfg.entropy_coef
    y = np.asarray(labels)[batch]
    B = y.size
    s = np.array([model.scores(features[i]) for i in batch])
    if not np.all(np.isfinite(s)):
        return _BatchPass.diverged(B), baseline
    # Every message's loss for every label; the decoder softmax is its exp.
    losses = model.label_loss(np.arange(K)[:, None], np.arange(model.dec_w.shape[1]))
    dec = np.exp(-losses)
    if method == "sparse":
        q = sparsemax_rows(s)
    elif method == "dense":
        q = softmax(s)
    else:  # sfe or sum_and_sample; q is each estimator's own softmax
        by_example = losses[:, y].T
        q = np.empty((B, K))
        g_s = np.empty((B, K))
        weights = np.zeros((B, K))
        loss = np.empty(B)
        calls = np.empty(B, dtype=np.int64)
        for i in range(B):
            oracle = LossOracle(by_example[i].__getitem__)
            if method == "sfe":
                est, baseline = sfe_grad(s[i], oracle, baseline, rng)
            else:
                est = sum_and_sample_grad(s[i], oracle, cfg.k, rng)
            q[i] = est.probs
            g_s[i] = est.grad
            weights[i, est.outcomes] = est.weights
            loss[i] = est.loss
            calls[i] = oracle.calls
    if method != "sparse" and not np.all(q > 0):  # the entropy term would take log(0)
        return _BatchPass.diverged(B), baseline

    if method in ("dense", "sparse"):
        rows, outcomes = np.nonzero(q > 0)  # every outcome for dense, past the guard
        oracle = LossOracle(lambda z: losses[z, y[rows]])
        values = oracle.eval_many(outcomes)
        calls = np.bincount(rows, minlength=B)
        bounds = np.concatenate(([0], np.cumsum(calls)))
        probs = q[rows, outcomes]
        log_probs = np.log(probs)
        upstream = values + coef * (log_probs + 1.0)
        loss = np.empty(B)
        objective = np.empty(B)
        centre = np.empty(B)
        for i in range(B):
            on = slice(bounds[i], bounds[i + 1])
            qi = probs[on]
            loss[i] = qi @ values[on]
            objective[i] = loss[i] + coef * float(qi @ log_probs[on])
            centre[i] = qi @ upstream[on] if method == "dense" else upstream[on].mean()
        g_on = upstream - centre[rows]  # sparsemax vjp: u minus its support mean
        if method == "dense":  # softmax vjp: p * (u - p . u)
            g_on *= probs
        g_s = np.zeros((B, K))
        g_s[rows, outcomes] = g_on
        weights = q
    else:
        entropy_up = np.log(q) + 1.0
        dots = np.array([qi @ ui for qi, ui in zip(q, entropy_up)])
        g_s += coef * (q * (entropy_up - dots[:, None]))
        objective = loss

    grads = {
        "enc_w": _ordered_sum(g_s[:, :, None] * features[batch][:, None, :]),
        "enc_b": _ordered_sum(g_s),
        "dec_w": _ordered_sum(weights[:, :, None] * (dec - np.eye(dec.shape[1])[y][:, None, :])),
    }
    mixture = _ordered_sum(q[:, :, None] * dec, axis=1)
    metric = (np.argmax(mixture, axis=1) == y).astype(np.float64)
    support = calls if method in ("dense", "sparse") else np.full(B, K)
    stats = list(zip(loss.tolist(), metric.tolist(), calls.tolist(), support.tolist(),
                     [None] * B))
    return _BatchPass(stats, grads, objective, q), baseline


def _bitvec_batch(model: ToyBitVectorVAE, images, batch, cfg: TrainConfig) -> _BatchPass:
    """One minibatch of images: posterior over bit-vectors, negative ELBO,
    hand gradients summed in example order.

    The differentiated objective is sum_z q_z c_z - H(q) with
    c_z = D log 2 + recon(z); its score gradient is the mapping vjp of
    c + log q + 1 (the constant washes out through every mapping here).
    Each example's decoder gradient is summed on its own before it joins
    the batch sum, so the sums have the bits of batches of one.  Callers
    check ``cfg`` against D first (:func:`_check_config`).
    """
    D = model.d
    method = cfg.method
    if method in ("dense", "sparse"):
        A = config_matrix(D)
    elif method == "sparsemap":
        polytope = BitVectorPolytope(D)
    elif method == "sparsemap_budget":
        polytope = BudgetedBitVectorPolytope(D, cfg.budget if cfg.budget else max(1, D // 2))

    grads = model.zero_grads()
    stats, objectives, support_rows = [], [], []
    for i in batch:
        x = images[i]
        t = model.var_scores(x)
        if not np.all(np.isfinite(t)):
            return _BatchPass.diverged(len(batch))
        certificate = None
        if method == "topk":
            structs = kbest(t, cfg.k)
            u = np.array([st.score for st in structs])
            dist = sparsemax(u)
            q = dist.probs
            bits_mat = np.array([structs[j].bits for j in dist.indices], dtype=np.float64)
            certificate = dist.support_size < cfg.k
        elif method == "dense":
            q = softmax(A @ t)
            if not np.all(q > 0):
                return _BatchPass.diverged(len(batch))
            bits_mat = A
        elif method == "sparse":
            u = A @ t
            dist = sparsemax(u)
            q = dist.probs
            bits_mat = A[dist.indices]
        else:
            res = sparsemap(polytope, t)
            q = res.probs
            bits_mat = res.rows

        # The oracle keeps each decoder-output gradient it computes, so the
        # decoder runs once per supported outcome.
        dlogits = []

        def neg_log_joint(bits):
            recon, d = model.recon_loss_and_dlogits(bits, x)
            dlogits.append(d)
            return D * np.log(2.0) + recon

        oracle = LossOracle(neg_log_joint)
        c = np.array([oracle.eval(row) for row in bits_mat])
        neg_elbo = float(q @ c + q @ np.log(q))
        up = c + np.log(q) + 1.0
        if method == "dense":
            g_t = A.T @ softmax_vjp(q, up)
        elif method in ("topk", "sparse"):
            upstream = np.zeros(dist.dim)
            upstream[dist.indices] = up
            g_t = bits_mat.T @ sparsemax_vjp(u, dist, upstream)[dist.indices]
        else:
            g_t = sparsemap_vjp_probs(res, up)

        # The batch sum starts at +0.0 and so never holds -0.0: adding a
        # one-term encoder gradient straight in gives the bits of adding it
        # to zeros first.
        grads["enc_w"] += np.outer(g_t, x)
        grads["enc_b"] += g_t
        dec_w = np.zeros_like(model.dec_w)
        dec_b = np.zeros_like(model.dec_b)
        for qz, row, d in zip(q, bits_mat, dlogits):
            dec_w += qz * np.outer(d, row)
            dec_b += qz * d
        grads["dec_w"] += dec_w
        grads["dec_b"] += dec_b
        stats.append((neg_elbo, neg_elbo, oracle.calls, q.size, certificate))
        objectives.append(neg_elbo)
        support_rows.append(bits_mat)
    return _BatchPass(stats, grads, np.array(objectives), rows=support_rows)


def _check_config(task: str, cfg: TrainConfig, n: int, size: int):
    """Raise ValueError, naming the field, unless ``cfg`` can train ``n``
    examples of ``task`` at ``size`` (K messages, or D bits)."""
    allowed = CATEGORICAL_METHODS if task == "categorical" else BITVEC_METHODS
    if cfg.method not in allowed:
        raise ValueError(
            "method %r is not valid for the %s task (choose from %s)"
            % (cfg.method, task, ", ".join(allowed))
        )
    rules = [
        ("n", n, n >= 1, "at least 1"),
        ("epochs", cfg.epochs, cfg.epochs >= 0, "at least 0"),
        ("batch_size", cfg.batch_size, cfg.batch_size >= 1, "at least 1"),
    ]
    if task == "bitvec":
        rules.append(("d", size, size >= 1, "at least 1"))
    if cfg.method == "sum_and_sample":
        rules.append(("k", cfg.k, 1 <= cfg.k < size,
                      "in 1..%d for %d messages" % (size - 1, size)))
    elif cfg.method == "topk":
        rules.append(("k", cfg.k, cfg.k >= 1, "at least 1"))
    elif task == "bitvec" and cfg.method in ("dense", "sparse"):
        rules.append(("d", size, size <= _ENUM_LIMIT,
                      "at most %d to enumerate 2^d configurations" % _ENUM_LIMIT))
    elif cfg.method == "sparsemap_budget":
        rules.append(("budget", cfg.budget, 0 <= cfg.budget <= size,
                      "in 0..%d, where 0 means d // 2" % size))
    for name, value, ok, need in rules:
        if not ok:
            raise ValueError("%s must be %s, got %r" % (name, need, value))


def _params_finite(model) -> bool:
    return all(np.all(np.isfinite(getattr(model, key))) for key in model.PARAMS)


def _finish_epoch(epoch, stats) -> EpochRow:
    losses, metrics, calls, supports, certs = zip(*stats)
    certs = [float(c) for c in certs if c is not None]
    return EpochRow(
        epoch=epoch,
        loss=float(np.mean(losses)),
        metric=float(np.mean(metrics)),
        calls=CallStats.from_counts(calls),
        support_mean=float(np.mean(supports)),
        support_max=int(np.max(supports)),
        cert_frac=float(np.mean(certs)) if certs else None,
    )


def _initial_loss(n: int, batch_size: int, batch_pass) -> float:
    total = 0.0
    for start in range(0, n, batch_size):
        for loss, *_ in batch_pass(np.arange(start, min(start + batch_size, n))).stats:
            total += loss
    return total / n


def _train(task: str, model, n: int, cfg: TrainConfig, eval_cfg: TrainConfig, batch_pass):
    """Minibatch SGD over ``n`` examples, reshuffled every epoch.

    ``batch_pass(indices, config, rng)`` returns the :class:`_BatchPass`
    of those examples; ``rng`` is the generator that also draws the
    shuffles.  The initial loss is the mean loss under ``eval_cfg`` before
    any update.  A batch whose divergence guard trips, or an update that
    leaves a parameter non-finite, ends training with the log marked
    diverged.
    """
    log = TrainingLog(task=task, config=cfg, initial_loss=_initial_loss(
        n, cfg.batch_size, lambda batch: batch_pass(batch, eval_cfg, None)))
    rng = make_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        stats = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            out = batch_pass(batch, cfg, rng)
            if out.grads is None:
                log.diverged = True
                return log
            stats.extend(out.stats)
            for key in out.grads:
                out.grads[key] /= len(batch)
            model.sgd_update(out.grads, cfg.lr)
            if not _params_finite(model):
                log.diverged = True
                return log
        row = _finish_epoch(epoch, stats)
        log.rows.append(row)
        if not np.isfinite(row.loss):
            log.diverged = True
            break
    return log


def train_categorical(model: ToyCategoricalModel, data: ClusterData, cfg: TrainConfig) -> TrainingLog:
    """SGD on the communication task; one log row per epoch.

    The loss column is the expected downstream cross-entropy (a sample
    estimate for sfe / sum_and_sample), the metric column is accuracy of
    the posterior-mixture prediction, and call statistics count decoder
    loss evaluations made during training.  The initial loss is exact:
    sparse for the sparse method, dense for the others.
    """
    _check_config("categorical", cfg, data.features.shape[0], model.n_messages)
    eval_cfg = TrainConfig(method="dense" if cfg.method != "sparse" else "sparse",
                           entropy_coef=cfg.entropy_coef)
    baseline = MovingAverageBaseline(decay=cfg.baseline_decay)

    def batch_pass(batch, config, rng):
        nonlocal baseline
        out, baseline = _categorical_batch(
            model, data.features, data.labels, batch, config, rng, baseline
        )
        return out

    return _train("categorical", model, data.features.shape[0], cfg, eval_cfg, batch_pass)


def train_bitvec_vae(model: ToyBitVectorVAE, data: BitImageData, cfg: TrainConfig) -> TrainingLog:
    """SGD on the bit-vector autoencoder; one log row per epoch.

    Loss and metric columns are both the mean negative ELBO.  For the
    topk mapping each row also records the fraction of examples whose
    certificate held (support strictly below k).
    """
    _check_config("bitvec", cfg, data.images.shape[0], model.d)
    return _train("bitvec", model, data.images.shape[0], cfg, cfg,
                  lambda batch, config, rng: _bitvec_batch(model, data.images, batch, config))


def model_grad_check(model, cfg: TrainConfig, example, h: float = 1e-5) -> GradCheckReport:
    """Compare hand gradients against central differences, per parameter.

    Coordinates whose perturbation flips the mapping support are counted
    as unstable and excluded from the error (the objective is only
    piecewise smooth there).  The relative-error floor scales with the
    objective: central differences carry cancellation noise of order
    eps * |loss| / h, so coordinates below a millionth of the loss are
    compared against that scale rather than against each other.
    """
    base_loss, base_grad, base_sig = model.objective_with_grad(example, cfg)
    params = model.get_params()
    floor = 1e-6 * max(1.0, abs(base_loss))
    max_err = 0.0
    unstable = 0
    for i in range(params.size):
        probes = []
        stable = True
        for sign in (1.0, -1.0):
            bumped = params.copy()
            bumped[i] += sign * h
            model.set_params(bumped)
            loss, _, sig = model.objective_with_grad(example, cfg)
            probes.append(loss)
            if sig != base_sig:
                stable = False
        model.set_params(params)
        if not stable:
            unstable += 1
            continue
        fd = (probes[0] - probes[1]) / (2.0 * h)
        err = abs(fd - base_grad[i]) / max(abs(fd), abs(base_grad[i]), floor)
        max_err = max(max_err, err)
    return GradCheckReport(max_rel_err=max_err, n_unstable=unstable, n_params=params.size)
