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
from .simplex import softmax, softmax_vjp, sparsemax, sparsemax_vjp

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


@dataclass(frozen=True)
class ClusterData:
    features: np.ndarray  # (n, feat_dim)
    labels: np.ndarray  # (n,)
    n_classes: int


@dataclass(frozen=True)
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
    shifted = u - u.max()
    return shifted - np.log(np.exp(shifted).sum())


@dataclass
class ToyCategoricalModel:
    """Linear encoder to K message scores, per-message label logits."""

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

    def label_loss(self, z: int, y: int) -> float:
        return float(-_log_softmax(self.dec_w[z])[y])

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.enc_w.ravel(), self.enc_b, self.dec_w.ravel()])

    def set_params(self, v):
        k, f = self.enc_w.shape
        c = self.dec_w.shape[1]
        self.enc_w = v[: k * f].reshape(k, f).copy()
        self.enc_b = v[k * f: k * f + k].copy()
        self.dec_w = v[k * f + k:].reshape(k, c).copy()

    def sgd_update(self, grads, lr: float):
        self.enc_w -= lr * grads["enc_w"]
        self.enc_b -= lr * grads["enc_b"]
        self.dec_w -= lr * grads["dec_w"]

    def zero_grads(self):
        return {
            "enc_w": np.zeros_like(self.enc_w),
            "enc_b": np.zeros_like(self.enc_b),
            "dec_w": np.zeros_like(self.dec_w),
        }

    def objective_with_grad(self, example, cfg: TrainConfig):
        """Total objective, flat gradient, and support signature.

        Deterministic methods only; the objective includes the entropy
        regularizer so the gradient is exactly its derivative.
        """
        if cfg.method not in ("dense", "sparse"):
            raise ValueError("gradient check needs a deterministic method")
        x, y = example
        out, _ = _categorical_pass(self, x, int(y), cfg)
        flat = np.concatenate([
            out.grads["enc_w"].ravel(), out.grads["enc_b"], out.grads["dec_w"].ravel()
        ])
        return out.objective, flat, out.signature


@dataclass
class ToyBitVectorVAE:
    """Linear encoder to D variable scores, linear decoder to pixel logits.

    ``recon`` picks the reconstruction term: ``bernoulli`` for per-pixel
    Bernoulli logits, ``squared`` for a plain squared error on the linear
    decoder output (quadratic in every parameter).
    """

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

    def get_params(self) -> np.ndarray:
        return np.concatenate([
            self.enc_w.ravel(), self.enc_b, self.dec_w.ravel(), self.dec_b
        ])

    def set_params(self, v):
        d, p = self.enc_w.shape
        n0 = d * p
        self.enc_w = v[:n0].reshape(d, p).copy()
        self.enc_b = v[n0: n0 + d].copy()
        self.dec_w = v[n0 + d: n0 + d + p * d].reshape(p, d).copy()
        self.dec_b = v[n0 + d + p * d:].copy()

    def sgd_update(self, grads, lr: float):
        self.enc_w -= lr * grads["enc_w"]
        self.enc_b -= lr * grads["enc_b"]
        self.dec_w -= lr * grads["dec_w"]
        self.dec_b -= lr * grads["dec_b"]

    def zero_grads(self):
        return {
            "enc_w": np.zeros_like(self.enc_w),
            "enc_b": np.zeros_like(self.enc_b),
            "dec_w": np.zeros_like(self.dec_w),
            "dec_b": np.zeros_like(self.dec_b),
        }

    def objective_with_grad(self, example, cfg: TrainConfig):
        out = _bitvec_pass(self, np.asarray(example, dtype=np.float64), cfg)
        flat = np.concatenate([
            out.grads["enc_w"].ravel(), out.grads["enc_b"],
            out.grads["dec_w"].ravel(), out.grads["dec_b"],
        ])
        return out.objective, flat, out.signature


@dataclass
class _ExamplePass:
    objective: float  # the differentiated quantity
    loss: float  # reported downstream loss (estimate for sampling methods)
    metric: float  # the log's metric column for this example
    grads: dict
    calls: int
    support: int
    signature: tuple
    certificate: bool | None = None


def _on_support(dist, values) -> np.ndarray:
    """Dense length-``dist.dim`` vector holding ``values`` on the support."""
    full = np.zeros(dist.dim)
    full[dist.indices] = values
    return full


def _categorical_pass(model: ToyCategoricalModel, x, y: int, cfg: TrainConfig,
                      rng=None, baseline: MovingAverageBaseline | None = None):
    """One example: forward, loss calls, hand gradients.

    The dense and sparse methods marginalize exactly over the mapping's
    support; sfe and sum_and_sample are the library estimators and need
    ``rng`` (sfe also the running ``baseline``).  Returns the pass record and the
    baseline, updated when sfe drew a sample.
    """
    K = model.n_messages
    s = model.scores(x)
    oracle = LossOracle(lambda z: model.label_loss(int(z), y))
    coef = cfg.entropy_coef
    support = np.arange(K)

    if cfg.method in ("dense", "sparse"):
        if cfg.method == "dense":
            q = softmax(s)
        else:
            dist = sparsemax(s)
            q = dist.probs
            support = dist.indices
        values = np.array([oracle.eval(z) for z in support])
        outcomes, weights = support, q
        loss = float(q @ values)
        objective = loss + coef * float(q @ np.log(q))
        upstream = values + coef * (np.log(q) + 1.0)
        if cfg.method == "dense":
            g_s = softmax_vjp(q, upstream)
        else:
            g_s = sparsemax_vjp(s, dist, _on_support(dist, upstream))
    else:
        if cfg.method == "sfe":
            est, baseline = sfe_grad(s, oracle, baseline, rng)
        elif cfg.method == "sum_and_sample":
            est = sum_and_sample_grad(s, oracle, cfg.k, rng)
        else:
            raise ValueError("unknown categorical method %r" % cfg.method)
        q = est.probs
        g_s = est.grad + coef * softmax_vjp(q, np.log(q) + 1.0)
        outcomes, weights = est.outcomes, est.weights
        objective = loss = est.loss

    grads = model.zero_grads()
    grads["enc_w"] += np.outer(g_s, x)
    grads["enc_b"] += g_s
    # One decoder softmax per row serves both the posterior-mixture
    # prediction and, for evaluated outcomes, the label-logit gradient.
    label_weight = dict(zip(outcomes.tolist(), weights))
    mixture = np.zeros(model.dec_w.shape[1])
    for qz, z in zip(q, support.tolist()):
        probs_z = np.exp(_log_softmax(model.dec_w[z]))
        mixture += qz * probs_z
        if z in label_weight:
            probs_z[y] -= 1.0
            grads["dec_w"][z] += label_weight[z] * probs_z
    out = _ExamplePass(
        objective=objective,
        loss=loss,
        metric=float(int(np.argmax(mixture)) == y),
        grads=grads,
        calls=oracle.calls,
        support=support.size,
        signature=tuple(support.tolist()),
    )
    return out, baseline


def _bitvec_pass(model: ToyBitVectorVAE, x, cfg: TrainConfig) -> _ExamplePass:
    """One image: posterior over bit-vectors, negative ELBO, hand gradients.

    The differentiated objective is sum_z q_z c_z - H(q) with
    c_z = D log 2 + recon(z); its score gradient is the mapping vjp of
    c + log q + 1 (the constant washes out through every mapping here).
    """
    D = model.d
    t = model.var_scores(x)
    method = cfg.method
    certificate = None

    if method == "topk":
        if cfg.k < 1:
            raise ValueError("topk needs k >= 1")
        structs = kbest(t, cfg.k)
        u = np.array([st.score for st in structs])
        dist = sparsemax(u)
        q = dist.probs
        bits_mat = np.array([structs[i].bits for i in dist.indices], dtype=np.float64)
        ids = [structs[i].index for i in dist.indices]
        certificate = dist.support_size < cfg.k
    elif method in ("dense", "sparse"):
        if D > _ENUM_LIMIT:
            raise ValueError("enumeration methods need D <= %d" % _ENUM_LIMIT)
        A = config_matrix(D)
        u = A @ t
        if method == "dense":
            q = softmax(u)
            bits_mat = A
            ids = list(range(A.shape[0]))
        else:
            dist = sparsemax(u)
            q = dist.probs
            bits_mat = A[dist.indices]
            ids = [int(i) for i in dist.indices]
    elif method in ("sparsemap", "sparsemap_budget"):
        if method == "sparsemap":
            polytope = BitVectorPolytope(D)
        else:
            budget = cfg.budget if cfg.budget else max(1, D // 2)
            polytope = BudgetedBitVectorPolytope(D, budget)
        res = sparsemap(polytope, t)
        q = res.probs
        bits_mat = res.rows
        ids = [int(i) for i in res.outcome_ids]
    else:
        raise ValueError("unknown bit-vector method %r" % method)

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
        g_t = bits_mat.T @ sparsemax_vjp(u, dist, _on_support(dist, up))[dist.indices]
    else:
        g_t = sparsemap_vjp_probs(res, up)

    grads = model.zero_grads()
    grads["enc_w"] += np.outer(g_t, x)
    grads["enc_b"] += g_t
    for qz, row, d in zip(q, bits_mat, dlogits):
        grads["dec_w"] += qz * np.outer(d, row)
        grads["dec_b"] += qz * d

    return _ExamplePass(
        objective=neg_elbo,
        loss=neg_elbo,
        metric=neg_elbo,
        grads=grads,
        calls=oracle.calls,
        support=q.size,
        signature=tuple(sorted(ids)),
        certificate=certificate,
    )


def _check_method(task: str, method: str):
    allowed = CATEGORICAL_METHODS if task == "categorical" else BITVEC_METHODS
    if method not in allowed:
        raise ValueError(
            "method %r is not valid for the %s task (choose from %s)"
            % (method, task, ", ".join(allowed))
        )


def _params_finite(model) -> bool:
    return all(np.all(np.isfinite(getattr(model, key))) for key in model.zero_grads())


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


def _initial_loss(n: int, example_pass) -> float:
    total = 0.0
    for i in range(n):
        total += example_pass(i).loss
    return total / n


def _train(task: str, model, n: int, cfg: TrainConfig, eval_cfg: TrainConfig, example_pass):
    """Minibatch SGD over ``n`` examples, reshuffled every epoch.

    ``example_pass(i, config, rng)`` returns the pass record of example
    ``i``; ``rng`` is the generator that also draws the shuffles.  The
    initial loss is the mean loss under ``eval_cfg`` before any update.
    """
    log = TrainingLog(task=task, config=cfg,
                      initial_loss=_initial_loss(n, lambda i: example_pass(i, eval_cfg, None)))
    rng = make_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        stats = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            grads = model.zero_grads()
            for i in batch:
                out = example_pass(i, cfg, rng)
                for key in grads:
                    grads[key] += out.grads[key]
                stats.append((out.loss, out.metric, out.calls, out.support, out.certificate))
            for key in grads:
                grads[key] /= len(batch)
            model.sgd_update(grads, cfg.lr)
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
    _check_method("categorical", cfg.method)
    eval_cfg = TrainConfig(method="dense" if cfg.method != "sparse" else "sparse",
                           entropy_coef=cfg.entropy_coef)
    baseline = MovingAverageBaseline(decay=cfg.baseline_decay)

    def example_pass(i, config, rng):
        nonlocal baseline
        out, baseline = _categorical_pass(
            model, data.features[i], int(data.labels[i]), config, rng, baseline
        )
        return out

    return _train("categorical", model, data.features.shape[0], cfg, eval_cfg, example_pass)


def train_bitvec_vae(model: ToyBitVectorVAE, data: BitImageData, cfg: TrainConfig) -> TrainingLog:
    """SGD on the bit-vector autoencoder; one log row per epoch.

    Loss and metric columns are both the mean negative ELBO.  For the
    topk mapping each row also records the fraction of examples whose
    certificate held (support strictly below k).
    """
    _check_method("bitvec", cfg.method)

    def example_pass(i, config, rng):
        return _bitvec_pass(model, data.images[i], config)

    return _train("bitvec", model, data.images.shape[0], cfg, cfg, example_pass)


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
