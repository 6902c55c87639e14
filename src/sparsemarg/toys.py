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

import time
from dataclasses import dataclass, field

import numpy as np

from .activeset import _solve as _sparsemap_solve
from .activeset import _vjp as _sparsemap_vjp
from .bitvec import BitVectorPolytope, BudgetedBitVectorPolytope, config_matrix, kbest_rows
from .estimators import MovingAverageBaseline, sfe_rows, sum_and_sample_rows
from .marginalize import CallStats, LossOracle
from .rng import make_rng
from .simplex import (RowSupports, _log_softmax, _row_dots, _sparsemax_rows, _sparsemax_vjp_pairs,
                      softmax, softmax_vjp, sparsemax_rows, sparsemax_vjp_rows)

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
_LOSS_BLOCK = 1 << _ENUM_LIMIT  # most rows one loss evaluation reads: one dense example


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
    # Wall seconds of the initial-loss pass and of each epoch in ``rows``:
    # timings, so not part of a log's equality.
    initial_loss_s: float = field(default=0.0, compare=False)
    epoch_s: list = field(default_factory=list, compare=False)


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


def _encode(model, x) -> np.ndarray:
    """``enc_w @ x + enc_b`` for one input, or for each row of a batch.

    A stacked product runs the matrix-vector kernel once per row, so
    every row has the bits of ``enc_w @ row`` taken alone.
    """
    with np.errstate(invalid="ignore"):  # +inf and -inf in one input: the guard sees NaN
        return np.matmul(model.enc_w, np.asarray(x)[..., None])[..., 0] + model.enc_b


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

    def sgd_update(self, grads, lr: float, batch_size: int = 1) -> bool:
        """Step each parameter, in place, by ``-lr`` times its gradient
        ``grads[key] / batch_size`` (``grads`` may hold sums over a batch),
        and return whether every parameter is still finite.

        One pass over the parameters; every one of them is stepped, even
        after one has left the finite range.
        """
        finite = True
        for key in self.PARAMS:
            param = getattr(self, key)
            step = grads[key] / batch_size
            step *= lr
            param -= step
            finite = finite and np.isfinite(param).all()
        return bool(finite)


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
        """Message scores of one feature vector, or of each row of a batch
        (:func:`_encode`)."""
        return _encode(self, x)

    def label_loss(self, z, y):
        """Cross-entropy of label ``y`` under message ``z``'s decoder.

        Elementwise over arrays of (z, y), broadcast together, or over
        slices of either axis (two full slices give the whole table); the
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
        """Variable scores of one image, or of each row of a batch
        (:func:`_encode`)."""
        return _encode(self, x)

    def _recon(self, bits, x):
        """The reconstruction loss of ``x`` from latent ``bits`` and the
        decoder outputs it read: the residual for ``squared``, the logits
        for ``bernoulli``.

        Elementwise over the rows of an (S, D) stack of ``bits``, each with
        the bits of that row alone: the decoder product and the dots are
        stacked per-row products, not one matrix product.
        """
        out = np.matmul(self.dec_w, bits[..., None])[..., 0] + self.dec_b
        if self.recon == "squared":
            resid = out - x
            return 0.5 * _row_dots(resid, resid), resid
        # Bernoulli negative log-likelihood with logits: softplus(out) - x * out.
        return np.logaddexp(0.0, out).sum(axis=-1) - _row_dots(out, x), out

    def recon_loss(self, bits, x):
        """The reconstruction loss of :meth:`recon_loss_and_dlogits`, with
        its bits, without the gradient."""
        return self._recon(bits, x)[0]

    def recon_loss_and_dlogits(self, bits, x):
        """Reconstruction loss of ``x`` from latent ``bits`` and its
        gradient with respect to the decoder outputs, row by row as
        :meth:`_recon` reads them.
        """
        val, out = self._recon(bits, x)
        if self.recon == "squared":
            return val, out
        # The Bernoulli gradient is sigmoid(out) - x.  Below about -709,
        # exp(-out) overflows to inf and the sigmoid is the 0.0 it should
        # be, so the overflow is no error.
        with np.errstate(over="ignore"):
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

    ``columns`` holds the examples' log entries as five columns in batch
    order: loss, metric, calls and support arrays, and a list of
    certificates, or None where no example has one.  ``objectives`` holds
    each example's differentiated objective, in batch order.  ``grads``
    holds the sums of the per-example gradients, or None when the divergence guard tripped: a non-finite
    score, or a zero probability whose log the objective would take.
    The categorical pass also returns the (B, K) probabilities, the
    bit-vector pass each example's (support, D) bit rows.  The
    gradient-free pass fills only ``losses`` and ``posterior``, the parts
    of what its mapping gave each example, in batch order.  A tripped
    guard gives :meth:`diverged`, in either pass: NaN losses and no
    gradients or posterior.
    """

    columns: tuple | None
    grads: dict | None
    objectives: np.ndarray | None = None
    probs: np.ndarray | None = None
    rows: list | None = None
    losses: np.ndarray | None = None
    posterior: tuple | None = None

    @classmethod
    def diverged(cls, size: int) -> "_BatchPass":
        return cls(None, None, losses=np.full(size, np.nan))


def _take(parts, positions) -> tuple:
    """The entries of each posterior part, an array or a list, at ``positions``."""
    return tuple(part[positions] if isinstance(part, np.ndarray)
                 else [part[i] for i in positions.tolist()] for part in parts)


def _ordered_sum(terms):
    """Sum ``terms`` along the first axis in index order, as repeated
    ``+=`` into zeros.

    On a C-ordered stack a sum reduction over the leading axis starts from
    zeros and adds one whole slice at a time, which is that loop.  Two
    layouts make it add pairwise instead, so they are avoided: a view
    whose summed axis is its contiguous one is copied C-ordered first, and
    a sum to a single entry, along its only axis, goes through one
    ``cumsum``; adding 0.0 first turns -0.0 into +0.0, as the zeros would.
    """
    terms = np.ascontiguousarray(terms)
    if terms.size == len(terms):
        return np.cumsum(terms + 0.0, axis=0)[-1]
    return np.add.reduce(terms, axis=0, initial=0.0)


def _ordered_outer_sum(a, b):
    """The sum over z of outer(a[z, ..., :], b[z, ..., :]), in index order:
    the :func:`_ordered_sum` of ``a[..., :, None] * b[..., None, :]``, with
    the same bits and without that stack.

    On C-ordered operands an ``einsum`` zero-fills its output and adds
    each z's products into it in turn.  A result of a single entry would
    be a dot product, which adds pairwise, so it takes the stack.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a[0].size * b.shape[-1] == 1:
        return _ordered_sum(a[..., :, None] * b[..., None, :])
    return np.einsum("z...i,z...j->...ij", a, b)


def _categorical_batch(model: ToyCategoricalModel, features, labels, batch, cfg: TrainConfig,
                       rng=None, baseline: MovingAverageBaseline | None = None, *,
                       loss_only: bool = False, posterior: tuple | None = None):
    """One minibatch: forward, loss reads, hand gradients summed in example order.

    The dense and sparse methods marginalize exactly over the mapping's
    support, read through :class:`RowSupports`: one sweep of each support
    size's run gives the loss and entropy dots and, for sparse, each
    row's support mean of the upstream, which its vjp subtracts.  The
    guard has tested the scores, so the sparsemax kernels run unchecked.
    sfe and sum_and_sample are the library's row estimators, called once on the batch's score
    matrix with ``rng`` (sfe also with the running ``baseline``), which
    draw and advance the baseline in example order.  The mappings and
    vjps are the library's row kernels, the scores a stacked product (the
    GEMV of ``enc_w @ x`` per row), and the sums over examples, and the
    mixture's over messages, are one reduction or contraction each that
    adds in index order (:func:`_ordered_sum`,
    :func:`_ordered_outer_sum`), so every per-example quantity has the
    bits a batch of one gives.  Returns the batch record and the baseline,
    updated when sfe drew samples.  Callers check ``cfg.method`` first.

    Two keywords serve :func:`_train`, for dense and sparse.  With
    ``loss_only``, this is the gradient-free pass: it stops at the
    losses.  ``posterior`` is these examples' ``(q,)`` from that pass,
    taken in place of mapping them again.
    """
    K = model.n_messages
    method = cfg.method
    coef = cfg.entropy_coef
    y = np.asarray(labels)[batch]
    B = y.size
    X = features[batch]
    s = model.scores(X)
    if not np.isfinite(s).all():
        return _BatchPass.diverged(B), baseline
    # Every message's loss for every label, read whole through two slices
    # with no gather; the decoder softmax is its exp.
    losses = model.label_loss(slice(None), slice(None))
    dec = np.exp(-losses)
    if posterior is not None:
        (q,) = posterior
    elif method == "sparse":
        q = _sparsemax_rows(s)[0]  # past the guard: the scores are finite
    elif method == "dense":
        q = softmax(s)
    else:  # sfe or sum_and_sample; q is the estimators' own softmax
        oracle = LossOracle(lambda pairs: losses[pairs[1], y[pairs[0]]])
        if method == "sfe":
            est, baseline = sfe_rows(s, oracle, baseline, rng)
        else:
            est = sum_and_sample_rows(s, oracle, cfg.k, rng)
        q, g_s, loss = est.probs, est.grad, est.loss
        weights = np.zeros((B, K))
        weights[est.rows, est.outcomes] = est.weights
        calls = np.bincount(est.rows, minlength=B)
    if method != "sparse" and not (q > 0).all():  # the entropy term would take log(0)
        return _BatchPass.diverged(B), baseline

    if method in ("dense", "sparse"):
        supports = RowSupports.of(q)  # every outcome for dense, past the guard
        rows, outcomes, calls = supports.rows, supports.outcomes, supports.sizes
        oracle = LossOracle(lambda z: losses[z, y[rows]])
        values = oracle.eval_many(outcomes)
        probs = q[rows, outcomes]
        log_probs = np.log(probs)
        if loss_only:
            loss, _ = supports.dots(probs, values, log_probs)
            return _BatchPass(None, None, losses=loss, posterior=(q,)), baseline
        u = values + coef * (log_probs + 1.0)  # the upstream on the support
        # One read of each support size's run: the loss and entropy dots
        # and, for sparsemax, the support mean of u.
        terms = (probs, values, log_probs) + ((u,) if method == "sparse" else ())
        (loss, entropy), mean = supports.sweep(np.array(terms), 2)
        objective = loss + coef * entropy
        if method == "sparse":
            g_s = _sparsemax_vjp_pairs(supports, u, mean[0])
        else:
            upstream = np.zeros((B, K))
            upstream[rows, outcomes] = u
            g_s = softmax_vjp(q, upstream)
        weights = q
    else:
        g_s += coef * softmax_vjp(q, np.log(q) + 1.0)
        objective = loss

    onehot = np.arange(dec.shape[1]) == y[:, None]  # a bool subtracts as 1.0 and 0.0
    grads = {
        "enc_w": _ordered_outer_sum(g_s, X),
        "enc_b": _ordered_sum(g_s),
        "dec_w": _ordered_outer_sum(weights[:, :, None], dec - onehot[:, None, :])[:, 0],
    }
    mixture = _ordered_outer_sum(q.T, dec)  # summed over messages
    metric = (mixture.argmax(axis=1) == y).astype(np.float64)
    support = calls if method in ("dense", "sparse") else np.full(B, K)
    return _BatchPass((loss, metric, calls, support, None), grads, objective, q), baseline


def _blocks(sizes, limit: int):
    """(lo, hi) bounds that cut ``sizes`` into runs of consecutive entries
    summing to at most ``limit``; an entry past ``limit`` is a run alone."""
    lo, total = 0, 0
    for hi, size in enumerate(sizes):
        if total + size > limit and hi > lo:
            yield lo, hi
            lo, total = hi, 0
        total += size
    yield lo, len(sizes)


def _decoder_weight_terms(w, rows, dec_b, out):
    """Each example's decoder-weight gradient, the sum of outer(w_z, row_z)
    over its outcomes z in order, written to the (n, P, D) ``out`` up to
    the sign of its zeros.

    ``w`` is (n, S, P), ``rows`` the (n, S, D) 0/1 bit rows and ``dec_b``
    the (n, P) ordered sums of ``w`` over z.  Examples with fewer outcomes
    are padded with zero weights and copies of a real row.  A sum in
    order from +0.0 never holds -0.0, so a zero term of either sign leaves
    its bits unchanged: padding adds nothing, and the batch sum of these
    gradients has the bits of the exact ones.  Rows are 0/1, so a column
    set in every row of an example is its ``dec_b``, a column set in none
    a zero, and only the mixed columns need the outer terms.  They are
    gathered to the front of each example and summed over the outcomes
    by one contraction into an (n, columns, P) sum
    (:func:`_ordered_outer_sum`), so no stack of terms is built, however
    many outcomes there are (2^D for dense).
    """
    n, S = w.shape[:2]
    first = rows[:, 0]
    # One product per entry, as a broadcast multiply makes, in half its time.
    np.einsum("bp,bd->bpd", dec_b, first, out=out)
    e, c = np.nonzero((rows != first[:, None, :]).any(axis=1))
    if e.size:
        width = np.bincount(e, minlength=n)
        j = np.arange(e.size) - np.repeat(np.cumsum(width) - width, width)
        picked = np.zeros((S, n, width.max()))
        picked[:, e, j] = rows[e, :, c].T
        out[e, :, c] = _ordered_outer_sum(picked, w.transpose(1, 0, 2))[e, j]


def _bitvec_batch(model: ToyBitVectorVAE, images, batch, cfg: TrainConfig, *,
                  loss_only: bool = False, posterior: tuple | None = None) -> _BatchPass:
    """One minibatch of images: posterior over bit-vectors, negative ELBO,
    hand gradients summed in example order.

    The differentiated objective is sum_z q_z c_z - H(q) with
    c_z = D log 2 + recon(z); its score gradient is the mapping vjp of
    c + log q + 1 (the constant washes out through every mapping here).
    The variable scores are one stacked product, and every method lays
    out its posterior as (B, K) probabilities over K bit rows, a (K, D)
    matrix shared by the batch (dense, sparse) or one per example (topk's
    k best from :func:`kbest_rows`, sparsemap's supports as one solve's
    left-packed arrays, padded with zeros).  The loss
    reads each block of consecutive examples of at most ``_LOSS_BLOCK``
    rows in one ``eval_many`` call.  Within a block the supports are
    grouped by size (:class:`RowSupports`): each size's examples take
    their neg-ELBO dots and encoder terms as one stacked step, and the
    decoder sums run once on the block padded to its largest support
    (:func:`_decoder_weight_terms`).  The sums over examples are then one
    reduction or contraction each that adds in batch order
    (:func:`_ordered_sum`, :func:`_ordered_outer_sum`), so every quantity
    keeps the bits of a batch of one.
    Callers check ``cfg`` against D first (:func:`_check_config`).

    ``loss_only`` and ``posterior`` serve :func:`_train` as in
    :func:`_categorical_batch`.  The posterior is ``(probs,)`` for dense
    and sparse, ``(bits, probs, certificates)`` for topk and the solve's
    ``(probs, rows, converged)`` for the SparseMAP methods.
    """
    D = model.d
    method = cfg.method
    X = images[np.asarray(batch)]
    B = X.shape[0]
    T = model.var_scores(X)
    if not np.isfinite(T).all():
        return _BatchPass.diverged(B)
    if posterior is None:
        if method == "topk":
            configs, scores = kbest_rows(T, cfg.k)
            probs = sparsemax_rows(scores)  # the k' <= k best: no mask to apply
            posterior = configs, probs, (probs > 0).sum(axis=1) < cfg.k
        elif method in ("dense", "sparse"):
            scores = np.matmul(config_matrix(D), T[:, :, None])[..., 0]  # A @ t's GEMV per row
            posterior = (softmax(scores) if method == "dense" else sparsemax_rows(scores),)
        else:
            polytope = (BitVectorPolytope(D) if method == "sparsemap" else
                        BudgetedBitVectorPolytope(D, cfg.budget if cfg.budget else max(1, D // 2)))
            solved = _sparsemap_solve(polytope, T)
            posterior = solved.probs, solved.rows, solved.converged
            if loss_only and not all(solved.converged):
                # The vjp this pass skips refuses such a result; raise as it would.
                raise ValueError("backward pass requires a converged result")
    if method == "dense" and not (posterior[0] > 0).all():
        return _BatchPass.diverged(B)
    certificates = None
    converged = None
    if method == "topk":
        configs, probs, certificates = posterior
        certificates = certificates.tolist()
    elif method in ("dense", "sparse"):
        configs, (probs,) = config_matrix(D), posterior
    else:
        probs, configs, converged = posterior

    dlogits = []

    def neg_log_joint(outcomes):
        bits, x = outcomes  # one (bit row, image) pair per outcome
        if loss_only:
            return D * np.log(2.0) + model.recon_loss(bits, x)
        recon, d = model.recon_loss_and_dlogits(bits, x)
        dlogits.append(d)
        return D * np.log(2.0) + recon

    oracle = LossOracle(neg_log_joint)
    sizes = (probs > 0).sum(axis=1)
    neg_elbo = np.empty(B)
    if not loss_only:
        g_t, support_rows = np.empty((B, D)), [None] * B
        dec_b, dec_w = np.empty((B,) + model.dec_b.shape), np.empty((B,) + model.dec_w.shape)
    for lo, hi in _blocks(sizes.tolist(), _LOSS_BLOCK):
        supports = RowSupports.of(probs[lo:hi])
        on = lo + supports.rows, supports.outcomes
        rows = (configs[on[1]] if configs.ndim == 2 else configs[on]).astype(np.float64,
                                                                             copy=False)
        c = oracle.eval_many((rows, X[on[0]]))
        q = probs[on]
        log_q = np.log(q)
        dots = supports.dots(q, c, log_q)
        neg_elbo[lo:hi] = dots[0] + dots[1]
        if loss_only:
            continue
        w = q[:, None] * dlogits.pop()
        upstream = np.zeros(supports.shape)
        upstream[supports.rows, supports.outcomes] = c + log_q + 1.0
        if converged is not None:
            g_t[lo:hi] = _sparsemap_vjp(configs[lo:hi], sizes[lo:hi].tolist(), converged[lo:hi],
                                        upstream)
        else:
            g = (softmax_vjp(probs[lo:hi], upstream) if method == "dense"
                 else sparsemax_vjp_rows(supports, upstream))[supports.rows, supports.outcomes]
        # Each size's examples as one (n, S) block, and every example
        # padded to the block's largest support for the decoder sums.
        S_max = int(sizes[lo:hi].max())
        W, R = np.zeros((hi - lo, S_max, w.shape[1])), np.empty((hi - lo, S_max, D))
        for examples, start, stop, (n, S) in supports.runs:
            R_run = rows[start:stop].reshape(n, S, D)
            W[examples, :S] = w[start:stop].reshape(n, S, -1)
            R[examples, :S] = R_run
            R[examples, S:] = R_run[:, :1]
            if converged is None:  # through the rows, R^T g: a GEMV per example
                g_t[lo + examples] = np.matmul(R_run.transpose(0, 2, 1),
                                               g[start:stop].reshape(n, S, 1))[..., 0]
            for e, r in zip((lo + examples).tolist(), R_run):
                support_rows[e] = r
        dec_b[lo:hi] = _ordered_sum(W.transpose(1, 0, 2))
        _decoder_weight_terms(W, R, dec_b[lo:hi], dec_w[lo:hi])
    assert sizes.sum() == oracle.calls
    if loss_only:
        return _BatchPass(None, None, losses=neg_elbo, posterior=posterior)
    grads = {"dec_w": _ordered_sum(dec_w), "dec_b": _ordered_sum(dec_b),
             "enc_w": _ordered_outer_sum(g_t, X), "enc_b": _ordered_sum(g_t)}
    return _BatchPass((neg_elbo, neg_elbo, sizes, sizes, certificates), grads, neg_elbo,
                      rows=support_rows)


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
        ("lr", cfg.lr, bool(np.isfinite(cfg.lr)) and cfg.lr >= 0, "finite and at least 0"),
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


def _mean(values) -> float:
    """The mean of a nonempty sequence of floats with the bits of
    ``np.mean``: one pairwise sum, divided by the count."""
    return float(np.add.reduce(np.array(values, dtype=np.float64)) / len(values))


def _finish_epoch(epoch, columns) -> EpochRow:
    """The log row of an epoch from its batches' (loss, metric, calls,
    support, certificate) columns (:class:`_BatchPass`), joined in order;
    certificates that are None are left out of ``cert_frac``, which is
    None when all are."""
    losses, metrics, calls, supports = (np.concatenate(column)
                                        for column in list(zip(*columns))[:4])
    certs = [float(c) for batch in columns if batch[4] is not None
             for c in batch[4] if c is not None]
    return EpochRow(
        epoch=epoch,
        loss=_mean(losses),
        metric=_mean(metrics),
        calls=CallStats.from_counts(calls),
        support_mean=_mean(supports),
        support_max=int(supports.max()),
        cert_frac=_mean(certs) if certs else None,
    )


def _initial_loss(n: int, batch_size: int, width: int, loss_pass):
    """The mean loss of the ``n`` examples, from gradient-free passes
    ``loss_pass(indices)`` over them in order, and the posterior parts of
    all ``n`` when one pass held them all and did not trip, else None.

    Each pass takes whole runs of ``batch_size`` examples, as many as keep
    its posterior within ``_LOSS_BLOCK`` rows at ``width`` rows an
    example, and at least one, so the memory a pass holds does not grow
    with ``n``.  Every loss has the bits of a batch of one and adds in
    example order from 0.0, as the sum of a loop over batches of
    ``batch_size`` would.  A pass whose divergence guard trips, or that
    raises, is run again one run at a time, in order, as that loop would
    run them: a tripped run's losses are NaN, and the first run that
    raises raises; if none raises alone, the pass's own error is raised.
    """
    examples = np.arange(n)
    chunk = batch_size * max(1, _LOSS_BLOCK // (batch_size * width))

    def by_runs(part):
        return np.concatenate([loss_pass(part[start:start + batch_size]).losses
                               for start in range(0, part.size, batch_size)])

    total = 0.0
    for lo in range(0, n, chunk):
        part = examples[lo:lo + chunk]
        try:
            out = loss_pass(part)
        except Exception:
            by_runs(part)
            raise
        losses = out.losses if out.posterior is not None else by_runs(part)  # tripped
        for loss in losses.tolist():
            total += loss
    return total / n, out.posterior if chunk >= n else None


def _train(task: str, model, n: int, width: int, cfg: TrainConfig, eval_cfg: TrainConfig,
           batch_pass):
    """Minibatch SGD over ``n`` examples, reshuffled every epoch.

    ``batch_pass(indices, config, rng, loss_only=False, posterior=None)``
    returns the :class:`_BatchPass` of those examples; ``rng`` is the
    generator that also draws the shuffles.  The initial loss is the mean
    loss under ``eval_cfg`` before any update, from gradient-free passes
    over all ``n`` examples, ``width`` posterior rows each
    (:func:`_initial_loss`).  Those passes draw nothing, so epoch 1's
    order is drawn first, and when ``eval_cfg`` has ``cfg``'s method and
    one pass held every example, the first batch of epoch 1, at the same
    parameters, takes its examples' posterior from that pass instead of
    mapping them again.  A batch whose divergence guard trips, or an
    update that leaves a parameter non-finite, ends training with the log
    marked diverged.  The log holds the wall seconds of the initial pass
    and of each epoch.
    """
    rng = make_rng(cfg.seed)
    order = rng.permutation(n) if cfg.epochs else None
    started = time.perf_counter()
    initial_loss, reused = _initial_loss(
        n, cfg.batch_size, width, lambda batch: batch_pass(batch, eval_cfg, None, loss_only=True))
    if reused is not None:
        reused = (_take(reused, order[:cfg.batch_size])
                  if order is not None and eval_cfg.method == cfg.method else None)
    log = TrainingLog(task=task, config=cfg, initial_loss=initial_loss,
                      initial_loss_s=time.perf_counter() - started)
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        if epoch > 1:
            order = rng.permutation(n)
        columns = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            out = batch_pass(batch, cfg, rng, posterior=reused)
            reused = None
            if out.grads is None:
                log.diverged = True
                return log
            columns.append(out.columns)
            if not model.sgd_update(out.grads, cfg.lr, len(batch)):
                log.diverged = True
                return log
        row = _finish_epoch(epoch, columns)
        log.epoch_s.append(time.perf_counter() - started)
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
    baseline = MovingAverageBaseline()

    def batch_pass(batch, config, rng, **keywords):
        nonlocal baseline
        out, baseline = _categorical_batch(
            model, data.features, data.labels, batch, config, rng, baseline, **keywords
        )
        return out

    return _train("categorical", model, data.features.shape[0], model.n_messages, cfg, eval_cfg,
                  batch_pass)


def train_bitvec_vae(model: ToyBitVectorVAE, data: BitImageData, cfg: TrainConfig) -> TrainingLog:
    """SGD on the bit-vector autoencoder; one log row per epoch.

    Loss and metric columns are both the mean negative ELBO.  For the
    topk mapping each row also records the fraction of examples whose
    certificate held (support strictly below k).
    """
    _check_config("bitvec", cfg, data.images.shape[0], model.d)
    D = model.d
    # Posterior rows per example: every configuration, the k best, or a
    # SparseMAP support of at most D + 1 vertices.
    width = {"dense": 1 << D, "sparse": 1 << D, "topk": min(cfg.k, 1 << D)}.get(cfg.method, D + 1)
    return _train("bitvec", model, data.images.shape[0], width, cfg, cfg,
                  lambda batch, config, rng, **keywords: _bitvec_batch(
                      model, data.images, batch, config, **keywords))


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
