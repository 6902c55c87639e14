"""End-to-end training tasks: gradients, call accounting, invariants."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemarg import toys
from sparsemarg.activeset import sparsemap, sparsemap_vjp_probs
from sparsemarg.bitvec import BitVectorPolytope, BudgetedBitVectorPolytope, config_matrix, kbest
from sparsemarg.estimators import MovingAverageBaseline
from sparsemarg.marginalize import CallStats, LossOracle
from sparsemarg.rng import make_rng
from sparsemarg.simplex import softmax, softmax_vjp, sparsemax, sparsemax_vjp
from sparsemarg.topk import top_k
from sparsemarg.toys import (
    BITVEC_METHODS,
    CATEGORICAL_METHODS,
    BitImageData,
    ClusterData,
    EpochRow,
    ToyBitVectorVAE,
    ToyCategoricalModel,
    TrainConfig,
    make_bitvec_images,
    make_cluster_data,
    model_grad_check,
    train_bitvec_vae,
    train_categorical,
)
from sparsemarg.simplex import _row_dots
from sparsemarg.toys import (
    _bitvec_batch,
    _categorical_batch,
    _decoder_weight_terms,
    _ordered_outer_sum,
    _ordered_sum,
)


def _small_cluster_data(n=64, seed=0):
    return make_cluster_data(n=n, n_clusters=4, feat_dim=8, seed=seed)


def test_zero_epoch_run_returns_initial_loss():
    data = _small_cluster_data()
    model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=1)
    cfg = TrainConfig(method="sparse", epochs=0, seed=0)
    log = train_categorical(model, data, cfg)
    assert log.rows == []
    assert np.isfinite(log.initial_loss)
    again = train_categorical(
        ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=1),
        data,
        cfg,
    )
    assert again.initial_loss == log.initial_loss


def test_method_task_validation():
    data = _small_cluster_data()
    model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8)
    with pytest.raises(ValueError):
        train_categorical(model, data, TrainConfig(method="topk", epochs=1))
    images = make_bitvec_images(n=8, d=4)
    vae = ToyBitVectorVAE.init(d=4, n_pixels=36)
    with pytest.raises(ValueError):
        train_bitvec_vae(vae, images, TrainConfig(method="sfe", epochs=1))


def test_dense_uses_all_calls_sparse_fewer():
    data = _small_cluster_data()
    dense = train_categorical(
        ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=2),
        data,
        TrainConfig(method="dense", epochs=3, seed=5),
    )
    assert all(r.calls.mean == 4.0 for r in dense.rows)
    sparse = train_categorical(
        ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=2),
        data,
        TrainConfig(method="sparse", epochs=3, seed=5),
    )
    assert sparse.rows[-1].calls.mean <= 4.0
    assert all(1.0 <= r.calls.mean for r in sparse.rows)


def test_sampling_methods_run_and_count_calls():
    data = _small_cluster_data()
    sfe = train_categorical(
        ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=3),
        data,
        TrainConfig(method="sfe", epochs=2, seed=5),
    )
    assert all(r.calls.mean == 1.0 for r in sfe.rows)
    sas = train_categorical(
        ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=3),
        data,
        TrainConfig(method="sum_and_sample", epochs=2, seed=5, k=2),
    )
    assert all(r.calls.mean <= 3.0 for r in sas.rows)
    assert np.isfinite(sas.rows[-1].loss)


@pytest.mark.filterwarnings("error")
def test_divergence_guard_aborts():
    data = _small_cluster_data()
    model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=4)
    log = train_categorical(model, data, TrainConfig(method="dense", epochs=50, lr=1e12, seed=0))
    assert log.diverged
    assert len(log.rows) < 50


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", CATEGORICAL_METHODS)
def test_divergence_guard_flags_non_finite_scores(method):
    data = _small_cluster_data()
    model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=4)
    model.enc_b[1] = np.nan
    log = train_categorical(model, data, TrainConfig(method=method, epochs=3, seed=0, k=2))
    assert log.diverged
    assert log.rows == []
    assert np.isnan(log.initial_loss)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", BITVEC_METHODS)
def test_bitvec_divergence_guard_flags_non_finite_scores(method):
    images = make_bitvec_images(n=8, d=4, seed=12)
    model = ToyBitVectorVAE.init(d=4, n_pixels=36, seed=13)
    model.enc_b[1] = np.nan
    log = train_bitvec_vae(model, images, TrainConfig(method=method, epochs=3, seed=0, k=2))
    assert log.diverged
    assert log.rows == []
    assert np.isnan(log.initial_loss)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, method", [("categorical", m) for m in CATEGORICAL_METHODS]
                         + [("bitvec", m) for m in BITVEC_METHODS])
def test_divergence_guard_flags_an_input_holding_both_infinities(task, method):
    # +inf and -inf in one input give inf - inf = NaN inside the encoder's
    # product: the guard trips on that score, without an "invalid value"
    # warning from the product.
    if task == "categorical":
        data = _small_cluster_data()
        data.features[3, :2] = np.inf, -np.inf
        model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=4)
        train = train_categorical
    else:
        data = make_bitvec_images(n=8, d=4, seed=12)
        data.images[3, :2] = np.inf, -np.inf
        model = ToyBitVectorVAE.init(d=4, n_pixels=36, seed=13)
        train = train_bitvec_vae
    with np.errstate(invalid="ignore"):
        assert np.isnan(model.enc_w[:, :2] @ [np.inf, -np.inf]).any()
    log = train(model, data, TrainConfig(method=method, epochs=3, seed=0, k=2))
    assert log.diverged
    assert log.rows == []
    assert np.isnan(log.initial_loss)


def test_categorical_objective_rejects_sampling_methods_and_non_finite_scores():
    data = _small_cluster_data()
    model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=4)
    example = (data.features[0], data.labels[0])
    for method in ("sfe", "sum_and_sample"):
        with pytest.raises(ValueError, match="deterministic method"):
            model.objective_with_grad(example, TrainConfig(method=method, k=2))
    model.enc_b[1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        model.objective_with_grad(example, TrainConfig(method="sparse"))


@pytest.mark.filterwarnings("error")
def test_divergence_guard_flags_zero_dense_probability_on_bit_vectors():
    images = make_bitvec_images(n=8, d=4, seed=12)
    model = ToyBitVectorVAE.init(d=4, n_pixels=36, seed=13)
    model.enc_w[:] = 1e4  # scores far enough apart that softmax underflows to 0
    log = train_bitvec_vae(model, images, TrainConfig(method="dense", epochs=3, seed=0))
    assert log.diverged
    assert log.rows == []
    with pytest.raises(ValueError):
        model.objective_with_grad(images.images[0], TrainConfig(method="dense"))


def _entries(out):
    """A batch's log columns as the (loss, metric, calls, support,
    certificate) entry of each example, in batch order."""
    losses, metrics, calls, supports, certificates = out.columns
    if certificates is None:
        certificates = [None] * len(losses)
    return list(zip(losses.tolist(), metrics.tolist(), calls.tolist(), supports.tolist(),
                    certificates))


def _per_batch_initial_loss(batch_pass, n, batch_size):
    """The initial loss as a loop of the training pass, gradients and all,
    over batches of ``batch_size``: the reference for the gradient-free
    pass over the whole data set."""
    total = 0.0
    for start in range(0, n, batch_size):
        out = batch_pass(np.arange(start, min(start + batch_size, n)))
        # A tripped batch holds its NaN losses alone, no columns.
        for loss in (out.losses if out.columns is None else out.columns[0]).tolist():
            total += loss
    return total / n


def _outcome(run):
    """The repr of what ``run()`` returns, or the type and text of what it raises."""
    try:
        return repr(run())
    except Exception as exc:  # the error is the outcome compared
        return "%s: %s" % (type(exc).__name__, exc)


def _initial_loss_outcomes(task, method, inputs, batch_size):
    """A zero-epoch run's initial loss and the per-batch reference's, as
    outcomes, at the same parameters; ``inputs`` is an (n, width) array of
    features or images."""
    n = inputs.shape[0]
    cfg = TrainConfig(method=method, epochs=0, batch_size=batch_size, k=4, budget=3)
    if task == "categorical":
        labels = make_cluster_data(n=n, n_clusters=4, feat_dim=inputs.shape[1], seed=50).labels
        data = ClusterData(inputs, labels, 4)
        model = ToyCategoricalModel.init(n_messages=8, n_classes=4, feat_dim=inputs.shape[1],
                                         seed=51, scale=0.3)
        eval_cfg = TrainConfig(method="sparse" if method == "sparse" else "dense")
        reference = lambda batch: _categorical_batch(model, inputs, labels, batch, eval_cfg)[0]
        train = lambda: train_categorical(model, data, cfg).initial_loss
    else:
        data = BitImageData(inputs, 8, inputs.shape[1])
        model = ToyBitVectorVAE.init(d=8, n_pixels=inputs.shape[1], seed=52, scale=0.3)
        reference = lambda batch: _bitvec_batch(model, inputs, batch, cfg)
        train = lambda: train_bitvec_vae(model, data, cfg).initial_loss
    return _outcome(train), _outcome(lambda: _per_batch_initial_loss(reference, n, batch_size))


_TASK_METHODS = ([pytest.param("categorical", m, id="categorical_" + m)
                  for m in CATEGORICAL_METHODS]
                 + [pytest.param("bitvec", m, id="bitvec_" + m) for m in BITVEC_METHODS])


def _inputs(task, n=50):
    if task == "categorical":
        return make_cluster_data(n=n, n_clusters=4, feat_dim=8, seed=53).features.copy()
    return make_bitvec_images(n=n, d=8, seed=54).images.copy()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, method", _TASK_METHODS)
def test_initial_loss_has_the_bits_of_the_per_batch_loop(task, method):
    # One gradient-free pass over all examples must give the repr of the
    # loop over training batches, at 50 examples (a short last batch) and
    # with one batch holding them all; an image holding inf makes both NaN.
    inputs = _inputs(task)
    for batch_size in (1, 8, 16, 64):
        got, expected = _initial_loss_outcomes(task, method, inputs, batch_size)
        assert got == expected, batch_size
        assert np.isfinite(float(got))
    inputs[3, 2] = np.inf
    for batch_size in (1, 8, 64):
        assert _initial_loss_outcomes(task, method, inputs, batch_size) == ("nan", "nan")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, method", _TASK_METHODS)
def test_initial_loss_raises_or_is_nan_where_the_per_batch_loop_does(task, method):
    # An example scaled by 1e50 is too large for SparseMAP to resolve.  A
    # batch of 8 holding it beside a batch holding a non-finite example,
    # in either order, raises in the loop; in one batch with it, the
    # guard leaves it unsolved and the loss is NaN.
    outcomes = []
    for scaled, broken in ((2, 12), (12, 2), (2, 5)):
        inputs = _inputs(task)
        inputs[scaled] *= 1e50
        inputs[broken, 0] = np.nan
        got, expected = _initial_loss_outcomes(task, method, inputs, 8)
        assert got == expected, (scaled, broken)
        outcomes.append(got)
    if method.startswith("sparsemap"):
        assert all(o.startswith("ValueError: scores too large to resolve") for o in outcomes[:2])
        assert outcomes[2] == "nan"
    else:
        assert outcomes == ["nan"] * 3


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_initial_loss_is_the_per_batch_loop_on_any_mix_of_faults(data):
    # Non-finite entries and 1e50-scaled examples anywhere, at any batch
    # size: the initial loss has the repr of the loop's, or raises its
    # error, with warnings as errors (set here, not by a mark, so that
    # hypothesis reports a failure in a plain environment).
    task, method = data.draw(st.sampled_from([("categorical", m) for m in CATEGORICAL_METHODS]
                                             + [("bitvec", m) for m in BITVEC_METHODS]))
    n = data.draw(st.integers(1, 40))
    inputs = _inputs(task, n)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, inputs.shape[1] - 1))
        inputs[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        inputs[i] *= 1e50
    batch_size = data.draw(st.integers(1, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, expected = _initial_loss_outcomes(task, method, inputs, batch_size)
    assert got == expected


def _count_mapped_rows(monkeypatch):
    """A list to which every call of a mapping in ``toys`` appends its
    number of rows.  Topk maps by ``kbest_rows`` and then ``sparsemax_rows``
    of the scores that call returned: one mapping, counted once."""
    from sparsemarg import toys

    mapped, kbest_scores = [], []
    for name, at in (("sparsemax_rows", 0), ("_sparsemax_rows", 0), ("softmax", 0),
                     ("kbest_rows", 0), ("_sparsemap_solve", 1)):
        def counted(*args, _name=name, _at=at, _original=getattr(toys, name), **kwargs):
            if not any(args[0] is scores for scores in kbest_scores):
                mapped.append(len(args[_at]))
            out = _original(*args, **kwargs)
            if _name == "kbest_rows":
                kbest_scores[:] = [out[1]]
            return out
        monkeypatch.setattr(toys, name, counted)
    return mapped


@pytest.mark.parametrize("task, method, n, width", [
    ("bitvec", "sparse", 50, 256),  # every configuration at D = 8
    ("bitvec", "topk", 1100, 4),
    ("bitvec", "sparsemap", 500, 9),  # a support of at most D + 1
    ("categorical", "dense", 600, 8),  # K = 8 messages
])
def test_initial_pass_maps_at_most_a_loss_block_of_posterior_rows(task, method, n, width,
                                                                   monkeypatch):
    # Past 4096 posterior rows the initial pass maps whole runs of 8
    # examples, as many as fit, in order; the initial loss keeps the bits
    # of the per-batch loop.
    from sparsemarg import toys

    mapped = _count_mapped_rows(monkeypatch)
    got, expected = _initial_loss_outcomes(task, method, _inputs(task, n), 8)
    assert got == expected and np.isfinite(float(got))
    chunk = 8 * (toys._LOSS_BLOCK // (8 * width))
    passes = np.cumsum(mapped).tolist().index(n) + 1  # the training run's calls come first
    assert mapped[:passes] == [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
    assert passes > 1 and chunk * width <= toys._LOSS_BLOCK


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, method, n, width", [  # three passes or more
    ("bitvec", "sparse", 50, 256),
    ("bitvec", "topk", 2100, 4),
    ("bitvec", "sparsemap", 1000, 9),
    ("categorical", "dense", 1100, 8),
])
def test_a_tripped_initial_pass_is_mapped_again_run_by_run_alone(task, method, n, width,
                                                                monkeypatch):
    # An inf in one example of the second pass trips that pass's guard:
    # only that pass is mapped again, one run of 8 at a time, except the
    # tripped run, which trips before its mapping; every other pass is
    # still one mapping call, and the initial loss is the loop's NaN.
    from sparsemarg import toys

    mapped = _count_mapped_rows(monkeypatch)
    chunk = 8 * (toys._LOSS_BLOCK // (8 * width))
    inputs = _inputs(task, n)
    inputs[chunk + 11, 0] = np.inf
    assert _initial_loss_outcomes(task, method, inputs, 8) == ("nan", "nan")

    def runs(lo, hi):  # the runs of 8 from lo to hi, less the tripped one
        return [min(8, hi - start) for start in range(lo, hi, 8) if start != chunk + 8]

    passes = [min(chunk, n - lo) for lo in range(0, n, chunk)]
    redone = runs(chunk, min(2 * chunk, n))
    assert len(passes) > 2 and len(redone) > 0
    assert mapped == passes[:1] + redone + passes[2:] + runs(0, n)  # then the loop's batches


def test_initial_loss_raises_the_first_error_of_the_per_batch_loop(monkeypatch):
    # Capped at two steps, the solves stop unconverged, which the training
    # pass's vjp refuses, and an example scaled by 1e50 in the second
    # batch fails its solve.  The loop raises the first batch's error, the
    # vjp's; so must the gradient-free pass, which has no vjp.
    from sparsemarg import toys

    solve = toys._sparsemap_solve
    monkeypatch.setattr(toys, "_sparsemap_solve", lambda oracle, T: solve(oracle, T, max_iter=2))
    inputs = _inputs("bitvec")
    inputs[12] *= 1e50
    got, expected = _initial_loss_outcomes("bitvec", "sparsemap", inputs, 8)
    assert got == expected == "ValueError: backward pass requires a converged result"


@pytest.mark.parametrize("task, method", _TASK_METHODS)
def test_first_batch_trains_bit_for_bit_on_the_reused_posterior(task, method, monkeypatch):
    # The first batch of epoch 1 takes its posterior from the initial pass;
    # mapping its examples again must give the same log and parameters.
    from sparsemarg import toys

    mapped = _count_mapped_rows(monkeypatch)

    def train():
        mapped.clear()
        cfg = TrainConfig(method=method, epochs=2, batch_size=8, k=4, budget=3, seed=2)
        if task == "bitvec":
            model = ToyBitVectorVAE.init(d=8, n_pixels=36, seed=57, scale=0.3)
            log = train_bitvec_vae(model, make_bitvec_images(n=24, d=8, seed=58), cfg)
        else:
            model = ToyCategoricalModel.init(n_messages=8, n_classes=4, feat_dim=8, seed=57,
                                             scale=0.3)
            log = train_categorical(model, _small_cluster_data(n=24), cfg)
        return log, [getattr(model, key).tobytes() for key in model.PARAMS], mapped.copy()

    reused, reused_params, reused_mapped = train()
    # Reuse off: the initial pass returns no posterior, so the first batch
    # is mapped again, one more call of 8 rows wherever the posterior was
    # reused: every method but categorical sfe and sum_and_sample, whose
    # initial pass is dense, and bit-vector dense and sparse, whose initial
    # pass maps 16 examples and then 8 and so hands none over.
    initial_loss = toys._initial_loss
    monkeypatch.setattr(toys, "_initial_loss", lambda *args: (initial_loss(*args)[0], None))
    log, params, remapped = train()
    assert (log, params) == (reused, reused_params)
    handed_over = (method not in ("sfe", "sum_and_sample")
                   and (task == "categorical" or method not in ("dense", "sparse")))
    extra = [8] if handed_over else []
    assert sorted(remapped) == sorted(reused_mapped + extra)


@pytest.mark.parametrize("task, method, mapping, vjp", [
    ("bitvec", "sparsemap", "_sparsemap_solve", "_sparsemap_vjp"),
    ("bitvec", "topk", "kbest_rows", "sparsemax_vjp_rows"),
    ("bitvec", "sparse", "sparsemax_rows", "sparsemax_vjp_rows"),
    ("categorical", "sparse", "_sparsemax_rows", "_sparsemax_vjp_pairs"),
])
def test_initial_pass_maps_once_without_gradients_and_the_first_batch_reuses_it(
        task, method, mapping, vjp, monkeypatch):
    from sparsemarg import toys

    counts = {}
    for name in (mapping, vjp, "_decoder_weight_terms"):
        def counted(*args, _name=name, _original=getattr(toys, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(toys, name, counted)

    def calls(epochs):
        counts.clear()
        cfg = TrainConfig(method=method, epochs=epochs, batch_size=8, k=4, seed=1)
        if task == "bitvec":
            train_bitvec_vae(ToyBitVectorVAE.init(d=8, n_pixels=36, seed=55),
                             make_bitvec_images(n=24, d=8, seed=56), cfg)
        else:
            train_categorical(ToyCategoricalModel.init(n_messages=8, n_classes=4, feat_dim=8,
                                                       seed=55), _small_cluster_data(n=24), cfg)
        return counts.copy()

    # One mapping of all 24 examples, no backward pass, except that bit-vector
    # sparse holds 2^8 = 256 posterior rows an example: its initial pass maps
    # 16 examples, then 8, each within 4096 rows, and hands no posterior to
    # the first batch, which maps its examples again.
    passes = 2 if (task, method) == ("bitvec", "sparse") else 1
    assert calls(0) == {mapping: passes}
    # Three batches; the first takes the initial pass's posterior only if
    # that pass held every example.
    trained = {mapping: 3 if passes == 1 else passes + 3, vjp: 3}
    if task == "bitvec":
        trained["_decoder_weight_terms"] = 3
    assert calls(1) == trained


def _decoder_log_probs(model, z):
    shifted = model.dec_w[z] - model.dec_w[z].max()
    return shifted - np.log(np.exp(shifted).sum())


def _one_hot_minus(p, z):
    out = -p.copy()
    out[z] += 1.0
    return out


def _sampled_reference(s, oracle, cfg, rng, baseline):
    """One example's sfe or sum-and-sample estimate from the 1-d softmax
    and top_k, a setdiff1d complement and ``Generator.choice``.

    Returns the gradient, loss, probabilities, evaluated outcomes, their
    weights and the updated baseline."""
    p = softmax(s)
    if cfg.method == "sfe":
        z = int(rng.choice(s.size, p=p))
        value = oracle.eval(z)
        grad = (value - baseline.value) * _one_hot_minus(p, z)
        return grad, value, p, np.array([z]), np.ones(1), baseline.updated(value)
    kept = top_k(s, cfg.k).indices
    kept_values = np.array([oracle.eval(int(z)) for z in kept])
    weighted = p[kept] * kept_values
    grad = -p * weighted.sum()
    grad[kept] += weighted
    loss = float(weighted.sum())
    comp_mass = 1.0 - p[kept].sum()
    outcomes, weights = kept, p[kept]
    if comp_mass > 1e-14:
        comp = np.setdiff1d(np.arange(s.size), kept)
        z = int(rng.choice(comp, p=p[comp] / p[comp].sum()))
        value = oracle.eval(z)
        grad += value * comp_mass * _one_hot_minus(p, z)
        loss += comp_mass * value
        outcomes, weights = np.append(kept, z), np.append(weights, comp_mass)
    return grad, loss, p, outcomes, weights, baseline


def _example_reference(model, x, y, cfg, rng, baseline):
    """One example through the library's 1-d mappings and vjps and a 1-d
    estimator reference, one decoder row at a time: the per-example
    arithmetic the batch pass must reproduce bit for bit."""
    K = model.n_messages
    s = model.scores(x)
    oracle = LossOracle(lambda z: -_decoder_log_probs(model, z)[y])
    coef = cfg.entropy_coef
    support = np.arange(K)
    if cfg.method in ("dense", "sparse"):
        if cfg.method == "dense":
            q = softmax(s)
        else:
            dist = sparsemax(s)
            q, support = dist.probs, dist.indices
        values = np.array([oracle.eval(z) for z in support])
        outcomes, weights = support, q
        loss = float(q @ values)
        objective = loss + coef * float(q @ np.log(q))
        upstream = values + coef * (np.log(q) + 1.0)
        if cfg.method == "dense":
            g_s = softmax_vjp(q, upstream)
        else:
            full = np.zeros(K)
            full[support] = upstream
            g_s = sparsemax_vjp(s, dist, full)
    else:
        grad, loss, q, outcomes, weights, baseline = _sampled_reference(s, oracle, cfg, rng,
                                                                        baseline)
        g_s = grad + coef * softmax_vjp(q, np.log(q) + 1.0)
        objective = loss
    grads = model.zero_grads()
    grads["enc_w"] += np.outer(g_s, x)
    grads["enc_b"] += g_s
    label_weight = dict(zip(outcomes.tolist(), weights))
    mixture = np.zeros(model.dec_w.shape[1])
    for qz, z in zip(q, support.tolist()):
        probs_z = np.exp(_decoder_log_probs(model, z))
        mixture += qz * probs_z
        if z in label_weight:
            probs_z[y] -= 1.0
            grads["dec_w"][z] += label_weight[z] * probs_z
    entry = (loss, float(int(np.argmax(mixture)) == y), oracle.calls, support.size, None)
    return entry, objective, grads, baseline


@pytest.mark.parametrize("method", CATEGORICAL_METHODS)
def test_batch_pass_equals_examples_one_at_a_time(method):
    # The batch pass must reproduce, bit for bit, the log entries,
    # objectives and gradient sum of the same examples passed singly in
    # batch order, from the same rng state and baseline: both as batches
    # of one and through the per-example reference.
    data = make_cluster_data(n=40, n_clusters=12, feat_dim=10, seed=30)
    model = ToyCategoricalModel.init(n_messages=12, n_classes=12, feat_dim=10, seed=31,
                                     scale=0.03)
    model.dec_w *= 40.0  # losses spread enough that summation order shows in the bits
    cfg = TrainConfig(method=method, k=2)
    batch = make_rng(32).permutation(40)[:17]
    start = MovingAverageBaseline(value=0.4)
    whole, whole_base = _categorical_batch(
        model, data.features, data.labels, batch, cfg, make_rng(33), start
    )

    def batch_of_one(i, rng, base):
        one, base = _categorical_batch(model, data.features, data.labels, [i], cfg, rng, base)
        return _entries(one)[0], one.objectives[0], one.grads, base

    def reference(i, rng, base):
        return _example_reference(model, data.features[i], int(data.labels[i]), cfg, rng, base)

    for single in (batch_of_one, reference):
        rng, base = make_rng(33), start
        grads, stats, objectives = model.zero_grads(), [], []
        for i in batch:
            entry, objective, ex_grads, base = single(i, rng, base)
            stats.append(entry)
            objectives.append(objective)
            for key in grads:
                grads[key] += ex_grads[key]
        assert _entries(whole) == stats
        assert whole.objectives.tolist() == objectives
        assert whole_base == base
        for key in grads:
            assert np.array_equal(whole.grads[key], grads[key])
            assert np.array_equal(np.signbit(whole.grads[key]), np.signbit(grads[key]))
    if method == "sparse":  # support means over fewer and more than 8 outcomes
        sizes = [entry[3] for entry in _entries(whole)]
        assert min(sizes) < 8 < max(sizes)


def test_ordered_sum_is_repeated_accumulation():
    # A plain sum adds a contiguous run pairwise (here wherever the other
    # axes have size 1) and keeps -0.0; the batch pass needs the bits of
    # repeated += into zeros.  Both regimes: the batch axis of the
    # categorical encoder gradient (16 wide slices of 1,024 entries) and
    # the support axis of a D = 12 dense decoder gradient (4,096 slices of
    # 36 entries).  Then the layouts where a reduction or an einsum would
    # add pairwise: the bit-vector dec_b sum at one pixel (a strided view
    # summed along its contiguous axis), an outer-product sum to one
    # entry, and the categorical mixture at one class (q.T, a view).
    rng = make_rng(35)
    for shape in ((17, 1), (17, 3, 1), (17, 4, 1), (9, 5, 6), (3, 5, 60), (16, 16, 64),
                  (4096, 36, 1)):
        terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        terms[rng.random(shape) < 0.2] = -0.0
        if terms.size > shape[0]:  # one output summed from -0.0 alone
            terms[(slice(None),) + (0,) * (len(shape) - 1)] = -0.0
        expected = np.zeros(shape[1:])
        for term in terms:
            expected += term
        got = _ordered_sum(terms)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    for n, S in ((1, 9), (2, 9), (3, 12), (16, 17)):
        W = _spread(rng, (n, S, 1))
        assert _same_bits(_ordered_sum(W.transpose(1, 0, 2)), _loop_sum(W.transpose(1, 0, 2)))
    for Z in (3, 9, 17):
        a, b = _spread(rng, (Z, 1)), _spread(rng, (Z, 1))
        assert _same_bits(_ordered_outer_sum(a, b), _loop_sum(a[:, :, None] * b[:, None, :]))
    for B, K in ((16, 16), (1, 16), (3, 9)):
        q, dec = _spread(rng, (B, K)), _spread(rng, (K, 1))
        assert _same_bits(_ordered_outer_sum(q.T, dec),
                          _loop_sum(q.T[:, :, None] * dec[:, None, :]))


def _loop_sum(terms):
    """``terms`` summed along the first axis by repeated += into zeros."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


@st.composite
def _stacks(draw, shape):
    """An array of ``shape`` of :func:`_spread` entries, up to three of them
    +-inf or NaN, often a transposed view of a C-ordered one."""
    order = draw(st.permutations(range(len(shape))))
    stored = _spread(make_rng(draw(st.integers(0, 2**32 - 1))), [shape[i] for i in order])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, stored.size - 1))
        stored.flat[at] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return stored.transpose(np.argsort(order))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_ordered_sums_keep_the_bits_of_the_loop_on_any_layout(data):
    # Axes of size 1, views in any axis order, signed zeros, infinities
    # and NaN: both helpers give the loop's values, NaN where it has NaN,
    # and its signs.  The sign of a NaN is not compared: which of two NaNs
    # an addition keeps is not fixed, and numpy's in-place and
    # out-of-place adds already keep different ones.
    dims = st.sampled_from([1, 1, 1, 2, 3, 9])
    z = data.draw(st.integers(1, 20))
    mid = data.draw(st.lists(dims, max_size=2))
    a = data.draw(_stacks([z] + mid + [data.draw(dims)]))
    b = data.draw(_stacks([z] + mid + [data.draw(dims)]))
    with np.errstate(all="ignore"):
        pairs = ((_ordered_sum(a), _loop_sum(a)),
                 (_ordered_outer_sum(a, b), _loop_sum(a[..., :, None] * b[..., None, :])))
    for got, expected in pairs:
        numbers = ~np.isnan(expected)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got)[numbers], np.signbit(expected)[numbers])


def _spread(rng, shape):
    """Normal entries scaled by powers of ten over 1e-8..1e8, a fifth of them -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    return values


def _same_bits(got, expected):
    return (np.array_equal(got, expected)
            and np.array_equal(np.signbit(got), np.signbit(expected)))


def test_stacked_scores_equal_per_row_products():
    # The categorical pass scores a batch with one stacked product, which
    # runs the matrix-vector kernel once per row; every row must keep the
    # bits of enc_w @ x taken alone.  A bias of -0.0 adds nothing, so the
    # scores are the products' own bits, signed zeros included.
    rng = make_rng(36)
    for size in range(1, 41):
        for K, F in ((size, 16), (16, size), (size, size)):
            model = ToyCategoricalModel(enc_w=_spread(rng, (K, F)), enc_b=np.full(K, -0.0),
                                        dec_w=np.zeros((K, 2)))
            X = _spread(rng, (int(rng.integers(1, 20)), F))
            expected = np.array([model.enc_w @ x for x in X])
            assert _same_bits(model.scores(X), expected), (K, F)
            assert _same_bits(model.scores(X[0]), expected[0]), (K, F)
    # The bit-vector pass scores its images the same way, at the task's
    # sizes and past D = 64.
    for D in (1, 3, 6, 8, 12, 32, 64, 70, 128, 1000):
        for P in (1, 7, 36):
            model = ToyBitVectorVAE.init(d=D, n_pixels=P, seed=D + P, scale=1.0)
            model.enc_b = _spread(rng, D)
            X = (rng.random((int(rng.integers(1, 20)), P)) < 0.4).astype(np.float64)
            expected = np.array([model.enc_w @ x + model.enc_b for x in X])
            assert _same_bits(model.var_scores(X), expected), (D, P)
            assert _same_bits(model.var_scores(X[0]), expected[0]), (D, P)


def test_label_loss_is_elementwise():
    model = ToyCategoricalModel.init(n_messages=5, n_classes=3, feat_dim=4, seed=34, scale=1.0)
    z = np.array([[0], [4], [2]])
    y = np.array([2, 0, 1, 1])
    table = model.label_loss(z, y)
    assert table.shape == (3, 4)
    for (a, b), value in np.ndenumerate(table):
        logits = model.dec_w[z[a, 0]]
        expected = np.log(np.exp(logits - logits.max()).sum()) - (logits - logits.max())[y[b]]
        assert value == pytest.approx(expected, abs=1e-14)
        assert model.label_loss(int(z[a, 0]), int(y[b])) == value


def test_sparse_median_calls_trend_down():
    data = make_cluster_data(n=128, seed=1)
    model = ToyCategoricalModel.init(seed=1)
    log = train_categorical(model, data, TrainConfig(method="sparse", epochs=12, lr=0.5, seed=2))
    assert log.rows[-1].calls.median <= log.rows[0].calls.median


def test_topk_certificate_gradient_matches_enumeration():
    # When the certificate fires, top-k sparsemax over the k best
    # structures equals sparsemax over all 2^D structures, so the whole
    # model gradient must agree with the enumeration path.
    rng = make_rng(5)
    images = make_bitvec_images(n=16, d=8, seed=6)
    model = ToyBitVectorVAE.init(d=8, n_pixels=36, seed=7)
    model.enc_w = rng.normal(size=model.enc_w.shape)  # spread scores out
    checked = 0
    for i in range(images.images.shape[0]):
        out_k = _bitvec_batch(model, images.images, [i], TrainConfig(method="topk", k=32))
        certificate = _entries(out_k)[0][4]
        if not certificate:
            continue
        out_e = _bitvec_batch(model, images.images, [i], TrainConfig(method="sparse"))
        assert out_k.objectives[0] == pytest.approx(out_e.objectives[0], abs=1e-8)
        for key in out_k.grads:
            np.testing.assert_allclose(
                out_k.grads[key], out_e.grads[key], atol=1e-8
            )
        checked += 1
    assert checked > 5


def test_sparsemap_support_bounded_every_step():
    images = make_bitvec_images(n=32, d=8, seed=8)
    model = ToyBitVectorVAE.init(d=8, n_pixels=36, seed=9)
    log = train_bitvec_vae(model, images, TrainConfig(method="sparsemap", epochs=5, seed=1))
    assert all(r.support_max <= 9 for r in log.rows)


def test_budget_codes_respect_budget():
    images = make_bitvec_images(n=16, d=8, seed=10)
    model = ToyBitVectorVAE.init(d=8, n_pixels=36, seed=11)
    cfg = TrainConfig(method="sparsemap_budget", budget=3)
    out = _bitvec_batch(model, images.images, np.arange(16), cfg)
    assert all(support >= 1 for _, _, _, support, _ in _entries(out))
    assert all(rows.sum(axis=1).max() <= 3 for rows in out.rows)
    # Default budget is D // 2.
    log = train_bitvec_vae(model, images, TrainConfig(method="sparsemap_budget", epochs=2, seed=0))
    assert np.isfinite(log.rows[-1].loss)


@pytest.mark.parametrize("method, d", [pytest.param(m, 6, id=m) for m in BITVEC_METHODS]
                         + [pytest.param("dense", 12, id="dense_d12")])
def test_bitvec_batch_pass_equals_examples_one_at_a_time(method, d):
    # Each example's gradient is summed on its own before it joins the
    # batch sum, so a partial batch must reproduce, bit for bit, the log
    # entries, objectives and gradient sum of its examples passed as
    # batches of one in batch order.  At D = 12 every dense example fills
    # a loss block of its own.
    images = make_bitvec_images(n=20, d=d, seed=36)
    model = ToyBitVectorVAE.init(d=d, n_pixels=36, seed=37, scale=0.5)
    cfg = TrainConfig(method=method, k=8, budget=3)
    batch = make_rng(38).permutation(20)[:11 if d < 12 else 3]
    whole = _bitvec_batch(model, images.images, batch, cfg)
    grads, stats, objectives, rows = model.zero_grads(), [], [], []
    for i in batch:
        one = _bitvec_batch(model, images.images, [i], cfg)
        stats.append(_entries(one)[0])
        objectives.append(one.objectives[0])
        rows.append(one.rows[0])
        for key in grads:
            grads[key] += one.grads[key]
    assert _entries(whole) == stats
    assert all(entry[2] == entry[3] for entry in stats)  # one loss call per outcome
    assert whole.objectives.tolist() == objectives
    assert all(np.array_equal(a, b) for a, b in zip(whole.rows, rows))
    for key in grads:
        assert np.array_equal(whole.grads[key], grads[key])
        assert np.array_equal(np.signbit(whole.grads[key]), np.signbit(grads[key]))
    assert max(entry[3] for entry in stats) > 1  # some decoder gradient sums several terms


def test_decoder_weight_terms_sum_to_the_per_outcome_gradients():
    # Padded outcomes carry zero weights and repeat a real row, columns
    # set in every row or in none skip the outer terms, and the mixed
    # columns of all examples add one outcome at a time: the batch sum of
    # the terms must keep the bits of summing each example's outer terms
    # in outcome order, then the examples in batch order, signed zeros
    # included.  Support sizes 1 to S, with S up to 300.
    rng = make_rng(48)
    for n, S, D, P in ((16, 16, 128, 36), (5, 9, 6, 36), (3, 300, 10, 4), (1, 1, 3, 2),
                       (7, 4, 64, 1)):
        sizes = rng.integers(1, S + 1, size=n)
        sizes[rng.integers(n)] = S
        w, rows = np.zeros((n, S, P)), np.empty((n, S, D))
        expected = np.zeros((P, D))
        dec_b = np.zeros((n, P))
        for e, size in enumerate(sizes):
            root = rng.random(D) < 0.5
            flips = rng.random((size, D)) < np.where(rng.random(D) < 0.2, 0.5, 0.0)
            rows[e, :size] = np.logical_xor(root, flips)
            rows[e, size:] = rows[e, 0]
            w[e, :size] = _spread(rng, (size, P))
            one = np.zeros((P, D))
            for w_z, row in zip(w[e, :size], rows[e, :size]):
                one += np.outer(w_z, row)
                dec_b[e] += w_z
            expected += one
        out = np.empty((n, P, D))
        _decoder_weight_terms(w, rows, dec_b, out)
        assert _same_bits(_ordered_sum(out), expected), (n, S, D, P)


def test_stacked_decoder_products_equal_per_row_products():
    # The bit-vector pass decodes a block of supports as one stacked matmul
    # and reads its dots as stacked 1 x P by P x 1 products, because those run the
    # per-row kernels: a plain (S, D) @ (D, P) GEMM, or (S, P) @ (P,),
    # gives other bits on most shapes.  This pins the kernels the pass
    # relies on against a numpy or BLAS that changes them.
    rng = make_rng(41)
    shapes = [(36, 128, 16), (36, 128, 1), (36, 6, 64), (36, 12, 300)]
    shapes += [tuple(int(v) for v in rng.integers(1, (80, 140, 40))) for _ in range(150)]
    for P, D, S in shapes:
        dec_w = rng.normal(size=(P, D)) * 10.0 ** rng.integers(-3, 3)
        rows = (rng.random((S, D)) < 0.5).astype(np.float64)
        x = (rng.random(P) < 0.4).astype(np.float64)
        out = np.matmul(dec_w, rows[..., None])[..., 0]
        assert np.array_equal(out, np.array([dec_w @ row for row in rows])), (P, D, S)
        assert np.array_equal(_row_dots(out, x), [x @ o for o in out]), (P, D, S)
        # The flat layout repeats each image once per row of its support.
        xs = np.repeat(x[None], S, axis=0)
        assert np.array_equal(_row_dots(out, xs), [x @ o for o in out]), (P, D, S)
        assert np.array_equal(_row_dots(out, out), [o @ o for o in out]), (P, D, S)
        soft = np.logaddexp(0.0, out)
        assert np.array_equal(soft.sum(axis=-1), [r.sum() for r in soft]), (P, D, S)


def _bitvec_per_outcome(model, images, batch, cfg):
    """The bit-vector pass one supported outcome at a time: a decoder
    mat-vec, a loss read and an ``np.outer`` per outcome, and the one-row
    sparsemax with its vjp.  The batch pass must match it bit for bit."""
    D = model.d
    A = config_matrix(D) if cfg.method in ("dense", "sparse") else None
    polytope = {"sparsemap": lambda: BitVectorPolytope(D),
                "sparsemap_budget": lambda: BudgetedBitVectorPolytope(D, cfg.budget)}
    grads, stats, objectives = model.zero_grads(), [], []
    for i in batch:
        x = images[i]
        t = model.enc_w @ x + model.enc_b
        certificate = None
        if cfg.method == "topk":
            structs = kbest(t, cfg.k)
            u = np.array([st.score for st in structs])
            dist = sparsemax(u)
            q = dist.probs
            rows = np.array([structs[j].bits for j in dist.indices], dtype=np.float64)
            certificate = dist.support_size < cfg.k
        elif cfg.method == "sparse":
            u = A @ t
            dist = sparsemax(u)
            q, rows = dist.probs, A[dist.indices]
        elif cfg.method == "dense":
            q, rows = softmax(A @ t), A
        else:
            res = sparsemap(polytope[cfg.method](), t)
            q, rows = res.probs, res.rows
        c, dlogits = [], []
        for row in rows:
            out = model.dec_w @ row + model.dec_b
            if model.recon == "squared":
                resid = out - x
                recon, d = 0.5 * float(resid @ resid), resid
            else:
                recon = float(np.logaddexp(0.0, out).sum() - x @ out)
                d = 1.0 / (1.0 + np.exp(-out)) - x
            c.append(D * np.log(2.0) + recon)
            dlogits.append(d)
        c = np.array(c)
        neg_elbo = float(q @ c + q @ np.log(q))
        up = c + np.log(q) + 1.0
        if cfg.method == "dense":
            g_t = A.T @ softmax_vjp(q, up)
        elif cfg.method in ("topk", "sparse"):
            upstream = np.zeros(dist.dim)
            upstream[dist.indices] = up
            g_t = rows.T @ sparsemax_vjp(u, dist, upstream)[dist.indices]
        else:
            g_t = sparsemap_vjp_probs(res, up)
        grads["enc_w"] += np.outer(g_t, x)
        grads["enc_b"] += g_t
        dec_w, dec_b = np.zeros_like(model.dec_w), np.zeros_like(model.dec_b)
        for qz, row, d in zip(q, rows, dlogits):
            dec_w += qz * np.outer(d, row)
            dec_b += qz * d
        grads["dec_w"] += dec_w
        grads["dec_b"] += dec_b
        stats.append((neg_elbo, neg_elbo, len(c), q.size, certificate))
        objectives.append(neg_elbo)
    return stats, objectives, grads


@pytest.mark.parametrize("recon", ["bernoulli", "squared"])
@pytest.mark.parametrize("method, d, k", [(m, 6, 8) for m in BITVEC_METHODS]
                         + [("dense", 10, 8), ("dense", 12, 8), ("topk", 128, 16)])
def test_bitvec_batch_pass_equals_per_outcome_reference(method, d, k, recon):
    # Dense at D = 10 reads the loss in blocks of four examples and one
    # left over; at D = 12, in one block per example.
    images = make_bitvec_images(n=20, d=d, seed=42)
    model = ToyBitVectorVAE.init(d=d, n_pixels=36, seed=43, scale=0.5, recon=recon)
    cfg = TrainConfig(method=method, k=k, budget=3)
    batch = make_rng(44).permutation(20)[:13 if d < 12 else 3]
    out = _bitvec_batch(model, images.images, batch, cfg)
    stats, objectives, grads = _bitvec_per_outcome(model, images.images, batch, cfg)
    assert _entries(out) == stats
    assert out.objectives.tolist() == objectives
    for key in grads:
        assert np.array_equal(out.grads[key], grads[key]), key
        assert np.array_equal(np.signbit(out.grads[key]), np.signbit(grads[key])), key
    assert max(entry[3] for entry in stats) > 1  # some decoder gradient sums several terms


def test_bernoulli_decoder_saturates_without_an_overflow_warning():
    # Decoder outputs of -800 overflow exp(-out) in the sigmoid, which is
    # then exactly 0.0, as it should be; +800 gives exactly 1.0.  Neither
    # may warn (RuntimeWarnings are errors under this suite's settings).
    model = ToyBitVectorVAE.init(d=2, n_pixels=4, seed=0)
    model.dec_w = np.array([[800.0, 0.0], [-800.0, 0.0], [0.0, 800.0], [0.0, -800.0]])
    bits = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    x = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    val, d = model.recon_loss_and_dlogits(bits, x)
    out = np.array([[800.0, -800.0, 800.0, -800.0], [800.0, -800.0, 0.0, 0.0], [0.0] * 4])
    sigmoid = np.where(out > 0, 1.0, np.where(out < 0, 0.0, 0.5))
    assert np.array_equal(d, sigmoid - x)
    assert np.array_equal(val, [np.logaddexp(0.0, o).sum() - o @ xi for o, xi in zip(out, x)])
    assert np.isfinite(val).all()


@pytest.mark.parametrize("recon", ["bernoulli", "squared"])
@pytest.mark.parametrize("method", BITVEC_METHODS)
def test_the_loss_only_pass_computes_no_decoder_gradient(method, recon):
    # The gradient-free pass reads the reconstruction loss alone, never the
    # decoder gradient, and its losses keep the bits of the training pass's.
    images = make_bitvec_images(n=12, d=6, seed=47)
    model = ToyBitVectorVAE.init(d=6, n_pixels=36, seed=48, scale=0.3, recon=recon)
    cfg = TrainConfig(method=method, k=4, budget=2)
    trained = _bitvec_batch(model, images.images, np.arange(12), cfg)

    def refused(bits, x):
        raise AssertionError("the loss-only pass asked for the decoder gradient")

    model.recon_loss_and_dlogits = refused
    out = _bitvec_batch(model, images.images, np.arange(12), cfg, loss_only=True)
    assert out.losses.tobytes() == trained.columns[0].tobytes()


@pytest.mark.parametrize("method, d, k", [("dense", 12, 8), ("dense", 10, 8), ("topk", 24, 1500)])
def test_bitvec_loss_reads_whole_examples_in_blocks_of_at_most_4096_rows(method, d, k):
    images = make_bitvec_images(n=12, d=d, seed=45)
    model = ToyBitVectorVAE.init(d=d, n_pixels=36, seed=46, scale=0.001)
    blocks = []
    recon = model.recon_loss_and_dlogits

    def recording(bits, x):
        assert bits.shape[0] == x.shape[0]  # one image per bit row
        blocks.append(bits.shape[0])
        return recon(bits, x)

    model.recon_loss_and_dlogits = recording
    out = _bitvec_batch(model, images.images, np.arange(9), TrainConfig(method=method, k=k))
    calls = [entry[2] for entry in _entries(out)]
    assert calls == [entry[3] for entry in _entries(out)]  # one loss call per outcome
    assert len(blocks) > 1 and max(blocks) <= 4096
    # Each block is a run of whole consecutive examples, cut only where the
    # next example would not fit.
    ends = np.cumsum(calls).tolist()
    cuts = np.cumsum(blocks).tolist()
    assert set(cuts) <= set(ends) and cuts[-1] == ends[-1]
    for n, cut in enumerate(cuts[:-1]):
        assert blocks[n] + calls[ends.index(cut) + 1] > 4096


@pytest.mark.parametrize("make_model", [
    lambda: ToyCategoricalModel.init(n_messages=3, n_classes=5, feat_dim=4, seed=39),
    lambda: ToyBitVectorVAE.init(d=3, n_pixels=5, seed=40),
], ids=["categorical", "bitvec"])
def test_param_layout_round_trips(make_model):
    # The flat vector the gradient check perturbs, the gradient flatten and
    # the update must all walk the parameters in one order.
    model = make_model()
    shapes = {key: getattr(model, key).shape for key in model.PARAMS}
    v = np.arange(model.get_params().size, dtype=np.float64)
    model.set_params(v)
    assert np.array_equal(model.get_params(), v)
    assert {key: getattr(model, key).shape for key in model.PARAMS} == shapes
    v[:] = -1.0  # set_params keeps copies
    assert np.array_equal(model.get_params(), np.arange(v.size))
    grads = model.zero_grads()
    for key in grads:
        grads[key] += getattr(model, key)
    assert np.array_equal(model.flatten(grads), model.get_params())
    model.sgd_update(grads, 1.0)
    assert not model.get_params().any()
    assert "sgd_update" in vars(type(model))  # a tracer wraps each class's own entry


def _tuple_formula_epoch(epoch, stats) -> EpochRow:
    """An epoch's log row by ``zip``, ``np.mean`` and ``np.max`` on tuples:
    the reference for :func:`sparsemarg.toys._finish_epoch`."""
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


def _three_pass_train(task, model, data, cfg):
    """Training as a plain loop over batches with the three-pass SGD step:
    the gradient sums divided by the batch size in place, the update of
    every parameter, then a finiteness test of every parameter.  The
    reference for the one-pass step of ``train_categorical`` and
    ``train_bitvec_vae``; returns (initial loss, rows, diverged)."""
    if task == "categorical":
        n = data.features.shape[0]
        eval_cfg = TrainConfig(method="sparse" if cfg.method == "sparse" else "dense",
                               entropy_coef=cfg.entropy_coef)
        baseline = MovingAverageBaseline()

        def batch_pass(batch, config, rng):
            nonlocal baseline
            out, baseline = toys._categorical_batch(model, data.features, data.labels, batch,
                                                    config, rng, baseline)
            return out
    else:
        n, eval_cfg = data.images.shape[0], cfg

        def batch_pass(batch, config, rng):
            return toys._bitvec_batch(model, data.images, batch, config)

    rng = make_rng(cfg.seed)
    order = rng.permutation(n)
    initial = _per_batch_initial_loss(lambda batch: batch_pass(batch, eval_cfg, None), n,
                                      cfg.batch_size)
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        if epoch > 1:
            order = rng.permutation(n)
        stats = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            out = batch_pass(batch, cfg, rng)
            if out.grads is None:
                return initial, rows, True
            stats.extend(_entries(out))
            for key in out.grads:
                out.grads[key] /= len(batch)
            for key in model.PARAMS:
                param = getattr(model, key)
                param -= cfg.lr * out.grads[key]
            if not all(np.all(np.isfinite(getattr(model, key))) for key in model.PARAMS):
                return initial, rows, True
        rows.append(_tuple_formula_epoch(epoch, stats))
        if not np.isfinite(rows[-1].loss):
            return initial, rows, True
    return initial, rows, False


def _train_both(task, method, **overrides):
    """A training run and its three-pass reference from one initial model,
    each as (initial loss repr, rows, diverged, parameter bytes)."""
    cfg = TrainConfig(method=method, epochs=2, batch_size=6, k=2 if task == "categorical" else 4,
                      budget=2, seed=6, **overrides)
    runs = []
    for reference in (False, True):
        if task == "categorical":
            model = ToyCategoricalModel.init(n_messages=8, n_classes=4, feat_dim=8, seed=60,
                                             scale=0.3)
            data, train = _small_cluster_data(n=20, seed=61), train_categorical
        else:
            model = ToyBitVectorVAE.init(d=6, n_pixels=36, seed=62, scale=0.3)
            data, train = make_bitvec_images(n=20, d=6, seed=63), train_bitvec_vae
        if reference:
            initial, rows, diverged = _three_pass_train(task, model, data, cfg)
        else:
            log = train(model, data, cfg)
            initial, rows, diverged = log.initial_loss, log.rows, log.diverged
        params = [getattr(model, key).tobytes() for key in model.PARAMS]
        runs.append((repr(initial), rows, diverged, params))
    return runs


@pytest.mark.parametrize("task, method", _TASK_METHODS)
def test_one_pass_sgd_step_trains_as_the_three_pass_loop(task, method):
    # Batches of 6, 6, 6 and 2: the step divides by each batch's own size,
    # not a power of two, so a product with its reciprocal would differ.
    library, reference = _train_both(task, method)
    assert library == reference
    assert not library[2] and len(library[1]) == 2


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_update_to_an_infinite_parameter_ends_training_after_that_batch(sign, monkeypatch):
    # The 6th update (epoch 2's second batch) overflows one bias to -inf or
    # +inf: training stops right after it, diverged, with every parameter
    # stepped in that update, as the three-pass loop leaves them.
    calls = {}  # training batches so far, per model
    batch_pass = toys._categorical_batch

    def overflowing(model, *args, **kwargs):
        out, baseline = batch_pass(model, *args, **kwargs)
        if args[4] is not None and not kwargs.get("loss_only"):  # a training batch
            calls[model] = calls.get(model, 0) + 1
            if calls[model] == 6:
                out.grads["enc_b"][2] = sign * 1e308
        return out, baseline

    monkeypatch.setattr(toys, "_categorical_batch", overflowing)
    updates = []
    step = ToyCategoricalModel.sgd_update

    def counted(self, *args):
        updates.append(step(self, *args))
        return updates[-1]

    monkeypatch.setattr(ToyCategoricalModel, "sgd_update", counted)
    with np.errstate(over="ignore"):  # lr times 1e308 / 6 overflows, in either loop
        library, reference = _train_both("categorical", "sparse", lr=100.0)
    assert library == reference
    assert library[2] and len(library[1]) == 1  # diverged after epoch 1
    assert updates == [True] * 5 + [False]
    enc_b = np.frombuffer(library[3][1])
    assert enc_b[2] == -sign * np.inf and np.isfinite(np.delete(enc_b, 2)).all()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_CERTIFICATES = st.one_of(st.none(), st.booleans(), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS, st.integers(0, 5000), st.integers(0, 4096),
                          _CERTIFICATES), min_size=1, max_size=200))
@example([(0.5, 1.0, 3, 3, None)])
@example([(0.5, 1.0, 3, 3, True)])
@example([(np.inf, 0.0, 1, 1, None), (-np.inf, 1.0, 2, 2, 0.25), (1.0, 0.0, 4, 4, None)])
@example([(np.nan, 0.0, 1, 1, False), (2.0, 1.0, 2, 2, True)])
@example([(1e308, 1.0, 1, 1, None), (1e308, 1.0, 1, 1, None)])  # the sum overflows
def test_finish_epoch_has_the_bits_of_the_tuple_formula(stats):
    # One example or many, certificates None, bool or float in any mix, and
    # any float losses: the same row, bit for bit, and the same warnings.
    # The epoch's entries reach _finish_epoch as the columns of its
    # batches, cut here in batches of 1, 7 and 16, with the certificate
    # column None for a batch where every certificate is.
    def run(finish):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = finish(3, stats)
        fields = [row.epoch, row.loss, row.metric, row.support_mean, row.support_max,
                  row.cert_frac, row.calls.mean, row.calls.p10, row.calls.median, row.calls.p90]
        bits = [struct.pack("<d", v) if isinstance(v, float) else v for v in fields]
        return bits, sorted((w.category.__name__, str(w.message)) for w in caught)

    def column_fed(size):
        def finish(epoch, entries):
            columns = []
            for start in range(0, len(entries), size):
                losses, metrics, calls, supports, certs = zip(*entries[start:start + size])
                columns.append((np.array(losses), np.array(metrics), np.array(calls),
                                np.array(supports),
                                None if all(c is None for c in certs) else list(certs)))
            return toys._finish_epoch(epoch, columns)
        return finish

    expected = run(_tuple_formula_epoch)
    for size in (1, 7, 16):
        assert run(column_fed(size)) == expected, size


def test_bitvec_methods_all_run():
    images = make_bitvec_images(n=16, d=6, seed=12)
    for method in BITVEC_METHODS:
        model = ToyBitVectorVAE.init(d=6, n_pixels=36, seed=13)
        cfg = TrainConfig(method=method, epochs=2, seed=3, k=8)
        log = train_bitvec_vae(model, images, cfg)
        assert len(log.rows) == 2
        assert np.isfinite(log.rows[-1].loss)


def test_bitvec_topk_trains_on_a_blank_image_at_d128():
    # A blank image scores every latent bit 0 at initialization, a total
    # tie over 2^128 configurations.
    images = make_bitvec_images(n=8, d=128, n_pixels=36, seed=21)
    images.images[3] = 0.0
    model = ToyBitVectorVAE.init(d=128, n_pixels=36, seed=22)
    log = train_bitvec_vae(model, images, TrainConfig(method="topk", k=16, epochs=2, seed=4))
    assert not log.diverged
    assert len(log.rows) == 2
    assert all(np.isfinite(row.loss) for row in log.rows)


def test_grad_check_point_mass_linear_decoder():
    # Squared reconstruction keeps the objective quadratic, so a point
    # mass posterior gives machine-precision agreement.
    model = ToyBitVectorVAE.init(d=4, n_pixels=9, seed=14, recon="squared")
    model.enc_w = 3.0 * np.sign(model.enc_w)  # strong scores, vertex posterior
    x = np.ones(9)
    cfg = TrainConfig(method="sparsemap")
    report = model_grad_check(model, cfg, x, h=1e-2)
    assert report.max_rel_err <= 1e-10


def test_grad_check_categorical_model():
    rng = make_rng(15)
    data = _small_cluster_data(seed=16)
    passed = 0
    total = 0
    for i in range(20):
        model = ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8,
                                         seed=i, scale=0.5)
        x = data.features[i]
        y = int(data.labels[i])
        for method in ("dense", "sparse"):
            report = model_grad_check(model, TrainConfig(method=method), (x, y), h=1e-5)
            total += 1
            if report.max_rel_err <= 1e-3:
                passed += 1
    assert passed >= 0.95 * total
    del rng


def test_grad_check_bitvec_topk():
    images = make_bitvec_images(n=8, d=5, seed=17)
    passed = 0
    total = 0
    for i, x in enumerate(images.images):
        model = ToyBitVectorVAE.init(d=5, n_pixels=36, seed=20 + i, scale=0.3)
        report = model_grad_check(model, TrainConfig(method="topk", k=8), x, h=1e-5)
        total += 1
        if report.max_rel_err <= 1e-3:
            passed += 1
    assert passed >= 0.95 * total


def test_grad_check_reports_instability():
    # A model tuned to sit on a tie has support flips under +-h.
    model = ToyBitVectorVAE.init(d=3, n_pixels=4, seed=21)
    model.enc_w[:] = 0.0
    model.enc_b[:] = 0.0
    x = np.ones(4)
    report = model_grad_check(model, TrainConfig(method="sparsemap"), x, h=1e-3)
    # Every encoder coordinate flips the support at the tie; no decoder
    # coordinate does.
    assert report.n_unstable == model.d * (x.size + 1)
    assert report.n_params == model.get_params().size
