"""End-to-end training tasks: gradients, call accounting, invariants."""

import numpy as np
import pytest

from sparsemarg.estimators import MovingAverageBaseline, sfe_grad, sum_and_sample_grad
from sparsemarg.marginalize import LossOracle
from sparsemarg.rng import make_rng
from sparsemarg.simplex import softmax, softmax_vjp, sparsemax, sparsemax_vjp
from sparsemarg.toys import (
    BITVEC_METHODS,
    CATEGORICAL_METHODS,
    ToyBitVectorVAE,
    ToyCategoricalModel,
    TrainConfig,
    make_bitvec_images,
    make_cluster_data,
    model_grad_check,
    train_bitvec_vae,
    train_categorical,
)
from sparsemarg.toys import _bitvec_batch, _categorical_batch, _ordered_sum


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


def _decoder_log_probs(model, z):
    shifted = model.dec_w[z] - model.dec_w[z].max()
    return shifted - np.log(np.exp(shifted).sum())


def _example_reference(model, x, y, cfg, rng, baseline):
    """One example through the library's 1-d mappings, vjps and estimators,
    one decoder row at a time: the per-example arithmetic the batch pass
    must reproduce bit for bit."""
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
        if cfg.method == "sfe":
            est, baseline = sfe_grad(s, oracle, baseline, rng)
        else:
            est = sum_and_sample_grad(s, oracle, cfg.k, rng)
        q = est.probs
        g_s = est.grad + coef * softmax_vjp(q, np.log(q) + 1.0)
        outcomes, weights = est.outcomes, est.weights
        objective = loss = est.loss
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
        return one.stats[0], one.objectives[0], one.grads, base

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
        assert whole.stats == stats
        assert whole.objectives.tolist() == objectives
        assert whole_base == base
        for key in grads:
            assert np.array_equal(whole.grads[key], grads[key])
            assert np.array_equal(np.signbit(whole.grads[key]), np.signbit(grads[key]))
    if method == "sparse":  # support means over fewer and more than 8 outcomes
        sizes = [entry[3] for entry in whole.stats]
        assert min(sizes) < 8 < max(sizes)


def test_ordered_sum_is_repeated_accumulation():
    # A plain sum adds a contiguous run pairwise (here wherever the other
    # axes have size 1) and keeps -0.0; the batch pass needs the bits of
    # repeated += into zeros.
    rng = make_rng(35)
    for shape, axis in (((17, 1), 0), ((17, 3, 1), 0), ((4, 17, 1), 1), ((9, 5, 6), 0)):
        terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        terms[rng.random(shape) < 0.2] = -0.0
        if terms.size > shape[axis]:  # one output summed from -0.0 alone
            first = [0] * len(shape)
            first[axis] = slice(None)
            terms[tuple(first)] = -0.0
        expected = np.zeros(np.delete(shape, axis))
        for term in np.moveaxis(terms, axis, 0):
            expected += term
        got = _ordered_sum(terms, axis)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


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
        certificate = out_k.stats[0][4]
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
    assert all(support >= 1 for _, _, _, support, _ in out.stats)
    assert all(rows.sum(axis=1).max() <= 3 for rows in out.rows)
    # Default budget is D // 2.
    log = train_bitvec_vae(model, images, TrainConfig(method="sparsemap_budget", epochs=2, seed=0))
    assert np.isfinite(log.rows[-1].loss)


@pytest.mark.parametrize("method", BITVEC_METHODS)
def test_bitvec_batch_pass_equals_examples_one_at_a_time(method):
    # Each example's gradient is summed on its own before it joins the
    # batch sum, so a partial batch must reproduce, bit for bit, the log
    # entries, objectives and gradient sum of its examples passed as
    # batches of one in batch order.
    images = make_bitvec_images(n=20, d=6, seed=36)
    model = ToyBitVectorVAE.init(d=6, n_pixels=36, seed=37, scale=0.5)
    cfg = TrainConfig(method=method, k=8, budget=3)
    batch = make_rng(38).permutation(20)[:11]
    whole = _bitvec_batch(model, images.images, batch, cfg)
    grads, stats, objectives, rows = model.zero_grads(), [], [], []
    for i in batch:
        one = _bitvec_batch(model, images.images, [i], cfg)
        stats.append(one.stats[0])
        objectives.append(one.objectives[0])
        rows.append(one.rows[0])
        for key in grads:
            grads[key] += one.grads[key]
    assert whole.stats == stats
    assert whole.objectives.tolist() == objectives
    assert all(np.array_equal(a, b) for a, b in zip(whole.rows, rows))
    for key in grads:
        assert np.array_equal(whole.grads[key], grads[key])
        assert np.array_equal(np.signbit(whole.grads[key]), np.signbit(grads[key]))
    assert max(entry[3] for entry in stats) > 1  # some decoder gradient sums several terms


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


def test_bitvec_methods_all_run():
    images = make_bitvec_images(n=16, d=6, seed=12)
    for method in BITVEC_METHODS:
        model = ToyBitVectorVAE.init(d=6, n_pixels=36, seed=13)
        cfg = TrainConfig(method=method, epochs=2, seed=3, k=8)
        log = train_bitvec_vae(model, images, cfg)
        assert len(log.rows) == 2
        assert np.isfinite(log.rows[-1].loss)


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
