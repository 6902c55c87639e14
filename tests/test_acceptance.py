"""Acceptance suite: one test per advertised guarantee, at stated tolerances.

Every test validates the library against an independent route: exhaustive
support enumeration, central finite differences, an external QP solver,
brute-force enumeration of structures, analytic projections, or repeated
CLI invocations.  Tests that carry a runtime budget assert it.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.special import logsumexp

from sparsemarg.activeset import sparsemap, sparsemap_vjp_probs
from sparsemarg.bitvec import (
    BitVectorPolytope,
    IdentityPolytope,
    budget_map_oracle,
    config_matrix,
    kbest,
    map_oracle,
)
from sparsemarg.cli import main as cli_main
from sparsemarg.estimators import (
    MovingAverageBaseline,
    _sas_term,
    _sfe_term,
    dense_grad,
)
from sparsemarg.marginalize import LossOracle, log_marginal_split
from sparsemarg.reference import (
    budget_bruteforce,
    central_difference,
    kbest_bruteforce,
    relative_error,
    sparsemax_bruteforce,
)
from sparsemarg.rng import make_rng
from sparsemarg.simplex import softmax, sparsemax, sparsemax_vjp
from sparsemarg.topk import top_k, topk_sparsemax, topk_sparsemax_vjp
from sparsemarg.toys import (
    ToyBitVectorVAE,
    ToyCategoricalModel,
    TrainConfig,
    make_bitvec_images,
    make_cluster_data,
    train_bitvec_vae,
    train_categorical,
)


def _stable_under_probes(fingerprint, x, h):
    """True when ``fingerprint`` is unchanged at every x +- h e_i."""
    base = fingerprint(x)
    for i in range(x.size):
        for sign in (h, -h):
            probe = x.copy()
            probe[i] += sign
            if fingerprint(probe) != base:
                return False
    return True


def test_01_sparsemax_matches_support_enumeration_qp():
    # 1,000 random score vectors, K in 2..10, against the oracle that
    # solves the simplex projection by trying every support set.
    rng = make_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        K = 2 + trial % 9
        s = rng.normal(size=K) * rng.uniform(0.5, 3.0)
        ref = sparsemax_bruteforce(s)
        worst = max(worst, float(np.abs(sparsemax(s).densify() - ref).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    print("PASS sparsemax oracle equivalence: worst %.3g, %.2fs" % (worst, elapsed))


def test_02_backward_passes_match_finite_differences():
    # 100 support-stable random points per mapping; stability means the
    # support fingerprint is identical at every finite-difference probe.
    start = time.perf_counter()

    h = 1e-6
    rng = make_rng(31)
    checked, attempts, worst = 0, 0, 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 3000
        s = rng.normal(size=8) * 2.0
        if not _stable_under_probes(lambda v: tuple(sparsemax(v).indices), s, h):
            continue
        dist = sparsemax(s)
        u = rng.normal(size=8)
        analytic = sparsemax_vjp(s, dist, u)
        numeric = central_difference(lambda v: float(u @ sparsemax(v).densify()), s, h)
        worst = max(worst, relative_error(analytic, numeric))
        checked += 1
    assert worst <= 1e-4
    worst_simplex = worst

    rng = make_rng(32)
    checked, attempts, worst = 0, 0, 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 3000
        s = rng.normal(size=10) * 2.0
        k = int(rng.integers(2, 7))

        def fingerprint(v):
            dist, cert = topk_sparsemax(v, k)
            return tuple(dist.indices), cert

        if not _stable_under_probes(fingerprint, s, h):
            continue
        dist, _ = topk_sparsemax(s, k)
        u = rng.normal(size=10)
        analytic = topk_sparsemax_vjp(s, k, dist, u)
        numeric = central_difference(
            lambda v: float(u @ topk_sparsemax(v, k)[0].densify()), s, h
        )
        worst = max(worst, relative_error(analytic, numeric))
        checked += 1
    assert worst <= 1e-4
    worst_topk = worst

    h = 1e-5
    D = 5
    polytope = BitVectorPolytope(D)
    rng = make_rng(33)
    checked, attempts, worst = 0, 0, 0.0

    def support_ids(v):
        return tuple(sorted(int(i) for i in sparsemap(polytope, v).outcome_ids))

    def probs_by_id(ids, v):
        res = sparsemap(polytope, v)
        lookup = {int(i): p for i, p in zip(res.outcome_ids, res.probs)}
        return np.array([lookup.get(i, 0.0) for i in ids])

    while checked < 100:
        attempts += 1
        assert attempts < 3000
        t = rng.normal(size=D)
        if not _stable_under_probes(support_ids, t, h):
            continue
        res = sparsemap(polytope, t)
        if not res.converged:
            continue
        ids = [int(i) for i in res.outcome_ids]
        u = rng.normal(size=len(ids))
        analytic = sparsemap_vjp_probs(res, u)
        numeric = central_difference(lambda v: float(u @ probs_by_id(ids, v)), t, h)
        worst = max(worst, relative_error(analytic, numeric))
        checked += 1
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "PASS backward vs finite differences: sparsemax %.3g, topk %.3g, "
        "sparsemap %.3g, %.2fs" % (worst_simplex, worst_topk, worst, elapsed)
    )


def test_03_topk_certificate_soundness():
    # A true certificate must mean the result IS full sparsemax; a false
    # one must only happen when full sparsemax really needs >= k outcomes.
    rng = make_rng(13)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(3, 13))
        s = rng.normal(size=K) * rng.uniform(0.5, 3.0)
        k = int(rng.integers(1, K))
        dist, certificate = topk_sparsemax(s, k)
        full = sparsemax(s)
        if certificate:
            assert dist.support_size < k
            worst = max(worst, float(np.abs(dist.densify() - full.densify()).max()))
        else:
            assert full.support_size >= k
    assert worst <= 1e-12
    print("PASS topk certificate soundness: worst certified gap %.3g" % worst)


def test_04_sparsemap_on_identity_polytope_is_sparsemax():
    rng = make_rng(14)
    worst = 0.0
    for _ in range(500):
        K = int(rng.integers(2, 11))
        s = rng.normal(size=K) * rng.uniform(0.5, 3.0)
        res = sparsemap(IdentityPolytope(K), s)
        assert res.converged
        worst = max(
            worst, float(np.abs(res.distribution.densify() - sparsemax(s).densify()).max())
        )
    assert worst <= 1e-6
    print("PASS sparsemap = sparsemax on one-hot polytope: worst %.3g" % worst)


def test_05_sparsemap_bitvector_moments_agree_with_qp_and_projection():
    # Independent routes: per-coordinate clip to [0, 1], a vertex QP over
    # all 2^D corners (scipy NNLS with sum(lam) = 1 as a heavily weighted
    # extra row, and cvxpy as well when it is installed), and the
    # re-queried oracle's dual certificate.
    try:
        import cvxpy
    except ImportError:
        cvxpy = None
    rng = make_rng(5)
    worst_clip = worst_qp = 0.0
    nu_floor = 0.0
    routes = ["nnls"] + (["cvxpy"] if cvxpy is not None else [])
    for trial in range(18):
        D = 2 + trial % 9
        t = rng.normal(size=D) * rng.uniform(0.5, 2.0)
        res = sparsemap(BitVectorPolytope(D), t)
        assert res.converged
        assert res.support_size <= D + 1
        worst_clip = max(
            worst_clip, float(np.abs(res.moments - np.clip(t, 0.0, 1.0)).max())
        )
        M = config_matrix(D).T
        weight = 1e4
        lam, _ = nnls(np.vstack([M, np.full((1, M.shape[1]), weight)]), np.append(t, weight))
        worst_qp = max(worst_qp, float(np.abs(res.moments - M @ lam).max()))
        if cvxpy is not None:
            lam = cvxpy.Variable(M.shape[1])
            problem = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.sum_squares(M @ lam - t)),
                [lam >= 0, cvxpy.sum(lam) == 1],
            )
            problem.solve()
            worst_qp = max(worst_qp, float(np.abs(res.moments - M @ lam.value).max()))
        candidate = map_oracle(t - res.moments)
        nu_floor = min(nu_floor, res.tau - candidate.score)
    assert worst_clip <= 1e-5
    assert worst_qp <= 1e-5
    assert nu_floor >= -1e-9
    print(
        "PASS sparsemap moments: clip %.3g, vertex QP (%s) %.3g, nu_min %.3g"
        % (worst_clip, "+".join(routes), worst_qp, nu_floor)
    )


def test_06_combinatorial_oracles_match_enumeration():
    rng = make_rng(19)
    for _ in range(500):
        d = int(rng.integers(2, 13))
        t = rng.normal(size=d)
        if rng.random() < 0.3:
            t[rng.random(d) < 0.4] = 0.0
        k = int(rng.integers(1, 33))
        assert [st.bits for st in kbest(t, k)] == kbest_bruteforce(t, k)
    rng = make_rng(20)
    for _ in range(500):
        d = int(rng.integers(2, 13))
        t = rng.normal(size=d)
        if rng.random() < 0.3:
            t[rng.random(d) < 0.4] = 0.0
        b = int(rng.integers(1, d + 1))
        assert budget_map_oracle(t, b).bits == budget_bruteforce(t, b)
    print("PASS combinatorial oracles: 500 kbest + 500 budget trials exact")


def test_07_stochastic_estimators_unbiased_by_enumeration():
    # Weighting each possible draw by its sampling probability must
    # reproduce the dense gradient exactly, baseline frozen.
    rng = make_rng(15)
    worst_sfe = worst_sas = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 11))
        s = rng.normal(size=K) * 1.5
        values = rng.normal(size=K)
        dense = dense_grad(s, LossOracle(lambda z: values[int(z)]))
        p = softmax(s)
        b = MovingAverageBaseline(0.37).value
        terms = _sfe_term(np.tile(p, (K, 1)), np.arange(K), values, np.full(K, b))
        expected_sfe = sum(p[z] * terms[z] for z in range(K))
        worst_sfe = max(worst_sfe, float(np.abs(expected_sfe - dense).max()))
        k = int(rng.integers(1, K))
        kept = top_k(s, k).indices
        kept_values = values[kept]
        comp_mass = 1.0 - p[kept].sum()
        comp = np.setdiff1d(np.arange(K), kept)
        if comp_mass <= 1e-14 or comp.size == 0:
            expected_sas = _sas_term(p[None], kept[None], kept_values[None], np.zeros(1),
                                     np.array([-1]), np.zeros(1))[0]
        else:
            m = comp.size
            terms = _sas_term(np.tile(p, (m, 1)), np.tile(kept, (m, 1)),
                              np.tile(kept_values, (m, 1)), np.full(m, comp_mass), comp,
                              values[comp])
            expected_sas = sum((p[z] / comp_mass) * term for z, term in zip(comp, terms))
        worst_sas = max(worst_sas, float(np.abs(expected_sas - dense).max()))
    assert worst_sfe <= 1e-10
    assert worst_sas <= 1e-10
    print("PASS estimator unbiasedness: sfe %.3g, sum-and-sample %.3g" % (worst_sfe, worst_sas))


def test_08_split_estimator_covers_truth_and_is_exact_on_full_support():
    # D = 10 model with the support holding the dominant joint mass; the
    # complement is estimated, so the truth must land within 3 standard
    # errors in at least 99 of 100 seeded runs.
    D = 10
    dim = 1 << D
    rng = make_rng(100)
    table = rng.normal(size=dim)
    scores = 2.0 * table + 0.3 * rng.normal(size=dim)
    dist = sparsemax(scores)
    assert 1 < dist.support_size < dim
    truth = float(logsumexp(table))
    oracle = LossOracle(lambda z: table[int(z)])
    covered = 0
    for seed in range(100):
        estimate, stderr = log_marginal_split(dist, oracle, 128, seed, dim=dim)
        assert stderr > 0.0
        covered += abs(estimate - truth) <= 3.0 * stderr
    assert covered >= 99

    flat = sparsemax(1e-9 * rng.normal(size=dim))
    assert flat.support_size == dim
    exact, stderr = log_marginal_split(flat, oracle, 1, 0, dim=dim)
    assert stderr == 0.0
    assert exact == pytest.approx(truth, abs=1e-12)
    print("PASS split estimator: %d/100 within 3 stderr, full support exact" % covered)


def test_09_sparse_training_matches_dense_at_a_fraction_of_the_calls():
    # 16-cluster categorical task: exact marginalization over the sparse
    # support must reach dense enumeration's training loss within 2%
    # relative while averaging under 3 decoder calls per example.
    start = time.perf_counter()
    data = make_cluster_data(n=1024, seed=7)
    finals = {}
    for method in ("dense", "sparse"):
        cfg = TrainConfig(method=method, epochs=300, lr=0.5, batch_size=16, seed=1)
        model = ToyCategoricalModel.init(seed=11)
        log = train_categorical(model, data, cfg)
        assert not log.diverged
        finals[method] = log.rows[-1]
    elapsed = time.perf_counter() - start
    gap = abs(finals["sparse"].loss - finals["dense"].loss) / abs(finals["dense"].loss)
    assert gap <= 0.02
    assert finals["dense"].calls.mean == 16.0
    assert finals["sparse"].calls.mean < 3.0
    assert elapsed < 300.0
    print(
        "PASS sparse vs dense training: losses %.4f / %.4f (gap %.2f%%), "
        "calls %.2f vs 16, %.0fs"
        % (
            finals["sparse"].loss,
            finals["dense"].loss,
            100 * gap,
            finals["sparse"].calls.mean,
            elapsed,
        )
    )


def test_10_bitvec_vae_certificates_and_support_bounds(tmp_path):
    # D = 8 autoencoder: topk(k=32) must end with the exactness
    # certificate on >= 90% of examples, sparsemap support must stay
    # within D + 1 throughout, and the call curves go out as CSV.
    data = make_bitvec_images(n=64, d=8, seed=0)
    logs = {}
    for method, extra in (("topk", {"k": 32}), ("sparsemap", {})):
        model = ToyBitVectorVAE.init(d=8, n_pixels=data.n_pixels, seed=0)
        cfg = TrainConfig(method=method, epochs=5, lr=0.2, seed=0, **extra)
        logs[method] = train_bitvec_vae(model, data, cfg)
    assert logs["topk"].rows[-1].cert_frac >= 0.9
    assert all(row.support_max <= 9 for row in logs["sparsemap"].rows)

    for method, flags in (("topk", ["--k", "32"]), ("sparsemap", [])):
        out = tmp_path / ("vae_%s.csv" % method)
        code = cli_main(
            ["train", "bitvec", "--method", method, "--d", "8", "--n", "64",
             "--epochs", "5", "--seed", "0", "--out", str(out)] + flags
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        medians = [float(row.split(",")[header.index("calls_median")]) for row in lines[1:]]
        assert len(medians) == 5
        assert all(m >= 1.0 for m in medians)
    print(
        "PASS bit-vector autoencoder: final certificate rate %.2f, "
        "sparsemap support max %d, call curves written"
        % (logs["topk"].rows[-1].cert_frac, max(r.support_max for r in logs["sparsemap"].rows))
    )


def test_11_cli_training_is_byte_identical_per_seed(tmp_path):
    # Every task/method combination, run twice with the same seed, must
    # produce the same CSV bytes; manifests carry the only timestamps.
    matrix = [
        ("categorical", method, []) for method in ("dense", "sparse", "sfe", "sum_and_sample")
    ] + [
        ("bitvec", "dense", ["--d", "5"]),
        ("bitvec", "sparse", ["--d", "5"]),
        ("bitvec", "topk", ["--d", "5", "--k", "4"]),
        ("bitvec", "sparsemap", ["--d", "5"]),
        ("bitvec", "sparsemap_budget", ["--d", "5", "--budget", "2"]),
    ]
    for task, method, flags in matrix:
        outputs = []
        for rerun in range(2):
            out = tmp_path / ("%s_%s_%d.csv" % (task, method, rerun))
            argv = ["train", task, "--method", method, "--epochs", "2",
                    "--n", "16" if task == "categorical" else "8",
                    "--seed", "9", "--out", str(out)] + flags
            assert cli_main(argv) == 0
            outputs.append(out.read_bytes())
            manifest = json.loads((tmp_path / (out.name + ".manifest.json")).read_text())
            assert manifest["seed"] == 9
        assert outputs[0] == outputs[1], (task, method)
    print("PASS CLI determinism: %d task/method pairs byte-identical" % len(matrix))
