"""Run the 120-run training matrix, a 300-run edge corpus and a 108-run
degenerate-shape block, and print one fingerprint line per run.

Each matrix line holds the run's name, the sha256 of its epoch CSV, the
``repr`` of the manifest's ``initial_loss`` and the sha256 of the final
parameter bytes.  The CSV rounds its floats; the parameter hash sees
every bit, signed zeros included, so a change of one ulp anywhere in
training shows.  The tool reads the parameters itself, by wrapping the
train functions the CLI calls, so it needs nothing new from the tree it
runs.  Run it once against each of two source trees and diff the
outputs; an empty diff means the two trees train bit-identically on
every run:

    PYTHONPATH=path/to/old/src python tools/train_matrix.py > old.txt
    PYTHONPATH=src python tools/train_matrix.py > new.txt
    diff old.txt new.txt

The matrix covers every training method at small sizes, each at seeds 0,
3 and 9: the categorical methods at ``--n 64 --epochs 4 --k 2``, and the
bit-vector methods at ``--n 24 --epochs 3``.  The sampling estimators
also run at their batch edges: sum_and_sample at k = 1 and at k = 15 (a
one-outcome complement at K = 16), and every categorical method at
``--n 50``, whose last batch of 16 holds 2 examples.  Categorical dense
and sparse also run at ``--batch-size 1``: the pass groups each batch's
examples by support size, so the mix of sizes in a batch is part of what
is tested.  Topk runs at k above 2^D (D = 3), at D = 64 (where k is no
longer clamped to 2^D), past D = 64 and at the benchmark's D = 128,
k = 16, and sparse and dense also run at D = 12, the largest enumeration
(K = 4096, a dense batch past one loss block).  The bit-vector pass
groups each batch's supports by size too, so topk at D = 128, sparse at
D = 6 and sparsemap at D = 8 also run at ``--batch-size 1`` and at
``--n 50``, whose last batch of 16 holds 2 examples.  The SparseMAP
solver advances a batch's solves together, grouped by support size, so
sparsemap and sparsemap_budget also run at the benchmark's shape:
D = 32, batches of 8 and a budget of 4.  The initial loss is one
gradient-free pass over the whole data set where its posterior fits in
one loss block, and the first training batch then reuses that posterior
(bit-vector dense and sparse at D = 8 take several passes and map it
again); so every bit-vector method and categorical sparse and sfe also
run at ``--epochs 0`` (the initial loss alone), and sparsemap runs with
one batch of 32 holding all 24 examples.

None of those runs trips the divergence guard or raises, so an edge
corpus of 300 runs follows, from its own seeded stream, so that the
first 120 lines do not depend on it.  It calls the public
``sparsemarg.toys`` API, which older trees have too: every method at
D = 8 (K = 8 messages), n of 5, 24, 50 or 90, batches of 1, 3, 8 or 16
and 0 to 2 epochs, in four kinds in turn: clean, one or two NaN or +-inf
entries, those plus one or two examples scaled by 1e50, and the scaling
alone.  A pass over such data trips or raises, and the initial loss then
runs its batches one at a time.  Each line holds the run's name,
``diverged``, the sha256 of the epoch rows' repr and the parameter
sha256, then the initial loss's repr; a run that raises prints ``- -``
for the first two and the class name and text of its error last.
Warnings are silenced and are not part of a line.

The gradient sums add over a leading axis, and a sum whose result is a
single entry, or whose summed axis is a view's contiguous one, would add
pairwise instead.  So a block of 108 runs at degenerate shapes follows,
from a third stream, in the edge corpus's line format: the bit-vector
task at D = 4 with one pixel (every method; dense, sparse and topk at
k = 16 keep supports of 9 or more outcomes) and at D = 1 with one and two
pixels, and the categorical task with one message, one feature or one
class (every method; sum_and_sample raises at one message).  Each shape
and method runs at batches of 1 and 3, twice, with its n, epochs, seed
and init scale drawn.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from sparsemarg import cli, toys
from sparsemarg.rng import make_rng

SEEDS = (0, 3, 9)
CATEGORICAL = ["--n", "64", "--epochs", "4", "--k", "2"]
BITVEC = ["--n", "24", "--epochs", "3"]
RUNS = (
    ("categorical_dense", ["categorical", "--method", "dense"] + CATEGORICAL),
    ("categorical_sparse", ["categorical", "--method", "sparse"] + CATEGORICAL),
    ("categorical_sfe", ["categorical", "--method", "sfe"] + CATEGORICAL),
    ("categorical_sum_and_sample", ["categorical", "--method", "sum_and_sample"] + CATEGORICAL),
    ("categorical_sum_and_sample_k1",
     ["categorical", "--method", "sum_and_sample", "--n", "64", "--epochs", "4", "--k", "1"]),
    ("categorical_sum_and_sample_k15",
     ["categorical", "--method", "sum_and_sample", "--n", "64", "--epochs", "4", "--k", "15"]),
    ("categorical_sfe_n50",
     ["categorical", "--method", "sfe", "--n", "50", "--epochs", "4", "--k", "2"]),
    ("categorical_sum_and_sample_n50",
     ["categorical", "--method", "sum_and_sample", "--n", "50", "--epochs", "4", "--k", "2"]),
    ("categorical_dense_n50",
     ["categorical", "--method", "dense", "--n", "50", "--epochs", "4", "--k", "2"]),
    ("categorical_sparse_n50",
     ["categorical", "--method", "sparse", "--n", "50", "--epochs", "4", "--k", "2"]),
    ("categorical_dense_b1",
     ["categorical", "--method", "dense", "--batch-size", "1"] + CATEGORICAL),
    ("categorical_sparse_b1",
     ["categorical", "--method", "sparse", "--batch-size", "1"] + CATEGORICAL),
    ("bitvec_dense_d6", ["bitvec", "--method", "dense", "--d", "6"] + BITVEC),
    ("bitvec_sparse_d6", ["bitvec", "--method", "sparse", "--d", "6"] + BITVEC),
    ("bitvec_sparse_d12", ["bitvec", "--method", "sparse", "--d", "12"] + BITVEC),
    ("bitvec_dense_d12", ["bitvec", "--method", "dense", "--d", "12"] + BITVEC),
    ("bitvec_topk_d3_k16", ["bitvec", "--method", "topk", "--d", "3", "--k", "16"] + BITVEC),
    ("bitvec_topk_d8_k8", ["bitvec", "--method", "topk", "--d", "8", "--k", "8"] + BITVEC),
    ("bitvec_topk_d64_k16", ["bitvec", "--method", "topk", "--d", "64", "--k", "16"] + BITVEC),
    ("bitvec_topk_d70_k16", ["bitvec", "--method", "topk", "--d", "70", "--k", "16"] + BITVEC),
    ("bitvec_topk_d128_k16", ["bitvec", "--method", "topk", "--d", "128", "--k", "16"] + BITVEC),
    ("bitvec_sparsemap_d8", ["bitvec", "--method", "sparsemap", "--d", "8"] + BITVEC),
    ("bitvec_sparsemap_budget_d8_b3",
     ["bitvec", "--method", "sparsemap_budget", "--d", "8", "--budget", "3"] + BITVEC),
    ("bitvec_topk_d128_k16_b1",
     ["bitvec", "--method", "topk", "--d", "128", "--k", "16", "--batch-size", "1"] + BITVEC),
    ("bitvec_topk_d128_k16_n50",
     ["bitvec", "--method", "topk", "--d", "128", "--k", "16", "--n", "50", "--epochs", "3"]),
    ("bitvec_sparse_d6_b1",
     ["bitvec", "--method", "sparse", "--d", "6", "--batch-size", "1"] + BITVEC),
    ("bitvec_sparse_d6_n50",
     ["bitvec", "--method", "sparse", "--d", "6", "--n", "50", "--epochs", "3"]),
    ("bitvec_sparsemap_d8_b1",
     ["bitvec", "--method", "sparsemap", "--d", "8", "--batch-size", "1"] + BITVEC),
    ("bitvec_sparsemap_d8_n50",
     ["bitvec", "--method", "sparsemap", "--d", "8", "--n", "50", "--epochs", "3"]),
    ("bitvec_sparsemap_d32_b8",
     ["bitvec", "--method", "sparsemap", "--d", "32", "--batch-size", "8"] + BITVEC),
    ("bitvec_sparsemap_budget_d32_b8_b4",
     ["bitvec", "--method", "sparsemap_budget", "--d", "32", "--batch-size", "8",
      "--budget", "4"] + BITVEC),
    ("categorical_sparse_e0",
     ["categorical", "--method", "sparse", "--n", "64", "--epochs", "0", "--k", "2"]),
    ("categorical_sfe_e0",
     ["categorical", "--method", "sfe", "--n", "64", "--epochs", "0", "--k", "2"]),
    ("bitvec_dense_d6_e0", ["bitvec", "--method", "dense", "--d", "6", "--n", "24",
                            "--epochs", "0"]),
    ("bitvec_sparse_d6_e0", ["bitvec", "--method", "sparse", "--d", "6", "--n", "24",
                             "--epochs", "0"]),
    ("bitvec_topk_d128_k16_e0", ["bitvec", "--method", "topk", "--d", "128", "--k", "16",
                                 "--n", "24", "--epochs", "0"]),
    ("bitvec_sparsemap_d8_e0", ["bitvec", "--method", "sparsemap", "--d", "8", "--n", "24",
                                "--epochs", "0"]),
    ("bitvec_sparsemap_budget_d8_b3_e0",
     ["bitvec", "--method", "sparsemap_budget", "--d", "8", "--budget", "3", "--n", "24",
      "--epochs", "0"]),
    ("bitvec_sparsemap_d32_b8_e0",
     ["bitvec", "--method", "sparsemap", "--d", "32", "--batch-size", "8", "--n", "24",
      "--epochs", "0"]),
    ("bitvec_sparsemap_d8_bs32",
     ["bitvec", "--method", "sparsemap", "--d", "8", "--batch-size", "32"] + BITVEC),
)
EDGE_SEED = 1
N_EDGES = 300
EDGE_METHODS = (tuple(("categorical", m) for m in ("dense", "sparse", "sfe", "sum_and_sample"))
                + tuple(("bitvec", m) for m in ("dense", "sparse", "topk", "sparsemap",
                                                "sparsemap_budget")))
EDGE_KINDS = ("clean", "nonfinite", "nonfinite_scaled", "scaled")
DEGENERATE_SEED = 2
# (task, sizes): (D, pixels) for the bit-vector task, (messages, features,
# classes) for the categorical one.
DEGENERATE_SHAPES = (("bitvec", (4, 1)), ("bitvec", (1, 1)), ("bitvec", (1, 2)),
                     ("categorical", (1, 8, 4)), ("categorical", (8, 1, 4)),
                     ("categorical", (8, 8, 1)))
DEGENERATE_BATCHES = (1, 3, 1, 3)


def param_digest(model) -> str:
    """sha256 of the model's parameter arrays' bytes, in ``PARAMS`` order."""
    h = hashlib.sha256()
    for key in model.PARAMS:
        h.update(getattr(model, key).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def _final_params(digests: list):
    """Append the parameter digest of every model the CLI trains to ``digests``."""
    names = ("train_categorical", "train_bitvec_vae")
    originals = {name: getattr(cli, name) for name in names}

    def hashing(train):
        def wrapped(model, data, cfg):
            log = train(model, data, cfg)
            digests.append(param_digest(model))
            return log
        return wrapped

    for name, train in originals.items():
        setattr(cli, name, hashing(train))
    try:
        yield
    finally:
        for name, train in originals.items():
            setattr(cli, name, train)


def fingerprint(argv: list, workdir: str) -> tuple:
    """Train once through the CLI; return the CSV's sha256, the initial loss
    and the final parameters' sha256."""
    out = os.path.join(workdir, "run.csv")
    digests = []
    with contextlib.redirect_stdout(io.StringIO()), _final_params(digests):
        code = cli.main(["train"] + argv + ["--out", out])
    if code != 0 or len(digests) != 1:
        raise SystemExit("sparsemarg train %s exited with %d after %d trainings"
                         % (" ".join(argv), code, len(digests)))
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(out + ".manifest.json") as fh:
        initial_loss = json.load(fh)["initial_loss"]
    return digest, initial_loss, digests[0]


def line(name: str, seed: int, argv: list, workdir: str) -> str:
    """The matrix line of one run: name and seed, CSV hash, initial loss, parameter hash."""
    digest, initial_loss, params = fingerprint(argv + ["--seed", str(seed)], workdir)
    return "%s_seed%d %s %r %s" % (name, seed, digest, initial_loss, params)


def edge_runs():
    """Yield (name, train function, model, data, config) for every run of
    the edge corpus, in index order, with the faults of its kind written
    into the data."""
    rng = make_rng(EDGE_SEED)
    for i in range(N_EDGES):
        task, method = EDGE_METHODS[i % len(EDGE_METHODS)]
        kind = EDGE_KINDS[(i // len(EDGE_METHODS)) % len(EDGE_KINDS)]
        n, batch_size = int(rng.choice([5, 24, 50, 90])), int(rng.choice([1, 3, 8, 16]))
        epochs, seed = int(rng.integers(0, 3)), int(rng.integers(1000))
        if task == "categorical":
            data = toys.make_cluster_data(n=n, n_clusters=4, feat_dim=8, seed=seed)
            model = toys.ToyCategoricalModel.init(n_messages=8, n_classes=4, feat_dim=8,
                                                  seed=seed, scale=0.3)
            train, inputs = toys.train_categorical, data.features
        else:
            data = toys.make_bitvec_images(n=n, d=8, seed=seed)
            model = toys.ToyBitVectorVAE.init(d=8, n_pixels=data.n_pixels, seed=seed, scale=0.3)
            train, inputs = toys.train_bitvec_vae, data.images
        if kind.startswith("nonfinite"):
            for _ in range(int(rng.integers(1, 3))):
                at = rng.integers(n), rng.integers(inputs.shape[1])
                inputs[at] = rng.choice([np.nan, np.inf, -np.inf])
        if kind.endswith("scaled"):
            inputs[rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] *= 1e50
        cfg = toys.TrainConfig(method=method, epochs=epochs, batch_size=batch_size, seed=seed,
                               k=3, budget=3)
        name = "edge%d_%s_%s_%s_n%d_b%d_e%d" % (i, task, method, kind, n, batch_size, epochs)
        yield name, train, model, data, cfg


def degenerate_runs():
    """Yield (name, train function, model, data, config) for every run of
    the degenerate-shape block, in index order."""
    rng = make_rng(DEGENERATE_SEED)
    i = 0
    for task, sizes in DEGENERATE_SHAPES:
        methods = toys.CATEGORICAL_METHODS if task == "categorical" else toys.BITVEC_METHODS
        for method in methods:
            for batch_size in DEGENERATE_BATCHES:
                n, epochs = int(rng.choice([4, 7, 24])), int(rng.integers(1, 3))
                seed, scale = int(rng.integers(1000)), float(rng.choice([0.01, 0.3, 1.0]))
                if task == "categorical":
                    messages, features, classes = sizes
                    data = toys.make_cluster_data(n=n, n_clusters=classes, feat_dim=features,
                                                  seed=seed)
                    model = toys.ToyCategoricalModel.init(n_messages=messages, n_classes=classes,
                                                          feat_dim=features, seed=seed,
                                                          scale=scale)
                    train, shape = toys.train_categorical, "m%d_f%d_c%d" % sizes
                else:
                    d, pixels = sizes
                    data = toys.make_bitvec_images(n=n, d=d, n_pixels=pixels, seed=seed)
                    model = toys.ToyBitVectorVAE.init(d=d, n_pixels=pixels, seed=seed, scale=scale)
                    train, shape = toys.train_bitvec_vae, "d%d_p%d" % sizes
                cfg = toys.TrainConfig(method=method, epochs=epochs, batch_size=batch_size,
                                       seed=seed, k=16 if method == "topk" else 1)
                yield ("shape%d_%s_%s_%s_n%d_b%d_e%d"
                       % (i, task, method, shape, n, batch_size, epochs), train, model, data, cfg)
                i += 1


def edge_lines(runs=None):
    """The line of each run of ``runs``, the edge corpus by default: name,
    ``diverged``, the sha256 of the epoch rows' repr and the parameter
    sha256, then the initial loss's repr; or, if training raised, ``-``
    for the first two and the exception's class name and text last."""
    for name, train, model, data, cfg in edge_runs() if runs is None else runs:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                log = train(model, data, cfg)
            head = "%s %s" % (log.diverged, hashlib.sha256(repr(log.rows).encode()).hexdigest())
            outcome = repr(log.initial_loss)
        except Exception as exc:  # a raising run is one line of the listing
            head, outcome = "- -", "%s: %s" % (type(exc).__name__, exc)
        yield "%s %s %s %s" % (name, head, param_digest(model), outcome)


def run_matrix() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in RUNS:
            for seed in SEEDS:
                print(line(name, seed, argv, workdir), flush=True)
    for edge in edge_lines():
        print(edge, flush=True)
    for shape in edge_lines(degenerate_runs()):
        print(shape, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_matrix())
