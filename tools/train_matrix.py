"""Run the 93-run training matrix and print one fingerprint line per run.

Each line holds the run's name, the sha256 of its epoch CSV, the
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
D = 32, batches of 8 and a budget of 4.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from sparsemarg import cli

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
)


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


def run_matrix() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in RUNS:
            for seed in SEEDS:
                print(line(name, seed, argv, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_matrix())
