"""Run the 33-run training matrix and print one fingerprint line per run.

Each line holds the run's name, the sha256 of its epoch CSV and the
``repr`` of the manifest's ``initial_loss``.  Run it once against each of
two source trees and diff the outputs; an empty diff means the two trees
train byte-identically on every run:

    PYTHONPATH=path/to/old/src python tools/train_matrix.py > old.txt
    PYTHONPATH=src python tools/train_matrix.py > new.txt
    diff old.txt new.txt

The matrix covers every training method at small sizes, each at seeds 0,
3 and 9: the categorical methods at ``--n 64 --epochs 4 --k 2``, and the
bit-vector methods at ``--n 24 --epochs 3``, with topk both below and past
D = 64, and sparse also at D = 12, the largest enumeration (K = 4096).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from sparsemarg.cli import main

SEEDS = (0, 3, 9)
CATEGORICAL = ["--n", "64", "--epochs", "4", "--k", "2"]
BITVEC = ["--n", "24", "--epochs", "3"]
RUNS = (
    ("categorical_dense", ["categorical", "--method", "dense"] + CATEGORICAL),
    ("categorical_sparse", ["categorical", "--method", "sparse"] + CATEGORICAL),
    ("categorical_sfe", ["categorical", "--method", "sfe"] + CATEGORICAL),
    ("categorical_sum_and_sample", ["categorical", "--method", "sum_and_sample"] + CATEGORICAL),
    ("bitvec_dense_d6", ["bitvec", "--method", "dense", "--d", "6"] + BITVEC),
    ("bitvec_sparse_d6", ["bitvec", "--method", "sparse", "--d", "6"] + BITVEC),
    ("bitvec_sparse_d12", ["bitvec", "--method", "sparse", "--d", "12"] + BITVEC),
    ("bitvec_topk_d8_k8", ["bitvec", "--method", "topk", "--d", "8", "--k", "8"] + BITVEC),
    ("bitvec_topk_d70_k16", ["bitvec", "--method", "topk", "--d", "70", "--k", "16"] + BITVEC),
    ("bitvec_sparsemap_d8", ["bitvec", "--method", "sparsemap", "--d", "8"] + BITVEC),
    ("bitvec_sparsemap_budget_d8_b3",
     ["bitvec", "--method", "sparsemap_budget", "--d", "8", "--budget", "3"] + BITVEC),
)


def fingerprint(argv: list, workdir: str) -> tuple:
    """Train once through the CLI; return the CSV's sha256 and the initial loss."""
    out = os.path.join(workdir, "run.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train"] + argv + ["--out", out])
    if code != 0:
        raise SystemExit("sparsemarg train %s exited with %d" % (" ".join(argv), code))
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(out + ".manifest.json") as fh:
        initial_loss = json.load(fh)["initial_loss"]
    return digest, initial_loss


def run_matrix() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in RUNS:
            for seed in SEEDS:
                digest, initial_loss = fingerprint(argv + ["--seed", str(seed)], workdir)
                print("%s_seed%d %s %r" % (name, seed, digest, initial_loss), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_matrix())
