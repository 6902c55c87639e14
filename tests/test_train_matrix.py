"""The bit-identity gate of ``tools/train_matrix.py``: one line per run, and a
parameter hash that sees the last bit."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from sparsemarg.toys import ToyBitVectorVAE, ToyCategoricalModel

_PATH = Path(__file__).resolve().parents[1] / "tools" / "train_matrix.py"
_SPEC = importlib.util.spec_from_file_location("train_matrix", _PATH)
train_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(train_matrix)

# name_seedN, CSV sha256, repr(initial_loss), parameter sha256
_LINE = re.compile(r"^\S+_seed\d+ [0-9a-f]{64} \S+ [0-9a-f]{64}$")


def test_one_run_gives_one_documented_line_twice(tmp_path):
    argv = ["categorical", "--method", "sparse", "--n", "20", "--epochs", "2", "--k", "2"]
    first = train_matrix.line("categorical_sparse_small", 3, argv, str(tmp_path))
    second = train_matrix.line("categorical_sparse_small", 3, argv, str(tmp_path))
    assert _LINE.match(first), first
    assert first == second
    assert first.startswith("categorical_sparse_small_seed3 ")
    assert float(first.split()[2]) > 0.0  # the initial loss, as its repr


def test_parameter_hash_sees_one_ulp_and_the_sign_of_zero():
    for model in (ToyCategoricalModel.init(n_messages=4, n_classes=3, feat_dim=5, seed=1),
                  ToyBitVectorVAE.init(d=3, n_pixels=4, seed=1)):
        base = train_matrix.param_digest(model)
        assert train_matrix.param_digest(model) == base
        model.enc_w[0, 0] = np.nextafter(model.enc_w[0, 0], np.inf)
        moved = train_matrix.param_digest(model)
        assert moved != base
        assert model.enc_b[-1] == 0.0 and not np.signbit(model.enc_b[-1])
        model.enc_b[-1] = -0.0
        assert train_matrix.param_digest(model) not in (base, moved)
