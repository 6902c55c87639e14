"""The bit-identity gate of ``tools/train_matrix.py``: one line per run, and a
parameter hash that sees the last bit."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from sparsemarg.toys import (BITVEC_METHODS, CATEGORICAL_METHODS, ToyBitVectorVAE,
                             ToyCategoricalModel)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "train_matrix.py"
_SPEC = importlib.util.spec_from_file_location("train_matrix", _PATH)
train_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(train_matrix)

# name_seedN, CSV sha256, repr(initial_loss), parameter sha256
_LINE = re.compile(r"^\S+_seed\d+ [0-9a-f]{64} \S+ [0-9a-f]{64}$")
# edge run name, then diverged and the epoch rows' sha256 (or "- -" when
# training raised), the parameter sha256, and repr(initial_loss) or the error
_EDGE = re.compile(r"^edge(\d+)_(categorical|bitvec)_"
                   r"(dense|sparse|sfe|sum_and_sample|topk|sparsemap|sparsemap_budget)_"
                   r"(clean|nonfinite|nonfinite_scaled|scaled)_n(5|24|50|90)_b(1|3|8|16)_e([012]) "
                   r"(?:(True|False) [0-9a-f]{64}|- -) [0-9a-f]{64} (\S+|\w+: .+)$")
# degenerate-shape run name, then the edge corpus's fields
_SHAPE = re.compile(r"^shape(\d+)_(categorical|bitvec)_"
                    r"(dense|sparse|sfe|sum_and_sample|topk|sparsemap|sparsemap_budget)_"
                    r"(d\d+_p\d+|m\d+_f\d+_c\d+)_n(4|7|24)_b(1|3)_e([12]) "
                    r"(?:(True|False) [0-9a-f]{64}|- -) [0-9a-f]{64} (\S+|\w+: .+)$")


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


def test_edge_corpus_gives_documented_lines_of_every_method_kind_and_outcome(monkeypatch):
    monkeypatch.setattr(train_matrix, "N_EDGES", 36)
    lines = list(train_matrix.edge_lines())
    matches = [_EDGE.match(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    assert [int(m.group(1)) for m in matches] == list(range(36))
    # Every method once in each kind, the kinds in turn.
    assert [(m.group(2), m.group(3)) for m in matches] == list(train_matrix.EDGE_METHODS) * 4
    assert [m.group(4) for m in matches] == [k for k in train_matrix.EDGE_KINDS for _ in range(9)]
    # Clean runs have finite initial losses; the faults give NaN and errors.
    outcomes = [m.group(9) for m in matches]
    assert all(np.isfinite(float(o)) for o in outcomes[:9])
    assert "nan" in outcomes and any(m.group(8) is None for m in matches)
    assert all((m.group(8) is None) == (":" in m.group(9)) for m in matches)


def test_degenerate_block_gives_edge_lines_of_every_shape_and_method(monkeypatch):
    monkeypatch.setattr(train_matrix, "DEGENERATE_BATCHES", (1, 3))
    lines = list(train_matrix.edge_lines(train_matrix.degenerate_runs()))
    matches = [_SHAPE.match(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    assert [int(m.group(1)) for m in matches] == list(range(54))
    expected = [(task, method, "d%d_p%d" % sizes if task == "bitvec" else "m%d_f%d_c%d" % sizes,
                 batch)
                for task, sizes in train_matrix.DEGENERATE_SHAPES
                for method in (CATEGORICAL_METHODS if task == "categorical" else BITVEC_METHODS)
                for batch in ("1", "3")]
    assert [(m.group(2), m.group(3), m.group(4), m.group(6)) for m in matches] == expected
    # Only sum_and_sample at one message raises; every other run trains.
    raised = [(m.group(3), m.group(4)) for m in matches if m.group(8) is None]
    assert raised == [("sum_and_sample", "m1_f8_c4")] * 2
    assert all((m.group(8) is None) == (":" in m.group(9)) for m in matches)
