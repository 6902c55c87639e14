"""Result records that hold arrays compare and hash by identity."""

import numpy as np
import pytest

from sparsemarg.activeset import sparsemap
from sparsemarg.bitvec import BitVectorPolytope
from sparsemarg.estimators import sum_and_sample_grad, sum_and_sample_rows
from sparsemarg.marginalize import LossOracle
from sparsemarg.rng import make_rng
from sparsemarg.simplex import sparsemax
from sparsemarg.topk import top_k
from sparsemarg.toys import (
    ToyBitVectorVAE,
    ToyCategoricalModel,
    TrainConfig,
    _bitvec_batch,
    make_bitvec_images,
    make_cluster_data,
)

T = np.array([0.4, -0.3, 0.1, 0.2])


def _batch_pass():
    images = make_bitvec_images(n=2, d=3, seed=1)
    model = ToyBitVectorVAE.init(d=3, n_pixels=images.n_pixels, seed=2)
    return _bitvec_batch(model, images.images, [0, 1], TrainConfig(method="sparse"))


MAKERS = {
    "SparseDistribution": lambda: sparsemax(T),
    "TopKResult": lambda: top_k(T, 2),
    "SparseMapResult": lambda: sparsemap(BitVectorPolytope(4), T),
    "Estimate": lambda: sum_and_sample_grad(T, LossOracle(float), 2, make_rng(0)),
    "RowEstimates": lambda: sum_and_sample_rows(
        np.stack([T, -T]), LossOracle(lambda pairs: pairs[1] * 1.0), 2, make_rng(0)),
    "ClusterData": lambda: make_cluster_data(n=4, n_clusters=2, feat_dim=3),
    "BitImageData": lambda: make_bitvec_images(n=4, d=3),
    "ToyCategoricalModel": lambda: ToyCategoricalModel.init(n_messages=3, n_classes=2, feat_dim=4),
    "ToyBitVectorVAE": lambda: ToyBitVectorVAE.init(d=3, n_pixels=4),
    "_BatchPass": _batch_pass,
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_array_records_compare_and_hash_by_identity(name):
    x, copy = MAKERS[name](), MAKERS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert (x == copy) is False
    assert x != copy
    assert hash(x) == hash(x) and isinstance(hash(copy), int)
