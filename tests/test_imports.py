"""scipy loads only where it is used: importing the library, its toy
tasks and its command line, and training the categorical and top-k tasks,
load no scipy module; the first SparseMAP solve loads LAPACK.  The checks
run in a fresh interpreter, since this test process has scipy loaded."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys

import numpy as np

import sparsemarg
import sparsemarg.cli
import sparsemarg.toys as toys


def scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


assert scipy() == [], scipy()
data = toys.make_cluster_data(n=32, n_clusters=4, feat_dim=8, seed=0)
model = toys.ToyCategoricalModel.init(n_messages=4, n_classes=4, feat_dim=8, seed=0)
toys.train_categorical(model, data, toys.TrainConfig(method="sparse", epochs=2, batch_size=8))
assert scipy() == [], scipy()
images = toys.make_bitvec_images(n=16, d=6, seed=0)
vae = toys.ToyBitVectorVAE.init(d=6, n_pixels=images.n_pixels, seed=0)
toys.train_bitvec_vae(vae, images, toys.TrainConfig(method="topk", k=4, epochs=2, batch_size=8))
assert scipy() == [], scipy()
sparsemarg.sparsemap(sparsemarg.BitVectorPolytope(3), np.array([0.3, -0.2, 0.1]))
assert "scipy.linalg.lapack" in sys.modules, scipy()
print("ok")
"""


def test_scipy_loads_only_with_the_first_sparsemap_solve():
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(_SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_the_row_kernels_are_exported_from_the_package_root():
    import sparsemarg
    from sparsemarg import activeset, bitvec, simplex, topk

    for module, name in ((activeset, "sparsemap_rows"), (activeset, "sparsemap_vjp_rows"),
                         (bitvec, "kbest_rows"), (simplex, "sparsemax_rows"),
                         (simplex, "sparsemax_vjp_rows"), (topk, "topk_sparsemax_rows")):
        assert name in sparsemarg.__all__
        assert getattr(sparsemarg, name) is getattr(module, name)
