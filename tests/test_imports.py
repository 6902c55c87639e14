"""scipy loads only where it is used: importing the library, its toy
tasks and its command line, and training the categorical and top-k tasks,
load no scipy module; the first SparseMAP solve loads LAPACK's extension
alone, and no scipy package.  The checks of what loads run in a fresh
interpreter, since this test process has scipy loaded; the checks of how
``activeset._lapack`` binds ``dtrtrs`` run here, with the extension
hidden or its load made to fail."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

from sparsemarg import BitVectorPolytope, activeset, sparsemap_rows, sparsemap_vjp_rows

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys

import numpy as np

import sparsemarg
import sparsemarg.cli
import sparsemarg.toys as toys
from sparsemarg import activeset


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
assert activeset.dtrtrs is not None
assert scipy() == [], scipy()

# The package imports as usual after the solve, and solves as the solver does.
import scipy.linalg

L = np.tril(np.random.default_rng(0).normal(size=(5, 5))) + 3.0 * np.eye(5)
b = np.random.default_rng(1).normal(size=(5, 2))
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
for trans in (0, 1):
    x = scipy.linalg.solve_triangular(L, b, lower=True, trans=1 - trans, check_finite=False)
    assert x.tobytes() == activeset._dtrtrs(L, b, trans).tobytes(), trans
print("ok")
"""


def test_scipy_loads_only_with_the_first_sparsemap_solve():
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(_SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _solved_bits() -> bytes:
    """The bytes of a batch's solutions and of its vjp."""
    T = np.random.default_rng(3).normal(size=(6, 8))
    results = sparsemap_rows(BitVectorPolytope(8), T)
    grad = sparsemap_vjp_rows(results, np.random.default_rng(4).normal(size=(6, 8)))
    return b"".join(r.probs.tobytes() + r.moments.tobytes() for r in results) + grad.tobytes()


@pytest.fixture
def unbound(monkeypatch):
    """``activeset`` with ``dtrtrs`` unbound and scipy.linalg's extension
    out of ``sys.modules`` (both put back afterwards); yields the bits of a
    solve with the binding the tests started with, and the list of what
    each ``_flapack_alone`` call returned."""
    expected = _solved_bits()
    monkeypatch.setattr(activeset, "dtrtrs", None)
    monkeypatch.delitem(sys.modules, activeset._FLAPACK)
    alone, returned = activeset._flapack_alone, []

    def spied():
        returned.append(alone())
        return returned[-1]

    monkeypatch.setattr(activeset, "_flapack_alone", spied)
    yield expected, returned


def test_the_extension_loads_alone_and_leaves_nothing_registered(unbound):
    expected, returned = unbound
    assert _solved_bits() == expected
    assert len(returned) == 1 and returned[0].dtrtrs is activeset.dtrtrs
    assert activeset._FLAPACK not in sys.modules


@pytest.mark.parametrize("error", [None, ImportError, OSError],
                         ids=["no file", "ImportError", "OSError"])
def test_the_package_dtrtrs_is_bound_where_the_extension_does_not_load_alone(
        unbound, monkeypatch, error):
    expected, returned = unbound
    if error is None:
        monkeypatch.setattr(activeset, "EXTENSION_SUFFIXES", [".missing"])
    else:
        class Refused(activeset.ExtensionFileLoader):
            def create_module(self, spec):
                raise error("refused")

        monkeypatch.setattr(activeset, "ExtensionFileLoader", Refused)
    assert _solved_bits() == expected
    assert returned == [None]
    assert activeset.dtrtrs is scipy.linalg.lapack.dtrtrs
    assert activeset._FLAPACK not in sys.modules


def test_the_extension_scipy_linalg_loaded_is_reused(monkeypatch):
    def never():
        raise AssertionError("the extension was loaded again")

    monkeypatch.setattr(activeset, "dtrtrs", None)
    monkeypatch.setattr(activeset, "_flapack_alone", never)
    activeset._lapack()
    assert activeset.dtrtrs is sys.modules[activeset._FLAPACK].dtrtrs


def test_the_row_kernels_are_exported_from_the_package_root():
    import sparsemarg
    from sparsemarg import activeset, bitvec, simplex, topk

    for module, name in ((activeset, "sparsemap_rows"), (activeset, "sparsemap_vjp_rows"),
                         (bitvec, "kbest_rows"), (simplex, "sparsemax_rows"),
                         (simplex, "sparsemax_vjp_rows"), (topk, "topk_sparsemax_rows")):
        assert name in sparsemarg.__all__
        assert getattr(sparsemarg, name) is getattr(module, name)
