"""The benchmark's workloads: inputs made from the seed, and the training
calls one round makes.

A workload trains ``replicas`` independent problems, each with its own
data, model and training seed derived from the run's seed.  Training
trajectories, and with them support sizes and solver iterations, differ
a lot from one seed to the next; summing over replicas keeps the work
of a run close to the same for every seed.

A round trains every method on every replica once, from a fresh model,
so every round repeats exactly the same operations.  One operation is
one training example: each of the ``n`` examples of a replica passes
once through the initial-loss pass and once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from sparsemarg import toys


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "categorical" or "bitvec"
    methods: tuple
    n: int  # training examples
    size: int  # K messages (categorical) or D latent bits (bitvec)
    width: int  # feature dimension (categorical) or pixels (bitvec)
    epochs: int
    lr: float
    batch_size: int = 16
    k: int = 1  # sum_and_sample kept set, or topk k
    budget: int = 0  # sparsemap_budget active-bit limit
    replicas: int = 6

    @property
    def examples_per_method(self) -> int:
        return self.n * (self.epochs + 1)

    def seeds(self, seed: int) -> list:
        """The replicas' seeds: distinct for every run seed."""
        return [seed * 64 + g for g in range(self.replicas)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("categorical_sparse", "categorical", ("sparse",),
                 n=128, size=16, width=64, epochs=4, lr=1.0),
        Workload("categorical_dense", "categorical", ("dense", "sfe", "sum_and_sample"),
                 n=128, size=16, width=64, epochs=4, lr=1.0, k=2),
        Workload("bitvec_sparsemap", "bitvec", ("sparsemap", "sparsemap_budget"),
                 n=24, size=32, width=36, epochs=3, lr=0.02, batch_size=8, budget=4,
                 replicas=12),
        Workload("bitvec_topk", "bitvec", ("topk",),
                 n=64, size=128, width=36, epochs=4, lr=0.5, k=16),
    )
}


def make_data(wl: Workload, seed: int):
    if wl.task == "categorical":
        return toys.make_cluster_data(n=wl.n, n_clusters=wl.size, feat_dim=wl.width, seed=seed)
    return toys.make_bitvec_images(n=wl.n, d=wl.size, n_pixels=wl.width, seed=seed)


def make_model(wl: Workload, seed: int):
    if wl.task == "categorical":
        return toys.ToyCategoricalModel.init(
            n_messages=wl.size, n_classes=wl.size, feat_dim=wl.width, seed=seed
        )
    return toys.ToyBitVectorVAE.init(d=wl.size, n_pixels=wl.width, seed=seed)


def config(wl: Workload, method: str, seed: int, **overrides):
    fields = dict(method=method, epochs=wl.epochs, lr=wl.lr, batch_size=wl.batch_size,
                  seed=seed, k=wl.k, budget=wl.budget)
    fields.update(overrides)
    return toys.TrainConfig(**fields)


def train(wl: Workload, model, data, cfg):
    # Looked up on the module at call time, so the traced run's wrappers apply.
    if wl.task == "categorical":
        return toys.train_categorical(model, data, cfg)
    return toys.train_bitvec_vae(model, data, cfg)


def subset(wl: Workload, data, rows: slice):
    """The examples ``rows`` of ``data`` as a data set of their own."""
    if wl.task == "categorical":
        return toys.ClusterData(data.features[rows], data.labels[rows], data.n_classes)
    return toys.BitImageData(data.images[rows], data.d, data.n_pixels)
