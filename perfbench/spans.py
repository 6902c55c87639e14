"""Span tracing for the traced run, installed from outside the program.

Each traced public function is replaced, for the length of a traced
round, wherever the program looks it up: the module attribute in every
``sparsemarg`` module that holds it, or the class attribute for methods.
One call records one span: name, start, end (thread CPU time), parent
span, the id of the training example that caused it, and, where the
layer has them, the result's support size, iterations and convergence.
Spans stay in memory until the run ends.

A target the program no longer has is skipped, and a function the
program no longer reaches simply records no spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


# Observers turn a call's result into (size, iterations, converged).
def _support(result):
    return result.support_size, np.nan, np.nan


def _nonzero(result):
    return int(np.count_nonzero(result)), np.nan, np.nan


def _length(result):
    return len(result), np.nan, np.nan


def _solve(result):
    return result.support_size, result.iterations, float(result.converged)


# (span name, defining module, attribute path, observer of the result)
TARGETS = (
    ("toys.train", "sparsemarg.toys", "train_categorical", None),
    ("toys.train", "sparsemarg.toys", "train_bitvec_vae", None),
    ("toys.sgd_update", "sparsemarg.toys", "ToyCategoricalModel.sgd_update", None),
    ("toys.sgd_update", "sparsemarg.toys", "ToyBitVectorVAE.sgd_update", None),
    ("simplex.sparsemax", "sparsemarg.simplex", "sparsemax", _support),
    ("simplex.softmax", "sparsemarg.simplex", "softmax", _nonzero),
    ("topk.top_k", "sparsemarg.topk", "top_k", None),
    ("bitvec.kbest", "sparsemarg.bitvec", "kbest", _length),
    ("bitvec.map", "sparsemarg.bitvec", "BitVectorPolytope.map", None),
    ("bitvec.map", "sparsemarg.bitvec", "BudgetedBitVectorPolytope.map", None),
    ("bitvec.index", "sparsemarg.bitvec", "Structure.index", None),
    ("activeset.sparsemap", "sparsemarg.activeset", "sparsemap", _solve),
    ("activeset.vjp", "sparsemarg.activeset", "sparsemap_vjp_probs", None),
    ("marginalize.loss_eval", "sparsemarg.marginalize", "LossOracle.eval", None),
    ("estimators", "sparsemarg.estimators", "dense_grad", None),
    ("estimators", "sparsemarg.estimators", "sfe_grad", None),
    ("estimators", "sparsemarg.estimators", "sum_and_sample_grad", None),
)

# Methods whose every call starts a new training example.
EXAMPLE_MARKERS = (
    ("sparsemarg.toys", "ToyCategoricalModel.scores"),
    ("sparsemarg.toys", "ToyBitVectorVAE.var_scores"),
)

NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))

# Per-layer metrics and their units.  Times and counts are per round.
UNITS = {
    "toys.train.self_s": "s",
    "toys.sgd_update.calls": "count",
    "toys.sgd_update.self_s": "s",
    "simplex.sparsemax.calls": "count",
    "simplex.sparsemax.self_s": "s",
    "simplex.sparsemax.support_mean": "outcomes",
    "simplex.softmax.calls": "count",
    "simplex.softmax.self_s": "s",
    "topk.top_k.calls": "count",
    "topk.top_k.self_s": "s",
    "topk.cert_rate": "ratio",
    "bitvec.kbest.calls": "count",
    "bitvec.kbest.self_s": "s",
    "bitvec.kbest.us_per_call": "us",
    "bitvec.map.calls": "count",
    "bitvec.map.self_s": "s",
    "bitvec.map.calls_per_solve": "calls/solve",
    "bitvec.index.calls": "count",
    "bitvec.index.self_s": "s",
    "activeset.sparsemap.calls": "count",
    "activeset.sparsemap.self_s": "s",
    "activeset.sparsemap.iters_per_solve": "iters/solve",
    "activeset.sparsemap.support_mean": "outcomes",
    "activeset.sparsemap.nonconverged": "count",
    "activeset.vjp.calls": "count",
    "activeset.vjp.self_s": "s",
    "marginalize.loss_eval.calls": "count",
    "marginalize.loss_eval.self_s": "s",
    "marginalize.calls_per_support": "calls/outcome",
    "estimators.calls": "count",
    "estimators.self_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans of the traced rounds, in flat arrays."""

    def __init__(self):
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.example = array("q")
        self.value = array("d")
        self.iters = array("d")
        self.converged = array("d")
        self.round = array("h")
        self._stack = []
        self._example = -1
        self._round = 0

    def wrap(self, name_id: int, fn, observe):
        stack = self._stack
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.example.append(self._example)
            self.round.append(self._round)
            self.value.append(np.nan)
            self.iters.append(np.nan)
            self.converged.append(np.nan)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                self.value[idx], self.iters[idx], self.converged[idx] = observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def mark(self, fn):
        def marked(*args, **kwargs):
            self._example += 1
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    @contextmanager
    def installed(self, round_id: int):
        """Wrap every target for the length of one traced round."""
        self._round = round_id
        undo = []
        try:
            for name, module, path, observe in TARGETS:
                self._patch(module, path, lambda fn, n=NAMES.index(name), o=observe:
                            self.wrap(n, fn, o), undo)
            for module, path in EXAMPLE_MARKERS:
                self._patch(module, path, self.mark, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(module_name, path, make, undo):
        module = sys.modules.get(module_name)
        if module is None:
            return
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(owner, type):
            if isinstance(original, property):
                replacement = property(make(original.fget))
            else:
                replacement = make(original)
            undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        # A module-level function: replace it wherever a sparsemarg module
        # imported it, since that is where the caller looks it up.
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "sparsemarg" or name.startswith("sparsemarg."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, replacement)

    def arrays(self):
        """Copies of the span fields as numpy arrays (the recorder's own
        buffers must stay free to grow)."""
        fields = {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                  "parent": self.parent, "example": self.example, "value": self.value,
                  "iters": self.iters, "converged": self.converged, "round": self.round}
        return {key: np.array(buf) for key, buf in fields.items()}

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the part its child spans cover, in s."""
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return (dur - child) * 1e-9


def layer_metrics(spans, round_id: int) -> dict:
    """Per-layer metrics of one traced round."""
    sel = spans["round"] == round_id
    own = self_times(spans)[sel]
    names = spans["name"][sel]
    values = spans["value"][sel]
    examples = spans["example"][sel]
    dur = ((spans["end_ns"] - spans["start_ns"])[sel]).astype(np.float64) * 1e-9

    def of(name):
        return names == NAMES.index(name)

    def calls(name):
        return int(of(name).sum())

    def self_s(name):
        return float(own[of(name)].sum())

    def mean(arr):
        return float(arr.mean()) if arr.size else 0.0

    out = {
        "toys.train.self_s": self_s("toys.train"),
        "toys.sgd_update.calls": calls("toys.sgd_update"),
        "toys.sgd_update.self_s": self_s("toys.sgd_update"),
        "simplex.sparsemax.calls": calls("simplex.sparsemax"),
        "simplex.sparsemax.self_s": self_s("simplex.sparsemax"),
        "simplex.sparsemax.support_mean": mean(values[of("simplex.sparsemax")]),
        "simplex.softmax.calls": calls("simplex.softmax"),
        "simplex.softmax.self_s": self_s("simplex.softmax"),
        "topk.top_k.calls": calls("topk.top_k"),
        "topk.top_k.self_s": self_s("topk.top_k"),
        "bitvec.kbest.calls": calls("bitvec.kbest"),
        "bitvec.kbest.self_s": self_s("bitvec.kbest"),
        "bitvec.kbest.us_per_call": 1e6 * mean(dur[of("bitvec.kbest")]),
        "bitvec.map.calls": calls("bitvec.map"),
        "bitvec.map.self_s": self_s("bitvec.map"),
        "bitvec.index.calls": calls("bitvec.index"),
        "bitvec.index.self_s": self_s("bitvec.index"),
        "activeset.sparsemap.calls": calls("activeset.sparsemap"),
        "activeset.sparsemap.self_s": self_s("activeset.sparsemap"),
        "activeset.vjp.calls": calls("activeset.vjp"),
        "activeset.vjp.self_s": self_s("activeset.vjp"),
        "marginalize.loss_eval.calls": calls("marginalize.loss_eval"),
        "marginalize.loss_eval.self_s": self_s("marginalize.loss_eval"),
        "estimators.calls": calls("estimators"),
        "estimators.self_s": self_s("estimators"),
    }
    solve = of("activeset.sparsemap")
    n_solves = int(solve.sum())
    out["bitvec.map.calls_per_solve"] = out["bitvec.map.calls"] / n_solves if n_solves else 0.0
    out["activeset.sparsemap.iters_per_solve"] = mean(spans["iters"][sel][solve])
    out["activeset.sparsemap.support_mean"] = mean(values[solve])
    out["activeset.sparsemap.nonconverged"] = int((spans["converged"][sel][solve] == 0).sum())

    # The certificate holds when the sparsemax over the k-best scores
    # keeps fewer outcomes than k-best returned.
    kb = of("bitvec.kbest")
    if kb.any():
        last_sparsemax = {}
        for ex, v in zip(examples[of("simplex.sparsemax")], values[of("simplex.sparsemax")]):
            last_sparsemax[int(ex)] = v
        certified = [last_sparsemax.get(int(ex), np.inf) < n
                     for ex, n in zip(examples[kb], values[kb])]
        out["topk.cert_rate"] = float(np.mean(certified))
    else:
        out["topk.cert_rate"] = 0.0

    # Loss calls per outcome in the support each example's mapping kept:
    # the support of its last mapping span.
    mapping = of("simplex.sparsemax") | of("simplex.softmax") | solve
    support_of = {}
    for ex, v in zip(examples[mapping], values[mapping]):
        support_of[int(ex)] = v
    total_support = float(sum(support_of.values()))
    out["marginalize.calls_per_support"] = (
        out["marginalize.loss_eval.calls"] / total_support if total_support else 0.0
    )
    return out
