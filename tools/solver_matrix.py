"""Solve a seeded corpus of 3,000 SparseMAP inputs and print one line per input.

Each line holds the input's index, its kind, its polytope, and either the
class name of the exception the solve raised or a fingerprint of the
result: the sha256 of the structures' bits and the ``probs``,
``moments``, ``tau`` and ``nu_min`` bytes, then ``converged`` and the
counters ``iterations``, ``adds``, ``drops``, ``refactorizations`` and
``widenings``, so that a counter drift shows as well.  Run it once
against each of two source trees and diff the outputs; an empty diff
means the two solvers return bit-identical results on every input:

    PYTHONPATH=path/to/old/src python tools/solver_matrix.py > old.txt
    PYTHONPATH=src python tools/solver_matrix.py > new.txt
    diff old.txt new.txt

The corpus covers D = 2 to 40 in four kinds, one quarter each: normal
scores, quarter-step ties, all zeros, and normal scores with 40 % exact
zeros.  Ties and zeros are where the active set meets degenerate steps.
Half the inputs, in alternate groups of four (one of each kind), are on
``BudgetedBitVectorPolytope`` with a budget drawn from 1..D, the rest on
``BitVectorPolytope``.

With ``--rows`` the tool prints the same listing from the batch solver:
the inputs of each (polytope, D, budget) group, all four kinds mixed, are
solved as one ``sparsemap_rows`` batch, and the lines come out in index
order.  Both listings must equal the per-input listing of the older tree.
If a group's batch raises, each of its inputs is solved as a batch of
one, so that the listing still names each input's own outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from sparsemarg.activeset import sparsemap
from sparsemarg.bitvec import BitVectorPolytope, BudgetedBitVectorPolytope
from sparsemarg.rng import make_rng

SEED = 0
N_INPUTS = 3000
KINDS = ("normal", "ties", "zeros", "zeros40")


def corpus():
    """Yield (kind, oracle, scores, label) for every input, in index order."""
    rng = make_rng(SEED)
    for i in range(N_INPUTS):
        kind = KINDS[i % 4]
        d = int(rng.integers(2, 41))
        t = rng.normal(size=d)
        if kind == "ties":
            t = np.round(t * 2.0) / 4.0
        elif kind == "zeros":
            t = np.zeros(d)
        elif kind == "zeros40":
            t[rng.random(d) < 0.4] = 0.0
        if (i // 4) % 2:
            b = int(rng.integers(1, d + 1))
            yield kind, BudgetedBitVectorPolytope(d, b), t, "D=%d,b=%d" % (d, b)
        else:
            yield kind, BitVectorPolytope(d), t, "D=%d" % d


def fingerprint(res) -> str:
    h = hashlib.sha256()
    for s in res.structures:
        h.update(bytes(s.bits))
    h.update(res.probs.tobytes())
    h.update(res.moments.tobytes())
    h.update(np.float64(res.tau).tobytes())
    h.update(np.float64(res.nu_min).tobytes())
    return "%s converged=%s iterations=%d adds=%d drops=%d refactorizations=%d widenings=%d" % (
        h.hexdigest(), res.converged, res.iterations, res.adds, res.drops,
        res.refactorizations, res.widenings)


def _outcome(solve) -> str:
    try:
        return fingerprint(solve())
    except Exception as exc:  # a failed solve is one line of the listing
        return type(exc).__name__


def per_input():
    """(index, kind, label, outcome) of each input, each solved alone."""
    for i, (kind, oracle, t, label) in enumerate(corpus()):
        yield i, kind, label, _outcome(lambda: sparsemap(oracle, t))


def batched():
    """(index, kind, label, outcome) of each input, each group of one
    polytope, D and budget solved as one batch; in index order."""
    # Imported here, so that the per-input listing runs on older trees too.
    from sparsemarg.activeset import sparsemap_rows

    groups = {}
    for i, (kind, oracle, t, label) in enumerate(corpus()):
        key = (type(oracle).__name__, label)
        groups.setdefault(key, (oracle, []))[1].append((i, kind, label, t))
    lines = {}
    for oracle, members in groups.values():
        try:
            outcomes = [fingerprint(res) for res in
                        sparsemap_rows(oracle, np.array([t for *_, t in members]))]
        except Exception:  # the batch raises one row's error; each input gets its own
            outcomes = [_outcome(lambda t=t: sparsemap_rows(oracle, t[None])[0])
                        for *_, t in members]
        for (i, kind, label, _), outcome in zip(members, outcomes):
            lines[i] = (i, kind, label, outcome)
    for i in sorted(lines):
        yield lines[i]


def run_matrix(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", action="store_true",
                        help="solve each (polytope, D, budget) group as one sparsemap_rows batch")
    args = parser.parse_args(argv)
    for i, kind, label, result in (batched() if args.rows else per_input()):
        print("%d %s %s %s" % (i, kind, label, result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_matrix())
