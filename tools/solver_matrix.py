"""Solve a seeded corpus of 3,000 SparseMAP inputs, 1,000 more that mostly
raise and 1,024 in large batches, and print one line per input.

Each line holds the input's index, its kind, its polytope, and either the
class name and text of the exception the solve raised or a fingerprint of
the result: the sha256 of the structures' bits and the ``probs``,
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

The error corpus follows, from its own seeded stream, so that the first
3,000 lines do not depend on it.  It covers D = 2 to 8, on the same two
polytopes in the same alternation, in four kinds: normal scores, normal
scores with one entry NaN or +-inf, scores of magnitude 1e12 to 1e19
(where the relaxed solves can give every structure weight 0, or a drop
would empty the support) and of magnitude 1e300 to 1e308 (where sums
overflow).

The large block follows, from a third seeded stream: 256 inputs for each
of D = 40 and 64, on ``BitVectorPolytope`` and on a budgeted polytope,
the four kinds of the main corpus in turn.  Solved as one batch, each of
these groups outgrows the solver's starting room after some of its rows
have converged, so that the batch evicts them from its stack.

With ``--rows`` the tool prints the same listing from the batch solver:
the inputs of each (polytope, D, budget) group, all four kinds mixed, are
solved as one ``sparsemap_rows`` batch, and the lines come out in index
order.  Both listings must equal the per-input listing of the older tree.
A batch raises the error of its lowest row that raises alone.  So when a
group's batch raises, the first of its inputs that raises alone prints
the batch's error, the inputs before it print their solves as one batch,
and the inputs after it are solved as a batch again: each input that
raises shows the error of a batch whose lowest failing row it is, and a
batch that raised another row's error shows in the diff.
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
ERROR_SEED = 1
N_ERRORS = 1000
ERROR_KINDS = ("normal", "nonfinite", "huge", "overflow")
LARGE_SEED = 2
LARGE_ROWS = 256
LARGE = ((40, None), (40, 10), (64, None), (64, 16))  # (D, budget or None)


def corpus():
    """Yield (kind, oracle, label, scores) for every input of the main
    corpus, in index order."""
    rng = make_rng(SEED)
    for i in range(N_INPUTS):
        kind = KINDS[i % 4]
        d = int(rng.integers(2, 41))
        yield (kind, *_polytope(rng, i, d), _scores(rng, kind, d))


def _scores(rng, kind: str, d: int):
    """Scores of one of the main corpus's kinds."""
    t = rng.normal(size=d)
    if kind == "ties":
        t = np.round(t * 2.0) / 4.0
    elif kind == "zeros":
        t = np.zeros(d)
    elif kind == "zeros40":
        t[rng.random(d) < 0.4] = 0.0
    return t


def error_corpus():
    """Yield (kind, oracle, label, scores) for every input of the error
    corpus, in index order."""
    rng = make_rng(ERROR_SEED)
    for i in range(N_ERRORS):
        kind = ERROR_KINDS[i % 4]
        d = int(rng.integers(2, 9))
        if kind == "normal":
            t = rng.normal(size=d)
        elif kind == "nonfinite":
            t = rng.normal(size=d)
            t[rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
        else:
            lo, hi = (12, 19) if kind == "huge" else (300, 308)
            t = rng.uniform(-1.5, 1.5, size=d) * 10.0 ** rng.uniform(lo, hi)
        yield (kind, *_polytope(rng, i, d), t)


def large_corpus():
    """Yield (kind, oracle, label, scores) for every input of the large
    block, in index order: ``LARGE_ROWS`` for each (D, budget) of
    ``LARGE``, the kinds of the main corpus in turn."""
    rng = make_rng(LARGE_SEED)
    for d, b in LARGE:
        if b is None:
            oracle, label = BitVectorPolytope(d), "D=%d" % d
        else:
            oracle, label = BudgetedBitVectorPolytope(d, b), "D=%d,b=%d" % (d, b)
        for i in range(LARGE_ROWS):
            kind = KINDS[i % 4]
            yield kind, oracle, label, _scores(rng, kind, d)


def _polytope(rng, i: int, d: int):
    """Input i's polytope and its label: in alternate groups of four, a
    BudgetedBitVectorPolytope with a budget drawn from 1..d, or a
    BitVectorPolytope."""
    if (i // 4) % 2:
        b = int(rng.integers(1, d + 1))
        return BudgetedBitVectorPolytope(d, b), "D=%d,b=%d" % (d, b)
    return BitVectorPolytope(d), "D=%d" % d


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


def inputs():
    """(part, kind, oracle, label, scores) of every input, in index order:
    part 0 is the main corpus, part 1 the error corpus, part 2 the large
    block."""
    for part, inputs in enumerate((corpus(), error_corpus(), large_corpus())):
        for kind, oracle, label, t in inputs:
            yield part, kind, oracle, label, t


def _error(exc) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _outcome(solve) -> str:
    try:
        return fingerprint(solve())
    except Exception as exc:  # a failed solve is one line of the listing
        return _error(exc)


def per_input():
    """(index, kind, label, outcome) of each input, each solved alone."""
    for i, (_, kind, oracle, label, t) in enumerate(inputs()):
        yield i, kind, label, _outcome(lambda: sparsemap(oracle, t))


def _batch_outcomes(sparsemap_rows, oracle, T) -> list:
    """The outcome of each row of T from ``sparsemap_rows`` batches: all
    of T, and each time a batch raises, the rows after the first one that
    raises alone, whose outcome is the batch's error."""
    outcomes = []
    while True:
        try:
            return outcomes + [fingerprint(res) for res in sparsemap_rows(oracle, T)]
        except Exception as exc:  # a failed batch is the first failing row's line
            error = _error(exc)
        alone = (_outcome(lambda t=t: sparsemap_rows(oracle, t[None])[0]) for t in T)
        k = next((k for k, line in enumerate(alone) if " converged=" not in line), None)
        if k is None:
            raise RuntimeError("a batch raised %s, but none of its rows raises alone" % error)
        outcomes += [fingerprint(res) for res in sparsemap_rows(oracle, T[:k])] + [error]
        T = T[k + 1:]


def batched():
    """(index, kind, label, outcome) of each input, each group of one
    corpus, polytope, D and budget solved as one batch; in index order."""
    # Imported here, so that the per-input listing runs on older trees too.
    from sparsemarg.activeset import sparsemap_rows

    groups = {}
    for i, (part, kind, oracle, label, t) in enumerate(inputs()):
        key = (part, type(oracle).__name__, label)
        groups.setdefault(key, (oracle, []))[1].append((i, kind, label, t))
    lines = {}
    for oracle, members in groups.values():
        T = np.array([t for *_, t in members])
        for (i, kind, label, _), outcome in zip(members,
                                                _batch_outcomes(sparsemap_rows, oracle, T)):
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
