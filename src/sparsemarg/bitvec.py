"""Exact combinatorial oracles over D independent binary variables.

A configuration is a bit-vector a in {0,1}^D scored by <a, t> for
per-variable scores t.  This module provides the highest-scoring
configuration (MAP), a budget-constrained MAP, k-best enumeration of
one score vector or of a batch of them, which sorts only the variables
that can flip and never touches the remaining 2^D - k configurations,
and exhaustive enumeration for small D as a cross-check.  Polytope
adapters at the bottom expose these oracles through the interface the
active-set solver expects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .simplex import _row_dots
from .topk import _as_k

__all__ = [
    "Structure",
    "KBest",
    "map_oracle",
    "budget_map_oracle",
    "kbest",
    "kbest_rows",
    "enumerate_all",
    "config_matrix",
    "BitVectorPolytope",
    "BudgetedBitVectorPolytope",
    "IdentityPolytope",
]


def _as_variable_scores(t):
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("variable scores must be a nonempty 1-d vector")
    if not np.isfinite(t).all():
        raise ValueError("variable scores must be finite")
    return t


@dataclass(frozen=True)
class Structure:
    """One global configuration: a bit tuple plus its score <bits, t>.

    Identity (equality, hashing) is by bit content only; the score is a
    cached value relative to whatever scores the structure was built from.
    """

    bits: tuple
    score: float = field(compare=False)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.float64)

    @property
    def index(self) -> int:
        """Integer code of the configuration, bit i contributing 2**i."""
        packed = np.packbits(np.asarray(self.bits, dtype=bool), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")


def _structures(bits, scores) -> list:
    """One Structure per 0/1 row of ``bits``, scored by that entry of the
    float array ``scores``."""
    return [Structure(tuple(row), score)
            for row, score in zip(bits.astype(np.uint8, copy=False).tolist(), scores.tolist())]


def _scored(bits, T):
    """``bits`` with the score of each row, its own dot with that row of T."""
    return bits, _row_dots(bits.astype(np.float64), T)


def _map_rows(T):
    """:meth:`BitVectorPolytope.map_rows` of a checked (B, D) matrix."""
    return _scored((T >= 0).view(np.uint8), T)


def _check_budget(budget: int, dim: int):
    if not 1 <= budget <= dim:
        raise ValueError("budget must be in [1, D]")


def _budget_map_rows(T, budget: int):
    """:meth:`BudgetedBitVectorPolytope.map_rows` of a checked (B, D)
    matrix, under a budget already checked against D."""
    B, D = T.shape
    order = np.argsort(-T, axis=1, kind="stable")[:, :budget]
    flat = (order + np.arange(0, B * D, D)[:, None]).ravel()  # in the flat (B * D) bits
    bits = np.zeros(B * D, dtype=np.uint8)
    bits[flat] = T.ravel()[flat] >= 0
    return _scored(bits.reshape(B, D), T)


def map_oracle(t) -> Structure:
    """Highest-scoring configuration: bit i is active iff t_i >= 0."""
    return _structures(*_map_rows(_as_variable_scores(t)[None]))[0]


def budget_map_oracle(t, budget: int) -> Structure:
    """Best configuration with at most ``budget`` active bits.

    Activates the nonnegative entries among the ``budget`` largest scores;
    ties at the boundary go to the lowest index.
    """
    t = _as_variable_scores(t)
    _check_budget(budget, t.size)
    return _structures(*_budget_map_rows(t[None], budget))[0]


class KBest:
    """The k best configurations of one score vector, best first, as arrays.

    ``rows`` is the read-only uint8 (k, D) matrix of their bits and
    ``scores`` the float64 vector of their scores, each row's scored by
    its own dot with t.  As a sequence it holds one :class:`Structure`
    per row, built when read; a slice is a list of them.
    """

    __slots__ = ("rows", "scores")

    def __init__(self, rows: np.ndarray, scores: np.ndarray):
        self.rows = rows
        self.scores = scores

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _structures(self.rows[i], self.scores[i])
        return _structures(self.rows[i][None], self.scores[i][None])[0]

    def __iter__(self):
        return iter(_structures(self.rows, self.scores))


def _as_score_rows(T):
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.size == 0:
        raise ValueError("variable scores must be a nonempty (B, D) matrix")
    if not np.isfinite(T).all():
        raise ValueError("variable scores must be finite")
    return T


def _flippable(T, m: int):
    """The first m variables of each row of T under the order
    (|t_i|, t_i <= 0, i if t_i > 0 else -i), as a (B, m) index matrix,
    and their costs |t_i|.

    Only variables whose cost is at most a row's m-th smallest cost can
    be among them, so one ``argpartition`` on |t| cuts each row to those,
    and only they are sorted by the full key.  Every row keeps as many
    candidates as the row with the most ties at its cut; the extra ones
    cost more than their row's cut and sort after its first m.
    """
    B, D = T.shape
    if m == 0:
        return np.empty((B, 0), dtype=np.intp), np.empty((B, 0))
    r = np.arange(B)[:, None]
    cost = np.abs(T)
    if m < D:
        cand = np.argpartition(cost, m - 1, axis=1)[:, :m]
        c = cost[r, cand]
        below = cost <= c[:, -1:]  # the m-th smallest cost sits last
        if np.count_nonzero(below) > B * m:  # ties at some row's cut
            width = int(below.sum(axis=1).max())
            cand = np.argpartition(cost, width - 1, axis=1)[:, :width]
            c = cost[r, cand]
    else:
        cand, c = np.broadcast_to(np.arange(D), (B, D)), cost
    pos = T[r, cand] > 0
    order = np.lexsort((np.where(pos, cand, -cand), ~pos, c), axis=1)[:, :m]
    return cand[r, order], c[r, order]


def _lawler(cost, flip, root: int, k: int) -> list:
    """The first k pops of one row's best-first search over flip sets, as
    integer configurations: ``root`` XOR the flips, where flipping sorted
    position p costs ``cost[p]`` and XORs ``flip[p]``.

    Heap entries: (cost, configuration, last flipped position in sorted
    order, cost without that last flip), so a node's cost is its flips'
    costs added in ascending position order from 0.0.  child1 adds the
    next position's flip; child2 swaps the last flip for the next, no
    cheaper one.  In exact arithmetic no child's key is below its
    parent's: a zero-cost flip turns a 0 into a 1, and within a tie class
    the order makes every swap lexicographically larger.  child1's flip
    costs at least every earlier one, which rounding cannot absorb unless
    D > 2^53, but where magnitudes differ by a few ulps, child2's sum can
    round to its parent's cost with a smaller configuration, and it still
    pops after its parent.  These pops define :func:`kbest`'s order.
    Pushing child1 and popping the next entry are one ``heappushpop``.
    """
    push, pushpop, pop = heapq.heappush, heapq.heappushpop, heapq.heappop
    heap, configs, n = [], [], len(flip)
    entry = (0.0, root, -1, 0.0)
    while True:
        c, config, last, trail = entry
        configs.append(config)
        nxt = last + 1
        if len(configs) == k:
            return configs
        if nxt < n:
            if last >= 0:
                push(heap, (trail + cost[nxt], config ^ flip[last] ^ flip[nxt], nxt, trail))
            entry = pushpop(heap, (c + cost[nxt], config ^ flip[nxt], nxt, c))
        elif heap:
            entry = pop(heap)
        else:
            return configs


# The dominator counts a process keeps, the least recently used evicted:
# as many as there are flip sets of positions 0..12, so a table that flips
# at most 13 positions (k <= 14, or D <= 13) is rebuilt without counting
# again, and the cache stays near 2 MB however large k grows.
_DOMINATOR_COUNTS = 1 << 13


@lru_cache(maxsize=_DOMINATOR_COUNTS)
def _dominators(node: tuple) -> int:
    """The number of flip sets S, the empty set and ``node`` included, whose
    i-th largest position is at most ``node``'s for every i <= |S|: the
    sets that cost no more than ``node`` under any ascending costs.

    A DP over ``node``'s positions, largest first: ``ends[v]`` counts the
    sets of the current size whose smallest position is v, starting from
    the empty set as if it ended past the last position.
    """
    count, ends = 1, [0] * (max(node, default=-1) + 1) + [1]
    for p in reversed(node):
        above = list(accumulate(reversed(ends)))[::-1]  # above[v]: sets ending at v or later
        ends = above[1:p + 2]
        count += sum(ends)
    return count


# The flip-set tables a process keeps, the least recently used evicted: a
# batch reads one (k, m) key, and a table at k = 4096 holds about 17 MB.
_FLIP_TABLES = 4


@lru_cache(maxsize=_FLIP_TABLES)
def _flip_table(k: int, m: int):
    """The flip sets that can be among the k best when sorted positions
    0..m-1 flip, as the nodes of the Lawler tree that :func:`_lawler`
    walks: every node with at most k :func:`_dominators` (their parents
    have fewer, so they form a subtree from the root), then the boundary,
    the children of those nodes that are not among them.

    Returns the number n of table nodes and an intp matrix of every
    node's positions in ascending order, the n table nodes first, padded
    with m.
    """
    nodes, boundary = [()], []
    for node in nodes:  # grows as it runs: a breadth-first walk
        nxt = node[-1] + 1 if node else 0
        if nxt == m:
            continue
        for child in (node + (nxt,),) + ((node[:-1] + (nxt,),) if node else ()):
            (nodes if _dominators(child) <= k else boundary).append(child)
    every = nodes + boundary
    sizes = np.array([len(node) for node in every])
    pos = np.full((len(every), sizes.max()), m, dtype=np.intp)
    # A mask fills row by row: each node's positions, in order, then padding.
    pos[np.arange(pos.shape[1]) < sizes[:, None]] = np.fromiter(chain.from_iterable(every),
                                                                dtype=np.intp)
    return len(nodes), pos


def _table_rows(T, reach, costs, k: int):
    """Each row's k best from its :func:`_flip_table`, as a uint8 (B, k, D)
    array, and a (B,) mask of the rows whose answer is certain to be
    :func:`_lawler`'s.

    Every node's cost is folded in ascending position order from 0.0, as
    the heap adds it, and one stable argsort picks the k cheapest.  The
    heap pops exactly those, in that order, where the k chosen costs and
    the next table node's are strictly increasing and every boundary
    child costs more than the k-th.  Costs ascend with position and
    rounding is monotone, so no child costs less than its parent; a
    chosen node's parent then costs no more than it, so it is chosen too,
    and costs less.  Each chosen node is thus pushed before its turn, and
    no other entry the heap holds ties or undercuts it.
    """
    n, pos = _flip_table(k, reach.shape[1])
    B, D = T.shape
    # Reducing along an axis that is not the last adds in index order.
    padded = np.append(costs, np.zeros((B, 1)), axis=1)
    path = np.add.reduce(padded[:, pos.T], axis=1, initial=0.0)
    cost, boundary = path[:, :n], path[:, n:]
    order = np.argsort(cost, axis=1, kind="stable")
    best = np.take_along_axis(cost, order[:, :k + 1], axis=1)
    certain = ((best[:, 1:] > best[:, :-1]).all(axis=1)
               & (boundary > best[:, k - 1:k]).all(axis=1))
    # The variables each chosen node flips, padding at the spare column D,
    # set in one scatter into the flat (B, k, D + 1) array.
    var = np.append(reach, np.full((B, 1), D), axis=1)[np.arange(B)[:, None, None],
                                                        pos[order[:, :k]]]
    var += np.arange(0, B * k * (D + 1), D + 1).reshape(B, k, 1)
    flipped = np.zeros((B, k, D + 1), dtype=np.uint8)
    flipped.reshape(-1)[var.ravel()] = 1
    return (T > 0)[:, None, :] ^ flipped[..., :D], certain


def _kbest_rows(T, k: int):
    """:func:`kbest_rows` of a checked (B, D) matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = _as_k(k)  # after the range test, so that k < 1 keeps its own error
    B, D = T.shape
    k_eff = min(k, 1 << D) if D < 63 else k
    # A node whose last flip sits at sorted position m has m + 1 ancestors,
    # all popped before it, so it pops no earlier than pop m + 2.  The
    # k_eff pops thus flip only the first k_eff - 1 positions, and no child
    # past them is pushed.
    reach, costs = _flippable(T, min(k_eff - 1, D))
    rows, certain = _table_rows(T, reach, costs, k_eff)
    refused = np.flatnonzero(~certain)
    if refused.size:
        # Variable i is bit D-1-i of a configuration, so integer order is
        # lexicographic order and flipping variable i is one XOR.
        pad = -D % 8
        nbytes = (D + pad) // 8
        configs = []
        for b, root in zip(refused.tolist(), np.packbits(T[refused] > 0, axis=1)):
            configs += _lawler(costs[b].tolist(), [1 << (D - 1 - i) for i in reach[b].tolist()],
                               int.from_bytes(root.tobytes(), "big") >> pad, k_eff)
        packed = np.frombuffer(b"".join([c.to_bytes(nbytes, "big") for c in configs]),
                               dtype=np.uint8)
        rows[refused] = np.unpackbits(packed.reshape(-1, nbytes), axis=1)[:, pad:].reshape(
            refused.size, k_eff, D)
    rows.flags.writeable = False
    # Each score has the bits of np.dot of its row with t.  That is the
    # stacked per-row dot, except at D = 1, where np.dot takes the
    # one-element rows as scalars, so 0 * t_0 keeps the sign of t_0.
    f = rows.astype(np.float64)
    scores = f[..., 0] * T[:, :1] if D == 1 else _row_dots(f, T[:, None, :])
    return rows, scores


def kbest_rows(scores, k: int):
    """The k highest-scoring configurations of each row of a (B, D) score
    matrix, best first: a read-only uint8 (B, k', D) array of their bits
    and a float64 (B, k') array of their scores, k' = min(k, 2^D).
    :func:`kbest` is its one-row case, and documents the order.

    Each row's search flips only its first k' - 1 variables in the
    search's order (:func:`_flippable`).  The whole batch is answered at
    once from a flip-set table (:func:`_table_rows`); the heap runs only
    on the rows whose certificate that table cannot give, such as rows
    with tied costs or zero scores.
    """
    return _kbest_rows(_as_score_rows(scores), k)


def kbest(t, k: int) -> KBest:
    """The k highest-scoring configurations, best first, as a :class:`KBest`:
    the one-row case of :func:`kbest_rows`.

    The order is the pop order of a best-first search over flip sets
    away from the root that sets bit i iff t_i > 0 (:func:`_lawler`):
    flipping variable i costs |t_i|, and flip sets are generated
    Lawler-style, each exactly once, from one heap keyed by (cost,
    configuration).  In exact arithmetic that is score descending with
    the lexicographically smallest bit-vector winning ties: under the
    variable order (|t_i|, t_i <= 0, i if t_i > 0 else -i) no child sorts
    before its parent, so a tie class is never enumerated, and
    ``kbest(np.zeros(128), 16)`` takes under a millisecond.  Only the
    first min(k, 2^D) - 1 variables in that order can flip, and only
    variables no costlier than the last of them are sorted.

    A cost is the rounded sum along the search path.  Where magnitudes
    differ by a few ulps, distinct sums can round to one cost, and a
    child can then sort before its parent and still pop after it.  For
    t = [-1-2u, -1-2u, 1+2u, 1+u, -1-3u] with u = 2^-52 and k = 16, the
    flip of variables 2 and 4 costs what its parent, the flip of
    variables 2 and 0, costs, and has the smaller configuration, yet
    pops later.  The pop order is the definition there;
    ``kbest_bruteforce``, which rounds ``bits @ t`` instead, may order
    such inputs differently.
    """
    rows, scores = _kbest_rows(_as_variable_scores(t)[None], k)
    return KBest(rows[0], scores[0])


def enumerate_all(t) -> list:
    """Every configuration with its score, in integer-code order.

    Exhaustive by construction; refuses D > 20 outright.
    """
    t = _as_variable_scores(t)
    if t.size > 20:
        raise ValueError("enumeration over 2^D configurations requires D <= 20")
    bits = config_matrix(t.size)
    scores = bits @ t
    return [
        Structure(tuple(int(b) for b in row), float(sc))
        for row, sc in zip(bits, scores)
    ]


def config_matrix(d: int) -> np.ndarray:
    """The (2^D, D) matrix of all bit-vectors, row r encoding integer r."""
    if not 1 <= d <= 20:
        raise ValueError("config_matrix requires 1 <= D <= 20")
    codes = np.arange(1 << d, dtype=np.int64)
    return ((codes[:, None] >> np.arange(d)) & 1).astype(np.float64)


class _Polytope:
    """Vertices in {0,1}^``dim``, served by a row MAP oracle: ``_map_rows``
    of a (B, dim) score matrix already checked."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def map_rows(self, scores):
        """The best vertex of each row of a (B, dim) score matrix: a uint8
        (B, dim) array of their bits and a float64 (B,) array of their
        scores, each row's dot with its own scores.  :meth:`map` is its
        one-row case."""
        T = _as_score_rows(scores)
        if T.shape[1] != self.dim:
            raise ValueError("variable scores must have width %d, got %d"
                             % (self.dim, T.shape[1]))
        return self._map_rows(T)

    def map(self, t) -> Structure:
        """The best vertex for a score vector, as a :class:`Structure`."""
        return _structures(*self.map_rows(_as_variable_scores(t)[None]))[0]


class BitVectorPolytope(_Polytope):
    """All of {0,1}^D as vertices; MAP by the per-variable sign rule."""

    def _map_rows(self, T):
        return _map_rows(T)

    @property
    def n_outcomes(self) -> int:
        return 1 << self.dim

    def outcome_index(self, structure: Structure) -> int:
        return structure.index


class BudgetedBitVectorPolytope(BitVectorPolytope):
    """Bit-vectors with at most ``budget`` active bits: each row's best
    vertex holds the nonnegative entries among its ``budget`` largest
    scores, by one stable descending sort of the rows."""

    def __init__(self, dim: int, budget: int):
        super().__init__(dim)
        _check_budget(budget, dim)
        self.budget = budget

    def _map_rows(self, T):
        return _budget_map_rows(T, self.budget)


class IdentityPolytope(_Polytope):
    """The unstructured case: vertices are the K one-hot indicators.

    MAP is the argmax of the scores, first index on ties, so SparseMAP
    over this polytope must reproduce plain sparsemax.
    """

    def _map_rows(self, T):
        bits = np.zeros(T.shape, dtype=np.uint8)
        bits[np.arange(T.shape[0]), np.argmax(T, axis=1)] = 1
        return _scored(bits, T)

    @property
    def n_outcomes(self) -> int:
        return self.dim

    def outcome_index(self, structure: Structure) -> int:
        return structure.bits.index(1)
