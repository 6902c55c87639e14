"""MAP, budget, and k-best oracles over independent binary variables."""

import hashlib
import heapq

import numpy as np
import pytest

from sparsemarg import bitvec
from sparsemarg.bitvec import (
    BitVectorPolytope,
    BudgetedBitVectorPolytope,
    IdentityPolytope,
    KBest,
    Structure,
    budget_map_oracle,
    config_matrix,
    enumerate_all,
    kbest,
    kbest_rows,
    map_oracle,
)
from sparsemarg.reference import kbest_bruteforce
from sparsemarg.rng import make_rng


def test_map_oracle_sign_rule():
    st = map_oracle([0.5, -0.3, 0.0])
    assert st.bits == (1, 0, 1)  # zero scores activate
    assert st.score == pytest.approx(0.5)
    assert map_oracle([-1.0, -2.0]).bits == (0, 0)
    assert map_oracle([-1.0, -2.0]).score == 0.0
    st = map_oracle([2.0, 3.0])
    assert st.bits == (1, 1) and st.score == pytest.approx(5.0)


def test_map_oracle_maximizes_over_enumeration():
    rng = make_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 11))
        t = rng.normal(size=d)
        best = max(st.score for st in enumerate_all(t))
        assert map_oracle(t).score == pytest.approx(best, abs=1e-12)


def test_budget_oracle_frozen_examples():
    # Frozen from brute force over all subsets of size <= B (D = 4).
    assert budget_map_oracle([3.0, 2.0, -1.0, 0.5], 2).bits == (1, 1, 0, 0)
    assert budget_map_oracle([3.0, -2.0, -1.0, -0.5], 2).bits == (1, 0, 0, 0)


def test_budget_equal_to_dim_is_plain_map():
    rng = make_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        t = rng.normal(size=d)
        assert budget_map_oracle(t, d).bits == map_oracle(t).bits


def test_budget_rejects_bad_budget():
    # At the two public entries: the oracle and the polytope's constructor.
    for budget in (0, 3):
        with pytest.raises(ValueError, match=r"budget must be in \[1, D\]"):
            budget_map_oracle([1.0, 2.0], budget)
        with pytest.raises(ValueError, match=r"budget must be in \[1, D\]"):
            BudgetedBitVectorPolytope(2, budget)


def test_kbest_frozen_example():
    got = kbest([1.0, -0.5], 3)
    assert [st.bits for st in got] == [(1, 0), (1, 1), (0, 0)]
    np.testing.assert_allclose([st.score for st in got], [1.0, 0.5, 0.0])


def _tie_heavy(rng, d):
    """Quarter steps, equal magnitudes of both signs, and exact zeros."""
    yield np.round(rng.normal(size=d) * 2.0) / 4.0
    yield rng.choice([-1.0, 1.0], size=d) * rng.choice([0.5, 1.0], size=d)
    yield np.where(rng.random(d) < 0.5, 0.0, rng.choice([-0.25, 0.25, 0.5], size=d))
    yield np.zeros(d)


def test_kbest_total_tie_is_lexicographic():
    got = kbest([0.0, 0.0], 4)
    assert [st.bits for st in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(st.score == 0.0 for st in got)
    # A blank image scores all 128 bits 0: the 16 best are the 4-bit
    # patterns 0..15 in the last four positions, in counting order.
    got = kbest(np.zeros(128), 16)
    tails = [tuple(int(b) for b in format(r, "04b")) for r in range(16)]
    assert [st.bits for st in got] == [(0,) * 124 + tail for tail in tails]
    assert [st.score for st in got] == [0.0] * 16
    # Every k up to D = 8; past that every k up to 64 and the whole space,
    # since every k at D = 12 costs minutes per vector.
    rng = make_rng(8)
    for d in range(1, 13):
        ks = range(1, (1 << d) + 1) if d <= 8 else [*range(1, 65), 1 << d]
        for _ in range(6 if d <= 6 else 2):
            for t in _tie_heavy(rng, d):
                ref = kbest_bruteforce(t, 1 << d)
                for k in ks:
                    assert [st.bits for st in kbest(t, k)] == ref[:k], (t, k)


def test_kbest_first_element_is_map_for_generic_scores():
    rng = make_rng(3)
    for _ in range(100):
        t = rng.normal(size=6)  # no exact zeros, so no score ties at the top
        assert kbest(t, 1)[0].bits == map_oracle(t).bits


def test_kbest_scores_non_increasing_and_unique():
    rng = make_rng(5)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        t = rng.normal(size=d)
        got = kbest(t, 2 ** d)
        scores = [st.score for st in got]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))
        assert len({st.bits for st in got}) == len(got)


def test_kbest_k_exceeding_space_returns_everything():
    got = kbest([0.3, -0.7], 100)
    assert len(got) == 4


def test_kbest_at_the_edges_of_its_reach_matches_bruteforce():
    # kbest reads only the first k_eff sorted variables: one at k_eff = 1,
    # and all D once k exceeds the 2^D configurations.
    rng = make_rng(9)
    for d in range(1, 11):
        for t in [rng.normal(size=d), *_tie_heavy(rng, d)]:
            ref = kbest_bruteforce(t, 1 << d)
            for k in (1, (1 << d) + 1, 3 << d):
                got = kbest(t, k)
                assert [st.bits for st in got] == ref[:k], (t, k)
                assert [st.score for st in got] == [float(np.dot(st.bits, t)) for st in got]


def _kbest_inputs():
    """Seeded (t, k) pairs: D from 1 to 200 with 62, 63 and 64, k past 2^D
    for small D, and normal, quarter-step tied (signed zeros included) and
    all-zero scores."""
    rng = make_rng(33)
    for d in [*range(1, 13), 62, 63, 64, *range(13, 201, 17), 200]:
        for kind in ("normal", "ties", "zeros"):
            t = rng.normal(size=d)
            if kind == "ties":
                t = np.round(t * 2.0) / 4.0
            elif kind == "zeros":
                t = np.zeros(d)
            for k in (1, int(rng.integers(2, 40)), (1 << d) + 3 if d < 6 else 64):
                yield t, k


# sha256 of every input's structure bits and score bytes, in order, as
# ``kbest`` gave them when it returned a list of Structures.
_KBEST_DIGEST = "8b8dcf73d400186d5697f2e85d54cf2d06263f6ea2c139a209de3eb1d30c7e99"


def test_kbest_returns_rows_and_scores_with_the_bits_of_per_row_dots():
    digest = hashlib.sha256()
    for t, k in _kbest_inputs():
        got = kbest(t, k)
        assert isinstance(got, KBest)
        d = t.size
        assert got.rows.dtype == np.uint8 and got.rows.shape == (min(k, 1 << d), d)
        assert not got.rows.flags.writeable
        dots = [float(np.dot(row.astype(np.int64), t)) for row in got.rows]
        assert got.scores.dtype == np.float64
        assert got.scores.tobytes() == np.array(dots).tobytes(), (t, k)
        structs = list(got)
        assert len(structs) == len(got)
        assert [st.bits for st in structs] == [tuple(row) for row in got.rows.tolist()]
        assert np.array(dots).tobytes() == np.array([st.score for st in structs]).tobytes()
        assert [got[j].bits for j in range(-len(got), len(got))] == [st.bits for st in structs * 2]
        assert [st.bits for st in got[1:-1]] == [st.bits for st in structs[1:-1]]
        for st in structs:
            digest.update(bytes(st.bits))
            digest.update(np.float64(st.score).tobytes())
    assert digest.hexdigest() == _KBEST_DIGEST


def _kbest_reference(t, k):
    """The one-vector k-best as it was before the row form: a lexsort of
    all D variables, one heap, and each score the ``np.dot`` of its row
    with t.  Returns the uint8 (k', D) rows and the float64 (k',) scores."""
    D = t.size
    k_eff = min(k, 1 << D) if D < 63 else k
    idx = np.arange(D)
    order = np.lexsort((np.where(t > 0, idx, -idx), t <= 0, np.abs(t)))
    reach = order[:k_eff - 1]
    cost = np.abs(t)[reach].tolist()
    flip = [1 << (D - 1 - i) for i in reach.tolist()]
    pad = -D % 8
    root = int.from_bytes(np.packbits(t > 0).tobytes(), "big") >> pad
    heap, masks = [(0.0, root, -1, 0.0)], []
    while heap and len(masks) < k_eff:
        c, config, last, trail = heapq.heappop(heap)
        masks.append(config)
        nxt = last + 1
        if nxt < len(flip):
            heapq.heappush(heap, (c + cost[nxt], config ^ flip[nxt], nxt, c))
            if last >= 0:
                heapq.heappush(
                    heap, (trail + cost[nxt], config ^ flip[last] ^ flip[nxt], nxt, trail))
    nbytes = (D + pad) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "big") for m in masks), dtype=np.uint8)
    rows = np.unpackbits(packed.reshape(len(masks), nbytes), axis=1)[:, pad:]
    return rows, np.array([np.dot(row.astype(np.int64), t) for row in rows])


def _cut_ties(rng, d, k):
    """Scores whose (k-1)-th smallest magnitude is shared, with both signs,
    by variables on both sides of the cut, below a few distinct smaller
    magnitudes and among larger ones."""
    small = rng.uniform(0.01, 0.2, size=min(d, max(0, k - 4)))
    tied = rng.choice([-0.5, 0.5], size=min(d - small.size, 7))
    large = rng.normal(size=d - small.size - tied.size) * 3.0
    large += np.sign(large) * 1.0
    return rng.permutation(np.concatenate((small * rng.choice([-1.0, 1.0], small.size),
                                           tied, large)))


@pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 128, 1000])
def test_row_kbest_is_the_reference_kbest_byte_for_byte(d):
    # kbest_rows sorts only the variables no costlier than each row's cut,
    # and builds every row's roots, bits and scores at once: each row must
    # still be the reference's k-best of that row alone, rows and score
    # bytes, signed zeros included (at D = 1, np.dot gives 0 * t_0 the sign
    # of t_0).
    rng = make_rng(50 + d)
    for k in (1, 2, 3, 16, 17, 40, (1 << d) + 3 if d < 6 else 70):
        T = np.array([rng.normal(size=d),
                      np.round(rng.normal(size=d) * 2.0) / 4.0,
                      np.zeros(d),
                      -np.zeros(d),
                      _cut_ties(rng, d, k)])
        rows, scores = kbest_rows(T, k)
        assert rows.dtype == np.uint8 and scores.dtype == np.float64
        assert rows.shape == (5, min(k, 1 << d), d) and scores.shape == rows.shape[:2]
        assert not rows.flags.writeable
        for i, t in enumerate(T):
            ref_rows, ref_scores = _kbest_reference(t, k)
            assert rows[i].tobytes() == ref_rows.tobytes(), (d, k, i)
            assert scores[i].tobytes() == ref_scores.tobytes(), (d, k, i)
            one = kbest(t, k)
            assert one.rows.tobytes() == ref_rows.tobytes(), (d, k, i)
            assert one.scores.tobytes() == ref_scores.tobytes(), (d, k, i)


def test_row_kbest_rejects_bad_input():
    for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((0, 3)), np.array([[0.0, np.nan]]),
                np.array([[np.inf, 1.0]])):
        with pytest.raises(ValueError):
            kbest_rows(bad, 2)
    with pytest.raises(ValueError):
        kbest_rows(np.zeros((2, 3)), 0)


_LAWLER = bitvec._lawler  # the heap itself, apart from any spy on it


def _heap_rows(T, k):
    """kbest_rows with every row run through the heap: ``_flippable`` and
    ``_lawler`` one row at a time, each row's configurations unpacked and
    scored by ``np.dot`` of its own rows."""
    B, D = T.shape
    k_eff = min(k, 1 << D) if D < 63 else k
    pad = -D % 8
    nbytes = (D + pad) // 8
    rows, scores = [], []
    for t in T:
        reach, costs = bitvec._flippable(t[None], min(k_eff - 1, D))
        root = int.from_bytes(np.packbits(t > 0).tobytes(), "big") >> pad
        configs = _LAWLER(costs[0].tolist(), [1 << (D - 1 - i) for i in reach[0].tolist()],
                          root, k_eff)
        packed = np.frombuffer(b"".join(c.to_bytes(nbytes, "big") for c in configs),
                               dtype=np.uint8)
        bits = np.unpackbits(packed.reshape(k_eff, nbytes), axis=1)[:, pad:]
        rows.append(bits)
        scores.append([np.dot(row.astype(np.int64), t) for row in bits])
    return np.array(rows, dtype=np.uint8), np.array(scores, dtype=np.float64)


_KINDS = ("normal", "integers", "specials", "magnitudes", "ulps")


def _scores_of_kind(rng, kind, B, D):
    """Normal scores, integers in -2..2, entries of {0, +-0.5, +-1e-20, 1},
    magnitudes 10^-25..10^4 of either sign, or +-(1 + j 2^-52), j < 8."""
    sign = rng.choice([-1.0, 1.0], size=(B, D))
    if kind == "normal":
        return rng.normal(size=(B, D))
    if kind == "integers":
        return rng.integers(-2, 3, size=(B, D)).astype(np.float64)
    if kind == "specials":
        return rng.choice([0.0, 0.5, -0.5, 1e-20, -1e-20, 1.0], size=(B, D))
    if kind == "magnitudes":
        return sign * 10.0 ** rng.uniform(-25.0, 4.0, size=(B, D))
    return sign * (1.0 + rng.integers(0, 8, size=(B, D)) * 2.0 ** -52)


@pytest.fixture
def heap_rows(monkeypatch):
    """Counts the rows that kbest_rows hands to the heap."""
    count = [0]
    lawler = bitvec._lawler

    def spy(*args):
        count[0] += 1
        return lawler(*args)

    monkeypatch.setattr(bitvec, "_lawler", spy)
    return count


@pytest.mark.parametrize("kind", _KINDS)
def test_row_kbest_is_the_heap_on_every_row(kind, heap_rows):
    # The flip-set table answers a row only when its certificate proves
    # the heap would pop the same nodes in the same order; every other row
    # runs the heap.  Either way each row must be the heap's, bit for bit.
    rng = make_rng(70 + _KINDS.index(kind))
    for d in (1, 2, 3, 5, 8, 16, 40, 64, 128):
        for k in (1, 2, 3, 4, 7, 8, 16, 32):
            T = _scores_of_kind(rng, kind, int(rng.integers(1, 9)), d)
            rows, scores = kbest_rows(T, k)
            ref_rows, ref_scores = _heap_rows(T, k)
            assert rows.dtype == np.uint8 and rows.shape == ref_rows.shape, (kind, d, k)
            assert rows.tobytes() == ref_rows.tobytes(), (kind, d, k)
            assert scores.tobytes() == ref_scores.tobytes(), (kind, d, k)
    # Normal scores never reach the heap; ties and ulp-close magnitudes do.
    assert (heap_rows[0] == 0) == (kind == "normal"), heap_rows[0]


def test_row_kbest_runs_no_heap_on_training_shaped_batches(heap_rows):
    # The benchmark's topk shape: D = 128, k = 16, batches of 16 and 64.
    rng = make_rng(77)
    for B in (16, 64) * 10:
        T = rng.normal(size=(B, 128))
        rows, scores = kbest_rows(T, 16)
        ref_rows, ref_scores = _heap_rows(T, 16)
        assert rows.tobytes() == ref_rows.tobytes()
        assert scores.tobytes() == ref_scores.tobytes()
    assert heap_rows[0] == 0


def _dominators_by_enumeration(node, m):
    """The flip sets over positions 0..m-1 whose i-th largest position is
    at most ``node``'s for every i, counted one set at a time."""
    top = sorted(node, reverse=True)
    count = 0
    for code in range(1 << m):
        other = [p for p in range(m - 1, -1, -1) if code >> p & 1]
        count += len(other) <= len(top) and all(a <= b for a, b in zip(other, top))
    return count


def test_flip_table_counts_dominators_and_holds_the_subtree():
    for m in range(9):
        for code in range(1 << m):
            node = tuple(p for p in range(m) if code >> p & 1)
            assert bitvec._dominators(node) == _dominators_by_enumeration(node, m), node
    n, pos = bitvec._flip_table(16, 15)
    assert n == 36 and len(pos) - n == 34
    nodes = [tuple(p for p in row if p < 15) for row in pos.tolist()]
    assert nodes[0] == () and len(set(nodes)) == len(nodes)
    assert all(bitvec._dominators(node) <= 16 for node in nodes[:n])
    assert all(bitvec._dominators(node) > 16 for node in nodes[n:])
    # Each node's Lawler parent (the last flip dropped if the one before
    # it is its neighbour, else moved one position back) is a table node.
    for node in nodes[1:]:
        *head, last = node
        parent = tuple(head) if last == 0 or head[-1:] == [last - 1] else (*head, last - 1)
        assert nodes.index(parent) < n, node


def test_flip_table_cache_is_bounded_and_evicts_the_least_recent_key():
    # Past _FLIP_TABLES distinct (k, m) keys the oldest table is dropped and
    # built again on its next use, and kbest_rows gives the same bytes from
    # the rebuilt table.
    T = make_rng(361).normal(size=(6, 12))
    bitvec._flip_table.cache_clear()
    rows, scores = kbest_rows(T, 8)  # the key (8, 7)
    keys = [(k, k - 1) for k in range(2, 2 + bitvec._FLIP_TABLES)]
    for k, m in keys:
        bitvec._flip_table(k, m)
    info = bitvec._flip_table.cache_info()
    assert info.currsize == info.maxsize == bitvec._FLIP_TABLES
    again = kbest_rows(T, 8)
    assert bitvec._flip_table.cache_info().misses == info.misses + 1  # (8, 7) was evicted
    assert again[0].tobytes() == rows.tobytes() and again[1].tobytes() == scores.tobytes()
    bitvec._flip_table(*keys[-1])  # the most recent keys stay
    assert bitvec._flip_table.cache_info().misses == info.misses + 1


def test_row_kbest_refuses_a_tie_just_past_the_kth(heap_rows):
    # Sorted costs 1 < 2 < 3: the table's 4th cheapest node flips the two
    # cheapest variables and its 5th the third, both at cost 3, so the
    # k-th pop is the one of smaller configuration, which is the 5th node
    # for the first row and the 4th for the second.  The certificate
    # refuses both rows; the third, with no tie, keeps the table's answer.
    T = np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.5]])
    rows, scores = kbest_rows(T, 4)
    assert heap_rows[0] == 2
    ref_rows, ref_scores = _heap_rows(T, 4)
    assert rows.tobytes() == ref_rows.tobytes() and scores.tobytes() == ref_scores.tobytes()
    assert rows.tolist() == [[[1, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 1]],
                             [[1, 1, 1], [0, 1, 1], [1, 0, 1], [0, 0, 1]],
                             [[1, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 1]]]


def test_row_kbest_adds_costs_in_the_heaps_order():
    # Magnitudes far apart round differently when added in another order
    # (a tiny cost is absorbed or not); each row's table costs must be the
    # heap's sums, added in ascending position order from 0.0.
    for k, t in ((8, [-34.27018198101454, 3.873088502302608e-15, 5.41760224207779]),
                 (7, [0.004705379855548839, 0.06389478334812435, 6.352258645231978e-14,
                      6.908015552510844e-19]),
                 (16, [8.38232073652212e-14, -3.18574329678842e-06, 878.7452804181487,
                       8.335320071631924e-06])):
        T = np.array([t])
        rows, scores = kbest_rows(T, k)
        ref_rows, ref_scores = _heap_rows(T, k)
        assert rows.tobytes() == ref_rows.tobytes(), t
        assert scores.tobytes() == ref_scores.tobytes(), t


def test_kbest_pops_an_ulp_tied_child_after_its_parent(heap_rows):
    # Sorted positions 1 and 4 (variables 2 and 4) cost what their parent,
    # positions 1 and 3 (variables 2 and 0), costs once rounded, and make
    # the smaller configuration; the heap still pops them later (rows 9
    # and 10).  The table's certificate refuses the row.
    u = 2.0 ** -52
    t = np.array([-1 - 2 * u, -1 - 2 * u, 1 + 2 * u, 1 + u, -1 - 3 * u])
    expected = ["00110", "00100", "00010", "01110", "10110", "00111", "00000", "01010",
                "01100", "10010", "00011", "10100", "00101", "10111", "11110", "01111"]
    got = kbest(t, 16)
    assert ["".join(map(str, row)) for row in got.rows.tolist()] == expected
    assert heap_rows[0] == 1
    rows, scores = kbest_rows(np.vstack([t, t]), 16)
    assert rows.tobytes() == np.stack([got.rows] * 2).tobytes()
    assert scores.tobytes() == np.stack([got.scores] * 2).tobytes()


def test_structure_index_and_score_cache():
    st = Structure(bits=(1, 0, 1), score=0.5)
    assert st.index == 1 + 4
    rng = make_rng(6)
    t = rng.normal(size=5)
    for st in enumerate_all(t):
        assert st.score == pytest.approx(np.array(st.bits) @ t, abs=1e-12)
    for d in range(1, 11):
        for r, st in enumerate(enumerate_all(rng.normal(size=d))):
            assert st.index == r


def test_enumerate_all_shape_and_guard():
    assert [st.bits for st in enumerate_all([1.0])] == [(0,), (1,)]
    assert len(enumerate_all([0.1, 0.2])) == 4
    with pytest.raises(ValueError):
        enumerate_all(np.zeros(21))


def test_config_matrix_codes():
    m = config_matrix(3)
    assert m.shape == (8, 3)
    codes = m @ (2 ** np.arange(3))
    assert codes.tolist() == list(range(8))


def test_polytope_adapters():
    poly = BitVectorPolytope(4)
    assert poly.dim == 4
    assert poly.n_outcomes == 16
    st = poly.map(np.array([1.0, -1.0, 0.0, 2.0]))
    assert st.bits == (1, 0, 1, 1)
    assert poly.outcome_index(st) == st.index

    bpoly = BudgetedBitVectorPolytope(4, 2)
    st = bpoly.map(np.array([1.0, 0.5, 0.25, 2.0]))
    assert sum(st.bits) <= 2


@pytest.mark.parametrize("poly", [BitVectorPolytope(4), BudgetedBitVectorPolytope(4, 2),
                                  IdentityPolytope(4)], ids=lambda p: type(p).__name__)
def test_polytopes_refuse_scores_of_another_width(poly):
    # Scores narrower or wider than the polytope's D are an error naming
    # both widths, through map_rows and through its one-row case map.
    for width in (3, 5):
        message = "must have width 4, got %d" % width
        with pytest.raises(ValueError, match=message):
            poly.map_rows(np.ones((2, width)))
        with pytest.raises(ValueError, match=message):
            poly.map(np.ones(width))


def _map_reference(t, poly):
    # The oracles as they were written for one vector: the argmax, first
    # index on ties (where -0.0 ties 0.0), the sign rule, or a stable
    # descending sort cut at the budget, scored by the 1-d @.
    bits = np.zeros(t.size, dtype=np.int64)
    if isinstance(poly, IdentityPolytope):
        values = t.tolist()
        bits[values.index(max(values))] = 1
    elif isinstance(poly, BudgetedBitVectorPolytope):
        order = np.argsort(-t, kind="stable")[: poly.budget]
        bits[order[t[order] >= 0]] = 1
    else:
        bits = (t >= 0).astype(np.int64)
    row = bits.astype(np.float64)
    return tuple(bits.tolist()), float(row @ t)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 32, 40, 65])
def test_map_rows_has_the_bits_of_the_one_vector_oracles(d):
    rng = make_rng(200 + d)
    T = rng.normal(size=(24, d))
    T[1::4] = np.round(T[1::4] * 2.0) / 4.0  # quarter-step ties
    T[2::4] = 0.0
    T[3::4][rng.random((6, d)) < 0.4] = 0.0
    T[5] = -0.0  # signed zeros count as nonnegative
    T[9, : d // 2] = -T[9, d // 2 : 2 * (d // 2)]
    # For the argmax: -0.0 ties 0.0, and a -0.0 above negative scores.
    signed = np.zeros((2, d))
    signed[0, ::2] = -0.0
    signed[1, :-1] = -1.0
    signed[1, -1] = -0.0
    T = np.vstack([T, signed])
    polytopes = [BitVectorPolytope(d), IdentityPolytope(d)] + [
        BudgetedBitVectorPolytope(d, b) for b in sorted({1, max(1, d // 2), d})]
    for poly in polytopes:
        bits, scores = poly.map_rows(T)
        assert bits.dtype == np.uint8 and bits.shape == T.shape
        assert scores.dtype == np.float64 and scores.shape == (T.shape[0],)
        for i, t in enumerate(T):
            ref_bits, ref_score = _map_reference(t, poly)
            assert tuple(bits[i].tolist()) == ref_bits
            assert np.float64(scores[i]).tobytes() == np.float64(ref_score).tobytes()
            one = poly.map(t)  # the one-row case
            assert one.bits == ref_bits
            assert np.float64(one.score).tobytes() == np.float64(ref_score).tobytes()
            assert np.array_equal(one.as_array(), bits[i])
    with pytest.raises(ValueError, match="finite"):
        BitVectorPolytope(d).map_rows(np.full((2, d), np.inf))
    with pytest.raises(ValueError, match=r"\(B, D\) matrix"):
        BitVectorPolytope(d).map_rows(np.zeros(d))
