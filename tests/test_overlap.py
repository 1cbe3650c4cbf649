"""OverlapSearch (Algorithm 2) and the Lemma 2/3 bounds."""
import numpy as np
import pytest

from repro.core.dits_local import build_dits_l, iter_leaves
from repro.core.overlap import (
    brute_force_topk,
    leaf_bounds,
    overlap_of,
    overlap_search,
    query_node_from_cells,
)
from repro.grid import z_encode_np
from tests.conftest import THETA


def _random_datasets(seed, n, theta=8, cells_per=15):
    g = np.random.default_rng(seed)
    m = 1 << theta
    return {
        i: np.unique(
            z_encode_np(g.integers(0, m // 2, cells_per), g.integers(0, m // 2, cells_per), theta)
        )
        for i in range(n)
    }


class TestOverlapOf:
    def test_basic(self):
        assert overlap_of(np.array([1, 3, 5]), np.array([3, 5, 9])) == 2

    def test_disjoint(self):
        assert overlap_of(np.array([1]), np.array([2])) == 0

    def test_identical(self):
        a = np.array([2, 4, 6])
        assert overlap_of(a, a) == 3


class TestBruteForce:
    def test_ordering_and_tie_break(self):
        ds = {1: np.array([1, 2]), 2: np.array([1, 2]), 3: np.array([1, 2, 3])}
        res = brute_force_topk(np.array([1, 2, 3]), ds, 3)
        assert res == [(3, 3), (1, 2), (2, 2)]

    def test_zero_overlap_excluded(self):
        ds = {1: np.array([9]), 2: np.array([1])}
        assert brute_force_topk(np.array([1]), ds, 5) == [(2, 1)]

    def test_exclude(self):
        ds = {1: np.array([1]), 2: np.array([1])}
        assert brute_force_topk(np.array([1]), ds, 5, frozenset([1])) == [(2, 1)]


class TestLeafBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_lemmas_2_and_3(self, seed):
        """For every leaf: lb <= max child overlap <= ub, and
        lb <= min child overlap (every child contains the lb cells)."""
        ds = _random_datasets(seed, 60)
        root = build_dits_l(ds, 8, 5)
        g = np.random.default_rng(seed + 100)
        q = np.unique(z_encode_np(g.integers(0, 128, 30), g.integers(0, 128, 30), 8))
        for leaf in iter_leaves(root):
            lb, ub = leaf_bounds(leaf, q)
            overlaps = [overlap_of(q, nd.cells) for nd in leaf.ch]
            assert lb <= min(overlaps)
            assert max(overlaps) <= ub

    def test_ub_counts_present_cells(self):
        ds = {0: np.array([1, 2]), 1: np.array([2, 3])}
        root = build_dits_l(ds, 4, 5)
        lb, ub = leaf_bounds(root, np.array([1, 2, 9]))
        assert ub == 2  # cells 1 and 2 in the leaf's key set
        assert lb == 1  # cell 2 in every child


class TestOverlapSearch:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("f", [3, 10])
    def test_equals_brute_force(self, seed, k, f):
        ds = _random_datasets(seed, 80)
        root = build_dits_l(ds, 8, f)
        g = np.random.default_rng(seed + 500)
        q = np.unique(z_encode_np(g.integers(0, 128, 25), g.integers(0, 128, 25), 8))
        qn = query_node_from_cells(q, 8)
        assert overlap_search(root, qn, k) == brute_force_topk(q, ds, k)

    def test_query_with_no_overlap(self):
        ds = {0: np.array([0])}
        root = build_dits_l(ds, 8, 5)
        far = z_encode_np(np.array([200]), np.array([200]), 8)
        qn = query_node_from_cells(far, 8)
        assert overlap_search(root, qn, 3) == []

    def test_exclude_query_dataset(self):
        ds = {0: np.array([1, 2, 3]), 1: np.array([1, 2])}
        root = build_dits_l(ds, 8, 5)
        qn = query_node_from_cells(np.array([1, 2, 3]), 8)
        assert overlap_search(root, qn, 2, frozenset([0])) == [(1, 2)]

    def test_k_larger_than_corpus(self):
        ds = {0: np.array([1]), 1: np.array([1, 2])}
        root = build_dits_l(ds, 8, 5)
        qn = query_node_from_cells(np.array([1, 2]), 8)
        assert overlap_search(root, qn, 99) == [(1, 2), (0, 1)]

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_on_fixture_corpus(self, union_datasets, dits, query_ids, k):
        for qid in query_ids:
            q = union_datasets[qid]
            qn = query_node_from_cells(q, THETA)
            ex = frozenset([qid])
            assert dits.search_overlap(qn, k, ex) == brute_force_topk(q, union_datasets, k, ex)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_not_positive_is_empty(self, union_datasets, dits, query_ids, k):
        q = union_datasets[query_ids[0]]
        assert overlap_search(dits.root, query_node_from_cells(q, THETA), k) == []
        assert brute_force_topk(q, union_datasets, k) == []

    def test_self_query_has_full_overlap(self, union_datasets, dits, query_ids):
        qid = query_ids[0]
        q = union_datasets[qid]
        res = dits.search_overlap(query_node_from_cells(q, THETA), 1)
        assert res[0] == (qid, len(q)) or res[0][1] == len(q)
