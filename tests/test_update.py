"""Index maintenance: DITS (Appendix C) and every baseline stay correct
under inserts, updates and deletes."""
import numpy as np
import pytest

from repro.baselines.josie import JosieIndex
from repro.baselines.quadtree import QuadTreeIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.sts3 import STS3Index
from repro.core.dits_local import iter_dataset_nodes, iter_leaves
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.grid import z_encode_np


THETA = 8


def _random_datasets(seed, n, cells_per=12):
    g = np.random.default_rng(seed)
    m = 1 << THETA
    return {
        i: np.unique(z_encode_np(g.integers(0, m, cells_per), g.integers(0, m, cells_per), THETA))
        for i in range(n)
    }


def _new_cells(seed):
    g = np.random.default_rng(seed)
    m = 1 << THETA
    return np.unique(z_encode_np(g.integers(0, m, 10), g.integers(0, m, 10), THETA))


def _query(seed):
    g = np.random.default_rng(seed)
    return np.unique(z_encode_np(g.integers(0, 256, 30), g.integers(0, 256, 30), THETA))


def _check_dits_invariants(idx: DitsLocalIndex):
    ids = sorted(nd.id for nd in iter_dataset_nodes(idx.root))
    assert ids == sorted(idx.datasets)
    for leaf in iter_leaves(idx.root):
        assert len(leaf.ch) <= leaf.f
        for nd in leaf.ch:
            assert nd.pa is leaf
            assert leaf.rect[0] <= nd.rect[0] and leaf.rect[2] >= nd.rect[2]
            assert leaf.rect[1] <= nd.rect[1] and leaf.rect[3] >= nd.rect[3]
        expect = {}
        for nd in leaf.ch:
            for c in nd.cells:
                expect.setdefault(int(c), []).append(nd.id)
        got = {
            int(c): sorted(leaf.post[leaf.indptr[i] : leaf.indptr[i + 1]].tolist())
            for i, c in enumerate(leaf.keys)
        }
        assert got == {k: sorted(v) for k, v in expect.items()}

    def rec(node):
        if node.is_leaf:
            return
        for ch in (node.left, node.right):
            assert ch.pa is node
            assert node.rect[0] <= ch.rect[0] and node.rect[2] >= ch.rect[2]
            assert node.rect[1] <= ch.rect[1] and node.rect[3] >= ch.rect[3]
            rec(ch)

    rec(idx.root)


class TestDitsInsert:
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_insert_keeps_invariants_and_results(self, seed):
        ds = _random_datasets(seed, 40)
        idx = DitsLocalIndex(ds, THETA, 4)
        for i in range(40, 80):
            cells = _new_cells(1000 + seed * 100 + i)
            ds[i] = cells
            idx.insert(i, cells)
        _check_dits_invariants(idx)
        q = _query(seed)
        qn = query_node_from_cells(q, THETA)
        assert idx.search_overlap(qn, 10) == brute_force_topk(q, ds, 10)

    def test_insert_triggers_leaf_split(self):
        ds = _random_datasets(9, 4)
        idx = DitsLocalIndex(ds, THETA, 4)
        assert idx.root.is_leaf
        idx.insert(99, _new_cells(9))
        assert not idx.root.is_leaf
        _check_dits_invariants(idx)


class TestDitsUpdateDelete:
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_update(self, seed):
        ds = _random_datasets(seed, 50)
        idx = DitsLocalIndex(ds, THETA, 5)
        g = np.random.default_rng(seed)
        for did in g.choice(50, 20, replace=False):
            cells = _new_cells(2000 + seed * 100 + did)
            ds[int(did)] = cells
            idx.update(int(did), cells)
        _check_dits_invariants(idx)
        q = _query(seed + 1)
        qn = query_node_from_cells(q, THETA)
        assert idx.search_overlap(qn, 10) == brute_force_topk(q, ds, 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_delete(self, seed):
        ds = _random_datasets(seed, 50)
        idx = DitsLocalIndex(ds, THETA, 5)
        g = np.random.default_rng(seed)
        for did in g.choice(50, 25, replace=False):
            del ds[int(did)]
            idx.delete(int(did))
        _check_dits_invariants(idx)
        q = _query(seed + 2)
        qn = query_node_from_cells(q, THETA)
        assert idx.search_overlap(qn, 10) == brute_force_topk(q, ds, 10)

    def test_delete_everything_then_insert(self):
        ds = _random_datasets(11, 10)
        idx = DitsLocalIndex(dict(ds), THETA, 3)
        for did in list(ds):
            idx.delete(did)
        assert len(idx) == 0
        idx.insert(0, ds[0])
        q = ds[0]
        assert idx.search_overlap(query_node_from_cells(q, THETA), 1) == [(0, len(q))]

    def test_coverage_after_updates(self):
        ds = _random_datasets(13, 30)
        idx = DitsLocalIndex(ds, THETA, 4)
        from repro.baselines.greedy import SGCoverage

        for i in (3, 7, 11):
            cells = _new_cells(300 + i)
            ds[i] = cells
            idx.update(i, cells)
        q = _query(13)
        qn = query_node_from_cells(q, THETA)
        assert idx.search_coverage(qn, 4, 5) == SGCoverage(ds, THETA).search(qn, 4, 5)


@pytest.mark.parametrize(
    "factory",
    [
        lambda ds: STS3Index(ds),
        lambda ds: JosieIndex(ds),
        lambda ds: QuadTreeIndex(ds, THETA),
        lambda ds: RTreeIndex(ds, THETA, 5),
    ],
    ids=["sts3", "josie", "quadtree", "rtree"],
)
class TestBaselineMaintenance:
    def _search(self, idx, q, k):
        if isinstance(idx, RTreeIndex):
            return idx.search(query_node_from_cells(q, THETA), k)
        return idx.search(q, k)

    def test_insert(self, factory):
        ds = _random_datasets(21, 30)
        idx = factory(ds)
        for i in range(30, 50):
            cells = _new_cells(500 + i)
            ds[i] = cells
            idx.insert(i, cells)
        q = _query(21)
        assert self._search(idx, q, 10) == brute_force_topk(q, ds, 10)

    def test_update(self, factory):
        ds = _random_datasets(22, 30)
        idx = factory(ds)
        for i in (1, 5, 9, 20):
            cells = _new_cells(600 + i)
            ds[i] = cells
            idx.update(i, cells)
        q = _query(22)
        assert self._search(idx, q, 10) == brute_force_topk(q, ds, 10)

    def test_delete(self, factory):
        ds = _random_datasets(23, 30)
        idx = factory(ds)
        for i in (0, 2, 4, 6, 8):
            del ds[i]
            idx.delete(i)
        q = _query(23)
        assert self._search(idx, q, 10) == brute_force_topk(q, ds, 10)
