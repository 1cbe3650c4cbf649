"""DITS-L construction invariants (paper Algorithm 1, Defs 12-14)."""
import numpy as np
import pytest

from repro.core.dits_local import (
    build_dataset_nodes,
    build_dits_l,
    count_nodes,
    iter_dataset_nodes,
    iter_leaves,
    tree_height,
)
from repro.core.node import DatasetNode
from repro.grid import z_encode_np
from tests.conftest import THETA


def _random_datasets(seed, n, theta=8, cells_per=12):
    g = np.random.default_rng(seed)
    m = 1 << theta
    return {
        i: np.unique(z_encode_np(g.integers(0, m, cells_per), g.integers(0, m, cells_per), theta))
        for i in range(n)
    }


def _check_invariants(root, f):
    # every leaf at/under capacity, MBRs contain children, inv consistent,
    # parent pointers correct.
    for leaf in iter_leaves(root):
        assert 1 <= len(leaf.ch) <= f
        for nd in leaf.ch:
            assert nd.pa is leaf
            assert leaf.rect[0] <= nd.rect[0] and leaf.rect[1] <= nd.rect[1]
            assert leaf.rect[2] >= nd.rect[2] and leaf.rect[3] >= nd.rect[3]
        # inverted index maps exactly the children's cells
        expect = {}
        for nd in leaf.ch:
            for c in nd.cells:
                expect.setdefault(int(c), []).append(nd.id)
        got = {
            int(c): leaf.post[leaf.indptr[i] : leaf.indptr[i + 1]].tolist()
            for i, c in enumerate(leaf.keys)
        }
        assert got == expect

    def rec(node):
        if node.is_leaf:
            return
        for ch in (node.left, node.right):
            assert ch.pa is node
            assert node.rect[0] <= ch.rect[0] and node.rect[1] <= ch.rect[1]
            assert node.rect[2] >= ch.rect[2] and node.rect[3] >= ch.rect[3]
            rec(ch)

    rec(root)


class TestDatasetNode:
    def test_fields(self):
        nd = DatasetNode(7, np.array([9, 11]), 2)
        assert nd.id == 7 and nd.size == 2
        assert nd.rect.tolist() == [1.0, 2.0, 1.0, 3.0]
        assert nd.o.tolist() == [1.0, 2.5]
        assert nd.r == pytest.approx(0.5)

    def test_cells_sorted_and_unique_input_preserved(self):
        nd = DatasetNode(0, np.array([11, 9]), 2)
        assert nd.cells.tolist() == [9, 11]

    def test_build_dataset_nodes_sorted_by_id(self):
        nodes = build_dataset_nodes({3: np.array([1]), 1: np.array([2])}, 2)
        assert [n.id for n in nodes] == [1, 3]


class TestBuild:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 50, 200])
    @pytest.mark.parametrize("f", [2, 10])
    def test_all_datasets_indexed(self, n, f):
        ds = _random_datasets(n + f, n)
        root = build_dits_l(ds, 8, f)
        ids = sorted(nd.id for nd in iter_dataset_nodes(root))
        assert ids == sorted(ds)

    @pytest.mark.parametrize("f", [2, 5, 10, 30])
    def test_invariants(self, f):
        ds = _random_datasets(42, 120)
        root = build_dits_l(ds, 8, f)
        _check_invariants(root, f)

    def test_single_dataset_is_leaf_root(self):
        root = build_dits_l({0: np.array([3])}, 4, 10)
        assert root.is_leaf and len(root.ch) == 1

    def test_identical_pivots_terminate(self):
        # All datasets share one cell -> identical pivots; the degenerate
        # split guard must still terminate and index everything.
        ds = {i: np.array([5]) for i in range(40)}
        root = build_dits_l(ds, 4, 3)
        assert sorted(nd.id for nd in iter_dataset_nodes(root)) == list(range(40))
        _check_invariants(root, 3)

    def test_height_is_logarithmic(self):
        ds = _random_datasets(1, 256, cells_per=4)
        root = build_dits_l(ds, 8, 2)
        # perfectly balanced would be ~log2(256/2)+1 = 8; allow slack 2x
        assert tree_height(root) <= 16

    def test_count_nodes(self):
        ds = _random_datasets(9, 64)
        root = build_dits_l(ds, 8, 4)
        n_int, n_leaf, n_ds = count_nodes(root)
        assert n_ds == 64
        assert n_leaf >= 64 // 4
        assert n_int == n_leaf - 1  # binary tree

    def test_split_dimension_is_widest(self):
        # Datasets spread along x only: first split must separate on x.
        ds = {
            i: z_encode_np(np.array([i * 4]), np.array([1]), 6) for i in range(16)
        }
        root = build_dits_l(ds, 6, 2)
        assert not root.is_leaf
        left_ids = {nd.id for nd in iter_dataset_nodes(root.left)}
        right_ids = {nd.id for nd in iter_dataset_nodes(root.right)}
        assert max(left_ids) < min(right_ids)

    def test_on_fixture_corpus(self, union_datasets):
        root = build_dits_l(union_datasets, THETA, 10)
        _check_invariants(root, 10)
        assert sorted(nd.id for nd in iter_dataset_nodes(root)) == sorted(union_datasets)
