"""CoverageSearch (Algorithm 3), connectivity, and the greedy baselines."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import (
    coverage_of,
    coverage_search,
    find_connect_set,
    is_connected_result,
    marginal_gain,
    slab_probe,
)
from repro.core.dits_local import build_dits_l, iter_dataset_nodes
from repro.core.node import DatasetNode
from repro.core.overlap import query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.baselines.greedy import SGCoverage, SGDitsCoverage
from repro.geometry import min_cell_distance
from repro.grid import z_encode_np
from tests.conftest import THETA


def _random_datasets(seed, n, theta=8, cells_per=10):
    g = np.random.default_rng(seed)
    m = 1 << theta
    out = {}
    for i in range(n):
        cx, cy = g.integers(0, m, 2)
        xs = np.clip(cx + g.integers(-4, 5, cells_per), 0, m - 1)
        ys = np.clip(cy + g.integers(-4, 5, cells_per), 0, m - 1)
        out[i] = np.unique(z_encode_np(xs, ys, theta))
    return out


class TestMarginalGain:
    def test_gain_counts_new_cells(self):
        assert marginal_gain(np.array([1, 2, 3]), np.array([2])) == 2

    def test_gain_zero_when_subset(self):
        assert marginal_gain(np.array([1, 2]), np.array([1, 2, 3])) == 0

    def test_gain_counts_duplicates_and_ends(self):
        covered = np.array([3, 5, 9], dtype=np.int64)
        assert marginal_gain(np.array([0, 3, 3, 4, 9, 12, 12]), covered) == 4
        assert marginal_gain(np.array([7, 7]), np.empty(0, dtype=np.int64)) == 2

    def test_coverage_of(self):
        ds = {1: np.array([4, 5])}
        assert coverage_of([1], ds, np.array([5, 6])) == 3


class TestFindConnectSet:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delta", [0, 1.5, 2, 5, 20])
    def test_equals_exact_scan(self, seed, delta):
        ds = _random_datasets(seed, 50)
        root = build_dits_l(ds, 8, 5)
        g = np.random.default_rng(seed + 99)
        q = np.unique(z_encode_np(g.integers(0, 256, 8), g.integers(0, 256, 8), 8))
        qn = query_node_from_cells(q, 8)
        found = []
        find_connect_set(root, qn, delta, found)
        got = sorted(nd.id for nd in found)
        expect = sorted(
            nd.id
            for nd in iter_dataset_nodes(root)
            if min_cell_distance(qn.coords, nd.coords) <= delta
        )
        assert got == expect

    def test_delta_zero_means_overlap_or_touch(self):
        ds = {0: np.array([0]), 1: np.array([3])}  # (0,0) and (1,1)
        root = build_dits_l(ds, 8, 5)
        qn = query_node_from_cells(np.array([0]), 8)
        found = []
        find_connect_set(root, qn, 0, found)
        assert sorted(nd.id for nd in found) == [0]


def _node(points, theta=5):
    xs, ys = np.array(points).T
    return DatasetNode(0, z_encode_np(xs, ys, theta), theta)


_points = st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), min_size=1, max_size=12)
_deltas = st.one_of(
    st.sampled_from([0, 0.5, 1, 1.5, math.sqrt(2), 2, 3, 5, 20]),
    st.floats(0, 40, allow_nan=False),
)


class TestSlabProbe:
    """``slab_probe`` answers exactly what the full scan answers."""

    @given(a=_points, b=_points, delta=_deltas)
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_equals_full_scan(self, a, b, delta):
        qa, qb = _node(a), _node(b)
        assert slab_probe(qa.coords, delta)(qb) == (
            min_cell_distance(qa.coords, qb.coords) <= delta
        )

    @pytest.mark.parametrize(
        "dx, dy, delta",
        [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, math.sqrt(2)), (2, 0, 2),
         (0, 3, 3), (3, 4, 5), (4, 3, 5), (20, 0, 20), (12, 16, 20), (0, 20, 20)],
    )
    def test_boundary_is_inclusive(self, dx, dy, delta):
        # One pair exactly delta apart, in either order, with far-away
        # company on both sides: connected at delta, not just below it.
        a = _node([(4, 4), (63, 0)], theta=6)
        b = _node([(4 + dx, 4 + dy), (0, 63)], theta=6)
        assert slab_probe(a.coords, delta)(b)
        assert slab_probe(b.coords, delta)(a)
        below = np.nextafter(delta, -1.0)
        if below >= 0:
            assert not slab_probe(a.coords, below)(b)
            assert not slab_probe(b.coords, below)(a)

    def test_one_point_sets(self):
        a, b = _node([(7, 7)]), _node([(9, 8)])
        assert not slab_probe(a.coords, 2)(b)
        assert slab_probe(a.coords, math.sqrt(5))(b)
        assert slab_probe(a.coords, 0)(_node([(7, 7)]))

    def test_disjoint_far_sets(self):
        a = _node([(0, 0), (1, 0), (0, 1)])
        b = _node([(30, 30), (31, 31), (30, 31)])
        assert not slab_probe(a.coords, 20)(b)
        assert not slab_probe(b.coords, 20)(a)
        assert slab_probe(a.coords, math.sqrt(29**2 + 30**2))(b)


class TestConnectivityCheck:
    def test_paper_example3(self):
        # D1={9,11}, D2={1,3}, D3={12,13}; delta=1 -> all connected (D2-D3
        # only indirectly through D1).
        ds = {1: np.array([9, 11]), 2: np.array([1, 3]), 3: np.array([12, 13])}
        assert is_connected_result([2, 3], ds, np.array([9, 11]), 1.0, 2)
        # delta=0.5: nothing is connected to the query
        assert not is_connected_result([2], ds, np.array([9, 11]), 0.5, 2)


class TestCoverageSearchAgainstBaselines:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("delta", [0, 3, 8])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_three_algorithms_agree(self, seed, delta, k):
        ds = _random_datasets(seed, 40)
        theta = 8
        root = build_dits_l(ds, theta, 4)
        g = np.random.default_rng(seed + 7)
        q = np.unique(z_encode_np(g.integers(0, 200, 10), g.integers(0, 200, 10), theta))
        qn = query_node_from_cells(q, theta)
        a = coverage_search(root, qn, delta, k, theta)
        b = SGCoverage(ds, theta).search(qn, delta, k)
        c = SGDitsCoverage(root, theta).search(qn, delta, k)
        assert a == b == c

    @pytest.mark.parametrize("seed", range(5))
    def test_result_satisfies_connectivity(self, seed):
        ds = _random_datasets(seed, 40)
        theta, delta, k = 8, 4, 6
        root = build_dits_l(ds, theta, 4)
        g = np.random.default_rng(seed + 7)
        q = np.unique(z_encode_np(g.integers(0, 200, 10), g.integers(0, 200, 10), theta))
        qn = query_node_from_cells(q, theta)
        res = coverage_search(root, qn, delta, k, theta)
        assert is_connected_result([d for d, _ in res], ds, q, delta, theta)

    def test_gains_sum_to_coverage_increase(self):
        ds = _random_datasets(3, 30)
        theta, delta, k = 8, 5, 5
        root = build_dits_l(ds, theta, 4)
        q = ds[0]
        qn = query_node_from_cells(q, theta)
        res = coverage_search(root, qn, delta, k, theta, exclude=frozenset([0]))
        total = coverage_of([d for d, _ in res], ds, q)
        assert total == len(q) + sum(g for _, g in res)

    def test_greedy_picks_max_gain_first(self):
        # Query at cell 0; two candidates adjacent: big (3 cells) and small.
        theta = 4
        big = np.unique(z_encode_np(np.array([1, 2, 3]), np.array([0, 0, 0]), theta))
        small = z_encode_np(np.array([0]), np.array([1]), theta)
        ds = {1: small, 2: big}
        root = build_dits_l(ds, theta, 4)
        qn = query_node_from_cells(np.array([0]), theta)
        res = coverage_search(root, qn, 1.5, 1, theta)
        assert res[0][0] == 2

    def test_unconnected_candidate_never_chosen(self):
        theta = 6
        near = z_encode_np(np.array([1]), np.array([0]), theta)
        far = np.unique(z_encode_np(np.array([50, 51]), np.array([50, 50]), theta))
        ds = {1: near, 2: far}
        root = build_dits_l(ds, theta, 4)
        qn = query_node_from_cells(np.array([0]), theta)
        res = coverage_search(root, qn, 2, 2, theta)
        assert [d for d, _ in res] == [1]

    def test_chain_reachability_grows_with_picks(self):
        # far is reachable only after near is merged in.
        theta = 6
        near = z_encode_np(np.array([2]), np.array([0]), theta)
        far = z_encode_np(np.array([4]), np.array([0]), theta)
        ds = {1: near, 2: far}
        root = build_dits_l(ds, theta, 4)
        qn = query_node_from_cells(np.array([0]), theta)
        res = coverage_search(root, qn, 2, 2, theta)
        assert [d for d, _ in res] == [1, 2]

    def test_k_zero(self, dits):
        q = next(iter(dits.datasets.values()))
        assert dits.search_coverage(query_node_from_cells(q, THETA), 5, 0) == []

    @pytest.mark.parametrize("delta", [0, 5, 20])
    def test_on_fixture_corpus(self, union_datasets, dits, query_ids, delta):
        qid = query_ids[1]
        q = union_datasets[qid]
        qn = query_node_from_cells(q, THETA)
        ex = frozenset([qid])
        a = dits.search_coverage(qn, delta, 10, ex)
        b = SGCoverage(union_datasets, THETA).search(qn, delta, 10, ex)
        assert a == b
        assert is_connected_result([d for d, _ in a], union_datasets, q, delta, THETA)
