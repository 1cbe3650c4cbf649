"""Multi-source framework: result correctness + communication accounting."""
import numpy as np
import pytest

from repro.baselines.greedy import SGCoverage
from repro.core.framework import DataSource, clip_cells_to_summary, recode_cells
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.synth_spatial import SPACE
from tests.conftest import THETA


class TestRecodeCells:
    def test_same_theta_identity(self):
        c = np.array([3, 9, 11])
        assert np.array_equal(recode_cells(c, SPACE, 12, 12), c)

    def test_coarser_theta_merges(self):
        # theta 12 -> 10: 4x4 fine cells collapse into one coarse cell.
        from repro.grid import cell_ids_np

        fine = cell_ids_np(np.array([10.0, 10.01]), np.array([20.0, 20.01]), SPACE, 12)
        coarse = recode_cells(np.unique(fine), SPACE, 12, 10)
        expect = np.unique(cell_ids_np(np.array([10.0, 10.01]), np.array([20.0, 20.01]), SPACE, 10))
        assert np.array_equal(coarse, expect)


class TestClip:
    def test_clip_is_lossless_for_overlap(self, center, union_datasets, query_ids):
        """Cells clipped away can never contribute overlap at that source."""
        qid = query_ids[0]
        q = union_datasets[qid]
        for s in center.summaries.values():
            kept = clip_cells_to_summary(q, s, 0.0, SPACE, THETA)
            dropped = np.setdiff1d(q, kept)
            src = center.sources[s.source_id]
            for did, cells in src.index.datasets.items():
                assert np.intersect1d(dropped, cells).size == 0


class TestOverlapSearchFramework:
    def test_equals_brute_force_all_strategies(self, center, union_datasets, query_ids):
        for qid in query_ids:
            q = union_datasets[qid]
            ex = frozenset([qid])
            bf = brute_force_topk(q, union_datasets, 10, ex)
            for use_global in (True, False):
                for clip in (True, False):
                    res, _ = center.overlap_search(
                        q, 10, ex, use_global=use_global, clip=clip
                    )
                    assert res == bf, (qid, use_global, clip)

    def test_distribution_strategies_reduce_bytes(self, center, union_datasets, query_ids):
        for qid in query_ids:
            q = union_datasets[qid]
            ex = frozenset([qid])
            _, smart = center.overlap_search(q, 10, ex)
            _, naive = center.overlap_search(q, 10, ex, use_global=False, clip=False)
            assert smart.total_bytes <= naive.total_bytes
            assert smart.n_messages <= naive.n_messages

    def test_naive_contacts_every_source(self, center, union_datasets, query_ids):
        q = union_datasets[query_ids[0]]
        _, naive = center.overlap_search(q, 10, use_global=False, clip=False)
        contacted = {m.receiver for m in naive.messages if m.sender == "center"}
        assert contacted == set(center.sources)

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_k_variants(self, center, union_datasets, query_ids, k):
        qid = query_ids[2]
        q = union_datasets[qid]
        ex = frozenset([qid])
        res, _ = center.overlap_search(q, k, ex)
        assert res == brute_force_topk(q, union_datasets, k, ex)


class TestCoverageSearchFramework:
    @pytest.mark.parametrize("strategy", ["merge", "sg_dits", "sg"])
    @pytest.mark.parametrize("delta", [0, 5, 15])
    def test_equals_driver_sg(self, center, union_datasets, query_ids, strategy, delta):
        qid = query_ids[1]
        q = union_datasets[qid]
        ex = frozenset([qid])
        ref = SGCoverage(union_datasets, THETA).search(
            query_node_from_cells(q, THETA), delta, 10, ex
        )
        res, _ = center.coverage_search(q, delta, 10, ex, strategy=strategy)
        assert res == ref

    def test_comm_ordering_matches_paper(self, center, union_datasets, query_ids):
        """Fig. 19: CoverageSearch <= SG+DITS <= SG in transferred bytes."""
        total = {"merge": 0, "sg_dits": 0, "sg": 0}
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            ex = frozenset([qid])
            for strat in total:
                _, comm = center.coverage_search(q, 5, 10, ex, strategy=strat)
                total[strat] += comm.total_bytes
        assert total["merge"] <= total["sg_dits"] <= total["sg"]

    def test_result_sets_connected(self, center, union_datasets, query_ids):
        from repro.core.coverage import is_connected_result

        qid = query_ids[3]
        q = union_datasets[qid]
        res, _ = center.coverage_search(q, 5, 10, frozenset([qid]))
        assert is_connected_result([d for d, _ in res], union_datasets, q, 5, THETA)


class TestDataSource:
    def test_summary_matches_local_root(self, center):
        for name, src in center.sources.items():
            s = src.summary()
            assert s.source_id == name
            assert s.n_datasets == len(src.index)

    def test_get_cells_roundtrip(self, center, corpus):
        name = next(iter(corpus))
        did = next(iter(corpus[name]))
        assert np.array_equal(center.sources[name].get_cells(did), corpus[name][did])

    def test_local_overlap_empty_query(self, center):
        src = next(iter(center.sources.values()))
        assert src.local_overlap(np.array([], dtype=np.int64), 5, frozenset()) == []

    def test_best_coverage_candidate_none_when_disconnected(self):
        src = DataSource("t", {1: np.array([0])}, 6, 4, SPACE)
        far = np.array([4095])  # opposite corner of the theta=6 grid
        assert src.best_coverage_candidate(far, 1.0, set(), True) is None


class TestDegenerateInputs:
    CASES = pytest.mark.parametrize(
        "k, empty", [(0, False), (-1, False), (10, True)], ids=["k0", "k-1", "empty-query"]
    )

    @staticmethod
    def _query(union_datasets, query_ids, empty):
        return np.empty(0, dtype=np.int64) if empty else union_datasets[query_ids[0]]

    @CASES
    def test_overlap_search(self, center, union_datasets, query_ids, k, empty):
        res, comm = center.overlap_search(self._query(union_datasets, query_ids, empty), k)
        assert res == [] and comm.n_messages == 0

    @CASES
    def test_coverage_search(self, center, union_datasets, query_ids, k, empty):
        res, comm = center.coverage_search(self._query(union_datasets, query_ids, empty), 5, k)
        assert res == [] and comm.n_messages == 0
