"""Multi-source framework: result correctness + communication accounting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import spark_ops
from repro.baselines.greedy import SGCoverage
from repro.core.coverage import is_connected_result
from repro.core.framework import DataCenter, DataSource, clip_cells_to_summary, make_center
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.synth_spatial import SPACE
from tests.conftest import F, THETA


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
        qid = query_ids[3]
        q = union_datasets[qid]
        res, _ = center.coverage_search(q, 5, 10, frozenset([qid]))
        assert is_connected_result([d for d, _ in res], union_datasets, q, 5, THETA)


OJSP_KINDS = ("ojsp-query", "ojsp-results")
CJSP_KINDS = ("cjsp-query", "cjsp-best", "cjsp-fetch", "cjsp-cells")
# Bytes per message kind, then the message count, for k=10 (OJSP) and
# delta=5, k=10 (CJSP). Keys: ("ojsp", use_global, clip) / ("cjsp", strategy).
GOLDEN_COMM = {
    2: {
        ("ojsp", True, True): (976, 208, 6),
        ("ojsp", True, False): (984, 208, 6),
        ("ojsp", False, True): (976, 208, 6),
        ("ojsp", False, False): (1640, 336, 10),
        ("cjsp", "merge"): (3984, 792, 144, 336, 22),
        ("cjsp", "sg_dits"): (3984, 792, 144, 336, 22),
        ("cjsp", "sg"): (6608, 1320, 144, 336, 34),
    },
    2000007: {
        ("ojsp", True, True): (1856, 208, 6),
        ("ojsp", True, False): (2944, 272, 8),
        ("ojsp", False, True): (1856, 208, 6),
        ("ojsp", False, False): (3680, 336, 10),
        ("cjsp", "merge"): (12408, 1056, 144, 1840, 28),
        ("cjsp", "sg_dits"): (19568, 1056, 144, 1840, 28),
        ("cjsp", "sg"): (24448, 1320, 144, 1840, 34),
    },
    2000005: {
        ("ojsp", True, True): (2016, 208, 6),
        ("ojsp", True, False): (2496, 208, 6),
        ("ojsp", False, True): (2016, 208, 6),
        ("ojsp", False, False): (4160, 336, 10),
        ("cjsp", "merge"): (12520, 880, 144, 1744, 24),
        ("cjsp", "sg_dits"): (20336, 1056, 144, 1744, 28),
        ("cjsp", "sg"): (25408, 1320, 144, 1744, 34),
    },
}


class TestCommGolden:
    """The paper's byte model (Figs 13/14, 19/20), pinned message for message."""

    @pytest.mark.parametrize("qid", sorted(GOLDEN_COMM))
    def test_bytes_and_messages(self, center, union_datasets, qid):
        q = union_datasets[qid]
        ex = frozenset([qid])
        for key, want in GOLDEN_COMM[qid].items():
            if key[0] == "ojsp":
                _, comm = center.overlap_search(q, 10, ex, use_global=key[1], clip=key[2])
                kinds = OJSP_KINDS
            else:
                _, comm = center.coverage_search(q, 5, 10, ex, strategy=key[1])
                kinds = CJSP_KINDS
            got = (comm.bytes_by_kind(), comm.n_messages)
            assert got == (dict(zip(kinds, want[:-1])), want[-1]), key


class TestDataSource:
    def test_summary_matches_local_root(self, center):
        for name, src in center.sources.items():
            s = src.summary()
            assert s.source_id == name
            assert s.n_datasets == len(src.index)

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


def _emptied_index():
    idx = DitsLocalIndex({1: np.array([3, 9]), 2: np.array([40])}, 6, 4)
    idx.delete(1)
    idx.delete(2)
    return idx


class TestEmptyInputs:
    @pytest.mark.parametrize(
        "make", [lambda: DitsLocalIndex({}, 6, 4), _emptied_index], ids=["fresh", "emptied"]
    )
    def test_empty_index_searches_nothing_and_takes_inserts(self, make):
        idx = make()
        q = query_node_from_cells(np.array([3, 9]), 6)
        assert len(idx) == 0
        assert idx.search_overlap(q, 5) == [] and idx.search_coverage(q, 5, 3) == []
        idx.insert(7, np.array([9, 10]))
        assert idx.search_overlap(q, 5) == [(7, 1)]
        assert idx.search_coverage(q, 5, 3) == [(7, 1)]

    def test_empty_source_is_never_contacted(self, corpus, center, union_datasets, query_ids):
        with_empty = make_center({**corpus, "empty": {}}, THETA, F, SPACE)
        assert "empty" in with_empty.sources and "empty" not in with_empty.summaries
        qid = query_ids[0]
        q, ex = union_datasets[qid], frozenset([qid])
        got, comm = with_empty.overlap_search(q, 10, ex, use_global=False, clip=False)
        assert got == center.overlap_search(q, 10, ex)[0]
        got_cov, comm_cov = with_empty.coverage_search(q, 5, 10, ex, strategy="sg")
        assert got_cov == center.coverage_search(q, 5, 10, ex)[0]
        assert "empty" not in {m.receiver for m in comm.messages + comm_cov.messages}

    @pytest.mark.parametrize("corpus", [{}, {"a": {}, "b": {}}], ids=["no-source", "no-dataset"])
    def test_center_without_datasets_is_rejected(self, corpus):
        with pytest.raises(ValueError):
            make_center(corpus, THETA, F, SPACE)


class TestCenterValidation:
    def test_dataset_id_in_two_sources_is_rejected(self):
        with pytest.raises(ValueError, match="dataset 1"):
            make_center({"a": {1: [5, 6]}, "b": {1: [5, 7], 2: [6]}}, 6, 4, SPACE)

    def test_sources_on_another_grid_are_rejected(self):
        a = DataSource("a", {1: np.array([5, 6])}, 6, 4, SPACE)
        b = DataSource("b", {2: np.array([5, 7])}, 7, 4, SPACE)
        with pytest.raises(ValueError, match="'b'"):
            DataCenter([a, b])


_PAST = 1 << (2 * THETA)  # the first cell ID past the θ=12 grid


class TestOffGridCells:
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: make_center({"a": {1: [5, _PAST]}, "b": {2: [6]}}, THETA, F, SPACE),
            lambda c: DitsLocalIndex({1: [-3, 4]}, THETA, F),
            lambda c: DitsLocalIndex({1: [5]}, THETA, F).insert(2, np.array([_PAST])),
            lambda c: query_node_from_cells(np.array([_PAST]), THETA),
            lambda c: c.overlap_search(np.array([1 << 40]), 10),
            lambda c: c.overlap_search(np.array([-1, 5]), 10),
            lambda c: c.coverage_search(np.array([1 << 40]), 5, 10),
            lambda c: c.coverage_search(np.array([-1, 5]), 5, 10, strategy="sg"),
        ],
        ids=[
            "make_center", "index-negative", "index-insert", "query-node",
            "ojsp-past", "ojsp-negative", "cjsp-past", "cjsp-negative",
        ],
    )
    def test_rejected(self, center, call):
        with pytest.raises(ValueError, match="outside the θ="):
            call(center)

    def test_last_cell_is_on_the_grid(self):
        idx = DitsLocalIndex({1: np.array([0, _PAST - 1])}, THETA, F)
        q = query_node_from_cells(np.array([_PAST - 1]), THETA)
        assert idx.search_overlap(q, 1) == [(1, 1)]


H_THETA = 4  # a 16x16 grid, so random datasets often overlap and connect
_CELLS = st.lists(st.integers(0, (1 << 2 * H_THETA) - 1), min_size=1, max_size=6, unique=True)


@st.composite
def _corpora(draw):
    """Up to three sources (the first non-empty) of up to four datasets,
    each of one to six cells; dataset IDs unique across sources."""
    sizes = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(0, 4), max_size=2))
    corpus, did = {}, 0
    for i, n in enumerate(sizes):
        corpus[f"s{i}"] = {did + j: np.array(draw(_CELLS)) for j in range(n)}
        did += n
    exclude = frozenset(draw(st.sets(st.integers(0, did - 1), max_size=1)))
    return corpus, np.array(draw(_CELLS)), exclude


class TestDifferential:
    """Every distribution strategy of the center against the single-corpus
    references, on small random corpora."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_corpora(), st.integers(1, 4), st.sampled_from([0, 1, 3]))
    def test_center_equals_references(self, data, k, delta):
        corpus, q, ex = data
        union = {d: c for src in corpus.values() for d, c in src.items()}
        center = make_center(corpus, H_THETA, 2, SPACE)
        top = brute_force_topk(q, union, k, ex)
        for use_global in (True, False):
            for clip in (True, False):
                got, _ = center.overlap_search(q, k, ex, use_global=use_global, clip=clip)
                assert got == top, (use_global, clip)
        greedy = SGCoverage(union, H_THETA).search(query_node_from_cells(q, H_THETA), delta, k, ex)
        for strategy in ("merge", "sg_dits", "sg"):
            got, _ = center.coverage_search(q, delta, k, ex, strategy=strategy)
            assert got == greedy, strategy
        assert is_connected_result([d for d, _ in greedy], union, q, delta, H_THETA)

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(_corpora(), st.integers(1, 4), st.sampled_from([0, 1, 3]))
    def test_spark_equals_references(self, spark, data, k, delta):
        corpus, q, ex = data
        union = {d: c for src in corpus.values() for d, c in src.items()}
        rows = [(sid, did, int(c)) for sid, src in corpus.items() for did, cs in src.items() for c in cs]
        cells_df = spark.createDataFrame(rows, "source_id string, dataset_id long, cell long")
        built = spark_ops.build_distributed_index(cells_df, SPACE, H_THETA, 2)
        got = spark_ops.distributed_overlap_search(spark, *built, q, k, SPACE, H_THETA, tuple(ex))
        assert got == brute_force_topk(q, union, k, ex)
        got = spark_ops.distributed_coverage_search(spark, *built, q, delta, k, SPACE, H_THETA, tuple(ex))
        assert got == SGCoverage(union, H_THETA).search(query_node_from_cells(q, H_THETA), delta, k, ex)
        assert is_connected_result([d for d, _ in got], union, q, delta, H_THETA)
