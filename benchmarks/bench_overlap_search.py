"""Figs. 9-12 benchmark: OJSP batch (q=10 queries, k=10) per method.

Full k/theta/q/f sweeps: ``jobs/fig9_12_overlap.py``.
"""
import pytest

from benchmarks.conftest import THETA


@pytest.mark.parametrize("method", ["OverlapSearch", "Rtree", "QuadTree", "STS3", "Josie"])
def test_overlap_batch(benchmark, search_wb, overlap_searchers, method):
    union = search_wb.union(THETA)
    qids = search_wb.queries(10)
    search = overlap_searchers[method]

    def run():
        for qid in qids:
            search(union[qid], 10, frozenset([qid]))

    benchmark.pedantic(run, rounds=1, iterations=1)
