"""The experiment harness itself: every figure's table comes out
paper-shaped (methods x parameter values) on a miniature corpus."""
import hashlib

import numpy as np
import pytest

from repro import experiments as E


@pytest.fixture(scope="module")
def wb():
    return E.Workbench.make(0.004, cap=60, seed=7)


OVERLAP_METHODS = {"OverlapSearch", "Rtree", "QuadTree", "STS3", "Josie"}
COVERAGE_METHODS = {"CoverageSearch", "SG+DITS", "SG"}


class TestWorkbench:
    def test_corpus_cached_per_theta(self, wb):
        a = wb.corpus(10)
        assert wb.corpus(10) is a

    def test_union_covers_all_sources(self, wb):
        assert len(wb.union(10)) == sum(len(s) for s in wb.corpus(10).values())

    def test_queries_deterministic(self, wb):
        assert wb.queries(5) == wb.queries(5)

    def test_make_uses_its_seed(self):
        def digest(seed):
            pts = E.Workbench.make(0.004, cap=60, seed=seed).points
            h = hashlib.sha256()
            for c in ("dataset_id", "x", "y"):
                h.update(np.ascontiguousarray(pts[c].to_numpy()).tobytes())
            return h.hexdigest()

        assert digest(7) == digest(7)
        assert digest(7) != digest(8)


class TestTables:
    def test_table1(self, wb):
        df = E.table1_statistics(wb)
        assert len(df) == 5

    def test_fig8(self, wb):
        df = E.fig8_index_construction(wb, thetas=(10, 11), f=4)
        assert set(df["method"]) == OVERLAP_METHODS.union({"DITS-L"}) - {"OverlapSearch"}
        assert len(df) == 2 * 5
        assert (df["build_s"] >= 0).all() and (df["memory_mb"] > 0).all()

    def test_fig9(self, wb):
        df = E.search_time_sweep(wb, "overlap", "k", (1, 5), theta=10, f=4, q=3)
        assert set(df["method"]) == OVERLAP_METHODS
        assert len(df) == 2 * 5

    def test_fig10(self, wb):
        df = E.search_time_sweep(wb, "overlap", "theta", (10, 11), f=4, k=3, q=3)
        assert len(df) == 2 * 5

    def test_fig11(self, wb):
        df = E.search_time_sweep(wb, "overlap", "q", (2, 4), theta=10, f=4, k=3)
        assert len(df) == 2 * 5

    def test_fig12(self, wb):
        df = E.search_time_sweep(
            wb, "overlap", "f", (4, 8), methods=("OverlapSearch", "Rtree"), theta=10, k=3, q=3
        )
        assert set(df["method"]) == {"OverlapSearch", "Rtree"}
        assert len(df) == 2 * 2

    def test_fig13_14(self, wb):
        df = E.comm_sweep(wb, "overlap", (2, 4), theta=10, f=4, k=3)
        assert set(df["method"]) == OVERLAP_METHODS
        assert (df["kbytes"] > 0).all() and (df["transfer_s"] > 0).all()
        # strategies never transfer more than the naive broadcast
        for q in (2, 4):
            sub = df[df["q"] == q].set_index("method")["kbytes"]
            assert sub["OverlapSearch"] <= sub["STS3"]

    def test_fig15(self, wb):
        df = E.search_time_sweep(wb, "coverage", "k", (1, 3), theta=10, f=4, q=2, delta=5)
        assert set(df["method"]) == COVERAGE_METHODS
        assert len(df) == 2 * 3

    def test_fig16(self, wb):
        df = E.search_time_sweep(wb, "coverage", "theta", (10, 11), f=4, q=2, k=2, delta=5)
        assert len(df) == 2 * 3

    def test_fig17(self, wb):
        df = E.search_time_sweep(wb, "coverage", "q", (1, 2), theta=10, f=4, k=2, delta=5)
        assert len(df) == 2 * 3

    def test_fig18(self, wb):
        df = E.search_time_sweep(wb, "coverage", "delta", (0, 5), theta=10, f=4, k=2, q=2)
        assert len(df) == 2 * 3

    def test_fig19_20(self, wb):
        df = E.comm_sweep(wb, "coverage", (1, 2), theta=10, f=4, k=2, delta=5)
        assert set(df["method"]) == COVERAGE_METHODS
        for q in (1, 2):
            sub = df[df["q"] == q].set_index("method")["kbytes"]
            assert sub["CoverageSearch"] <= sub["SG"]

    def test_fig21_22(self, wb):
        df = E.fig21_22_index_update(wb, betas=(5,), theta=10, f=4)
        assert set(df["op"]) == {"insert", "update"}
        assert len(df) == 2 * 5

    def test_pivot_layout(self, wb):
        df = E.search_time_sweep(wb, "overlap", "k", (1, 5), theta=10, f=4, q=2)
        p = E.pivot_table(df, "k")
        assert list(p.columns) == [1, 5]
        assert set(p.index) == OVERLAP_METHODS


@pytest.mark.parametrize("method", sorted(OVERLAP_METHODS | COVERAGE_METHODS))
def test_empty_query_returns_nothing(method):
    union = {1: np.array([0, 1, 2]), 2: np.array([2, 3, 40]), 3: np.array([100, 101])}
    theta, empty, none = 6, np.empty(0, dtype=np.int64), frozenset()
    if method in OVERLAP_METHODS:
        assert E.make_overlap_searchers(union, theta, 2)[method](empty, 3, none) == []
    else:
        assert E.make_coverage_searchers(union, theta, 2)[method](empty, 5, 3, none) == []
