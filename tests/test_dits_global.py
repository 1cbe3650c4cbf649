"""DITS-G: root summaries, global tree, candidate-source pruning (§V-B, §VI-A)."""
import numpy as np
import pytest

from repro.core.dits_global import (
    GlobalNode,
    RootSummary,
    build_global_index,
    candidate_sources,
)
from repro.core.dits_local import build_dits_l
from repro.core.framework import delta_to_deg, query_lonlat_geom
from repro.core.overlap import brute_force_topk
from repro.grid import WORLD
from repro.synth_spatial import SPACE
from tests.conftest import THETA


def _summary(name, x0, y0, x1, y1):
    rect = np.array([x0, y0, x1, y1], dtype=float)
    from repro.geometry import pivot_of_mbr, radius_of_mbr

    return RootSummary(name, rect, pivot_of_mbr(rect), radius_of_mbr(rect), 1)


class TestRootSummary:
    def test_from_local_root_covers_cells(self, union_datasets):
        root = build_dits_l(union_datasets, THETA, 10)
        s = RootSummary.from_grid_rect("x", root.rect, SPACE, THETA, len(union_datasets))
        nu, _ = SPACE.cell_size(THETA)
        # lon/lat rect covers the grid rect's full cells
        assert s.rect[0] == pytest.approx(SPACE.x0 + root.rect[0] * nu)
        assert s.rect[2] == pytest.approx(SPACE.x0 + (root.rect[2] + 1) * nu)

    def test_pivot_inside_rect(self):
        s = _summary("a", 0, 0, 10, 4)
        assert s.rect[0] <= s.o[0] <= s.rect[2]
        assert s.rect[1] <= s.o[1] <= s.rect[3]


class TestBuildGlobal:
    def test_few_sources_single_leaf(self):
        summaries = [_summary(f"s{i}", i, 0, i + 1, 1) for i in range(4)]
        root = build_global_index(summaries, f=10)
        assert root.is_leaf and len(root.summaries) == 4

    def test_many_sources_splits(self):
        summaries = [_summary(f"s{i:02d}", i * 2, 0, i * 2 + 1, 1) for i in range(25)]
        root = build_global_index(summaries, f=4)
        assert not root.is_leaf

        def collect(node):
            if node.is_leaf:
                assert len(node.summaries) <= 4
                return [s.source_id for s in node.summaries]
            return collect(node.left) + collect(node.right)

        assert sorted(collect(root)) == sorted(f"s{i:02d}" for i in range(25))

    def test_root_rect_encloses_all(self):
        summaries = [_summary("a", -10, -10, 0, 0), _summary("b", 5, 5, 20, 30)]
        root = build_global_index(summaries)
        assert root.rect.tolist() == [-10, -10, 20, 30]


class TestCandidateSources:
    def test_ojsp_prunes_disjoint_source(self):
        summaries = [_summary("near", 0, 0, 10, 10), _summary("far", 100, 50, 120, 60)]
        root = build_global_index(summaries)
        q = np.array([2.0, 2.0, 3.0, 3.0])
        got = candidate_sources(root, q, np.array([2.5, 2.5]), 0.7, -1.0)
        assert [s.source_id for s in got] == ["near"]

    def test_cjsp_keeps_source_within_delta(self):
        # "close" is a small source: pivot (13.5, 4.5), radius ~0.71, so the
        # Lemma-4 lower bound vs the query (pivot (8.5, 4.5), radius 0.7) is
        # 5 - 0.71 - 0.7 ~= 3.59.
        summaries = [_summary("near", 0, 0, 10, 10), _summary("close", 13, 4, 14, 5)]
        root = build_global_index(summaries)
        q = np.array([8.0, 4.0, 9.0, 5.0])
        o = np.array([8.5, 4.5])
        got = candidate_sources(root, q, o, 0.7, 4.0)
        assert [s.source_id for s in got] == ["close", "near"]
        got = candidate_sources(root, q, o, 0.7, 3.0)
        assert [s.source_id for s in got] == ["near"]

    def test_never_prunes_source_with_results(self, corpus, union_datasets, query_ids):
        """Global pruning is lossless for OJSP: any source holding a
        dataset with overlap > 0 must remain a candidate."""
        roots = {
            name: build_dits_l(ds, THETA, 10) for name, ds in corpus.items() if ds
        }
        summaries = [
            RootSummary.from_grid_rect(name, r.rect, SPACE, THETA, 1)
            for name, r in roots.items()
        ]
        groot = build_global_index(summaries)
        for qid in query_ids:
            q = union_datasets[qid]
            rect, o, r = query_lonlat_geom(q, SPACE, THETA)
            cand = {s.source_id for s in candidate_sources(groot, rect, o, r, -1.0)}
            for name, ds in corpus.items():
                hits = brute_force_topk(q, ds, 5, frozenset([qid]))
                if hits:
                    assert name in cand

    def test_delta_to_deg_conservative(self):
        assert delta_to_deg(5, WORLD, 12) == pytest.approx(5 * 360.0 / 4096)
