"""CommLog arithmetic and the structural index-size model."""
import pytest

from repro.baselines.josie import JosieIndex
from repro.baselines.quadtree import QuadTreeIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.sts3 import STS3Index
from repro.comm import HEADER_BYTES, CommLog
from repro.core.dits_local import build_dits_l
from repro.sizing import (
    dits_bytes,
    josie_bytes,
    quadtree_bytes,
    rtree_bytes,
    sts3_bytes,
)
from repro.cells import cell_sets_from_pdf
from repro.synth_spatial import SPACE
from tests.conftest import THETA


class TestCommLog:
    def test_totals(self):
        log = CommLog()
        log.send("a", "b", "x", 100)
        log.send("b", "a", "y", 36)
        assert log.n_messages == 2
        assert log.total_bytes == 200 + 2 * HEADER_BYTES - 64  # 100+64 + 36+64
        assert log.bytes_by_kind() == {"x": 164, "y": 100}


class TestSizing:
    @pytest.fixture(scope="class")
    def indexes(self, union_datasets):
        return {
            "dits": build_dits_l(union_datasets, THETA, 10),
            "sts3": STS3Index(union_datasets),
            "josie": JosieIndex(union_datasets),
            "quadtree": QuadTreeIndex(union_datasets, THETA),
            "rtree": RTreeIndex(union_datasets, THETA, 10),
        }

    def test_all_positive(self, indexes):
        assert dits_bytes(indexes["dits"]) > 0
        assert sts3_bytes(indexes["sts3"]) > 0
        assert josie_bytes(indexes["josie"]) > 0
        assert quadtree_bytes(indexes["quadtree"]) > 0
        assert rtree_bytes(indexes["rtree"]) > 0

    def test_paper_ordering_quadtree_largest_sts3_smallest(self, indexes):
        """Fig. 8 right: QuadTree largest, STS3 smallest."""
        sizes = {
            "dits": dits_bytes(indexes["dits"]),
            "sts3": sts3_bytes(indexes["sts3"]),
            "josie": josie_bytes(indexes["josie"]),
            "quadtree": quadtree_bytes(indexes["quadtree"]),
        }
        assert sizes["quadtree"] == max(sizes.values())
        assert sizes["sts3"] == min(sizes["sts3"], sizes["dits"], sizes["quadtree"])

    def test_size_grows_with_theta(self, points_pdf):
        sizes = []
        for theta in (10, 12, 14):
            ds = {
                d: c
                for src in cell_sets_from_pdf(points_pdf, SPACE, theta).values()
                for d, c in src.items()
            }
            sizes.append(dits_bytes(build_dits_l(ds, theta, 10)))
        assert sizes[0] <= sizes[1] <= sizes[2]
