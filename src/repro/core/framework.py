"""Multi-source joinable search framework (paper §IV, §VI-A).

A :class:`DataCenter` holds DITS-G built from the root summaries the
:class:`DataSource` objects send up; searches run in rounds of
center→source messages whose payloads are metered by :class:`~repro.comm.CommLog`.

Query-distribution strategies (the knobs behind Figs 13/14, 19/20):

- ``use_global``: prune candidate sources with DITS-G instead of
  broadcasting to every source (fewer messages);
- ``clip``: send only the query cells that can matter to a source — for
  OJSP the cells inside the source root MBR, for CJSP the merged-result
  cells within ``delta`` of it (fewer bytes). Both clips are lossless:
  a source's datasets lie inside its root MBR, so clipped-away cells can
  neither intersect its datasets nor connect to them within ``delta``.

Local CJSP selection strategies mirror the paper's three competitors:
``"merge"`` (CoverageSearch: one index search on the merged node),
``"sg_dits"`` (index-accelerated greedy, full query sent), and ``"sg"``
(index-free exact scan, full query broadcast to all sources).
"""
from __future__ import annotations

import numpy as np

from ..comm import CELL_BYTES, ID_BYTES, RESULT_ROW_BYTES, SCALAR_BYTES, CommLog
from ..geometry import min_cell_distance
from ..grid import Bounds, cell_ids_np, cells_to_lonlat_center
from .coverage import _pick_best, find_connect_set
from .dits_global import RootSummary, build_global_index, candidate_sources
from .dits_local import iter_dataset_nodes
from .node import DatasetNode
from .overlap import query_node_from_cells, rank_topk
from .update import DitsLocalIndex


def recode_cells(cells: np.ndarray, bounds: Bounds, theta_from: int, theta_to: int) -> np.ndarray:
    """Re-encode cell IDs between resolutions via cell centers (§V-B)."""
    if theta_from == theta_to:
        return np.asarray(cells, dtype=np.int64)
    x, y = cells_to_lonlat_center(np.asarray(cells, dtype=np.int64), bounds, theta_from)
    return np.unique(cell_ids_np(x, y, bounds, theta_to))


def query_lonlat_geom(cells: np.ndarray, bounds: Bounds, theta: int):
    """(rect, pivot, radius) of a cell set in lon/lat, via cell centers."""
    x, y = cells_to_lonlat_center(cells, bounds, theta)
    rect = np.array([x.min(), y.min(), x.max(), y.max()])
    o = np.array([(rect[0] + rect[2]) / 2, (rect[1] + rect[3]) / 2])
    r = float(np.hypot(rect[2] - rect[0], rect[3] - rect[1]) / 2)
    return rect, o, r


def clip_cells_to_summary(
    cells: np.ndarray, s: RootSummary, pad_deg: float, bounds: Bounds, theta: int
) -> np.ndarray:
    """§VI-A strategy 2: keep only cells within ``pad_deg`` of the source's
    root MBR (pad 0 for OJSP; ``delta`` converted to degrees for CJSP)."""
    x, y = cells_to_lonlat_center(cells, bounds, theta)
    m = (
        (x >= s.rect[0] - pad_deg)
        & (x <= s.rect[2] + pad_deg)
        & (y >= s.rect[1] - pad_deg)
        & (y <= s.rect[3] + pad_deg)
    )
    return cells[m]


def delta_to_deg(delta: float, bounds: Bounds, theta: int) -> float:
    """Conservative lon/lat equivalent of a grid-unit distance."""
    nu, mu = bounds.cell_size(theta)
    return delta * max(nu, mu)


class DataSource:
    """One autonomous data source: its datasets plus its own DITS-L."""

    def __init__(
        self,
        name: str,
        datasets: dict[int, np.ndarray],
        theta: int,
        f: int,
        bounds: Bounds,
    ):
        self.name = name
        self.theta = theta
        self.bounds = bounds
        self.index = DitsLocalIndex(datasets, theta, f)

    def summary(self) -> RootSummary:
        """The root node this source ships to the data center."""
        return RootSummary.from_local_root(
            self.name, self.index.root, self.bounds, self.theta, len(self.index)
        )

    def contains(self, dataset_id: int) -> bool:
        return dataset_id in self.index._nodes

    def get_cells(self, dataset_id: int) -> np.ndarray:
        return self.index._nodes[dataset_id].cells

    def local_overlap(self, query_cells: np.ndarray, k: int, exclude: frozenset[int]):
        if len(query_cells) == 0 or len(self.index) == 0:
            return []
        qn = query_node_from_cells(query_cells, self.theta)
        return self.index.search_overlap(qn, k, exclude)

    def best_coverage_candidate(
        self,
        covered_cells: np.ndarray,
        delta: float,
        taken: set[int],
        use_index: bool,
    ) -> tuple[int, int, int] | None:
        """One greedy round, locally: (dataset_id, gain, |S_D|) or None."""
        if len(covered_cells) == 0 or len(self.index) == 0:
            return None
        merged = DatasetNode(-1, covered_cells, self.theta)
        if use_index:
            cands: list[DatasetNode] = []
            find_connect_set(self.index.root, merged, delta, cands)
        else:
            cands = [
                nd
                for nd in iter_dataset_nodes(self.index.root)
                if min_cell_distance(merged.coords, nd.coords) <= delta
            ]
        covered = {int(c) for c in covered_cells}
        best, tau = _pick_best(cands, covered, taken)
        if best is None:
            return None
        return best.id, tau, best.size


class DataCenter:
    """The coordinator: holds DITS-G and runs the two search protocols."""

    def __init__(self, sources: list[DataSource], f_global: int = 10):
        self.sources = {s.name: s for s in sources}
        self.summaries = {s.name: s.summary() for s in sources}
        self.global_root = build_global_index(list(self.summaries.values()), f_global)
        # The center interprets raw queries at this resolution/space.
        any_src = sources[0]
        self.theta = any_src.theta
        self.bounds = any_src.bounds

    # -- helpers ----------------------------------------------------------
    def _query_lonlat_geom(self, cells: np.ndarray):
        return query_lonlat_geom(cells, self.bounds, self.theta)

    def _clip_to_summary(self, cells: np.ndarray, s: RootSummary, pad_deg: float) -> np.ndarray:
        return clip_cells_to_summary(cells, s, pad_deg, self.bounds, self.theta)

    def _delta_deg(self, delta: float) -> float:
        return delta_to_deg(delta, self.bounds, self.theta)

    # -- OJSP (§VI-B over §VI-A distribution) ------------------------------
    def overlap_search(
        self,
        query_cells: np.ndarray,
        k: int,
        exclude: frozenset[int] = frozenset(),
        *,
        use_global: bool = True,
        clip: bool = True,
        comm: CommLog | None = None,
    ) -> tuple[list[tuple[int, int]], CommLog]:
        comm = comm if comm is not None else CommLog()
        query_cells = np.unique(np.asarray(query_cells, dtype=np.int64))
        if k <= 0 or len(query_cells) == 0:
            return [], comm
        if use_global:
            rect, o, r = self._query_lonlat_geom(query_cells)
            cands = candidate_sources(self.global_root, rect, o, r, -1.0)
        else:
            cands = sorted(self.summaries.values(), key=lambda s: s.source_id)
        merged: list[tuple[int, int]] = []
        for s in cands:
            src = self.sources[s.source_id]
            cells = self._clip_to_summary(query_cells, s, 0.0) if clip else query_cells
            if clip and len(cells) == 0:
                continue
            sent = recode_cells(cells, self.bounds, self.theta, src.theta)
            comm.send("center", src.name, "ojsp-query", len(sent) * CELL_BYTES + 2 * SCALAR_BYTES)
            res = src.local_overlap(sent, k, exclude)
            comm.send(src.name, "center", "ojsp-results", len(res) * RESULT_ROW_BYTES)
            merged.extend(res)
        return rank_topk(merged, k), comm

    # -- CJSP (§VI-C over §VI-A distribution) ------------------------------
    def coverage_search(
        self,
        query_cells: np.ndarray,
        delta: float,
        k: int,
        exclude: frozenset[int] = frozenset(),
        *,
        strategy: str = "merge",
        comm: CommLog | None = None,
    ) -> tuple[list[tuple[int, int]], CommLog]:
        assert strategy in ("merge", "sg_dits", "sg")
        comm = comm if comm is not None else CommLog()
        covered: set[int] = {int(c) for c in np.asarray(query_cells, dtype=np.int64)}
        taken: set[int] = set(exclude)
        result: list[tuple[int, int]] = []
        if not covered:
            return result, comm
        for _ in range(k):
            merged_arr = np.fromiter(covered, dtype=np.int64)
            if strategy == "sg":
                cands = sorted(self.summaries.values(), key=lambda s: s.source_id)
            else:
                rect, o, r = self._query_lonlat_geom(merged_arr)
                cands = candidate_sources(
                    self.global_root, rect, o, r, self._delta_deg(delta)
                )
            best: tuple[int, int, str] | None = None  # (gain, id, source)
            for s in cands:
                src = self.sources[s.source_id]
                if strategy == "merge":
                    cells = self._clip_to_summary(merged_arr, s, self._delta_deg(delta))
                    if len(cells) == 0:
                        continue
                else:
                    cells = merged_arr
                sent = recode_cells(cells, self.bounds, self.theta, src.theta)
                taken_here = [d for d in taken if src.contains(d)]
                comm.send(
                    "center",
                    src.name,
                    "cjsp-query",
                    len(sent) * CELL_BYTES + len(taken_here) * ID_BYTES + 3 * SCALAR_BYTES,
                )
                reply = src.best_coverage_candidate(
                    sent, delta, taken, use_index=(strategy != "sg")
                )
                comm.send(src.name, "center", "cjsp-best", 3 * SCALAR_BYTES)
                if reply is None:
                    continue
                did, gain, _size = reply
                if best is None or gain > best[0] or (gain == best[0] and did < best[1]):
                    best = (gain, did, src.name)
            if best is None:
                break
            gain, did, sname = best
            comm.send("center", sname, "cjsp-fetch", ID_BYTES)
            cells_won = self.sources[sname].get_cells(did)
            comm.send(sname, "center", "cjsp-cells", len(cells_won) * CELL_BYTES)
            covered.update(int(c) for c in cells_won)
            taken.add(did)
            result.append((did, gain))
        return result, comm


def make_center(
    corpus: dict[str, dict[int, np.ndarray]],
    theta: int,
    f: int,
    bounds: Bounds,
    f_global: int = 10,
) -> DataCenter:
    """Build sources + center from {source_id: {dataset_id: cells}}."""
    sources = [
        DataSource(name, datasets, theta, f, bounds)
        for name, datasets in sorted(corpus.items())
    ]
    return DataCenter(sources, f_global)
