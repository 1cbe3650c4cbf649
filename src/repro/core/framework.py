"""Multi-source joinable search (paper §IV, §VI-A): one distribution
protocol, two transports.

The protocol: :meth:`Directory.route` prunes sources with DITS-G, clips the
query per source and drops sources left with no cells; each routed source
answers with the :class:`DataSource` kernels over its own DITS-L; the
center merges the replies. :func:`ojsp_protocol` is one round merged under
``(-overlap, dataset_id)``. :func:`cjsp_protocol` is one round per greedy
pick, won under (max gain, min id), whose cells join the next round's query.

A transport is a per-round callable that takes the ``(source_id, cells)``
tasks and returns the replies. :class:`DataCenter` is the in-process one:
it calls its sources directly and meters every message on a
:class:`~repro.comm.CommLog`. :mod:`repro.spark_ops` runs each round as one
Spark job over persisted :class:`DataSource` objects.

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
(index-free scan of every dataset with one slab probe, full query
broadcast to all sources).

All sources share the center's grid, and a dataset ID names one dataset
in one source: results are keyed by dataset ID alone.
"""
from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple

import numpy as np

from ..comm import CELL_BYTES, ID_BYTES, RESULT_ROW_BYTES, SCALAR_BYTES, CommLog
from ..grid import Bounds, cells_to_lonlat_center, check_cells
from .coverage import _pick_best, find_connect_set, slab_probe
from .dits_global import GlobalNode, RootSummary, build_global_index, candidate_sources
from .dits_local import iter_dataset_nodes
from .node import DatasetNode
from .overlap import query_node_from_cells, rank_key, rank_topk
from .update import DitsLocalIndex

Task = tuple[str, np.ndarray]  # (source_id, the cells sent to it)


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


def check_unique_ids(ids_by_source: dict[str, Iterable[int]]) -> None:
    """Raise ``ValueError`` if two sources hold the same dataset ID."""
    owner: dict[int, str] = {}
    for sid, ids in ids_by_source.items():
        for did in ids:
            other = owner.setdefault(int(did), sid)
            if other != sid:
                raise ValueError(f"dataset {int(did)} is held by sources {other!r} and {sid!r}")


class Directory(NamedTuple):
    """What the center knows of its sources: DITS-G over their root
    summaries, and the grid the query cells are read in."""

    groot: GlobalNode
    summaries: dict[str, RootSummary]
    bounds: Bounds
    theta: int

    def route(self, cells: np.ndarray, delta_deg: float, prune: bool, clip: bool) -> list[Task]:
        """One round's tasks, in source-id order. ``delta_deg < 0`` routes
        OJSP (MBR intersection), otherwise CJSP (within ``delta_deg``);
        ``prune=False`` broadcasts, ``clip=False`` sends every cell."""
        if prune:
            rect, o, r = query_lonlat_geom(cells, self.bounds, self.theta)
            cands = candidate_sources(self.groot, rect, o, r, delta_deg)
        else:
            cands = sorted(self.summaries.values(), key=lambda s: s.source_id)
        pad = max(delta_deg, 0.0)
        tasks = []
        for s in cands:
            sent = clip_cells_to_summary(cells, s, pad, self.bounds, self.theta) if clip else cells
            if len(sent):
                tasks.append((s.source_id, sent))
        return tasks


def ojsp_protocol(
    d: Directory, ask, query_cells, k: int, *, prune=True, clip=True
) -> list[tuple[int, int]]:
    """OJSP (§VI-B): one round. ``ask(tasks)`` returns every routed
    source's top-k ``(dataset_id, overlap)`` rows."""
    query_cells = np.unique(np.asarray(query_cells, dtype=np.int64))
    check_cells(query_cells, d.theta)
    if k <= 0 or len(query_cells) == 0:
        return []
    tasks = d.route(query_cells, -1.0, prune, clip)
    return rank_topk(ask(tasks), k) if tasks else []


def cjsp_protocol(
    d: Directory, ask, query_cells, delta: float, k: int, exclude,
    *, prune=True, clip=True, picked=None,
) -> list[tuple[int, int]]:
    """CJSP greedy (§VI-C): one round per pick. ``ask(tasks, taken)``
    returns each routed source's best connected ``(dataset_id, gain,
    cells)`` outside ``taken``; ``picked(dataset_id, cells)``, if given,
    sees each winner."""
    query_cells = np.unique(np.asarray(query_cells, dtype=np.int64))
    check_cells(query_cells, d.theta)
    covered = {int(c) for c in query_cells}
    taken = {int(e) for e in exclude}
    result: list[tuple[int, int]] = []
    delta_deg = delta_to_deg(delta, d.bounds, d.theta)
    for _ in range(k if covered else 0):
        tasks = d.route(np.fromiter(covered, dtype=np.int64), delta_deg, prune, clip)
        replies = ask(tasks, frozenset(taken)) if tasks else []
        if not replies:
            break
        did, gain, cells = min(replies, key=rank_key)
        if picked is not None:
            picked(did, cells)
        covered.update(int(c) for c in cells)
        taken.add(did)
        result.append((did, gain))
    return result


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
        return RootSummary.from_grid_rect(
            self.name, self.index.root.rect, self.bounds, self.theta, len(self.index)
        )

    def contains(self, dataset_id: int) -> bool:
        return dataset_id in self.index._nodes

    def local_overlap(self, query_cells: np.ndarray, k: int, exclude: frozenset[int]):
        if len(query_cells) == 0 or len(self.index) == 0:
            return []
        qn = query_node_from_cells(query_cells, self.theta)
        return self.index.search_overlap(qn, k, exclude)

    def best_coverage_candidate(
        self,
        covered_cells: np.ndarray,
        delta: float,
        taken: frozenset[int],
        use_index: bool,
    ) -> tuple[int, int, np.ndarray] | None:
        """One greedy round, locally: (dataset_id, gain, cells) or None."""
        if len(covered_cells) == 0 or len(self.index) == 0:
            return None
        merged = DatasetNode(-1, covered_cells, self.theta)
        if use_index:
            cands: list[DatasetNode] = []
            find_connect_set(self.index.root, merged, delta, cands)
        else:
            connected = slab_probe(merged.coords, delta)
            cands = [nd for nd in iter_dataset_nodes(self.index.root) if connected(nd)]
        best, tau = _pick_best(cands, merged.cells, taken)
        if best is None:
            return None
        return best.id, tau, best.cells


class DataCenter:
    """The coordinator: holds DITS-G and runs the protocol in process,
    metering every message of the paper's byte model."""

    def __init__(self, sources: list[DataSource], f_global: int = 10):
        if not any(len(s.index) for s in sources):
            raise ValueError("a data center needs at least one dataset")
        theta, bounds = sources[0].theta, sources[0].bounds
        for s in sources:
            if (s.theta, s.bounds) != (theta, bounds):
                raise ValueError(
                    f"source {s.name!r} uses θ={s.theta} over {s.bounds}; "
                    f"the center uses θ={theta} over {bounds}"
                )
        check_unique_ids({s.name: s.index.datasets for s in sources})
        self.sources = {s.name: s for s in sources}
        # A source with no datasets has no root to summarise: DITS-G leaves
        # it out, so no round ever contacts it.
        self.summaries = {s.name: s.summary() for s in sources if len(s.index)}
        groot = build_global_index(list(self.summaries.values()), f_global)
        self.directory = Directory(groot, self.summaries, bounds, theta)

    # -- the in-process transport -------------------------------------------
    def _ask_overlap(self, comm: CommLog, k: int, exclude, tasks):
        rows: list[tuple[int, int]] = []
        for sid, cells in tasks:
            comm.send("center", sid, "ojsp-query", len(cells) * CELL_BYTES + 2 * SCALAR_BYTES)
            res = self.sources[sid].local_overlap(cells, k, exclude)
            comm.send(sid, "center", "ojsp-results", len(res) * RESULT_ROW_BYTES)
            rows.extend(res)
        return rows

    def _ask_coverage(self, comm: CommLog, delta: float, use_index: bool, tasks, taken):
        replies = []
        for sid, cells in tasks:
            src = self.sources[sid]
            n_taken = sum(map(src.contains, taken))
            payload = len(cells) * CELL_BYTES + n_taken * ID_BYTES + 3 * SCALAR_BYTES
            comm.send("center", sid, "cjsp-query", payload)
            reply = src.best_coverage_candidate(cells, delta, taken, use_index)
            comm.send(sid, "center", "cjsp-best", 3 * SCALAR_BYTES)
            if reply is not None:
                replies.append(reply)
        return replies

    def _fetch(self, comm: CommLog, dataset_id: int, cells: np.ndarray) -> None:
        """The byte model ships only the winner's cells, on a fetch."""
        sid = next(n for n, s in self.sources.items() if s.contains(dataset_id))
        comm.send("center", sid, "cjsp-fetch", ID_BYTES)
        comm.send(sid, "center", "cjsp-cells", len(cells) * CELL_BYTES)

    # -- OJSP and CJSP ----------------------------------------------------
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
        ask = partial(self._ask_overlap, comm, k, exclude)
        return ojsp_protocol(self.directory, ask, query_cells, k, prune=use_global, clip=clip), comm

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
        ask = partial(self._ask_coverage, comm, delta, strategy != "sg")
        result = cjsp_protocol(
            self.directory, ask, query_cells, delta, k, exclude,
            prune=strategy != "sg", clip=strategy == "merge", picked=partial(self._fetch, comm),
        )
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
