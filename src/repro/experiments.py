"""Experiment harness reproducing the paper's evaluation (§VII).

Each function returns a pandas DataFrame with the rows the paper plots
(one row per parameter value x method): :func:`fig8_index_construction`,
:func:`fig21_22_index_update` and :func:`table1_statistics` for one
artifact each, :func:`search_time_sweep` for every search-time figure
(9-12, 15-18) and :func:`comm_sweep` for every communication figure (13/14,
19/20). ``jobs/`` wraps them for spark-submit; ``benchmarks/`` times
representative cells with pytest-benchmark; EXPERIMENTS.md records the
numbers against the paper's.

Workload protocol (§VII-A): five synthetic sources (Table I substitute,
see DESIGN.md §4), q query datasets sampled from the corpus, parameters
from Table II with the paper's defaults.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd

from .baselines.greedy import SGCoverage, SGDitsCoverage
from .baselines.josie import JosieIndex
from .baselines.quadtree import QuadTreeIndex
from .baselines.rtree import RTreeIndex
from .baselines.sts3 import STS3Index
from .cells import cell_sets_from_pdf
from .core.framework import make_center
from .core.overlap import query_node_from_cells
from .core.update import DitsLocalIndex
from .params import (
    BANDWIDTH_BYTES_PER_S,
    BETA_VALUES,
    DELTA_DEFAULT,
    F_DEFAULT,
    K_DEFAULT,
    Q_DEFAULT,
    THETA_DEFAULT,
    THETA_VALUES,
)
from .synth_spatial import SPACE, generate_corpus_pdf, pick_queries

# One workbench per experiment family, as ``Workbench.make`` keywords: the
# paper's corpora are GB-scale portal dumps; these scales let every sweep
# finish in minutes while keeping each experiment in the regime where the
# paper's effects show (big cell sets for search, many sources for
# communication). DESIGN.md §4/§5 documents them.
SEARCH_WB = dict(scale=0.1, cap=1500, seed=7)  # Figs 9-12
BUILD_WB = dict(scale=0.05, cap=400, seed=7)  # Table I, Fig 8, Figs 21/22
COMM_WB = dict(scale=0.02, cap=300, seed=7)  # Figs 13/14
COV_WB = dict(scale=0.012, cap=200, seed=7)  # Figs 15-18, 19/20


@dataclass
class Workbench:
    """A generated corpus plus per-resolution cell-set caches."""

    points: pd.DataFrame
    scale: float
    _cells: dict[int, dict[str, dict[int, np.ndarray]]] = field(default_factory=dict)

    @classmethod
    def make(cls, scale: float, cap: int = 300, seed: int = 7) -> "Workbench":
        return cls(generate_corpus_pdf(scale=scale, seed=seed, max_points_per_dataset=cap), scale)

    def corpus(self, theta: int) -> dict[str, dict[int, np.ndarray]]:
        if theta not in self._cells:
            self._cells[theta] = cell_sets_from_pdf(self.points, SPACE, theta)
        return self._cells[theta]

    def union(self, theta: int) -> dict[int, np.ndarray]:
        return {d: c for src in self.corpus(theta).values() for d, c in src.items()}

    def queries(self, q: int) -> list[int]:
        return pick_queries(self.points, q)


def _timeit(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# --------------------------------------------------------------------------
# Index construction (Fig. 8) and updates (Figs. 21/22)
# --------------------------------------------------------------------------

INDEX_BUILDERS = {
    "DITS-L": lambda ds, theta, f: DitsLocalIndex(ds, theta, f),
    "Rtree": lambda ds, theta, f: RTreeIndex(ds, theta, f),
    "QuadTree": lambda ds, theta, f: QuadTreeIndex(ds, theta),
    "STS3": lambda ds, theta, f: STS3Index(ds),
    "Josie": lambda ds, theta, f: JosieIndex(ds),
}


def _index_bytes(name: str, idx) -> int:
    from . import sizing

    return {
        "DITS-L": lambda: sizing.dits_bytes(idx.root),
        "Rtree": lambda: sizing.rtree_bytes(idx),
        "QuadTree": lambda: sizing.quadtree_bytes(idx),
        "STS3": lambda: sizing.sts3_bytes(idx),
        "Josie": lambda: sizing.josie_bytes(idx),
    }[name]()


def fig8_index_construction(
    wb: Workbench, thetas=THETA_VALUES, f: int = F_DEFAULT
) -> pd.DataFrame:
    rows = []
    for theta in thetas:
        union = wb.union(theta)
        for name, build in INDEX_BUILDERS.items():
            secs, idx = _timeit(lambda b=build: b(union, theta, f))
            rows.append(
                {
                    "theta": theta,
                    "method": name,
                    "build_s": round(secs, 4),
                    "memory_mb": round(_index_bytes(name, idx) / 1e6, 3),
                }
            )
    return pd.DataFrame(rows)


def fig21_22_index_update(
    wb: Workbench,
    betas=BETA_VALUES,
    theta: int = THETA_DEFAULT,
    f: int = F_DEFAULT,
    seed: int = 31,
) -> pd.DataFrame:
    """Batch inserts (Fig. 21) and batch updates (Fig. 22)."""
    union = wb.union(theta)
    g = np.random.default_rng(seed)
    max_beta = max(betas)
    cells_list = list(union.values())
    new_ids = [10_000_000 + i for i in range(max_beta)]
    new_cells = [cells_list[g.integers(0, len(cells_list))] for _ in range(max_beta)]
    upd_ids = [int(i) for i in g.choice(sorted(union), max_beta, replace=True)]
    rows = []
    for beta in betas:
        for name, build in INDEX_BUILDERS.items():
            idx = build(dict(union), theta, f)
            secs, _ = _timeit(
                lambda: [idx.insert(new_ids[i], new_cells[i]) for i in range(beta)]
            )
            rows.append(
                {"beta": beta, "method": name, "op": "insert", "time_s": round(secs, 4)}
            )
            idx2 = build(dict(union), theta, f)
            secs, _ = _timeit(
                lambda: [idx2.update(upd_ids[i], new_cells[i]) for i in range(beta)]
            )
            rows.append(
                {"beta": beta, "method": name, "op": "update", "time_s": round(secs, 4)}
            )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Search time (Figs. 9-12 OJSP, 15-18 CJSP) and communication (13/14, 19/20)
# --------------------------------------------------------------------------

OVERLAP_METHODS = ("OverlapSearch", "Rtree", "QuadTree", "STS3", "Josie")


def _guarded(search, to_query=lambda cells: cells):
    """An empty query overlaps and connects to nothing: every method
    answers ``[]`` without reaching its index."""
    return lambda cells, *args: search(to_query(cells), *args) if len(cells) else []


def make_overlap_searchers(
    union: dict[int, np.ndarray], theta: int, f: int, methods=OVERLAP_METHODS
) -> dict[str, callable]:
    """method name -> search(query_cells, k, exclude); builds only ``methods``."""
    node = partial(query_node_from_cells, theta=theta)
    build = {
        "OverlapSearch": lambda: _guarded(DitsLocalIndex(union, theta, f).search_overlap, node),
        "Rtree": lambda: _guarded(RTreeIndex(union, theta, f).search, node),
        "QuadTree": lambda: _guarded(QuadTreeIndex(union, theta).search),
        "STS3": lambda: _guarded(STS3Index(union).search),
        "Josie": lambda: _guarded(JosieIndex(union).search),
    }
    return {m: build[m]() for m in methods}


def make_coverage_searchers(
    union: dict[int, np.ndarray], theta: int, f: int
) -> dict[str, callable]:
    """method name -> search(query_cells, delta, k, exclude)."""
    node = partial(query_node_from_cells, theta=theta)
    dits = DitsLocalIndex(union, theta, f)
    return {
        "CoverageSearch": _guarded(dits.search_coverage, node),
        "SG+DITS": _guarded(SGDitsCoverage(dits.root, theta).search, node),
        "SG": _guarded(SGCoverage(union, theta).search, node),
    }


def _search_args(family: str, p: dict) -> tuple:
    """What a search takes between the query cells and ``exclude``."""
    return (p["k"],) if family == "overlap" else (p["delta"], p["k"])


def search_time_sweep(
    wb: Workbench,
    family: str,
    param: str,
    values,
    *,
    methods=OVERLAP_METHODS,
    theta: int = THETA_DEFAULT,
    f: int = F_DEFAULT,
    k: int = K_DEFAULT,
    q: int = Q_DEFAULT,
    delta: float = DELTA_DEFAULT,
) -> pd.DataFrame:
    """Search time as one Table II parameter sweeps ``values`` (§VII-A).

    ``family`` is ``"overlap"`` (OJSP, Figs 9-12) or ``"coverage"`` (CJSP,
    Figs 15-18); ``param`` is one of theta, f, k, q, delta, the others keep
    the values passed. One ``(param, method, time_s)`` row per value and
    method: the seconds its q sampled queries take. Indexes are rebuilt
    only when θ or f changes, and warmed on two queries before any timing,
    so lazy caches fill before the first row. ``methods`` picks the OJSP
    methods (Fig 12 times only the two with a leaf capacity).
    """
    p = dict(theta=theta, f=f, k=k, q=q, delta=delta)
    rows, built = [], None
    for v in values:
        p[param] = v
        args = _search_args(family, p)
        if built != (p["theta"], p["f"]):
            built = (p["theta"], p["f"])
            union = wb.union(p["theta"])
            if family == "overlap":
                searchers = make_overlap_searchers(union, *built, methods)
            else:
                searchers = make_coverage_searchers(union, *built)
            warm = wb.queries(2)
            for search in searchers.values():
                for qid in warm:
                    search(union[qid], *args, frozenset([qid]))
        qids = wb.queries(p["q"])
        for name, search in searchers.items():
            t0 = time.perf_counter()
            for qid in qids:
                search(union[qid], *args, frozenset([qid]))
            rows.append({param: v, "method": name, "time_s": round(time.perf_counter() - t0, 4)})
    return pd.DataFrame(rows)


# How the center distributes each method's query (§VI-A): OverlapSearch
# prunes with DITS-G and clips; the four baselines have no global index, so
# the center broadcasts the full query to every source (their bytes
# coincide: the paper's near-overlapping curves). CJSP runs the three
# local selection strategies.
COMM_STRATEGIES = {
    "overlap": {
        "OverlapSearch": dict(use_global=True, clip=True),
        **{m: dict(use_global=False, clip=False) for m in OVERLAP_METHODS[1:]},
    },
    "coverage": {
        "CoverageSearch": dict(strategy="merge"),
        "SG+DITS": dict(strategy="sg_dits"),
        "SG": dict(strategy="sg"),
    },
}


def comm_sweep(
    wb: Workbench,
    family: str,
    qs,
    *,
    theta: int = THETA_DEFAULT,
    f: int = F_DEFAULT,
    k: int = K_DEFAULT,
    delta: float = DELTA_DEFAULT,
) -> pd.DataFrame:
    """Bytes the byte model meters for q queries through the
    :class:`~repro.core.framework.DataCenter`: one ``(q, method, kbytes,
    transfer_s)`` row per q and method (Figs 13/14 for ``family =
    "overlap"``, 19/20 for ``"coverage"``)."""
    center = make_center(wb.corpus(theta), theta, f, SPACE)
    search = center.overlap_search if family == "overlap" else center.coverage_search
    args = _search_args(family, dict(k=k, delta=delta))
    union = wb.union(theta)
    rows = []
    for q in qs:
        qids = wb.queries(q)
        for name, how in COMM_STRATEGIES[family].items():
            total = sum(
                search(union[qid], *args, frozenset([qid]), **how)[1].total_bytes for qid in qids
            )
            rows.append(
                {
                    "q": q,
                    "method": name,
                    "kbytes": round(total / 1e3, 2),
                    "transfer_s": round(total / BANDWIDTH_BYTES_PER_S, 5),
                }
            )
    return pd.DataFrame(rows)


def table1_statistics(wb: Workbench) -> pd.DataFrame:
    from .synth_spatial import source_statistics

    return source_statistics(wb.points)


def pivot_table(df: pd.DataFrame, param: str, value: str = "time_s") -> pd.DataFrame:
    """Rows = methods, columns = parameter values — the paper's plot layout."""
    return df.pivot(index="method", columns=param, values=value)
