"""Experiment harness reproducing the paper's evaluation (§VII).

Each ``figN_*`` function reruns one figure's experiment and returns a
pandas DataFrame with the same rows the paper plots (one row per parameter
value x method). ``jobs/`` wraps them for spark-submit; ``benchmarks/``
times representative cells with pytest-benchmark; EXPERIMENTS.md records
the numbers against the paper's.

Workload protocol (§VII-A): five synthetic sources (Table I substitute,
see DESIGN.md §4), q query datasets sampled from the corpus, parameters
from Table II with the paper's defaults.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    DELTA_DEFAULT,
    DELTA_VALUES,
    F_DEFAULT,
    F_VALUES,
    K_DEFAULT,
    K_VALUES,
    Q_DEFAULT,
    Q_VALUES,
    THETA_DEFAULT,
    THETA_VALUES,
    BETA_VALUES,
)
from .synth_spatial import SPACE, generate_corpus_pdf, pick_queries


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
# OJSP search time (Figs. 9-12)
# --------------------------------------------------------------------------

def make_overlap_searchers(
    union: dict[int, np.ndarray], theta: int, f: int
) -> dict[str, callable]:
    """method name -> search(query_cells, k, exclude) over prebuilt indexes."""
    dits = DitsLocalIndex(union, theta, f)
    rtree = RTreeIndex(union, theta, f)
    qt = QuadTreeIndex(union, theta)
    sts3 = STS3Index(union)
    josie = JosieIndex(union)
    return {
        "OverlapSearch": lambda q, k, ex: dits.search_overlap(
            query_node_from_cells(q, theta), k, ex
        ),
        "Rtree": lambda q, k, ex: rtree.search(query_node_from_cells(q, theta), k, ex),
        "QuadTree": lambda q, k, ex: qt.search(q, k, ex),
        "STS3": lambda q, k, ex: sts3.search(q, k, ex),
        "Josie": lambda q, k, ex: josie.search(q, k, ex),
    }


def _warm_overlap(searchers, union, qids) -> None:
    """Populate lazy caches (posting arrays etc.) before any timing, so the
    first swept row is measured under the same conditions as the rest."""
    for search in searchers.values():
        for qid in qids[:2]:
            search(union[qid], K_DEFAULT, frozenset([qid]))


def _run_overlap_queries(searchers, union, qids, k) -> dict[str, float]:
    out = {}
    for name, search in searchers.items():
        t0 = time.perf_counter()
        for qid in qids:
            search(union[qid], k, frozenset([qid]))
        out[name] = time.perf_counter() - t0
    return out


def fig9_overlap_vs_k(
    wb: Workbench, ks=K_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, q=Q_DEFAULT
) -> pd.DataFrame:
    union = wb.union(theta)
    searchers = make_overlap_searchers(union, theta, f)
    qids = wb.queries(q)
    _warm_overlap(searchers, union, qids)
    rows = []
    for k in ks:
        for name, secs in _run_overlap_queries(searchers, union, qids, k).items():
            rows.append({"k": k, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig10_overlap_vs_theta(
    wb: Workbench, thetas=THETA_VALUES, f=F_DEFAULT, k=K_DEFAULT, q=Q_DEFAULT
) -> pd.DataFrame:
    rows = []
    for theta in thetas:
        union = wb.union(theta)
        searchers = make_overlap_searchers(union, theta, f)
        qids = wb.queries(q)
        _warm_overlap(searchers, union, qids)
        for name, secs in _run_overlap_queries(searchers, union, qids, k).items():
            rows.append({"theta": theta, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig11_overlap_vs_q(
    wb: Workbench, qs=Q_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, k=K_DEFAULT
) -> pd.DataFrame:
    union = wb.union(theta)
    searchers = make_overlap_searchers(union, theta, f)
    _warm_overlap(searchers, union, wb.queries(2))
    rows = []
    for q in qs:
        qids = wb.queries(q)
        for name, secs in _run_overlap_queries(searchers, union, qids, k).items():
            rows.append({"q": q, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig12_overlap_vs_f(
    wb: Workbench, fs=F_VALUES, theta=THETA_DEFAULT, k=K_DEFAULT, q=Q_DEFAULT
) -> pd.DataFrame:
    """Only OverlapSearch and Rtree have a leaf capacity (paper §VII-C.1)."""
    union = wb.union(theta)
    qids = wb.queries(q)
    rows = []
    for f in fs:
        dits = DitsLocalIndex(union, theta, f)
        rtree = RTreeIndex(union, theta, f)
        for name, search in (
            (
                "OverlapSearch",
                lambda qc, k_, ex: dits.search_overlap(
                    query_node_from_cells(qc, theta), k_, ex
                ),
            ),
            ("Rtree", lambda qc, k_, ex: rtree.search(query_node_from_cells(qc, theta), k_, ex)),
        ):
            t0 = time.perf_counter()
            for qid in qids:
                search(union[qid], k, frozenset([qid]))
            rows.append({"f": f, "method": name, "time_s": round(time.perf_counter() - t0, 4)})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# OJSP communication (Figs. 13/14)
# --------------------------------------------------------------------------

def fig13_14_overlap_comm(
    wb: Workbench, qs=Q_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, k=K_DEFAULT
) -> pd.DataFrame:
    """OverlapSearch = global prune + clipped query; the four baselines have
    no global index, so the center broadcasts the full query to every
    source (their bytes coincide — the paper's near-overlapping curves)."""
    center = make_center(wb.corpus(theta), theta, f, SPACE)
    union = wb.union(theta)
    rows = []
    for q in qs:
        qids = wb.queries(q)
        for name, kwargs in (
            ("OverlapSearch", dict(use_global=True, clip=True)),
            ("Rtree", dict(use_global=False, clip=False)),
            ("QuadTree", dict(use_global=False, clip=False)),
            ("STS3", dict(use_global=False, clip=False)),
            ("Josie", dict(use_global=False, clip=False)),
        ):
            total = 0
            for qid in qids:
                _, comm = center.overlap_search(
                    union[qid], k, frozenset([qid]), **kwargs
                )
                total += comm.total_bytes
            from .params import BANDWIDTH_BYTES_PER_S

            rows.append(
                {
                    "q": q,
                    "method": name,
                    "kbytes": round(total / 1e3, 2),
                    "transfer_s": round(total / BANDWIDTH_BYTES_PER_S, 5),
                }
            )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# CJSP search time (Figs. 15-18)
# --------------------------------------------------------------------------

def make_coverage_searchers(union: dict[int, np.ndarray], theta: int, f: int):
    dits = DitsLocalIndex(union, theta, f)
    sg = SGCoverage(union, theta)
    sgd = SGDitsCoverage(dits.root, theta)
    return {
        "CoverageSearch": lambda q, d, k, ex: dits.search_coverage(
            query_node_from_cells(q, theta), d, k, ex
        ),
        "SG+DITS": lambda q, d, k, ex: sgd.search(query_node_from_cells(q, theta), d, k, ex),
        "SG": lambda q, d, k, ex: sg.search(query_node_from_cells(q, theta), d, k, ex),
    }


def _run_coverage_queries(searchers, union, qids, delta, k) -> dict[str, float]:
    out = {}
    for name, search in searchers.items():
        t0 = time.perf_counter()
        for qid in qids:
            search(union[qid], delta, k, frozenset([qid]))
        out[name] = time.perf_counter() - t0
    return out


def fig15_coverage_vs_k(
    wb: Workbench, ks=K_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, q=Q_DEFAULT, delta=DELTA_DEFAULT
) -> pd.DataFrame:
    union = wb.union(theta)
    searchers = make_coverage_searchers(union, theta, f)
    qids = wb.queries(q)
    rows = []
    for k in ks:
        for name, secs in _run_coverage_queries(searchers, union, qids, delta, k).items():
            rows.append({"k": k, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig16_coverage_vs_theta(
    wb: Workbench, thetas=THETA_VALUES, f=F_DEFAULT, q=Q_DEFAULT, k=K_DEFAULT, delta=DELTA_DEFAULT
) -> pd.DataFrame:
    rows = []
    for theta in thetas:
        union = wb.union(theta)
        searchers = make_coverage_searchers(union, theta, f)
        qids = wb.queries(q)
        for name, secs in _run_coverage_queries(searchers, union, qids, delta, k).items():
            rows.append({"theta": theta, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig17_coverage_vs_q(
    wb: Workbench, qs=Q_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, k=K_DEFAULT, delta=DELTA_DEFAULT
) -> pd.DataFrame:
    union = wb.union(theta)
    searchers = make_coverage_searchers(union, theta, f)
    rows = []
    for q in qs:
        qids = wb.queries(q)
        for name, secs in _run_coverage_queries(searchers, union, qids, delta, k).items():
            rows.append({"q": q, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


def fig18_coverage_vs_delta(
    wb: Workbench, deltas=DELTA_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, k=K_DEFAULT, q=Q_DEFAULT
) -> pd.DataFrame:
    union = wb.union(theta)
    searchers = make_coverage_searchers(union, theta, f)
    qids = wb.queries(q)
    rows = []
    for delta in deltas:
        for name, secs in _run_coverage_queries(searchers, union, qids, delta, k).items():
            rows.append({"delta": delta, "method": name, "time_s": round(secs, 4)})
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# CJSP communication (Figs. 19/20)
# --------------------------------------------------------------------------

def fig19_20_coverage_comm(
    wb: Workbench, qs=Q_VALUES, theta=THETA_DEFAULT, f=F_DEFAULT, k=K_DEFAULT, delta=DELTA_DEFAULT
) -> pd.DataFrame:
    center = make_center(wb.corpus(theta), theta, f, SPACE)
    union = wb.union(theta)
    name_to_strategy = {"CoverageSearch": "merge", "SG+DITS": "sg_dits", "SG": "sg"}
    rows = []
    for q in qs:
        qids = wb.queries(q)
        for name, strat in name_to_strategy.items():
            total = 0
            for qid in qids:
                _, comm = center.coverage_search(
                    union[qid], delta, k, frozenset([qid]), strategy=strat
                )
                total += comm.total_bytes
            from .params import BANDWIDTH_BYTES_PER_S

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
