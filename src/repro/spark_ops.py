"""Distributed dataflow for the multi-source framework (DESIGN.md §3).

Executors play the data sources, the driver plays the data center:

- :func:`overlap_topk_sql` — OJSP as a pure Spark SQL *spatial join
  operator* (query cells ⋈ corpus cells → distinct-count → window top-k);
  the relational reference the index algorithms are checked against.
- :func:`build_distributed_index` — `applyInPandas` per ``source_id``
  builds each source's DITS-L inside its own task and persists it; the
  returned root summaries are "each source sends its root node to the data
  center", from which the driver builds DITS-G.
- :func:`distributed_overlap_search` / :func:`distributed_coverage_search`
  — DITS-G prunes candidate sources and the query is clipped per source on
  the driver. Each round (one per OJSP query, one per CJSP greedy
  iteration) is then one Spark job of a single stage with no exchange: the
  per-source ``(path, clipped cells)`` tasks are spread over at most one
  partition per core, each partition runs the local search against its
  sources' persisted DITS-L, and the driver merges the replies. OJSP
  replies are each source's top-k rows, merged under ``(-overlap,
  dataset_id)``; a CJSP reply is each source's best ``(id, gain, cells)``,
  merged under (max gain, min id), so the winner's cells arrive with it and
  the driver never opens an index file an executor wrote.

Why this shape: on ``local[4]`` a JVM-only job costs about 30 ms and one
wave of Python tasks about 200 ms, while the local search takes a few
milliseconds. Latency is set by the count of jobs, shuffle stages and waves
of Python tasks, so each round keeps all three at one: a DataFrame plan
(``repartition`` by source, then a window top-k) pays two shuffles, that
is two more stages, and more partitions than cores pay a second wave.
"""
from __future__ import annotations

import os
import pickle
import uuid
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from .core.coverage import _pick_best, find_connect_set
from .core.dits_global import GlobalNode, RootSummary, build_global_index, candidate_sources
from .core.framework import clip_cells_to_summary, delta_to_deg, query_lonlat_geom
from .core.node import DatasetNode
from .core.overlap import query_node_from_cells, rank_key, rank_topk
from .core.update import DitsLocalIndex
from .grid import Bounds


def overlap_topk_sql(
    spark: SparkSession,
    query_cells_df: DataFrame,
    corpus_cells_df: DataFrame,
    k: int,
    exclude: tuple[int, ...] = (),
) -> DataFrame:
    """OJSP as one Catalyst plan over (source_id, dataset_id, cell) rows.

    Returns (source_id, dataset_id, overlap), the global top-k under the
    repo-wide (-overlap, dataset_id) order, overlap > 0.
    """
    q = query_cells_df.select("cell").distinct()
    scored = (
        corpus_cells_df.join(q, "cell")
        .groupBy("source_id", "dataset_id")
        .agg(F.countDistinct("cell").alias("overlap"))
    )
    if exclude:
        scored = scored.filter(~F.col("dataset_id").isin(*[int(e) for e in exclude]))
    w = Window.orderBy(F.desc("overlap"), F.asc("dataset_id"))
    return (
        scored.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .drop("rank")
    )


# Per worker process: {out_dir/source_id: (path, index)}. Every build writes
# ``<source_id>.<build token>.pkl``, so a rebuild into the same directory
# reaches the workers as a new path and replaces the source's one entry.
_INDEX_CACHE: dict[str, tuple[str, DitsLocalIndex]] = {}


def _load_index(path: str) -> DitsLocalIndex:
    slot = path.rsplit(".", 2)[0]  # out_dir/source_id
    hit = _INDEX_CACHE.get(slot)
    if hit is None or hit[0] != path:
        with open(path, "rb") as fh:
            hit = (path, pickle.load(fh))
        _INDEX_CACHE[slot] = hit
    return hit[1]


def build_distributed_index(
    cells_df: DataFrame,
    bounds: Bounds,
    theta: int,
    f: int,
    out_dir: str,
) -> tuple[GlobalNode, dict[str, RootSummary], dict[str, str]]:
    """Build every source's DITS-L inside Spark tasks; DITS-G on the driver.

    ``cells_df``: (source_id, dataset_id, cell) rows. Returns the global
    index, {source_id: RootSummary} and {source_id: pickle path}. A rebuild
    into the same ``out_dir`` deletes the files of the builds it supersedes.
    """
    os.makedirs(out_dir, exist_ok=True)
    build_token = uuid.uuid4().hex
    schema = (
        "source_id string, n_datasets long, gx0 double, gy0 double, "
        "gx1 double, gy1 double, path string"
    )

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        sid = str(pdf["source_id"].iloc[0])
        datasets = {
            int(did): np.unique(g["cell"].to_numpy(dtype=np.int64))
            for did, g in pdf.groupby("dataset_id")
        }
        idx = DitsLocalIndex(datasets, theta, f)
        name = f"{sid}.{build_token}.pkl"
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            pickle.dump(idx, fh)
        # Drop this source's superseded builds (the file name rule of
        # _load_index, inlined so the task does not import this module).
        for old in os.listdir(out_dir):
            if old != name and old.endswith(".pkl") and old.rsplit(".", 2)[0] == sid:
                os.remove(os.path.join(out_dir, old))
        r = idx.root.rect
        return pd.DataFrame(
            [
                {
                    "source_id": sid,
                    "n_datasets": len(datasets),
                    "gx0": float(r[0]),
                    "gy0": float(r[1]),
                    "gx1": float(r[2]),
                    "gy1": float(r[3]),
                    "path": path,
                }
            ]
        )

    rows = cells_df.groupBy("source_id").applyInPandas(build, schema).collect()
    summaries = {
        r["source_id"]: RootSummary.from_grid_rect(
            r["source_id"],
            np.array([r["gx0"], r["gy0"], r["gx1"], r["gy1"]]),
            bounds,
            theta,
            r["n_datasets"],
        )
        for r in rows
    }
    paths = {r["source_id"]: r["path"] for r in rows}
    groot = build_global_index(sorted(summaries.values(), key=lambda s: s.source_id))
    return groot, summaries, paths


def _run_round(spark: SparkSession, tasks: list[tuple[str, np.ndarray]], search) -> list:
    """One search round: a single-stage job over the per-source tasks.

    At most one partition per core, so the Python tasks run in one wave.
    ``search`` maps one partition's tasks to replies, which come back to
    the driver unmerged.
    """
    sc = spark.sparkContext
    n = min(len(tasks), sc.defaultParallelism)
    return sc.parallelize(tasks, n).mapPartitions(search).collect()


def _overlap_replies(theta: int, k: int, exclude: frozenset[int], tasks):
    """Executor side of an OJSP round: each source's local top-k rows."""
    for path, cells in tasks:
        yield from _load_index(path).search_overlap(query_node_from_cells(cells, theta), k, exclude)


def _coverage_replies(theta: int, delta: float, taken: frozenset[int], tasks):
    """Executor side of a CJSP round: each source's best (id, gain, cells)."""
    for path, cells in tasks:
        found: list[DatasetNode] = []
        find_connect_set(_load_index(path).root, DatasetNode(-1, cells, theta), delta, found)
        best, gain = _pick_best(found, {int(c) for c in cells}, taken)
        if best is not None:
            yield best.id, gain, best.cells


def distributed_overlap_search(
    spark: SparkSession,
    groot: GlobalNode,
    summaries: dict[str, RootSummary],
    paths: dict[str, str],
    query_cells: np.ndarray,
    k: int,
    bounds: Bounds,
    theta: int,
    exclude: tuple[int, ...] = (),
) -> list[tuple[int, int]]:
    """OJSP over the distributed index; equals the driver-side framework."""
    query_cells = np.unique(np.asarray(query_cells, dtype=np.int64))
    if k <= 0 or len(query_cells) == 0:
        return []
    rect, o, r = query_lonlat_geom(query_cells, bounds, theta)
    tasks = []
    for s in candidate_sources(groot, rect, o, r, -1.0):
        clipped = clip_cells_to_summary(query_cells, s, 0.0, bounds, theta)
        if len(clipped):
            tasks.append((paths[s.source_id], clipped))
    if not tasks:
        return []
    excl = frozenset(int(e) for e in exclude)
    return rank_topk(_run_round(spark, tasks, partial(_overlap_replies, theta, k, excl)), k)


def distributed_coverage_search(
    spark: SparkSession,
    groot: GlobalNode,
    summaries: dict[str, RootSummary],
    paths: dict[str, str],
    query_cells: np.ndarray,
    delta: float,
    k: int,
    bounds: Bounds,
    theta: int,
    exclude: tuple[int, ...] = (),
) -> list[tuple[int, int]]:
    """CJSP greedy: one Spark job per iteration (the paper's round trips)."""
    covered = {int(c) for c in np.asarray(query_cells, dtype=np.int64)}
    taken = set(int(e) for e in exclude)
    result: list[tuple[int, int]] = []
    pad = delta_to_deg(delta, bounds, theta)
    if not covered:
        return result
    for _ in range(k):
        merged = np.fromiter(covered, dtype=np.int64)
        rect, o, r = query_lonlat_geom(merged, bounds, theta)
        tasks = []
        for s in candidate_sources(groot, rect, o, r, pad):
            clipped = clip_cells_to_summary(merged, s, pad, bounds, theta)
            if len(clipped):
                tasks.append((paths[s.source_id], clipped))
        if not tasks:
            break
        search = partial(_coverage_replies, theta, delta, frozenset(taken))
        replies = _run_round(spark, tasks, search)
        if not replies:
            break
        did, gain, cells_won = min(replies, key=rank_key)
        covered.update(int(c) for c in cells_won)
        taken.add(did)
        result.append((did, gain))
    return result
