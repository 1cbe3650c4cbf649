"""The Spark transport of the multi-source protocol (DESIGN.md §3).

Executors play the data sources, the driver plays the data center:

- :func:`overlap_topk_sql` — OJSP as a pure Spark SQL *spatial join
  operator* (query cells ⋈ corpus cells → distinct-count → window top-k);
  the relational reference the index algorithms are checked against.
- :func:`build_distributed_index` — `applyInPandas` per ``source_id``
  builds each source's :class:`~repro.core.framework.DataSource` inside its
  own task and persists it; the returned root summaries are "each source
  sends its root node to the data center", from which the driver builds
  DITS-G.
- :func:`distributed_overlap_search` / :func:`distributed_coverage_search`
  — the protocol of :mod:`repro.core.framework`, run on the driver, with
  each round carried by one Spark job of a single stage and no exchange.
  The per-source ``(path, cells)`` tasks fill at most one partition per
  core, and each partition runs the ``DataSource`` kernels the in-process
  center runs. A CJSP reply carries the candidate's cells, so the driver
  never opens a file an executor wrote.

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

from .core.dits_global import GlobalNode, RootSummary, build_global_index
from .core.framework import DataSource, Directory, check_unique_ids, cjsp_protocol, ojsp_protocol
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


# Per worker process: {out_dir/source_id: (path, source)}. Every build writes
# ``<source_id>.<build token>.pkl``, so a rebuild into the same directory
# reaches the workers as a new path and replaces the source's one entry.
_INDEX_CACHE: dict[str, tuple[str, DataSource]] = {}


def _load_index(path: str) -> DataSource:
    """The persisted source (with its DITS-L) at ``path``, cached per worker."""
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
    Raises ``ValueError`` when there are no rows, or when two sources hold
    the same dataset ID.
    """
    os.makedirs(out_dir, exist_ok=True)
    build_token = uuid.uuid4().hex
    schema = (
        "source_id string, n_datasets long, gx0 double, gy0 double, "
        "gx1 double, gy1 double, path string, dataset_ids array<long>"
    )

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        sid = str(pdf["source_id"].iloc[0])
        datasets = {
            int(did): np.unique(g["cell"].to_numpy(dtype=np.int64))
            for did, g in pdf.groupby("dataset_id")
        }
        src = DataSource(sid, datasets, theta, f, bounds)
        name = f"{sid}.{build_token}.pkl"
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            pickle.dump(src, fh)
        # Drop this source's superseded builds (the file name rule of
        # _load_index, inlined so the task does not import this module).
        for old in os.listdir(out_dir):
            if old != name and old.endswith(".pkl") and old.rsplit(".", 2)[0] == sid:
                os.remove(os.path.join(out_dir, old))
        r = src.index.root.rect
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
                    "dataset_ids": sorted(datasets),
                }
            ]
        )

    rows = cells_df.groupBy("source_id").applyInPandas(build, schema).collect()
    if not rows:
        raise ValueError("build_distributed_index: cells_df has no rows")
    check_unique_ids({r["source_id"]: r["dataset_ids"] for r in rows})
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


def _run_round(spark: SparkSession, paths: dict[str, str], search, tasks) -> list:
    """One protocol round: a single-stage job over the ``(source_id, cells)``
    tasks, each sent to the source persisted at ``paths[source_id]``.

    At most one partition per core, so the Python tasks run in one wave.
    ``search`` maps one partition's ``(path, cells)`` tasks to replies,
    which come back to the driver unmerged.
    """
    sc = spark.sparkContext
    n = min(len(tasks), sc.defaultParallelism)
    work = [(paths[sid], cells) for sid, cells in tasks]
    return sc.parallelize(work, n).mapPartitions(search).collect()


def _overlap_replies(k: int, exclude: frozenset[int], tasks):
    """Executor side of an OJSP round: each source's local top-k rows."""
    for path, cells in tasks:
        yield from _load_index(path).local_overlap(cells, k, exclude)


def _coverage_replies(delta: float, taken: frozenset[int], tasks):
    """Executor side of a CJSP round: each source's best (id, gain, cells)."""
    for path, cells in tasks:
        reply = _load_index(path).best_coverage_candidate(cells, delta, taken, use_index=True)
        if reply is not None:
            yield reply


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
    excl = frozenset(int(e) for e in exclude)
    ask = partial(_run_round, spark, paths, partial(_overlap_replies, k, excl))
    return ojsp_protocol(Directory(groot, summaries, bounds, theta), ask, query_cells, k)


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

    def ask(tasks, taken):
        return _run_round(spark, paths, partial(_coverage_replies, delta, taken), tasks)

    return cjsp_protocol(Directory(groot, summaries, bounds, theta), ask, query_cells, delta, k, exclude)
