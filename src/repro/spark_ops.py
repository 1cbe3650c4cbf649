"""The Spark transport of the multi-source protocol (DESIGN.md §3).

Executors play the data sources, the driver plays the data center:

- :func:`overlap_topk_sql` — OJSP as a pure Spark SQL *spatial join
  operator* (query cells ⋈ corpus cells → distinct-count → window top-k);
  the relational reference the index algorithms are checked against.
- :func:`build_distributed_index` — `applyInPandas` per ``source_id``
  builds each source's :class:`~repro.core.framework.DataSource` inside its
  own task and returns it pickled, next to its root summary ("each source
  sends its root node to the data center"), from which the driver builds
  DITS-G. The driver ships each source, still pickled, as one Spark
  broadcast: no file is written and no shared filesystem is needed.
- :func:`distributed_overlap_search` / :func:`distributed_coverage_search`
  — the protocol of :mod:`repro.core.framework`, run on the driver, with
  each round carried by one Spark job of a single stage and no exchange.
  The per-source ``(source_id, cells)`` tasks fill at most one partition
  per core, and each partition runs the ``DataSource`` kernels the
  in-process center runs on the broadcast sources, which each Python
  worker unpickles on first use. A CJSP reply carries the candidate's
  cells.

Why this shape: on ``local[4]`` a JVM-only job costs about 30 ms and one
wave of Python tasks about 200 ms, while the local search takes a few
milliseconds. Latency is set by the count of jobs, shuffle stages and waves
of Python tasks, so each round keeps all three at one: a DataFrame plan
(``repartition`` by source, then a window top-k) pays two shuffles, that
is two more stages, and more partitions than cores pay a second wave.
"""
from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pandas as pd
from pyspark import Broadcast
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


class _Pickled:
    """Pickles as the object its bytes encode, without decoding them."""

    def __init__(self, blob: bytes):
        self.blob = blob

    def __reduce__(self):
        return pickle.loads, (self.blob,)


def build_distributed_index(
    cells_df: DataFrame,
    bounds: Bounds,
    theta: int,
    f: int,
    out_dir: str | None = None,
) -> tuple[GlobalNode, dict[str, RootSummary], dict[str, Broadcast]]:
    """Build every source's DITS-L inside Spark tasks; DITS-G on the driver.

    ``cells_df``: (source_id, dataset_id, cell) rows. Returns the global
    index, {source_id: RootSummary} and {source_id: Broadcast} whose
    ``.value`` is the source's :class:`DataSource`. ``out_dir`` is ignored:
    nothing is written. Raises ``ValueError`` when there are no rows, or
    when two sources hold the same dataset ID.
    """
    schema = (
        "source_id string, n_datasets long, gx0 double, gy0 double, "
        "gx1 double, gy1 double, dataset_ids array<long>, blob binary"
    )

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        sid = str(pdf["source_id"].iloc[0])
        datasets = {
            int(did): np.unique(g["cell"].to_numpy(dtype=np.int64))
            for did, g in pdf.groupby("dataset_id")
        }
        src = DataSource(sid, datasets, theta, f, bounds)
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
                    "dataset_ids": sorted(datasets),
                    "blob": pickle.dumps(src),
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
    sc = cells_df.sparkSession.sparkContext
    sources = {r["source_id"]: sc.broadcast(_Pickled(r["blob"])) for r in rows}
    groot = build_global_index(sorted(summaries.values(), key=lambda s: s.source_id))
    return groot, summaries, sources


def _run_round(spark: SparkSession, sources: dict[str, Broadcast], search, tasks) -> list:
    """One protocol round: a single-stage job over the ``(source_id, cells)``
    tasks, each answered by the broadcast source ``sources[source_id]``.

    At most one partition per core, so the Python tasks run in one wave.
    ``search`` maps ``sources`` and one partition's tasks to replies, which
    come back to the driver unmerged. Every task references every source:
    a worker drops the broadcasts its current task does not reference, so
    shipping only the routed ones would evict and reload the others.
    """
    sc = spark.sparkContext
    n = min(len(tasks), sc.defaultParallelism)
    return sc.parallelize(tasks, n).mapPartitions(partial(search, sources)).collect()


def _overlap_replies(k: int, exclude: frozenset[int], sources, tasks):
    """Executor side of an OJSP round: each source's local top-k rows."""
    for sid, cells in tasks:
        yield from sources[sid].value.local_overlap(cells, k, exclude)


def _coverage_replies(delta: float, taken: frozenset[int], sources, tasks):
    """Executor side of a CJSP round: each source's best (id, gain, cells)."""
    for sid, cells in tasks:
        reply = sources[sid].value.best_coverage_candidate(cells, delta, taken, use_index=True)
        if reply is not None:
            yield reply


def distributed_overlap_search(
    spark: SparkSession,
    groot: GlobalNode,
    summaries: dict[str, RootSummary],
    sources: dict[str, Broadcast],
    query_cells: np.ndarray,
    k: int,
    bounds: Bounds,
    theta: int,
    exclude: tuple[int, ...] = (),
) -> list[tuple[int, int]]:
    """OJSP over the distributed index; equals the driver-side framework."""
    excl = frozenset(int(e) for e in exclude)
    ask = partial(_run_round, spark, sources, partial(_overlap_replies, k, excl))
    return ojsp_protocol(Directory(groot, summaries, bounds, theta), ask, query_cells, k)


def distributed_coverage_search(
    spark: SparkSession,
    groot: GlobalNode,
    summaries: dict[str, RootSummary],
    sources: dict[str, Broadcast],
    query_cells: np.ndarray,
    delta: float,
    k: int,
    bounds: Bounds,
    theta: int,
    exclude: tuple[int, ...] = (),
) -> list[tuple[int, int]]:
    """CJSP greedy: one Spark job per iteration (the paper's round trips)."""

    def ask(tasks, taken):
        return _run_round(spark, sources, partial(_coverage_replies, delta, taken), tasks)

    return cjsp_protocol(Directory(groot, summaries, bounds, theta), ask, query_cells, delta, k, exclude)
