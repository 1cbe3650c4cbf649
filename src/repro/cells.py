"""Points -> cell-based datasets, as Spark DataFrame pipelines (Def. 5).

The cell ID is computed with pure Catalyst column expressions
(:func:`repro.grid.cell_id_col`), then each dataset's *cell-based dataset*
is the distinct set of its cell IDs. ``collect_cell_sets`` materializes the
per-dataset sorted cell arrays on the driver for the index structures, which
is the paper's setting (each data source holds its own datasets locally).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .grid import Bounds, cell_ids_np, cell_id_col


def with_cells(points: DataFrame, bounds: Bounds, theta: int) -> DataFrame:
    """Attach the z-order ``cell`` column to a (… x, y …) points frame."""
    return points.withColumn("cell", cell_id_col(F.col("x"), F.col("y"), bounds, theta))


def cell_sets_df(points: DataFrame, bounds: Bounds, theta: int) -> DataFrame:
    """Distinct (source_id, dataset_id, cell) rows — the relational form of
    all cell-based datasets, ready for join-based operators."""
    return (
        with_cells(points, bounds, theta)
        .select("source_id", "dataset_id", "cell")
        .distinct()
    )


def collect_cell_sets(
    points: DataFrame, bounds: Bounds, theta: int
) -> dict[str, dict[int, np.ndarray]]:
    """Materialize {source_id: {dataset_id: sorted cell-ID array}}.

    Uses ``collect_set`` so the shuffle moves one row per dataset, not one
    per point.
    """
    rows = (
        cell_sets_df(points, bounds, theta)
        .groupBy("source_id", "dataset_id")
        .agg(F.collect_set("cell").alias("cells"))
        .collect()
    )
    out: dict[str, dict[int, np.ndarray]] = {}
    for r in rows:
        out.setdefault(r["source_id"], {})[int(r["dataset_id"])] = np.sort(
            np.asarray(r["cells"], dtype=np.int64)
        )
    return out


def cell_sets_from_pdf(
    points: pd.DataFrame, bounds: Bounds, theta: int
) -> dict[str, dict[int, np.ndarray]]:
    """Driver-side (numpy) equivalent of :func:`collect_cell_sets`."""
    pdf = points.copy()
    pdf["cell"] = cell_ids_np(pdf["x"].to_numpy(), pdf["y"].to_numpy(), bounds, theta)
    out: dict[str, dict[int, np.ndarray]] = {}
    for (sid, did), g in pdf.groupby(["source_id", "dataset_id"], sort=True):
        out.setdefault(str(sid), {})[int(did)] = np.unique(g["cell"].to_numpy())
    return out
