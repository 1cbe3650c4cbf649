"""Points -> cell-based datasets, as Spark DataFrame pipelines (Def. 5).

The cell ID is computed with pure Catalyst column expressions
(:func:`repro.grid.cell_id_col`), then each dataset's *cell-based dataset*
is the distinct set of its cell IDs. :func:`cell_sets_from_pdf` builds the
per-dataset sorted cell arrays with numpy for the index structures, which
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


def cell_sets_from_pdf(
    points: pd.DataFrame, bounds: Bounds, theta: int
) -> dict[str, dict[int, np.ndarray]]:
    """{source_id: {dataset_id: sorted cell-ID array}}, computed with numpy:
    the cells :func:`cell_sets_df` holds as rows."""
    pdf = points.copy()
    pdf["cell"] = cell_ids_np(pdf["x"].to_numpy(), pdf["y"].to_numpy(), bounds, theta)
    out: dict[str, dict[int, np.ndarray]] = {}
    for (sid, did), g in pdf.groupby(["source_id", "dataset_id"], sort=True):
        out.setdefault(str(sid), {})[int(did)] = np.unique(g["cell"].to_numpy())
    return out
