"""Spark cell pipeline: Catalyst encoder == numpy encoder, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.cells import (
    cell_sets_df,
    cell_sets_from_pdf,
    with_cells,
)
from repro.grid import cell_ids_np
from repro.oracle import assert_equivalent
from repro.synth_spatial import SPACE
from tests.conftest import THETA


@pytest.fixture(scope="module")
def points_sdf(spark, points_pdf):
    return spark.createDataFrame(points_pdf).cache()


class TestWithCells:
    @pytest.mark.parametrize("theta", [10, 12, 14])
    def test_spark_encoder_equals_numpy(self, spark, points_pdf, points_sdf, theta):
        got = (
            with_cells(points_sdf, SPACE, theta)
            .select("dataset_id", "x", "y", "cell")
            .toPandas()
            .sort_values(["dataset_id", "x", "y"])
            .reset_index(drop=True)
        )
        expect = cell_ids_np(got["x"].to_numpy(), got["y"].to_numpy(), SPACE, theta)
        assert np.array_equal(got["cell"].to_numpy(), expect)

    def test_cell_column_is_long(self, points_sdf):
        df = with_cells(points_sdf, SPACE, THETA)
        assert dict(df.dtypes)["cell"] == "bigint"


class TestCellSets:
    def test_distinct_rows_match_numpy(self, points_pdf, points_sdf):
        local = cell_sets_from_pdf(points_pdf, SPACE, THETA)
        n_local = sum(len(c) for s in local.values() for c in s.values())
        assert cell_sets_df(points_sdf, SPACE, THETA).count() == n_local

    def test_oracle_distinct_cells(self, points_pdf, points_sdf):
        """cell_sets_df vs DuckDB computing the same thing from raw points."""
        nu, mu = SPACE.cell_size(THETA)
        sdf = cell_sets_df(points_sdf, SPACE, THETA)
        # DuckDB computes grid coords; z-order interleave is checked in the
        # numpy/Spark equality test, so compare (dataset, X, Y) triples here.
        from repro.grid import z_decode_np

        pdf = sdf.toPandas()
        X, Y = z_decode_np(pdf["cell"].to_numpy(), THETA)
        got = pdf.assign(X=X, Y=Y)[["source_id", "dataset_id", "X", "Y"]]
        got_sdf = sdf.sparkSession.createDataFrame(got)
        assert_equivalent(
            got_sdf,
            f"""
            SELECT DISTINCT source_id, dataset_id,
              LEAST(GREATEST(CAST(FLOOR((x - ({SPACE.x0})) / {nu}) AS BIGINT), 0), {(1 << THETA) - 1}) AS X,
              LEAST(GREATEST(CAST(FLOOR((y - ({SPACE.y0})) / {mu}) AS BIGINT), 0), {(1 << THETA) - 1}) AS Y
            FROM pts
            """,
            pts=points_pdf,
        )
