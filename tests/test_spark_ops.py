"""Distributed dataflow operators == driver-side algorithms, oracle-checked."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.functions import col, lit

from repro import spark_ops
from repro.baselines.greedy import SGCoverage
from repro.cells import cell_sets_df
from repro.core.coverage import is_connected_result
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.oracle import assert_equivalent
from repro.synth_spatial import SPACE
from tests.conftest import F, THETA


@pytest.fixture(scope="module")
def cells_sdf(spark, points_pdf):
    return cell_sets_df(spark.createDataFrame(points_pdf), SPACE, THETA).cache()


@pytest.fixture(scope="module")
def dist_index(cells_sdf):
    return spark_ops.build_distributed_index(cells_sdf, SPACE, THETA, F)


class TestOverlapTopkSql:
    def test_equals_brute_force(self, spark, cells_sdf, union_datasets, query_ids):
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
            top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 10, (qid,))
            got = [(int(r["dataset_id"]), int(r["overlap"])) for r in top.collect()]
            assert got == brute_force_topk(q, union_datasets, 10, frozenset([qid]))

    def test_oracle(self, spark, cells_sdf, union_datasets, query_ids):
        qid = query_ids[0]
        q = union_datasets[qid]
        qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
        top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 10, (qid,)).select(
            "dataset_id", "overlap"
        )
        assert_equivalent(
            top,
            f"""SELECT dataset_id, COUNT(DISTINCT c.cell) AS overlap
                FROM corpus c JOIN q ON c.cell = q.cell
                WHERE dataset_id <> {qid}
                GROUP BY dataset_id
                ORDER BY overlap DESC, dataset_id ASC LIMIT 10""",
            corpus=cells_sdf.toPandas(),
            q=pd.DataFrame({"cell": q}),
        )

    def test_no_exclusion(self, spark, cells_sdf, union_datasets, query_ids):
        qid = query_ids[1]
        q = union_datasets[qid]
        qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
        top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 5)
        got = [(int(r["dataset_id"]), int(r["overlap"])) for r in top.collect()]
        assert got == brute_force_topk(q, union_datasets, 5)


class TestDistributedBuild:
    def test_summaries_cover_sources(self, dist_index, corpus):
        _groot, summaries, sources = dist_index
        assert set(summaries) == set(corpus)
        assert set(sources) == set(corpus)
        for name, s in summaries.items():
            assert s.n_datasets == len(corpus[name])

    def test_persisted_indexes_load_and_match(self, dist_index, corpus):
        _groot, _summaries, sources = dist_index
        for name in sources:
            src = sources[name].value
            assert src.name == name
            assert sorted(src.index.datasets) == sorted(corpus[name])

    def test_summary_rects_match_driver_side(self, dist_index, center):
        _groot, summaries, _sources = dist_index
        for name, s in summaries.items():
            expect = center.summaries[name]
            assert np.allclose(s.rect, expect.rect)

    def test_dataset_id_in_two_sources_is_rejected(self, cells_sdf, union_datasets):
        did = min(union_datasets)
        twice = cells_sdf.union(
            cells_sdf.filter(col("dataset_id") == did).withColumn("source_id", lit("copy"))
        )
        with pytest.raises(ValueError, match=f"dataset {did}"):
            spark_ops.build_distributed_index(twice, SPACE, THETA, F)

    def test_no_rows_is_rejected(self, cells_sdf):
        with pytest.raises(ValueError):
            spark_ops.build_distributed_index(cells_sdf.limit(0), SPACE, THETA, F)

    def test_out_dir_is_not_written(self, tmp_path, cells_sdf):
        """The ignored ``out_dir`` of older callers stays untouched."""
        out = tmp_path / "never"
        spark_ops.build_distributed_index(cells_sdf, SPACE, THETA, F, str(out))
        assert not out.exists()


class TestDistributedSearch:
    def test_overlap_equals_brute_force(
        self, spark, dist_index, union_datasets, query_ids
    ):
        groot, summaries, paths = dist_index
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            res = spark_ops.distributed_overlap_search(
                spark, groot, summaries, paths, q, 10, SPACE, THETA, (qid,)
            )
            assert res == brute_force_topk(q, union_datasets, 10, frozenset([qid]))

    @pytest.mark.parametrize("delta", [0, 5])
    def test_coverage_equals_driver_sg(
        self, spark, dist_index, union_datasets, query_ids, delta
    ):
        groot, summaries, paths = dist_index
        qid = query_ids[2]
        q = union_datasets[qid]
        ref = SGCoverage(union_datasets, THETA).search(
            query_node_from_cells(q, THETA), delta, 8, frozenset([qid])
        )
        got = spark_ops.distributed_coverage_search(
            spark, groot, summaries, paths, q, delta, 8, SPACE, THETA, (qid,)
        )
        assert got == ref

    def test_query_outside_all_sources(self, spark, dist_index):
        groot, summaries, paths = dist_index
        # A cell in the far south Pacific where no synthetic source lives.
        from repro.grid import cell_ids_np

        q = cell_ids_np(np.array([-140.0]), np.array([-60.0]), SPACE, THETA)
        res = spark_ops.distributed_overlap_search(
            spark, groot, summaries, paths, q, 10, SPACE, THETA
        )
        assert res == []


def _jobs_run(spark, group, call):
    """(call(), number of Spark jobs it ran), counted under a job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


class TestSearchRounds:
    def test_overlap_is_one_job(self, spark, dist_index, union_datasets, query_ids):
        groot, summaries, paths = dist_index
        qid = query_ids[0]
        q = union_datasets[qid]
        res, jobs = _jobs_run(
            spark,
            "test-ojsp-round",
            lambda: spark_ops.distributed_overlap_search(
                spark, groot, summaries, paths, q, 10, SPACE, THETA, (qid,)
            ),
        )
        assert res and jobs == 1

    def test_coverage_is_one_job_per_round(
        self, spark, dist_index, union_datasets, query_ids
    ):
        groot, summaries, paths = dist_index
        qid = query_ids[2]
        q = union_datasets[qid]
        k = 8
        res, jobs = _jobs_run(
            spark,
            "test-cjsp-rounds",
            lambda: spark_ops.distributed_coverage_search(
                spark, groot, summaries, paths, q, 5, k, SPACE, THETA, (qid,)
            ),
        )
        # Each pick took one round; a last round may find no candidate.
        assert res and len(res) <= jobs <= min(k, len(res) + 1)


class TestDistributedEqualsDataCenter:
    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_overlap(self, spark, dist_index, center, union_datasets, query_ids, k):
        groot, summaries, paths = dist_index
        for qid in query_ids:
            q = union_datasets[qid]
            got = spark_ops.distributed_overlap_search(
                spark, groot, summaries, paths, q, k, SPACE, THETA, (qid,)
            )
            want, _ = center.overlap_search(q, k, frozenset([qid]))
            assert got == want, qid

    @pytest.mark.parametrize("delta", [0, 5, 20])
    def test_coverage(
        self, spark, dist_index, center, union_datasets, query_ids, delta
    ):
        groot, summaries, paths = dist_index
        for qid in query_ids:
            q = union_datasets[qid]
            got = spark_ops.distributed_coverage_search(
                spark, groot, summaries, paths, q, delta, 8, SPACE, THETA, (qid,)
            )
            want, _ = center.coverage_search(q, delta, 8, frozenset([qid]), strategy="merge")
            assert got == want, qid
            ids = [d for d, _ in got]
            assert is_connected_result(ids, union_datasets, q, delta, THETA), qid


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "k, empty", [(0, False), (-1, False), (10, True)], ids=["k0", "k-1", "empty-query"]
    )
    @pytest.mark.parametrize("search", ["overlap", "coverage"])
    def test_empty_answer_without_a_job(
        self, spark, dist_index, union_datasets, query_ids, search, k, empty
    ):
        groot, summaries, paths = dist_index
        qid = query_ids[0]
        q = np.empty(0, dtype=np.int64) if empty else union_datasets[qid]
        if search == "overlap":
            call = lambda: spark_ops.distributed_overlap_search(  # noqa: E731
                spark, groot, summaries, paths, q, k, SPACE, THETA, (qid,)
            )
        else:
            call = lambda: spark_ops.distributed_coverage_search(  # noqa: E731
                spark, groot, summaries, paths, q, 5, k, SPACE, THETA, (qid,)
            )
        res, jobs = _jobs_run(spark, f"test-degenerate-{search}-{k}-{empty}", call)
        assert res == [] and jobs == 0


class TestRebuild:
    def test_rebuild_into_same_dir_is_seen(
        self, spark, tmp_path, cells_sdf, union_datasets, query_ids
    ):
        """Python workers keep the sources they loaded across jobs; a
        rebuild must still be searched, not the first build."""
        out = str(tmp_path)
        qid = query_ids[0]
        q = union_datasets[qid]
        ex = frozenset([qid])
        first = spark_ops.build_distributed_index(cells_sdf, SPACE, THETA, F, out)
        # Warm the workers with the first build's sources.
        for _ in range(3):
            got = spark_ops.distributed_overlap_search(spark, *first, q, 10, SPACE, THETA, (qid,))
            assert got and got == brute_force_topk(q, union_datasets, 10, ex)

        removed = [d for d, _ in got[:3]]
        kept = {d: c for d, c in union_datasets.items() if d not in removed}
        second = spark_ops.build_distributed_index(
            cells_sdf.filter(~col("dataset_id").isin(removed)), SPACE, THETA, F, out
        )
        for _ in range(3):
            got = spark_ops.distributed_overlap_search(spark, *second, q, 10, SPACE, THETA, (qid,))
            assert got == brute_force_topk(q, kept, 10, ex)

    def test_first_build_still_answers_after_a_rebuild(
        self, spark, tmp_path, cells_sdf, union_datasets, query_ids
    ):
        """Two builds into the same directory are two independent handles:
        each answers from its own corpus, in either order."""
        out = str(tmp_path)
        qid = query_ids[0]
        q = union_datasets[qid]
        ex = frozenset([qid])
        whole = brute_force_topk(q, union_datasets, 10, ex)
        removed = [d for d, _ in whole[:3]]
        kept = {d: c for d, c in union_datasets.items() if d not in removed}
        first = spark_ops.build_distributed_index(cells_sdf, SPACE, THETA, F, out)
        second = spark_ops.build_distributed_index(
            cells_sdf.filter(~col("dataset_id").isin(removed)), SPACE, THETA, F, out
        )
        for built, corpus in [(first, union_datasets), (second, kept), (first, union_datasets)]:
            got = spark_ops.distributed_overlap_search(spark, *built, q, 10, SPACE, THETA, (qid,))
            assert got == brute_force_topk(q, corpus, 10, ex)
            cov = spark_ops.distributed_coverage_search(spark, *built, q, 5, 3, SPACE, THETA, (qid,))
            want = SGCoverage(corpus, THETA).search(query_node_from_cells(q, THETA), 5, 3, ex)
            assert cov == want
