"""End-to-end distributed run: build DITS per source in Spark tasks, then
answer OJSP and CJSP queries through the distributed operators.

    spark-submit jobs/distributed_search.py

Prints, per query: the distributed top-k, the SQL-operator top-k (must
match) and the CJSP greedy picks.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pandas as pd
from pyspark.sql import SparkSession

from repro import spark_ops
from repro.cells import cell_sets_df, cell_sets_from_pdf
from repro.params import DELTA_DEFAULT, K_DEFAULT, THETA_DEFAULT, F_DEFAULT
from repro.synth_spatial import SPACE, generate_corpus_pdf, pick_queries


def main(spark: SparkSession) -> None:
    theta, f, k, delta = THETA_DEFAULT, F_DEFAULT, K_DEFAULT, DELTA_DEFAULT
    pdf = generate_corpus_pdf(scale=0.01, max_points_per_dataset=150)
    points = spark.createDataFrame(pdf)
    cells = cell_sets_df(points, SPACE, theta).cache()
    union = {d: c for s in cell_sets_from_pdf(pdf, SPACE, theta).values() for d, c in s.items()}
    groot, summaries, sources = spark_ops.build_distributed_index(cells, SPACE, theta, f)
    print(f"built {len(summaries)} per-source DITS-L indexes in Spark tasks")
    for qid in pick_queries(pdf, 3):
        q = union[qid]
        top = spark_ops.distributed_overlap_search(
            spark, groot, summaries, sources, q, k, SPACE, theta, (qid,)
        )
        qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
        sql_top = [
            (int(r["dataset_id"]), int(r["overlap"]))
            for r in spark_ops.overlap_topk_sql(spark, qdf, cells, k, (qid,)).collect()
        ]
        assert top == sql_top, "distributed index result != SQL operator result"
        cov = spark_ops.distributed_coverage_search(
            spark, groot, summaries, sources, q, delta, k, SPACE, theta, (qid,)
        )
        print(f"query {qid}: top-{k} overlap {top[:3]}..., coverage picks {cov[:3]}...")
    print("distributed search OK")


if __name__ == "__main__":
    main(
        SparkSession.builder.appName("repro-distributed-search")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
