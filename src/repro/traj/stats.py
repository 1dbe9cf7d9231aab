"""Trajectory statistics — reproduces Table II (Statistics of Trajectories).

A pure Spark-SQL aggregation over the trajectories DataFrame: bucket each
trajectory's travel distance and report counts and percentages per bucket,
exactly the rows of the paper's Table II. The aggregation is
oracle-checked against DuckDB in the tests.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, functions as F

# Bucket edges (km): the paper's D2 (Chengdu) buckets, as our synthetic city
# is Chengdu-scale.
D2_BUCKETS = [0.0, 2.0, 5.0, 10.0, 35.0]


def bucket_expr(col: str, edges: list[float]):
    """CASE expression assigning a ``(lo,hi]`` label per distance bucket."""
    e = F.when(F.col(col) <= edges[1] * 1000, f"({edges[0]:g},{edges[1]:g}]")
    for lo, hi in zip(edges[1:-1], edges[2:]):
        e = e.when(
            (F.col(col) > lo * 1000) & (F.col(col) <= hi * 1000), f"({lo:g},{hi:g}]"
        )
    return e.otherwise(f">{edges[-1]:g}")


def distance_table(traj_df: DataFrame, edges: list[float] = D2_BUCKETS) -> DataFrame:
    """Table II rows: bucket, n_trajectories, percentage."""
    total = traj_df.count()
    return (
        traj_df.withColumn("bucket", bucket_expr("dist_m", edges))
        .groupBy("bucket")
        .agg(F.count("*").alias("n_trajectories"))
        .withColumn("percentage", F.round(F.col("n_trajectories") / F.lit(total) * 100, 1))
    )


def distance_table_pdf(traj_df: DataFrame, edges: list[float] = D2_BUCKETS) -> pd.DataFrame:
    """Collected, bucket-ordered pandas view for printing in jobs/EXPERIMENTS."""
    order = [f"({lo:g},{hi:g}]" for lo, hi in zip(edges[:-1], edges[1:])] + [f">{edges[-1]:g}"]
    pdf = distance_table(traj_df, edges).toPandas()
    pdf["order"] = pdf["bucket"].map({b: i for i, b in enumerate(order)})
    return pdf.sort_values("order").drop(columns="order").reset_index(drop=True)
