"""Shared spark-submit plumbing for the table/figure jobs.

Every job reproduces one table of EXPERIMENTS.md. The *bench* scale is
the default (the "D2-like" configuration recorded there); ``--scale
test`` runs the same job at unit-test scale for a quick smoke.
"""
from __future__ import annotations

import os
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SRC = os.path.join(_ROOT, "src")
# The repo root holds conftest.py; src/ holds the package. Spark's Python
# workers are separate processes and find the package through PYTHONPATH,
# which they inherit from this process via the JVM.
sys.path[:0] = [_ROOT, _SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ.setdefault("SPARK_DRIVER_MEM", "8g")
import conftest  # noqa: F401  — sets PYSPARK_SUBMIT_ARGS before the JVM launches

from pyspark.sql import SparkSession

from repro.roadnet.generator import City, make_city
from repro.traj.generator import Trajectory, generate_trajectories, split_train_test

SCALES = {
    # grid_n, cell_m, zone_cells, n_traj, n_drivers, alpha, sigma
    "test": dict(grid_n=20, cell_m=250.0, zone_cells=5, n=400, n_drivers=30),
    "bench": dict(grid_n=32, cell_m=300.0, zone_cells=6, n=1800, n_drivers=60),
}
SEED_CITY, SEED_TRAJ, SEED_SPLIT = 7, 11, 13
LOCAL_COST_SIGMA = 0.15
DEMAND_ALPHA = 1.0


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def build_world(scale: str = "bench") -> tuple[City, list[Trajectory], list[Trajectory]]:
    """Deterministic city + train/test trajectory split for a scale."""
    cfg = SCALES[scale]
    city = make_city(
        grid_n=cfg["grid_n"], cell_m=cfg["cell_m"], zone_cells=cfg["zone_cells"],
        seed=SEED_CITY, local_cost_sigma=LOCAL_COST_SIGMA,
    )
    trajs = generate_trajectories(
        city, n=cfg["n"], n_drivers=cfg["n_drivers"], seed=SEED_TRAJ, alpha=DEMAND_ALPHA
    )
    train, test = split_train_test(trajs, test_frac=0.2, seed=SEED_SPLIT)
    return city, train, test


def scale_from_argv() -> str:
    return "test" if "--scale" in sys.argv and "test" in sys.argv else "bench"
