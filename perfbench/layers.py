"""Per-layer timing and Spark job accounting, wrapped around the program's layers.

The program carries no tracing code. A traced run replaces module
attributes (``repro.core.pipeline.learn_t_edge_preferences``,
``repro.core.routing.dijkstra``, ``RoadNetwork.path_edges``, ...) with
timing wrappers for the length of a ``with`` block and restores them on
exit. Stages that run Spark jobs also get their own Spark job group, and
their job and task counts are read back through
``SparkContext.statusTracker()``.
"""
from __future__ import annotations

import contextlib
import functools
import time
from unittest import mock

RUN_GROUP = "perfbench"


class Layers:
    """Busy seconds per layer name, and the last result of each wrapped call."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.results: dict[str, object] = {}

    def add(self, name: str, dt: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextlib.contextmanager
    def span(self, name: str, sc=None):
        """Time a block; with ``sc``, its Spark jobs go to job group ``name``."""
        if sc is not None:
            sc.setJobGroup(name, name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)
            if sc is not None:
                sc.setJobGroup(RUN_GROUP, RUN_GROUP)

    def wrap(self, owner, attr: str, name: str, sc=None):
        """A patcher replacing ``owner.attr`` by a timed call kept under ``name``.

        The last return value is kept in ``results[name]``.
        """
        orig = getattr(owner, attr)

        def timed(*args, **kwargs):
            with self.span(name, sc):
                out = orig(*args, **kwargs)
            self.results[name] = out
            return out

        # updated=() because ``orig`` may be a class (L2RRouter).
        functools.update_wrapper(timed, orig, updated=())
        return mock.patch.object(owner, attr, timed)


def build_patches(layers: Layers, sc) -> list:
    """Patchers for every stage of ``repro.core.pipeline.build_l2r``.

    Top-level stages are replaced where the pipeline looks them up, so the
    wrappers see exactly the calls the build makes.
    """
    from repro.core import pipeline, region_graph, transfer

    stages = {
        "trajectories_df": ("traj.generator.trajectories_df", False),
        "edge_popularity_array": ("core.popularity", True),
        "bottom_up_clustering": ("core.clustering", False),
        "build_region_graph": ("core.region_graph", True),
        "learn_t_edge_preferences": ("core.preference", True),
        "transfer_b_edge_preferences": ("core.transfer", True),
        "apply_preferences": ("core.apply_prefs", True),
        "L2RRouter": ("core.routing.init", False),
    }
    patches = [layers.wrap(pipeline, attr, name, sc if spark else None) for attr, (name, spark) in stages.items()]
    patches += [
        layers.wrap(region_graph, "aggregate_t_edges", "core.region_graph.t_edges"),
        layers.wrap(region_graph, "add_b_edges", "core.region_graph.b_edges"),
        layers.wrap(transfer, "run_transfer", "core.transfer.run"),
        layers.wrap(transfer, "pairwise_similarity", "core.transfer.pairwise_similarity"),
    ]
    return patches


SPARK_LAYERS = ["core.popularity", "core.region_graph", "core.preference", "core.transfer", "core.apply_prefs", "eval.harness"]


def spark_counts(sc, group: str) -> dict[str, int]:
    """Jobs, completed tasks and failed tasks of one Spark job group."""
    st = sc.statusTracker()
    jobs = tasks = failed = 0
    for jid in st.getJobIdsForGroup(group):
        info = st.getJobInfo(jid)
        if info is None:
            continue
        jobs += 1
        for sid in info.stageIds:
            stage = st.getStageInfo(sid)
            if stage is not None:
                tasks += stage.numCompletedTasks
                failed += stage.numFailedTasks
    return {"jobs": jobs, "tasks": tasks, "failed_tasks": failed}


class RouteProbe:
    """Kernel and ``path_edges`` time inside one online L2R query."""

    def __init__(self):
        self.start(-1, -1)

    def start(self, s: int, d: int) -> None:
        self.od = (s, d)
        self.kernel_s = self.path_edges_s = 0.0
        self.calls = 0
        self.od_hit = False

    def patches(self) -> list:
        from repro.core import routing
        from repro.roadnet.model import RoadNetwork

        kernel, path_edges = routing.dijkstra, RoadNetwork.path_edges

        def traced_kernel(net, src, dst, w):
            t0 = time.perf_counter()
            try:
                return kernel(net, src, dst, w)
            finally:
                self.kernel_s += time.perf_counter() - t0
                self.calls += 1
                self.od_hit |= (src, dst) == self.od

        def traced_path_edges(net, path):
            t0 = time.perf_counter()
            try:
                return path_edges(net, path)
            finally:
                self.path_edges_s += time.perf_counter() - t0

        return [
            mock.patch.object(routing, "dijkstra", traced_kernel),
            mock.patch.object(RoadNetwork, "path_edges", traced_path_edges),
        ]
