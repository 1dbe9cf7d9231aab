"""One benchmark run: world, offline L2R build, Fig. 10 fan-out and online stream.

Every workload runs the same three phases on the same world:

1. the offline ``build_l2r`` over the training trips (Spark ``local[2]``);
2. ``eval.harness.evaluate`` with all five routers over the workload's
   queries, then the Fig. 10/11/12 tables (Spark fan-out, 2 workers);
3. after Spark is stopped, a closed loop with one client: each query is
   answered by L2R and then by Fastest in this process (Fig. 12 latency).

The workloads differ in their queries, which --seed draws (``make_queries``).
"""
from __future__ import annotations

import contextlib
import os
import pickle
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import host
import layers
from repro.baselines.costcentric import FastestRouter, ShortestRouter
from repro.baselines.dom import DomRouter
from repro.baselines.trip import TripRouter
from repro.core.pipeline import build_l2r
from repro.core.routing import L2RRouter
from repro.eval import harness
from repro.eval.similarity import psim
from repro.oracle import assert_equivalent
from repro.roadnet.generator import make_city
from repro.roadnet.model import COSTS, ROAD_TYPES
from repro.roadnet.shortest_path import dijkstra, preference_dijkstra
from repro.traj.generator import generate_trajectories, split_train_test
from repro.traj.stats import D2_BUCKETS

# "test" is the world of jobs/common.py at --scale test: SCALES["test"], its
# σ and demand α, and its city, trip and split seeds. The world is the same
# in every run, and --seed draws only the queries: the build's work moves
# too much with the world (the T-edge payload count spreads by 30 % of its
# median over ten seed-drawn worlds, and by 11 % when only the split is
# drawn) for a bounded build time. "tiny" is for the smoke tests.
SCALES = {
    "test": dict(grid_n=20, cell_m=250.0, zone_cells=5, n=400, n_drivers=30),
    "tiny": dict(grid_n=8, cell_m=250.0, zone_cells=4, n=60, n_drivers=6),
}
SEED_CITY, SEED_TRAJ, SEED_SPLIT = 7, 11, 13
LOCAL_COST_SIGMA = 0.15
DEMAND_ALPHA = 1.0
TEST_FRAC = 0.2
SETUP_REPS = 3
# Queries per --second of run time. At --seconds 5 on a 4-core host the
# stream serves for about 4 s and the fan-out takes about 2.5 s. The stream
# gets the longer window: its latencies follow the shared host's load,
# which drifts over seconds.
STREAM_QUERIES_PER_S = 375
FANOUT_QUERIES_PER_S = 55
# trained_od draws its queries from a pool this many times their number.
POOL_FACTOR = 1.1
TRACE_OVERHEAD_QUERIES = 300
# The stream runs host.reference_search once every REF_EVERY queries, and
# scales each window of SCALE_WINDOW queries by the reference's median in it.
REF_EVERY = 4
SCALE_WINDOW = 100
REPLAY_PATHS = 60

# Two task slots, not one per core. The shared host's parallel capacity
# swings between about 1 and 4 cores' worth (host.parallelism) over tens
# of seconds, and 4 tasks plus the JVM's and the Spark driver's threads time
# the scheduler more than the program. Two slots built as fast as four on
# that host: Step 1's parallel efficiency is low (core.preference.parallel_eff).
SPARK_MASTER = "local[2]"
# The tests' session settings (conftest.py).
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
}
ROUTERS = ["L2R", "Shortest", "Fastest", "Dom", "TRIP"]
CASES = ["same_region", "direct_t", "direct_b", "multi_hop", "case2"]
CATEGORY_SQL = """
    SELECT router, category, ROUND(AVG(sim1), 3) AS acc_eq1,
           ROUND(AVG(sim4), 3) AS acc_eq4, COUNT(*) AS n
    FROM t GROUP BY router, category
"""


def make_world_city(scale: str):
    cfg = SCALES[scale]
    return make_city(
        grid_n=cfg["grid_n"], cell_m=cfg["cell_m"], zone_cells=cfg["zone_cells"],
        seed=SEED_CITY, local_cost_sigma=LOCAL_COST_SIGMA,
    )


def make_world(scale: str):
    cfg = SCALES[scale]
    city = make_world_city(scale)
    trajs = generate_trajectories(city, n=cfg["n"], n_drivers=cfg["n_drivers"], seed=SEED_TRAJ, alpha=DEMAND_ALPHA)
    train, _ = split_train_test(trajs, test_frac=TEST_FRAC, seed=SEED_SPLIT)
    return city, train


def make_queries(workload: str, scale: str, city, seed: int, n: int):
    cfg = SCALES[scale]
    rng = np.random.default_rng(seed)
    if workload == "trained_od":
        # The world's generator call drawn further: same zone-pair ranking,
        # trips beyond the first cfg["n"] (which hold every training trip).
        pool = int(POOL_FACTOR * n)
        more = generate_trajectories(city, n=cfg["n"] + pool, n_drivers=cfg["n_drivers"], seed=SEED_TRAJ, alpha=DEMAND_ALPHA)
        return [more[cfg["n"] + int(i)] for i in rng.choice(pool, size=n, replace=False)]
    return generate_trajectories(city, n=n, n_drivers=cfg["n_drivers"], seed=int(rng.integers(2**32)), alpha=0.0)


# Run by start_queries in a child process: the world's city is fixed, so the
# child makes it again rather than receiving it.
_QUERIES_MAIN = (
    "import pickle, sys, workload as w; wl, scale, seed, n, out = sys.argv[1:]; "
    "qs = w.make_queries(wl, scale, w.make_world_city(scale), int(seed), int(n)); "
    "open(out, 'wb').write(pickle.dumps(qs, protocol=pickle.HIGHEST_PROTOCOL))"
)


def start_queries(workload: str, scale: str, seed: int, n: int, out: str) -> subprocess.Popen:
    """Start a process that writes ``make_queries(...)`` to the file ``out``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-c", _QUERIES_MAIN, workload, scale, str(seed), str(n), out], env=env)


def finish_queries(proc: subprocess.Popen, out: str) -> list:
    if proc.wait(timeout=120) != 0:
        raise RuntimeError(f"query generation exited with code {proc.returncode}")
    with open(out, "rb") as f:
        return pickle.load(f)


def make_routers(city, rg, train) -> dict:
    return {
        "L2R": L2RRouter(net=city.net, rg=rg, peak=False),
        "Shortest": ShortestRouter(city.net),
        "Fastest": FastestRouter(city.net),
        "Dom": DomRouter(city.net).fit(train),
        "TRIP": TripRouter(city.net).fit(train),
    }


# --------------------------------------------------------------------------
# Spark session
# --------------------------------------------------------------------------
def start_spark(tmp: str):
    # Spark's scratch space goes to ``tmp``; SPARK_LOCAL_DIRS outranks spark.local.dir.
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {SPARK_MASTER} --driver-memory 2g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").config(map=SPARK_CONF).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.sparkContext.setJobGroup(layers.RUN_GROUP, layers.RUN_GROUP)
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# --------------------------------------------------------------------------
# Phases
# --------------------------------------------------------------------------
class Run:
    """Metrics, failures and digests of one run."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def put(self, name: str, value, n: int = 1) -> None:
        self.metrics[name] = (float(value), int(n))

    def check(self, attempted: int, failed: int, what: str) -> None:
        attempted, failed = int(attempted), int(failed)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} of {attempted} failed: {what}")

    def error(self) -> None:
        if len(self.errors) < 20:
            self.errors.append(traceback.format_exc(limit=3))


def _ms(xs) -> float:
    return 1000.0 * statistics.median(xs) if xs else 0.0


def build(run: Run, lay: layers.Layers, spark, city, train, trace: bool):
    with contextlib.ExitStack() as stack:
        if trace:
            for p in layers.build_patches(lay, spark.sparkContext):
                stack.enter_context(p)
        t0 = time.perf_counter()
        arts = build_l2r(spark, city, train)
        t1 = time.perf_counter()
    run.put("build.wall_s", t1 - t0)
    rg = arts.router.rg
    run.check(1, int(checks.bad_t_edge_prefs(rg) > 0), "T-edge preference missing or outside COSTS")
    run.digests["prefs_digest"] = checks.prefs_digest(arts.prefs)
    run.digests["rg_digest"] = checks.rg_digest(rg)
    return arts, (t0, t1)


def fan_out(run: Run, lay: layers.Layers, spark, routers, queries, net, vr, trace: bool):
    """Fig. 10/11/12: the harness fan-out, then the three tables. Returns the rows and the timed interval."""
    payload = {"routers": routers, "net": net.to_bundle(), "vr": vr}  # what evaluate broadcasts
    run.put("eval.harness.broadcast_mb", len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6)
    with lay.span("eval.harness", spark.sparkContext if trace else None):
        t0 = time.perf_counter()
        res = harness.evaluate(spark, routers, queries, net, vr).cache()
        rows = res.toPandas()
        t1 = time.perf_counter()
        harness.accuracy_by_bucket(res, D2_BUCKETS).toPandas()
        by_cat = harness.accuracy_by_category(res)
        by_cat.toPandas()
        harness.runtime_table(res).toPandas()
        t2 = time.perf_counter()
    run.put("fanout.eval_wall_qps", len(queries) / (t2 - t0), len(queries))
    run.put("eval.harness.fanout_s", t1 - t0)
    run.put("eval.harness.aggregate_s", t2 - t1)
    for name in ROUTERS:
        ms = rows.loc[rows.router == name, "ms"].to_numpy()
        run.put(f"eval.harness.route_ms.{name}", float(np.median(ms)) if len(ms) else 0.0, len(ms))
    expected = len(ROUTERS) * len(queries)
    run.check(expected, max(0, expected - len(rows)), "fan-out answers missing")
    try:
        assert_equivalent(by_cat, CATEGORY_SQL, t=rows)
        oracle_failed = 0
    except AssertionError:
        run.error()
        oracle_failed = 1
    run.check(1, oracle_failed, "accuracy_by_category differs from DuckDB")
    res.unpersist()
    return rows, (t0, t2)


def _serve(l2r, fastest, queries, run: Run, probe: layers.RouteProbe | None = None):
    """Closed loop, one client: L2R then Fastest per query, and the reference search every REF_EVERY queries."""
    lat_l2r, lat_fast, answers, probes, refs = [], [], [], [], []
    for i, q in enumerate(queries):
        if i % REF_EVERY == 0:
            refs.append(host.reference_search())
        s, d = int(q.path[0]), int(q.path[-1])
        if probe is not None:
            probe.start(s, d)
        t0 = time.perf_counter()
        try:
            p = l2r.route(s, d, peak=q.peak, driver=q.driver)
        except Exception:
            p = None
            run.error()
        t1 = time.perf_counter()
        if probe is not None:
            probes.append((probe.kernel_s, probe.calls, probe.path_edges_s, probe.od_hit))
        t2 = time.perf_counter()
        try:
            f = fastest.route(s, d, peak=q.peak, driver=q.driver)
        except Exception:
            f = None
            run.error()
        lat_l2r.append(t1 - t0)
        lat_fast.append(time.perf_counter() - t2)
        answers.append((p, f))
    return lat_l2r, lat_fast, answers, probes, refs


def _scale(lat: list[float], refs: list[float]) -> list[float]:
    """Latencies at the reference speed: each window's latencies × REF_US ÷ its reference median.

    The shared host's speed drifts by 20 to 40 % over tens of seconds, and the
    program's searches and the reference slow together, so the scaled
    latencies hold steady where the wall-clock ones do not.
    """
    per = SCALE_WINDOW // REF_EVERY
    out = []
    for k in range(0, len(lat), SCALE_WINDOW):
        ref_s = statistics.median(refs[k // REF_EVERY : k // REF_EVERY + per])
        out += [t * host.REF_US * 1e-6 / ref_s for t in lat[k : k + SCALE_WINDOW]]
    return out


def _case(rg, s: int, d: int) -> str:
    """Sec. VI case of a query, as L2RRouter.route dispatches it."""
    rs, rd = int(rg.vertex_region[s]), int(rg.vertex_region[d])
    if rs < 0 or rd < 0:
        return "case2"
    if rs == rd:
        return "same_region"
    e = rg.edge(rs, rd)
    if e is None:
        return "multi_hop"
    return "direct_t" if e.kind == "T" else "direct_b"


def _trace_overhead(l2r, queries) -> float:
    """Traced ÷ untraced L2R time, minus 1, over the same queries.

    Each query runs once each way, back to back and in alternating order,
    so that both sides see the same host load.
    """
    probe = layers.RouteProbe()
    plain = traced = 0.0
    for i, q in enumerate(queries):
        s, d = int(q.path[0]), int(q.path[-1])
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            with contextlib.ExitStack() as stack:
                if is_traced:
                    for p in probe.patches():
                        stack.enter_context(p)
                t0 = time.perf_counter()
                try:
                    l2r.route(s, d)
                except Exception:
                    pass  # counted when the stream serves the same query
                dt = time.perf_counter() - t0
            if is_traced:
                traced += dt
            else:
                plain += dt
    return traced / plain - 1.0


def stream(run: Run, routers, queries, trace: bool):
    l2r, fastest = routers["L2R"], routers["Fastest"]
    net = l2r.net
    if trace:
        head = queries[:TRACE_OVERHEAD_QUERIES]
        run.put("trace.overhead", _trace_overhead(l2r, head), len(head))
        probe = layers.RouteProbe()
        with contextlib.ExitStack() as stack:
            for p in probe.patches():
                stack.enter_context(p)
            wall_l2r, wall_fast, answers, probes, refs = _serve(l2r, fastest, queries, run, probe)
    else:
        wall_l2r, wall_fast, answers, probes, refs = _serve(l2r, fastest, queries, run)
    n = len(queries)
    lat_l2r, lat_fast = _scale(wall_l2r, refs), _scale(wall_fast, refs)
    run.put("l2r_p50_ms", _ms(lat_l2r), n)
    run.put("l2r_p99_ms", 1000.0 * float(np.percentile(lat_l2r, 99)), n)
    run.put("l2r_qps", n / sum(lat_l2r), n)
    run.put("fastest_p50_ms", _ms(lat_fast), n)
    run.put("host.ref_us", 1e6 * statistics.median(refs), len(refs))
    run.put("stream.l2r_p50_wall_ms", _ms(wall_l2r), n)
    run.put("stream.l2r_wall_qps", n / sum(wall_l2r), n)
    run.put("stream.fastest_p50_wall_ms", _ms(wall_fast), n)

    bad, sims, psim_s = 0, [], 0.0
    for q, (p, f) in zip(queries, answers):
        s, d = int(q.path[0]), int(q.path[-1])
        bad += (not checks.route_ok(net, s, d, p)) + (not checks.route_ok(net, s, d, f))
        t0 = time.perf_counter()
        sims.append(psim(net, [int(v) for v in q.path], p) if p else 0.0)
        psim_s += time.perf_counter() - t0
    run.check(2 * n, bad, "online route is not a valid s→d path")
    run.put("l2r_acc", float(np.mean(sims)), n)
    run.put("eval.similarity.psim_us", psim_s / n * 1e6, n)
    run.put("core.routing.eq_fastest_share", np.mean([p is not None and p == f for p, f in answers]), n)
    run.put("queries.repeat_source_share", 1.0 - len({int(q.path[0]) for q in queries}) / n, n)
    run.digests["routes_digest"] = checks.routes_digest([p for p, _ in answers])

    cases = [_case(l2r.rg, int(q.path[0]), int(q.path[-1])) for q in queries]
    for c in CASES:
        lat = [t for t, qc in zip(lat_l2r, cases) if qc == c]
        run.put(f"core.routing.case.{c}.share", len(lat) / n, n)
        run.put(f"core.routing.case.{c}.p50_ms", _ms(lat), len(lat))
    if probes:
        kernel_s, calls, path_edges_s, od_hit = (np.array(x, dtype=float) for x in zip(*probes))
        ms_per_query = 1000.0 * float(np.mean(wall_l2r))
        run.put("core.routing.ms_per_query", ms_per_query, n)
        run.put("roadnet.shortest_path.ms_per_query", 1000.0 * kernel_s.mean(), n)
        run.put("roadnet.shortest_path.calls_per_query", calls.mean(), n)
        run.put("roadnet.shortest_path.od_search_share", od_hit.mean(), n)
        run.put("roadnet.model.path_edges_ms", 1000.0 * path_edges_s.mean(), n)
        run.put("core.routing.self_ms", ms_per_query - 1000.0 * (kernel_s.mean() + path_edges_s.mean()), n)
    return sims, answers


def cross_check(run: Run, rows, queries, net, sims, answers) -> None:
    """The fan-out's L2R and Fastest answers score as the stream's do."""
    driver = {}
    for q, sim, (_, f) in zip(queries, sims, answers):
        driver[(q.traj_id, "L2R")] = sim
        driver[(q.traj_id, "Fastest")] = psim(net, [int(v) for v in q.path], f) if f else 0.0
    mine = rows[rows.router.isin(["L2R", "Fastest"])]
    bad = sum(abs(driver.get((int(t), r), -1.0) - s) > 1e-12 for t, r, s in zip(mine.traj_id, mine.router, mine.sim1))
    run.check(len(mine), bad, "fan-out answer scores differ from the stream's")


def kernel_replay(net, rg, peak: bool = False):
    """µs per Step-1 search call, replayed in this process over a fixed sample.

    Step 1 runs 3 plain searches (one per master cost) and 6 Alg. 2
    searches (one per slave road type, under the chosen master) per T-edge
    payload path.
    """
    weights = {c: net.weights(c, peak=peak) for c in COSTS}
    paths = [(e.pref, p) for _, e in sorted(rg.edges.items()) if e.kind == "T" for p, _ in e.paths]
    sample = paths[:: max(1, len(paths) // REPLAY_PATHS)][:REPLAY_PATHS]
    plain = pref = 0.0
    for pr, p in sample:
        s, d = int(p[0]), int(p[-1])
        t0 = time.perf_counter()
        for c in COSTS:
            dijkstra(net, s, d, weights[c])
        t1 = time.perf_counter()
        for rt in range(len(ROAD_TYPES)):
            preference_dijkstra(net, s, d, weights[pr[0] if pr else "TT"], rt)
        plain += t1 - t0
        pref += time.perf_counter() - t1
    n = max(1, len(sample))
    return plain / (n * len(COSTS)) * 1e6, pref / (n * len(ROAD_TYPES)) * 1e6, len(sample)


def build_layers(run: Run, lay: layers.Layers, spark, rg, build_s: float) -> None:
    """Per-stage times and Spark counts of the traced build, plus the build's counts."""
    sec = lay.seconds
    _, solve_s = lay.results["core.transfer.run"]
    stages = {
        "traj.generator.trajectories_df_s": sec["traj.generator.trajectories_df"],
        "core.popularity.s": sec["core.popularity"],
        "core.clustering.s": sec["core.clustering"],
        "core.region_graph.s": sec["core.region_graph"],
        "core.preference.s": sec["core.preference"],
        "core.transfer.s": sec["core.transfer"],
        "core.apply_prefs.s": sec["core.apply_prefs"],
        "core.routing.init_s": sec["core.routing.init"],
    }
    for k, v in stages.items():
        run.put(k, v)
    run.put("core.pipeline.stage_share", sum(stages.values()) / build_s)
    run.put("core.region_graph.t_edges_s", sec["core.region_graph.t_edges"])
    run.put("core.region_graph.b_edges_s", sec["core.region_graph.b_edges"])
    run.put("core.transfer.solve_s", solve_s)
    run.put("core.transfer.similarity_s", sec["core.transfer.run"] - solve_s)
    sc = spark.sparkContext
    for layer in layers.SPARK_LAYERS:
        for k, v in layers.spark_counts(sc, layer).items():
            run.put(f"{layer}.spark_{k}", v)
    run.put("core.transfer.pairs", lay.results["core.transfer.pairwise_similarity"].count())
    run.put("core.transfer.null_prefs", sum(e.kind == "B" and e.pref is None for e in rg.edges.values()))
    run.put("core.apply_prefs.paths_built", lay.results["core.apply_prefs"])
    t_edges = [e for e in rg.edges.values() if e.kind == "T"]
    payloads = [p for e in t_edges for p, _ in e.paths]
    run.put("core.region_graph.regions", rg.n_regions)
    run.put("core.region_graph.t_edges", len(t_edges))
    run.put("core.region_graph.b_edges", len(rg.edges) - len(t_edges))
    run.put("core.region_graph.payload_paths", len(payloads))
    run.put("core.region_graph.payload_sources", len({int(p[0]) for p in payloads}))
    run.put("core.preference.kernel_calls", (len(COSTS) + len(ROAD_TYPES)) * len(payloads))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, tmp: str) -> tuple[Run, dict]:
    n_stream = max(20, int(STREAM_QUERIES_PER_S * seconds))
    n_fanout = min(n_stream, max(10, int(FANOUT_QUERIES_PER_S * seconds)))
    run, lay = Run(), layers.Layers()
    phase_s: dict[str, float] = {}
    last = [time.perf_counter()]

    def lap(name: str) -> float:
        now = time.perf_counter()
        phase_s[name] = now - last[0]
        last[0] = now
        return phase_s[name]

    parallelism, nproc = host.parallelism()
    run.put("host.parallelism", parallelism, nproc)
    run.put("host.kernel_us", host.kernel_us(), 150)
    lap("host")

    # setup_s, build_s and eval_qps are scaled to the reference speed by the
    # sampler's median over their intervals, as the stream scales its
    # latencies. Their wall-clock values are per-layer metrics.
    sampler = host.Sampler(tmp)
    spark = None
    # Query generation is driver-side Python that no metric times, so a child
    # process does it while the JVM starts. The run waits for the child on
    # every way out.
    queries_file = os.path.join(tmp, "queries.pkl")
    maker = None
    try:
        world_s, tw0 = [], time.perf_counter()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            city, train = make_world(scale)
            world_s.append(time.perf_counter() - t0)
        tw1 = time.perf_counter()
        lap("world")

        maker = start_queries(workload, scale, seed, n_stream, queries_file)
        spark = start_spark(tmp)
        run.put("spark.session_s", lap("spark_session"))
        queries = finish_queries(maker, queries_file)
        lap("queries")
        sc = spark.sparkContext
        info = {
            "master": sc.master, "cores": os.cpu_count(), "default_parallelism": sc.defaultParallelism,
            "spark_conf": SPARK_CONF, "spark_version": spark.version,
            "queries": {"stream": n_stream, "fanout": n_fanout}, "phase_s": phase_s,
        }

        arts, (tb0, tb1) = build(run, lay, spark, city, train, trace)
        rg = arts.router.rg
        lap("build")
        router_s, tr0 = [], time.perf_counter()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            routers = make_routers(city, rg, train)
            router_s.append(time.perf_counter() - t0)
        tr1 = time.perf_counter()
        run.put("router_mb", len(pickle.dumps(routers["L2R"], protocol=pickle.HIGHEST_PROTOCOL)) / 1e6)
        lap("routers")

        rows, (tf0, tf1) = fan_out(run, lay, spark, routers, queries[:n_fanout], city.net, rg.vertex_region, trace)
        if trace:
            build_layers(run, lay, spark, rg, tb1 - tb0)
        failed_tasks = sum(
            layers.spark_counts(sc, g)["failed_tasks"] for g in [layers.RUN_GROUP] + (layers.SPARK_LAYERS if trace else [])
        )
        run.check(0, failed_tasks, "Spark tasks failed")
        lap("fan_out")
    finally:
        sampler.stop()
        if maker is not None:
            if maker.poll() is None:
                maker.kill()
            maker.wait()
        if spark is not None:
            stop_spark(spark)
    setup_wall = statistics.median(world_s) + statistics.median(router_s)
    run.put("setup.wall_s", setup_wall, SETUP_REPS)
    run.put("setup_s", statistics.median(world_s) * sampler.scale(tw0, tw1) + statistics.median(router_s) * sampler.scale(tr0, tr1), SETUP_REPS)
    run.put("build_s", (tb1 - tb0) * sampler.scale(tb0, tb1))
    run.put("host.ref_cpu_us", 1e6 * sampler.ref_s(tb0, tb1))
    run.put("eval_qps", run.metrics["fanout.eval_wall_qps"][0] / sampler.scale(tf0, tf1), n_fanout)
    lap("spark_stop")

    sims, answers = stream(run, routers, queries, trace)
    cross_check(run, rows, queries[:n_fanout], city.net, sims, answers)
    lap("stream")
    if trace:
        plain_us, pref_us, n_replay = kernel_replay(city.net, rg)
        run.put("roadnet.shortest_path.dijkstra_us", plain_us, n_replay * len(COSTS))
        run.put("roadnet.shortest_path.pref_dijkstra_us", pref_us, n_replay * len(ROAD_TYPES))
        n_paths = run.metrics["core.region_graph.payload_paths"][0]
        replayed_s = n_paths * (len(COSTS) * plain_us + len(ROAD_TYPES) * pref_us) / 1e6
        run.put("core.preference.parallel_eff", replayed_s / (run.metrics["core.preference.s"][0] * parallelism))
        lap("kernel_replay")
    return run, info
