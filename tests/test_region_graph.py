"""Tests for region-graph construction (Sec. IV-B) and Table IV stats."""
import numpy as np
import pytest

from repro.core.clustering import bottom_up_clustering
from repro.core.popularity import edge_popularity_array
from repro.core.region_graph import (
    _convex_hull,
    _segments,
    build_region_graph,
    decompose_trajectory,
    region_hull_stats,
    region_size_table,
    region_top_types,
)
from repro.roadnet.generator import make_city
from repro.traj.generator import generate_trajectories, trajectories_df


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=20, cell_m=250.0, zone_cells=5, seed=7)


@pytest.fixture(scope="module")
def built(city, spark):
    trajs = generate_trajectories(city, n=150, n_drivers=15, seed=11)
    traj_df = trajectories_df(spark, trajs)
    pop = edge_popularity_array(traj_df, city.net, spark)
    regions = bottom_up_clustering(city.net, pop)
    rg = build_region_graph(spark, city.net, regions, traj_df)
    return trajs, regions, rg


# -- decomposition unit tests ----------------------------------------------
def test_segments_basic():
    assert _segments(np.array([0, 0, 1, 1, 1, 2])) == [(0, 0, 1), (1, 2, 4), (2, 5, 5)]


def test_segments_skips_uncovered():
    assert _segments(np.array([-1, 3, 3, -1, -1, 4])) == [(3, 1, 2), (4, 5, 5)]


def test_segments_revisit():
    assert _segments(np.array([0, 1, 0])) == [(0, 0, 0), (1, 1, 1), (0, 2, 2)]


def test_decompose_pairs_and_paths():
    # Path visits regions 0,0,1,2 over vertices 10..13.
    vr = np.full(20, -1)
    vr[10] = vr[11] = 0
    vr[12] = 1
    vr[13] = 2
    pairs, inner, centers = decompose_trajectory([10, 11, 12, 13], vr)
    assert ((0, 1, [11, 12]) in pairs) and ((0, 2, [11, 12, 13]) in pairs) and ((1, 2, [12, 13]) in pairs)
    assert inner == [(0, [10, 11])]
    assert (0, 10) in centers and (0, 11) in centers and (1, 12) in centers


def test_decompose_m_regions_pair_count():
    """m distinct regions yield m(m-1)/2 region pairs (paper's bound)."""
    vr = np.arange(6)  # vertex i in region i
    pairs, _, _ = decompose_trajectory([0, 1, 2, 3, 4, 5], vr)
    assert len(pairs) == 15


def test_decompose_dedupes_revisited_pairs():
    vr = np.array([0, 1, 0, 1])
    pairs, _, _ = decompose_trajectory([0, 1, 2, 3], vr)
    keys = [(a, b) for a, b, _ in pairs]
    assert len(keys) == len(set(keys))


# -- assembled region graph -------------------------------------------------
def test_t_edge_paths_are_contiguous(city, built):
    _, _, rg = built
    t_edges = [e for e in rg.edges.values() if e.kind == "T"]
    assert t_edges, "expected trajectory-built region edges"
    for e in t_edges[:25]:
        assert e.paths
        for path, cnt in e.paths:
            assert cnt >= 1
            city.net.path_edges(path)  # contiguity


def test_t_edge_paths_connect_their_regions(city, built):
    _, _, rg = built
    for (a, b), e in list(rg.edges.items())[:40]:
        if e.kind != "T":
            continue
        for path, _ in e.paths[:3]:
            ra, rb = rg.vertex_region[path[0]], rg.vertex_region[path[-1]]
            assert {int(ra), int(rb)} == {a, b}


def test_region_graph_connected_after_b_edges(built):
    """The BFS completion must leave no disconnected region (Sec. IV-B)."""
    from collections import deque

    _, regions, rg = built
    n = rg.n_regions
    adj = {i: set() for i in range(n)}
    for (a, b) in rg.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    dq = deque([0])
    while dq:
        u = dq.popleft()
        for x in adj[u]:
            if x not in seen:
                seen.add(x)
                dq.append(x)
    assert seen == set(range(n))


def test_b_edges_have_no_paths_initially(built):
    _, _, rg = built
    for e in rg.edges.values():
        if e.kind == "B":
            assert e.paths == [] and e.pref is None


def test_transfer_centers_in_their_region(built):
    _, _, rg = built
    for rid, centers in enumerate(rg.transfer_centers):
        assert centers, "every region needs at least one transfer center"
        for v in centers:
            assert rg.vertex_region[v] == rid


def test_inner_paths_stay_inside_region(built):
    _, _, rg = built
    checked = 0
    for rid, paths in rg.inner_paths.items():
        for path, cnt in paths[:3]:
            assert (rg.vertex_region[np.asarray(path)] == rid).all()
            checked += 1
    assert checked > 0


def test_region_graph_independent_of_shuffle_partitions(city, built, spark):
    """Payloads and inner paths come back in one total order, (−count,
    length, path), whatever the Spark partitioning: the first-listed path
    wins popularity ties when routing, and the per-edge cap cuts the list."""
    trajs, regions, _ = built
    traj_df = trajectories_df(spark, trajs)

    def state(rg):
        return (
            [(k, e.kind, e.paths) for k, e in sorted(rg.edges.items())],
            sorted(rg.inner_paths.items()),
            rg.transfer_centers,
        )

    old = spark.conf.get("spark.sql.shuffle.partitions")
    states = []
    try:
        for n in (1, 3, 64):
            spark.conf.set("spark.sql.shuffle.partitions", str(n))
            states.append(state(build_region_graph(spark, city.net, regions, traj_df)))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)
    assert states[0] == states[1] == states[2]


def test_top_types_valid(city, built):
    _, _, rg = built
    for tps in rg.top_types:
        assert 1 <= len(tps) <= 2
        assert all(0 <= t <= 5 for t in tps)


def test_region_top_types_direct(city):
    tps = region_top_types(city.net, np.array([0, 1, 2]), k=2)
    assert len(tps) >= 1


# -- convex hulls / Table IV ------------------------------------------------
def test_convex_hull_square():
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    hull = _convex_hull(pts)
    assert len(hull) == 4


def test_convex_hull_collinear():
    pts = np.array([[0.0, 0], [1, 1], [2, 2]])
    assert len(_convex_hull(pts)) <= 2


def test_hull_stats_known_square(city):
    """A 3×3 block of lattice vertices has ~(2·cell)² hull area."""
    n = city.grid_n
    block = [r * n + c for r in range(5, 8) for c in range(5, 8)]
    stats = region_hull_stats(city.net, [np.array(block)])
    expect = (2 * city.cell_m / 1000) ** 2  # km²... area in km²
    assert stats.area_km2[0] == pytest.approx(expect, rel=0.5)
    assert stats.diam_km[0] == pytest.approx(np.sqrt(2) * 2 * city.cell_m / 1000, rel=0.5)


def test_region_size_table(city, built):
    _, _, rg = built
    tbl = region_size_table(city.net, rg.region_vertices)
    assert tbl.n_regions.sum() == rg.n_regions
    assert abs(tbl.pct.sum() - 100.0) < 1.0
    # Most regions should be small (paper: >70% under 2 km²).
    assert tbl.iloc[0].n_regions >= 0.5 * rg.n_regions
