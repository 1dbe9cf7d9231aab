"""Tests for Step 3 (applying preferences) and the unified L2R routing."""
import numpy as np
import pytest

from repro.core.apply_prefs import apply_preferences
from repro.core.pipeline import build_l2r
from repro.core.routing import L2RRouter, _dedupe
from repro.eval.similarity import psim
from repro.roadnet.generator import make_city
from repro.roadnet.shortest_path import dijkstra
from repro.traj.generator import generate_trajectories, split_train_test


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=20, cell_m=250.0, zone_cells=5, seed=7)


@pytest.fixture(scope="module")
def arts(city, spark):
    trajs = generate_trajectories(city, n=200, n_drivers=20, seed=11)
    train, _ = split_train_test(trajs, test_frac=0.2, seed=13)
    return build_l2r(spark, city, train)


def test_pipeline_timings_recorded(arts):
    assert set(arts.timings_s) == {"region_graph", "step1_learn", "step2_transfer", "step3_apply"}
    assert all(v >= 0 for v in arts.timings_s.values())


def test_b_edges_have_paths_after_step3(city, arts):
    rg = arts.router.rg
    b_edges = [e for e in rg.edges.values() if e.kind == "B"]
    assert b_edges
    with_paths = [e for e in b_edges if e.paths]
    # Step 3 must attach paths to the (overwhelming) majority of B-edges.
    assert len(with_paths) >= 0.8 * len(b_edges)
    for e in with_paths[:20]:
        for path, _ in e.paths[:2]:
            city.net.path_edges(path)  # contiguity


def test_b_edge_paths_touch_both_regions(arts):
    rg = arts.router.rg
    for (a, b), e in list(rg.edges.items())[:60]:
        if e.kind != "B" or not e.paths:
            continue
        path = e.paths[0][0]
        assert rg.vertex_region[path[0]] in (a, b)
        assert rg.vertex_region[path[-1]] in (a, b)


def test_dedupe():
    assert _dedupe([1, 1, 2, 2, 3, 3, 3]) == [1, 2, 3]
    assert _dedupe([5]) == [5]


@pytest.mark.parametrize("seed", range(10))
def test_route_is_valid_path(city, arts, seed):
    """L2R must return a contiguous path from s to d for arbitrary pairs."""
    g = np.random.default_rng(seed)
    s, d = map(int, g.integers(0, city.net.n_vertices, 2))
    path = arts.router.route(s, d)
    assert path[0] == s
    if s != d:
        assert path[-1] == d
        city.net.path_edges(path)  # raises if not contiguous


def test_route_same_vertex(arts):
    assert arts.router.route(42, 42) == [42]


def test_route_same_region_uses_inner_paths(city, arts):
    """For s,d inside one region covered by an inner path, L2R must return
    that trajectory path (the paper's Case 1 lookup)."""
    rg = arts.router.rg
    found = False
    for rid, paths in rg.inner_paths.items():
        for path, cnt in paths:
            if len(path) >= 3:
                s, d = path[0], path[-1]
                if rg.vertex_region[s] == rid and rg.vertex_region[d] == rid:
                    got = arts.router.route(s, d)
                    assert got[0] == s and got[-1] == d
                    found = True
                    break
        if found:
            break
    assert found, "no usable inner path in fixture"


def test_route_out_region_falls_back_to_fastest(city, arts):
    """Both endpoints uncovered and no region between: fastest path."""
    vr = arts.router.rg.vertex_region
    uncovered = np.flatnonzero(vr < 0)
    if len(uncovered) < 2:
        pytest.skip("city fully covered")
    # Adjacent uncovered vertices: the probe fastest path hits ≤1 region.
    for v in uncovered:
        nbrs, _ = city.net.neighbors(int(v))
        unc = [int(x) for x in nbrs if vr[x] < 0]
        if unc:
            s, d = int(v), unc[0]
            fastest = dijkstra(city.net, s, d, city.net.travel_time())[0]
            assert arts.router.route(s, d) == fastest
            return
    pytest.skip("no adjacent uncovered pair")


def test_region_path_greedy_reaches_destination(arts):
    """The greedy region search must find a region path between any two
    regions of the (connected) region graph."""
    rg = arts.router.rg
    n = rg.n_regions
    g = np.random.default_rng(0)
    for _ in range(15):
        rs, rd = map(int, g.integers(0, n, 2))
        rp = arts.router._region_path(rs, rd)
        assert rp is not None
        assert rp[0] == rs and rp[-1] == rd
        for a, b in zip(rp, rp[1:]):
            assert rg.edge(a, b) is not None


def test_l2r_beats_fastest_on_training_pairs(city, arts, spark):
    """Sanity: on ODs drawn from *training* trajectories (memorized paths),
    L2R should reconstruct the driver path better than Fastest."""
    from repro.baselines.costcentric import FastestRouter

    trajs = generate_trajectories(city, n=200, n_drivers=20, seed=11)
    train, _ = split_train_test(trajs, test_frac=0.2, seed=13)
    fastest = FastestRouter(city.net)
    sims_l2r, sims_fast = [], []
    for t in train[:40]:
        s, d = t.path[0], t.path[-1]
        sims_l2r.append(psim(city.net, t.path, arts.router.route(s, d)))
        sims_fast.append(psim(city.net, t.path, fastest.route(s, d, peak=t.peak)))
    assert np.mean(sims_l2r) > np.mean(sims_fast) - 0.02


def test_routing_leaves_pickle_size_unchanged(city, arts):
    """The search lookups built while routing stay out of the pickles that
    Spark broadcasts (RoadNetwork.__getstate__)."""
    import pickle

    router = pickle.loads(pickle.dumps(arts.router))  # a copy with no lookups built
    before = len(pickle.dumps(router.net)), len(pickle.dumps(router))
    g = np.random.default_rng(50)
    for s, d in g.integers(0, city.net.n_vertices, size=(50, 2)):
        router.route(int(s), int(d))
    assert router.net.__dict__.get("_adjacency_cache")  # the routes did build lookups
    assert (len(pickle.dumps(router.net)), len(pickle.dumps(router))) == before
