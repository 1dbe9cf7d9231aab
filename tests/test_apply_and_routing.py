"""Tests for Step 3 (applying preferences) and the unified L2R routing."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import routing
from repro.core.apply_prefs import apply_preferences
from repro.core.pipeline import build_l2r
from repro.core.routing import N_LANDMARKS, L2RRouter, _dedupe, alt_bound, landmark_table
from repro.eval.similarity import psim
from repro.roadnet.generator import make_city
from repro.roadnet.shortest_path import dijkstra
from repro.traj.generator import generate_trajectories, split_train_test
from tests.test_shortest_path import _nx_graph, graphs


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
    # The router's derived state (landmark table, priced payloads) exists but
    # stays out of its pickle, which carries only its fields.
    assert len(router._landmarks) == city.net.n_vertices
    assert all(len(row) == N_LANDMARKS for row in router._landmarks)
    assert router._priced
    fields = (router.net, router.rg, router.peak)
    # 128 bytes cover the class reference and the state dict's keys.
    assert len(pickle.dumps(router)) <= len(pickle.dumps(fields)) + 128
    assert pickle.loads(pickle.dumps(router))._landmarks == router._landmarks


# -- the detour guard: its lower bound against networkx, its decision against
# the reference rule -------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(graphs(), st.booleans())
def test_alt_bound_never_exceeds_networkx(case, peak):
    """On generated (possibly disconnected) graphs, under TT."""
    net, s, _ = case
    w = net.travel_time(peak=peak)
    table = landmark_table(net, w)
    assert len(table[0]) == min(N_LANDMARKS, net.n_vertices)
    lengths = nx.single_source_dijkstra_path_length(_nx_graph(net, w), s)
    for d, length in lengths.items():
        # As the router uses it: shrunk by 1e-9 against float rounding.
        assert alt_bound(table, s, d) * (1 - 1e-9) <= length


@pytest.mark.parametrize("peak", [False, True])
def test_guard_lower_bound_never_exceeds_networkx_on_city(city, arts, peak):
    router = L2RRouter(net=city.net, rg=arts.router.rg, peak=peak)
    g = _nx_graph(city.net, city.net.travel_time(peak=peak))
    for s in np.random.default_rng(3).choice(city.net.n_vertices, 6, replace=False):
        lengths = nx.single_source_dijkstra_path_length(g, int(s))
        assert len(lengths) == city.net.n_vertices
        for d, length in lengths.items():
            assert router._fastest_lower_bound(int(s), d) <= length


@pytest.mark.parametrize("peak", [False, True])
def test_guard_matches_reference_rule(city, arts, peak, monkeypatch):
    """Every L2R route between two regions equals the reference rule: the
    fastest path iff fast_cost > 0 and cost > MAX_DETOUR·fast_cost, else the
    stitched route. The bound only saves exact searches."""
    net, rg = city.net, arts.router.rg
    tt = net.travel_time(peak=peak)
    router = L2RRouter(net=net, rg=rg, peak=peak)
    stitched = L2RRouter(net=net, rg=rg, peak=peak)
    stitched.MAX_DETOUR = float("inf")  # the guard never rejects
    searches = []
    kernel = routing.dijkstra
    monkeypatch.setattr(routing, "dijkstra", lambda *a: searches.append(a[1:3]) or kernel(*a))

    covered = np.flatnonzero(rg.vertex_region >= 0)
    g = np.random.default_rng(int(peak))
    pairs = [(int(s), int(d)) for s, d in g.choice(covered, size=(400, 2))]
    pairs = [(s, d) for s, d in pairs if rg.vertex_region[s] != rg.vertex_region[d]][:250]
    assert len(pairs) >= 200
    rejected = guard_searches = 0
    for s, d in pairs:
        full = stitched.route(s, d)
        fastest = kernel(net, s, d, tt)[0]
        cost, fast_cost = tt[net.path_edges(full)].sum(), tt[net.path_edges(fastest)].sum()
        expected = fastest if fast_cost > 0 and cost > L2RRouter.MAX_DETOUR * fast_cost else full
        rejected += expected is fastest
        searches.clear()
        assert router.route(s, d) == expected
        guard_searches += (s, d) in searches
    assert rejected > 0  # both outcomes of the rule are exercised
    assert rejected <= guard_searches < len(pairs)  # and the bound saved searches


# -- every router returns a valid s→d path ----------------------------------
@pytest.fixture(scope="module")
def routers(city, arts):
    from repro.baselines.costcentric import FastestRouter, ShortestRouter
    from repro.baselines.dom import DomRouter
    from repro.baselines.trip import TripRouter

    trajs = generate_trajectories(city, n=200, n_drivers=20, seed=11)
    train, _ = split_train_test(trajs, test_frac=0.2, seed=13)
    return {
        "Shortest": ShortestRouter(city.net),
        "Fastest": FastestRouter(city.net),
        "Dom": DomRouter(city.net).fit(train),
        "TRIP": TripRouter(city.net).fit(train),
        "L2R": arts.router,
    }


@pytest.mark.parametrize("name", ["Shortest", "Fastest", "Dom", "TRIP", "L2R"])
def test_every_router_returns_a_valid_path(city, routers, name):
    """The path starts at s, ends at d, and every hop is an edge."""
    g = np.random.default_rng(7)
    for s, d, peak, driver in zip(
        g.integers(0, city.net.n_vertices, 80).tolist(),
        g.integers(0, city.net.n_vertices, 80).tolist(),
        g.integers(0, 2, 80).tolist(),
        g.integers(0, 20, 80).tolist(),
    ):
        path = routers[name].route(s, d, peak=bool(peak), driver=driver)
        assert path[0] == s and path[-1] == d
        city.net.path_edges(path)  # raises on a hop that is not an edge
