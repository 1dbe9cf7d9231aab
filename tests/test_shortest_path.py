"""Tests for Dijkstra and the preference-modified Dijkstra (Algorithm 2)."""
import numpy as np
import pytest

from repro.roadnet.generator import make_city
from repro.roadnet.model import RT_CODE, RoadNetwork
from repro.roadnet.shortest_path import dijkstra, multi_source_reach, preference_dijkstra


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=15, cell_m=200.0, seed=5)


def _bellman_ford_cost(net: RoadNetwork, src: int, dst: int, w: np.ndarray) -> float:
    """Reference implementation for cost cross-checks."""
    dist = np.full(net.n_vertices, np.inf)
    dist[src] = 0.0
    for _ in range(net.n_vertices):
        du = dist[net.eu] + w
        dv = dist[net.ev] + w
        new = dist.copy()
        np.minimum.at(new, net.ev, du)
        np.minimum.at(new, net.eu, dv)
        if np.array_equal(new, dist):
            break
        dist = new
    return float(dist[dst])


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_matches_bellman_ford(city, seed):
    g = np.random.default_rng(seed)
    s, d = g.integers(0, city.net.n_vertices, 2)
    w = city.net.dist
    res = dijkstra(city.net, int(s), int(d), w)
    assert res is not None
    path, cost = res
    assert path[0] == s and path[-1] == d
    assert cost == pytest.approx(_bellman_ford_cost(city.net, int(s), int(d), w))


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_path_cost_consistent(city, seed):
    g = np.random.default_rng(100 + seed)
    s, d = g.integers(0, city.net.n_vertices, 2)
    w = city.net.travel_time()
    res = dijkstra(city.net, int(s), int(d), w)
    path, cost = res
    eids = city.net.path_edges(path)  # raises if the path is not contiguous
    assert w[eids].sum() == pytest.approx(cost)


def test_dijkstra_trivial(city):
    assert dijkstra(city.net, 3, 3, city.net.dist) == ([3], 0.0)


def test_dijkstra_unreachable():
    # Two isolated components.
    xy = np.array([[0.0, 0], [1, 0], [10, 0], [11, 0]])
    net = RoadNetwork.from_edges(xy, [0, 2], [1, 3], [1.0, 1.0], [5, 5])
    assert dijkstra(net, 0, 3, net.dist) is None


@pytest.mark.parametrize("slave", [None, 0, 2, 5])
def test_preference_dijkstra_valid_paths(city, slave):
    res = preference_dijkstra(city.net, 0, city.net.n_vertices - 1, city.net.dist, slave)
    assert res is not None
    path, _ = res
    city.net.path_edges(path)  # contiguity check


def test_preference_none_equals_plain(city):
    w = city.net.travel_time()
    a = preference_dijkstra(city.net, 5, 180, w, None)
    b = dijkstra(city.net, 5, 180, w)
    assert a[1] == pytest.approx(b[1])


def test_preference_gates_expansion():
    """At a vertex with a satisfying edge, only satisfying edges are explored."""
    # Diamond: 0-1 (rt A), 0-2 (rt B), 1-3, 2-3. Slave prefers rt B: even
    # though 0-1 is cheaper, expansion from 0 must use the rt-B edge.
    xy = np.array([[0.0, 0], [1, 1], [1, -1], [2, 0]])
    eu, ev = [0, 0, 1, 2], [1, 2, 3, 3]
    w = np.array([1.0, 5.0, 1.0, 5.0])
    rt = np.array([2, 5, 2, 5])
    net = RoadNetwork.from_edges(xy, eu, ev, w, rt)
    path, cost = preference_dijkstra(net, 0, 3, w, 5)
    assert path == [0, 2, 3]
    assert cost == pytest.approx(10.0)


def test_preference_falls_back_when_unsatisfiable():
    """With no satisfying edge anywhere, behaves like plain Dijkstra."""
    xy = np.array([[0.0, 0], [1, 0], [2, 0]])
    net = RoadNetwork.from_edges(xy, [0, 1], [1, 2], [1.0, 1.0], [5, 5])
    path, cost = preference_dijkstra(net, 0, 2, net.dist, 0)  # motorway nowhere
    assert path == [0, 1, 2]


def test_preference_changes_route(city):
    """A motorway slave pulls long routes onto the border ring."""
    net = city.net
    n = city.grid_n
    s, d = n + 1, net.n_vertices - n - 2  # near opposite corners, off-border
    plain = dijkstra(net, s, d, net.dist)[0]
    pref = preference_dijkstra(net, s, d, net.dist, RT_CODE["motorway"])[0]
    rt_share = lambda p: (net.rt[net.path_edges(p)] == RT_CODE["motorway"]).mean()
    assert rt_share(pref) >= rt_share(plain)


def test_multi_source_reach_stops_at_flags(city):
    net = city.net
    stop = np.zeros(net.n_vertices, dtype=bool)
    stop[100:110] = True
    reached = multi_source_reach(net, [0], stop)
    assert reached <= set(range(100, 110))
    # Flagged vertices are reached but not expanded: a vertex whose only
    # paths from 0 pass through flagged vertices stays unreached.
    stop2 = np.zeros(net.n_vertices, dtype=bool)
    nbrs, _ = net.neighbors(0)
    for x in nbrs:
        stop2[int(x)] = True
    reached2 = multi_source_reach(net, [0], stop2)
    assert reached2 == {int(x) for x in nbrs}


# -- oracles: networkx on generated graphs, and the shared-tree property -----
import networkx as nx  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.roadnet.shortest_path import search, tree_path  # noqa: E402


@st.composite
def graphs(draw):
    """A random simple undirected network: weights in [1, 10), road types 0–5."""
    n = draw(st.integers(2, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    w = draw(st.lists(st.floats(1.0, 10.0), min_size=len(chosen), max_size=len(chosen)))
    rt = draw(st.lists(st.integers(0, 5), min_size=len(chosen), max_size=len(chosen)))
    xy = np.zeros((n, 2))
    eu, ev = zip(*chosen)
    net = RoadNetwork.from_edges(xy, list(eu), list(ev), w, rt)
    return net, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def _nx_graph(net: RoadNetwork, w: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(net.n_vertices))
    for e, (a, b) in enumerate(zip(net.eu, net.ev)):
        g.add_edge(int(a), int(b), weight=float(w[e]))
    return g


def _nx_gated(net: RoadNetwork, w: np.ndarray, slave_rt: int) -> nx.DiGraph:
    """Alg. 2's gate as a directed graph: a vertex with an incident edge of
    type ``slave_rt`` has arcs along those edges only."""
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n_vertices))
    for u in range(net.n_vertices):
        nbrs, eids = net.neighbors(u)
        sat = net.rt[eids] == slave_rt
        for x, e, s in zip(nbrs, eids, sat):
            if s or not sat.any():
                g.add_edge(u, int(x), weight=float(w[e]))
    return g


def _cost(net: RoadNetwork, path: list[int], w: np.ndarray) -> float:
    return float(w[net.path_edges(path)].sum())


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_dijkstra_cost_equals_networkx(case):
    net, s, d = case
    res = dijkstra(net, s, d, net.dist)
    g = _nx_graph(net, net.dist)
    if not nx.has_path(g, s, d):
        assert res is None
        return
    path, cost = res
    assert path[0] == s and path[-1] == d
    assert cost == pytest.approx(nx.dijkstra_path_length(g, s, d))
    assert _cost(net, path, net.dist) == pytest.approx(cost)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.integers(0, 5))
def test_preference_dijkstra_equals_networkx_on_gated_graph(case, slave_rt):
    net, s, d = case
    w = net.dist
    res = preference_dijkstra(net, s, d, w, slave_rt)
    gated = _nx_gated(net, w, slave_rt)
    if nx.has_path(gated, s, d):
        path, cost = res
        assert cost == pytest.approx(nx.dijkstra_path_length(gated, s, d))
        assert all(gated.has_edge(a, b) for a, b in zip(path, path[1:]))
    else:  # trapped by the gate: the master-only fallback
        assert res == dijkstra(net, s, d, w)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(0, 5)))
def test_full_tree_paths_equal_early_terminated_search(case, slave_rt):
    """Step 1 reads every destination's path from one tree per source."""
    net, s, _ = case
    w = net.dist
    cost, parent = search(net.adjacency(slave_rt), w.tolist(), s)
    for d in range(net.n_vertices):
        early = search(net.adjacency(slave_rt), w.tolist(), s, (d,))[0]
        assert (d in cost) == (d in early)
        if d in cost:
            assert cost[d] == early[d]
            assert tree_path(parent, d) == preference_dijkstra(net, s, d, w, slave_rt)[0]


def test_kernel_matches_networkx_on_city(city):
    g = _nx_graph(city.net, city.net.travel_time())
    lengths = nx.single_source_dijkstra_path_length(g, 0)
    cost, _ = search(city.net.adjacency(), city.net.travel_time().tolist(), 0)
    assert cost.keys() == lengths.keys()
    assert all(cost[v] == pytest.approx(lengths[v]) for v in lengths)
