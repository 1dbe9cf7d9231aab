"""Single-source shortest-path search: one Dijkstra kernel.

``search`` runs Dijkstra over the per-vertex (neighbour, edge id) lists of
:meth:`repro.roadnet.model.RoadNetwork.adjacency` and a list of edge
weights. For a ⟨master, slave⟩ preference the lists already apply the
slave gate of the paper's Algorithm 2 (*Applying Preferences Modified
Dijkstra*): if at least one edge incident to a vertex has the slave road
type, only those edges are explored from it, otherwise all are. The gate
is applied once, when a list is built, not at every settled vertex.

The kernel stops once every target is settled, or grows the full
shortest-path tree when given none. A settled vertex's parent never
changes afterwards, so the path read from a full tree equals the path of
the early-terminated search; Step 1 (``core/preference.py``) relies on
this to answer every ground-truth path of a source from shared trees.

``dijkstra`` (plain lowest-cost search, used by the baselines, the
routers and Step 1) and ``preference_dijkstra`` (Alg. 2, with the
master-only fallback) are thin wrappers over it.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from .model import RoadNetwork

_INF = float("inf")


def search(
    adj: list[list[tuple[int, int]]], w: list[float], src: int, targets: Iterable[int] = ()
) -> tuple[dict[int, float], dict[int, int]]:
    """Dijkstra from ``src`` over ``adj`` with edge weights ``w`` (a list:
    indexing a numpy array per edge is several times slower).

    Stops once every vertex in ``targets`` is settled; with no targets it
    settles everything reachable. Returns ``(cost, parent)``: ``cost`` maps
    each settled vertex to its final cost, and ``parent`` holds the tree
    pointers (``-1`` at ``src``), final for every settled vertex.
    """
    left = set(targets)
    cost: dict[int, float] = {}
    best = {src: 0.0}
    parent = {src: -1}
    pq = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while pq:
        d, u = pop(pq)
        if u in cost:
            continue
        cost[u] = d
        if u in left:
            left.discard(u)
            if not left:
                break
        for x, e in adj[u]:
            if x in cost:
                continue
            nd = d + w[e]
            if nd < best.get(x, _INF):
                best[x] = nd
                parent[x] = u
                push(pq, (nd, x))
    return cost, parent


def tree_path(parent: dict[int, int], dst: int) -> list[int]:
    """Vertex path from the tree's source to a settled ``dst``."""
    path = [dst]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _weights(w: np.ndarray) -> list[float]:
    return np.asarray(w, dtype=np.float64).tolist()


def _answer(tree: tuple[dict[int, float], dict[int, int]], dst: int) -> tuple[list[int], float] | None:
    cost, parent = tree
    return (tree_path(parent, dst), cost[dst]) if dst in cost else None


def dijkstra(
    net: RoadNetwork, src: int, dst: int, w: np.ndarray
) -> tuple[list[int], float] | None:
    """Lowest-cost path from ``src`` to ``dst`` under edge weights ``w``.

    Returns ``(vertex path, cost)`` or ``None`` if unreachable.
    """
    return _answer(search(net.adjacency(), _weights(w), src, (dst,)), dst)


def preference_dijkstra(
    net: RoadNetwork,
    src: int,
    dst: int,
    master_w: np.ndarray,
    slave_rt: int | None,
) -> tuple[list[int], float] | None:
    """Paper Algorithm 2: modified Dijkstra honouring a ⟨master, slave⟩
    preference vector.

    ``master_w`` is the per-edge weight array of the master cost feature;
    ``slave_rt`` is a road-type code (or ``None`` for no road-condition
    preference, in which case this reduces to plain Dijkstra).

    Note: as specified in the paper, the slave gate ("if any incident edge
    satisfies V.slave, explore only those") can disconnect the destination
    — e.g. a vertex on a primary corridor only ever expands along the
    corridor, so a search can get trapped on it. Real road networks are
    patchy enough that the paper never discusses this; our synthetic grid
    makes it systematic, so when the gated search exhausts without
    settling the destination we fall back to plain Dijkstra on the master
    weights (the same fallback the paper applies to null preferences).
    """
    res = _answer(search(net.adjacency(slave_rt), _weights(master_w), src, (dst,)), dst)
    if res is None and slave_rt is not None:
        return dijkstra(net, src, dst, master_w)
    return res


def multi_source_reach(
    net: RoadNetwork, sources: list[int], stop_at: np.ndarray
) -> set[int]:
    """BFS from all ``sources`` that does not expand beyond flagged vertices.

    ``stop_at[v]`` true means: v may be *reached* but its neighbours are not
    explored (the paper's B-edge BFS rule — a search entering another region
    stops there, Sec. IV-B). Returns the set of reached flagged vertices.
    """
    from collections import deque

    reached: set[int] = set()
    seen = set(sources)
    dq = deque(sources)
    while dq:
        u = dq.popleft()
        for x in net.neighbors(u)[0]:
            x = int(x)
            if x in seen:
                continue
            seen.add(x)
            if stop_at[x]:
                reached.add(x)
                continue  # do not expand beyond a foreign region vertex
            dq.append(x)
    return reached
