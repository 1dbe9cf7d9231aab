"""Unified L2R routing on the region graph — paper Section VI.

Case 1 — both endpoints in regions:
  * same region: return the most-traversed inner-region path from v_s to
    v_d if trajectories provide one, else the fastest path;
  * different regions: find a region path with a greedy search that takes
    a direct region edge to R_d when one exists and otherwise prefers the
    neighbouring region geometrically closest to R_d (with backtracking),
    then map every region edge back to its most popular road-network path
    and stitch the pieces with fastest-path connectors.

Case 2 — an endpoint outside every region: run a fastest-path probe from
s to d, take the first/last region it touches as candidate R_s/R_d, route
Case 1 between the touch points and splice the fastest on/off ramps; if
fewer than two candidate regions exist, return the fastest path.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..roadnet.model import RoadNetwork
from ..roadnet.shortest_path import dijkstra, search
from .region_graph import RegionGraph

# Landmarks of the detour guard's ALT lower bound.
N_LANDMARKS = 16


def _dedupe(path: list[int]) -> list[int]:
    out = [path[0]]
    for v in path[1:]:
        if v != out[-1]:
            out.append(v)
    return out


def _euclid(p: list[float], q: list[float]) -> float:
    """Straight-line distance between two (x, y) points; bitwise equal to
    ``np.linalg.norm`` of their difference, without the array round trip."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def landmark_table(net: RoadNetwork, w: np.ndarray) -> list[list[float]]:
    """ALT landmark distances (Goldberg & Harrelson, SODA 2005).

    Row v holds v's cost under ``w`` to each of ``N_LANDMARKS`` landmarks
    (``inf`` where unreachable). The landmarks are picked by farthest-point
    selection from vertex 0: the first is the vertex farthest from 0, each
    next one the vertex farthest from those already picked (an unreachable
    vertex counts as farthest, so other components get landmarks too).
    """
    adj, wl, n = net.adjacency(), np.asarray(w, dtype=np.float64).tolist(), net.n_vertices

    def tree(src: int) -> np.ndarray:
        cost = search(adj, wl, src)[0]
        row = np.full(n, np.inf)
        row[list(cost)] = list(cost.values())
        return row

    far, rows = tree(0), []
    for _ in range(min(N_LANDMARKS, n)):
        rows.append(tree(int(np.argmax(far))))
        far = np.min(rows, axis=0)
    return np.stack(rows, axis=1).tolist()


def alt_bound(table: list[list[float]], s: int, d: int) -> float:
    """Lower bound on the s→d cost: max over landmarks L of |D[L, s] − D[L, d]|.

    The triangle inequality gives it on an undirected graph. A landmark that
    reaches neither endpoint is skipped; one that reaches just one of them
    gives ``inf``, as s and d are then disconnected.
    """
    return max((abs(a - b) for a, b in zip(table[s], table[d]) if a != b), default=0.0)


@dataclass
class L2RRouter:
    """The learn-to-route router over a built region graph.

    Its pickle carries only ``net``, ``rg`` and ``peak``: the lookups that
    ``__post_init__`` and routing derive from them (landmark table, region
    adjacency, priced payloads) are rebuilt after unpickling, so
    broadcasting a router to Spark workers costs no more than its fields.
    """

    net: RoadNetwork
    rg: RegionGraph
    peak: bool = False

    # Region-path detour guard: a stitched trajectory route costing more
    # than this factor times the fastest path is through-traffic noise, not
    # local-driver intelligence, and is replaced by the fastest path.
    MAX_DETOUR = 1.6
    # Payload candidates within this factor of the cheapest stitched
    # estimate compete on popularity (see _edge_road_path).
    PAYLOAD_FILTER = 1.25
    # TT per metre of a straight-line connector estimate (priced at a
    # typical secondary-road speed).
    CONNECTOR_TT_PER_M = 1.0 / (60.0 / 3.6)

    def __post_init__(self):
        self._tt = self.net.travel_time(peak=self.peak)
        self._xy = self.net.xy.tolist()
        # Adjacency of the region graph for the greedy search.
        nbrs: dict[int, set[int]] = {}
        for (a, b) in self.rg.edges:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        self._nbrs = {k: sorted(v) for k, v in nbrs.items()}
        # Index inner paths per region for fast same-region lookup.
        self._inner: dict[int, list[tuple[list[int], int]]] = dict(self.rg.inner_paths)
        # The detour guard's ALT table, under the same (peak-aware) TT.
        self._landmarks = landmark_table(self.net, self._tt)
        # Region-edge payloads per orientation, priced on first use.
        self._priced: dict[tuple[int, int], list[tuple[list[int], int, float]]] = {}

    def __getstate__(self) -> dict:
        return {"net": self.net, "rg": self.rg, "peak": self.peak}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # -- region-level search ----------------------------------------------
    def _region_path(self, rs: int, rd: int) -> list[int] | None:
        """Destination-closest-first (greedy best-first) region search.

        The paper's rule: take a direct region edge to R_d when one exists,
        otherwise prefer region edges leading to regions geometrically
        closest to R_d. A best-first frontier implements exactly that
        priority while avoiding the dead-end detours of a plain DFS.
        """
        cent = self.rg.centroids
        to_rd = np.linalg.norm(cent - cent[rd], axis=1).tolist()
        pq = [(0.0, rs)]
        parent = {rs: -1}
        while pq:
            _, cur = heapq.heappop(pq)
            nbrs = self._nbrs.get(cur, [])
            if cur == rd or rd in nbrs:
                path = [rd] if cur != rd else []
                while cur != -1:
                    path.append(cur)
                    cur = parent[cur]
                return path[::-1]
            for r in nbrs:
                if r not in parent:
                    parent[r] = cur
                    heapq.heappush(pq, (to_rd[r], r))
        return None

    def _payloads(self, a: int, b: int) -> list[tuple[list[int], int, float]]:
        """Region edge (a, b)'s payloads as (path oriented a→b, count, TT
        cost), without the paths that are not contiguous. Each orientation
        is priced once per router, on first use: pricing all of them when
        the router is built took twice as long as its landmark trees, and a
        stream of 1,875 queries used fewer than half of them."""
        got = self._priced.get((a, b))
        if got is None:
            got = self._priced[a, b] = []
            e = self.rg.edge(a, b)
            vr = self.rg.vertex_region
            for path, cnt in e.paths if e is not None else []:
                p = path[::-1] if vr[path[0]] == b or vr[path[-1]] == a else path
                try:
                    cost = float(self._tt[self.net.path_edges(p)].sum())
                except ValueError:
                    continue
                got.append((p, cnt, cost))
        return got

    def _edge_road_path(self, a: int, b: int, cur: int, dest: int) -> list[int] | None:
        """Select region edge (a, b)'s payload path for a traveller now at
        ``cur`` heading for ``dest``.

        Among the stored paths (oriented a→b, priced once), estimate
        each candidate's stitched travel time (payload TT plus straight-line
        connector estimates cur→entry and exit→dest), keep candidates within
        ``PAYLOAD_FILTER`` of the cheapest, and of those return the most
        *popular* (the paper's rule: recommend the path with the highest
        popularity). The cost filter removes through-trip payloads that
        would imply large detours for this particular query; popularity
        then selects what local drivers collectively chose."""
        payloads = self._payloads(a, b)
        if not payloads:
            return None
        xy = self._xy
        at, to = xy[cur], xy[dest]
        per_m = self.CONNECTOR_TT_PER_M
        cands = [
            (p, cnt, payload_cost + per_m * (_euclid(xy[p[0]], at) + _euclid(xy[p[-1]], to)))
            for p, cnt, payload_cost in payloads
        ]
        min_cost = min(c for _, _, c in cands)
        ok = [x for x in cands if x[2] <= self.PAYLOAD_FILTER * min_cost]
        return max(ok, key=lambda x: (x[1], -x[2]))[0]

    def _fastest_lower_bound(self, s: int, d: int) -> float:
        """Lower bound on the fastest s→d cost: the larger of the
        straight-line bound at 110 km/h and the ALT landmark bound, the
        latter shrunk by 1e-9 so that float rounding keeps it admissible."""
        return max(
            _euclid(self._xy[s], self._xy[d]) / (110.0 / 3.6),
            alt_bound(self._landmarks, s, d) * (1.0 - 1e-9),
        )

    def _fastest(self, s: int, d: int) -> list[int]:
        res = dijkstra(self.net, s, d, self._tt)
        return res[0] if res else [s]

    def _connector(self, u: int, v: int) -> list[int]:
        """Leg from u to v while stitching: prefer a recorded inner-region
        path (local-driver knowledge) when both endpoints lie in the same
        region, else the fastest path."""
        if u == v:
            return [u]
        vr = self.rg.vertex_region
        if vr[u] >= 0 and vr[u] == vr[v]:
            inner = self._inner_connect(int(vr[u]), u, v)
            if inner is not None:
                return inner
        return self._fastest(u, v)

    def _inner_connect(self, region: int, u: int, v: int) -> list[int] | None:
        best, best_cnt = None, 0
        for path, cnt in self._inner.get(region, []):
            try:
                i, j = path.index(u), path.index(v)
            except ValueError:
                continue
            if i < j and cnt > best_cnt:
                best, best_cnt = path[i : j + 1], cnt
            elif j < i and cnt > best_cnt:
                best, best_cnt = path[j : i + 1][::-1], cnt
        return best

    def _same_region(self, s: int, d: int, region: int) -> list[int]:
        """Case 1, R_s == R_d: most-traversed inner path if one covers s→d,
        else the fastest path (Sec. VI)."""
        best = self._inner_connect(region, s, d)
        return best if best is not None else self._fastest(s, d)

    def _case1(self, s: int, d: int, rs: int, rd: int) -> list[int]:
        if rs == rd:
            return self._same_region(s, d, rs)
        rpath = self._region_path(rs, rd)
        if rpath is None:
            return self._fastest(s, d)
        # Map the region path back to road-network paths and stitch.
        full = [s]
        for a, b in zip(rpath, rpath[1:]):
            seg = self._edge_road_path(a, b, full[-1], d)
            if seg is None:  # B-edge that got no path (null pref + unreachable)
                continue
            full.extend(self._connector(full[-1], seg[0])[1:])
            full.extend(seg[1:] if seg[0] == full[-1] else seg)
        full.extend(self._connector(full[-1], d)[1:])
        full = _dedupe(full)
        # Detour guard: reject stitched routes that cost far more than the
        # fastest path (payloads of long through-trips can loop the city):
        # return the fastest path iff its cost is > 0 and the route costs
        # more than MAX_DETOUR times it. The exact fastest search runs only
        # when an admissible lower bound on its cost leaves the rejection
        # possible, so the decision is the one the search would give on
        # every query; the ALT bound makes most of those searches needless.
        try:
            cost = self._tt[self.net.path_edges(full)].sum()
        except ValueError:
            return self._fastest(s, d)
        if cost > self.MAX_DETOUR * self._fastest_lower_bound(s, d):
            fastest = self._fastest(s, d)
            fast_cost = self._tt[self.net.path_edges(fastest)].sum()
            if fast_cost > 0 and cost > self.MAX_DETOUR * fast_cost:
                return fastest
        return full

    # -- public API --------------------------------------------------------
    def route(self, s: int, d: int, peak: bool = False, driver: int = 0) -> list[int]:
        """Recommend a path for an arbitrary (s, d) pair.

        ``peak``/``driver`` are part of the uniform router protocol used by
        the evaluation harness; an L2RRouter is built per period (its
        congestion state is baked in) and is not personalized, so both are
        ignored here.
        """
        if s == d:
            return [s]
        vr = self.rg.vertex_region
        rs, rd = int(vr[s]), int(vr[d])
        if rs >= 0 and rd >= 0:
            return self._case1(s, d, rs, rd)
        # Case 2: probe with the fastest path, find candidate regions.
        probe = self._fastest(s, d)
        regs = vr[np.asarray(probe, dtype=np.int64)]
        hits = np.flatnonzero(regs >= 0)
        if len(hits) == 0:
            return probe
        first, last = int(hits[0]), int(hits[-1])
        if regs[first] == regs[last]:
            return probe  # only one candidate region: fastest path (Fig. 8)
        entry, exit_ = probe[first], probe[last]
        mid = self._case1(entry, exit_, int(regs[first]), int(regs[last]))
        return _dedupe(probe[: first + 1] + mid[1:] + probe[last + 1 :])
