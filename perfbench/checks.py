"""Output checks and digests. A check counts a failure; it never raises."""
from __future__ import annotations

import hashlib
import json

from repro.roadnet.model import COSTS, ROAD_TYPES


def route_ok(net, s: int, d: int, path) -> bool:
    """A route is valid when it runs from s to d and every hop is a road edge.

    For s != d a one-vertex answer ``[s]`` (the routers' "unreachable"
    sentinel) is a failure, and so is a missing answer.
    """
    if not path or int(path[0]) != s or int(path[-1]) != d:
        return False
    if len(path) == 1:
        return s == d
    try:
        net.path_edges(path)
    except ValueError:
        return False
    return True


def bad_t_edge_prefs(rg) -> int:
    """T-edges whose learned preference is missing or not a ⟨COSTS, road type⟩ pair."""
    bad = 0
    for e in rg.edges.values():
        if e.kind != "T":
            continue
        pref = e.pref
        if pref is None or pref[0] not in COSTS or not (pref[1] is None or 0 <= pref[1] < len(ROAD_TYPES)):
            bad += 1
    return bad


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:16]


def prefs_digest(prefs) -> str:
    """The learned Step-1 table: master, slave, score, n_unique_prefs by (ra, rb)."""
    rows = prefs.sort_values(["ra", "rb"])
    return _digest([
        [int(r.ra), int(r.rb), r.master, int(r.slave), round(float(r.score), 9), int(r.n_unique_prefs)]
        for r in rows.itertuples(index=False)
    ])


def _multiset(paths) -> list:
    return sorted([[int(v) for v in p], int(c)] for p, c in paths)


def rg_digest(rg) -> str:
    """Regions, edge kinds and payload multisets (T/B payloads and inner paths)."""
    return _digest({
        "regions": [sorted(int(v) for v in verts) for verts in rg.region_vertices],
        "edges": [[a, b, e.kind, _multiset(e.paths)] for (a, b), e in sorted(rg.edges.items())],
        "inner": [[r, _multiset(ps)] for r, ps in sorted(rg.inner_paths.items())],
    })


def routes_digest(routes) -> str:
    """The L2R answer of every query, in query order."""
    return _digest([None if p is None else [int(v) for v in p] for p in routes])
