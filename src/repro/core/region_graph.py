"""Region graph construction — paper Section IV-B.

Region vertices come from :mod:`repro.core.clustering`. Region edges are
built two ways:

* **T-edges** from trajectories: if a trajectory visited region R_i before
  R_j, a region edge (R_i, R_j) carries the path from the vertex where the
  trajectory *left* R_i to the vertex where it *entered* R_j (those
  vertices become *transfer centers*); a trajectory visiting m regions
  yields up to m(m−1)/2 region edges. Per-region *inner-region paths* are
  also recorded. The per-trajectory decomposition runs as a Spark
  ``mapInPandas`` over the trajectory DataFrame (broadcast vertex→region
  map) followed by a groupBy aggregation of identical paths.
* **B-edges** from a BFS over the *original* road network: for each region,
  a multi-source BFS that stops expanding at foreign-region vertices; any
  reached region not yet connected gets a B-edge (no path information —
  Section V attaches paths later).

The module also computes Table IV (region sizes): convex-hull area and
maximum diameter per region, bucketed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from ..roadnet.model import RoadNetwork
from ..roadnet.shortest_path import multi_source_reach
from .clustering import Region


@dataclass
class RegionEdge:
    """A region-graph edge: T (trajectory-built) or B (BFS-built)."""

    ra: int
    rb: int
    kind: str  # "T" | "B"
    paths: list[tuple[list[int], int]] = field(default_factory=list)  # (path, count)
    pref: tuple[str, int | None] | None = None  # ⟨master, slave rt code⟩


@dataclass
class RegionGraph:
    """The routing infrastructure: regions + region edges + path payloads."""

    vertex_region: np.ndarray  # vid -> region id (−1 uncovered)
    region_vertices: list[np.ndarray]
    region_rt: list[int | None]
    centroids: np.ndarray  # (n_regions, 2) metres
    top_types: list[list[int]]  # top-k road types per region (functionality 𝔽)
    transfer_centers: list[list[int]]
    inner_paths: dict[int, list[tuple[list[int], int]]]
    edges: dict[tuple[int, int], RegionEdge]

    @property
    def n_regions(self) -> int:
        return len(self.region_vertices)

    def edge(self, a: int, b: int) -> RegionEdge | None:
        return self.edges.get((min(a, b), max(a, b)))


# --------------------------------------------------------------------------
# T-edge extraction (Spark)
# --------------------------------------------------------------------------
def _segments(regions_seq: np.ndarray) -> list[tuple[int, int, int]]:
    """Compress a per-vertex region sequence into (region, start, end) runs,
    skipping uncovered (−1) stretches."""
    segs = []
    i, n = 0, len(regions_seq)
    while i < n:
        r = regions_seq[i]
        j = i
        while j + 1 < n and regions_seq[j + 1] == r:
            j += 1
        if r >= 0:
            segs.append((int(r), i, j))
        i = j + 1
    return segs


def decompose_trajectory(path: list[int], vertex_region: np.ndarray) -> tuple[list, list, list]:
    """Decompose one trajectory path into (pair rows, inner rows, centers).

    pair rows: (ra, rb, subpath) — subpath runs from leaving ra to entering
    rb; inner rows: (region, subpath inside the region); centers: (region,
    vertex) transfer centers where the trajectory entered/left a region.
    """
    regs = vertex_region[np.asarray(path, dtype=np.int64)]
    segs = _segments(regs)
    pairs, inner, centers = [], [], []
    seen_pairs: set[tuple[int, int]] = set()
    for idx, (r, s, e) in enumerate(segs):
        centers.append((r, int(path[s])))
        centers.append((r, int(path[e])))
        if e > s:
            inner.append((r, [int(v) for v in path[s : e + 1]]))
        for (r2, s2, e2) in segs[idx + 1 :]:
            if r2 == r:
                continue
            key = (r, r2)
            if key in seen_pairs:
                continue  # keep the first occurrence per region pair
            seen_pairs.add(key)
            sub = [int(v) for v in path[e : s2 + 1]]
            pairs.append((r, r2, sub))
    return pairs, inner, centers


def extract_t_edge_rows(
    spark: SparkSession, traj_df: DataFrame, vertex_region: np.ndarray
) -> DataFrame:
    """Spark fan-out: per trajectory, emit region-pair / inner / center rows.

    Output schema: kind ('pair'|'inner'|'center'), ra, rb, path. The
    vertex→region map is broadcast once; identical paths are then counted
    with a groupBy so the driver only sees the aggregated path sets.
    """
    bc = spark.sparkContext.broadcast(vertex_region)

    def gen(batches):
        vr = bc.value
        for pdf in batches:
            out = {"kind": [], "ra": [], "rb": [], "path": []}
            for p in pdf["path"]:
                pairs, inner, centers = decompose_trajectory(list(p), vr)
                for ra, rb, sub in pairs:
                    out["kind"].append("pair"); out["ra"].append(ra); out["rb"].append(rb); out["path"].append(sub)
                for r, sub in inner:
                    out["kind"].append("inner"); out["ra"].append(r); out["rb"].append(-1); out["path"].append(sub)
                for r, v in centers:
                    out["kind"].append("center"); out["ra"].append(r); out["rb"].append(-1); out["path"].append([v])
            yield pd.DataFrame(out)

    schema = "kind string, ra long, rb long, path array<long>"
    return traj_df.select("path").mapInPandas(gen, schema=schema)


def aggregate_t_edges(rows: DataFrame) -> pd.DataFrame:
    """Count identical payloads per (kind, ra, rb, path) — Spark groupBy."""
    return (
        rows.groupBy("kind", "ra", "rb", "path")
        .agg(F.count("*").alias("cnt"))
        .toPandas()
    )


# --------------------------------------------------------------------------
# Region features + assembly
# --------------------------------------------------------------------------
def region_top_types(net: RoadNetwork, region_vertices: np.ndarray, k: int = 2) -> list[int]:
    """Top-k road types of edges incident to the region's vertices — the
    region functionality descriptor 𝔽 of Sec. V-B."""
    mask = np.zeros(net.n_vertices, dtype=bool)
    mask[region_vertices] = True
    incident = mask[net.eu] | mask[net.ev]
    counts = np.bincount(net.rt[incident].astype(np.int64), minlength=6)
    order = np.argsort(-counts, kind="stable")
    return [int(t) for t in order[:k] if counts[t] > 0]


def build_region_graph(
    spark: SparkSession,
    net: RoadNetwork,
    regions: list[Region],
    traj_df: DataFrame,
    top_k_types: int = 2,
    max_paths_per_edge: int = 16,
) -> RegionGraph:
    """Assemble the full region graph: T-edges from trajectories (Spark),
    then B-edge completion via the stop-at-foreign-region BFS."""
    vr = np.full(net.n_vertices, -1, dtype=np.int64)
    for r in regions:
        vr[r.vertices] = r.rid

    rows = aggregate_t_edges(extract_t_edge_rows(spark, traj_df, vr))

    edges: dict[tuple[int, int], RegionEdge] = {}
    inner: dict[int, list[tuple[list[int], int]]] = {}
    centers: dict[int, set[int]] = {}
    for _, row in rows.iterrows():
        kind, ra, rb, path, cnt = row["kind"], int(row["ra"]), int(row["rb"]), list(map(int, row["path"])), int(row["cnt"])
        if kind == "pair":
            key = (min(ra, rb), max(ra, rb))
            e = edges.setdefault(key, RegionEdge(ra=key[0], rb=key[1], kind="T"))
            e.paths.append((path, cnt))
        elif kind == "inner":
            inner.setdefault(ra, []).append((path, cnt))
        else:
            centers.setdefault(ra, set()).add(path[0])
    # One total order, (−count, length, path), whatever order the Spark
    # aggregation returned the rows in: the per-edge cap cuts this list, and
    # routing breaks popularity ties by position.
    def ranked(paths: list[tuple[list[int], int]]) -> list[tuple[list[int], int]]:
        return sorted(paths, key=lambda pc: (-pc[1], len(pc[0]), pc[0]))

    # Keep the most-traversed paths per T-edge (bounded payload).
    for e in edges.values():
        e.paths = ranked(e.paths)[:max_paths_per_edge]
    inner = {r: ranked(ps) for r, ps in inner.items()}

    centroids = np.stack([net.xy[r.vertices].mean(axis=0) for r in regions])
    top_types = [region_top_types(net, r.vertices, k=top_k_types) for r in regions]
    transfer_centers = []
    for r in regions:
        cs = sorted(centers.get(r.rid, set()))
        if not cs:  # fall back to the vertex nearest the centroid
            d2 = ((net.xy[r.vertices] - centroids[r.rid]) ** 2).sum(axis=1)
            cs = [int(r.vertices[np.argmin(d2)])]
        transfer_centers.append(cs)

    rg = RegionGraph(
        vertex_region=vr,
        region_vertices=[r.vertices for r in regions],
        region_rt=[r.rt for r in regions],
        centroids=centroids,
        top_types=top_types,
        transfer_centers=transfer_centers,
        inner_paths=inner,
        edges=edges,
    )
    add_b_edges(rg, net)
    return rg


def add_b_edges(rg: RegionGraph, net: RoadNetwork) -> int:
    """BFS B-edge completion (Sec. IV-B). Returns the number of B-edges added."""
    added = 0
    vr = rg.vertex_region
    for rid, verts in enumerate(rg.region_vertices):
        stop_at = (vr >= 0) & (vr != rid)
        reached = multi_source_reach(net, [int(v) for v in verts], stop_at)
        for v in reached:
            other = int(vr[v])
            key = (min(rid, other), max(rid, other))
            if key not in rg.edges:
                rg.edges[key] = RegionEdge(ra=key[0], rb=key[1], kind="B")
                added += 1
    return added


# --------------------------------------------------------------------------
# Table IV: region sizes
# --------------------------------------------------------------------------
def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices CCW. Handles collinear."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(tuple(p))
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(tuple(p))
    return np.asarray(lower[:-1] + upper[:-1])


def region_hull_stats(net: RoadNetwork, region_vertices: list[np.ndarray]) -> pd.DataFrame:
    """Per region: convex-hull area (km²) and max diameter (km)."""
    areas, diams = [], []
    for verts in region_vertices:
        pts = net.xy[verts]
        hull = _convex_hull(pts)
        if len(hull) < 3:
            area = 0.0
        else:
            x, y = hull[:, 0], hull[:, 1]
            area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 1e6
        if len(hull) >= 2:
            d = np.linalg.norm(hull[:, None, :] - hull[None, :, :], axis=2).max() / 1e3
        else:
            d = 0.0
        areas.append(area)
        diams.append(d)
    return pd.DataFrame({"area_km2": areas, "diam_km": diams})


def region_size_table(
    net: RoadNetwork,
    region_vertices: list[np.ndarray],
    edges_km2: list[float] = (0.0, 2.0, 5.0, 10.0),
) -> pd.DataFrame:
    """Table IV: per area bucket, number of regions, percentage, max diameter."""
    stats = region_hull_stats(net, region_vertices)
    labels, rows = [], []
    buckets = list(zip(edges_km2[:-1], edges_km2[1:])) + [(edges_km2[-1], np.inf)]
    for bi, (lo, hi) in enumerate(buckets):
        # First bucket is closed at 0 so zero-area (collinear/singleton)
        # regions are counted rather than silently dropped.
        lo_ok = stats.area_km2 >= lo if bi == 0 else stats.area_km2 > lo
        sel = stats[lo_ok & (stats.area_km2 <= hi)] if np.isfinite(hi) else stats[lo_ok]
        label = f"({lo:g},{hi:g}]" if np.isfinite(hi) else f">{lo:g}"
        labels.append(label)
        rows.append(
            {
                "bucket_km2": label,
                "n_regions": len(sel),
                "pct": round(100 * len(sel) / max(1, len(stats)), 2),
                "max_diam_km": round(float(sel.diam_km.max()) if len(sel) else 0.0, 2),
            }
        )
    return pd.DataFrame(rows)
