"""Road-network model: the weighted graph G = (V, E, W) of Section III.

The paper's road network carries four weight functions — distance (DI),
travel time (TT), fuel consumption (FC) and road type (RT). We store an
undirected graph as flat numpy arrays plus a CSR adjacency, and the whole
structure pickles cheaply for ``SparkContext.broadcast``. The lookups that
searches and path scoring need — adjacency lists per Alg. 2 slave gate
and an edge-id map — are built lazily on each copy and never pickled.

Road types follow the six OpenStreetMap classes the paper uses
(Sec. VII-A): motorway, trunk, primary, secondary, tertiary, residential.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

# Road-type vocabulary (index == code used throughout the repo).
ROAD_TYPES = ["motorway", "trunk", "primary", "secondary", "tertiary", "residential"]
RT_CODE = {name: i for i, name in enumerate(ROAD_TYPES)}

# Free-flow speed per road type (km/h) — drives TT and FC.
SPEED_KMH = np.array([110.0, 90.0, 70.0, 60.0, 50.0, 30.0])

# Peak-hour congestion factor per road type: arterials congest most.
PEAK_FACTOR = np.array([1.10, 1.20, 1.50, 1.50, 1.30, 1.10])

# Fuel model (EcoMark substitution, see DESIGN.md §3): litres per km is a
# quadratic in deviation from an optimal cruise speed, so FC-optimal routing
# prefers mid-speed arterials over both motorways and residential streets.
_FC_BASE = 0.05
_FC_QUAD = 2.0e-5
_FC_V_OPT = 65.0

COSTS = ["DI", "TT", "FC"]  # master-dimension travel-cost features


def fuel_per_km(speed_kmh: np.ndarray) -> np.ndarray:
    """Litres of fuel per km at a given cruise speed."""
    return _FC_BASE + _FC_QUAD * (speed_kmh - _FC_V_OPT) ** 2


@dataclass
class RoadNetwork:
    """Undirected road network with CSR adjacency.

    Attributes
    ----------
    xy : (n, 2) float64 — planar vertex coordinates in metres.
    eu, ev : (m,) int32 — endpoints of each undirected edge (stored once).
    dist : (m,) float64 — edge length in metres (DI weight).
    rt : (m,) int8 — road-type code, index into ``ROAD_TYPES``.
    indptr, nbr, nbr_edge : CSR adjacency; ``nbr[indptr[v]:indptr[v+1]]``
        are v's neighbours and ``nbr_edge`` the corresponding edge ids.

    Derived lookups (``edge_id``, the ``adjacency`` cache) are cached
    properties: not dataclass fields, so not compared, and left out of
    pickles by ``__getstate__``.
    """

    xy: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    dist: np.ndarray
    rt: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    nbr_edge: np.ndarray

    # -- construction -----------------------------------------------------
    @classmethod
    def from_edges(
        cls, xy: np.ndarray, eu: np.ndarray, ev: np.ndarray, dist: np.ndarray, rt: np.ndarray
    ) -> "RoadNetwork":
        n = len(xy)
        eu = np.asarray(eu, dtype=np.int32)
        ev = np.asarray(ev, dtype=np.int32)
        heads = np.concatenate([eu, ev])
        tails = np.concatenate([ev, eu])
        eid = np.concatenate([np.arange(len(eu)), np.arange(len(eu))]).astype(np.int32)
        order = np.argsort(heads, kind="stable")
        heads, tails, eid = heads[order], tails[order], eid[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(
            xy=np.asarray(xy, dtype=np.float64),
            eu=eu,
            ev=ev,
            dist=np.asarray(dist, dtype=np.float64),
            rt=np.asarray(rt, dtype=np.int8),
            indptr=indptr,
            nbr=tails.astype(np.int32),
            nbr_edge=eid,
        )

    # -- sizes ------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.xy)

    @property
    def n_edges(self) -> int:
        return len(self.eu)

    # -- weight functions W ----------------------------------------------
    def speed(self) -> np.ndarray:
        """Free-flow speed (km/h) per edge."""
        return SPEED_KMH[self.rt]

    def travel_time(self, peak: bool = False) -> np.ndarray:
        """TT weight: seconds per edge; peak hours congest arterials."""
        tt = self.dist / (self.speed() / 3.6)
        return tt * PEAK_FACTOR[self.rt] if peak else tt

    def fuel(self) -> np.ndarray:
        """FC weight: litres per edge (quadratic speed model)."""
        return (self.dist / 1000.0) * fuel_per_km(self.speed())

    def weights(self, cost: str, peak: bool = False) -> np.ndarray:
        """Per-edge weight array for a master cost feature DI/TT/FC."""
        if cost == "DI":
            return self.dist
        if cost == "TT":
            return self.travel_time(peak)
        if cost == "FC":
            return self.fuel()
        raise ValueError(f"unknown cost feature {cost!r}")

    # -- neighbourhood ----------------------------------------------------
    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour vertices, incident edge ids) of vertex v."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.nbr_edge[lo:hi]

    @cached_property
    def edge_id(self) -> dict[tuple[int, int], int]:
        """(u, v) → id of the edge joining them, both directions.

        Between parallel edges the first in CSR order wins.
        """
        out: dict[tuple[int, int], int] = {}
        ind, nbr, eid = self.indptr.tolist(), self.nbr.tolist(), self.nbr_edge.tolist()
        for u in range(self.n_vertices):
            for k in range(ind[u], ind[u + 1]):
                out.setdefault((u, nbr[k]), eid[k])
        return out

    def edge_ids(self, path: list[int]) -> list[int]:
        """Edge ids traversed by a vertex path; ValueError on a non-adjacent pair."""
        eid = self.edge_id
        try:
            return [eid[ab] for ab in zip(path, path[1:])]
        except KeyError as err:
            a, b = err.args[0]
            raise ValueError(f"no edge between {a} and {b}") from None

    def path_edges(self, path: list[int]) -> np.ndarray:
        """Edge ids traversed by a vertex path, as an index array."""
        return np.asarray(self.edge_ids(path), dtype=np.int64)

    def path_length(self, path: list[int]) -> float:
        """Total length (metres) of a vertex path."""
        if len(path) < 2:
            return 0.0
        return float(self.dist[self.path_edges(path)].sum())

    # -- search adjacency ---------------------------------------------------
    @cached_property
    def _adjacency_cache(self) -> dict[int | None, list[list[tuple[int, int]]]]:
        return {}

    def adjacency(self, gate_rt: int | None = None) -> list[list[tuple[int, int]]]:
        """``adj[u]`` = [(neighbour, id of the joining edge), …] in CSR order.

        With ``gate_rt``, a vertex that has an incident edge of road type
        ``gate_rt`` keeps only those edges (the slave gate of the paper's
        Alg. 2, lines 8–11); other vertices keep all of theirs. Built once
        per gate and cached. Weights are not baked in: routers such as TRIP
        derive a new weight array per query, and one list per array would
        cost a build each.
        """
        cache = self._adjacency_cache
        if gate_rt not in cache:
            keep = np.ones(len(self.nbr), dtype=bool)
            counts = np.diff(self.indptr)
            if gate_rt is not None:
                row = np.repeat(np.arange(self.n_vertices), counts)  # CSR entry → vertex
                sat = self.rt[self.nbr_edge] == gate_rt
                gated = np.zeros(self.n_vertices, dtype=bool)
                gated[row[sat]] = True
                keep = sat | ~gated[row]
                counts = np.bincount(row[keep], minlength=self.n_vertices)
            pairs = list(zip(self.nbr[keep].tolist(), self.nbr_edge[keep].tolist()))
            ind = np.concatenate([[0], np.cumsum(counts)]).tolist()
            cache[gate_rt] = [pairs[lo:hi] for lo, hi in zip(ind, ind[1:])]
        return cache[gate_rt]

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- Spark interop ----------------------------------------------------
    def vertices_df(self, spark: SparkSession) -> DataFrame:
        pdf = pd.DataFrame(
            {"vid": np.arange(self.n_vertices, dtype=np.int64), "x": self.xy[:, 0], "y": self.xy[:, 1]}
        )
        return spark.createDataFrame(pdf)

    def edges_df(self, spark: SparkSession) -> DataFrame:
        pdf = pd.DataFrame(
            {
                "eid": np.arange(self.n_edges, dtype=np.int64),
                "u": self.eu.astype(np.int64),
                "v": self.ev.astype(np.int64),
                "dist": self.dist,
                "rt": self.rt.astype(np.int32),
                "tt": self.travel_time(),
                "fc": self.fuel(),
            }
        )
        return spark.createDataFrame(pdf)

    # -- broadcast support -------------------------------------------------
    def to_bundle(self) -> dict:
        """Plain-dict form for SparkContext.broadcast (cheap pickling)."""
        return {
            "xy": self.xy, "eu": self.eu, "ev": self.ev, "dist": self.dist,
            "rt": self.rt, "indptr": self.indptr, "nbr": self.nbr, "nbr_edge": self.nbr_edge,
        }

    @classmethod
    def from_bundle(cls, b: dict) -> "RoadNetwork":
        return cls(**b)
