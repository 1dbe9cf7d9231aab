"""Routing-preference learning for T-edges — paper Section V-A (Step 1).

A routing preference is a 2-dimensional vector ⟨master, slave⟩: master ∈
{DI, TT, FC} (travel-cost feature), slave ∈ the six road types or None
(road-condition feature). For each T-edge (R_i, R_j) with path set ℙ_ij we
solve, by the paper's coordinate-descent:

1. per master cost c, build the lowest-cost path P̂ᶜ for every ground-truth
   path's (source, destination) and score Σ pSim(P_k, P̂ᶜ_k) (Eq. 1);
   choose the best master;
2. per road-condition feature, rebuild the paths with the preference-
   modified Dijkstra (Alg. 2) under the chosen master; keep the slave only
   if it strictly improves the summed similarity.

The searches are regrouped by source vertex: the T-edge payload paths start
at far fewer vertices than there are paths. A Spark ``applyInPandas`` over
the path rows, grouped by source, grows per source one shortest-path tree
for each of the 21 preference vectors (3 masters, then 3 × 6 ⟨master,
slave⟩) and scores every path from that source under each of them. Reading
a path from a tree gives the same path as the early-terminated search (see
``roadnet/shortest_path.py``). The driver then runs the coordinate descent
per T-edge on the collected scores, in payload order. Per-path preferences
(for the Fig. 6(a) statistics) come from the same scores.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..eval.similarity import edge_set, psim_edges
from ..roadnet.model import COSTS, ROAD_TYPES, RoadNetwork
from ..roadnet.shortest_path import search, tree_path
from .region_graph import RegionGraph

SLAVES = list(range(len(ROAD_TYPES)))  # candidate slave road-type codes
# Preference vectors scored per path, in this order: the masters alone, then
# every ⟨master, slave⟩ pair master-major.
PREFS: list[tuple[str, int | None]] = [(c, None) for c in COSTS] + [(c, rt) for c in COSTS for rt in SLAVES]


def _source_sims(
    net: RoadNetwork, weights: dict[str, np.ndarray], src: int, paths: list[list[int]]
) -> list[list[float]]:
    """Eq. 1 pSim of each ground-truth path starting at ``src`` under every
    vector of ``PREFS``: one row per path.

    Each vector's shortest-path tree is grown once, until every destination
    is settled. A destination the gated (Alg. 2) tree does not reach takes
    the master tree's path, the master-only fallback of
    ``preference_dijkstra``.
    """
    dsts = {p[-1] for p in paths}
    wl = {c: w.tolist() for c, w in weights.items()}
    trees = [search(net.adjacency(rt), wl[c], src, dsts) for c, rt in PREFS]
    fallback = [trees[PREFS.index((c, None))] for c, _ in PREFS]  # each vector's master tree
    rows = []
    for gt in paths:
        d = gt[-1]
        gt_e = edge_set(net, gt)
        gt_len = sum(net.dist[e] for e in gt_e)
        row = []
        for (cost, parent), (m_cost, m_parent) in zip(trees, fallback):
            if d in cost:
                cand = tree_path(parent, d)
            elif d in m_cost:
                cand = tree_path(m_parent, d)
            else:
                row.append(0.0)
                continue
            row.append(psim_edges(net, gt_e, edge_set(net, cand), gt_len))
        rows.append(row)
    return rows


def _path_sims(net: RoadNetwork, paths: list[list[int]], weights: dict[str, np.ndarray]) -> np.ndarray:
    """``sims[k, i]``: pSim of path i under ``PREFS[k]``, trees shared per source."""
    by_src: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        by_src.setdefault(p[0], []).append(i)
    sims = np.empty((len(paths), len(PREFS)))
    for src, idx in by_src.items():
        sims[idx] = _source_sims(net, weights, src, [paths[i] for i in idx])
    return np.ascontiguousarray(sims.T)


def _descend(sims: np.ndarray) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Coordinate-descent preference fit over one path set's pSim table.

    ``sims`` is the C-contiguous (len(PREFS), n_paths) table of ``_path_sims``.
    Returns (master, slave_rt_or_None, mean pSim of the fitted preference,
    per-path individually fitted preferences).
    """
    n_paths = sims.shape[1]
    # Master dimension: score each cost feature on all paths.
    master_sims = sims[: len(COSTS)]
    master_i = int(np.argmax(master_sims.sum(axis=1)))
    master = COSTS[master_i]
    base = master_sims[master_i].copy()
    # Slave dimension: each road type under the chosen master.
    slave_sims = {rt: sims[PREFS.index((master, rt))] for rt in SLAVES}
    best_rt, best_gain = None, 0.0
    for rt, row in slave_sims.items():
        gain = row.sum() - base.sum()
        if gain > best_gain + 1e-12:
            best_rt, best_gain = rt, gain
    score = (slave_sims[best_rt] if best_rt is not None else base).mean()
    # Per-path preferences (Fig. 6(a) statistic: unique preferences per T-edge).
    per_path: list[tuple[str, int | None]] = []
    for pi in range(n_paths):
        m_i = int(np.argmax(master_sims[:, pi]))
        m = COSTS[m_i]
        b = master_sims[m_i, pi]
        s_best, s_val = None, b
        for rt in SLAVES:
            # Only the chosen master's slave rows count, as the T-edge fit
            # scores slaves under that master alone.
            if m == master and slave_sims[rt][pi] > s_val + 1e-12:
                s_best, s_val = rt, slave_sims[rt][pi]
        per_path.append((m, s_best))
    return master, best_rt, float(score), per_path


def _best_preference(
    net: RoadNetwork, paths: list[list[int]], weights: dict[str, np.ndarray]
) -> tuple[str, int | None, float, list[tuple[str, int | None]]]:
    """Coordinate-descent preference fit over a path set, in this process."""
    return _descend(_path_sims(net, paths, weights))


def t_edge_paths_df(spark: SparkSession, rg: RegionGraph) -> DataFrame:
    """DataFrame of T-edge path rows: src (first vertex), ra, rb, idx (position
    in the T-edge's payload), path, cnt."""
    rows = {"src": [], "ra": [], "rb": [], "idx": [], "path": [], "cnt": []}
    for (a, b), e in rg.edges.items():
        if e.kind != "T":
            continue
        for i, (p, c) in enumerate(e.paths):
            rows["src"].append(p[0]); rows["ra"].append(a); rows["rb"].append(b)
            rows["idx"].append(i); rows["path"].append(p); rows["cnt"].append(c)
    return spark.createDataFrame(pd.DataFrame(rows))


def learn_t_edge_preferences(
    spark: SparkSession, net: RoadNetwork, rg: RegionGraph, peak: bool = False
) -> pd.DataFrame:
    """Learn ⟨master, slave⟩ per T-edge: per-source trees in a Spark
    ``applyInPandas``, then the coordinate descent on the driver.

    Returns a pandas frame sorted by (ra, rb): ra, rb, master, slave (−1 for
    None), score, n_paths, n_unique_prefs; also writes the preferences into
    ``rg.edges``.
    """
    # The network object itself is broadcast: a reused Python worker keeps
    # it, and with it the adjacency lists and edge-id map it has built.
    bc = spark.sparkContext.broadcast(net)
    peak_flag = bool(peak)

    def score(pdf):  # untyped on purpose: pyspark's eval-type inference
        # warns on partially-hinted applyInPandas callables
        net_w = bc.value
        weights = {c: net_w.weights(c, peak=peak_flag) for c in COSTS}
        paths = [list(map(int, p)) for p in pdf["path"]]
        sims = _source_sims(net_w, weights, int(pdf["src"].iloc[0]), paths)
        return pd.DataFrame({"ra": pdf["ra"], "rb": pdf["rb"], "idx": pdf["idx"], "sims": sims})

    scored = (
        t_edge_paths_df(spark, rg)
        .select("src", "ra", "rb", "idx", "path")
        # A fixed partition count: adaptive execution would coalesce this
        # few-KB shuffle into a single task.
        .repartition(max(2, spark.sparkContext.defaultParallelism), "src")
        .groupBy("src")
        .applyInPandas(score, schema="ra long, rb long, idx long, sims array<double>")
        .toPandas()
        .sort_values(["ra", "rb", "idx"], kind="stable")
    )
    bc.unpersist()
    cols = ["ra", "rb", "master", "slave", "score", "n_paths", "n_unique_prefs"]
    rows = {c: [] for c in cols}
    for (a, b), grp in scored.groupby(["ra", "rb"], sort=True):
        sims = np.ascontiguousarray(np.stack(grp["sims"].to_list()).T)
        master, slave, fit_score, per_path = _descend(sims)
        e = rg.edges[(int(a), int(b))]
        e.pref = (master, slave)
        for c, v in zip(cols, (int(a), int(b), master, -1 if slave is None else int(slave), fit_score, sims.shape[1], len(set(per_path)))):
            rows[c].append(v)
    return pd.DataFrame(rows)


def preference_distribution(prefs: pd.DataFrame) -> pd.DataFrame:
    """Fig. 6(a) as a table: share of T-edges per #unique-preferences, and
    the distribution of learned preferences over master features."""
    uniq = (
        prefs.groupby("n_unique_prefs").size().rename("n_t_edges").reset_index()
    )
    uniq["pct"] = (100 * uniq.n_t_edges / len(prefs)).round(1)
    master = prefs.groupby("master").size().rename("n_t_edges").reset_index()
    master["pct"] = (100 * master.n_t_edges / len(prefs)).round(1)
    uniq["kind"] = "unique_prefs_per_t_edge"
    master["kind"] = "master_distribution"
    master = master.rename(columns={"master": "key"})
    uniq = uniq.rename(columns={"n_unique_prefs": "key"})
    uniq["key"] = uniq["key"].astype(str)
    return pd.concat([uniq, master], ignore_index=True)[["kind", "key", "n_t_edges", "pct"]]
