"""Tests for Step 2 — preference transfer via graph transduction (Sec. V-B)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import transfer
from repro.core.clustering import bottom_up_clustering
from repro.core.popularity import edge_popularity_array
from repro.core.preference import learn_t_edge_preferences
from repro.core.region_graph import build_region_graph
from repro.core.transfer import (
    AMR_DEFAULT,
    MU1_DEFAULT,
    MU2_DEFAULT,
    P_FEATURES,
    _conjugate_gradient,
    _decode,
    _one_hot,
    _pref_jaccard,
    pairwise_similarity,
    region_edge_features,
    run_transfer,
    transfer_b_edge_preferences,
    transfer_cv_experiment,
)
from repro.oracle import assert_equivalent
from repro.roadnet.generator import make_city
from repro.roadnet.model import COSTS
from repro.traj.generator import generate_trajectories, trajectories_df


# -- numerics ---------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(5, 0), (20, 1), (50, 2)])
def test_cg_solves_spd_system(n, seed):
    g = np.random.default_rng(seed)
    R = g.normal(size=(n, n))
    A = R @ R.T + n * np.eye(n)
    b = g.normal(size=n)
    x = _conjugate_gradient(A, b)
    assert np.allclose(A @ x, b, atol=1e-6)


def test_one_hot_and_decode_roundtrip():
    for master in COSTS:
        for slave in [None, 0, 3, 5]:
            y = _one_hot((master, slave))
            assert y.sum() == 2
            assert _decode(y) == (master, slave)


def test_decode_null_for_zero_row():
    assert _decode(np.zeros(P_FEATURES)) is None


@pytest.mark.parametrize(
    "p1,p2,expect",
    [
        (("DI", 1), ("DI", 1), 1.0),
        (("DI", 1), ("DI", 2), 1 / 3),
        (("DI", 1), ("TT", 2), 0.0),
        (("DI", None), ("DI", None), 1.0),
        (None, ("DI", 1), 0.0),
    ],
)
def test_pref_jaccard(p1, p2, expect):
    assert _pref_jaccard(p1, p2) == pytest.approx(expect)


# -- transduction on a hand-built graph -------------------------------------
def test_transfer_on_tiny_graph(spark):
    """Paper Fig. 7 scenario: two labeled T-edges, two B-edges; each B-edge
    must inherit the preference of its similar T-edge."""
    from repro.core.region_graph import RegionEdge, RegionGraph

    # Four regions, four region edges; geometry makes (0,1)~(2,3) similar
    # (same centroid distance) and their top-type sets identical.
    centroids = np.array([[0.0, 0], [1000, 0], [0, 5000], [1000, 5000], [8000, 0], [8000, 9000]])
    edges = {
        (0, 1): RegionEdge(0, 1, "T"),
        (2, 3): RegionEdge(2, 3, "B"),
        (0, 4): RegionEdge(0, 4, "T"),
        (4, 5): RegionEdge(4, 5, "B"),
    }
    rg = RegionGraph(
        vertex_region=np.array([]),
        region_vertices=[np.array([0])] * 6,
        region_rt=[None] * 6,
        centroids=centroids,
        top_types=[[0, 2], [5, 3], [0, 2], [5, 3], [0, 2], [0, 2]],
        transfer_centers=[[0]] * 6,
        inner_paths={},
        edges=edges,
    )
    labeled = {(0, 1): ("DI", 5), (0, 4): ("TT", 0)}
    preds, elapsed = run_transfer(spark, rg, labeled, amr=0.5)
    assert elapsed >= 0
    # (2,3) is similar to (0,1): same dis (1000 m) and same 𝔽 sets.
    assert preds[(2, 3)] == ("DI", 5)
    # (4,5) shares 𝔽 with (0,4) and is closer in dis to it than to (0,1).
    assert preds[(4, 5)] == ("TT", 0)


# -- pipeline-level -------------------------------------------------------
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
    learn_t_edge_preferences(spark, city.net, rg)
    return rg


def test_region_edge_features(spark, built):
    feat = region_edge_features(spark, built).toPandas()
    assert len(feat) == len(built.edges)
    assert (feat.dis > 0).all()
    assert feat.f.map(len).min() >= 1


def test_pairwise_similarity_oracle(spark, built):
    """The Spark crossJoin Jaccard+distance similarity vs DuckDB."""
    feat = region_edge_features(spark, built)
    out = pairwise_similarity(feat, amr=0.0).select("i", "j", "sim")
    sql = """
        SELECT a.idx AS i, b.idx AS j,
               (LEAST(a.dis, b.dis) / GREATEST(a.dis, b.dis)
                + CAST(len(list_intersect(a.f, b.f)) AS DOUBLE)
                  / GREATEST(len(list_distinct(list_concat(a.f, b.f))), 1)) / 2.0 AS sim
        FROM t a JOIN t b ON a.idx < b.idx
    """
    assert_equivalent(out, sql, t=feat.select("idx", "dis", "f"))


def test_pairwise_similarity_threshold(spark, built):
    feat = region_edge_features(spark, built)
    lo = pairwise_similarity(feat, 0.5).count()
    hi = pairwise_similarity(feat, 0.9).count()
    assert hi <= lo
    sims = pairwise_similarity(feat, 0.7).toPandas()
    assert (sims.sim >= 0.7).all() and (sims.sim <= 1.0 + 1e-9).all()


def test_transfer_fills_b_edges(spark, built):
    preds = transfer_b_edge_preferences(spark, built, amr=AMR_DEFAULT)
    b_edges = [e for e in built.edges.values() if e.kind == "B"]
    assert b_edges
    n_filled = sum(1 for e in b_edges if e.pref is not None)
    # Most B-edges should receive a transferred preference at amr=0.7.
    assert n_filled >= 0.5 * len(b_edges)
    for e in b_edges:
        if e.pref is not None:
            assert e.pref[0] in COSTS


def test_transfer_cv_experiment(spark, built):
    tbl = transfer_cv_experiment(spark, built, amr_values=(0.5, 0.7, 0.9))
    assert set(tbl.sweep) == {"partitions", "amr"}
    parts = tbl[tbl.sweep == "partitions"]
    assert list(parts.setting) == ["1X", "2X", "3X", "4X"]
    assert ((tbl.accuracy >= 0) & (tbl.accuracy <= 1)).all()
    assert ((tbl.n_rate >= 0) & (tbl.n_rate <= 1)).all()
    # More labeled partitions must not hurt accuracy much (paper Fig. 9a
    # shows monotone improvement; allow sampling noise).
    assert parts.accuracy.iloc[-1] >= parts.accuracy.iloc[0] - 0.1


def test_eq3_solution_solves_the_linear_system(spark, built, monkeypatch):
    """run_transfer's Ŷ satisfies (S + μ1·L + μ2·I)·Ŷ = S·Y (Eq. 3).

    The system is rebuilt here from the Spark similarity pairs and checked
    against ``np.linalg.solve``, which is affordable while n (the region
    edge count) is in the hundreds. Tolerances: CG stops once ‖r‖² < 1e-10,
    so each column's residual is below 1e-5 (2e-5 allows the drift between
    CG's recurrence and the true residual), and its error against the exact
    solution is at most ‖r‖ / λ_min(A), with λ_min(A) ≥ μ2.
    """
    solves = []
    cg = transfer._conjugate_gradient

    def spy(A, b):
        solves.append((A, b, cg(A, b)))
        return solves[-1][2]

    monkeypatch.setattr(transfer, "_conjugate_gradient", spy)
    labeled = {k: e.pref for k, e in built.edges.items() if e.kind == "T" and e.pref is not None}
    run_transfer(spark, built, labeled)

    keys = sorted(built.edges)
    n = len(keys)
    assert n <= 2000 and labeled
    pairs = pairwise_similarity(region_edge_features(spark, built), AMR_DEFAULT).toPandas()
    M = np.zeros((n, n))
    M[pairs.i.to_numpy(), pairs.j.to_numpy()] = pairs.sim.to_numpy()
    M = M + M.T
    L = np.diag(M.sum(axis=1)) - M
    S = np.diag([1.0 if k in labeled else 0.0 for k in keys])
    Y = np.array([_one_hot(labeled[k]) if k in labeled else np.zeros(P_FEATURES) for k in keys])
    A = S + MU1_DEFAULT * L + MU2_DEFAULT * np.eye(n)

    assert len(solves) == P_FEATURES
    Yhat = np.column_stack([x for _, _, x in solves])
    for A_used, b, _ in solves:
        np.testing.assert_allclose(A_used, A, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.column_stack([b for _, b, _ in solves]), S @ Y, rtol=0, atol=0)
    residual = np.linalg.norm(A @ Yhat - S @ Y, axis=0)
    assert residual.max() < 2e-5
    lam_min = np.linalg.eigvalsh(A).min()
    assert lam_min >= MU2_DEFAULT * (1 - 1e-9)
    error = np.linalg.norm(Yhat - np.linalg.solve(A, S @ Y), axis=0)
    assert (error <= residual / lam_min + 1e-12).all()
