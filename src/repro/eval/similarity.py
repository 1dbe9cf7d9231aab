"""Path similarity functions pSim — paper Eq. 1 and Eq. 4.

Both compare a constructed path against a ground-truth path by shared edge
length; Eq. 1 normalises by the ground-truth length, Eq. 4 by the length
of the union of both paths' edges.
"""
from __future__ import annotations

from ..roadnet.model import RoadNetwork


def edge_set(net: RoadNetwork, path: list[int]) -> set[int]:
    """Ids of the edges a vertex path traverses (empty for a single vertex)."""
    return set(net.edge_ids(path))


def psim_edges(net: RoadNetwork, gt_e: set[int], ca_e: set[int], gt_len: float) -> float:
    """Eq. 1 on edge sets, with ``gt_len`` = Σ dist over ``gt_e`` computed by
    the caller, so a ground-truth path scored many times is summed once."""
    if gt_len == 0:
        return 1.0 if not ca_e else 0.0
    # min() guards float summation-order noise pushing the ratio past 1.
    return min(1.0, sum(net.dist[e] for e in gt_e & ca_e) / gt_len)


def psim(net: RoadNetwork, gt: list[int], cand: list[int]) -> float:
    """Eq. 1: shared edge length / ground-truth path length."""
    gt_e = edge_set(net, gt)
    return psim_edges(net, gt_e, edge_set(net, cand), sum(net.dist[e] for e in gt_e))


def psim_union(net: RoadNetwork, gt: list[int], cand: list[int]) -> float:
    """Eq. 4: shared edge length / union edge length (symmetric variant)."""
    gt_e, ca_e = edge_set(net, gt), edge_set(net, cand)
    denom = sum(net.dist[e] for e in gt_e | ca_e)
    if denom == 0:
        return 1.0
    return min(1.0, sum(net.dist[e] for e in gt_e & ca_e) / denom)
