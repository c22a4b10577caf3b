"""Node placement, neighbor discovery and round-trip-time assignment.

Positions are planar coordinates in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_RTT_S = 0.020
# Radial exponent of each synth_topology profile: r = radius * u**exponent.
PROFILES = {"urban": 2.0, "uniform": 0.5}


@dataclass(frozen=True)
class RadiusRule:
    """Symmetric adjacency: every pair within ``radius`` meters."""

    radius: float


@dataclass(frozen=True)
class KNearestRule:
    """Directed adjacency: each node forwards to its k nearest others.

    Distance ties are broken by lower node index.  The relation is not
    symmetric; only the sender side is ever consulted.
    """

    k: int


@dataclass(frozen=True)
class ConstantRtt:
    tau0: float = DEFAULT_RTT_S


@dataclass(frozen=True)
class DistanceRtt:
    """RTT grows linearly with distance: base + per_meter * d."""

    base: float
    per_meter: float


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def nearest_first(dist: np.ndarray, i: int, candidates) -> list[int]:
    """``candidates`` ordered by their distance from node ``i``, ties to the lower index."""
    return sorted(candidates, key=lambda j: (dist[i, j], j))


def build_neighbors(
    positions: np.ndarray,
    rule: RadiusRule | KNearestRule,
    rtt: ConstantRtt | DistanceRtt = ConstantRtt(),
) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
    """The forwarding graph and RTT matrix for a set of positions.

    Returns ``(neighbors, rtt)``, the two fields ``NetworkSpec`` takes:
    node i's forwarding targets, and the symmetric round trips with a zero
    diagonal.
    """
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    dist = pairwise_distances(pos)
    if isinstance(rule, RadiusRule):
        if rule.radius <= 0:
            raise ValueError("radius must be > 0")
        adj = (dist <= rule.radius) & ~np.eye(n, dtype=bool)
        neighbors = tuple(frozenset(np.flatnonzero(adj[i]).tolist()) for i in range(n))
    elif isinstance(rule, KNearestRule):
        if rule.k < 0:
            raise ValueError("k must be >= 0")
        neighbors = tuple(
            frozenset(nearest_first(dist, i, (j for j in range(n) if j != i))[: rule.k])
            for i in range(n)
        )
    else:
        raise TypeError(f"unknown neighbor rule: {rule!r}")

    if isinstance(rtt, ConstantRtt):
        rtt_matrix = np.full((n, n), float(rtt.tau0))
    elif isinstance(rtt, DistanceRtt):
        rtt_matrix = rtt.base + rtt.per_meter * dist
    else:
        raise TypeError(f"unknown rtt model: {rtt!r}")
    np.fill_diagonal(rtt_matrix, 0.0)
    return neighbors, rtt_matrix


def synth_topology(
    n: int,
    seed: int,
    profile: str = "urban",
    radius_m: float = 1000.0,
) -> np.ndarray:
    """Sample node positions with a radially varying density.

    The "urban" profile concentrates nodes toward the center (roughly 7x
    the area density of the outer annulus); "uniform" spreads them evenly
    over the disk.  Node 0 always sits at the exact center.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(n - 1)
    r = radius_m * u ** PROFILES[profile]
    angle = rng.random(n - 1) * 2.0 * math.pi
    points = np.zeros((n, 2))
    points[1:, 0] = r * np.cos(angle)
    points[1:, 1] = r * np.sin(angle)
    return points
