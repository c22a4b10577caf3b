"""Neighbor rules, rtt assignment, synthetic layouts."""

import math

import numpy as np
import pytest

from fogslice.topology import (
    ConstantRtt,
    DistanceRtt,
    KNearestRule,
    RadiusRule,
    build_neighbors,
    pairwise_distances,
    synth_topology,
)


class TestNeighborRules:
    def test_radius_rule_thresholds(self):
        pos = np.array([[0.0, 0.0], [300.0, 0.0], [900.0, 0.0]])
        neighbors, _ = build_neighbors(pos, RadiusRule(500.0))
        assert neighbors == (frozenset({1}), frozenset({0}), frozenset())

    def test_radius_complete_on_tight_cluster(self):
        # every pairwise distance 400 m, radius 500 m
        pos = np.array([[0.0, 0.0], [400.0, 0.0], [200.0, 200.0 * math.sqrt(3)]])
        d = pairwise_distances(pos)
        assert np.allclose(d[~np.eye(3, dtype=bool)], 400.0)
        neighbors, _ = build_neighbors(pos, RadiusRule(500.0))
        for i in range(3):
            assert neighbors[i] == frozenset(range(3)) - {i}

    def test_radius_symmetry(self, rng):
        for _ in range(20):
            pos = rng.uniform(0, 1500, (12, 2))
            neighbors, _ = build_neighbors(pos, RadiusRule(600.0))
            for i in range(12):
                for j in neighbors[i]:
                    assert i in neighbors[j]

    def test_knearest_tie_prefers_lower_index(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        neighbors, _ = build_neighbors(pos, KNearestRule(1))
        # middle node is equidistant from both ends
        assert neighbors == (frozenset({1}), frozenset({0}), frozenset({1}))

    def test_knearest_counts(self, rng):
        pos = rng.uniform(0, 1000, (8, 2))
        neighbors, _ = build_neighbors(pos, KNearestRule(3))
        for nbrs in neighbors:
            assert len(nbrs) == 3

    def test_knearest_can_be_asymmetric(self):
        # satellite is nearest to nobody
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [11.0, 5.0], [500.0, 0.0]])
        neighbors, _ = build_neighbors(pos, KNearestRule(1))
        assert 3 not in set().union(*neighbors)
        assert neighbors[3] != frozenset()

    def test_constant_rtt_on_edges(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0]])
        _, rtt = build_neighbors(pos, RadiusRule(500.0), ConstantRtt(0.02))
        assert rtt[0, 1] == 0.02
        assert rtt[1, 0] == 0.02
        assert rtt[0, 0] == 0.0

    def test_distance_rtt(self):
        pos = np.array([[0.0, 0.0], [1000.0, 0.0]])
        _, rtt = build_neighbors(pos, RadiusRule(2000.0), DistanceRtt(base=0.005, per_meter=1e-5))
        assert rtt[0, 1] == pytest.approx(0.005 + 0.01)

    def test_bad_rule_params(self):
        pos = np.zeros((2, 2))
        pos[1, 0] = 10.0
        with pytest.raises(ValueError):
            build_neighbors(pos, RadiusRule(0.0))
        with pytest.raises(ValueError):
            build_neighbors(pos, KNearestRule(-1))


class TestSynthTopology:
    def test_seed_determinism(self):
        a = synth_topology(30, seed=5)
        b = synth_topology(30, seed=5)
        assert np.array_equal(a, b)
        c = synth_topology(30, seed=6)
        assert not np.array_equal(a, c)

    def test_single_node_at_center(self):
        pos = synth_topology(1, seed=0)
        assert pos.shape == (1, 2)
        assert np.allclose(pos, 0.0)

    def test_urban_center_denser_than_fringe(self):
        # area density in the inner half-radius disk vs the outer annulus,
        # averaged over seeds; the urban profile concentrates the center
        ratios = []
        for seed in range(20):
            pos = synth_topology(60, seed=seed, radius_m=1000.0)
            r = np.linalg.norm(pos, axis=1)
            inner = np.sum(r <= 500.0)
            outer = np.sum(r > 500.0)
            inner_density = inner / (math.pi * 500.0**2)
            outer_density = max(outer, 1) / (math.pi * (1000.0**2 - 500.0**2))
            ratios.append(inner_density / outer_density)
        assert np.mean(ratios) >= 4.0

    def test_all_points_inside_radius(self):
        pos = synth_topology(40, seed=3, radius_m=800.0)
        assert np.all(np.linalg.norm(pos, axis=1) <= 800.0 + 1e-9)

    def test_uniform_profile_spreads(self):
        pos = synth_topology(400, seed=11, profile="uniform", radius_m=1000.0)
        r = np.linalg.norm(pos, axis=1)
        # uniform disk: median radius ~ r_max/sqrt(2)
        assert abs(np.median(r) - 1000.0 / math.sqrt(2)) < 80.0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            synth_topology(5, seed=0, profile="rural")
