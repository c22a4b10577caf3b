"""Shared builders for the test suite.

Networks here are deliberately small; anything performance-sensitive
lives in test_acceptance with its own fixtures.
"""

import numpy as np
import pytest

from fogslice.game import SliceInstance
from fogslice.model import FogNodeSpec, NetworkSpec, ServiceTypeSpec


def make_service(deadline=0.1, reward=1.0, unit_rate=10.0, name="svc"):
    return ServiceTypeSpec(name=name, deadline=deadline, reward=reward, unit_rate=unit_rate)


def make_node(max_units=10, unit_energy=1, battery_cap=100, rate_factor=1.0, name=""):
    return FogNodeSpec(
        max_units=max_units,
        unit_energy=unit_energy,
        battery_cap=battery_cap,
        rate_factor=rate_factor,
        name=name,
    )


def make_network(n_nodes=2, services=None, nodes=None, neighbors=None, tau=0.02):
    """Small fully-connected network with constant rtt unless overridden."""
    if services is None:
        services = (make_service(),)
    if nodes is None:
        nodes = tuple(make_node(name=f"n{i}") for i in range(n_nodes))
    n = len(nodes)
    if neighbors is None:
        neighbors = tuple(frozenset(j for j in range(n) if j != i) for i in range(n))
    rtt = np.full((n, n), float(tau))
    np.fill_diagonal(rtt, 0.0)
    return NetworkSpec(services=tuple(services), nodes=nodes, neighbors=neighbors, rtt=rtt)


def make_slice(service, nodes, energy, arrivals, neighbors, rtt):
    """The slice of a one-service network built from ``nodes``, ``neighbors`` and ``rtt``."""
    net = NetworkSpec(services=(service,), nodes=tuple(nodes), neighbors=tuple(neighbors), rtt=rtt)
    return SliceInstance(net, 0, energy, arrivals)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def base_engine_config(**overrides):
    """Two-node engine config with static abundant conditions."""
    cfg = {
        "seed": 7,
        "slots": 5,
        "services": [
            {"name": "image", "deadline": 0.05, "reward": 1.0, "unit_rate": 10.0},
        ],
        # battery_cap bounds the per-slot budget and with it the energy
        # vector count the exhaustive solver path enumerates; keep it small
        "defaults": {
            "node": {"max_units": 10, "unit_energy": 1, "battery_cap": 10},
            "harvest": {"kind": "constant", "value": 5},
        },
        "nodes": [
            {
                "position": [0.0, 0.0],
                "battery_init": 10,
                "arrivals": [{"kind": "constant", "value": 30.0}],
            },
            {
                "position": [100.0, 0.0],
                "battery_init": 10,
                "arrivals": [{"kind": "constant", "value": 5.0}],
            },
        ],
        "topology": {"rule": "radius", "radius": 500.0, "rtt": {"kind": "constant", "tau0": 0.02}},
        "policy": {"kind": "radius_coop"},
        # skip the per-slot energy vector enumeration; tests that exercise
        # the exhaustive solver path override this back
        "solver": {"exhaustive_vectors": 1},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg
