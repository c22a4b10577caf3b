"""Domain types for the sliced fog network and per-slot agreement validation.

All energy quantities are integer units: one unit of energy activates one
processing unit for one slot (after dividing by the node's ``unit_energy``).
Response times are seconds, arrival and service rates are requests/second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import queueing

TOL = 1e-9


class DimensionMismatch(ValueError):
    """Structural shape error, distinct from a constraint violation."""


@dataclass(frozen=True)
class ServiceTypeSpec:
    """One service class hosted by the network.

    Attributes:
        name: Human-readable identifier, unique within a network.
        deadline: Tolerable response time in seconds (> 0).
        reward: Payment per admitted request that meets the deadline (>= 0).
        unit_rate: Service rate of one activated processing unit, requests/s.
    """

    name: str
    deadline: float
    reward: float
    unit_rate: float

    def __post_init__(self):
        if self.deadline <= 0:
            raise ValueError(f"service {self.name!r}: deadline must be > 0")
        if self.reward < 0:
            raise ValueError(f"service {self.name!r}: reward must be >= 0")
        if self.unit_rate <= 0:
            raise ValueError(f"service {self.name!r}: unit_rate must be > 0")


@dataclass(frozen=True)
class FogNodeSpec:
    """Static hardware description of one fog node.

    Attributes:
        max_units: Processing units physically present (switchable on/off).
        unit_energy: Integer energy units consumed per activated processing
            unit per slot.
        battery_cap: Battery capacity in integer energy units.
        rate_factor: Per-node multiplier applied to every service unit_rate.
        name: Optional label used in reports.
    """

    max_units: int
    unit_energy: int
    battery_cap: int
    rate_factor: float = 1.0
    name: str = ""

    def __post_init__(self):
        for attr in ("max_units", "unit_energy", "battery_cap"):
            value = getattr(self, attr)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{attr} must be an integer, got {value!r}")
        if self.max_units <= 0 or self.unit_energy <= 0:
            raise ValueError("max_units and unit_energy must be positive")
        if self.battery_cap < 0:
            raise ValueError("battery_cap must be >= 0")
        if self.rate_factor <= 0:
            raise ValueError("rate_factor must be > 0")


@dataclass(frozen=True)
class NetworkSpec:
    """Services, nodes and the forwarding graph they may use.

    ``neighbors[i]`` is the set of destinations node i may forward to
    (sender side; the relation need not be symmetric).  ``rtt[i, j]`` is the
    round-trip time in seconds between i and j, with ``rtt[i, i] == 0``.
    """

    services: tuple[ServiceTypeSpec, ...]
    nodes: tuple[FogNodeSpec, ...]
    neighbors: tuple[frozenset[int], ...]
    rtt: np.ndarray

    def __post_init__(self):
        n = len(self.nodes)
        if len(self.neighbors) != n:
            raise DimensionMismatch("neighbors must have one entry per node")
        rtt = np.asarray(self.rtt, dtype=float)
        if rtt.shape != (n, n):
            raise DimensionMismatch(f"rtt must be {n}x{n}, got {rtt.shape}")
        if np.any(np.diag(rtt) != 0.0):
            raise ValueError("rtt diagonal must be zero")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if not 0 <= j < n or j == i:
                    raise ValueError(f"invalid neighbor {j} for node {i}")
        rtt.setflags(write=False)
        object.__setattr__(self, "rtt", rtt)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_services(self) -> int:
        return len(self.services)

    def unit_rates(self) -> np.ndarray:
        """Per-node, per-service rate of one activated unit (n x K)."""
        w = np.array(
            [[s.unit_rate * nd.rate_factor for s in self.services] for nd in self.nodes]
        )
        return w


@dataclass(frozen=True)
class SlotState:
    """Environment realization a slicing round runs against.

    Attributes:
        battery: Energy stored per node at the start of the slot (integer
            units); this is the budget ceiling the slot may consume from.
        arrivals: Workload arrival rate per node per service (n x K), req/s.
        harvested_prev: Energy harvested during the previous slot, already
            banked into ``battery``.
    """

    battery: np.ndarray
    arrivals: np.ndarray
    harvested_prev: np.ndarray

    def __post_init__(self):
        battery = np.asarray(self.battery)
        arrivals = np.asarray(self.arrivals, dtype=float)
        harvested = np.asarray(self.harvested_prev)
        if arrivals.ndim != 2:
            raise DimensionMismatch("arrivals must be 2-D (nodes x services)")
        if battery.shape != (arrivals.shape[0],) or harvested.shape != battery.shape:
            raise DimensionMismatch("battery/harvested_prev must be 1-D per node")
        if np.any(arrivals < 0):
            raise ValueError("arrival rates must be >= 0")
        for arr in (battery, arrivals, harvested):
            arr.setflags(write=False)
        object.__setattr__(self, "battery", battery)
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "harvested_prev", harvested)


@dataclass(frozen=True)
class SlicingAgreement:
    """Outcome of one slicing round.

    Attributes:
        energy: Integer energy committed per node per service (n x K).  The
            support of column k is the member set of slice k.
        offload: Offload fractions per service (K x n x n); ``offload[k, i, m]``
            is the fraction of node i's type-k arrivals served at node m.
        rewards: Realized reward per node per service (n x K); the sender of
            workload keeps the payment for every request it gets served.
    """

    energy: np.ndarray
    offload: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        energy = np.asarray(self.energy)
        offload = np.asarray(self.offload, dtype=float)
        rewards = np.asarray(self.rewards, dtype=float)
        if energy.ndim != 2:
            raise DimensionMismatch("energy must be 2-D (nodes x services)")
        n, k = energy.shape
        if offload.shape != (k, n, n):
            raise DimensionMismatch(f"offload must be ({k},{n},{n}), got {offload.shape}")
        if rewards.shape != (n, k):
            raise DimensionMismatch(f"rewards must be ({n},{k}), got {rewards.shape}")
        for arr in (energy, offload, rewards):
            arr.setflags(write=False)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "offload", offload)
        object.__setattr__(self, "rewards", rewards)

    def total_rewards(self) -> np.ndarray:
        return self.rewards.sum(axis=1)

    def consumed(self) -> np.ndarray:
        return self.energy.sum(axis=1)


@dataclass(frozen=True)
class Violation:
    """One violated constraint, addressed by node and (optionally) service."""

    kind: str
    node: int
    service: int | None = None
    detail: str = ""

    def __str__(self):
        where = f"node {self.node}"
        if self.service is not None:
            where += f", service {self.service}"
        return f"[{self.kind}] {where}: {self.detail}"


def activated_units(network: NetworkSpec, energy: np.ndarray) -> np.ndarray:
    """Whole processing units activated by each energy commitment (n x K)."""
    unit_energy = np.array([nd.unit_energy for nd in network.nodes])
    return np.asarray(energy) // unit_energy[:, None]


def capacities(network: NetworkSpec, energy: np.ndarray) -> np.ndarray:
    """Service capacity w * p per node per service (n x K), requests/s."""
    unit_energy = np.array([nd.unit_energy for nd in network.nodes])
    return queueing.capacity(network.unit_rates(), np.asarray(energy), unit_energy[:, None])


def validate_agreement(
    network: NetworkSpec,
    state: SlotState,
    agreement: SlicingAgreement,
    tol: float = TOL,
) -> list[Violation]:
    """Check an agreement against every per-slot constraint.

    Returns an empty list iff the agreement is feasible: per-destination
    load within activated capacity, offload rows within the forwarding
    graph, off edges whose round trip alone meets the deadline, and
    summing to at most one, committed energy within the battery
    and the per-slice unit cap, every response time within its service
    deadline, and recorded rewards consistent with the offloaded workload.
    Shape errors raise DimensionMismatch instead of being reported.
    """
    n, k = network.n_nodes, network.n_services
    if agreement.energy.shape != (n, k):
        raise DimensionMismatch(
            f"agreement sized {agreement.energy.shape}, network is ({n},{k})"
        )
    if state.arrivals.shape != (n, k):
        raise DimensionMismatch("state does not match network shape")

    violations: list[Violation] = []
    energy = agreement.energy
    if not np.issubdtype(np.asarray(energy).dtype, np.integer):
        if np.any(np.asarray(energy) != np.floor(energy)):
            bad = np.argwhere(np.asarray(energy) != np.floor(energy))
            for i, s in bad:
                violations.append(
                    Violation("integer_energy", int(i), int(s), f"e={energy[i, s]!r}")
                )
            return violations
        energy = np.asarray(energy).astype(int)

    units = activated_units(network, energy)
    caps = capacities(network, energy)

    for i, node in enumerate(network.nodes):
        if np.any(energy[i] < 0):
            s = int(np.argmin(energy[i]))
            violations.append(Violation("energy_budget", i, s, f"e={energy[i, s]} < 0"))
        used = int(energy[i].sum())
        if used > state.battery[i] + tol:
            violations.append(
                Violation("energy_budget", i, None, f"committed {used} > battery {state.battery[i]}")
            )
        for s in range(k):
            if units[i, s] > node.max_units:
                violations.append(
                    Violation("unit_cap", i, s, f"{units[i, s]} units > max {node.max_units}")
                )

    for s in range(k):
        alpha = agreement.offload[s]
        lam = state.arrivals[:, s]
        theta = network.services[s].deadline
        for i in range(n):
            row = alpha[i]
            if np.any(row < -tol):
                violations.append(Violation("allocation", i, s, "negative offload fraction"))
            allowed = network.neighbors[i] | {i}
            stray = [m for m in range(n) if m not in allowed and abs(row[m]) > tol]
            if stray:
                violations.append(
                    Violation("allocation", i, s, f"offload outside forwarding graph: {stray}")
                )
            # A request forwarded over an edge whose round trip alone meets the
            # deadline is late however small its share of the mix.
            closed = [
                m for m in sorted(allowed - {i}) if row[m] > tol and network.rtt[i, m] >= theta
            ]
            if closed:
                violations.append(
                    Violation("allocation", i, s, f"offload over edges with rtt >= deadline: {closed}")
                )
            if row.sum() > 1.0 + tol:
                violations.append(Violation("allocation", i, s, f"row sum {row.sum():.6f} > 1"))
        load = alpha.T @ lam  # aggregate inbound per destination
        for m in range(n):
            if load[m] > caps[m, s] + tol:
                violations.append(
                    Violation("capacity", m, s, f"load {load[m]:.6f} > capacity {caps[m, s]:.6f}")
                )

    for s in range(k):
        alpha = agreement.offload[s]
        theta = network.services[s].deadline
        pis = queueing.response_times(alpha, state.arrivals[:, s], caps[:, s], network.rtt)
        for i in range(n):
            if alpha[i].sum() <= tol:
                continue
            if not np.isfinite(pis[i]):
                violations.append(Violation("deadline", i, s, "unstable destination"))
            elif pis[i] > theta + tol:
                violations.append(
                    Violation("deadline", i, s, f"response {pis[i]:.6f} s > deadline {theta:.6f} s")
                )

    expected = np.zeros((n, k))
    for s in range(k):
        served = agreement.offload[s].sum(axis=1) * state.arrivals[:, s]
        expected[:, s] = network.services[s].reward * served
    mismatched = np.argwhere(np.abs(expected - agreement.rewards) > 1e-6)
    for i, s in mismatched:
        violations.append(
            Violation(
                "reward_mismatch",
                int(i),
                int(s),
                f"recorded {agreement.rewards[i, s]:.8f} != earned {expected[i, s]:.8f}",
            )
        )
    return violations
