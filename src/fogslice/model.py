"""Domain types for the sliced fog network and per-slot agreement validation.

All energy quantities are integer units: one unit of energy activates one
processing unit for one slot (after dividing by the node's ``unit_energy``).
Response times are seconds, arrival and service rates are requests/second.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import queueing

TOL = 1e-9


class DimensionMismatch(ValueError):
    """Structural shape error, distinct from a constraint violation."""


def frozen_array(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only array, leaving the caller's own array writeable.

    ``np.asarray`` returns the caller's array itself, or a view of it, when
    the dtype already fits; such an array is copied if it is writeable.
    One that is already read-only, like a column of a spec's frozen
    matrix, is kept as it is.
    """
    arr = np.asarray(value, dtype=dtype)
    if arr.flags.writeable:
        if arr is value or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


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
        # written so that NaN fails each test
        if not 0 < self.deadline < np.inf:
            raise ValueError(f"service {self.name!r}: deadline must be finite and > 0")
        if not 0 <= self.reward < np.inf:
            raise ValueError(f"service {self.name!r}: reward must be finite and >= 0")
        if not 0 < self.unit_rate < np.inf:
            raise ValueError(f"service {self.name!r}: unit_rate must be finite and > 0")


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
        if not 0 < self.rate_factor < np.inf:
            raise ValueError("rate_factor must be finite and > 0")


class NetworkArrays(NamedTuple):
    """A network's fixed per-node and per-service figures as read-only arrays."""

    unit_energy: np.ndarray  # (n, 1) energy units per activated processing unit
    unit_rates: np.ndarray  # (n, K) rate of one activated unit, requests/s
    max_units: np.ndarray  # (n, 1)
    forward: np.ndarray  # (n, n) bool: sender i may place workload on m (m == i or a neighbor)
    closed: np.ndarray  # (K, n, n) bool: forwarding edges whose round trip alone meets the deadline
    deadlines: np.ndarray  # (K, 1)
    rewards: np.ndarray  # (K,)


@dataclass(frozen=True)
class NetworkSpec:
    """Services, nodes and the forwarding graph they may use.

    ``neighbors[i]`` is the set of destinations node i may forward to
    (sender side; the relation need not be symmetric).  ``rtt[i, j]`` is the
    round-trip time in seconds between i and j, with ``rtt[i, i] == 0`` and
    every entry >= 0 (the water-fill's price search relies on it).
    """

    services: tuple[ServiceTypeSpec, ...]
    nodes: tuple[FogNodeSpec, ...]
    neighbors: tuple[frozenset[int], ...]
    rtt: np.ndarray

    def __post_init__(self):
        n = len(self.nodes)
        if len(self.neighbors) != n:
            raise DimensionMismatch("neighbors must have one entry per node")
        rtt = frozen_array(self.rtt, dtype=float)
        if rtt.shape != (n, n):
            raise DimensionMismatch(f"rtt must be {n}x{n}, got {rtt.shape}")
        if np.any(np.diag(rtt) != 0.0):
            raise ValueError("rtt diagonal must be zero")
        if not np.all(rtt >= 0.0):
            raise ValueError("rtt entries must be >= 0 (negative or NaN round trips are not delays)")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if not isinstance(j, (int, np.integer)) or not 0 <= j < n or j == i:
                    raise ValueError(f"invalid neighbor {j} for node {i}")
        object.__setattr__(self, "rtt", rtt)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_services(self) -> int:
        return len(self.services)

    @functools.cached_property
    def arrays(self) -> NetworkArrays:
        """The fixed figures the validator reads, built once per network."""
        n = self.n_nodes
        forward = np.eye(n, dtype=bool)
        for i, nbrs in enumerate(self.neighbors):
            forward[i, list(nbrs)] = True
        deadlines = np.array([[s.deadline] for s in self.services])
        arrays = NetworkArrays(
            unit_energy=np.array([[nd.unit_energy] for nd in self.nodes]),
            unit_rates=np.array(
                [[s.unit_rate * nd.rate_factor for s in self.services] for nd in self.nodes]
            ),
            max_units=np.array([[nd.max_units] for nd in self.nodes]),
            forward=forward,
            # the zero diagonal never meets a deadline, which is > 0
            closed=forward & (self.rtt >= deadlines[:, :, None]),
            deadlines=deadlines,
            rewards=np.array([s.reward for s in self.services]),
        )
        for arr in arrays:
            arr.setflags(write=False)
        return arrays


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
        battery = frozen_array(self.battery)
        arrivals = frozen_array(self.arrivals, dtype=float)
        harvested = frozen_array(self.harvested_prev)
        if arrivals.ndim != 2:
            raise DimensionMismatch("arrivals must be 2-D (nodes x services)")
        if battery.shape != (arrivals.shape[0],) or harvested.shape != battery.shape:
            raise DimensionMismatch("battery/harvested_prev must be 1-D per node")
        if np.any(arrivals < 0):
            raise ValueError("arrival rates must be >= 0")
        object.__setattr__(self, "battery", battery)
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "harvested_prev", harvested)


@dataclass(frozen=True, slots=True)
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
        energy = frozen_array(self.energy)
        offload = frozen_array(self.offload, dtype=float)
        rewards = frozen_array(self.rewards, dtype=float)
        if energy.ndim != 2:
            raise DimensionMismatch("energy must be 2-D (nodes x services)")
        n, k = energy.shape
        if offload.shape != (k, n, n):
            raise DimensionMismatch(f"offload must be ({k},{n},{n}), got {offload.shape}")
        if rewards.shape != (n, k):
            raise DimensionMismatch(f"rewards must be ({n},{k}), got {rewards.shape}")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "offload", offload)
        object.__setattr__(self, "rewards", rewards)

    def total_rewards(self) -> np.ndarray:
        return self.rewards.sum(axis=1)

    def consumed(self) -> np.ndarray:
        return self.energy.sum(axis=1)


@dataclass(frozen=True, slots=True)
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
    return np.asarray(energy) // network.arrays.unit_energy


def capacities(network: NetworkSpec, energy: np.ndarray) -> np.ndarray:
    """Service capacity w * p per node per service (n x K), requests/s."""
    arrays = network.arrays
    return queueing.capacity(arrays.unit_rates, np.asarray(energy), arrays.unit_energy)


def validate_agreement(
    network: NetworkSpec,
    state: SlotState,
    agreement: SlicingAgreement,
) -> list[Violation]:
    """Check an agreement against every per-slot constraint.

    Returns an empty list iff the agreement is feasible: per-destination
    load within activated capacity, offload rows within the forwarding
    graph, off edges whose round trip alone meets the deadline, and
    summing to at most one, committed energy within the battery
    and the per-slice unit cap, every response time within its service
    deadline, and recorded rewards consistent with the offloaded workload.
    Shape errors raise DimensionMismatch instead of being reported.

    Each check is one array verdict over all nodes and services, and
    violations are built only from flagged entries, in this order: energy
    by node; per service, offload rows by sender, then capacity by
    destination; deadlines by service and sender; rewards by node and
    service.
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

    arrays = network.arrays
    units = activated_units(network, energy)
    caps = capacities(network, energy)
    offload, arrivals = agreement.offload, state.arrivals
    loads = np.empty((k, n))
    responses = np.empty((k, n))
    for s in range(k):
        alpha, lam = offload[s], arrivals[:, s]
        loads[s] = alpha.T @ lam  # aggregate inbound per destination
        responses[s] = queueing.response_times(alpha, lam, caps[:, s], network.rtt)
    row_sums = offload.sum(axis=2)  # (K, n)

    # (n,) and (n, K) verdicts on the committed energy
    negative_energy = (energy < 0).any(axis=1)
    used = energy.sum(axis=1)
    over_battery = used > state.battery + TOL
    over_units = units > arrays.max_units
    # (K, n) and (K, n, n) verdicts on the offload rows; a request forwarded
    # over an edge whose round trip alone meets the deadline is late however
    # small its share of the mix
    negative_share = (offload < -TOL).any(axis=2)
    stray = (np.abs(offload) > TOL) & ~arrays.forward
    closed = (offload > TOL) & arrays.closed
    over_one = row_sums > 1.0 + TOL
    over_capacity = loads > caps.T + TOL
    # senders placing any workload whose response is unstable or late
    in_time = np.isfinite(responses) & (responses <= arrays.deadlines + TOL)
    late = ~(row_sums <= TOL) & ~in_time
    expected = arrays.rewards * (row_sums.T * arrivals)
    mismatched = np.abs(expected - agreement.rewards) > 1e-6
    bad_node = negative_energy | over_battery | over_units.any(axis=1)
    bad_row = negative_share | stray.any(axis=2) | closed.any(axis=2) | over_one
    if not (bad_node.any() or (bad_row | over_capacity | late).any() or mismatched.any()):
        return violations

    for i in np.flatnonzero(bad_node).tolist():
        if negative_energy[i]:
            s = int(np.argmin(energy[i]))
            violations.append(Violation("energy_budget", i, s, f"e={energy[i, s]} < 0"))
        if over_battery[i]:
            detail = f"committed {int(used[i])} > battery {state.battery[i]}"
            violations.append(Violation("energy_budget", i, None, detail))
        for s in np.flatnonzero(over_units[i]).tolist():
            violations.append(
                Violation(
                    "unit_cap", i, s, f"{units[i, s]} units > max {network.nodes[i].max_units}"
                )
            )

    for s in range(k):
        for i in np.flatnonzero(bad_row[s]).tolist():
            if negative_share[s, i]:
                violations.append(Violation("allocation", i, s, "negative offload fraction"))
            stray_to = np.flatnonzero(stray[s, i]).tolist()
            if stray_to:
                detail = f"offload outside forwarding graph: {stray_to}"
                violations.append(Violation("allocation", i, s, detail))
            closed_to = np.flatnonzero(closed[s, i]).tolist()
            if closed_to:
                detail = f"offload over edges with rtt >= deadline: {closed_to}"
                violations.append(Violation("allocation", i, s, detail))
            if over_one[s, i]:
                violations.append(
                    Violation("allocation", i, s, f"row sum {row_sums[s, i]:.6f} > 1")
                )
        for m in np.flatnonzero(over_capacity[s]).tolist():
            violations.append(
                Violation(
                    "capacity", m, s, f"load {loads[s, m]:.6f} > capacity {caps[m, s]:.6f}"
                )
            )

    for s in range(k):
        theta = network.services[s].deadline
        for i in np.flatnonzero(late[s]).tolist():
            pi = responses[s, i]
            if not np.isfinite(pi):
                violations.append(Violation("deadline", i, s, "unstable destination"))
            else:
                violations.append(
                    Violation("deadline", i, s, f"response {pi:.6f} s > deadline {theta:.6f} s")
                )

    for i, s in np.argwhere(mismatched):
        violations.append(
            Violation(
                "reward_mismatch",
                int(i),
                int(s),
                f"recorded {agreement.rewards[i, s]:.8f} != earned {expected[i, s]:.8f}",
            )
        )
    return violations
