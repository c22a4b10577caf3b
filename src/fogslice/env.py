"""Markov environment: harvest and arrival chains, battery dynamics, sampling.

Per-node energy harvest and per-service workload arrivals each follow a
finite Markov chain; chains are mutually independent, so each step draws
every chain's next level from its own transition row.  Batteries evolve
deterministically given consumption: energy harvested during a slot
becomes usable the next slot, and a slot can never consume more than the
battery held at its start.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

ROW_TOL = 1e-9


class CausalityViolation(ValueError):
    """A slot tried to consume energy it does not hold yet."""


@dataclass(frozen=True)
class MarkovChainSpec:
    """Finite Markov chain over scalar levels.

    Attributes:
        levels: Value attached to each chain state (harvest units or req/s).
        transition: Row-stochastic matrix; transition[i, j] is the
            probability of moving from state i to state j.
        cumulative: Running sums of each transition row as Python floats,
            built once here so that a draw only bisects them.
    """

    levels: tuple[float, ...]
    transition: np.ndarray
    cumulative: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy: freezing the caller's own matrix would make it read-only
        trans = np.array(self.transition, dtype=float)
        n = len(self.levels)
        if trans.shape != (n, n):
            raise ValueError(f"transition must be {n}x{n}, got {trans.shape}")
        # written so that NaN fails both tests
        if not np.all(trans >= 0):
            raise ValueError("transition entries must be >= 0")
        if not np.all(np.abs(trans.sum(axis=1) - 1.0) <= ROW_TOL):
            raise ValueError("transition rows must sum to 1")
        trans.setflags(write=False)
        object.__setattr__(self, "transition", trans)
        cumulative = tuple(tuple(np.cumsum(row).tolist()) for row in trans)
        object.__setattr__(self, "cumulative", cumulative)
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))

    @property
    def n_states(self) -> int:
        return len(self.levels)

    def stationary(self) -> np.ndarray:
        """Stationary distribution, solved from pi P = pi, sum(pi) = 1."""
        n = self.n_states
        a = np.vstack([self.transition.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    @classmethod
    @functools.cache
    def constant(cls, value: float) -> "MarkovChainSpec":
        return cls(levels=(value,), transition=np.array([[1.0]]))


# Chains are immutable, so the factories below and ``constant`` return one
# shared chain per parameter set: the nodes of a generated network share their
# chains rather than each holding its own copy of the matrix and running sums.


@functools.cache
def uniform_harvest(high: int, low: int = 0) -> MarkovChainSpec:
    """Harvest chain drawing uniformly from {low, ..., high} each slot."""
    if high < low:
        raise ValueError("high must be >= low")
    n = high - low + 1
    levels = tuple(range(low, high + 1))
    return MarkovChainSpec(levels=levels, transition=np.full((n, n), 1.0 / n))


@functools.cache
def bursty_arrivals(low_rate: float, high_rate: float, persistence: float) -> MarkovChainSpec:
    """Two-level arrival chain that stays in its current level with the given probability."""
    if not 0.0 <= persistence <= 1.0:
        raise ValueError("persistence must be in [0, 1]")
    p = persistence
    return MarkovChainSpec(
        levels=(low_rate, high_rate),
        transition=np.array([[p, 1.0 - p], [1.0 - p, p]]),
    )


@dataclass(frozen=True)
class EnvState:
    """Global environment state: chain indices plus batteries, hashable."""

    harvest_idx: tuple[int, ...]
    arrival_idx: tuple[tuple[int, ...], ...]  # per node, per service
    battery: tuple[int, ...]


@dataclass(frozen=True)
class EnvironmentSpec:
    """Chains and battery limits for every node in the network.

    ``arrivals[i][k]`` drives node i's type-k workload; work not served
    within a slot is dropped, not queued.  Every harvest and arrival level
    is >= 0.
    """

    harvest: tuple[MarkovChainSpec, ...]
    arrivals: tuple[tuple[MarkovChainSpec, ...], ...]
    battery_cap: tuple[int, ...]

    def __post_init__(self):
        if len(self.arrivals) != len(self.harvest) or len(self.battery_cap) != len(self.harvest):
            raise ValueError("harvest, arrivals and battery_cap must align per node")
        chains = [*self.harvest, *(c for node in self.arrivals for c in node)]
        if not all(level >= 0 for chain in chains for level in chain.levels):
            raise ValueError("harvest and arrival levels must be >= 0")

    @property
    def n_nodes(self) -> int:
        return len(self.harvest)

    def initial_state(self, battery_init: Iterable[int]) -> EnvState:
        battery = tuple(int(b) for b in battery_init)
        if any(b < 0 or b > cap for b, cap in zip(battery, self.battery_cap)):
            raise ValueError("initial battery out of range")
        harvest_idx = tuple(0 for _ in self.harvest)
        arrival_idx = tuple(tuple(0 for _ in per_node) for per_node in self.arrivals)
        return EnvState(harvest_idx=harvest_idx, arrival_idx=arrival_idx, battery=battery)

    def arrival_rates(self, state: EnvState) -> np.ndarray:
        """Realized arrival rate per node per service (n x K)."""
        return np.array(
            [
                [chain.levels[idx] for chain, idx in zip(per_node, idx_row)]
                for per_node, idx_row in zip(self.arrivals, state.arrival_idx)
            ]
        )

    def harvest_amounts(self, state: EnvState) -> np.ndarray:
        """Energy harvested during the slot the state describes (integer units)."""
        return np.array(
            [int(c.levels[i]) for c, i in zip(self.harvest, state.harvest_idx)]
        )


def battery_step(battery: int, harvested: int, consumed: int, cap: int) -> int:
    """Battery at the next slot: min(cap, battery + harvested - consumed).

    ``harvested`` is the energy collected during the current slot; it banks
    into the battery only after the slot, so consumption is limited by the
    battery alone.

    Raises:
        CausalityViolation: If consumed exceeds the stored battery.
    """
    if consumed < 0 or harvested < 0:
        raise ValueError("consumed and harvested must be >= 0")
    if consumed > battery:
        raise CausalityViolation(f"consumed {consumed} > battery {battery}")
    return min(int(cap), int(battery) + int(harvested) - int(consumed))


def _draw(cumulative: tuple[float, ...], rng: np.random.Generator) -> int:
    """Next state from one row's running sums: the first sum above a uniform draw.

    A row whose sum ends just below 1 can leave the draw above every sum;
    that draw goes to the last state.
    """
    return min(bisect.bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def sample_step(
    env: EnvironmentSpec,
    state: EnvState,
    consumed: np.ndarray,
    rng: np.random.Generator,
) -> EnvState:
    """Advance every chain one slot and apply the battery recursion.

    Chains are sampled in fixed order (harvest by node, then arrivals by
    node and service) so a seeded generator reproduces the episode exactly.
    """
    battery = tuple(
        battery_step(
            state.battery[i],
            int(env.harvest[i].levels[state.harvest_idx[i]]),
            int(consumed[i]),
            env.battery_cap[i],
        )
        for i in range(env.n_nodes)
    )
    harvest_idx = tuple(
        _draw(env.harvest[i].cumulative[state.harvest_idx[i]], rng)
        for i in range(env.n_nodes)
    )
    arrival_idx = tuple(
        tuple(
            _draw(chain.cumulative[state.arrival_idx[i][k]], rng)
            for k, chain in enumerate(env.arrivals[i])
        )
        for i in range(env.n_nodes)
    )
    return EnvState(harvest_idx=harvest_idx, arrival_idx=arrival_idx, battery=battery)
