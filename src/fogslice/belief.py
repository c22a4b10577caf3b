"""Belief tracking and finite-horizon planning for partially observed agents.

An agent keeps two beliefs: a distribution over the states of an explicit
finite model of its local environment, filtered with the standard
predict-then-correct rule, and per-neighbor Dirichlet counts over a small
set of capability types (how much spare capacity a neighbor tends to
offer).  Planning assumes the local model is fully observed (each
observation reveals the next state), so the belief-MDP lookahead reduces
to backward induction over states: one state-value vector per depth,
from which any belief's action values follow by a weighted sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import frozen_array

ROW_TOL = 1e-9
# Action values within this of the best count as tied; so do action costs.
TIE_TOL = 1e-9


class ImpossibleObservation(ValueError):
    """The observation has zero likelihood under the current belief."""


@dataclass(frozen=True)
class TypeSpace:
    """Quantized capability types for a neighbor, by spare whole units."""

    labels: tuple[str, ...]
    spare_units: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.spare_units) or not self.labels:
            raise ValueError("labels and spare_units must align and be non-empty")
        if any(u < 0 for u in self.spare_units):
            raise ValueError("spare units must be >= 0")
        if list(self.spare_units) != sorted(self.spare_units):
            raise ValueError("spare_units must be sorted ascending")

    @classmethod
    def default(cls) -> "TypeSpace":
        return cls(("deficit", "neutral", "surplus"), (0, 1, 3))

    @property
    def n_types(self) -> int:
        return len(self.labels)

    def classify(self, spare: float) -> int:
        """Index of the nearest type level; ties go to the lower index."""
        diffs = [abs(spare - u) for u in self.spare_units]
        return int(np.argmin(diffs))


@dataclass(frozen=True)
class FinitePomdp:
    """Explicit finite model: T (A,S,S), Theta (A,S,O), R (S,A)."""

    states: tuple
    actions: tuple
    observations: tuple
    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    gamma: float = 0.9

    def __post_init__(self):
        s_n, a_n, o_n = len(self.states), len(self.actions), len(self.observations)
        t = frozen_array(self.transition, dtype=float)
        th = frozen_array(self.observation, dtype=float)
        r = frozen_array(self.reward, dtype=float)
        if t.shape != (a_n, s_n, s_n):
            raise ValueError(f"transition must be ({a_n},{s_n},{s_n})")
        if th.shape != (a_n, s_n, o_n):
            raise ValueError(f"observation must be ({a_n},{s_n},{o_n})")
        if r.shape != (s_n, a_n):
            raise ValueError(f"reward must be ({s_n},{a_n})")
        if np.any(t < -ROW_TOL) or np.any(np.abs(t.sum(axis=2) - 1.0) > 1e-6):
            raise ValueError("transition rows must be stochastic")
        if np.any(th < -ROW_TOL) or np.any(np.abs(th.sum(axis=2) - 1.0) > 1e-6):
            raise ValueError("observation rows must be stochastic")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0, 1)")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "observation", th)
        object.__setattr__(self, "reward", r)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)


def update_env_belief(
    model: FinitePomdp, env: np.ndarray, action_idx: int, obs_idx: int
) -> np.ndarray:
    """Filtered posterior after taking an action and seeing an observation.

    Raises:
        ImpossibleObservation: If the observation has zero likelihood; the
            caller's belief is left as it was.
    """
    env = np.asarray(env, dtype=float)
    predicted = model.transition[action_idx].T @ env
    joint = model.observation[action_idx, :, obs_idx] * predicted
    z = joint.sum()
    if z <= 1e-300:
        raise ImpossibleObservation(
            f"observation {model.observations[obs_idx]!r} has zero likelihood"
        )
    return joint / z


def update_type_belief(counts: np.ndarray, neighbor_idx: int, type_idx: int) -> np.ndarray:
    """Conjugate count update after observing one realized capability."""
    counts = np.asarray(counts, dtype=float).copy()
    counts[neighbor_idx, type_idx] += 1.0
    return counts


def type_profile_rewards(
    reward_by_profile: np.ndarray, profiles: list[tuple[int, ...]], counts: np.ndarray
) -> np.ndarray:
    """Average (S, A) reward over neighbor-type profiles weighted by belief.

    reward_by_profile: (P, S, A) with one slab per profile in ``profiles``;
    a profile assigns one type index per neighbor and its probability is
    the product of the per-neighbor Dirichlet means.
    """
    reward_by_profile = np.asarray(reward_by_profile, dtype=float)
    counts = np.asarray(counts, dtype=float)
    means = counts / counts.sum(axis=1, keepdims=True)
    out = np.zeros(reward_by_profile.shape[1:])
    for slab, profile in zip(reward_by_profile, profiles):
        p = 1.0
        for j, t in enumerate(profile):
            p *= means[j, t]
        out += p * slab
    return out


def enumerate_profiles(n_neighbors: int, n_types: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n_types), repeat=n_neighbors))


def _check_fully_observed(model: FinitePomdp) -> None:
    s_n = model.n_states
    identity = np.broadcast_to(np.eye(s_n), (model.n_actions, s_n, s_n))
    if not np.array_equal(model.observation, identity):
        raise ValueError(
            "planning needs a fully observed model: the observation tensor "
            "must be the identity over states for every action"
        )


def _state_values(model: FinitePomdp, depth: int, cache: dict) -> np.ndarray:
    """V_depth(s) by backward induction; ``cache`` maps depth to V vectors."""
    v = cache.setdefault(0, model.reward.max(axis=1))
    for d in range(1, depth + 1):
        if d not in cache:
            cache[d] = (model.reward + model.gamma * (model.transition @ v).T).max(axis=1)
        v = cache[d]
    return v


def _action_values(model: FinitePomdp, env, depth: int, cache: dict | None) -> np.ndarray:
    """q(b, a) = b.R[:, a] + gamma * sum_s b(s) (T_a V_{depth-1})(s)."""
    _check_fully_observed(model)
    env = np.asarray(env, dtype=float)
    q = env @ model.reward
    if depth > 0:
        v = _state_values(model, depth - 1, {} if cache is None else cache)
        q = q + model.gamma * ((model.transition @ v) @ env)
    return q


def bellman_value(
    model: FinitePomdp, env: np.ndarray, depth: int, cache: dict | None = None
) -> float:
    """Optimal finite-horizon value of a belief over a fully observed model.

    Depth 0 is the best immediate expected reward; each further level adds
    one discounted step of backward induction over states.  Because the
    next state is observed, a belief's value is its best action's
    belief-weighted state Q value, which is exact for mixed beliefs too.
    ``cache`` maps depth to state-value vectors and may be shared across
    calls on the same model.

    Raises:
        ValueError: If the model's observations do not reveal the state.
    """
    return float(_action_values(model, env, depth, cache).max())


def select_action(
    model: FinitePomdp,
    env: np.ndarray,
    depth: int,
    action_costs: np.ndarray | None = None,
) -> int:
    """Best action index at the given depth; ties prefer the cheaper action.

    ``action_costs`` orders equally-valued actions (typically energy
    spent); remaining ties go to the lower index.

    Raises:
        ValueError: If the model's observations do not reveal the state.
    """
    q = _action_values(model, env, depth, None)
    best = q.max()
    candidates = [a for a in range(model.n_actions) if q[a] >= best - TIE_TOL]
    if action_costs is not None:
        costs = np.asarray(action_costs, dtype=float)
        cheapest = min(costs[a] for a in candidates)
        candidates = [a for a in candidates if costs[a] <= cheapest + TIE_TOL]
    return candidates[0]
