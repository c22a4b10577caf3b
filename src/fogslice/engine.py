"""Episode driver: slot loop, slicing policies, reports and parameter sweeps.

A run takes a config (YAML file or plain dict), builds the network and the
exogenous harvest/arrival chains, then repeats per slot: realize arrivals
and harvest, let the policy pick per-node energy budgets, solve the
welfare problem independently on every connected component of the
cooperation graph, validate the resulting agreement, record it, and step
the batteries and chains.  Chains are driven by their own seeded stream,
so two policies run with the same seed face identical weather and
workload.  Finite chains make the same component game recur; each
distinct one is solved once per episode and its solution reused, while
every slot's full agreement is still validated.

The ``bpomdp`` policy gives every node a small planning model of its own
battery, harvest and arrival chains plus a typed belief about what its
neighbors tend to contribute.  The node observes its own state exactly,
so it picks how much energy to withhold from the current slot by
bounded-depth backward induction over that fully observed model, with
rewards averaged over the neighbor-type belief.  All other policies offer
the full battery and rely on the solver consuming only useful units.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

from . import belief as belief_mod
from . import env as env_mod
from . import topology as topo_mod
from .game import (
    GameInstance,
    SolverOptions,
    WelfareSolution,
    lone_sender_share,
    solve_energy_split,
    solve_social_welfare,
)
from .model import (
    FogNodeSpec,
    NetworkSpec,
    ServiceTypeSpec,
    SlicingAgreement,
    SlotState,
    validate_agreement,
)
from .queueing import capacity

POLICY_KINDS = ("no_coop", "nearest_neighbor", "radius_coop", "myopic", "bpomdp")
_MAX_MIND_CELLS = 4_000_000


class ConfigError(ValueError):
    """A config value is missing, malformed, or breaks an invariant."""


class EngineInvariantError(RuntimeError):
    """A solved slot produced an agreement that fails validation."""


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    radius: float | None = None
    depth: int = 1
    gamma: float = 0.9
    helper_cap: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    slots: int
    network: NetworkSpec
    env: env_mod.EnvironmentSpec
    battery_init: np.ndarray
    positions: np.ndarray
    policy: PolicySpec
    solver: SolverOptions
    raw: dict


# ---------------------------------------------------------------------------
# Config parsing.


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer (energy is counted in whole units), got {value!r}")
    return int(value)


def _as_num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    return float(value)


def _nonneg(value, path: str, parse=_as_num):
    """``parse(value, path)``, which must be >= 0: a round trip, a chain level, a count.

    The sign is checked first, so NaN reads as "must be >= 0".
    """
    if isinstance(value, (int, float)) and not value >= 0:
        _fail(path, f"must be >= 0, got {value!r}")
    return parse(value, path)


def _positive(value, path: str) -> float:
    """``_as_num(value, path)``, which must be > 0: a radius."""
    num = _as_num(value, path)
    if not num > 0:
        _fail(path, f"must be > 0, got {num!r}")
    return num


def _discount(value, path: str) -> float:
    gamma = _as_num(value, path)
    if not 0 <= gamma < 1:
        _fail(path, f"must lie in [0, 1), got {gamma!r}")
    return gamma


def _given(cfg: dict, path: str, parsers) -> dict:
    """``parse(cfg[key], path.key)`` for each key ``cfg`` sets; the rest keep dataclass defaults."""
    return {key: parse(cfg[key], f"{path}.{key}") for key, parse in parsers if key in cfg}


# The keys each config mapping may hold; anything else is a typo or a removed
# option and is rejected rather than silently ignored.
ROOT_KEYS = ("seed", "slots", "services", "defaults", "nodes", "topology", "policy", "solver")
SERVICE_KEYS = ("name", "deadline", "reward", "unit_rate")
DEFAULTS_KEYS = ("node", "harvest", "arrivals")
NODE_KEYS = (
    "position", "battery_init", "harvest", "arrivals",
    "max_units", "unit_energy", "battery_cap", "rate_factor", "name",
)
GENERATOR_KEYS = ("count", "seed", "profile", "radius")
TOPOLOGY_KEYS = ("rule", "radius", "k", "rtt")
RTT_KEYS = ("kind", "tau0", "base", "per_meter")
POLICY_KEYS = ("kind", "radius", "depth", "gamma", "helper_cap")
SOLVER_KEYS = ("exhaustive_nodes", "exhaustive_vectors")
CHAIN_KEYS = {
    "constant": ("kind", "value"),
    "uniform": ("kind", "max", "min"),
    "bursty": ("kind", "low", "high", "persistence"),
    "levels": ("kind", "levels", "transition"),
}


def _mapping(cfg, path: str, keys) -> dict:
    """``cfg`` itself, after checking it is a mapping holding only ``keys``."""
    if not isinstance(cfg, dict):
        _fail(path, "must be a mapping")
    for key in cfg:
        if key not in keys:
            where = f"{path}.{key}" if path else str(key)
            _fail(where, f"unknown key; expected one of {', '.join(keys)}")
    return cfg


def _chain(cfg, path: str, integer_levels: bool) -> env_mod.MarkovChainSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        _fail(path, "must be a mapping with a 'kind'")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in CHAIN_KEYS:
        _fail(path, f"unknown chain kind {kind!r}")
    _mapping(cfg, path, CHAIN_KEYS[kind])
    # harvest units and arrival rates are never negative
    level = _as_int if integer_levels else _as_num
    if kind == "constant":
        return env_mod.MarkovChainSpec.constant(_nonneg(cfg.get("value"), f"{path}.value", level))
    if kind == "uniform":
        high = _nonneg(cfg.get("max"), f"{path}.max", _as_int)
        low = _nonneg(cfg.get("min", 0), f"{path}.min", _as_int)
        try:
            return env_mod.uniform_harvest(high, low)
        except ValueError as exc:
            _fail(f"{path}.max", str(exc))
    if kind == "bursty":
        low = _nonneg(cfg.get("low"), f"{path}.low")
        high = _nonneg(cfg.get("high"), f"{path}.high")
        persistence = _as_num(cfg.get("persistence"), f"{path}.persistence")
        try:
            return env_mod.bursty_arrivals(low, high, persistence)
        except ValueError as exc:
            _fail(f"{path}.persistence", str(exc))
    if kind == "levels":
        levels = cfg.get("levels")
        matrix = cfg.get("transition")
        if not isinstance(levels, list) or not isinstance(matrix, list):
            _fail(path, "'levels' and 'transition' lists are required")
        levels = [_nonneg(v, f"{path}.levels[{i}]", level) for i, v in enumerate(levels)]
        try:
            return env_mod.MarkovChainSpec(tuple(levels), np.array(matrix, dtype=float))
        except ValueError as exc:
            _fail(f"{path}.transition", str(exc))


# Image recognition and voice-to-text classes with their usual deadlines and
# per-unit rates; used whenever a config does not name its own services.
DEFAULT_SERVICES = (
    {"name": "image", "deadline": 0.050, "unit_rate": 10.0, "reward": 1.0},
    {"name": "voice", "deadline": 0.100, "unit_rate": 40.0, "reward": 1.0},
)


def _services(cfg) -> tuple[ServiceTypeSpec, ...]:
    raw = cfg.get("services", [dict(s) for s in DEFAULT_SERVICES])
    if not isinstance(raw, list) or not raw:
        _fail("services", "a non-empty list is required")
    out = []
    for i, svc in enumerate(raw):
        _mapping(svc, f"services[{i}]", SERVICE_KEYS)
        # parsed outside the try, so a parse error keeps its own path
        nums = {
            key: _as_num(svc.get(key, default), f"services[{i}].{key}")
            for key, default in (("deadline", None), ("reward", 1.0), ("unit_rate", None))
        }
        try:
            out.append(ServiceTypeSpec(name=str(svc.get("name", f"svc{i}")), **nums))
        except ValueError as exc:
            _fail(f"services[{i}]", str(exc))
    return tuple(out)


def _node_spec(merged: dict, path: str) -> FogNodeSpec:
    ints = {
        key: _as_int(merged.get(key, default), f"{path}.{key}")
        for key, default in (("max_units", 100), ("unit_energy", 1), ("battery_cap", 40))
    }
    optional = _given(merged, path, (("rate_factor", _as_num), ("name", lambda v, _: str(v))))
    try:
        return FogNodeSpec(**ints, **optional)
    except ValueError as exc:
        _fail(path, str(exc))


def build_config(cfg: dict) -> ExperimentConfig:
    """Validate a config mapping and build every runtime object it describes."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _mapping(cfg, "", ROOT_KEYS)
    seed = _nonneg(cfg.get("seed", 0), "seed", parse=_as_int)
    slots = _as_int(cfg.get("slots", 1), "slots")
    if slots <= 0:
        _fail("slots", "must be >= 1")
    services = _services(cfg)
    k_n = len(services)
    defaults = _mapping(cfg.get("defaults", {}), "defaults", DEFAULTS_KEYS)
    node_defaults = _mapping(
        defaults.get("node", {}), "defaults.node", [k for k in NODE_KEYS if k != "position"]
    )
    harvest_default = defaults.get("harvest", {"kind": "constant", "value": 0})
    arrivals_default = defaults.get("arrivals")

    nodes_cfg = cfg.get("nodes")
    if isinstance(nodes_cfg, dict):
        _mapping(nodes_cfg, "nodes", GENERATOR_KEYS)
        count = _as_int(nodes_cfg.get("count"), "nodes.count")
        if count < 1:
            _fail("nodes.count", f"must be >= 1, got {count}")
        profile = str(nodes_cfg.get("profile", "urban"))
        if profile not in topo_mod.PROFILES:
            _fail("nodes.profile", f"must be one of {tuple(topo_mod.PROFILES)}, got {profile!r}")
        positions = topo_mod.synth_topology(
            count,
            _nonneg(nodes_cfg.get("seed", seed), "nodes.seed", parse=_as_int),
            profile=profile,
            radius_m=_positive(nodes_cfg.get("radius", 1000.0), "nodes.radius"),
        )
        node_cfgs = [dict(node_defaults) for _ in range(count)]
    elif isinstance(nodes_cfg, list) and nodes_cfg:
        positions, node_cfgs = [], []
        for i, entry in enumerate(nodes_cfg):
            if not isinstance(entry, dict) or "position" not in entry:
                _fail(f"nodes[{i}]", "must be a mapping with a 'position'")
            _mapping(entry, f"nodes[{i}]", NODE_KEYS)
            pos = entry["position"]
            if not isinstance(pos, list) or len(pos) != 2:
                _fail(f"nodes[{i}].position", "must be [x, y] in meters")
            positions.append([_as_num(pos[0], f"nodes[{i}].position[0]"),
                              _as_num(pos[1], f"nodes[{i}].position[1]")])
            merged = dict(node_defaults)
            merged.update(entry)
            node_cfgs.append(merged)
        positions = np.array(positions, dtype=float)
    else:
        _fail("nodes", "either a node list or a generator mapping is required")
    n = len(node_cfgs)

    node_specs = tuple(_node_spec(c, f"nodes[{i}]") for i, c in enumerate(node_cfgs))

    topo_cfg = _mapping(cfg.get("topology", {}), "topology", TOPOLOGY_KEYS)
    rule_name = topo_cfg.get("rule", "radius")
    if rule_name == "radius":
        rule = topo_mod.RadiusRule(_positive(topo_cfg.get("radius", 500.0), "topology.radius"))
    elif rule_name == "knearest":
        rule = topo_mod.KNearestRule(_nonneg(topo_cfg.get("k"), "topology.k", parse=_as_int))
    else:
        _fail("topology.rule", f"unknown rule {rule_name!r}")
    rtt_cfg = _mapping(topo_cfg.get("rtt", {"kind": "constant"}), "topology.rtt", RTT_KEYS)
    if rtt_cfg.get("kind", "constant") == "constant":
        tau0 = _nonneg(rtt_cfg.get("tau0", topo_mod.DEFAULT_RTT_S), "topology.rtt.tau0")
        rtt_rule = topo_mod.ConstantRtt(tau0)
    elif rtt_cfg.get("kind") == "distance":
        rtt_rule = topo_mod.DistanceRtt(
            base=_nonneg(rtt_cfg.get("base"), "topology.rtt.base"),
            per_meter=_nonneg(rtt_cfg.get("per_meter"), "topology.rtt.per_meter"),
        )
    else:
        _fail("topology.rtt.kind", f"unknown rtt kind {rtt_cfg.get('kind')!r}")
    neighbors, rtt = topo_mod.build_neighbors(positions, rule, rtt_rule)
    network = NetworkSpec(services=services, nodes=node_specs, neighbors=neighbors, rtt=rtt)

    harvest_chains, arrival_chains, caps, b_init = [], [], [], []
    for i, c in enumerate(node_cfgs):
        harvest_chains.append(_chain(c.get("harvest", harvest_default), f"nodes[{i}].harvest", True))
        arr_cfg = c.get("arrivals", arrivals_default)
        if not isinstance(arr_cfg, list) or len(arr_cfg) != k_n:
            _fail(f"nodes[{i}].arrivals", f"one chain per service is required ({k_n})")
        arrival_chains.append(
            tuple(_chain(a, f"nodes[{i}].arrivals[{k}]", False) for k, a in enumerate(arr_cfg))
        )
        caps.append(node_specs[i].battery_cap)
        init = _as_int(c.get("battery_init", 0), f"nodes[{i}].battery_init")
        if init < 0 or init > node_specs[i].battery_cap:
            _fail(f"nodes[{i}].battery_init", "must lie within [0, battery_cap]")
        b_init.append(init)
    environment = env_mod.EnvironmentSpec(
        harvest=tuple(harvest_chains),
        arrivals=tuple(arrival_chains),
        battery_cap=tuple(caps),
    )

    pol_cfg = _mapping(cfg.get("policy", {"kind": "no_coop"}), "policy", POLICY_KEYS)
    kind = pol_cfg.get("kind")
    if kind not in POLICY_KINDS:
        _fail("policy.kind", f"must be one of {POLICY_KINDS}")
    count = functools.partial(_nonneg, parse=_as_int)
    parsers = (("gamma", _discount), ("radius", _positive), ("depth", count), ("helper_cap", count))
    policy = PolicySpec(kind=kind, **_given(pol_cfg, "policy", parsers))

    sol_cfg = _mapping(cfg.get("solver", {}), "solver", SOLVER_KEYS)
    solver = SolverOptions(**_given(sol_cfg, "solver", [(key, _as_int) for key in SOLVER_KEYS]))
    return ExperimentConfig(
        seed=seed,
        slots=slots,
        network=network,
        env=environment,
        battery_init=np.array(b_init, dtype=int),
        positions=np.asarray(positions, dtype=float),
        policy=policy,
        solver=solver,
        raw=cfg,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return build_config(raw)


# ---------------------------------------------------------------------------
# Cooperation graph and components.


def policy_adjacency(cfg: ExperimentConfig) -> list[set[int]]:
    """Undirected cooperation edges implied by the policy."""
    net, pol = cfg.network, cfg.policy
    n = net.n_nodes
    adj: list[set[int]] = [set() for _ in range(n)]
    if pol.kind == "no_coop":
        return adj
    dist = topo_mod.pairwise_distances(cfg.positions)
    if pol.kind == "nearest_neighbor":
        for i in range(n):
            if net.neighbors[i]:
                j = topo_mod.nearest_first(dist, i, net.neighbors[i])[0]
                adj[i].add(j)
                adj[j].add(i)
        return adj
    # radius_coop keeps the forwarding edges within its radius, if it has
    # one; myopic and bpomdp cooperate over the whole forwarding graph
    radius = pol.radius if pol.kind == "radius_coop" else None
    for i in range(n):
        for j in net.neighbors[i]:
            if radius is None or dist[i, j] <= radius:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def weak_components(adj: list[set[int]]) -> list[list[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue, comp = [start], []
        seen[start] = True
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# Belief-driven budget policy.


class _AgentMind:
    """One node's planning model over its own chains plus neighbor-type belief.

    States are (battery, harvest, arrival levels) of the agent itself, fully
    observed, battery level outermost; actions withhold whole units from the
    slot's budget.  The harvest and arrival chains move independently of
    each other and of the battery, so the next (harvest, arrivals) pair
    follows one row of the Kronecker product of their transition matrices
    (harvest, then the arrival chains in service order), written into the
    block of the next battery level, which the state and action fix.
    Rewards imagine a one-slot game with the agent's nearest neighbors
    contributing the spare units their believed types suggest; each
    energy split and water-fill behind them is computed once per model.
    """

    def __init__(self, cfg: ExperimentConfig, i: int):
        pol = cfg.policy
        self.i = i
        self.node = cfg.network.nodes[i]
        self.services = cfg.network.services
        self.depth = pol.depth
        self.gamma = pol.gamma
        self.type_space = belief_mod.TypeSpace.default()
        eu = self.node.unit_energy
        dist = topo_mod.pairwise_distances(cfg.positions)
        self.helpers = topo_mod.nearest_first(dist, i, cfg.network.neighbors[i])[: pol.helper_cap]
        self.helper_nodes = [cfg.network.nodes[j] for j in self.helpers]
        self.tau = [float(cfg.network.rtt[i, j]) for j in self.helpers]
        self.counts = np.ones((len(self.helpers), self.type_space.n_types))
        # the action index chosen in each own state, planned under the counts
        # whose bytes are ``_planned_for``
        self._planned_for: bytes | None = None
        self._plan: np.ndarray | None = None

        hchain = cfg.env.harvest[i]
        achains = cfg.env.arrivals[i]
        cap = self.node.battery_cap
        avecs = list(itertools.product(*(range(c.n_states) for c in achains)))
        shape = (cap + 1, hchain.n_states, len(avecs))
        self.states = list(itertools.product(range(cap + 1), range(hchain.n_states), avecs))
        self.actions = list(range(0, cap + 1, eu))  # withheld energy
        s_n, a_n = len(self.states), len(self.actions)
        n_profiles = self.type_space.n_types ** len(self.helpers)
        if max(s_n, n_profiles) * s_n * a_n > _MAX_MIND_CELLS:
            raise ConfigError(
                f"nodes[{i}]: bpomdp local model too large ({s_n} states x {a_n} actions "
                f"x {n_profiles} neighbor-type profiles); reduce battery_cap, the number "
                "of chain levels or policy.helper_cap"
            )
        self.index = {s: si for si, s in enumerate(self.states)}
        arrays = cfg.network.arrays
        rates = arrays.unit_rates.tolist()
        # per service, the helpers whose round trip leaves time to serve it
        near = [
            [hj for hj, j in enumerate(self.helpers) if arrays.allowed[k, i, j]]
            for k in range(len(self.services))
        ]

        @functools.cache
        def split(av: tuple, avail: int) -> np.ndarray:
            lam = [chain.levels[x] for chain, x in zip(achains, av)]
            return solve_energy_split(self.node, self.services, lam, avail)[0]

        @functools.cache
        def share(k: int, lam: float, units: int, types: tuple) -> float:
            caps = [capacity(rates[i][k], units, eu)]
            for hj, tj in zip(near[k], types):
                caps.append(rates[self.helpers[hj]][k] * self.type_space.spare_units[tj])
            taus = [0.0] + [self.tau[hj] for hj in near[k]]
            caps, taus = np.array(caps, dtype=float), np.array(taus, dtype=float)
            return lone_sender_share(taus, caps, lam, self.services[k].deadline)

        def payoff(profile: tuple, av: tuple, avail: int) -> float:
            """Own slot payoff if committing ``avail`` with helpers of these types."""
            total = 0.0
            for k, svc in enumerate(self.services):
                lam = float(achains[k].levels[av[k]])
                if lam > 0:
                    types = tuple(profile[hj] for hj in near[k])
                    total += svc.reward * lam * share(k, lam, int(split(av, avail)[k]), types)
            return total

        b, h, ar = np.unravel_index(np.arange(s_n), shape)
        avail = np.maximum(b[:, None] - np.array(self.actions), 0)  # (state, action)
        budgets = range(cap + 1)
        used = np.array([[int(split(av, u).sum()) for u in budgets] for av in avecs])
        harvest = np.array([int(x) for x in hchain.levels])
        # in [0, cap]: a split never exceeds its budget and harvest levels are >= 0
        b_next = np.minimum(cap, b[:, None] - used[ar[:, None], avail] + harvest[h][:, None])
        arrivals = functools.reduce(np.kron, [c.transition for c in achains])
        chains = np.kron(hchain.transition, arrivals).reshape(shape[1:] * 2)
        t = np.zeros((a_n, s_n, cap + 1, *shape[1:]))
        t[np.arange(a_n)[:, None], np.arange(s_n), b_next.T] = chains[h, ar]
        self._transition = t.reshape(a_n, s_n, s_n)
        self._profiles = belief_mod.enumerate_profiles(len(self.helpers), self.type_space.n_types)
        payoffs = np.array(
            [[[payoff(p, av, u) for u in budgets] for av in avecs] for p in self._profiles]
        )
        self._reward_profiles = payoffs[:, ar[:, None], avail]  # (profile, state, action)

    def choose_budget(self, state: env_mod.EnvState) -> int:
        """Budget for this slot, read from a plan of every own state.

        The plan depends only on the counts, so it is made again only when
        their bytes change; ties withhold more.
        """
        counts = self.counts.tobytes()
        if counts != self._planned_for:
            reward = belief_mod.type_profile_rewards(
                self._reward_profiles, self._profiles, self.counts
            )
            q = belief_mod.q_values(self._transition, reward, self.gamma, self.depth)
            self._planned_for = counts
            self._plan = belief_mod.pick_actions(q, [-w for w in self.actions])
        own = (
            int(state.battery[self.i]),
            int(state.harvest_idx[self.i]),
            tuple(int(x) for x in state.arrival_idx[self.i]),
        )
        return max(own[0] - self.actions[self._plan[self.index[own]]], 0)

    def observe_agreement(self, agreement: SlicingAgreement, arrivals: np.ndarray):
        """Classify each helper's realized spare capacity and update the belief."""
        for hj, j in enumerate(self.helpers):
            nd = self.helper_nodes[hj]
            units = int(agreement.energy[j].sum()) // nd.unit_energy
            lam = arrivals[j]
            split, _ = solve_energy_split(nd, self.services, lam, nd.max_units * nd.unit_energy)
            own_need = int(split.sum()) // nd.unit_energy
            spare = max(0, units - own_need)
            t = self.type_space.classify(spare)
            self.counts = belief_mod.update_type_belief(self.counts, hj, t)


# ---------------------------------------------------------------------------
# Episode loop.


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    arrivals: np.ndarray
    harvested: np.ndarray
    battery_before: np.ndarray
    battery_after: np.ndarray
    budgets: np.ndarray
    energy: np.ndarray
    offloaded: np.ndarray  # n x K dispatched requests, all meeting the deadline
    rewards: np.ndarray
    welfare: float
    statuses: tuple[str, ...]


@dataclass(frozen=True)
class EpisodeResult:
    config: ExperimentConfig
    records: tuple[SlotRecord, ...]
    # per slot, per node, per helper: posterior type means (bpomdp only)
    belief_trace: tuple | None = None

    def total_welfare(self) -> float:
        return float(sum(r.welfare for r in self.records))

    def total_offloaded(self) -> float:
        return float(sum(r.offloaded.sum() for r in self.records))

    def per_node_rewards(self) -> np.ndarray:
        return np.sum([r.rewards.sum(axis=1) for r in self.records], axis=0)

    def discounted_rewards(self) -> np.ndarray:
        gamma = self.config.policy.gamma
        out = np.zeros(self.config.network.n_nodes)
        for t, r in enumerate(self.records):
            out += gamma**t * r.rewards.sum(axis=1)
        return out

    def running_average(self) -> list[float]:
        out, acc = [], 0.0
        for t, r in enumerate(self.records):
            acc += r.welfare
            out.append(acc / (t + 1))
        return out

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            for s in r.statuses:
                counts[s] = counts.get(s, 0) + 1
        return dict(sorted(counts.items()))


def run_episode(config: dict | ExperimentConfig) -> EpisodeResult:
    """Simulate one seeded episode under the configured policy.

    Each distinct component game (component, arrivals, budgets) is solved
    once per episode and its solution reused on every later slot that poses
    it; every slot's full agreement is still validated.

    Raises:
        EngineInvariantError: If any slot's agreement fails validation;
            this signals a solver bug, not a config problem.
    """
    cfg = config if isinstance(config, ExperimentConfig) else build_config(config)
    net = cfg.network
    n, k_n = net.n_nodes, net.n_services
    rng = np.random.default_rng([cfg.seed, 0xFC])
    state = cfg.env.initial_state(cfg.battery_init)
    minds = (
        [_AgentMind(cfg, i) for i in range(n)] if cfg.policy.kind == "bpomdp" else None
    )
    adj = policy_adjacency(cfg)
    comps = weak_components(adj)
    # components are fixed for the episode: index each one's rows and its
    # offload block (every service) once
    rows = [np.array(comp) for comp in comps]
    blocks = [np.ix_(range(k_n), comp, comp) for comp in comps]
    records = []
    belief_trace = [] if minds is not None else None
    # The solver is pure and the network, components and solver options are
    # fixed for the episode, so a component's arrivals and budgets determine
    # its game; each distinct game is solved once.
    solved: dict[tuple[int, bytes, bytes], WelfareSolution] = {}
    for t in range(cfg.slots):
        arrivals = cfg.env.arrival_rates(state)
        arrivals.setflags(write=False)  # games, slot state and record share it uncopied
        harvested = cfg.env.harvest_amounts(state)
        battery = np.array(state.battery, dtype=int)
        if minds is not None:
            budgets = np.array([m.choose_budget(state) for m in minds], dtype=int)
        else:
            budgets = battery.copy()
        energy = np.zeros((n, k_n), dtype=int)
        offload = np.zeros((k_n, n, n))
        rewards = np.zeros((n, k_n))
        statuses = []
        welfare = 0.0
        for ci, (comp, idx, block) in enumerate(zip(comps, rows, blocks)):
            key = (ci, arrivals[idx].tobytes(), budgets[idx].tobytes())
            sol = solved.get(key)
            if sol is None:
                game = GameInstance(net, arrivals, budgets).restrict(comp)
                sol = solve_social_welfare(game, cfg.solver)
                solved[key] = sol
            energy[idx] = sol.agreement.energy
            rewards[idx] = sol.agreement.rewards
            offload[block] = sol.agreement.offload
            welfare += sol.welfare
            statuses.append(sol.status)
        slot_battery, slot_harvested = battery.astype(float), harvested.astype(float)
        # read-only once filled, so the agreement and the slot state keep them uncopied
        for a in (energy, offload, rewards, slot_battery, slot_harvested):
            a.setflags(write=False)
        agreement = SlicingAgreement(energy=energy, offload=offload, rewards=rewards)
        slot_state = SlotState(
            battery=slot_battery, arrivals=arrivals, harvested_prev=slot_harvested
        )
        violations = validate_agreement(net, slot_state, agreement)
        if violations:
            raise EngineInvariantError(
                f"slot {t}: agreement failed validation: "
                + "; ".join(str(v) for v in violations)
            )
        if minds is not None:
            for m in minds:
                m.observe_agreement(agreement, arrivals)
            belief_trace.append(
                tuple(
                    tuple(
                        tuple(float(x) for x in row)
                        for row in (m.counts / m.counts.sum(axis=1, keepdims=True))
                    )
                    for m in minds
                )
            )
        offloaded = offload.sum(axis=2).T * arrivals
        consumed = agreement.consumed().astype(int)
        state = env_mod.sample_step(cfg.env, state, consumed, rng)
        records.append(
            SlotRecord(
                slot=t,
                arrivals=arrivals,
                harvested=harvested,
                battery_before=battery,
                battery_after=np.array(state.battery, dtype=int),
                budgets=budgets,
                energy=energy,
                offloaded=offloaded,
                rewards=rewards,
                welfare=welfare,
                statuses=tuple(statuses),
            )
        )
    return EpisodeResult(
        config=cfg,
        records=tuple(records),
        belief_trace=tuple(belief_trace) if belief_trace is not None else None,
    )


# ---------------------------------------------------------------------------
# Reports.


def emit_report(result: EpisodeResult, out_dir: str) -> tuple[str, str]:
    """Write slots.csv and summary.json; identical runs produce identical bytes.

    Floats are written with repr, so every value round-trips exactly and
    the summary aggregates can be recomputed from the rows alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    names = [s.name for s in cfg.network.services]
    csv_path = os.path.join(out_dir, "slots.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["slot", "node", "battery_before", "battery_after", "harvested",
                  "budget", "consumed"]
        for nm in names:
            header += [f"arrival_{nm}", f"energy_{nm}", f"offloaded_{nm}", f"reward_{nm}"]
        writer.writerow(header)
        for r in result.records:
            for i in range(cfg.network.n_nodes):
                row = [r.slot, i, int(r.battery_before[i]), int(r.battery_after[i]),
                       int(r.harvested[i]), int(r.budgets[i]), int(r.energy[i].sum())]
                for k in range(len(names)):
                    row += [repr(float(r.arrivals[i, k])), int(r.energy[i, k]),
                            repr(float(r.offloaded[i, k])), repr(float(r.rewards[i, k]))]
                writer.writerow(row)
    slots = len(result.records)
    mean_offloaded = {
        nm: float(sum(r.offloaded[:, k].sum() for r in result.records)) / slots
        for k, nm in enumerate(names)
    }
    summary = {
        "seed": cfg.seed,
        "slots": cfg.slots,
        "policy": cfg.policy.kind,
        "n_nodes": cfg.network.n_nodes,
        "services": names,
        "total_welfare": result.total_welfare(),
        "mean_slot_welfare": result.total_welfare() / cfg.slots,
        "total_offloaded": result.total_offloaded(),
        "mean_offloaded_per_service": mean_offloaded,
        "per_node_reward": [float(x) for x in result.per_node_rewards()],
        "discounted_reward": [float(x) for x in result.discounted_rewards()],
        "discount_gamma": cfg.policy.gamma,
        "running_avg_welfare": result.running_average(),
        "status_counts": result.status_counts(),
        "topology": {
            "neighbors": [sorted(int(j) for j in nbrs) for nbrs in cfg.network.neighbors],
            "rtt": [[float(v) for v in row] for row in cfg.network.rtt],
        },
    }
    if result.belief_trace is not None:
        summary["belief_trace"] = [
            [[list(row) for row in node] for node in slot] for slot in result.belief_trace
        ]
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def load_report(out_dir: str) -> tuple[list[dict], dict]:
    """Read a report back and audit the summary against the rows.

    Numeric fields are parsed to int/float.  Raises ValueError if the
    stored aggregates cannot be recomputed from the per-slot records.
    """
    rows = []
    with open(os.path.join(out_dir, "slots.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for key, val in row.items():
                parsed[key] = float(val) if ("." in val or "e" in val or "inf" in val) else int(val)
            rows.append(parsed)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    reward_cols = [f"reward_{nm}" for nm in summary["services"]]
    total = sum(row[c] for row in rows for c in reward_cols)
    if not math.isclose(total, summary["total_welfare"], rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"summary total_welfare {summary['total_welfare']} does not match "
            f"records ({total})"
        )
    offl = sum(row[f"offloaded_{nm}"] for row in rows for nm in summary["services"])
    if not math.isclose(offl, summary["total_offloaded"], rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"summary total_offloaded {summary['total_offloaded']} does not match "
            f"records ({offl})"
        )
    per_node = {}
    for row in rows:
        per_node[row["node"]] = per_node.get(row["node"], 0.0) + sum(row[c] for c in reward_cols)
    for i, stored in enumerate(summary["per_node_reward"]):
        if not math.isclose(per_node.get(i, 0.0), stored, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"summary per_node_reward[{i}] does not match records")
    return rows, summary


# ---------------------------------------------------------------------------
# Sweeps.


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple[dict, ...]  # one per (value, rep)
    summary: tuple[dict, ...]  # one per value: mean and stderr of total welfare


def set_config_value(cfg: dict, dotted: str, value):
    """Return a deep-copied config with one dotted path replaced.

    Each step names a mapping key (created if missing) or a list index.
    Any other step raises ``ConfigError`` naming the axis and the step.
    """
    out = json.loads(json.dumps(cfg))
    node = out
    parts = dotted.split(".")
    for depth, part in enumerate(parts):
        where = ".".join(parts[:depth])
        if isinstance(node, list):
            try:
                part = int(part)
                node[part]
            except (ValueError, IndexError):
                _fail(f"axis {dotted}", f"{where} has no index {part!r} (a list of {len(node)})")
        elif not isinstance(node, dict):
            _fail(f"axis {dotted}", f"{where} is {node!r}, not a mapping or a list")
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node[part] if isinstance(node, list) else node.setdefault(part, {})
    return out


def _sweep_cell(payload):
    cfg_dict, axis, value, rep, base_seed = payload
    cell = set_config_value(cfg_dict, axis, value)
    cell["seed"] = base_seed + rep
    result = run_episode(cell)
    return {
        "axis": axis,
        "value": value,
        "rep": rep,
        "seed": base_seed + rep,
        "total_welfare": result.total_welfare(),
        "mean_slot_welfare": result.total_welfare() / result.config.slots,
        "total_offloaded": result.total_offloaded(),
    }


def run_sweep(
    cfg: dict, axis: str, values: list, reps: int = 1, workers: int = 1
) -> SweepResult:
    """Run a seeded grid over one config axis.

    Rep r of every value runs with seed base+r, so values are compared on
    paired sample paths.  Above one worker the cells run in a process
    pool; results are merged in submission order either way.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    base_seed = int(cfg.get("seed", 0))
    jobs = [
        (cfg, axis, value, rep, base_seed) for value in values for rep in range(reps)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(j) for j in jobs]
    summary = []
    for vi, value in enumerate(values):
        totals = np.array([rows[vi * reps + r]["total_welfare"] for r in range(reps)])
        offl = np.array([rows[vi * reps + r]["total_offloaded"] for r in range(reps)])
        stderr = float(totals.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
        summary.append(
            {
                "value": value,
                "mean_total_welfare": float(totals.mean()),
                "stderr_total_welfare": stderr,
                "mean_total_offloaded": float(offl.mean()),
                "reps": reps,
            }
        )
    return SweepResult(axis=axis, rows=tuple(rows), summary=tuple(summary))


def emit_sweep(result: SweepResult, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "rep", "seed", "total_welfare",
                        "mean_slot_welfare", "total_offloaded"])
        for row in result.rows:
            writer.writerow(
                [row["axis"], row["value"], row["rep"], row["seed"],
                 repr(float(row["total_welfare"])), repr(float(row["mean_slot_welfare"])),
                 repr(float(row["total_offloaded"]))]
            )
    json_path = os.path.join(out_dir, "sweep.json")
    with open(json_path, "w") as fh:
        json.dump(
            {"axis": result.axis, "summary": list(result.summary)},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return csv_path, json_path
