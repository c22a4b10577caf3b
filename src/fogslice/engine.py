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
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
WORKERS_ENV = "FOGSLICE_WORKERS"
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
    type_space: belief_mod.TypeSpace = field(default_factory=belief_mod.TypeSpace.default)


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
    return float(value)


# The keys each config mapping may hold; anything else is a typo or a removed
# option and is rejected rather than silently ignored.
ROOT_KEYS = (
    "seed", "slots", "services", "defaults", "nodes", "topology", "policy", "solver", "backlogged"
)
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
    if kind == "constant":
        value = cfg.get("value")
        if integer_levels:
            value = _as_int(value, f"{path}.value")
        else:
            value = _as_num(value, f"{path}.value")
        return env_mod.MarkovChainSpec.constant(value)
    if kind == "uniform":
        high = _as_int(cfg.get("max"), f"{path}.max")
        low = _as_int(cfg.get("min", 0), f"{path}.min")
        return env_mod.uniform_harvest(high, low)
    if kind == "bursty":
        return env_mod.bursty_arrivals(
            _as_num(cfg.get("low"), f"{path}.low"),
            _as_num(cfg.get("high"), f"{path}.high"),
            _as_num(cfg.get("persistence"), f"{path}.persistence"),
        )
    if kind == "levels":
        levels = cfg.get("levels")
        matrix = cfg.get("transition")
        if not isinstance(levels, list) or not isinstance(matrix, list):
            _fail(path, "'levels' and 'transition' lists are required")
        if integer_levels:
            levels = [_as_int(v, f"{path}.levels[{i}]") for i, v in enumerate(levels)]
        else:
            levels = [_as_num(v, f"{path}.levels[{i}]") for i, v in enumerate(levels)]
        return env_mod.MarkovChainSpec(tuple(levels), np.array(matrix, dtype=float))


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
        try:
            out.append(
                ServiceTypeSpec(
                    name=str(svc.get("name", f"svc{i}")),
                    deadline=_as_num(svc.get("deadline"), f"services[{i}].deadline"),
                    reward=_as_num(svc.get("reward", 1.0), f"services[{i}].reward"),
                    unit_rate=_as_num(svc.get("unit_rate"), f"services[{i}].unit_rate"),
                )
            )
        except ValueError as exc:
            _fail(f"services[{i}]", str(exc))
    return tuple(out)


def _node_spec(merged: dict, path: str) -> FogNodeSpec:
    try:
        return FogNodeSpec(
            max_units=_as_int(merged.get("max_units", 100), f"{path}.max_units"),
            unit_energy=_as_int(merged.get("unit_energy", 1), f"{path}.unit_energy"),
            battery_cap=_as_int(merged.get("battery_cap", 40), f"{path}.battery_cap"),
            rate_factor=_as_num(merged.get("rate_factor", 1.0), f"{path}.rate_factor"),
            name=str(merged.get("name", "")),
        )
    except ValueError as exc:
        _fail(path, str(exc))


def build_config(cfg: dict) -> ExperimentConfig:
    """Validate a config mapping and build every runtime object it describes."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _mapping(cfg, "", ROOT_KEYS)
    seed = _as_int(cfg.get("seed", 0), "seed")
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
        positions = topo_mod.synth_topology(
            count,
            _as_int(nodes_cfg.get("seed", seed), "nodes.seed"),
            profile=str(nodes_cfg.get("profile", "urban")),
            radius_m=_as_num(nodes_cfg.get("radius", 1000.0), "nodes.radius"),
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
        rule = topo_mod.RadiusRule(_as_num(topo_cfg.get("radius", 500.0), "topology.radius"))
    elif rule_name == "knearest":
        rule = topo_mod.KNearestRule(_as_int(topo_cfg.get("k"), "topology.k"))
    else:
        _fail("topology.rule", f"unknown rule {rule_name!r}")
    rtt_cfg = _mapping(topo_cfg.get("rtt", {"kind": "constant"}), "topology.rtt", RTT_KEYS)
    if rtt_cfg.get("kind", "constant") == "constant":
        rtt_rule = topo_mod.ConstantRtt(_as_num(rtt_cfg.get("tau0", topo_mod.DEFAULT_RTT_S), "topology.rtt.tau0"))
    elif rtt_cfg.get("kind") == "distance":
        rtt_rule = topo_mod.DistanceRtt(
            base=_as_num(rtt_cfg.get("base"), "topology.rtt.base"),
            per_meter=_as_num(rtt_cfg.get("per_meter"), "topology.rtt.per_meter"),
        )
    else:
        _fail("topology.rtt.kind", f"unknown rtt kind {rtt_cfg.get('kind')!r}")
    topo = topo_mod.build_neighbors(positions, rule, rtt_rule)
    network = NetworkSpec(services=services, nodes=node_specs, neighbors=topo.neighbors, rtt=topo.rtt)

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
        backlogged=bool(cfg.get("backlogged", False)),
    )

    pol_cfg = _mapping(cfg.get("policy", {"kind": "no_coop"}), "policy", POLICY_KEYS)
    kind = pol_cfg.get("kind")
    if kind not in POLICY_KINDS:
        _fail("policy.kind", f"must be one of {POLICY_KINDS}")
    policy = PolicySpec(
        kind=kind,
        radius=_as_num(pol_cfg["radius"], "policy.radius") if "radius" in pol_cfg else None,
        depth=_as_int(pol_cfg.get("depth", 1), "policy.depth"),
        gamma=_as_num(pol_cfg.get("gamma", 0.9), "policy.gamma"),
        helper_cap=_as_int(pol_cfg.get("helper_cap", 2), "policy.helper_cap"),
    )

    sol_cfg = _mapping(cfg.get("solver", {}), "solver", SOLVER_KEYS)
    solver = SolverOptions(
        exhaustive_nodes=_as_int(sol_cfg.get("exhaustive_nodes", 3), "solver.exhaustive_nodes"),
        exhaustive_vectors=_as_int(sol_cfg.get("exhaustive_vectors", 4000), "solver.exhaustive_vectors"),
    )
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
            nbrs = sorted(net.neighbors[i], key=lambda j: (dist[i, j], j))
            if nbrs:
                adj[i].add(nbrs[0])
                adj[nbrs[0]].add(i)
        return adj
    if pol.kind == "radius_coop":
        radius = pol.radius
        for i in range(n):
            for j in net.neighbors[i]:
                if radius is None or dist[i, j] <= radius:
                    adj[i].add(j)
                    adj[j].add(i)
        return adj
    # myopic and bpomdp cooperate over the whole forwarding graph
    for i in range(n):
        for j in net.neighbors[i]:
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


def _component_game(net: NetworkSpec, arrivals, budgets, comp: list[int]) -> GameInstance:
    local = {g: li for li, g in enumerate(comp)}
    sub = NetworkSpec(
        services=net.services,
        nodes=tuple(net.nodes[g] for g in comp),
        neighbors=tuple(
            frozenset(local[m] for m in net.neighbors[g] if m in local) for g in comp
        ),
        rtt=net.rtt[np.ix_(comp, comp)],
    )
    return GameInstance(network=sub, arrivals=arrivals[comp], budgets=budgets[comp])


# ---------------------------------------------------------------------------
# Belief-driven budget policy.


class _AgentMind:
    """One node's planning model over its own chains plus neighbor-type belief.

    States are (battery, harvest, arrival levels) of the agent itself, fully
    observed; actions withhold whole units from the slot's budget.  Rewards
    imagine a one-slot game with the agent's nearest neighbors contributing
    the spare units their believed types suggest.
    """

    def __init__(self, cfg: ExperimentConfig, i: int):
        pol = cfg.policy
        self.i = i
        self.node = cfg.network.nodes[i]
        self.services = cfg.network.services
        self.depth = pol.depth
        self.type_space = pol.type_space
        eu = self.node.unit_energy
        dist = topo_mod.pairwise_distances(cfg.positions)
        self.helpers = sorted(cfg.network.neighbors[i], key=lambda j: (dist[i, j], j))[
            : pol.helper_cap
        ]
        self.helper_nodes = [cfg.network.nodes[j] for j in self.helpers]
        self.tau = [float(cfg.network.rtt[i, j]) for j in self.helpers]
        self.counts = np.ones((len(self.helpers), self.type_space.n_types))

        hchain = cfg.env.harvest[i]
        achains = cfg.env.arrivals[i]
        cap = self.node.battery_cap
        avecs = list(itertools.product(*(range(c.n_states) for c in achains)))
        states = [
            (b, h, av)
            for b in range(cap + 1)
            for h in range(hchain.n_states)
            for av in avecs
        ]
        actions = list(range(0, cap + 1, eu))  # withheld energy
        if len(actions) * len(states) ** 2 > _MAX_MIND_CELLS:
            raise ConfigError(
                f"nodes[{i}]: bpomdp local model too large "
                f"({len(states)} states x {len(actions)} actions); reduce battery_cap "
                "or the number of chain levels"
            )
        self.states = states
        self.actions = actions
        self.index = {s: si for si, s in enumerate(states)}
        self._achains = achains
        self._hchain = hchain

        split_memo: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

        def split_for(av, avail):
            key = (av, avail)
            if key not in split_memo:
                lam = [achains[k].levels[av[k]] for k in range(len(achains))]
                split, _ = solve_energy_split(self.node, self.services, lam, avail)
                split_memo[key] = split
            return split_memo[key]

        self._split_for = split_for

        s_n, a_n = len(states), len(actions)
        t = np.zeros((a_n, s_n, s_n))
        for ai, withheld in enumerate(actions):
            for si, (b, h, av) in enumerate(states):
                avail = max(b - withheld, 0)
                consumed = int(split_for(av, avail).sum())
                b_next = min(cap, b - consumed + int(hchain.levels[h]))
                for h2 in range(hchain.n_states):
                    ph = hchain.transition[h, h2]
                    if ph <= 0:
                        continue
                    for av2 in avecs:
                        pa = 1.0
                        for k, chain in enumerate(achains):
                            pa *= chain.transition[av[k], av2[k]]
                        if pa <= 0:
                            continue
                        t[ai, si, self.index[(b_next, h2, av2)]] += ph * pa
        self._transition = t
        self.gamma = pol.gamma
        self._profiles = belief_mod.enumerate_profiles(
            len(self.helpers), self.type_space.n_types
        )
        self._reward_profiles = self._build_reward_profiles()

    def _imagined_reward(self, av, avail, profile) -> float:
        """Own slot payoff if committing ``avail`` with helpers of these types."""
        split = self._split_for(av, avail)
        total = 0.0
        for k, svc in enumerate(self.services):
            lam = float(self._achains[k].levels[av[k]])
            if lam <= 0:
                continue
            w = svc.unit_rate * self.node.rate_factor
            caps = [capacity(w, int(split[k]), self.node.unit_energy)]
            taus = [0.0]
            for hj, tj in enumerate(profile):
                if self.tau[hj] >= svc.deadline:
                    continue
                spare = self.type_space.spare_units[tj]
                caps.append(svc.unit_rate * self.helper_nodes[hj].rate_factor * spare)
                taus.append(self.tau[hj])
            caps = np.array(caps, dtype=float)
            taus = np.array(taus, dtype=float)
            total += svc.reward * lam * lone_sender_share(taus, caps, lam, svc.deadline)
        return total

    def _build_reward_profiles(self) -> np.ndarray:
        memo: dict[tuple, float] = {}
        out = np.zeros((len(self._profiles), len(self.states), len(self.actions)))
        for pi, profile in enumerate(self._profiles):
            for si, (b, h, av) in enumerate(self.states):
                for ai, withheld in enumerate(self.actions):
                    avail = max(b - withheld, 0)
                    key = (profile, av, avail)
                    if key not in memo:
                        memo[key] = self._imagined_reward(av, avail, profile)
                    out[pi, si, ai] = memo[key]
        return out

    def choose_budget(self, state: env_mod.EnvState) -> int:
        own = (
            int(state.battery[self.i]),
            int(state.harvest_idx[self.i]),
            tuple(int(x) for x in state.arrival_idx[self.i]),
        )
        s_n, a_n = len(self.states), len(self.actions)
        model = belief_mod.FinitePomdp(
            states=tuple(self.states),
            actions=tuple(self.actions),
            observations=tuple(self.states),
            transition=self._transition,
            observation=np.broadcast_to(np.eye(s_n), (a_n, s_n, s_n)),
            reward=belief_mod.type_profile_rewards(
                self._reward_profiles, self._profiles, self.counts
            ),
            gamma=self.gamma,
        )
        env_belief = np.zeros(s_n)
        env_belief[self.index[own]] = 1.0
        costs = [-w for w in self.actions]  # ties withhold more
        a = belief_mod.select_action(model, env_belief, self.depth, action_costs=costs)
        return max(own[0] - self.actions[a], 0)

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
    records = []
    belief_trace = [] if minds is not None else None
    # The solver is pure and the network, components and solver options are
    # fixed for the episode, so a component's arrivals and budgets determine
    # its game; each distinct game is solved once.
    solved: dict[tuple[int, bytes, bytes], WelfareSolution] = {}
    for t in range(cfg.slots):
        arrivals = cfg.env.arrival_rates(state)
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
        for ci, comp in enumerate(comps):
            idx = np.array(comp)
            key = (ci, arrivals[idx].tobytes(), budgets[idx].tobytes())
            sol = solved.get(key)
            if sol is None:
                sol = solve_social_welfare(_component_game(net, arrivals, budgets, comp), cfg.solver)
                solved[key] = sol
            energy[idx] = sol.agreement.energy
            rewards[idx] = sol.agreement.rewards
            for k in range(k_n):
                offload[k][np.ix_(comp, comp)] = sol.agreement.offload[k]
            welfare += sol.welfare
            statuses.append(sol.status)
        agreement = SlicingAgreement(energy=energy, offload=offload, rewards=rewards)
        slot_state = SlotState(
            battery=battery.astype(float),
            arrivals=arrivals,
            harvested_prev=harvested.astype(float),
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
        offloaded = np.stack([offload[k].sum(axis=1) for k in range(k_n)], axis=1) * arrivals
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
    """Return a deep-copied config with one dotted path replaced."""
    out = json.loads(json.dumps(cfg))
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node.setdefault(part, {})
    last = parts[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
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
    cfg: dict, axis: str, values: list, reps: int = 1, workers: int | None = None
) -> SweepResult:
    """Run a seeded grid over one config axis.

    Rep r of every value runs with seed base+r, so values are compared on
    paired sample paths.  Worker count comes from the FOGSLICE_WORKERS
    environment variable unless given; results are merged in submission
    order either way.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
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
