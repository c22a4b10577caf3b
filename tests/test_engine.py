"""Episode engine: config validation, physics invariants, reports, CLI."""

import itertools

import numpy as np
import pytest
import yaml

from fogslice import cli, engine
from fogslice.belief import FinitePomdp, select_action, type_profile_rewards
from fogslice.engine import (
    DEFAULT_SERVICES,
    ConfigError,
    EngineInvariantError,
    build_config,
    emit_report,
    emit_sweep,
    load_report,
    policy_adjacency,
    run_episode,
    run_sweep,
    set_config_value,
    weak_components,
)
from fogslice.env import EnvState
from fogslice.game import GameInstance, lone_sender_share, solve_energy_split, solve_social_welfare
from fogslice.model import Violation
from fogslice.oracles import value_iteration
from fogslice.queueing import capacity
from fogslice.topology import KNearestRule, build_neighbors, pairwise_distances

from conftest import base_engine_config
from test_acceptance import scarcity_config


def starved_pair_config(policy="radius_coop", slots=8):
    """Node 0 cannot serve its own load; node 1 has spare capacity.

    Harvest covers any possible spend, so batteries stay pinned at cap and
    every policy sees the same environment path slot for slot.
    """
    return base_engine_config(
        slots=slots,
        services=[{"name": "svc", "deadline": 0.1, "reward": 1.0, "unit_rate": 10.0}],
        defaults={
            "node": {"max_units": 10, "unit_energy": 1, "battery_cap": 10},
            "harvest": {"kind": "constant", "value": 10},
        },
        nodes=[
            {
                "position": [0.0, 0.0],
                "battery_init": 10,
                "max_units": 2,
                "arrivals": [{"kind": "constant", "value": 25.0}],
            },
            {
                "position": [100.0, 0.0],
                "battery_init": 10,
                "arrivals": [{"kind": "constant", "value": 0.0}],
            },
        ],
        policy={"kind": policy},
        solver={"exhaustive_vectors": 500},
    )


class TestBuildConfig:
    def test_minimal_config_builds(self):
        cfg = build_config(base_engine_config())
        assert cfg.network.n_nodes == 2
        assert cfg.slots == 5
        assert cfg.policy.kind == "radius_coop"

    def test_default_services_applied(self):
        raw = base_engine_config()
        del raw["services"]
        for node in raw["nodes"]:
            node["arrivals"] = [
                {"kind": "constant", "value": 10.0},
                {"kind": "constant", "value": 5.0},
            ]
        cfg = build_config(raw)
        assert [s.name for s in cfg.network.services] == [d["name"] for d in DEFAULT_SERVICES]
        assert [s.deadline for s in cfg.network.services] == [0.05, 0.1]
        assert [s.unit_rate for s in cfg.network.services] == [10.0, 40.0]

    def test_generator_nodes(self):
        raw = base_engine_config(
            nodes={"count": 5, "profile": "uniform", "radius": 300.0, "seed": 3},
            defaults={
                "node": {"max_units": 10, "unit_energy": 1, "battery_cap": 20},
                "harvest": {"kind": "constant", "value": 5},
                "arrivals": [{"kind": "constant", "value": 10.0}],
            },
        )
        cfg = build_config(raw)
        assert cfg.network.n_nodes == 5
        assert cfg.positions.shape == (5, 2)
        assert np.all(np.hypot(*cfg.positions.T) <= 300.0 + 1e-9)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: c.update(slots=0), "slots"),
            (lambda c: c.update(seed=True), "seed"),
            (lambda c: c.pop("nodes"), "nodes"),
            (lambda c: c["nodes"][0].pop("position"), "position"),
            (lambda c: c["nodes"][0].update(battery_init=99), "battery_init"),
            (lambda c: c["nodes"][0].pop("arrivals"), "arrivals"),
            (lambda c: c["policy"].update(kind="optimal"), "policy.kind"),
            (lambda c: c["topology"].update(rule="ring"), "topology.rule"),
            (lambda c: c["topology"]["rtt"].update(kind="fiber"), "rtt"),
            (
                lambda c: c["nodes"][0].update(arrivals=[{"kind": "poisson"}]),
                "arrivals[0]",
            ),
            (
                lambda c: c["defaults"].update(harvest={"kind": "constant", "value": 2.5}),
                "harvest",
            ),
            # policy values that would build but mean nothing
            (lambda c: c["policy"].update(depth=-3), "policy.depth: must be >= 0"),
            (lambda c: c["policy"].update(helper_cap=-1), "policy.helper_cap: must be >= 0"),
            (lambda c: c["policy"].update(gamma=1.5), "policy.gamma: must lie in [0, 1)"),
            (lambda c: c["policy"].update(gamma=1.0), "policy.gamma: must lie in [0, 1)"),
            (lambda c: c["policy"].update(gamma=-0.1), "policy.gamma: must lie in [0, 1)"),
            (lambda c: c["policy"].update(gamma=float("nan")), "policy.gamma: must be finite"),
            # negative chain levels
            (
                lambda c: c["defaults"].update(harvest={"kind": "constant", "value": -1}),
                "nodes[0].harvest.value: must be >= 0",
            ),
            (
                lambda c: c["defaults"].update(harvest={"kind": "uniform", "max": 2, "min": -1}),
                "nodes[0].harvest.min: must be >= 0",
            ),
            (
                lambda c: c["nodes"][1].update(arrivals=[{"kind": "constant", "value": -5.0}]),
                "nodes[1].arrivals[0].value: must be >= 0",
            ),
            (
                lambda c: c["nodes"][0].update(
                    arrivals=[{"kind": "bursty", "low": -2.0, "high": 20.0, "persistence": 0.7}]
                ),
                "nodes[0].arrivals[0].low: must be >= 0",
            ),
            (
                lambda c: c["nodes"][0].update(
                    harvest={"kind": "levels", "levels": [0, -1], "transition": [[1, 0], [0, 1]]}
                ),
                "nodes[0].harvest.levels[1]: must be >= 0",
            ),
            # non-finite numbers
            (
                lambda c: c["services"][0].update(deadline=float("nan")),
                "services[0].deadline: must be finite",
            ),
            (
                lambda c: c["services"][0].update(reward=float("nan")),
                "services[0].reward: must be finite",
            ),
            (
                lambda c: c["services"][0].update(unit_rate=float("inf")),
                "services[0].unit_rate: must be finite",
            ),
            (
                lambda c: c["defaults"]["node"].update(rate_factor=float("nan")),
                "nodes[0].rate_factor: must be finite",
            ),
            (
                lambda c: c["nodes"][0].update(
                    arrivals=[
                        {
                            "kind": "levels",
                            "levels": [5.0, float("nan")],
                            "transition": [[1, 0], [0, 1]],
                        }
                    ]
                ),
                "nodes[0].arrivals[0].levels[1]: must be >= 0",
            ),
            (
                lambda c: c["nodes"][0].update(
                    arrivals=[
                        {"kind": "levels", "levels": [5.0, 9.0], "transition": [[0.5, 0.4], [0, 1]]}
                    ]
                ),
                "nodes[0].arrivals[0].transition: transition rows must sum to 1",
            ),
            (
                lambda c: c["defaults"].update(
                    harvest={
                        "kind": "levels",
                        "levels": [0, 1],
                        "transition": [[float("nan"), float("nan")], [0, 1]],
                    }
                ),
                "nodes[0].harvest.transition: transition entries must be >= 0",
            ),
            (
                lambda c: c["nodes"][0].update(position=[float("-inf"), 0.0]),
                "nodes[0].position[0]: must be finite",
            ),
            # geography handed to topology
            (lambda c: c["topology"].update(radius=0), "topology.radius: must be > 0"),
            (lambda c: c["topology"].update(rule="knearest", k=-1), "topology.k: must be >= 0"),
            (lambda c: c.update(nodes={"count": 0}), "nodes.count: must be >= 1"),
            # a negative radius reflects the layout, zero stacks every node
            (
                lambda c: c.update(nodes={"count": 3, "radius": -100, "seed": 1}),
                "nodes.radius: must be > 0, got -100.0",
            ),
            (
                lambda c: c.update(nodes={"count": 3, "radius": 0, "seed": 1}),
                "nodes.radius: must be > 0, got 0.0",
            ),
            # a radius that keeps no edge would play radius_coop as no_coop
            (
                lambda c: c["policy"].update(radius=-5),
                "policy.radius: must be > 0, got -5.0",
            ),
            (
                lambda c: c["policy"].update(radius=0.0),
                "policy.radius: must be > 0, got 0.0",
            ),
            (
                lambda c: c.update(nodes={"count": 3, "profile": "foo"}),
                "nodes.profile: must be one of ('urban', 'uniform'), got 'foo'",
            ),
            # seeds reach numpy, which takes no negative seed
            (lambda c: c.update(seed=-1), "seed: must be >= 0"),
            (lambda c: c.update(nodes={"count": 3, "seed": -1}), "nodes.seed: must be >= 0"),
        ],
    )
    def test_bad_configs_name_the_field(self, mutate, fragment):
        raw = base_engine_config()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "rule",
        [{"rule": "radius", "radius": 400.0}, {"rule": "knearest", "k": 3}],
        ids=["radius", "knearest"],
    )
    @pytest.mark.parametrize(
        "rtt",
        [
            {"kind": "constant", "tau0": 0.015},
            {"kind": "distance", "base": 0.005, "per_meter": 5e-5},
        ],
        ids=["constant", "distance"],
    )
    def test_topology_matches_a_local_build(self, rule, rtt):
        raw = base_engine_config(
            nodes={"count": 12, "radius": 600.0, "seed": 5},
            topology={**rule, "rtt": rtt},
        )
        raw["defaults"]["arrivals"] = [{"kind": "constant", "value": 5.0}]
        cfg = build_config(raw)
        dist = pairwise_distances(cfg.positions)
        n = len(dist)
        expected = []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            if rule["rule"] == "radius":
                expected.append(frozenset(j for j in others if dist[i, j] <= 400.0))
            else:
                expected.append(frozenset(sorted(others, key=lambda j: (dist[i, j], j))[:3]))
        if rtt["kind"] == "constant":
            rtt_matrix = np.full((n, n), 0.015)
        else:
            rtt_matrix = 0.005 + 5e-5 * dist
        np.fill_diagonal(rtt_matrix, 0.0)
        assert cfg.network.neighbors == tuple(expected)
        assert cfg.network.rtt.tobytes() == rtt_matrix.tobytes()

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda c: c["topology"]["rtt"].update(tau_0=0.5), "topology.rtt.tau_0"),
            (lambda c: c.update(polcy={"kind": "myopic"}), "polcy"),
            (lambda c: c["solver"].update(exhaustive_vectorz=1), "solver.exhaustive_vectorz"),
            (lambda c: c["services"][0].update(dealine=0.1), "services[0].dealine"),
            (lambda c: c["defaults"]["node"].update(max_unit=4), "defaults.node.max_unit"),
            (lambda c: c["nodes"][1].update(batery_init=3), "nodes[1].batery_init"),
            (lambda c: c["defaults"]["harvest"].update(vlaue=3), "harvest.vlaue"),
            (lambda c: c["policy"].update(dept=3), "policy.dept"),
            (lambda c: c.update(backlogged=True), "backlogged"),  # a removed option
        ],
    )
    def test_unknown_keys_are_rejected(self, mutate, path):
        raw = base_engine_config()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert f"{path}: unknown key" in str(err.value)

    @pytest.mark.parametrize(
        "rtt, path",
        [
            ({"kind": "constant", "tau0": -0.01}, "topology.rtt.tau0"),
            ({"kind": "constant", "tau0": float("nan")}, "topology.rtt.tau0"),
            ({"kind": "distance", "base": -0.5, "per_meter": 1e-4}, "topology.rtt.base"),
            ({"kind": "distance", "base": 0.01, "per_meter": -1e-4}, "topology.rtt.per_meter"),
        ],
        ids=["negative-tau0", "nan-tau0", "negative-base", "negative-per_meter"],
    )
    def test_round_trips_must_be_nonnegative(self, rtt, path):
        raw = base_engine_config()
        raw["topology"]["rtt"] = rtt
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert f"{path}: must be >= 0" in str(err.value)
        # zero round trips are fine
        raw["topology"]["rtt"] = {"kind": "distance", "base": 0.0, "per_meter": 0.0}
        assert np.all(build_config(raw).network.rtt == 0.0)

    def test_arrival_chain_count_must_match_services(self):
        raw = base_engine_config()
        raw["services"].append(
            {"name": "voice", "deadline": 0.1, "reward": 4.0, "unit_rate": 40.0}
        )
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert "arrivals" in str(err.value)


class TestPolicyAdjacency:
    def line_config(self, policy):
        raw = starved_pair_config(policy=policy)
        raw["nodes"].append(
            {
                "position": [250.0, 0.0],
                "battery_init": 10,
                "arrivals": [{"kind": "constant", "value": 5.0}],
            }
        )
        return build_config(raw)

    def test_no_coop_isolates_everyone(self):
        cfg = self.line_config("no_coop")
        adj = policy_adjacency(cfg)
        assert all(not a for a in adj)
        assert weak_components(adj) == [[0], [1], [2]]

    def test_nearest_neighbor_pairs_by_distance(self):
        cfg = self.line_config("nearest_neighbor")
        adj = policy_adjacency(cfg)
        # 1 is nearest to both 0 (100 m) and 2 (150 m)
        assert adj[0] == {1}
        assert adj[2] == {1}
        assert adj[1] == {0, 2}
        assert weak_components(adj) == [[0, 1, 2]]

    def test_equidistant_tie_goes_to_lower_index(self):
        # nodes 1 and 2 sit 100 m either side of node 0; node 3 is nearest
        # to node 2, so node 0's own pick alone sets its nearest_neighbor edge
        positions = [[0.0, 0.0], [100.0, 0.0], [-100.0, 0.0], [-150.0, 0.0]]
        raw = base_engine_config(
            nodes=[{"position": p, "battery_init": 5} for p in positions],
            policy={"kind": "nearest_neighbor"},
        )
        raw["defaults"]["arrivals"] = [{"kind": "constant", "value": 5.0}]
        raw["topology"]["radius"] = 120.0
        cfg = build_config(raw)
        assert cfg.network.neighbors[0] == {1, 2}
        assert build_neighbors(cfg.positions, KNearestRule(1))[0][0] == {1}
        assert policy_adjacency(cfg)[0] == {1}
        raw["policy"] = {"kind": "bpomdp", "depth": 1, "helper_cap": 1}
        assert engine._AgentMind(build_config(raw), 0).helpers == [1]

    def test_radius_coop_respects_policy_radius(self):
        raw = starved_pair_config()
        raw["nodes"].append(
            {
                "position": [250.0, 0.0],
                "battery_init": 10,
                "arrivals": [{"kind": "constant", "value": 5.0}],
            }
        )
        raw["policy"] = {"kind": "radius_coop", "radius": 120.0}
        adj = policy_adjacency(build_config(raw))
        assert adj[0] == {1}
        assert adj[2] == set()
        assert weak_components(adj) == [[0, 1], [2]]


class TestEpisodePhysics:
    def test_no_energy_means_no_service(self):
        raw = base_engine_config()
        raw["defaults"]["harvest"] = {"kind": "constant", "value": 0}
        for node in raw["nodes"]:
            node["battery_init"] = 0
        result = run_episode(raw)
        for rec in result.records:
            assert rec.welfare == 0.0
            assert np.all(rec.offloaded == 0.0)
            assert np.all(rec.energy == 0)

    def test_abundant_single_node_serves_everything(self):
        raw = base_engine_config(nodes=[dict(base_engine_config()["nodes"][0])])
        raw["policy"] = {"kind": "no_coop"}
        result = run_episode(raw)
        for rec in result.records:
            assert rec.offloaded[0, 0] == pytest.approx(30.0, abs=1e-6)
            assert rec.welfare == pytest.approx(30.0, abs=1e-6)

    def test_scarce_single_node_serves_deadline_capped_share(self):
        node = dict(base_engine_config()["nodes"][0])
        node["max_units"] = 3
        raw = base_engine_config(
            nodes=[node],
            services=[{"name": "svc", "deadline": 0.1, "reward": 1.0, "unit_rate": 10.0}],
            solver={"exhaustive_vectors": 500},
        )
        raw["policy"] = {"kind": "no_coop"}
        result = run_episode(raw)
        # cap 30 against load 30 at deadline 0.1: admit theta*c/(1+theta*lam) = 3/4
        for rec in result.records:
            assert rec.offloaded[0, 0] == pytest.approx(22.5, abs=1e-5)

    def test_cooperation_dominates_per_slot(self):
        coop = run_episode(starved_pair_config("radius_coop"))
        solo = run_episode(starved_pair_config("no_coop"))
        for rc, rs in zip(coop.records, solo.records):
            # batteries pinned at cap keep the sample paths aligned
            assert np.array_equal(rc.battery_before, rs.battery_before)
            assert rs.welfare == pytest.approx(25.0 / 1.75, abs=1e-6)
            assert rc.welfare >= 24.9
        assert coop.total_welfare() > solo.total_welfare() * 1.6

    def test_energy_and_reward_accounting(self):
        raw = base_engine_config(slots=15, solver={"exhaustive_vectors": 4000})
        raw["defaults"]["harvest"] = {"kind": "uniform", "max": 4}
        raw["nodes"][0]["arrivals"] = [
            {"kind": "bursty", "low": 5.0, "high": 35.0, "persistence": 0.7}
        ]
        result = run_episode(raw)
        caps = [n.battery_cap for n in result.config.network.nodes]
        assert len(result.records) == 15
        for rec in result.records:
            consumed = rec.energy.sum(axis=1)
            assert np.all(consumed <= rec.budgets)
            assert np.all(rec.budgets <= rec.battery_before)
            expected = np.minimum(rec.battery_before - consumed + rec.harvested, caps)
            assert np.array_equal(rec.battery_after, expected)
            # solver feasibility slack on row sums scales with the arrival rate
            assert np.all(rec.offloaded <= rec.arrivals + 1e-6)
            # unit reward rate, so payments equal served requests
            assert np.allclose(rec.rewards, rec.offloaded, atol=1e-9)
            assert rec.welfare == pytest.approx(rec.rewards.sum(), abs=1e-9)
            assert all(s in ("exhaustive", "heuristic") for s in rec.statuses)

    def test_myopic_spends_the_whole_battery(self):
        result = run_episode(starved_pair_config("myopic"))
        for rec in result.records:
            assert np.array_equal(rec.budgets, rec.battery_before)

    def test_bpomdp_budgets_and_beliefs(self):
        raw = starved_pair_config("bpomdp", slots=4)
        raw["defaults"]["node"]["battery_cap"] = 3
        raw["defaults"]["harvest"] = {"kind": "uniform", "max": 1}
        for node in raw["nodes"]:
            node["battery_init"] = 3
        raw["policy"] = {"kind": "bpomdp", "depth": 1, "gamma": 0.5}
        result = run_episode(raw)
        assert result.belief_trace is not None
        assert len(result.belief_trace) == 4
        for rec in result.records:
            assert np.all(rec.budgets <= rec.battery_before)
            assert np.all(rec.budgets >= 0)
        for slot in result.belief_trace:
            for node_rows in slot:
                for row in node_rows:
                    assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_bpomdp_budget_is_optimal_in_every_state(self):
        # reference Q: value iteration to depth d-1, then one explicit step
        cfg = build_config(scarcity_config(0, "bpomdp"))
        assert (cfg.policy.depth, cfg.policy.gamma) == (2, 0.9)
        mind = engine._AgentMind(cfg, 0)
        assert mind.helpers == []
        t = mind._transition
        r = type_profile_rewards(mind._reward_profiles, mind._profiles, mind.counts)
        v = value_iteration(t, r, cfg.policy.gamma, cfg.policy.depth - 1)
        q = r + cfg.policy.gamma * np.stack([t[a] @ v for a in range(len(mind.actions))], axis=1)
        for si, (b, h, av) in enumerate(mind.states):
            state = EnvState(harvest_idx=(h,), arrival_idx=(av,), battery=(b,))
            budget = mind.choose_budget(state)
            assert 0 <= budget <= b
            chosen = mind.actions.index(b - budget)
            assert q[si, chosen] >= q[si].max() - 1e-9


# Chains on which the order of the Kronecker factors changes bits:
# kron(kron(H, A1), A2) and kron(H, kron(A1, A2)) differ in 20 of 64 cells.
H = [[0.7, 0.3], [0.4, 0.6]]
A1 = [[0.7, 0.3], [0.3, 0.7]]
A2 = [[0.6, 0.4], [0.45, 0.55]]


def chained_mind_config():
    """Node 0 with two-level harvest and arrival chains and two helpers.

    Round trips are 5 ms + 0.5 ms/m: the helper at 40 m (25 ms) can serve
    both services, the one at 100 m (55 ms) only voice (deadline 100 ms),
    not image (50 ms).  Two energy units per processing unit leave odd
    budgets that activate nothing more than the even one below them.
    """
    return base_engine_config(
        services=[
            {"name": "image", "deadline": 0.05, "reward": 1.0, "unit_rate": 10.0},
            {"name": "voice", "deadline": 0.1, "reward": 2.0, "unit_rate": 40.0},
        ],
        defaults={
            "node": {"max_units": 3, "unit_energy": 2, "battery_cap": 5},
            "harvest": {"kind": "levels", "levels": [1, 3], "transition": H},
            "arrivals": [
                {"kind": "levels", "levels": [2.0, 20.0], "transition": A1},
                {"kind": "levels", "levels": [5.0, 40.0], "transition": A2},
            ],
        },
        nodes=[
            {"position": [0.0, 0.0], "battery_init": 5},
            {"position": [40.0, 0.0], "battery_init": 5},
            {"position": [0.0, 100.0], "battery_init": 5, "rate_factor": 1.5},
        ],
        topology={
            "rule": "radius",
            "radius": 150.0,
            "rtt": {"kind": "distance", "base": 0.005, "per_meter": 5e-4},
        },
        policy={"kind": "bpomdp", "depth": 1, "gamma": 0.9, "helper_cap": 2},
    )


def reference_mind_tensors(cfg, mind):
    """The agent model's transition and reward tensors, one cell at a time.

    Each next-state probability is the harvest step times the arrival steps
    multiplied in service order, and each reward sums its services in order.
    """
    i, node = mind.i, mind.node
    hchain, achains = cfg.env.harvest[i], cfg.env.arrivals[i]
    cap = node.battery_cap
    avecs = list(itertools.product(*(range(c.n_states) for c in achains)))
    states = [(b, h, av) for b in range(cap + 1) for h in range(hchain.n_states) for av in avecs]
    assert mind.states == states
    index = {s: si for si, s in enumerate(states)}

    def split(av, avail):
        lam = [achains[k].levels[av[k]] for k in range(len(achains))]
        return solve_energy_split(node, mind.services, lam, avail)[0]

    t = np.zeros((len(mind.actions), len(states), len(states)))
    for ai, withheld in enumerate(mind.actions):
        for si, (b, h, av) in enumerate(states):
            consumed = int(split(av, max(b - withheld, 0)).sum())
            b_next = min(cap, b - consumed + int(hchain.levels[h]))
            for h2 in range(hchain.n_states):
                for av2 in avecs:
                    pa = 1.0
                    for k, chain in enumerate(achains):
                        pa *= chain.transition[av[k], av2[k]]
                    t[ai, si, index[(b_next, h2, av2)]] += hchain.transition[h, h2] * pa
    r = np.zeros((len(mind._profiles), len(states), len(mind.actions)))
    for pi, profile in enumerate(mind._profiles):
        for si, (b, h, av) in enumerate(states):
            for ai, withheld in enumerate(mind.actions):
                energy = split(av, max(b - withheld, 0))
                for k, svc in enumerate(mind.services):
                    lam = float(achains[k].levels[av[k]])
                    if lam <= 0:
                        continue
                    w = svc.unit_rate * node.rate_factor
                    caps = [capacity(w, int(energy[k]), node.unit_energy)]
                    taus = [0.0]
                    for hj, tj in enumerate(profile):
                        if mind.tau[hj] >= svc.deadline:
                            continue
                        spare = mind.type_space.spare_units[tj]
                        caps.append(svc.unit_rate * mind.helper_nodes[hj].rate_factor * spare)
                        taus.append(mind.tau[hj])
                    share = lone_sender_share(np.array(taus), np.array(caps), lam, svc.deadline)
                    r[pi, si, ai] += svc.reward * lam * share
    return t, r


class TestAgentMind:
    def test_tensors_match_cell_by_cell_reference(self):
        assert not np.array_equal(
            np.kron(np.kron(H, A1), A2), np.kron(H, np.kron(A1, A2))
        ), "the chains must make the factor order matter"
        cfg = build_config(chained_mind_config())
        mind = engine._AgentMind(cfg, 0)
        assert mind.helpers == [1, 2]
        assert mind.tau[0] < 0.05 <= mind.tau[1] < 0.1
        t, r = reference_mind_tensors(cfg, mind)
        assert mind._transition.shape == t.shape and mind._transition.dtype == t.dtype
        assert mind._transition.tobytes() == t.tobytes()
        assert mind._reward_profiles.shape == r.shape and mind._reward_profiles.dtype == r.dtype
        assert mind._reward_profiles.tobytes() == r.tobytes()
        assert np.allclose(t.sum(axis=2), 1.0)

    def test_size_guard_counts_reward_cells_before_profiles(self, monkeypatch):
        # battery_cap 0: 8 states and 1 action make 64 transition cells but
        # 9 profiles x 8 states = 72 reward cells
        raw = chained_mind_config()
        raw["defaults"]["node"]["battery_cap"] = 0
        for node in raw["nodes"]:
            node["battery_init"] = 0
        cfg = build_config(raw)
        monkeypatch.setattr(engine, "_MAX_MIND_CELLS", 72)
        assert engine._AgentMind(cfg, 0)._reward_profiles.shape == (9, 8, 1)

        def no_profiles(*args):
            raise AssertionError("profiles enumerated before the size check")

        monkeypatch.setattr(engine, "_MAX_MIND_CELLS", 71)
        monkeypatch.setattr(engine.belief_mod, "enumerate_profiles", no_profiles)
        with pytest.raises(ConfigError, match=r"8 states x 1 actions x 9 neighbor-type profiles"):
            engine._AgentMind(cfg, 0)

def fresh_action(mind, own):
    """The action a new model under the mind's current counts selects in ``own``."""
    s_n, a_n = len(mind.states), len(mind.actions)
    model = FinitePomdp(
        states=tuple(mind.states),
        actions=tuple(mind.actions),
        observations=tuple(mind.states),
        transition=mind._transition,
        observation=np.broadcast_to(np.eye(s_n), (a_n, s_n, s_n)),
        reward=type_profile_rewards(mind._reward_profiles, mind._profiles, mind.counts),
        gamma=mind.gamma,
    )
    point = np.zeros(s_n)
    point[mind.index[own]] = 1.0
    return select_action(model, point, mind.depth, action_costs=[-w for w in mind.actions])


class TestPlanTable:
    """``choose_budget`` reads a plan of every own state, made under the counts it holds."""

    def run_checked(self, raw, monkeypatch):
        """Run an episode, checking the whole plan against fresh selections after each choice.

        Returns, per call, whether it made a new plan.
        """
        original = engine._AgentMind.choose_budget
        replanned = []

        def checked(mind, state):
            before = mind._plan
            budget = original(mind, state)
            i = mind.i
            own = (
                int(state.battery[i]),
                int(state.harvest_idx[i]),
                tuple(int(x) for x in state.arrival_idx[i]),
            )
            assert budget == max(own[0] - mind.actions[fresh_action(mind, own)], 0)
            assert mind._planned_for == mind.counts.tobytes()
            assert mind._plan.tolist() == [fresh_action(mind, s) for s in mind.states]
            replanned.append(mind._plan is not before)
            return budget

        monkeypatch.setattr(engine._AgentMind, "choose_budget", checked)
        run_episode(raw)
        return replanned

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scarcity_plans_once(self, seed, monkeypatch):
        replanned = self.run_checked(scarcity_config(seed, "bpomdp"), monkeypatch)
        # no helpers: the counts never change, so the first plan serves every slot
        assert replanned == [True] + [False] * 99

    def test_helpers_replan_every_slot(self, monkeypatch):
        raw = chained_mind_config()
        raw["slots"] = 12
        replanned = self.run_checked(raw, monkeypatch)
        # helpers move the counts each slot, which calls for a new plan
        assert replanned == [True] * 3 * 12


def repeating_components_config(slots=30):
    """A three-node chain and two far loners, two services.

    Two-level arrival and harvest chains and a small battery make the same
    component games recur; the chain solves on the heuristic path
    (``exhaustive_nodes`` 2), the loners on the exhaustive one.  The loners
    differ only in rate factor, so they pose different games whenever their
    arrivals and budgets coincide.
    """
    two_level = {"kind": "levels", "levels": [5.0, 25.0], "transition": [[0.7, 0.3], [0.4, 0.6]]}

    def coin(low, high):
        return {"kind": "levels", "levels": [low, high], "transition": [[0.5, 0.5], [0.5, 0.5]]}

    return base_engine_config(
        slots=slots,
        services=[
            {"name": "image", "deadline": 0.05, "reward": 1.0, "unit_rate": 10.0},
            {"name": "voice", "deadline": 0.1, "reward": 2.0, "unit_rate": 40.0},
        ],
        defaults={
            "node": {"max_units": 4, "unit_energy": 1, "battery_cap": 4},
            "harvest": {"kind": "constant", "value": 4},
            "arrivals": [{"kind": "constant", "value": 10.0}, two_level],
        },
        nodes=[
            {
                "position": [0.0, 0.0],
                "battery_init": 4,
                "arrivals": [two_level, {"kind": "constant", "value": 20.0}],
            },
            {"position": [100.0, 0.0], "battery_init": 4},
            {"position": [200.0, 0.0], "battery_init": 0, "harvest": coin(1, 3)},
            {"position": [2000.0, 0.0], "battery_init": 2, "harvest": coin(0, 2)},
            {"position": [4000.0, 0.0], "battery_init": 2, "harvest": coin(0, 2), "rate_factor": 2.0},
        ],
        topology={"rule": "radius", "radius": 150.0, "rtt": {"kind": "constant", "tau0": 0.01}},
        policy={"kind": "radius_coop"},
        solver={"exhaustive_nodes": 2},
    )


class TestSolveReuse:
    @pytest.mark.parametrize(
        "raw",
        [scarcity_config(0, "bpomdp", slots=30), repeating_components_config()],
        ids=["scarcity-bpomdp", "five-node-radius-coop"],
    )
    def test_records_match_fresh_solves(self, raw):
        result = run_episode(raw)
        cfg = result.config
        n, k_n = cfg.network.n_nodes, cfg.network.n_services
        comps = weak_components(policy_adjacency(cfg))
        games = 0
        distinct = set()
        for rec in result.records:
            energy = np.zeros((n, k_n), dtype=int)
            rewards = np.zeros((n, k_n))
            welfare = 0.0
            statuses = []
            for comp in comps:
                g = GameInstance(cfg.network, rec.arrivals, rec.budgets).restrict(comp)
                sol = solve_social_welfare(g, cfg.solver)
                energy[comp] = sol.agreement.energy
                rewards[comp] = sol.agreement.rewards
                welfare += sol.welfare
                statuses.append(sol.status)
                games += 1
                distinct.add((tuple(comp), g.arrivals.tobytes(), g.budgets.tobytes()))
            assert np.array_equal(rec.energy, energy)
            assert np.array_equal(rec.rewards, rewards)
            assert rec.welfare == welfare
            assert rec.statuses == tuple(statuses)
        # the episode must pose some game more than once, or nothing was reused
        assert len(distinct) < games

    def test_each_distinct_game_solved_once(self, monkeypatch):
        calls = {"solve": 0, "validate": 0}

        def counting(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(engine, "solve_social_welfare", counting(solve_social_welfare, "solve"))
        monkeypatch.setattr(
            engine, "validate_agreement", counting(engine.validate_agreement, "validate")
        )
        result = run_episode(scarcity_config(0, "myopic"))
        distinct = {(r.arrivals.tobytes(), r.budgets.tobytes()) for r in result.records}
        assert calls["solve"] == len(distinct) < len(result.records)
        assert calls["validate"] == len(result.records)

    def test_reused_slot_still_validated(self, monkeypatch):
        # a violation reported on a slot whose game was solved before still
        # stops the episode
        raw = scarcity_config(0, "myopic", slots=10)
        keys = [(r.arrivals.tobytes(), r.budgets.tobytes()) for r in run_episode(raw).records]
        reused = next(t for t in range(len(keys)) if keys[t] in keys[:t])
        calls = []

        def failing_on_reused(net, state, agreement):
            calls.append(agreement)
            return [Violation("capacity", 0, 0, "injected")] if len(calls) == reused + 1 else []

        monkeypatch.setattr(engine, "validate_agreement", failing_on_reused)
        with pytest.raises(EngineInvariantError, match=f"slot {reused}: .*injected"):
            run_episode(raw)


class TestSlotArrays:
    def test_agreement_and_state_hold_the_engine_arrays_uncopied(self, monkeypatch):
        """Each slot's arrays are read-only once filled, so the agreement and
        the slot state keep the engine's own arrays, the record's included."""
        seen = []
        validate = engine.validate_agreement

        def recording(net, state, agreement):
            seen.append((state, agreement))
            return validate(net, state, agreement)

        monkeypatch.setattr(engine, "validate_agreement", recording)
        result = run_episode(starved_pair_config())
        assert len(seen) == len(result.records)
        for rec, (state, agreement) in zip(result.records, seen):
            assert agreement.energy is rec.energy and agreement.rewards is rec.rewards
            assert state.arrivals is rec.arrivals
            assert np.array_equal(state.battery, rec.battery_before)
            assert np.array_equal(state.harvested_prev, rec.harvested)
            assert np.array_equal(agreement.offload.sum(axis=2).T * rec.arrivals, rec.offloaded)
            for a in (agreement.energy, agreement.offload, agreement.rewards,
                      state.battery, state.arrivals, state.harvested_prev):
                assert not a.flags.writeable


class TestReports:
    def test_identical_runs_write_identical_bytes(self, tmp_path):
        raw = base_engine_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_report(run_episode(raw), str(a))
        emit_report(run_episode(raw), str(b))
        assert (a / "slots.csv").read_bytes() == (b / "slots.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_report_round_trip_and_row_count(self, tmp_path):
        raw = base_engine_config()
        result = run_episode(raw)
        emit_report(result, str(tmp_path))
        rows, summary = load_report(str(tmp_path))
        assert len(rows) == raw["slots"] * 2
        assert summary["total_welfare"] == pytest.approx(result.total_welfare())
        assert summary["policy"] == "radius_coop"
        assert rows[0]["slot"] == 0 and rows[0]["node"] == 0

    def test_audit_rejects_tampered_rows(self, tmp_path):
        result = run_episode(base_engine_config())
        emit_report(result, str(tmp_path))
        csv_path = tmp_path / "slots.csv"
        lines = csv_path.read_text().splitlines()
        cols = lines[-1].split(",")
        cols[-1] = "999.0"
        lines[-1] = ",".join(cols)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_report(str(tmp_path))
        assert "does not match" in str(err.value)


class TestSweep:
    def scarce_solo(self):
        node = dict(base_engine_config()["nodes"][0])
        node["battery_init"] = 2
        raw = base_engine_config(nodes=[node], slots=4)
        raw["defaults"]["node"]["battery_cap"] = 8
        raw["defaults"]["harvest"] = {"kind": "constant", "value": 2}
        raw["policy"] = {"kind": "no_coop"}
        return raw

    def test_paired_seeds_and_summary(self):
        raw = self.scarce_solo()
        result = run_sweep(raw, "defaults.harvest.value", [2, 6], reps=3)
        assert len(result.rows) == 6
        for vi in range(2):
            seeds = [result.rows[vi * 3 + r]["seed"] for r in range(3)]
            assert seeds == [7, 8, 9]
        for vi, cell in enumerate(result.summary):
            totals = [result.rows[vi * 3 + r]["total_welfare"] for r in range(3)]
            assert cell["mean_total_welfare"] == pytest.approx(np.mean(totals))
            assert cell["reps"] == 3
        # more harvested energy can only help a battery-limited node
        assert result.summary[1]["mean_total_welfare"] >= result.summary[0]["mean_total_welfare"]

    def test_emit_sweep_shape(self, tmp_path):
        result = run_sweep(self.scarce_solo(), "defaults.harvest.value", [2, 4], reps=2)
        csv_path, json_path = emit_sweep(result, str(tmp_path))
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "axis,value,rep,seed,total_welfare,mean_slot_welfare,total_offloaded"
        assert len(lines) == 1 + 4

    def test_parallel_sweep_matches_serial(self):
        raw = self.scarce_solo()
        serial = run_sweep(raw, "defaults.harvest.value", [2, 4], reps=2, workers=1)
        parallel = run_sweep(raw, "defaults.harvest.value", [2, 4], reps=2, workers=2)
        assert parallel.rows == serial.rows
        assert parallel.summary == serial.summary

    def test_bad_axis_value_propagates_config_error(self):
        with pytest.raises(ConfigError):
            run_sweep(self.scarce_solo(), "policy.kind", ["optimal"], reps=1)

    def test_misspelled_axis_is_rejected(self):
        with pytest.raises(ConfigError) as err:
            run_sweep(self.scarce_solo(), "topology.rtt.tau_0", [0.5], reps=1)
        assert "topology.rtt.tau_0" in str(err.value)

    @pytest.mark.parametrize(
        "axis, step",
        [
            ("seed.foo", "seed is 7, not a mapping or a list"),
            ("nodes.9.battery_init", "nodes has no index 9"),
        ],
        ids=["into-a-number", "past-the-node-list"],
    )
    def test_bad_axis_exits_one(self, tmp_path, capsys, axis, step):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(self.scarce_solo()))
        argv = ["sweep", "--config", str(cfg), "--axis", axis, "--values", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: axis {axis}: {step}")

    def test_reps_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_sweep(self.scarce_solo(), "defaults.harvest.value", [2], reps=0)


class TestSetConfigValue:
    def test_nested_and_list_paths(self):
        raw = base_engine_config()
        out = set_config_value(raw, "defaults.harvest.value", 3)
        assert out["defaults"]["harvest"]["value"] == 3
        assert raw["defaults"]["harvest"]["value"] == 5
        out = set_config_value(raw, "nodes.1.battery_init", 0)
        assert out["nodes"][1]["battery_init"] == 0
        assert raw["nodes"][1]["battery_init"] == 10

    def test_new_keys_are_created(self):
        out = set_config_value(base_engine_config(), "solver.exhaustive_nodes", 5)
        assert out["solver"]["exhaustive_nodes"] == 5


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def test_run_and_validate_succeed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_engine_config())
        out = tmp_path / "report"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "slots.csv").exists()
        assert (out / "summary.json").exists()
        assert "total welfare" in capsys.readouterr().out
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_run_policy_override(self, tmp_path):
        import json

        cfg = self.write_config(tmp_path, base_engine_config())
        out = tmp_path / "r"
        assert cli.main(["run", "--config", cfg, "--policy", "no_coop",
                         "--slots", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy"] == "no_coop"
        assert summary["slots"] == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.yaml"),
                         "--out", str(tmp_path / "x")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--instance", "{dir}"],
            ["run", "--config", "{dir}", "--out", "{dir}/r"],
            ["sweep", "--config", "{dir}", "--axis", "seed", "--values", "1", "--out", "{dir}/s"],
            ["run", "--config", "{cfg}", "--slots", "1", "--out", "{cfg}"],
        ],
        ids=["oracle-instance-dir", "run-config-dir", "sweep-config-dir", "run-out-file"],
    )
    def test_unusable_path_exits_one(self, tmp_path, capsys, argv):
        cfg = self.write_config(tmp_path, base_engine_config())
        argv = [a.format(dir=tmp_path, cfg=cfg) for a in argv]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        raw = base_engine_config()
        raw["policy"] = {"kind": "optimal"}
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert "policy.kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "chain, key",
        [
            (
                {"arrivals": [{"kind": "bursty", "low": 1.0, "high": 5.0, "persistence": 1.5}]},
                "nodes[0].arrivals[0].persistence",
            ),
            ({"harvest": {"kind": "uniform", "max": 1, "min": 3}}, "nodes[0].harvest.max"),
        ],
        ids=["bursty-persistence", "uniform-max-below-min"],
    )
    def test_rejected_chain_value_names_its_key(self, tmp_path, capsys, chain, key):
        raw = base_engine_config()
        raw["nodes"][0].update(chain)
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert key + ":" in capsys.readouterr().err

    def test_sweep_writes_rows(self, tmp_path, capsys):
        raw = base_engine_config(slots=2)
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", cfg, "--axis", "defaults.harvest.value",
            "--values", "5,10", "--reps", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert "mean total welfare" in capsys.readouterr().out

    def test_oracle_pass_on_small_instance(self, tmp_path, capsys):
        from fogslice.game import GameInstance, dump_instance
        from conftest import make_network

        # abundant instance: the optimum is full service, which sits on the grid
        inst = tmp_path / "two.inst"
        dump_instance(
            GameInstance(
                network=make_network(n_nodes=2),
                arrivals=np.array([[30.0], [10.0]]),
                budgets=np.array([5, 5]),
            ),
            inst,
        )
        assert cli.main(["oracle", "--instance", str(inst), "--grid", "0.05"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["0", "-0.1", "nan"])
    def test_oracle_rejects_invalid_grid(self, tmp_path, capsys, grid):
        from fogslice.game import GameInstance, dump_instance
        from conftest import make_network

        inst = tmp_path / "one.inst"
        dump_instance(
            GameInstance(
                network=make_network(n_nodes=1, neighbors=(frozenset(),)),
                arrivals=np.array([[10.0]]),
                budgets=np.array([2]),
            ),
            inst,
        )
        assert cli.main(["oracle", "--instance", str(inst), "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: grid must be")
        assert grid in err

    def test_oracle_rejects_large_instance(self, tmp_path, capsys):
        from fogslice.game import GameInstance, dump_instance
        from conftest import make_network

        inst = tmp_path / "four.inst"
        dump_instance(
            GameInstance(
                network=make_network(n_nodes=4),
                arrivals=np.full((4, 1), 10.0),
                budgets=np.full(4, 2),
            ),
            inst,
        )
        assert cli.main(["oracle", "--instance", str(inst)]) == 1
        assert "at most 3 nodes" in capsys.readouterr().err
