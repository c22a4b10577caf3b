"""Episode engine: config validation, physics invariants, reports, CLI."""

import numpy as np
import pytest
import yaml

from fogslice import cli, engine
from fogslice.belief import type_profile_rewards
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
from fogslice.game import solve_social_welfare
from fogslice.model import Violation
from fogslice.oracles import value_iteration

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
        ],
    )
    def test_bad_configs_name_the_field(self, mutate, fragment):
        raw = base_engine_config()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert fragment in str(err.value)

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
        ],
    )
    def test_unknown_keys_are_rejected(self, mutate, path):
        raw = base_engine_config()
        mutate(raw)
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert f"{path}: unknown key" in str(err.value)

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

    def test_backlogged_pins_arrivals_at_peak(self):
        raw = base_engine_config(backlogged=True, slots=6)
        raw["nodes"][0]["arrivals"] = [
            {
                "kind": "levels",
                "levels": [5.0, 30.0],
                "transition": [[0.5, 0.5], [0.5, 0.5]],
            }
        ]
        result = run_episode(raw)
        for rec in result.records:
            assert rec.arrivals[0, 0] == 30.0

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
                g = engine._component_game(cfg.network, rec.arrivals, rec.budgets, comp)
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

    def test_bad_axis_value_propagates_config_error(self):
        with pytest.raises(ConfigError):
            run_sweep(self.scarce_solo(), "policy.kind", ["optimal"], reps=1)

    def test_misspelled_axis_is_rejected(self):
        with pytest.raises(ConfigError) as err:
            run_sweep(self.scarce_solo(), "topology.rtt.tau_0", [0.5], reps=1)
        assert "topology.rtt.tau_0" in str(err.value)

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

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        raw = base_engine_config()
        raw["policy"] = {"kind": "optimal"}
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert "policy.kind" in capsys.readouterr().err

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
