"""Per-slot slicing game: offload solver, energy splits, welfare, core."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogslice.game import (
    RESIDUAL_FLOOR,
    CoreOptions,
    GameInstance,
    SliceInstance,
    _best_split,
    _waterfill,
    check_core,
    dump_instance,
    load_instance,
    lone_sender_share,
    solve_energy_split,
    solve_offload,
    solve_social_welfare,
)
from fogslice.model import (
    FogNodeSpec,
    NetworkSpec,
    ServiceTypeSpec,
    SlicingAgreement,
    SlotState,
    validate_agreement,
)
from fogslice.oracles import grid_slice_welfare
from fogslice.queueing import optimal_local_fraction, response_times

from conftest import make_network, make_node, make_service


def pair_slice(energy, arrivals, deadline=0.1, unit_rate=10.0, tau=0.02, reward=1.0):
    svc = make_service(deadline=deadline, reward=reward, unit_rate=unit_rate)
    rtt = np.array([[0.0, tau], [tau, 0.0]])
    return SliceInstance(
        service=svc,
        nodes=(make_node(), make_node()),
        energy=np.asarray(energy, dtype=int),
        arrivals=np.asarray(arrivals, dtype=float),
        neighbors=(frozenset({1}), frozenset({0})),
        rtt=rtt,
    )


def solo_slice(energy, lam, deadline=0.1, unit_rate=10.0):
    svc = make_service(deadline=deadline, unit_rate=unit_rate)
    return SliceInstance(
        service=svc,
        nodes=(make_node(),),
        energy=np.array([energy], dtype=int),
        arrivals=np.array([lam]),
        neighbors=(frozenset(),),
        rtt=np.zeros((1, 1)),
    )


def random_slice(rng, n_max=3):
    n = int(rng.integers(1, n_max + 1))
    svc = make_service(
        deadline=float(rng.uniform(0.04, 0.15)),
        unit_rate=float(rng.uniform(8.0, 30.0)),
    )
    neighbors = tuple(frozenset(j for j in range(n) if j != i) for i in range(n))
    rtt = np.full((n, n), float(rng.choice([0.01, 0.02, 0.03])))
    np.fill_diagonal(rtt, 0.0)
    return SliceInstance(
        service=svc,
        nodes=tuple(make_node() for _ in range(n)),
        energy=rng.integers(0, 5, n),
        arrivals=np.round(rng.uniform(0.0, 40.0, n), 1),
        neighbors=neighbors,
        rtt=rtt,
    )


def slice_verdict(inst, alpha):
    """validate_agreement's violations for one slice under alpha, and its payoff.

    The slice becomes a one-service network whose nodes hold exactly the
    committed energy; rewards are recorded as the offloaded workload earns.
    """
    alpha = np.asarray(alpha, dtype=float)
    net = NetworkSpec(
        services=(inst.service,), nodes=inst.nodes, neighbors=inst.neighbors, rtt=inst.rtt
    )
    rewards = inst.service.reward * inst.arrivals * alpha.sum(axis=1)
    state = SlotState(
        battery=inst.energy,
        arrivals=inst.arrivals[:, None],
        harvested_prev=np.zeros(inst.n_nodes, dtype=int),
    )
    agreement = SlicingAgreement(
        energy=inst.energy[:, None], offload=alpha[None], rewards=rewards[:, None]
    )
    return validate_agreement(net, state, agreement), float(rewards.sum())


class TestSliceWorth:
    def test_two_members_sum(self):
        inst = pair_slice([5, 5], [30.0, 20.0])
        assert slice_verdict(inst, np.eye(2)) == ([], pytest.approx(50.0))

    def test_zero_offload(self):
        inst = pair_slice([5, 5], [30.0, 20.0])
        assert slice_verdict(inst, np.zeros((2, 2))) == ([], 0.0)

    def test_infeasible_rejected_with_violations(self):
        inst = pair_slice([1, 0], [30.0, 0.0])
        # 30 req into capacity 10
        violations, _ = slice_verdict(inst, np.eye(2))
        assert any(v.kind == "capacity" and v.node == 0 for v in violations)

    def test_row_sum_above_one_rejected(self):
        inst = pair_slice([5, 5], [10.0, 10.0])
        alpha = np.array([[0.8, 0.4], [0.0, 1.0]])
        violations, _ = slice_verdict(inst, alpha)
        assert [(v.kind, v.node) for v in violations] == [("allocation", 0)]

    def test_deadline_breach_rejected(self):
        inst = pair_slice([3, 0], [29.0, 0.0], deadline=0.05)
        violations, _ = slice_verdict(inst, np.eye(2) * [1.0, 0.0])
        assert [(v.kind, v.node) for v in violations] == [("deadline", 0)]

    def test_offload_over_rtt_dominated_edge_rejected(self):
        # The round trip alone (0.12 s) exceeds the deadline, so the edge is
        # closed however little of the mix it carries; the fraction-weighted
        # response time (0.85 / 33 + 0.1 * (0.12 + 1 / 48) = 0.040 s) would
        # not notice.
        inst = pair_slice([5, 5], [20.0, 0.0], deadline=0.1, tau=0.12)
        assert not inst.allowed()[0, 1]
        violations, _ = slice_verdict(inst, [[0.85, 0.1], [0.0, 0.0]])
        assert [(v.kind, v.node) for v in violations] == [("allocation", 0)]
        assert "rtt >= deadline: [1]" in violations[0].detail
        # The same mix with the edge open passes.
        open_edge = pair_slice([5, 5], [20.0, 0.0], deadline=0.1, tau=0.02)
        assert slice_verdict(open_edge, [[0.85, 0.1], [0.0, 0.0]]) == ([], pytest.approx(19.0))


class TestSolveOffload:
    def test_single_node_full_service_matches_closed_form(self):
        # abundant: cap 50 vs load 20 + 1/theta 10, both land on alpha = 1
        inst = solo_slice(5, 20.0)
        sol = solve_offload(inst)
        frac = optimal_local_fraction(5, 1, 10.0, 20.0, 0.1)
        assert frac == 1.0
        assert sol.alpha[0, 0] == pytest.approx(frac, abs=1e-9)
        assert sol.welfare == pytest.approx(20.0, abs=1e-7)

    def test_single_node_scarce_beats_closed_form(self):
        # scarce: cap 30 vs load 100; the per-request deadline mix allows
        # a larger admitted share than the plain sojourn-time bound
        inst = solo_slice(3, 100.0)
        sol = solve_offload(inst)
        closed = optimal_local_fraction(3, 1, 10.0, 100.0, 0.1)
        weighted = 0.1 * 30.0 / (1.0 + 0.1 * 100.0)
        assert sol.alpha[0, 0] == pytest.approx(weighted, abs=1e-7)
        assert sol.alpha[0, 0] >= closed
        tr = response_times(sol.alpha, inst.arrivals, inst.capacities(), inst.rtt)
        assert tr[0] <= 0.1 + 1e-9

    def test_two_node_objective_against_fine_grid(self):
        inst = pair_slice([5, 5], [80.0, 20.0])
        sol = solve_offload(inst)
        oracle = grid_slice_welfare(inst, grid=0.01)
        assert sol.welfare >= oracle - 1e-9
        assert sol.welfare - oracle <= 1e-3 * oracle
        # the reported objective is really achieved by the returned matrix
        violations, worth = slice_verdict(inst, sol.alpha)
        assert violations == []
        assert worth == pytest.approx(sol.welfare, abs=1e-7)

    def test_large_rtt_kills_cross_forwarding(self):
        inst = pair_slice([5, 5], [80.0, 5.0], deadline=0.05, tau=0.06)
        sol = solve_offload(inst)
        off_diag = sol.alpha[~np.eye(2, dtype=bool)]
        assert np.all(off_diag == 0.0)
        # shrink the rtt below the deadline and forwarding resumes
        near = pair_slice([5, 5], [80.0, 5.0], deadline=0.05, tau=0.02)
        assert solve_offload(near).alpha[0, 1] > 0.0

    def test_deadline_met_by_every_member(self, rng):
        for _ in range(30):
            inst = random_slice(rng)
            sol = solve_offload(inst)
            tr = response_times(sol.alpha, inst.arrivals, inst.capacities(), inst.rtt)
            for i in range(inst.n_nodes):
                if sol.alpha[i].sum() > 0:
                    assert tr[i] <= inst.service.deadline + 1e-9

    def test_reward_rate_linearity(self, rng):
        for _ in range(5):
            inst = random_slice(rng)
            scaled = SliceInstance(
                service=ServiceTypeSpec(
                    name=inst.service.name,
                    deadline=inst.service.deadline,
                    reward=inst.service.reward * 7.0,
                    unit_rate=inst.service.unit_rate,
                ),
                nodes=inst.nodes,
                energy=inst.energy,
                arrivals=inst.arrivals,
                neighbors=inst.neighbors,
                rtt=inst.rtt,
            )
            base = solve_offload(inst)
            up = solve_offload(scaled)
            assert np.array_equal(base.alpha, up.alpha)
            assert up.welfare == pytest.approx(7.0 * base.welfare, rel=1e-12)

    def test_zero_capacity_slice_returns_zero(self):
        inst = pair_slice([0, 0], [30.0, 20.0])
        sol = solve_offload(inst)
        assert np.all(sol.alpha == 0.0)
        assert sol.welfare == 0.0

    def test_monotone_in_member_energy(self, rng):
        for _ in range(25):
            inst = random_slice(rng)
            base = solve_offload(inst).welfare
            i = int(rng.integers(inst.n_nodes))
            energy = np.asarray(inst.energy).copy()
            energy[i] += 1
            richer = SliceInstance(
                service=inst.service,
                nodes=inst.nodes,
                energy=energy,
                arrivals=inst.arrivals,
                neighbors=inst.neighbors,
                rtt=inst.rtt,
            )
            # ascent termination noise sits near 1e-8 on full-service instances
            assert solve_offload(richer).welfare >= base - 1e-6


def assert_best_whole_unit_split(split, value, tables, budget, cap, step):
    """Check split against every whole-unit split within cap and budget.

    It must be worth value, and none may beat it on value, then smaller
    total, then smaller sum of squares.
    """

    def key(s):
        worth = 0.0
        for table, e in zip(tables, s):
            worth += table[e]
        return worth, -sum(s), -sum(e * e for e in s)

    units = range(0, cap + 1, step)
    best = max(key(s) for s in itertools.product(units, repeat=len(tables)) if sum(s) <= budget)
    split = tuple(int(e) for e in split)
    assert all(e % step == 0 and 0 <= e <= cap for e in split)
    assert sum(split) <= budget
    assert key(split) == best
    assert value == best[0]


class TestWaterfill:
    def test_box_without_residual_rejected(self):
        tau = np.full(3, 0.01)
        cap = np.array([20.0, 30.0, 40.0])
        # 60 requests into any one destination saturate it
        with pytest.raises(ValueError):
            _waterfill(tau, cap, np.ones(3), 60.0, 0.1)
        # boxes that leave the residual floor serve a share
        assert np.all((cap - RESIDUAL_FLOOR) / 60.0 < 1.0)
        assert lone_sender_share(tau, cap, 60.0, 0.1) > 0.0


class TestEnergySplit:
    def test_single_service_gets_everything(self):
        node = make_node()
        svcs = (make_service(),)
        split, value = solve_energy_split(node, svcs, np.array([80.0]), 6)
        assert split[0] == 6
        assert value == pytest.approx(optimal_local_fraction(6, 1, 10.0, 80.0, 0.1) * 80.0)
        # 4 units already serve all 25 requests: the rest stays unspent
        split, value = solve_energy_split(node, svcs, np.array([25.0]), 6)
        assert split[0] == 4
        assert value == pytest.approx(25.0)

    def test_symmetric_services_split_evenly(self):
        node = make_node()
        svcs = (make_service(name="a"), make_service(name="b"))
        split, value = solve_energy_split(node, svcs, np.array([15.0, 15.0]), 4)
        assert abs(int(split[0]) - int(split[1])) <= 1
        assert value == pytest.approx(20.0)  # 2 units each serve 2/3 of 15

    def test_image_voice_split_matches_enumeration(self):
        image = ServiceTypeSpec(name="image", deadline=0.05, reward=1.0, unit_rate=10.0)
        voice = ServiceTypeSpec(name="voice", deadline=0.1, reward=1.0, unit_rate=40.0)
        node = make_node(max_units=20)
        arrivals = np.array([100.0, 200.0])
        split, value = solve_energy_split(node, (image, voice), arrivals, 6)

        def standalone(e_img, e_voice):
            total = 0.0
            for svc, e, lam in ((image, e_img, 100.0), (voice, e_voice, 200.0)):
                frac = optimal_local_fraction(e, 1, svc.unit_rate, lam, svc.deadline)
                total += svc.reward * frac * lam
            return total

        best = max(standalone(e, 6 - e) for e in range(7))
        assert value == pytest.approx(best)
        assert value == pytest.approx(standalone(*split))
        # all six units belong on voice here
        assert tuple(split) == (0, 6)

    def test_zero_budget(self):
        node = make_node()
        split, value = solve_energy_split(node, (make_service(),), np.array([10.0]), 0)
        assert split[0] == 0
        assert value == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12),  # budget
        st.integers(0, 12),  # cap
        st.integers(1, 3),  # step
        # small integer values, so ties are common
        st.lists(st.lists(st.integers(0, 3), min_size=13, max_size=13), min_size=1, max_size=3),
    )
    def test_best_split_matches_enumeration(self, budget, cap, step, int_tables):
        tables = [[float(v) for v in t] for t in int_tables]
        split, value = _best_split(tables, budget, cap, step)
        assert_best_whole_unit_split(split, value, tables, budget, cap, step)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),  # unit energy
        st.integers(1, 5),  # max units
        st.lists(
            st.tuples(
                st.sampled_from([0.05, 0.1, 0.2]),
                st.sampled_from([5.0, 10.0, 20.0]),
                st.sampled_from([0.0, 10.0, 20.0, 40.0]),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 12),
    )
    def test_split_matches_enumeration(self, unit_energy, max_units, specs, budget):
        node = FogNodeSpec(max_units=max_units, unit_energy=unit_energy, battery_cap=100)
        svcs = tuple(
            make_service(name=f"s{k}", deadline=d, unit_rate=w) for k, (d, w, _) in enumerate(specs)
        )
        arrivals = np.array([lam for _, _, lam in specs])
        tables = [
            [
                lam * optimal_local_fraction(e, unit_energy, svc.unit_rate, lam, svc.deadline)
                if lam > 0
                else 0.0
                for e in range(budget + 1)
            ]
            for svc, lam in zip(svcs, arrivals)
        ]
        split, value = solve_energy_split(node, svcs, arrivals, budget)
        cap = min(budget, max_units * unit_energy)
        assert_best_whole_unit_split(split, value, tables, budget, cap, unit_energy)


class TestSocialWelfare:
    def test_isolated_network_composes_per_node_splits(self):
        net = make_network(
            n_nodes=2,
            services=(make_service(name="a"), make_service(name="b")),
            neighbors=(frozenset(), frozenset()),
        )
        arrivals = np.array([[20.0, 10.0], [30.0, 10.0]])
        budgets = np.array([5, 4])
        sol = solve_social_welfare(GameInstance(network=net, arrivals=arrivals, budgets=budgets))
        expected = 0.0
        for i in range(2):
            _, value = solve_energy_split(net.nodes[i], net.services, arrivals[i], int(budgets[i]))
            expected += value
        assert expected == pytest.approx(30.0 + 30.0)
        assert sol.welfare == pytest.approx(expected, abs=1e-7)
        assert sol.certified

    def test_three_node_welfare_equals_grid_oracle(self):
        from fogslice.oracles import exhaustive_welfare

        svcs = (
            make_service(name="a", deadline=0.1, unit_rate=50.0),
            make_service(name="b", deadline=0.1, unit_rate=60.0),
        )
        net = NetworkSpec(
            services=svcs,
            nodes=tuple(make_node(battery_cap=50) for _ in range(3)),
            neighbors=(frozenset({1}), frozenset({0, 2}), frozenset({1})),
            rtt=np.array([[0.0, 0.02, 0.04], [0.02, 0.0, 0.02], [0.04, 0.02, 0.0]]),
        )
        game = GameInstance(
            network=net,
            arrivals=np.array([[20.0, 10.0], [5.0, 5.0], [0.0, 15.0]]),
            budgets=np.array([3, 3, 0]),
        )
        sol = solve_social_welfare(game)
        oracle = exhaustive_welfare(game, grid=0.1)
        assert abs(sol.welfare - oracle) <= 1e-3 * oracle
        # node 2 has no energy: its voice load is served, so forwarding happened
        assert sol.welfare == pytest.approx(55.0, abs=1e-6)
        assert sol.agreement.offload[1][2].sum() > 0.9

    def test_cooperation_never_pays_less_than_isolation(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 4))
            net = make_network(
                n_nodes=n,
                services=(make_service(deadline=float(rng.uniform(0.05, 0.15))),),
            )
            arrivals = np.round(rng.uniform(0.0, 35.0, (n, 1)), 1)
            budgets = rng.integers(0, 5, n)
            game = GameInstance(network=net, arrivals=arrivals, budgets=budgets)
            coop = solve_social_welfare(game).welfare

            isolated_net = make_network(
                n_nodes=n,
                services=net.services,
                neighbors=tuple(frozenset() for _ in range(n)),
            )
            iso = solve_social_welfare(
                GameInstance(network=isolated_net, arrivals=arrivals, budgets=budgets)
            ).welfare
            assert coop >= iso - 1e-7

    def test_agreement_validates(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            net = make_network(n_nodes=n)
            arrivals = np.round(rng.uniform(0.0, 30.0, (n, 1)), 1)
            budgets = rng.integers(0, 5, n)
            game = GameInstance(network=net, arrivals=arrivals, budgets=budgets)
            sol = solve_social_welfare(game)
            state = SlotState(
                battery=budgets, arrivals=arrivals, harvested_prev=np.zeros(n, dtype=int)
            )
            assert validate_agreement(net, state, sol.agreement) == []


class TestCheckCore:
    def test_single_node_trivially_core(self):
        net = make_network(n_nodes=1, neighbors=(frozenset(),))
        game = GameInstance(network=net, arrivals=np.array([[20.0]]), budgets=np.array([4]))
        sol = solve_social_welfare(game)
        result = check_core(game, sol.agreement)
        assert result.deviation is None
        assert result.certified

    def test_solver_agreement_certified_on_star_fixture(self):
        # starved center with zero budget, two surplus arms; the arms keep
        # their own service whole, so no subset can strictly improve on it
        net = make_network(
            n_nodes=3,
            neighbors=(frozenset({1, 2}), frozenset({0}), frozenset({0})),
        )
        arrivals = np.array([[40.0], [10.0], [8.0]])
        budgets = np.array([0, 5, 4])
        game = GameInstance(network=net, arrivals=arrivals, budgets=budgets)
        sol = solve_social_welfare(game)
        # the arms really are made whole and the center gets helped
        rewards = sol.agreement.total_rewards()
        assert rewards[1] == pytest.approx(10.0, abs=1e-6)
        assert rewards[2] == pytest.approx(8.0, abs=1e-6)
        assert rewards[0] > 0.0
        result = check_core(game, sol.agreement)
        assert result.deviation is None
        assert result.certified

    def test_exploited_contributor_deviates_alone(self):
        net = make_network(n_nodes=2)
        game = GameInstance(
            network=net, arrivals=np.array([[50.0], [50.0]]), budgets=np.array([5, 5])
        )
        # node 1 serves half its load locally and dumps the rest on node 0,
        # which burns all its energy hosting and earns nothing
        offload = np.zeros((1, 2, 2))
        offload[0, 1, 1] = 0.5
        offload[0, 1, 0] = 0.5
        agreement = SlicingAgreement(
            energy=np.array([[5], [5]]),
            offload=offload,
            rewards=np.array([[0.0], [50.0]]),
        )
        result = check_core(game, agreement)
        assert result.deviation is not None
        assert result.deviation.members == (0,)
        assert result.deviation.rewards[0] > 0.0

    def test_grid_respected_in_deviation(self):
        net = make_network(n_nodes=2)
        game = GameInstance(
            network=net, arrivals=np.array([[50.0], [50.0]]), budgets=np.array([5, 5])
        )
        offload = np.zeros((1, 2, 2))
        offload[0, 1, 1] = 0.5
        offload[0, 1, 0] = 0.5
        agreement = SlicingAgreement(
            energy=np.array([[5], [5]]),
            offload=offload,
            rewards=np.array([[0.0], [50.0]]),
        )
        result = check_core(game, agreement, CoreOptions(grid=0.25))
        dev = result.deviation
        assert dev is not None
        scaled = np.asarray(dev.alphas[0]) / 0.25
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)


class TestInstanceFiles:
    def build_game(self):
        net = make_network(
            n_nodes=3,
            services=(make_service(name="image img", deadline=0.05), make_service(name="voice")),
            neighbors=(frozenset({1}), frozenset({0, 2}), frozenset({1})),
        )
        arrivals = np.array([[20.0, 5.5], [0.0, 12.25], [7.0, 3.0]])
        budgets = np.array([3, 0, 2])
        return GameInstance(network=net, arrivals=arrivals, budgets=budgets)

    def test_round_trip_is_byte_stable(self, tmp_path):
        game = self.build_game()
        first = tmp_path / "a.inst"
        second = tmp_path / "b.inst"
        dump_instance(game, first)
        loaded = load_instance(first)
        dump_instance(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert np.allclose(loaded.arrivals, game.arrivals)
        assert np.array_equal(loaded.budgets, game.budgets)
        assert loaded.network.neighbors == game.network.neighbors
        assert np.allclose(loaded.network.rtt, game.network.rtt)
        svc = loaded.network.services[0]
        assert svc.name == "image img"
        assert svc.deadline == 0.05

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.inst"
        path.write_text("service 0 a 0.1 1.0 10.0\n")
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert "header" in str(err.value)

    def test_malformed_record_names_line(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "mangled.inst"
        dump_instance(game, path)
        lines = path.read_text().splitlines()
        lines[3] = "node 0 ten 1 100 1.0 n0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert ":4" in str(err.value) or "line 4" in str(err.value)

    def test_solver_replay_from_file(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "replay.inst"
        dump_instance(game, path)
        original = solve_social_welfare(game).welfare
        replayed = solve_social_welfare(load_instance(path)).welfare
        assert replayed == original
