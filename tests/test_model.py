"""Agreement validation against the per-slot feasibility constraints."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogslice.game import GameInstance
from fogslice.model import (
    DimensionMismatch,
    FogNodeSpec,
    ServiceTypeSpec,
    SlicingAgreement,
    SlotState,
    activated_units,
    capacities,
    validate_agreement,
)

from conftest import make_network, make_node, make_service


def make_state(network, battery, arrivals):
    n, k = network.n_nodes, network.n_services
    return SlotState(
        battery=np.asarray(battery, dtype=int),
        arrivals=np.asarray(arrivals, dtype=float).reshape(n, k),
        harvested_prev=np.zeros(n, dtype=int),
    )


def make_agreement(network, energy, offload, rewards=None):
    energy = np.asarray(energy, dtype=int)
    offload = np.asarray(offload, dtype=float)
    if rewards is None:
        rewards = np.zeros(energy.shape)
    return SlicingAgreement(energy=energy, offload=offload, rewards=np.asarray(rewards, dtype=float))


def consistent_rewards(network, state, offload):
    n, k = network.n_nodes, network.n_services
    rewards = np.zeros((n, k))
    for s in range(k):
        served = offload[s].sum(axis=1) * state.arrivals[:, s]
        rewards[:, s] = network.services[s].reward * served
    return rewards


@st.composite
def capacity_feasible_slices(draw):
    """A one-service network of at most 4 nodes and an offload matrix within capacity.

    Rows stay inside the forwarding graph and sum to at most one; columns
    whose load exceeds the destination's capacity are scaled back under it.
    """
    n = draw(st.integers(1, 4))
    svc = make_service(
        deadline=draw(st.sampled_from([0.05, 0.1, 0.2])),
        unit_rate=draw(st.floats(5.0, 40.0)),
    )
    net = make_network(n_nodes=n, services=(svc,), tau=draw(st.sampled_from([0.01, 0.03, 0.06])))
    energy = draw(hnp.arrays(int, n, elements=st.integers(0, 5)))
    lam = draw(hnp.arrays(float, n, elements=st.floats(0.0, 60.0)))
    game = GameInstance(network=net, arrivals=lam[:, None], budgets=energy)
    inst = game.slice_for(0, energy)
    alpha = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 1.0))) * inst.allowed()
    alpha /= np.maximum(alpha.sum(axis=1, keepdims=True), 1.0)
    loads = alpha.T @ lam
    caps = inst.capacities()
    over = loads > caps
    alpha[:, over] *= caps[over] / loads[over] * (1.0 - 1e-9)
    return net, inst, alpha


class TestSharedAdmissionRule:
    @settings(max_examples=300, deadline=None)
    @given(capacity_feasible_slices())
    def test_validator_flags_exactly_the_late_senders(self, drawn):
        net, inst, alpha = drawn
        theta = inst.service.deadline
        lam = inst.arrivals
        active = alpha.sum(axis=1) > 1e-9
        # independent response times: a sender is late when a destination it
        # uses is saturated or its fraction-weighted delay exceeds the deadline
        loads = alpha.T @ lam
        resid = inst.capacities() - loads
        late = set()
        for i in np.flatnonzero(active):
            used = alpha[i] > 0
            if np.any(resid[used] <= 1e-9):
                late.add(int(i))
                continue
            pi = np.sum(alpha[i, used] * (inst.rtt[i, used] + 1.0 / resid[used]))
            assume(abs(pi - theta) > 1e-7)
            if pi > theta:
                late.add(int(i))
        state = make_state(net, inst.energy, lam)
        served = np.zeros((1, net.n_nodes, net.n_nodes))
        served[0] = alpha
        agreement = make_agreement(
            net, inst.energy[:, None], served, consistent_rewards(net, state, served)
        )
        verdicts = validate_agreement(net, state, agreement)
        assert {v.kind for v in verdicts} <= {"deadline"}
        assert {v.node for v in verdicts} == late


class TestSpecTypes:
    def test_service_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ServiceTypeSpec(name="x", deadline=0.0, reward=1.0, unit_rate=10.0)
        with pytest.raises(ValueError):
            ServiceTypeSpec(name="x", deadline=0.1, reward=-1.0, unit_rate=10.0)
        with pytest.raises(ValueError):
            ServiceTypeSpec(name="x", deadline=0.1, reward=1.0, unit_rate=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_service_rejects_non_finite_params(self, bad):
        for field in ("deadline", "reward", "unit_rate"):
            params = {"deadline": 0.1, "reward": 1.0, "unit_rate": 10.0, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ServiceTypeSpec(name="x", **params)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_node_rejects_bad_rate_factor(self, bad):
        with pytest.raises(ValueError, match="rate_factor must be finite and > 0"):
            FogNodeSpec(max_units=2, unit_energy=1, battery_cap=10, rate_factor=bad)

    def test_node_requires_integer_fields(self):
        with pytest.raises(ValueError):
            FogNodeSpec(max_units=2.5, unit_energy=1, battery_cap=10)
        with pytest.raises(ValueError):
            FogNodeSpec(max_units=2, unit_energy=0, battery_cap=10)
        node = FogNodeSpec(max_units=2, unit_energy=1, battery_cap=0)
        assert node.battery_cap == 0

    def test_network_shape_checks(self):
        from fogslice.model import NetworkSpec

        svc = make_service()
        nodes = (make_node(), make_node())
        with pytest.raises(DimensionMismatch):
            make_network(services=(svc,), nodes=nodes, neighbors=(frozenset(),))
        with pytest.raises(ValueError):
            NetworkSpec(
                services=(svc,),
                nodes=nodes,
                neighbors=(frozenset({1}), frozenset({0})),
                rtt=np.array([[0.01, 0.02], [0.02, 0.0]]),
            )

    @pytest.mark.parametrize(
        "rtt",
        [[[0.0, -1.0], [float("nan"), 0.0]], [[0.0, -1e-12], [0.02, 0.0]], [[0.0, float("nan")], [0.02, 0.0]]],
        ids=["negative-and-nan", "slightly-negative", "nan"],
    )
    def test_network_rejects_negative_or_nan_rtt(self, rtt):
        from fogslice.model import NetworkSpec

        nodes = (make_node(), make_node())
        neighbors = (frozenset({1}), frozenset({0}))
        with pytest.raises(ValueError, match="rtt entries must be >= 0"):
            NetworkSpec(services=(make_service(),), nodes=nodes, neighbors=neighbors, rtt=np.array(rtt))

    def test_neighbor_indices_validated(self):
        svc = make_service()
        nodes = (make_node(), make_node())
        with pytest.raises(ValueError):
            make_network(services=(svc,), nodes=nodes, neighbors=(frozenset({2}), frozenset()))
        with pytest.raises(ValueError):
            make_network(services=(svc,), nodes=nodes, neighbors=(frozenset({0}), frozenset()))
        with pytest.raises(ValueError, match="invalid neighbor 1.0"):
            make_network(services=(svc,), nodes=nodes, neighbors=(frozenset({1.0}), frozenset()))

    def test_unit_activation_floors(self):
        net = make_network(nodes=(make_node(unit_energy=2, max_units=10),))
        units = activated_units(net, np.array([[5]]))
        assert units[0, 0] == 2  # 5 // 2
        caps = capacities(net, np.array([[5]]))
        assert caps[0, 0] == pytest.approx(20.0)

    def test_rate_factor_scales_capacity(self):
        net = make_network(nodes=(make_node(rate_factor=1.5),))
        caps = capacities(net, np.array([[4]]))
        assert caps[0, 0] == pytest.approx(60.0)

    def test_agreement_helpers(self):
        energy = np.array([[3, 1], [0, 2]])
        offload = np.zeros((2, 2, 2))
        rewards = np.array([[5.0, 1.0], [0.0, 2.0]])
        ag = SlicingAgreement(energy=energy, offload=offload, rewards=rewards)
        assert np.array_equal(ag.consumed(), [4, 2])
        assert np.allclose(ag.total_rewards(), [6.0, 2.0])

    def test_network_leaves_caller_rtt_writable(self):
        from fogslice.model import NetworkSpec

        rtt = np.array([[0.0, 0.02], [0.02, 0.0]])
        nodes = (make_node(), make_node())
        net = NetworkSpec(
            services=(make_service(),), nodes=nodes, neighbors=(frozenset({1}), frozenset({0})), rtt=rtt
        )
        rtt[0, 1] = 0.5  # the spec froze a copy, not the caller's matrix
        assert net.rtt[0, 1] == 0.02
        assert not net.rtt.flags.writeable

    def test_slot_state_leaves_caller_arrays_writable(self):
        battery, arrivals, harvested = np.array([3, 4]), np.array([[2.0], [1.0]]), np.array([1, 0])
        state = SlotState(battery=battery, arrivals=arrivals, harvested_prev=harvested)
        battery[0], arrivals[0, 0], harvested[0] = 9, 9.0, 9
        assert state.battery.tolist() == [3, 4]
        assert state.arrivals.tolist() == [[2.0], [1.0]]
        assert state.harvested_prev.tolist() == [1, 0]
        for arr in (state.battery, state.arrivals, state.harvested_prev):
            assert not arr.flags.writeable

    def test_agreement_leaves_caller_arrays_writable(self):
        energy, offload, rewards = np.array([[3], [1]]), np.full((1, 2, 2), 0.25), np.array([[5.0], [1.0]])
        ag = SlicingAgreement(energy=energy, offload=offload, rewards=rewards)
        energy[0, 0], offload[0, 0, 0], rewards[0, 0] = 9, 0.9, 9.0
        assert ag.energy.tolist() == [[3], [1]]
        assert ag.offload[0, 0, 0] == 0.25
        assert ag.rewards.tolist() == [[5.0], [1.0]]
        for arr in (ag.energy, ag.offload, ag.rewards):
            assert not arr.flags.writeable

    def test_agreement_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            SlicingAgreement(
                energy=np.zeros((2, 1), dtype=int),
                offload=np.zeros((2, 2, 2)),
                rewards=np.zeros((2, 1)),
            )


class TestValidateAgreement:
    def test_all_zero_agreement_is_feasible(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[20.0], [20.0]])
        ag = make_agreement(net, np.zeros((2, 1)), np.zeros((1, 2, 2)))
        assert validate_agreement(net, state, ag) == []

    def test_capacity_violation_reported_at_cell(self):
        # alpha_ii * lambda = 60 against activated capacity w*p = 50
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[60.0], [10.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 0] = 1.0
        ag = make_agreement(net, [[5], [0]], offload, consistent_rewards(net, state, offload))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "capacity" and v.node == 0 and v.service == 0 for v in violations)

    def test_budget_violation(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [4, 10], [[10.0], [10.0]])
        ag = make_agreement(net, [[5], [0]], np.zeros((1, 2, 2)))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "energy_budget" and v.node == 0 for v in violations)

    def test_unit_cap_violation(self):
        net = make_network(nodes=(make_node(max_units=3, battery_cap=100), make_node()))
        state = make_state(net, [50, 10], [[10.0], [10.0]])
        ag = make_agreement(net, [[40], [0]], np.zeros((1, 2, 2)))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "unit_cap" and v.node == 0 for v in violations)

    def test_offload_outside_graph(self):
        net = make_network(n_nodes=2, neighbors=(frozenset(), frozenset()))
        state = make_state(net, [10, 10], [[10.0], [10.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 1] = 0.5
        offload[0, 1, 1] = 0.5
        ag = make_agreement(net, [[5], [5]], offload, consistent_rewards(net, state, offload))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "allocation" and v.node == 0 for v in violations)

    def test_row_sum_above_one(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[10.0], [10.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 0] = 0.7
        offload[0, 0, 1] = 0.7
        ag = make_agreement(net, [[5], [5]], offload, consistent_rewards(net, state, offload))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "allocation" for v in violations)

    def test_deadline_violation(self):
        # served load 29 on capacity 30: residual 1, response ~1s >> 0.1s
        net = make_network(n_nodes=1, neighbors=(frozenset(),))
        state = make_state(net, [10], [[29.0]])
        offload = np.ones((1, 1, 1))
        ag = make_agreement(net, [[3]], offload, consistent_rewards(net, state, offload))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "deadline" and v.node == 0 for v in violations)

    def test_unstable_destination_flagged_as_deadline(self):
        net = make_network(n_nodes=1, neighbors=(frozenset(),))
        state = make_state(net, [10], [[40.0]])
        offload = np.ones((1, 1, 1))
        ag = make_agreement(net, [[3]], offload, consistent_rewards(net, state, offload))
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "deadline" for v in violations)

    def test_reward_mismatch(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[20.0], [20.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 0] = 0.5
        offload[0, 1, 1] = 0.5
        rewards = consistent_rewards(net, state, offload)
        rewards = rewards + 1.0
        ag = make_agreement(net, [[5], [5]], offload, rewards)
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "reward_mismatch" for v in violations)

    def test_negative_and_fractional_energy(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[10.0], [10.0]])
        ag = SlicingAgreement(
            energy=np.array([[-1.0], [0.0]]),
            offload=np.zeros((1, 2, 2)),
            rewards=np.zeros((2, 1)),
        )
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "energy_budget" for v in violations)
        ag = SlicingAgreement(
            energy=np.array([[1.5], [0.0]]),
            offload=np.zeros((1, 2, 2)),
            rewards=np.zeros((2, 1)),
        )
        violations = validate_agreement(net, state, ag)
        assert any(v.kind == "integer_energy" for v in violations)

    def test_shape_errors_raise_not_report(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[10.0], [10.0]])
        with pytest.raises(DimensionMismatch):
            validate_agreement(
                net,
                state,
                make_agreement(net, np.zeros((3, 1)), np.zeros((1, 3, 3))),
            )

    def test_validator_is_pure(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[20.0], [5.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 0] = 0.4
        ag = make_agreement(net, [[5], [0]], offload, consistent_rewards(net, state, offload))
        first = validate_agreement(net, state, ag)
        second = validate_agreement(net, state, ag)
        assert [str(v) for v in first] == [str(v) for v in second]

    def test_feasible_two_node_agreement_passes(self):
        net = make_network(n_nodes=2)
        state = make_state(net, [10, 10], [[20.0], [5.0]])
        offload = np.zeros((1, 2, 2))
        offload[0, 0, 0] = 0.8
        offload[0, 0, 1] = 0.2
        offload[0, 1, 1] = 1.0
        ag = make_agreement(net, [[5], [5]], offload, consistent_rewards(net, state, offload))
        assert validate_agreement(net, state, ag) == []
