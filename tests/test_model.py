"""Agreement validation against the per-slot feasibility constraints."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogslice import queueing
from fogslice.game import GameInstance
from fogslice.model import (
    TOL,
    DimensionMismatch,
    FogNodeSpec,
    NetworkSpec,
    ServiceTypeSpec,
    SlicingAgreement,
    SlotState,
    Violation,
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


def reference_validate(network, state, agreement):
    """The validator as one loop per node and service, each check written out in turn."""
    n, k = network.n_nodes, network.n_services
    violations = []
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

    unit_energy = np.array([nd.unit_energy for nd in network.nodes])
    units = energy // unit_energy[:, None]
    w = np.array([[s.unit_rate * nd.rate_factor for s in network.services] for nd in network.nodes])
    caps = queueing.capacity(w, energy, unit_energy[:, None])

    for i, node in enumerate(network.nodes):
        if np.any(energy[i] < 0):
            s = int(np.argmin(energy[i]))
            violations.append(Violation("energy_budget", i, s, f"e={energy[i, s]} < 0"))
        used = int(energy[i].sum())
        if used > state.battery[i] + TOL:
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
            if np.any(row < -TOL):
                violations.append(Violation("allocation", i, s, "negative offload fraction"))
            allowed = network.neighbors[i] | {i}
            stray = [m for m in range(n) if m not in allowed and abs(row[m]) > TOL]
            if stray:
                violations.append(
                    Violation("allocation", i, s, f"offload outside forwarding graph: {stray}")
                )
            closed = [
                m for m in sorted(allowed - {i}) if row[m] > TOL and network.rtt[i, m] >= theta
            ]
            if closed:
                violations.append(
                    Violation("allocation", i, s, f"offload over edges with rtt >= deadline: {closed}")
                )
            if row.sum() > 1.0 + TOL:
                violations.append(Violation("allocation", i, s, f"row sum {row.sum():.6f} > 1"))
        load = alpha.T @ lam
        for m in range(n):
            if load[m] > caps[m, s] + TOL:
                violations.append(
                    Violation("capacity", m, s, f"load {load[m]:.6f} > capacity {caps[m, s]:.6f}")
                )

    for s in range(k):
        alpha = agreement.offload[s]
        theta = network.services[s].deadline
        pis = queueing.response_times(alpha, state.arrivals[:, s], caps[:, s], network.rtt)
        for i in range(n):
            if alpha[i].sum() <= TOL:
                continue
            if not np.isfinite(pis[i]):
                violations.append(Violation("deadline", i, s, "unstable destination"))
            elif pis[i] > theta + TOL:
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


# each mutation breaks one check; the kind of violation it must raise
MUTATIONS = {
    "none": None,
    "integer_energy": "integer_energy",
    "negative_energy": "energy_budget",
    "budget": "energy_budget",
    "unit_cap": "unit_cap",
    "negative_share": "allocation",
    "stray": "allocation",
    "closed": "allocation",
    "over_one": "allocation",
    "capacity": "capacity",
    "late": "deadline",
    "unstable": "deadline",
    "rewards": "reward_mismatch",
}


@st.composite
def validator_cases(draw):
    """A network of 1-5 nodes and 1-3 services, a slot and an agreement, maybe broken.

    The agreement starts valid up to the deadline check: rows on open edges,
    summing to at most one, loads within capacity and consistent rewards.
    Then one mutation from ``MUTATIONS`` breaks one check.
    """
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    services = tuple(
        make_service(
            deadline=draw(st.sampled_from([0.05, 0.1, 0.2])),
            reward=draw(st.sampled_from([0.5, 1.0, 4.0])),
            unit_rate=draw(st.floats(5.0, 40.0)),
            name=f"s{s}",
        )
        for s in range(k)
    )
    nodes = tuple(
        make_node(
            max_units=draw(st.integers(1, 4)),
            unit_energy=draw(st.integers(1, 2)),
            rate_factor=draw(st.sampled_from([1.0, 1.5])),
        )
        for _ in range(n)
    )
    links = draw(hnp.arrays(bool, (n, n)))
    neighbors = tuple(frozenset(m for m in range(n) if links[i, m] and m != i) for i in range(n))
    rtt = draw(hnp.arrays(float, (n, n), elements=st.sampled_from([0.01, 0.03, 0.06, 0.12, 0.25])))
    np.fill_diagonal(rtt, 0.0)
    net = NetworkSpec(services=services, nodes=nodes, neighbors=neighbors, rtt=rtt)
    energy = draw(hnp.arrays(int, (n, k), elements=st.integers(0, 6)))
    arrivals = draw(hnp.arrays(float, (n, k), elements=st.floats(0.0, 60.0)))
    offload = np.zeros((k, n, n))
    game = GameInstance(network=net, arrivals=arrivals, budgets=energy.sum(axis=1))
    for s in range(k):
        inst = game.slice_for(s, energy[:, s])
        alpha = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 1.0))) * inst.allowed()
        alpha /= np.maximum(alpha.sum(axis=1, keepdims=True), 1.0)
        loads, caps = alpha.T @ arrivals[:, s], inst.capacities()
        over = loads > caps
        alpha[:, over] *= caps[over] / loads[over] * (1.0 - 1e-9)
        offload[s] = alpha

    mutation = draw(st.sampled_from(sorted(MUTATIONS)))
    i, s, m = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
    node = nodes[i]
    if mutation == "negative_energy":
        energy[i, s] = -1
    elif mutation == "unit_cap":
        energy[i, s] = (node.max_units + 1) * node.unit_energy
    elif mutation == "negative_share":
        offload[s, i, m] = -0.25
    elif mutation == "stray":
        targets = [j for j in range(n) if j != i and j not in neighbors[i]]
        assume(targets)
        offload[s, i, draw(st.sampled_from(targets))] = 0.3
    elif mutation == "closed":
        targets = [j for j in sorted(neighbors[i]) if rtt[i, j] >= services[s].deadline]
        assume(targets)
        offload[s, i, draw(st.sampled_from(targets))] = 0.3
    elif mutation == "over_one":
        offload[s, i, i] += 1.2
    elif mutation in ("capacity", "late", "unstable"):
        # node i alone on its own queue of one unit: over, just under or at capacity
        energy[i, s] = node.unit_energy
        cap = services[s].unit_rate * node.rate_factor
        offload[s, :, i] = 0.0
        offload[s, i, :] = 0.0
        offload[s, i, i] = 1.0
        arrivals[i, s] = {"capacity": cap + 5.0, "late": cap - 0.5, "unstable": cap}[mutation]
        if mutation == "unstable" and m != i:
            # a share just above the tolerance still makes node m a sender there
            offload[s, m, :] = 0.0
            offload[s, m, i] = 5e-9
    slack = draw(hnp.arrays(int, n, elements=st.integers(0, 3)))
    battery = np.maximum(energy.sum(axis=1), 0) + slack
    if mutation == "budget":
        energy[i, s] += 1
        battery[i] = energy[i].sum() - 1
    rewards = np.array([svc.reward for svc in services]) * (offload.sum(axis=2).T * arrivals)
    if mutation == "rewards":
        rewards[i, s] += 1.0
    if mutation == "integer_energy":
        energy = energy.astype(float)
        energy[i, s] += 0.5
    elif draw(st.booleans()):
        energy = energy.astype(float)  # whole numbers in a float array
    state = SlotState(
        battery=battery.astype(draw(st.sampled_from([int, float]))),
        arrivals=arrivals,
        harvested_prev=np.zeros(n, dtype=int),
    )
    agreement = SlicingAgreement(energy=energy, offload=offload, rewards=rewards)
    return net, state, agreement, MUTATIONS[mutation]


class TestWholeArrayValidator:
    @settings(max_examples=600, deadline=None)
    @given(validator_cases())
    def test_matches_the_loop_validator(self, case):
        net, state, agreement, kind = case
        expect = [str(v) for v in reference_validate(net, state, agreement)]
        assert [str(v) for v in validate_agreement(net, state, agreement)] == expect
        if kind is not None:
            assert any(line.startswith(f"[{kind}]") for line in expect)

    def test_network_arrays_are_cached_and_read_only(self):
        services = (make_service(deadline=0.05), make_service(deadline=0.1))
        net = make_network(services=services, neighbors=(frozenset({1}), frozenset()), tau=0.06)
        arrays = net.arrays
        assert net.arrays is arrays
        assert all(not arr.flags.writeable for arr in arrays)
        assert arrays.forward.tolist() == [[True, True], [False, True]]
        # the 60 ms round trip closes the edge for the 50 ms service only
        assert arrays.closed.tolist() == [[[False, True], [False, False]], [[False, False]] * 2]


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
