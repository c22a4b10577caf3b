"""Per-slot slicing game: offload solver, energy splits, welfare, core."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.optimize._numdiff import approx_derivative

from fogslice import cli, game
from fogslice.game import (
    FEAS_TOL,
    RESIDUAL_FLOOR,
    STRICT_EPS,
    CoreOptions,
    GameInstance,
    SliceInstance,
    SolverOptions,
    _ascent,
    _assemble,
    _best_split,
    _cap_rows,
    _exhaustive_vector_count,
    _grid_rows,
    _joint_constraints,
    _joint_refine,
    _last_feasible,
    _pairwise_sum,
    _polish_priority,
    _row_boxes,
    _slice_bound,
    _SliceWork,
    _swap_pass,
    _trim_energy,
    _update_row,
    _violations,
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
from fogslice.queueing import capacity, optimal_local_fraction, response_times

from conftest import make_network, make_node, make_service, make_slice


def pair_slice(energy, arrivals, deadline=0.1, unit_rate=10.0, tau=0.02, reward=1.0):
    svc = make_service(deadline=deadline, reward=reward, unit_rate=unit_rate)
    rtt = np.array([[0.0, tau], [tau, 0.0]])
    return make_slice(
        service=svc,
        nodes=(make_node(), make_node()),
        energy=np.asarray(energy, dtype=int),
        arrivals=np.asarray(arrivals, dtype=float),
        neighbors=(frozenset({1}), frozenset({0})),
        rtt=rtt,
    )


def solo_slice(energy, lam, deadline=0.1, unit_rate=10.0):
    svc = make_service(deadline=deadline, unit_rate=unit_rate)
    return make_slice(
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
    return make_slice(
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
        services=(inst.service,),
        nodes=inst.network.nodes,
        neighbors=inst.network.neighbors,
        rtt=inst.rtt,
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
            scaled = make_slice(
                service=ServiceTypeSpec(
                    name=inst.service.name,
                    deadline=inst.service.deadline,
                    reward=inst.service.reward * 7.0,
                    unit_rate=inst.service.unit_rate,
                ),
                nodes=inst.network.nodes,
                energy=inst.energy,
                arrivals=inst.arrivals,
                neighbors=inst.network.neighbors,
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
            richer = SliceInstance(inst.network, 0, energy, inst.arrivals)
            # ascent termination noise sits near 1e-8 on full-service instances
            assert solve_offload(richer).welfare >= base - 1e-6


def mesh_slice(rng, n):
    """Random n-node slice: sparse links, per-edge round trips, idle nodes."""
    svc = make_service(
        deadline=float(rng.uniform(0.04, 0.15)),
        unit_rate=float(rng.uniform(8.0, 30.0)),
    )
    links = np.triu(rng.random((n, n)) < 0.7, 1)
    links = links | links.T
    rtt = np.triu(rng.uniform(0.005, 0.12, (n, n)), 1)
    rtt = rtt + rtt.T
    arrivals = np.round(rng.uniform(0.0, 40.0, n), 1) * (rng.random(n) < 0.8)
    return make_slice(
        service=svc,
        nodes=tuple(make_node() for _ in range(n)),
        energy=rng.integers(0, 5, n),
        arrivals=arrivals,
        neighbors=tuple(frozenset(np.flatnonzero(links[i]).tolist()) for i in range(n)),
        rtt=rtt,
    )


def reference_constraints(work):
    """The per-constraint closures the joint NLP used before they were stacked.

    Returns the (sender, destination) pairs that x packs and the constraint
    functions in the order SciPy evaluates them.
    """
    pairs = [
        (i, m)
        for i in work.senders
        for m in range(work.n)
        if work.allowed[i, m] and work.caps[m] > RESIDUAL_FLOOR
    ]

    def unpack(x):
        a = np.zeros((work.n, work.n))
        for v, (i, m) in zip(x, pairs):
            a[i, m] = v
        return a

    funs = []
    for m in set(m for _, m in pairs):
        idx = [p for p, (_, pm) in enumerate(pairs) if pm == m]
        lam_m = np.array([work.lam[pairs[p][0]] for p in idx])
        cap_m = work.caps[m] - RESIDUAL_FLOOR

        def cap_fun(x, idx=idx, lam_m=lam_m, cap_m=cap_m):
            return cap_m - np.dot(lam_m, x[idx])

        funs.append(cap_fun)
    for i in work.senders:
        idx = [p for p, (pi, _) in enumerate(pairs) if pi == i]

        def row_fun(x, idx=idx):
            return 1.0 - float(np.sum(x[idx]))

        def deadline_fun(x, i=i, idx=idx):
            a = unpack(x)
            loads = a.T @ work.lam
            resid = np.maximum(work.caps - loads, 1e-9)
            row = a[i]
            return work.theta - float(np.sum(row * (work.tau[i] + 1.0 / resid)))

        funs.append(row_fun)
        funs.append(deadline_fun)
    return pairs, funs


class TestJointRefine:
    def test_stacked_constraints_match_reference(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(60):
            work = _SliceWork(mesh_slice(rng, int(rng.integers(2, 5))))
            rows, cols, ineq, ineq_jac = _joint_constraints(work)
            pairs, funs = reference_constraints(work)
            assert list(zip(rows.tolist(), cols.tolist())) == pairs
            if not pairs:
                continue
            upper = np.minimum(1.0, (work.caps[cols] - RESIDUAL_FLOOR) / work.lam[rows])
            for _ in range(4):
                x = rng.uniform(0.0, 1.0, len(pairs)) * upper * (rng.random(len(pairs)) < 0.8)
                ref = np.concatenate([np.atleast_1d(f(x)).ravel() for f in funs])
                assert ineq(x).tobytes() == ref.tobytes()
                # SLSQP no longer differences ineq; the analytic rows stand in
                # for it.  The step is small against the residuals drawn here,
                # and each row is compared on its own scale: a destination
                # clamped at 1e-9 puts a 1e9 term into its senders' deadlines.
                num = approx_derivative(ineq, x, method="3-point", abs_step=1e-6)
                scale = np.abs(num).max(axis=1, keepdims=True)
                assert np.all(np.abs(ineq_jac(x) - num) <= 1e-6 * scale)
                checked += 1
        assert checked >= 100

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=16, max_size=16),
    )
    @example(13, 2, [1.0] * 16)  # destination 0 clamped, destination 1 not
    def test_analytic_jacobian_matches_differences(self, seed, n, shares):
        work = _SliceWork(mesh_slice(np.random.default_rng(seed), n))
        rows, cols, ineq, ineq_jac = _joint_constraints(work)
        assume(rows.size)
        # a point in SLSQP's box; entries at their bounds on a shared
        # destination push its residual below the 1e-9 clamp
        upper = np.minimum(1.0, (work.caps[cols] - RESIDUAL_FLOOR) / work.lam[rows])
        x = np.array(shares[: rows.size]) * upper
        a = np.zeros((n, n))
        a[rows, cols] = x
        raw = work.caps - a.T @ work.lam
        clamped = raw[cols] < 1e-9
        event("some destination clamped" if clamped.any() else "no destination clamped")
        jac = ineq_jac(x)
        senders = np.array(work.senders)
        k = jac.shape[0] - 2 * senders.size
        deadline = jac[k + 1 :: 2]
        own = rows == senders[:, None]
        # on a clamped destination only the sender's own share moves its deadline
        assert np.all(deadline[~own & clamped] == 0.0)
        own_entry = np.broadcast_to(-(work.tau[rows, cols] + 1.0 / 1e-9), own.shape)
        assert np.array_equal(deadline[own & clamped], own_entry[own & clamped])
        # central differences, on the entries whose destination stays on one
        # side of the clamp within the step and is far enough from saturation
        # that the truncation error, about (lam * h / r)^2, is negligible
        h = 1e-7
        step = work.lam[rows] * h
        smooth = (raw[cols] - 1e-9 > 1e4 * step) | (raw[cols] < 1e-9 - 2 * step)
        num = approx_derivative(ineq, x, method="3-point", abs_step=h)
        np.testing.assert_allclose(jac[:k], num[:k], rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(jac[k::2], num[k::2], rtol=1e-6, atol=1e-6)
        # a difference's roundoff is a few ulps of the row's summed terms over h
        resid = np.maximum(raw, 1e-9)
        terms = work.theta + np.sum(a[senders] * (work.tau[senders] + 1.0 / resid), axis=1)
        allowed_err = 1e-6 * np.abs(deadline) + 8 * np.finfo(float).eps * terms[:, None] / h
        assert np.all(np.abs(deadline - num[k + 1 :: 2])[:, smooth] <= allowed_err[:, smooth])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_never_below_incumbent_and_feasible(self, seed, n):
        work = _SliceWork(mesh_slice(np.random.default_rng(seed), n))
        assume(work.movers)  # solve_offload refines only a slice with a usable pair
        incumbent = np.zeros((n, n))
        _ascent(work, incumbent)
        out = _joint_refine(work, incumbent.copy())
        assert work.max_violation(out) <= FEAS_TOL
        assert work.welfare(out) >= work.welfare(incumbent)

    def test_each_distinct_start_solved_once(self, monkeypatch):
        starts = []
        real = scipy.optimize.minimize

        def counting(fun, x0, *args, **kwargs):
            starts.append(np.asarray(x0).tobytes())
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        work = _SliceWork(pair_slice([5, 5], [80.0, 20.0]))
        # the incumbent equals the all-zero start; the local start differs
        _joint_refine(work, np.zeros((2, 2)))
        assert len(starts) == 2
        assert len(set(starts)) == 2
        starts.clear()
        _joint_refine(work, np.array([[0.2, 0.1], [0.0, 0.3]]))
        assert len(starts) == 3
        assert len(set(starts)) == 3


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


def reference_waterfill(tau, cap, box, lam, theta):
    """_waterfill with its bisection always run for all 130 steps.

    Also returns the step at which the price bracket could no longer be
    split in floating point (None if that never happened in the loop).
    """
    full = np.zeros_like(cap)
    active = (box > 1e-15) & (cap > RESIDUAL_FLOOR)
    if not np.any(active) or lam <= 0:
        return full, None
    t = tau[active]
    c = cap[active]
    b = box[active]
    if np.any(lam * b >= c):
        raise ValueError("box leaves a destination in use no residual capacity")
    phi0 = t + 1.0 / c

    def alloc(mu):
        inner = np.maximum(mu - t, 1e-300)
        a = (c - np.sqrt(c / inner)) / lam
        a = np.clip(a, 0.0, b)
        a[mu <= phi0] = 0.0
        return a

    def feasible(mu):
        a = alloc(mu)
        resid = np.maximum(c - lam * a, 1e-300)
        g = float((a * t + a / resid).sum())
        return (a.sum() <= 1.0 + 1e-15) and (g <= theta + 1e-15), a

    resid_box = c - lam * b
    hi = float((t + c / resid_box**2).max()) * 2.0 + 1.0
    ok_hi, a_hi = feasible(hi)
    if ok_hi:
        full[active] = a_hi
        return full, None
    lo = float(phi0.min())
    best = np.zeros_like(c)
    collapsed = None
    for step in range(130):
        mid = math.sqrt(lo * hi)
        if collapsed is None and not lo < mid < hi:
            collapsed = step
        good, a = feasible(mid)
        if good:
            lo, best = mid, a
        else:
            hi = mid
    best[best < 1e-12] = 0.0
    full[active] = best
    return full, collapsed


def reference_verdict(tau, cap, box, lam, theta, mu):
    """reference_waterfill's pass/fail verdict at price mu, for one price."""
    active = (box > 1e-15) & (cap > RESIDUAL_FLOOR)
    t = tau[active]
    c = cap[active]
    b = box[active]
    phi0 = t + 1.0 / c
    inner = np.maximum(mu - t, 1e-300)
    a = (c - np.sqrt(c / inner)) / lam
    a = np.clip(a, 0.0, b)
    a[mu <= phi0] = 0.0
    resid = np.maximum(c - lam * a, 1e-300)
    g = float((a * t + a / resid).sum())
    return bool((a.sum() <= 1.0 + 1e-15) and (g <= theta + 1e-15))


@st.composite
def waterfill_inputs(draw):
    """Inputs inside _waterfill's contract: tau >= 0, lam * box < cap where cap > floor.

    Rows run to 32 destinations (numpy's pairwise sum regroups from 8 on).
    Some destinations are idle (no box or no capacity), and some boxes sit
    one float below saturation.  A plateau row fills boxes summing to
    exactly 1 before its other destinations open; a pooled row is shaped
    like ``_slice_bound``'s call: one sender with every arrival, boxes from
    inbound workload, the deadline inflated by 2 * FEAS_TOL.
    """
    n = draw(st.integers(1, 32))
    lam = draw(st.floats(0.5, 120.0))
    theta = draw(st.floats(1e-4, 0.3))
    tau = np.array([draw(st.sampled_from([0.0, 0.005, 0.02, 0.06])) for _ in range(n)])
    cap = np.array([draw(st.floats(1.0, 200.0)) for _ in range(n)])
    box = np.zeros(n)
    shape = draw(st.sampled_from(["row", "row", "plateau", "pooled"]))
    for m in range(n):
        kind = draw(st.sampled_from(["spent", "idle", "share", "share", "edge"]))
        if kind == "spent":
            # at or below the residual floor: inactive whatever its box
            cap[m] = draw(st.sampled_from([-3.0, 0.0, 5e-7]))
            box[m] = draw(st.sampled_from([0.0, 0.5]))
            continue
        if kind == "idle":
            continue
        if shape == "pooled":
            inbound = draw(st.floats(0.0, 1.0)) * lam
            box[m] = min(inbound, cap[m] - RESIDUAL_FLOOR / 2) / lam
            continue
        limit = cap[m] / lam
        if kind == "edge" and limit <= 1.0:
            b = limit
        else:
            b = draw(st.floats(0.01, 1.0)) * min(1.0, limit)
        while lam * b >= cap[m]:
            b = np.nextafter(b, 0.0)
        box[m] = b
    if shape == "pooled":
        theta *= 1 + 2 * FEAS_TOL
    if shape == "plateau":
        # 1, 2, 4 or 8 zero-delay destinations whose boxes sum to exactly 1
        size = draw(st.sampled_from([s for s in (1, 2, 4, 8) if s <= n]))
        for m in draw(st.permutations(range(n)))[:size]:
            tau[m] = 0.0
            box[m] = 1.0 / size
            cap[m] = max(cap[m], 2.0 * lam * box[m])
    return tau, cap, box, lam, theta


EARLY_RETURN = (np.array([0.0, 0.02]), np.array([50.0, 40.0]), np.array([0.1, 0.1]), 10.0, 0.1)
SCARCE_PAIR = (np.array([0.0, 0.02]), np.array([20.0, 15.0]), np.array([0.3, 0.2]), 60.0, 0.1)
# two local boxes fill to a share of exactly 1 at price 0.0053, below the
# third destination's opening price 0.08, where the verdict switches
PLATEAU = (np.array([0.0, 0.0, 0.06]), np.array([200.0, 200.0, 50.0]), np.array([0.5, 0.5, 0.9]), 10.0, 0.3)
# an urban-sized row: numpy sums it pairwise, in an order unlike a loop's
ROW24 = (
    np.resize([0.0, 0.005, 0.02, 0.06], 24),
    np.linspace(5.0, 120.0, 24),
    np.full(24, 0.1),
    30.0,
    0.1,
)

# past 128 destinations numpy's pairwise sum splits the row in halves; summed
# without the split, or left to right, this row ends on another price
ROW150 = (
    np.resize([0.0, 0.005, 0.02, 0.06], 150),
    np.linspace(5.0, 120.0, 150),
    np.full(150, 0.02),
    30.0,
    0.1,
)


def reference_row_boxes(work, alpha, i):
    """The per-destination loop ``_row_boxes`` must match bit for bit."""
    lam_i = work.lam[i]
    loads = alpha.T @ work.lam
    others = loads - alpha[i] * lam_i
    free = work.caps - others
    pis = response_times(alpha, work.lam, work.caps, work.tau)
    box = np.zeros(work.n)
    for m in range(work.n):
        if not work.allowed[i, m]:
            continue
        room = (free[m] - RESIDUAL_FLOOR) / lam_i
        if room <= 0:
            box[m] = alpha[i, m]
            continue
        extra = np.inf
        for j in work.senders:
            if j == i or alpha[j, m] <= 0:
                continue
            extra = min(extra, max(work.theta - pis[j], 0.0) / alpha[j, m])
        if np.isfinite(extra):
            cur_resid = work.caps[m] - loads[m]
            if cur_resid <= 0:
                box[m] = alpha[i, m]
                continue
            room = min(room, (work.caps[m] - 1.0 / (1.0 / cur_resid + extra) - others[m]) / lam_i)
        box[m] = min(1.0, max(room, alpha[i, m]))
    return free, box


def reference_max_violation(work, alpha):
    """The per-sender loop ``_SliceWork.max_violation`` must match in value."""
    rows = alpha.sum(axis=1)
    top = float(rows.max(initial=0.0))
    if math.isnan(top):
        return math.inf
    loads = alpha.T @ work.lam
    used = loads > 1e-12
    worst = -np.inf
    if used.any():
        worst = float(np.max(loads[used] - (work.caps[used] - RESIDUAL_FLOOR / 2)))
    pis = response_times(alpha, work.lam, work.caps, work.tau)
    for i in work.senders:
        if rows[i] > 0:
            worst = max(worst, (pis[i] - work.theta) / max(work.theta, 1e-9))
    return max(worst, top - 1.0)


class TestSliceChecks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(0.0, 2.0))
    def test_vectorised_checks_match_loops(self, seed, n, push):
        """On ascent states pushed past feasibility, saturated and idle queues included."""
        rng = np.random.default_rng(seed)
        work = _SliceWork(mesh_slice(rng, n))
        assume(work.senders)
        alpha = np.zeros((n, n))
        _ascent(work, alpha)
        for _ in range(3):
            for i in work.senders:
                free, box = _row_boxes(work, alpha, i)
                with np.errstate(over="ignore"):  # a tiny share's quotient may overflow to inf
                    ref_free, ref_box = reference_row_boxes(work, alpha, i)
                assert free.tobytes() == ref_free.tobytes() and box.tobytes() == ref_box.tobytes()
            assert work.max_violation(alpha) == reference_max_violation(work, alpha)
            alpha = alpha + push * rng.random((n, n)) * work.allowed * work.is_sender[:, None]


def reference_swap_pass(work, alpha):
    """The loop ``_swap_pass`` must match bit for bit: the whole slice's
    responses recomputed for every (destination, donor, receiver) triple,
    and each donor's receivers filtered and sorted on their own."""
    moved = False
    for m in range(work.n):
        loads = alpha.T @ work.lam
        resid = work.caps[m] - loads[m]
        if resid <= RESIDUAL_FLOOR / 2 and loads[m] <= 0:
            continue
        delta_m = 1.0 / resid if resid > 0 else np.inf
        donors = sorted(
            (j for j in work.senders if alpha[j, m] > 1e-12),
            key=lambda j: -work.tau[j, m],
        )
        for j in donors:
            receivers = sorted(
                (
                    i
                    for i in work.senders
                    if i != j
                    and work.allowed[i, m]
                    and work.tau[i, m] < work.tau[j, m] - 1e-12
                ),
                key=lambda i: work.tau[i, m],
            )
            for i in receivers:
                pis = response_times(alpha, work.lam, work.caps, work.tau)
                load_avail = alpha[j, m] * work.lam[j]
                row_room = max(0.0, 1.0 - alpha[i].sum()) * work.lam[i]
                slack_i = max(0.0, work.theta - (pis[i] if alpha[i].sum() > 0 else 0.0))
                price_i = (work.tau[i, m] + delta_m) / work.lam[i]
                budget_room = slack_i / price_i if price_i > 0 else np.inf
                d = min(load_avail, row_room, budget_room) * (1 - 1e-12)
                if d <= 1e-9:
                    continue
                alpha[j, m] -= d / work.lam[j]
                alpha[i, m] += d / work.lam[i]
                if alpha[j, m] < 1e-12:
                    alpha[j, m] = 0.0
                moved = True
    return moved


def tied_slice(rng, n):
    """``mesh_slice`` with round trips on a 3-value grid, so many tie in tau."""
    inst = mesh_slice(rng, n)
    rtt = np.triu(rng.choice([0.01, 0.02, 0.03], (n, n)), 1)
    return make_slice(
        service=inst.service,
        nodes=inst.network.nodes,
        energy=inst.energy,
        arrivals=inst.arrivals,
        neighbors=inst.network.neighbors,
        rtt=rtt + rtt.T,
    )


def swap_start(rng, work, random_rows):
    """An alpha for ``_swap_pass``: the ascent's, or random rows inside each
    sender's allowed set, with -0.0 in some of the empty entries."""
    n = work.n
    alpha = np.zeros((n, n))
    if random_rows:
        share = rng.random((n, n)) * work.allowed * work.is_sender[:, None] * (rng.random((n, n)) < 0.6)
        alpha = share / np.maximum(share.sum(axis=1, keepdims=True), 1.0) * rng.uniform(0.3, 1.0)
    else:
        _ascent(work, alpha)
    alpha[(alpha == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    return alpha


class TestSliceState:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.booleans())
    def test_swap_pass_matches_reference(self, seed, n, ties):
        """Ties in tau, zero-capacity destinations and -0.0 entries included."""
        rng = np.random.default_rng(seed)
        inst = tied_slice(rng, n) if ties else mesh_slice(rng, n)
        work = _SliceWork(inst)
        assume(work.senders)
        alpha = swap_start(rng, work, ties)
        event(f"zero-capacity destination: {bool((work.caps == 0).any())}")
        for _ in range(3):
            ref = alpha.copy()
            ref_moved = reference_swap_pass(_SliceWork(inst), ref)
            moved = _swap_pass(work, alpha)
            event(f"swap moved: {moved}")
            assert moved == ref_moved
            assert alpha.tobytes() == ref.tobytes()
            if not moved:
                break

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_in_place_changes_are_seen(self, seed, n):
        """Between calls alpha changes in place; every answer is a fresh slice's."""
        rng = np.random.default_rng(seed)
        inst = mesh_slice(rng, n)
        work = _SliceWork(inst)
        assume(work.senders)
        alpha = np.zeros((n, n))
        _ascent(work, alpha)
        i, z = int(rng.choice(work.senders)), int(rng.integers(n))
        delta = rng.random((n, n)) * work.allowed * work.is_sender[:, None]

        def row(a):
            a[i] = rng.random(n) * work.allowed[i]

        def step(a):
            a += 0.1 * delta

        def zero(a):
            a[i, z] = 0.0

        def flip(a):
            a[i, z] = -a[i, z]  # +0.0 <-> -0.0

        for change in (row, step, zero, flip, flip):
            work.max_violation(alpha)
            _row_boxes(work, alpha, i)
            before = work.state(alpha)
            change(alpha)
            if change is flip:
                assert work.state(alpha) is not before  # a signed-zero flip is a miss
            fresh = _SliceWork(inst)
            assert np.float64(work.max_violation(alpha)).tobytes() == np.float64(
                fresh.max_violation(alpha.copy())
            ).tobytes()
            for k in work.senders:
                with np.errstate(over="ignore"):  # a tiny share's quotient may overflow to inf
                    got, want = _row_boxes(work, alpha, k), _row_boxes(fresh, alpha.copy(), k)
                assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_same_bytes_share_one_state_and_it_is_read_only(self):
        work = _SliceWork(pair_slice([5, 5], [80.0, 20.0]))
        alpha = np.array([[0.5, 0.2], [0.0, 0.9]])
        state = work.state(alpha)
        assert work.state(alpha.copy()) is state
        assert state.violation == work.max_violation(alpha)
        for cached in (state.loads, state.pis):
            with pytest.raises(ValueError):
                cached[0] = 1.0
        alpha[0, 0] = 0.4
        assert work.state(alpha) is not state


def dead_slices():
    """Slices with senders but no usable pair, and one without senders."""
    far = make_slice(
        service=make_service(),
        nodes=(make_node(), make_node()),
        energy=np.array([0, 5]),
        arrivals=np.array([30.0, 0.0]),
        neighbors=(frozenset(), frozenset()),  # node 1 is not node 0's neighbour
        rtt=np.array([[0.0, 0.02], [0.02, 0.0]]),
    )
    return {
        "no energy": pair_slice([0, 0], [30.0, 20.0]),
        "energy out of reach": far,
        "edge closed by its round trip": pair_slice([0, 5], [30.0, 0.0], deadline=0.1, tau=0.1),
        "no arrivals": pair_slice([5, 5], [0.0, 0.0]),
    }


def dead_sender_slice(rng, n):
    """``mesh_slice`` with about half the nodes holding no energy, so that
    some senders reach no destination with capacity."""
    inst = mesh_slice(rng, n)
    return SliceInstance(inst.network, 0, inst.energy * (rng.random(n) < 0.5), inst.arrivals)


def reference_ascent(work, alpha):
    """``_ascent`` updating every sender, those outside ``movers`` included."""
    prev = work.welfare(alpha)
    for passes in range(1, game.ASCENT_PASSES + 1):
        for i in work.senders:
            _update_row(work, alpha, i)
        current = work.welfare(alpha)
        if current - prev <= game.ASCENT_TOL * max(1.0, abs(current)):
            return passes
        prev = current
    return game.ASCENT_PASSES


class TestDeadPairs:
    @pytest.mark.parametrize("name", list(dead_slices()))
    def test_dead_slice_runs_no_stage(self, name, monkeypatch):
        inst = dead_slices()[name]
        work = _SliceWork(inst)
        assert not work.usable.any() and not work.movers

        def never(*args):
            raise AssertionError("a stage ran on a dead slice")

        for stage in ("_ascent", "_swap_pass", "_joint_refine", "_polish_priority"):
            monkeypatch.setattr(game, stage, never)
        sol = solve_offload(inst)
        assert sol.alpha.tobytes() == np.zeros((2, 2)).tobytes()
        assert sol.welfare == 0.0 and sol.passes == 0 and sol.converged

    def test_usable_pairs_are_the_joint_variables(self):
        work = _SliceWork(pair_slice([0, 5], [30.0, 20.0]))
        assert work.usable.tolist() == [[False, True], [False, True]]
        assert work.movers == [0, 1]
        rows, cols, _, _ = _joint_constraints(work)
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 1)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(0.0, 2.0), st.booleans())
    def test_dead_sender_update_changes_no_byte(self, seed, n, push, from_ascent):
        """From the ascent's alpha or random mover rows, feasible or not."""
        rng = np.random.default_rng(seed)
        work = _SliceWork(dead_sender_slice(rng, n))
        dead = [i for i in work.senders if i not in work.movers]
        assume(dead)
        alpha = np.zeros((n, n))
        if from_ascent:
            _ascent(work, alpha)
        movers = np.isin(np.arange(n), work.movers)
        alpha = alpha + push * rng.random((n, n)) * work.allowed * movers[:, None]
        alpha[(alpha == 0) & movers[:, None] & (rng.random((n, n)) < 0.5)] = -0.0
        event(f"feasible: {work.feasible(alpha)}")
        for i in dead:
            before = alpha.tobytes()
            with np.errstate(over="ignore"):  # a tiny share's quotient may overflow to inf
                _update_row(work, alpha, i)
            assert alpha.tobytes() == before

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_ascent_matches_a_loop_over_every_sender(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = dead_sender_slice(rng, n)
        work = _SliceWork(inst)
        assume(work.senders)
        event(f"dead senders: {len(work.senders) - len(work.movers)}")
        alpha, ref = np.zeros((n, n)), np.zeros((n, n))
        assert _ascent(work, alpha) == reference_ascent(_SliceWork(inst), ref)
        assert alpha.tobytes() == ref.tobytes()


def reference_last_feasible(feasible, hi, steps):
    """The fixed-step bisection ``_last_feasible`` must match to the last bit."""
    lo = 0.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def step_searches(draw):
    """(hi, predicate): deterministic predicates, some switching within ulps of 0 or hi."""
    hi = draw(st.floats(1e-12, 1.0))
    kind = draw(st.sampled_from(["always", "near_zero", "near_hi", "any"]))
    if kind == "any":
        return hi, draw(st.functions(like=lambda step: None, returns=st.booleans(), pure=True))
    if kind == "always":
        return hi, lambda step: True
    if kind == "near_zero":
        at = draw(st.integers(0, 4)) * math.ulp(0.0)
    else:
        at = hi
        for _ in range(draw(st.integers(0, 4))):
            at = math.nextafter(at, 0.0)
    if draw(st.booleans()):
        return hi, lambda step: step < at
    return hi, lambda step: step <= at


def transfer_delta(n, i, source, target):
    delta = np.zeros((n, n))
    delta[i, source], delta[i, target] = -1.0, 1.0
    return delta


def last_passing_local_share(work):
    """The last float local share of sender 0 that passes with 0.1 sent to node 1."""
    lo, hi = 0.0, 1.0
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if work.feasible(np.array([[mid, 0.1], [0.0, 0.0]])) else (lo, mid)
    assert not work.feasible(np.array([[hi, 0.1], [0.0, 0.0]]))
    return lo


def edge_segment(kind):
    """(work, start, delta, i, hi, steps) of a hand-built pair segment."""
    if kind.startswith("zero-capacity"):
        # node 1 has no capacity: any share moved there fails at once
        work = _SliceWork(pair_slice([5, 0], [30.0, 0.0]))
        start = np.array([[0.5, 0.0], [0.0, 0.0]])
        if kind.endswith("transfer"):
            return work, start, transfer_delta(2, 0, 0, 1), 0, 0.5, 50
        return work, start, np.array([[0.1, 0.2], [0.0, 0.0]]), 0, 1.0, 60
    if kind.startswith("near-saturation"):
        # node 0 near saturation: a long deadline lets its residual reach the floor
        work = _SliceWork(pair_slice([5, 5], [80.0, 0.0], deadline=1e7))
        if kind.endswith("transfer"):
            near = np.array([[(50.0 - 6e-7) / 80, 0.1], [0.0, 0.0]])
            assert work.feasible(near)
            return work, near, transfer_delta(2, 0, 1, 0), 0, 0.1, 50
        start = np.array([[0.3, 0.1], [0.0, 0.0]])
        return work, start, np.array([[(50.0 - 1e-7) / 80 - 0.3, 0.0], [0.0, 0.0]]), 0, 1.0, 60
    if kind.startswith("full-row"):
        # a row at total 1, pushed past it by a back-off, and moved by a transfer
        work = _SliceWork(pair_slice([5, 5], [20.0, 0.0]))
        start = np.array([[0.5, 0.5], [0.0, 0.0]])
        if kind.endswith("transfer"):
            return work, start, transfer_delta(2, 0, 0, 1), 0, 0.5, 50
        return work, start, np.array([[0.2, 0.0], [0.0, 0.0]]), 0, 1.0, 60
    # the local share at the last float that passes: moving any of the
    # remote share onto the congested local queue is blocked
    work = _SliceWork(pair_slice([2, 5], [40.0, 0.0]))
    start = np.array([[last_passing_local_share(work), 0.1], [0.0, 0.0]])
    return work, start, transfer_delta(2, 0, 1, 0), 0, 0.1, 50


def solver_segment(seed, n, kind, push):
    """(work, start, delta, i, hi, steps) of a segment a solver stage of that kind
    searches, on a slice the ascent has filled: a row back-off, a polish
    transfer or the NLP pull-back."""
    rng = np.random.default_rng(seed)
    work = _SliceWork(mesh_slice(rng, n))
    assume(work.senders)
    alpha = np.zeros((n, n))
    _ascent(work, alpha)
    i = int(rng.choice(work.senders))
    open_ = np.flatnonzero(work.allowed[i])
    if kind == "pullback":
        # an overshoot like SLSQP's: every entry pushed out, by up to 50%
        cand = alpha * (1 + 0.5 * push) + 0.05 * push * work.allowed * work.is_sender[:, None]
        event("pull-back infeasible" if not work.feasible(cand) else "pull-back feasible")
        return work, np.zeros((n, n)), cand, i, 1.0, 60
    if kind == "transfer":
        held = open_[alpha[i, open_] > 1e-12]
        assume(held.size and open_.size > 1)
        source = int(rng.choice(held))
        target = int(rng.choice(open_[open_ != source]))
        return work, alpha, transfer_delta(n, i, source, target), i, alpha[i, source], 50
    cand = alpha[i].copy()
    cand[open_] += push * rng.uniform(0.0, 0.6, open_.size) * (rng.random(open_.size) < 0.7)
    delta = np.zeros((n, n))
    delta[i] = cand - alpha[i]
    assume(delta.any())
    return work, alpha, delta, i, 1.0, 60


@st.composite
def offload_stacks(draw):
    """(work, stack): 1-15 offload matrices of one random slice of up to 8 nodes,
    with NaN and -0.0 entries, idle and zero-capacity queues, and columns
    filled to within rounding of their capacity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 15))
    work = _SliceWork(mesh_slice(rng, n))
    open_ = work.allowed & work.is_sender[:, None]
    stack = rng.random((m, n, n)) * open_ * (rng.random((m, n, n)) < 0.7)
    stack *= draw(st.floats(0.0, 2.0)) / np.maximum(stack.sum(axis=-1, keepdims=True), 1e-300)
    for a in stack:
        if work.senders and rng.random() < 0.5:
            # fill one queue to its capacity through one sender
            j, col = int(rng.choice(work.senders)), int(rng.integers(n))
            a[j, col] = 0.0
            a[j, col] = max(work.caps[col] - a[:, col] @ work.lam, 0.0) / work.lam[j]
    stack[(stack == 0) & (rng.random((m, n, n)) < 0.3)] = -0.0
    stack[rng.random((m, n, n)) < draw(st.sampled_from([0.0, 0.05]))] = math.nan
    return work, stack


class TestFeasibleStep:
    @settings(max_examples=400, deadline=None)
    @given(step_searches(), st.sampled_from([50, 60]), st.integers(1, 4))
    @example((1.0, lambda step: True), 60, 1)
    @example((math.ulp(0.0), lambda step: True), 60, 4)
    @example((3 * math.ulp(0.0), lambda step: step == 0.0), 50, 3)
    def test_matches_fixed_step_bisection(self, search, steps, depth):
        hi, feasible = search
        ref_probes, calls = [], []
        ref = reference_last_feasible(lambda s: ref_probes.append(s) or feasible(s), hi, steps)
        got = _last_feasible(lambda mids: calls.append(mids) or [feasible(s) for s in mids], hi, steps, depth)
        assert got.hex() == ref.hex()
        # each call asks for the 2^levels - 1 mids of the next levels, the
        # first of them the reference's probe at the first of those levels
        assert [len(mids) for mids in calls] == [2 ** min(depth, steps - depth * k) - 1 for k in range(len(calls))]
        assert [mids[0] for mids in calls] == ref_probes[::depth][: len(calls)]
        # the early stop only drops the tail of the reference's probes
        for k, s in enumerate(ref_probes[: depth * max(len(calls) - 1, 0)]):
            assert s in calls[k // depth]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.sampled_from(["backoff", "transfer", "pullback"]),
        st.floats(0.0, 1.0),
    )
    def test_last_feasible_matches_reference(self, seed, n, kind, push):
        """The stages' one search ends where a one-mid-at-a-time bisection of start + s*delta does."""
        work, start, delta, i, hi, steps = solver_segment(seed, n, kind, push)
        event(f"levels per check: {work.depth}")
        ref = reference_last_feasible(lambda s: work.feasible(start + s * delta), hi, steps)
        assert work.last_feasible(start, delta, hi, steps).hex() == ref.hex()

    def test_bracket_on_edge_segments(self):
        """A zero-capacity neighbour, a queue near saturation, a row at total 1, a blocked transfer."""
        # where each hand-built segment's last feasible step must lie
        within = {
            "zero-capacity transfer": lambda s: s == 0.0,
            "zero-capacity backoff": lambda s: s < 1e-300,
            "near-saturation backoff": lambda s: 0.0 < s < 1.0,
            "near-saturation transfer": lambda s: 0.0 <= s < 0.1,
            "full-row backoff": lambda s: 0.0 < s < 5e-9,
            "full-row transfer": lambda s: 0.0 < s < 0.5,
            "blocked transfer": lambda s: s == 0.0,
        }
        for kind, holds in within.items():
            work, start, delta, i, hi, steps = edge_segment(kind)
            ref = reference_last_feasible(lambda s: work.feasible(start + s * delta), hi, steps)
            got = work.last_feasible(start, delta, hi, steps)
            assert got.hex() == ref.hex(), kind
            assert holds(got), kind
            assert work.feasible(start + got * delta), kind

    @settings(max_examples=300, deadline=None)
    @given(offload_stacks())
    def test_stacked_checks_match_single(self, drawn):
        """Loads, responses and verdict of a stack are, matrix by matrix, those of the matrix alone."""
        work, stack = drawn
        loads = np.swapaxes(stack, -1, -2) @ work.lam
        pis = response_times(stack, work.lam, work.caps, work.tau)
        verdicts = _violations(work, stack, loads, pis)
        for k, alpha in enumerate(stack):
            alone = _SliceWork(work.instance).state(alpha)
            assert loads[k].tobytes() == alone.loads.tobytes()
            assert pis[k].tobytes() == alone.pis.tobytes()
            assert verdicts[k].tobytes() == np.float64(alone.violation).tobytes()
        event(f"NaN verdicts: {bool(np.isinf(verdicts).any())}; saturated: {bool(np.isinf(pis).any())}")

    def test_polish_skips_targets_without_capacity(self):
        """No check is spent on a transfer onto a queue with no capacity."""
        # node 0 has no capacity; both senders hold shares on node 1
        work = _SliceWork(pair_slice([0, 5], [30.0, 20.0]))
        alpha = np.array([[0.0, 0.5], [0.0, 0.3]])
        checked, feasible = [], work.feasible
        record = lambda a: checked.append(a.copy()) or feasible(a)
        with mock.patch.object(work, "feasible", side_effect=record):
            _polish_priority(work, alpha)
        assert not any(a[:, 0].any() for a in checked)
        assert alpha.tolist() == [[0.0, 0.5], [0.0, 0.3]]

    def test_climbs_to_hi_and_stops(self):
        probes = []
        got = _last_feasible(lambda mids: [probes.append(s) or True for s in mids], 1.0, 60, 1)
        # lo reaches the float below 1.0 after 53 probes; the 54th tests 1.0 itself
        assert got == reference_last_feasible(lambda s: True, 1.0, 60) == 1.0
        assert len(probes) == 54 and probes[-2] == math.nextafter(1.0, 0.0)

    def test_nan_allocation_is_infeasible(self):
        work = _SliceWork(pair_slice([5, 5], [80.0, 20.0]))
        for rows in ([[math.nan, 0.0], [0.0, 0.1]], [[0.1, math.nan], [0.0, 0.0]]):
            alpha = np.array(rows)
            assert work.max_violation(alpha) == math.inf
            assert not work.feasible(alpha)


class TestWaterfill:
    @settings(max_examples=400, deadline=None)
    @given(waterfill_inputs())
    @example(EARLY_RETURN)
    @example(SCARCE_PAIR)
    @example(PLATEAU)
    @example(ROW24)
    @example(ROW150)
    def test_matches_reference_bisection(self, args):
        ref, _ = reference_waterfill(*args)
        assert _waterfill(*args).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(waterfill_inputs(), st.sampled_from(["stall", "none", "overshoot", "creep"]))
    @example(PLATEAU, "stall")
    @example(ROW24, "stall")
    def test_any_probe_sequence_keeps_every_bit(self, args, probe):
        """Probes only save work: with useless ones the bisection's result is unchanged.

        A stalled probe moves one ulp at a time until the probe budget runs
        out, so the bisection has to evaluate the mids left between them.
        """
        fake = {
            "stall": lambda mu, *_: mu,
            "none": lambda mu, *_: math.nan,  # geometric mids of the probe bracket
            "overshoot": lambda mu, *_: 4.0 * mu,
            "creep": lambda mu, *_: mu * (1.0 + 1e-9),
        }[probe]
        ref, _ = reference_waterfill(*args)
        with mock.patch("fogslice.game._price_probe", fake):
            assert _waterfill(*args).tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(waterfill_inputs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 64))
    @example(PLATEAU, 0.3, 0.9, 8)
    def test_reference_verdict_is_monotone_in_the_price(self, args, at1, at2, width):
        """The premise of _waterfill's inference: below a passing price, every price passes."""
        tau, cap, box, lam, theta = args
        active = (box > 1e-15) & (cap > RESIDUAL_FLOOR)
        assume(active.any())
        t, c, b = tau[active], cap[active], box[active]
        lo = float((t + 1.0 / c).min())
        hi = float((t + c / (c - lam * b) ** 2).max()) * 2.0 + 1.0
        # two prices anywhere in the bracket _waterfill searches
        mu1, mu2 = (lo * (hi / lo) ** at for at in sorted((at1, at2)))
        assert reference_verdict(*args, mu1) or not reference_verdict(*args, mu2)
        # and float by float across the price where the verdict switches
        top = hi
        while lo < math.sqrt(lo * top) < top:
            mid = math.sqrt(lo * top)
            if reference_verdict(*args, mid):
                lo = mid
            else:
                top = mid
        prices = [lo]
        for _ in range(width):
            prices = [np.nextafter(prices[0], 0.0), *prices, np.nextafter(prices[-1], np.inf)]
        verdicts = [reference_verdict(*args, mu) for mu in prices]
        assert verdicts == sorted(verdicts, reverse=True)

    def test_early_collapse_keeps_every_bit(self):
        _, collapsed = reference_waterfill(*EARLY_RETURN)
        assert collapsed is None  # hi was feasible: no bisection ran
        ref, collapsed = reference_waterfill(*SCARCE_PAIR)
        # the bracket is two adjacent floats long before step 130
        assert collapsed is not None and collapsed < 100
        out = _waterfill(*SCARCE_PAIR)
        assert 0.0 < out.sum() < 1.0
        assert out.tobytes() == ref.tobytes()

    def test_plateau_ends_at_an_opening_price(self):
        out = _waterfill(*PLATEAU)
        assert out.tolist() == [0.5, 0.5, 0.0]
        tau, cap, box, lam, theta = PLATEAU
        opening = tau[2] + 1.0 / cap[2]
        assert reference_verdict(*PLATEAU, opening)
        assert not reference_verdict(*PLATEAU, np.nextafter(opening, 1.0))

    def test_box_without_residual_rejected(self):
        tau = np.full(3, 0.01)
        cap = np.array([20.0, 30.0, 40.0])
        # 60 requests into any one destination saturate it
        with pytest.raises(ValueError):
            _waterfill(tau, cap, np.ones(3), 60.0, 0.1)
        # boxes that leave the residual floor serve a share
        assert np.all((cap - RESIDUAL_FLOOR) / 60.0 < 1.0)
        assert lone_sender_share(tau, cap, 60.0, 0.1) > 0.0

    @pytest.mark.parametrize("bad", [-0.01, float("nan")])
    def test_negative_or_nan_round_trip_rejected(self, bad):
        cap = np.array([20.0, 30.0, 40.0])
        box = np.array([0.2, 0.2, 0.0])
        with pytest.raises(ValueError, match="round trip"):
            _waterfill(np.array([0.0, bad, 0.01]), cap, box, 10.0, 0.1)
        # a destination out of use may carry any round trip
        out = _waterfill(np.array([0.0, 0.01, bad]), cap, box, 10.0, 0.1)
        assert 0.0 < out.sum() <= 0.4


class TestPairwiseSum:
    @pytest.mark.parametrize("mix", ["magnitudes", "signed-zeros", "inf-and-nan"])
    def test_matches_numpy_bit_for_bit(self, mix):
        """Lengths 0-300 reach every branch: under 8, eight accumulators, halves past 128.

        Which of two NaNs a sum carries is the compiler's choice, in numpy
        and in CPython alike, so a NaN sum is held to being NaN.
        """
        rng = np.random.default_rng(20261020)
        for n in range(301):
            xs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
            if mix == "signed-zeros":
                xs = np.where(rng.random(n) < 0.9, rng.choice([0.0, -0.0], n), xs)
                if n % 3 == 0:
                    xs = np.full(n, -0.0)
            elif mix == "inf-and-nan":
                special = rng.random(n) < 0.03
                xs[special] = rng.choice([np.inf, -np.inf, np.nan, -0.0], special.sum())
            with np.errstate(invalid="ignore"):
                want = np.add.reduce(xs)
            got = _pairwise_sum(xs.tolist())
            if math.isnan(want):
                assert math.isnan(got), n
            else:
                assert np.float64(got).tobytes() == want.tobytes(), n


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

    def test_trim_drops_every_unit_of_an_idle_node(self):
        """A node carrying no load keeps no energy, its last unit included."""
        game = GameInstance(network=make_network(2), arrivals=np.array([[20.0], [0.0]]), budgets=np.array([2, 3]))
        alpha = np.array([[0.5, 0.0], [0.0, 0.0]])
        energy, alphas = _trim_energy(game, np.array([[2], [3]]), [alpha])
        assert energy.tolist() == [[2], [0]]
        assert alphas[0] is alpha

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


@st.composite
def small_networks(draw, max_services=1):
    """1-3 node networks with drawn hardware, edges, round trips and arrivals.

    Some edges are missing and some round trips meet or exceed a deadline,
    so a destination can be unreachable; some arrival rates are zero.
    """
    n = draw(st.integers(1, 3))
    services = tuple(
        make_service(
            deadline=draw(st.floats(0.04, 0.15)),
            reward=draw(st.floats(0.5, 2.0)),
            unit_rate=draw(st.floats(8.0, 30.0)),
            name=f"s{k}",
        )
        for k in range(draw(st.integers(1, max_services)))
    )
    nodes = tuple(
        make_node(
            max_units=draw(st.integers(1, 4)),
            unit_energy=draw(st.integers(1, 2)),
            rate_factor=draw(st.floats(0.5, 2.0)),
        )
        for _ in range(n)
    )
    rtt = np.zeros((n, n))
    links = [set() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            links[i].add(j)
            links[j].add(i)
        choice = draw(st.sampled_from([0.005, 0.02, 0.04, "deadline", 0.2]))
        rtt[i, j] = rtt[j, i] = services[0].deadline if choice == "deadline" else choice
    arrival = st.one_of(st.just(0.0), st.floats(0.5, 40.0))
    arrivals = np.array([[draw(arrival) for _ in services] for _ in range(n)])
    net = NetworkSpec(
        services=services, nodes=nodes, neighbors=tuple(frozenset(s) for s in links), rtt=rtt
    )
    return net, arrivals


@st.composite
def bound_slices(draw):
    net, arrivals = draw(small_networks())
    return SliceInstance(net, 0, np.array([draw(st.integers(0, 4)) for _ in net.nodes]), arrivals[:, 0])


@st.composite
def exhaustive_games(draw, max_budget=4):
    """1-3 node, 1-2 service games; 3-node budgets stop at 2 to keep each draw cheap."""
    net, arrivals = draw(small_networks(max_services=2))
    top = max_budget if net.n_nodes <= 2 else 2
    budgets = np.array([draw(st.integers(0, top)) for _ in net.nodes])
    return GameInstance(network=net, arrivals=arrivals, budgets=budgets)


def f4_pair():
    """Acceptance F4 pair: lams (10, 5), budgets (4, 4), tau 0.02; both fully serve themselves."""
    net = make_network(n_nodes=2, services=(make_service(deadline=0.1, unit_rate=10.0),))
    return GameInstance(
        network=net, arrivals=np.array([[10.0], [5.0]]), budgets=np.array([4, 4])
    )


def reference_exhaustive(game):
    """The exhaustive path as a full enumeration: every energy vector solved.

    ``best_from`` keeps the first strict maximum in ``itertools.product``
    order, as the search did before it was bounded.
    """
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    ranges = [
        range(min(int(b), nd.max_units * nd.unit_energy) + 1)
        for nd, b in zip(net.nodes, game.budgets)
    ]
    per_service = []
    for k in range(k_n):
        table = {}
        for vec in itertools.product(*ranges):
            sol = solve_offload(game.slice_for(k, np.array(vec)))
            table[vec] = (sol.welfare, sol.alpha)
        per_service.append(table)
    memo = {}

    def best_from(k, remaining):
        if k == k_n:
            return 0.0, ()
        if (k, remaining) in memo:
            return memo[k, remaining]
        best = (-np.inf, ())
        for vec, (welfare, _) in per_service[k].items():
            if any(e > r for e, r in zip(vec, remaining)):
                continue
            rest = tuple(r - e for r, e in zip(remaining, vec))
            sub_w, sub_vecs = best_from(k + 1, rest)
            total = welfare + sub_w
            if total > best[0]:
                best = (total, (vec,) + sub_vecs)
        memo[k, remaining] = best
        return best

    welfare, vecs = best_from(0, tuple(int(b) for b in game.budgets))
    energy = np.array(vecs, dtype=int).T if vecs else np.zeros((n, k_n), dtype=int)
    alphas = [per_service[k][vecs[k]][1] for k in range(k_n)]
    energy, alphas = _trim_energy(game, energy, alphas)
    return _assemble(game, energy, alphas), welfare


def counted_solves(monkeypatch):
    """The energy vector of every ``solve_offload`` call from here on, in call order."""
    calls = []
    real = game.solve_offload

    def counting(instance):
        calls.append(tuple(instance.energy.tolist()))
        return real(instance)

    monkeypatch.setattr(game, "solve_offload", counting)
    return calls


def audit_c1_game():
    """Audit game 277 (criterion-3 shape C1): every request can be served, and
    the uncapped solver reported 27.00000001 for 27 req/s of arrivals."""
    return GameInstance(
        network=make_network(n_nodes=3),
        arrivals=np.array([[6.0], [14.0], [7.0]]),
        budgets=np.array([2, 3, 2]),
    )


def tie_game():
    """(0, 3), (1, 3), (2, 2) and (2, 3) all serve every request."""
    net = make_network(n_nodes=2, services=(make_service(deadline=0.1, unit_rate=10.0),))
    return GameInstance(network=net, arrivals=np.array([[10.0], [2.0]]), budgets=np.array([2, 3]))


def ceiling(game):
    """Full service: each service's reward times its summed arrivals, added up."""
    services = game.network.services
    return sum(svc.reward * float(np.sum(game.arrivals[:, k].astype(float))) for k, svc in enumerate(services))


def assert_same_as_full_enumeration(game):
    sol = solve_social_welfare(game)
    assert sol.status == "exhaustive"
    ref, ref_welfare = reference_exhaustive(game)
    for name in ("energy", "offload", "rewards"):
        got, want = getattr(sol.agreement, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert float(sol.welfare).hex() == float(ref_welfare).hex()


class TestFullServiceCeiling:
    @settings(max_examples=300, deadline=None)
    @given(bound_slices())
    @example(audit_c1_game().slice_for(0, np.array([2, 3, 0])))
    def test_no_row_serves_more_than_its_arrivals(self, inst):
        sol = solve_offload(inst)
        assert (sol.alpha.sum(axis=1) <= 1.0).all()
        assert sol.welfare <= inst.service.reward * float(np.sum(inst.arrivals))

    @settings(max_examples=300, deadline=None)
    @given(bound_slices(), st.lists(st.floats(0.0, 4e-9), min_size=3, max_size=3), st.integers(0, 4))
    @example(audit_c1_game().slice_for(0, np.array([2, 3, 0])), [4e-9, 1e-9, 0.0], 3)
    def test_capping_keeps_a_feasible_alpha_feasible(self, inst, stretch, ulps):
        """From a solved alpha with rows pushed past 1.0 by a relative stretch and some ulps."""
        work = _SliceWork(inst)
        alpha = solve_offload(inst).alpha * (1.0 + np.array(stretch[: work.n]))[:, None]
        for _ in range(ulps):
            alpha = np.nextafter(alpha, 2.0, where=alpha > 0, out=alpha)
        before = work.max_violation(alpha)
        over = alpha.sum(axis=1) > 1.0
        event(f"rows over 1.0: {int(over.sum())}")
        capped = alpha.copy()
        _cap_rows(capped)
        assert (capped.sum(axis=1) <= 1.0).all()
        assert (capped <= alpha).all()
        assert capped[~over].tobytes() == alpha[~over].tobytes()
        after = work.max_violation(capped)
        assert after <= max(before, 0.0)
        if before <= FEAS_TOL:
            assert work.feasible(capped)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        st.floats(0.0, 1e-8),
    )
    def test_capped_rows_end_at_most_one(self, rows, stretch):
        """Rows scaled to just above 1.0: a division by the sum alone often leaves them an ulp above."""
        alpha = np.array(rows)
        sums = alpha.sum(axis=1)
        assume((sums > 0).all())
        alpha = alpha / sums[:, None] * (1.0 + stretch)
        capped = alpha.copy()
        _cap_rows(capped)
        after = capped.sum(axis=1)
        assert (after <= 1.0).all()
        assert (capped <= alpha).all()
        assert (after >= 1.0 - 1e-14).all()

    @settings(max_examples=100, deadline=None)
    @given(exhaustive_games())
    @example(audit_c1_game())
    def test_no_game_welfare_above_full_service(self, game):
        assert solve_social_welfare(game).welfare <= ceiling(game)
        assert solve_social_welfare(game, SolverOptions(exhaustive_nodes=0)).welfare <= ceiling(game)

    def test_audit_c1_game_serves_exactly_its_arrivals(self):
        sol = solve_social_welfare(audit_c1_game())
        assert sol.welfare == 27.0
        assert sol.agreement.offload[0].sum(axis=1).tolist() == [1.0, 1.0, 1.0]


class TestExhaustiveSearch:
    @settings(max_examples=300, deadline=None)
    @given(bound_slices())
    @example(f4_pair().slice_for(0, np.array([4, 4])))
    def test_slice_bound_is_a_bound(self, inst):
        assert _slice_bound(inst) >= solve_offload(inst).welfare

    @pytest.mark.parametrize(
        "energy, lam, deadline",
        [(0, 15.0, 0.1), (2, 0.0, 0.1), (1, 5.0, 0.1), (1, 30.0, 0.1), (4, 15.0, 0.1),
         (2, 60.0, 0.05), (4, 30.0, 0.05), (4, 5.0, 0.05)],
    )
    def test_lone_node_bound_is_the_closed_form(self, energy, lam, deadline):
        inst = solo_slice(energy, lam, deadline=deadline)
        c = float(inst.capacities()[0])
        value = inst.service.reward * min(lam, deadline * lam * c / (1.0 + deadline * lam))
        assert abs(_slice_bound(inst) - value) <= 1e-8 * max(1.0, value)

    @settings(max_examples=100, deadline=None)
    @given(exhaustive_games())
    def test_same_winner_as_full_enumeration(self, game):
        assert_same_as_full_enumeration(game)

    def test_ties_go_to_the_first_vector_in_product_order(self, monkeypatch):
        # with rows capped at 1.0 the vectors that serve everything tie at
        # exactly 12.0 and their bounds all sit on that ceiling, so (0, 3),
        # the first of them in product order, is the only slice solved
        game = tie_game()
        assert_same_as_full_enumeration(game)
        calls = counted_solves(monkeypatch)
        sol = solve_social_welfare(game)
        assert sol.agreement.energy[:, 0].tolist() == [0, 3]
        assert sol.welfare == 12.0
        assert calls == [(0, 3)]

    def test_a_tie_from_an_earlier_position_is_still_solved(self, monkeypatch):
        # a looser bound that grows with the energy visits (2, 3) first, which
        # serves everything; (0, 3), bounded at exactly that welfare, can only
        # tie it, but from an earlier position, so it is solved and wins
        game_ = tie_game()
        tight = game._slice_bound

        def loose(inst):
            if inst.energy.tolist() == [0, 3]:
                return tight(inst)
            return tight(inst) * (1.0 + 1e-3 * int(inst.energy.sum()))

        monkeypatch.setattr(game, "_slice_bound", loose)
        assert_same_as_full_enumeration(game_)
        calls = counted_solves(monkeypatch)
        assert solve_social_welfare(game_).agreement.energy[:, 0].tolist() == [0, 3]
        assert calls[0] == (2, 3) and (0, 3) in calls

    def test_vector_count_is_exact_past_1e9(self):
        """Three nodes of 40 000 units each: the count is the full product, never a partial one."""
        nodes = tuple(make_node(max_units=40_000, battery_cap=40_000) for _ in range(3))
        game = GameInstance(
            network=make_network(nodes=nodes), arrivals=np.full((3, 1), 10.0), budgets=np.full(3, 40_000)
        )
        assert _exhaustive_vector_count(game) == 40_001**3 == 64_004_800_120_001

    def test_solves_fewer_slices_than_vectors(self, monkeypatch):
        # of the 25 vectors the first that serves everything is the only one solved
        calls = counted_solves(monkeypatch)
        solve_social_welfare(f4_pair())
        assert len(calls) == len(set(calls))
        assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(exhaustive_games(max_budget=3), st.data())
    def test_more_budget_never_lowers_welfare(self, game, data):
        i = data.draw(st.integers(0, game.network.n_nodes - 1))
        budgets = game.budgets.copy()
        budgets[i] += 1
        richer = GameInstance(network=game.network, arrivals=game.arrivals, budgets=budgets)
        before, after = solve_social_welfare(game), solve_social_welfare(richer)
        assert before.status == after.status == "exhaustive"
        assert after.welfare >= before.welfare


def deviation_agreement(game, dev):
    """A core deviation as an agreement of the whole network; non-members idle."""
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    idx = list(dev.members)
    energy = np.zeros((n, k_n), dtype=int)
    energy[idx] = dev.energy
    offload = np.zeros((k_n, n, n))
    for k, alpha in enumerate(dev.alphas):
        offload[k][np.ix_(idx, idx)] = alpha
    rho = np.array([svc.reward for svc in net.services])
    rewards = rho * game.arrivals * offload.sum(axis=2).T
    return SlicingAgreement(energy=energy, offload=offload, rewards=rewards)


def budget_state(game):
    return SlotState(
        battery=game.budgets.astype(float),
        arrivals=game.arrivals,
        harvested_prev=np.zeros(game.network.n_nodes),
    )


def two_service_pair_game():
    """Two nodes, each with workload of its own service only; 2 units each."""
    services = (
        make_service(deadline=0.1, unit_rate=10.0, name="a"),
        make_service(deadline=0.1, unit_rate=10.0, name="b"),
    )
    net = make_network(
        services=services, nodes=(make_node(max_units=1), make_node(max_units=1)), tau=0.02
    )
    return GameInstance(
        network=net, arrivals=np.array([[15.0, 0.0], [0.0, 15.0]]), budgets=np.array([2, 2])
    )


def own_service_alone_agreement():
    """Each node serves 0.4 of its own service on one unit, the most in time."""
    offload = np.zeros((2, 2, 2))
    offload[0, 0, 0] = 0.4
    offload[1, 1, 1] = 0.4
    return SlicingAgreement(
        energy=np.array([[1, 0], [0, 1]]),
        offload=offload,
        rewards=np.array([[6.0, 0.0], [0.0, 6.0]]),
    )


def ref_slice_options(game, members, k, units, grid):
    """(member payoffs, rows) of every grid offload of service k that meets the deadline.

    Brute force inside the coalition: member li activates units[li] whole
    units for service k; rows[li][d] counts grid steps of member li's
    workload sent to members[d].  Capacity and delay are derived here: a
    destination of load L and capacity c delays each request 1/(c - L),
    and a sender's time is sum_d share_d * (rtt_d + 1/(c_d - L_d)).
    """
    net = game.network
    svc = net.services[k]
    steps = round(1.0 / grid)
    size = len(members)
    lam = [float(game.arrivals[m, k]) for m in members]
    caps = [svc.unit_rate * net.nodes[m].rate_factor * units[li] for li, m in enumerate(members)]
    row_sets = []
    for li, m in enumerate(members):
        free = [d for d, dest in enumerate(members) if dest == m or dest in net.neighbors[m]]
        rows = []
        for shares in itertools.product(range(steps + 1), repeat=len(free)):
            if sum(shares) <= steps and (lam[li] > 0 or not any(shares)):
                row = [0] * size
                for d, units_d in zip(free, shares):
                    row[d] = units_d
                rows.append(tuple(row))
        row_sets.append(rows)
    options = []
    for rows in itertools.product(*row_sets):
        load = [sum(rows[j][d] * grid * lam[j] for j in range(size)) for d in range(size)]
        ok = True
        for li, m in enumerate(members):
            delay = 0.0
            for d, dest in enumerate(members):
                if rows[li][d] == 0:
                    continue
                if caps[d] - load[d] <= FEAS_TOL:
                    ok = False
                    break
                delay += rows[li][d] * grid * (net.rtt[m, dest] + 1.0 / (caps[d] - load[d]))
            if not ok or delay > svc.deadline + FEAS_TOL:
                ok = False
                break
        if ok:
            payoffs = tuple(svc.reward * lam[li] * sum(rows[li]) * grid for li in range(size))
            options.append((payoffs, rows))
    return options


def ref_unit_splits(game, m):
    """Every whole-unit split of node m's budget over the services."""
    node = game.network.nodes[m]
    k_n = game.network.n_services
    top = min(node.max_units, int(game.budgets[m]) // node.unit_energy)
    return [
        s
        for s in itertools.product(range(top + 1), repeat=k_n)
        if sum(s) * node.unit_energy <= game.budgets[m]
    ]


def ref_local_play(game, grid):
    """Each node's best grid-feasible play alone, as one agreement."""
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    energy = np.zeros((n, k_n), dtype=int)
    offload = np.zeros((k_n, n, n))
    rewards = np.zeros((n, k_n))
    for m in range(n):
        best = None
        for split in ref_unit_splits(game, m):
            picks = [
                max(ref_slice_options(game, (m,), k, (split[k],), grid))
                for k in range(k_n)
            ]
            total = sum(payoffs[0] for payoffs, _ in picks)
            if best is None or total > best[0]:
                best = (total, split, picks)
        _, split, picks = best
        for k, (payoffs, rows) in enumerate(picks):
            energy[m, k] = split[k] * net.nodes[m].unit_energy
            offload[k, m, m] = rows[0][0] * grid
            rewards[m, k] = payoffs[0]
    return SlicingAgreement(energy=energy, offload=offload, rewards=rewards)


def ref_pair_deviates(game, standing, grid):
    """Whether nodes 0 and 1 together can pay each more than standing + STRICT_EPS."""
    members = (0, 1)
    fronts = {}
    for split0 in ref_unit_splits(game, 0):
        for split1 in ref_unit_splits(game, 1):
            per_service = []
            for k in range(game.network.n_services):
                key = (k, split0[k], split1[k])
                if key not in fronts:
                    options = ref_slice_options(game, members, k, key[1:], grid)
                    points = {payoffs for payoffs, _ in options}
                    # a dominated payoff pair never deviates where its dominator cannot
                    fronts[key] = [
                        p
                        for p in points
                        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in points)
                    ]
                per_service.append(fronts[key])
            for picks in itertools.product(*per_service):
                if all(sum(p[li] for p in picks) > standing[li] + STRICT_EPS for li in range(2)):
                    return True
    return False


@st.composite
def pair_core_games(draw):
    """2-node, 2-service games whose workload leans toward one service per node."""
    services = tuple(
        make_service(
            deadline=0.1, unit_rate=10.0, reward=draw(st.sampled_from([1.0, 2.0])), name=f"s{k}"
        )
        for k in range(2)
    )
    nodes = tuple(make_node(max_units=draw(st.integers(1, 2))) for _ in range(2))
    tau = draw(st.sampled_from([0.01, 0.02, 0.04]))
    net = make_network(services=services, nodes=nodes, tau=tau)
    arrivals = np.zeros((2, 2))
    for i in range(2):
        main = draw(st.integers(0, 1))
        arrivals[i, main] = 2.5 * draw(st.integers(1, 12))
        arrivals[i, 1 - main] = draw(st.sampled_from([0.0, 0.0, 2.5, 5.0]))
    budgets = np.array([draw(st.integers(0, 3)) for _ in range(2)])
    return GameInstance(network=net, arrivals=arrivals, budgets=budgets)


def reference_grid_rows(lam, caps, tau_row, grid, theta):
    """The recursive enumeration ``_grid_rows`` must match, order included."""
    if lam <= 0:
        return [tuple(0 for _ in caps)]
    steps = int(round(1.0 / grid))
    max_per_dest = []
    for d in range(len(caps)):
        top = min(steps, int((caps[d] - FEAS_TOL) / (lam * grid)) if caps[d] > 0 else 0)
        if tau_row[d] >= theta:
            top = 0
        max_per_dest.append(max(top, 0))
    rows = []

    def rec(d, left, acc):
        if d == len(caps):
            rows.append(tuple(acc))
            return
        for units in range(min(max_per_dest[d], left) + 1):
            rec(d + 1, left - units, acc + [units])

    rec(0, steps, [])
    return rows


class TestCheckCore:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(0.1, 100.0)),
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.just(1e-10), st.floats(0.0, 200.0)),
                st.one_of(st.just(-1.0), st.floats(0.0, 0.2)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.05, 0.5),
        st.floats(0.01, 0.15),
    )
    def test_grid_rows_match_recursive_enumeration(self, lam, dests, grid, theta):
        """Zero arrivals, zero or tiny capacities and round trips at or past the deadline included.

        Sender 0 may use every node; ``SliceInstance.allowed`` closes the
        edges whose round trip reaches the deadline, and the reference
        cuts those same entries to zero with its own rule.
        """
        n = len(dests)
        caps = np.array([cap for cap, _ in dests])
        # a round trip drawn as -1 stands for one exactly at the deadline;
        # the sender's own queue is at round trip 0
        tau_row = np.array([0.0] + [theta if tau < 0 else tau for _, tau in dests[1:]])
        rtt = np.zeros((n, n))
        rtt[0, :] = rtt[:, 0] = tau_row
        sl = make_slice(
            service=make_service(deadline=theta),
            nodes=tuple(make_node() for _ in range(n)),
            energy=np.zeros(n, dtype=int),
            arrivals=np.zeros(n),
            neighbors=(frozenset(range(1, n)),) + (frozenset({0}),) * (n - 1),
            rtt=rtt,
        )
        open_row = sl.allowed()[0]
        want = reference_grid_rows(lam, caps, tau_row, grid, theta)
        closed = np.flatnonzero(~open_row)
        assert all(row[m] == 0 for row in want for m in closed)
        open_dests = np.flatnonzero(open_row)
        assert _grid_rows(lam, caps, open_row, grid) == [
            tuple(row[m] for m in open_dests) for row in want
        ]

    @pytest.mark.parametrize("grid", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_options_reject_invalid_grid(self, grid):
        with pytest.raises(ValueError, match="grid"):
            CoreOptions(grid=grid)

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


    @pytest.mark.parametrize(
        "grid, rewards, steps_a, steps_b",
        [
            (0.05, 8.25, [[6, 5], [0, 0]], [[0, 0], [5, 6]]),
            (0.1, 7.5, [[2, 3], [0, 0]], [[0, 0], [2, 3]]),
            (0.25, 7.5, [[1, 1], [0, 0]], [[0, 0], [1, 1]]),
        ],
    )
    def test_pair_deviates_together(self, grid, rewards, steps_a, steps_b):
        # alone, one unit serves 0.4 of a node's own service in time; the
        # pair pools a unit of each service at each node and serves more
        game = two_service_pair_game()
        standing = own_service_alone_agreement()
        assert validate_agreement(game.network, budget_state(game), standing) == []
        result = check_core(game, standing, CoreOptions(grid=grid))
        assert result.certified is False
        assert result.checked_subsets == 3
        assert result.truncated_sizes == ()
        dev = result.deviation
        assert dev.members == (0, 1)
        assert dev.rewards.tolist() == [rewards, rewards]
        assert dev.energy.tolist() == [[1, 1], [1, 1]]
        assert len(dev.alphas) == 2
        assert np.array_equal(dev.alphas[0], np.array(steps_a) * grid)
        assert np.array_equal(dev.alphas[1], np.array(steps_b) * grid)
        agreement = deviation_agreement(game, dev)
        assert validate_agreement(game.network, budget_state(game), agreement) == []
        assert np.array_equal(agreement.total_rewards(), dev.rewards)

    def test_pair_search_truncates_at_budget(self, monkeypatch):
        monkeypatch.setattr("fogslice.game.CORE_MAX_CHECKS", 50)
        result = check_core(two_service_pair_game(), own_service_alone_agreement())
        assert result.certified is False
        assert result.deviation is None
        assert result.truncated_sizes == (2,)

    def test_matches_brute_force_on_pairs(self):
        grid = 0.25
        searched = []

        @settings(max_examples=150, deadline=None)
        @given(pair_core_games())
        def check(game):
            standing = ref_local_play(game, grid)
            assert validate_agreement(game.network, budget_state(game), standing) == []
            current = standing.total_rewards()
            full = (game.arrivals * [svc.reward for svc in game.network.services]).sum(axis=1)
            pair_searched = bool(np.all(current < full - STRICT_EPS))
            searched.append(pair_searched)
            event(f"searches the pair: {pair_searched}")
            expected = ref_pair_deviates(game, current, grid)
            event(f"pair deviates: {expected}")
            result = check_core(game, standing, CoreOptions(grid=grid))
            assert (result.deviation is not None) == expected
            assert result.certified is not expected
            if expected:
                dev = result.deviation
                agreement = deviation_agreement(game, dev)
                assert validate_agreement(game.network, budget_state(game), agreement) == []
                assert np.all(dev.rewards > current[list(dev.members)] + STRICT_EPS)

        check()
        assert any(searched)


def reference_allowed(inst):
    """The per-edge loop ``SliceInstance.allowed`` ran before it read the network's arrays."""
    mask = np.eye(inst.n_nodes, dtype=bool)
    for i, nbrs in enumerate(inst.network.neighbors):
        for m in nbrs:
            if inst.rtt[i, m] < inst.service.deadline:
                mask[i, m] = True
    return mask


def reference_capacities(inst):
    """The per-node loop ``SliceInstance.capacities`` ran before it read the network's arrays."""
    nodes = inst.network.nodes
    w = np.array([inst.service.unit_rate * nd.rate_factor for nd in nodes])
    return capacity(w, inst.energy.astype(int), np.array([nd.unit_energy for nd in nodes]))


@st.composite
def figure_games(draw):
    """A game on 1-6 nodes and 1-3 services, with an energy commitment per node and service.

    Round trips sit on a deadline, one float either side of it, at 0 or
    past every deadline; each direction of a link is drawn on its own, so
    neighbour sets are asymmetric; energies include 0 and sub-unit
    remainders.
    """
    n = draw(st.integers(1, 6))
    services = tuple(
        make_service(
            deadline=draw(st.sampled_from([0.02, 0.05, 0.1])),
            unit_rate=draw(st.floats(0.5, 30.0)),
            name=f"s{k}",
        )
        for k in range(draw(st.integers(1, 3)))
    )
    nodes = tuple(
        make_node(unit_energy=draw(st.integers(1, 3)), rate_factor=draw(st.floats(0.25, 4.0)))
        for _ in range(n)
    )
    trips = [0.0, 0.2]
    for svc in services:
        trips += [svc.deadline, math.nextafter(svc.deadline, 0.0), math.nextafter(svc.deadline, 1.0)]
    rtt = np.array([[0.0 if i == m else draw(st.sampled_from(trips)) for m in range(n)] for i in range(n)])
    neighbors = tuple(frozenset(m for m in range(n) if m != i and draw(st.booleans())) for i in range(n))
    net = NetworkSpec(services=services, nodes=nodes, neighbors=neighbors, rtt=rtt)
    energy = np.array([[draw(st.integers(0, 7)) for _ in services] for _ in nodes])
    game = GameInstance(network=net, arrivals=np.zeros((n, len(services))), budgets=energy.sum(axis=1))
    return game, energy


class TestSliceFigures:
    @settings(max_examples=300, deadline=None)
    @given(figure_games())
    def test_network_arrays_match_the_node_loops(self, drawn):
        """``slice_for(k, e)`` reads its open edges and capacities bit for bit as the old loops built them."""
        game, energy = drawn
        for k in range(game.network.n_services):
            sl = game.slice_for(k, energy[:, k])
            allowed, caps = sl.allowed(), sl.capacities()
            assert not allowed.flags.writeable
            assert allowed.tobytes() == reference_allowed(sl).tobytes()
            want = reference_capacities(sl)
            assert caps.dtype == want.dtype and caps.tobytes() == want.tobytes()
            event(f"closed edge: {bool((game.network.arrays.forward & ~allowed).any())}")
            event(f"sub-unit energy: {bool((energy[:, k] % game.network.arrays.unit_energy[:, 0]).any())}")


class TestGameInstance:
    @pytest.mark.parametrize(
        "arrivals, budgets, message",
        [
            ([[20.0], [1.0]], [3, -1], "budgets"),
            ([[20.0], [1.0]], [3.0, 2.5], "budgets"),
            ([[20.0], [1.0]], [3.0, math.nan], "budgets"),
            ([[20.0], [-1.0]], [3, 2], "arrivals"),
            ([[20.0], [math.nan]], [3, 2], "arrivals"),
            ([[math.inf], [1.0]], [3, 2], "arrivals"),
        ],
    )
    def test_rejects_bad_budgets_and_arrivals(self, arrivals, budgets, message):
        with pytest.raises(ValueError, match=message):
            GameInstance(network=make_network(2), arrivals=np.array(arrivals), budgets=np.array(budgets))

    def test_accepts_whole_float_budgets_and_zero_arrivals(self):
        game = GameInstance(network=make_network(2), arrivals=np.zeros((2, 1)), budgets=np.array([0.0, 4.0]))
        assert game.budgets.tolist() == [0.0, 4.0]

    def test_leaves_caller_arrays_writable(self):
        arrivals, budgets = np.array([[20.0], [1.0]]), np.array([3, 4])
        game = GameInstance(network=make_network(2), arrivals=arrivals, budgets=budgets)
        arrivals[0, 0], budgets[0] = 9.0, 9  # the game froze copies, not the caller's arrays
        assert game.arrivals.tolist() == [[20.0], [1.0]]
        assert game.budgets.tolist() == [3, 4]
        assert not game.arrivals.flags.writeable and not game.budgets.flags.writeable

    def test_slice_leaves_caller_arrays_writable(self):
        net = make_network(2)
        energy, arrivals = np.array([2, 0]), np.array([5.0, 1.0])
        sl = SliceInstance(net, 0, energy, arrivals)
        energy[0], arrivals[0] = 9, 9.0
        assert sl.energy.tolist() == [2, 0] and sl.arrivals.tolist() == [5.0, 1.0]
        for arr in (sl.energy, sl.arrivals, sl.rtt):
            assert not arr.flags.writeable
        # read-only inputs need no copy: slice_for's views share the game's memory
        game = GameInstance(network=net, arrivals=np.array([[20.0], [1.0]]), budgets=np.array([3, 4]))
        view = game.slice_for(0, np.array([2, 1]))
        assert np.shares_memory(view.arrivals, game.arrivals) and view.rtt is net.rtt

    def test_restrict_keeps_members_in_order(self):
        # a path 0 - 1 - 2 - 3 with a distinct round trip on every pair
        net = make_network(
            n_nodes=4, neighbors=(frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}))
        )
        rtt = np.outer(np.arange(1, 5), np.arange(1, 5)) / 100
        np.fill_diagonal(rtt, 0.0)
        net = NetworkSpec(services=net.services, nodes=net.nodes, neighbors=net.neighbors, rtt=rtt)
        game = GameInstance(
            network=net, arrivals=np.array([[1.0], [2.0], [3.0], [4.0]]), budgets=np.array([5, 6, 7, 8])
        )
        sub = game.restrict((3, 1, 2))  # as a numpy index, a tuple means one index per axis
        assert [nd.name for nd in sub.network.nodes] == ["n3", "n1", "n2"]
        assert sub.arrivals.tolist() == [[4.0], [2.0], [3.0]]
        assert sub.budgets.tolist() == [8, 6, 7]
        assert np.array_equal(sub.network.rtt, rtt[np.ix_([3, 1, 2], [3, 1, 2])])
        # node 1's link to node 0 crosses the cut and is dropped
        assert sub.network.neighbors == (frozenset({2}), frozenset({2}), frozenset({0, 1}))
        for arr in (sub.arrivals, sub.budgets, sub.network.rtt):
            assert not arr.flags.writeable


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
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_instance(game, first)
        loaded = load_instance(first)
        dump_instance(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.arrivals, game.arrivals)
        assert np.array_equal(loaded.budgets, game.budgets)
        assert loaded.network.neighbors == game.network.neighbors
        assert np.array_equal(loaded.network.rtt, game.network.rtt)
        assert loaded.network.services == game.network.services
        assert loaded.network.nodes == game.network.nodes

    def test_missing_header(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "untagged.json"
        dump_instance(game, path)
        doc = json.loads(path.read_text())
        del doc["format"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing key 'format'") as err:
            load_instance(path)
        assert str(err.value).startswith(str(path))

    def test_malformed_record_names_line(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "mangled.json"
        dump_instance(game, path)
        lines = path.read_text().splitlines()
        bad = lines.index('   "name": "image img",')
        lines[bad] = '   "name": image img,'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value).startswith(str(path))
        assert f"line {bad + 1} " in str(err.value)

    def test_solver_replay_from_file(self, tmp_path):
        game = self.build_game()
        path = tmp_path / "replay.json"
        dump_instance(game, path)
        original = solve_social_welfare(game).welfare
        replayed = solve_social_welfare(load_instance(path)).welfare
        assert replayed == original

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda doc: doc["arrivals"].pop(), id="arrival-rows"),
            pytest.param(lambda doc: doc["budgets"].__setitem__(0, -4), id="negative-budget"),
            pytest.param(lambda doc: doc["arrivals"][0].__setitem__(0, math.nan), id="nan-arrival"),
            pytest.param(lambda doc: doc["arrivals"][1].__setitem__(1, -1.0), id="negative-arrival"),
            pytest.param(lambda doc: doc["nodes"][0].__setitem__("colour", "red"), id="unknown-node-key"),
            pytest.param(lambda doc: doc["services"][0].pop("reward"), id="missing-service-key"),
            pytest.param(lambda doc: doc.__setitem__("format", "fogslice-instance 1"), id="wrong-format"),
            pytest.param(lambda doc: doc["neighbors"][0].__setitem__(0, 1.0), id="float-neighbor"),
        ],
    )
    def test_malformed_instance_is_an_input_error(self, tmp_path, capsys, mangle):
        path = tmp_path / "bad.json"
        dump_instance(self.build_game(), path)
        doc = json.loads(path.read_text())
        mangle(doc)
        path.write_text(json.dumps(doc))
        assert cli.main(["oracle", "--instance", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")
