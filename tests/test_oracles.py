"""Grid oracle against a hand-written enumeration, and its input guards."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from fogslice import oracles
from fogslice.game import FEAS_TOL, GameInstance, SliceInstance
from fogslice.oracles import OracleTooLarge, exhaustive_welfare, grid_slice_welfare

from conftest import make_network, make_node, make_service

MAX_NAIVE_POINTS = 4000


def naive_rows(inst, i, grid):
    """Every grid row sender i may send: fractions on allowed destinations summing to <= 1."""
    n = inst.n_nodes
    steps = round(1 / grid)
    dests = [m for m in range(n) if inst.allowed()[i, m]]
    rows = []
    for units in itertools.product(range(steps + 1), repeat=len(dests)):
        if sum(units) <= steps:
            row = [0.0] * n
            for m, u in zip(dests, units):
                row[m] = u * grid
            rows.append(row)
    return rows


def naive_welfare(inst, grid):
    """Best payoff over every offload matrix on the grid, each tested by hand.

    A matrix counts when every destination carrying load keeps more than
    FEAS_TOL spare capacity and every sender's response time, summed over
    the destinations it uses, is within the deadline.
    """
    n = inst.n_nodes
    caps = inst.capacities().astype(float)
    lam = inst.arrivals
    theta = inst.service.deadline
    senders = [i for i in range(n) if lam[i] > 0]
    best = 0.0
    for matrix in itertools.product(*(naive_rows(inst, i, grid) for i in senders)):
        loads = [0.0] * n
        served = 0.0
        for i, row in zip(senders, matrix):
            for m in range(n):
                loads[m] += row[m] * lam[i]
            served += sum(row) * lam[i]
        if any(loads[m] > FEAS_TOL and caps[m] - loads[m] <= FEAS_TOL for m in range(n)):
            continue
        on_time = all(
            sum(
                row[m] * (inst.rtt[i, m] + 1.0 / (caps[m] - loads[m]))
                for m in range(n)
                if row[m] > 0
            )
            <= theta + FEAS_TOL
            for i, row in zip(senders, matrix)
        )
        if on_time:
            best = max(best, inst.service.reward * served)
    return best


@st.composite
def small_slices(draw):
    n = draw(st.integers(1, 3))
    svc = make_service(
        deadline=draw(st.sampled_from([0.05, 0.1, 0.2])),
        reward=draw(st.sampled_from([0.5, 1.0, 3.0])),
        unit_rate=draw(st.sampled_from([10.0, 15.0, 20.0])),
    )
    return SliceInstance(
        service=svc,
        nodes=tuple(make_node() for _ in range(n)),
        energy=np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
        # one node in four offers no workload
        arrivals=np.array(
            [draw(st.floats(1.0, 60.0)) if draw(st.integers(0, 3)) else 0.0 for _ in range(n)]
        ),
        neighbors=tuple(
            frozenset(m for m in range(n) if m != i and draw(st.booleans())) for i in range(n)
        ),
        rtt=np.array(
            [[0.0 if i == m else draw(st.floats(0.0, 0.12)) for m in range(n)] for i in range(n)]
        ),
    )


class TestGridSliceWelfare:
    @settings(max_examples=150, deadline=None)
    @given(
        small_slices(),
        st.sampled_from([0.5, 0.25, 0.2]),
        st.sampled_from([3, 64, oracles.CHUNK_POINTS]),
    )
    def test_matches_naive_enumeration(self, inst, grid, chunk):
        senders = [i for i in range(inst.n_nodes) if inst.arrivals[i] > 0]
        points = math.prod(len(naive_rows(inst, i, grid)) for i in senders)
        assume(points <= MAX_NAIVE_POINTS)
        event(f"{len(senders)} senders, {'several chunks' if points > chunk else 'one chunk'}")
        # a small chunk makes one call span many chunks
        with mock.patch.object(oracles, "CHUNK_POINTS", chunk):
            welfare = grid_slice_welfare(inst, grid)
        assert welfare == naive_welfare(inst, grid)
        event("positive welfare" if welfare > 0 else "zero welfare")

    def test_too_large_raised_before_scoring(self):
        net = make_network(n_nodes=3)
        inst = GameInstance(
            network=net, arrivals=np.full((3, 1), 10.0), budgets=np.full(3, 4)
        ).slice_for(0, np.full(3, 4))
        points = math.prod(
            len(oracles._sender_rows(inst, i, inst.capacities().astype(float), 0.25))
            for i in range(3)
        )
        scored = mock.Mock(wraps=np.unravel_index)
        with mock.patch.object(oracles.np, "unravel_index", scored):
            with mock.patch.object(oracles, "MAX_GRID_POINTS", points - 1):
                with pytest.raises(OracleTooLarge, match=f"{points} grid points"):
                    grid_slice_welfare(inst, 0.25)
            assert scored.call_count == 0
            # at the bound the same call enumerates
            with mock.patch.object(oracles, "MAX_GRID_POINTS", points):
                assert grid_slice_welfare(inst, 0.25) > 0.0
            assert scored.call_count > 0

    @pytest.mark.parametrize("grid", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_invalid_grid_rejected(self, grid):
        inst = GameInstance(
            network=make_network(n_nodes=1, neighbors=(frozenset(),)),
            arrivals=np.array([[10.0]]),
            budgets=np.array([2]),
        )
        with pytest.raises(ValueError, match="grid"):
            grid_slice_welfare(inst.slice_for(0, np.array([2])), grid)
        with pytest.raises(ValueError, match="grid"):
            exhaustive_welfare(inst, grid)
