"""Markov environment: chains, battery recursion, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogslice.env import (
    CausalityViolation,
    EnvironmentSpec,
    EnvState,
    MarkovChainSpec,
    battery_step,
    bursty_arrivals,
    sample_step,
    _draw,
    uniform_harvest,
)


def single_node_env(harvest=None, arrivals=None, cap=100, backlogged=False):
    if harvest is None:
        harvest = MarkovChainSpec.constant(5.0)
    if arrivals is None:
        arrivals = MarkovChainSpec.constant(20.0)
    return EnvironmentSpec(
        harvest=(harvest,),
        arrivals=((arrivals,),),
        battery_cap=(cap,),
        backlogged=backlogged,
    )


class TestChains:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            MarkovChainSpec(levels=(1.0, 2.0), transition=np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            MarkovChainSpec(levels=(1.0, 2.0), transition=np.array([[1.1, -0.1], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="must be >= 0"):
            MarkovChainSpec(levels=(1.0, 2.0), transition=np.array([[np.nan, np.nan], [0.5, 0.5]]))

    def test_caller_matrix_stays_writable(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        chain = MarkovChainSpec((1.0, 2.0), m)
        m[0, 0] = 0.4  # the chain froze a copy, not the caller's matrix
        assert chain.transition[0, 0] == 0.5
        assert not chain.transition.flags.writeable

    @pytest.mark.parametrize(
        "harvest, arrivals",
        [
            (MarkovChainSpec.constant(-1.0), None),
            (None, MarkovChainSpec(levels=(5.0, -0.5), transition=np.eye(2))),
            (None, MarkovChainSpec.constant(float("nan"))),
        ],
        ids=["negative-harvest", "negative-arrival", "nan-arrival"],
    )
    def test_environment_rejects_negative_levels(self, harvest, arrivals):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            single_node_env(harvest=harvest, arrivals=arrivals)

    def test_stationary_of_two_state_chain(self):
        chain = MarkovChainSpec(
            levels=(0.0, 1.0), transition=np.array([[0.9, 0.1], [0.3, 0.7]])
        )
        pi = chain.stationary()
        # balance: pi0 * 0.1 = pi1 * 0.3
        assert pi == pytest.approx([0.75, 0.25], abs=1e-9)
        assert pi @ chain.transition == pytest.approx(pi, abs=1e-9)

    def test_uniform_harvest_preset(self):
        chain = uniform_harvest(4)
        assert list(chain.levels) == [0, 1, 2, 3, 4]
        assert np.allclose(chain.transition, 0.2)

    def test_factories_share_one_chain_per_parameter_set(self):
        assert uniform_harvest(3) is uniform_harvest(3)
        assert bursty_arrivals(2.0, 20.0, 0.7) is bursty_arrivals(2.0, 20.0, 0.7)
        assert MarkovChainSpec.constant(5.0) is MarkovChainSpec.constant(5.0)
        assert uniform_harvest(3) is not uniform_harvest(4)

    def test_bursty_preset_persists(self):
        chain = bursty_arrivals(10.0, 50.0, 0.8)
        assert list(chain.levels) == [10.0, 50.0]
        assert chain.transition[0, 0] == pytest.approx(0.8)
        assert chain.transition[1, 1] == pytest.approx(0.8)


class TestBatteryStep:
    def test_plain_update(self):
        assert battery_step(50, 30, 20, 100) == 60

    def test_cap_binds(self):
        assert battery_step(90, 30, 0, 100) == 100

    def test_overdraw_rejected(self):
        with pytest.raises(CausalityViolation):
            battery_step(10, 0, 20, 100)

    def test_spend_everything(self):
        assert battery_step(10, 0, 10, 100) == 0


class FixedDraw:
    """A generator stand-in whose ``random()`` returns one chosen value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# rows whose running sum ends just below 1.0: ten tenths sum to 0.9999999999999999
SHORT_ROWS = [[0.1] * 10, [0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]]


@st.composite
def draw_cases(draw):
    """A stochastic row and a draw in [0, 1), often just below 1 or at a running sum."""
    row = draw(st.sampled_from(SHORT_ROWS)) if draw(st.booleans()) else None
    if row is None:
        raw = draw(hnp.arrays(float, st.integers(1, 6), elements=st.floats(0.0, 1.0)))
        if raw.sum() == 0.0:
            raw[-1] = 1.0
        row = list(raw / raw.sum())
    cum = np.cumsum(row)
    u = draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.just(float(np.nextafter(1.0, 0.0))),
            st.sampled_from([float(c) for c in cum if c < 1.0] or [0.0]),
        )
    )
    return row, u


class TestDraw:
    @settings(max_examples=400, deadline=None)
    @given(draw_cases())
    def test_bisection_matches_searchsorted(self, case):
        row, u = case
        n = len(row)
        chain = MarkovChainSpec(levels=tuple(range(n)), transition=np.array([row] * n))
        expect = min(int(np.searchsorted(np.cumsum(row), u, side="right")), n - 1)
        assert _draw(chain.cumulative[0], FixedDraw(u)) == expect

    def test_short_row_clamps_to_the_last_state(self):
        chain = MarkovChainSpec(levels=tuple(range(10)), transition=np.full((10, 10), 0.1))
        u = float(np.nextafter(1.0, 0.0))
        assert chain.cumulative[0][-1] <= u  # no running sum lies above the draw
        assert _draw(chain.cumulative[3], FixedDraw(u)) == 9

    def test_cumulative_rows_are_python_floats_of_cumsum(self):
        transition = np.array([[0.85, 0.15, 0.0], [0.2, 0.6, 0.2], [0.05, 0.35, 0.6]])
        chain = MarkovChainSpec(levels=(0.0, 1.0, 2.0), transition=transition)
        for row, cum in zip(transition, chain.cumulative):
            assert all(type(c) is float for c in cum)
            assert np.array(cum).tobytes() == np.cumsum(row).tobytes()


class TestSampleStep:
    def test_deterministic_chain_unique_successor(self, rng):
        chain = MarkovChainSpec(levels=(2.0, 3.0), transition=np.eye(2))
        env = single_node_env(harvest=chain, arrivals=chain, cap=50)
        state = EnvState(harvest_idx=(1,), arrival_idx=((0,),), battery=(10,))
        nxt = sample_step(env, state, np.array([4]), rng)
        assert nxt == EnvState(harvest_idx=(1,), arrival_idx=((0,),), battery=(9,))

    def test_same_seed_same_trajectory(self):
        harvest = uniform_harvest(3)
        arr = bursty_arrivals(5.0, 25.0, 0.7)
        env = single_node_env(harvest=harvest, arrivals=arr, cap=30)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            state = env.initial_state([10])
            path = [state]
            for _ in range(200):
                state = sample_step(env, state, np.array([0]), rng)
                path.append(state)
            runs.append(path)
        assert runs[0] == runs[1]

    def test_battery_stays_in_bounds(self, rng):
        env = single_node_env(harvest=uniform_harvest(6), cap=12)
        state = env.initial_state([5])
        for _ in range(2000):
            spend = int(rng.integers(0, state.battery[0] + 1))
            state = sample_step(env, state, np.array([spend]), rng)
            assert 0 <= state.battery[0] <= 12

    def test_empirical_matches_transition_prob(self):
        rng = np.random.default_rng(4242)
        harvest = MarkovChainSpec(
            levels=(0.0, 2.0, 5.0),
            transition=np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]),
        )
        env = single_node_env(harvest=harvest, cap=10**9)
        state = EnvState(harvest_idx=(1,), arrival_idx=((0,),), battery=(0,))
        draws = 30_000
        counts = np.zeros(3)
        for _ in range(draws):
            nxt = sample_step(env, state, np.array([0]), rng)
            counts[nxt.harvest_idx[0]] += 1
        freq = counts / draws
        expect = harvest.transition[1]
        sigma = np.sqrt(expect * (1 - expect) / draws)
        assert np.all(np.abs(freq - expect) <= 3 * sigma)

    def test_chapman_kolmogorov_horizon_two(self):
        rng = np.random.default_rng(515151)
        t1 = np.array([[0.7, 0.3], [0.4, 0.6]])
        harvest = MarkovChainSpec(levels=(0.0, 2.0), transition=t1)
        env = single_node_env(harvest=harvest, cap=10**9)
        draws = 30_000
        counts = np.zeros(2)
        for _ in range(draws):
            state = EnvState(harvest_idx=(0,), arrival_idx=((0,),), battery=(0,))
            state = sample_step(env, state, np.array([0]), rng)
            state = sample_step(env, state, np.array([0]), rng)
            counts[state.harvest_idx[0]] += 1
        freq = counts / draws
        expect = (t1 @ t1)[0]
        sigma = np.sqrt(expect * (1 - expect) / draws)
        assert np.all(np.abs(freq - expect) <= 3 * sigma)

    def test_stationary_convergence(self):
        rng = np.random.default_rng(77)
        transition = np.array([[0.85, 0.15, 0.0], [0.2, 0.6, 0.2], [0.05, 0.35, 0.6]])
        chain = MarkovChainSpec(levels=(0.0, 1.0, 2.0), transition=transition)
        env = single_node_env(harvest=chain, cap=10**9)
        state = env.initial_state([0])
        burn, steps = 2000, 100_000
        counts = np.zeros(3)
        for t in range(burn + steps):
            state = sample_step(env, state, np.array([0]), rng)
            if t >= burn:
                counts[state.harvest_idx[0]] += 1
        freq = counts / steps
        tv = 0.5 * np.abs(freq - chain.stationary()).sum()
        assert tv < 0.02
