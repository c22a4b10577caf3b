"""Belief filtering, Dirichlet type learning, finite-horizon planning."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fogslice.belief import (
    TIE_TOL,
    FinitePomdp,
    ImpossibleObservation,
    TypeSpace,
    bellman_value,
    enumerate_profiles,
    pick_actions,
    select_action,
    type_profile_rewards,
    update_env_belief,
    update_type_belief,
)
from fogslice.oracles import value_iteration


def identity_obs(n_actions, n_states):
    return np.broadcast_to(np.eye(n_states), (n_actions, n_states, n_states)).copy()


def _stochastic(draw, shape):
    """Row-stochastic array with every entry positive."""
    weights = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))) + 1e-3
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def fully_observed_models(draw):
    s_n = draw(st.integers(1, 5))
    a_n = draw(st.integers(1, 5))
    return FinitePomdp(
        states=tuple(range(s_n)),
        actions=tuple(range(a_n)),
        observations=tuple(range(s_n)),
        transition=_stochastic(draw, (a_n, s_n, s_n)),
        observation=identity_obs(a_n, s_n),
        reward=draw(hnp.arrays(float, (s_n, a_n), elements=st.floats(-10.0, 10.0))),
        gamma=draw(st.floats(0.0, 0.99)),
    )


def two_state_mdp(gamma=0.9):
    """Fully observed 2-state/2-action model used against the VI oracle."""
    transition = np.array(
        [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.5, 0.5], [0.4, 0.6]],
        ]
    )
    reward = np.array([[1.0, 0.3], [0.0, 2.0]])
    return FinitePomdp(
        states=("low", "high"),
        actions=("hold", "push"),
        observations=("low", "high"),
        transition=transition,
        observation=identity_obs(2, 2),
        reward=reward,
        gamma=gamma,
    )


def save_or_spend_model():
    """Two-slot battery toy: saving a unit now unlocks a 3x reward next slot."""
    states = ("start", "saved", "spent", "done")
    # spend: start -> spent; save: start -> saved; phase 2 always ends
    t_spend = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    t_save = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    reward = np.array(
        [
            [1.0, 0.0],  # start: spending now earns 1
            [3.0, 0.0],  # saved battery earns 3 when spent
            [1.0, 0.0],  # without savings the second slot earns 1 again
            [0.0, 0.0],
        ]
    )
    return FinitePomdp(
        states=states,
        actions=("spend", "save"),
        observations=states,
        transition=np.stack([t_spend, t_save]),
        observation=identity_obs(2, 4),
        reward=reward,
        gamma=0.9,
    )


class TestFinitePomdp:
    def test_leaves_caller_arrays_writable(self):
        t, th = np.array([[[0.9, 0.1], [0.2, 0.8]]]), identity_obs(1, 2)
        r = np.array([[1.0], [0.0]])
        model = FinitePomdp(
            states=("a", "b"),
            actions=("go",),
            observations=("a", "b"),
            transition=t,
            observation=th,
            reward=r,
        )
        t[0, 0, 0], th[0, 0, 0], r[0, 0] = 0.5, 0.5, 9.0  # the model froze copies
        assert model.transition[0, 0].tolist() == [0.9, 0.1]
        assert model.observation[0, 0].tolist() == [1.0, 0.0]
        assert model.reward.tolist() == [[1.0], [0.0]]
        for arr in (model.transition, model.observation, model.reward):
            assert not arr.flags.writeable


class TestEnvBelief:
    def test_deterministic_point_mass(self):
        model = FinitePomdp(
            states=("a", "b"),
            actions=("go",),
            observations=("a", "b"),
            transition=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
            observation=identity_obs(1, 2),
            reward=np.zeros((2, 1)),
        )
        posterior = update_env_belief(model, np.array([1.0, 0.0]), 0, 1)
        assert posterior == pytest.approx([0.0, 1.0])

    def test_bayes_by_hand(self):
        # identity transition, likelihoods (0.9, 0.1) for the seen symbol
        model = FinitePomdp(
            states=("a", "b"),
            actions=("look",),
            observations=("hot", "cold"),
            transition=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
            observation=np.array([[[0.9, 0.1], [0.1, 0.9]]]),
            reward=np.zeros((2, 1)),
        )
        posterior = update_env_belief(model, np.array([0.5, 0.5]), 0, 0)
        assert posterior == pytest.approx([0.9, 0.1], abs=1e-12)

    def test_stationary_prior_uninformative_obs_fixed_point(self):
        transition = np.array([[[0.7, 0.3], [0.6, 0.4]]])
        model = FinitePomdp(
            states=("a", "b"),
            actions=("wait",),
            observations=("tick",),
            transition=transition,
            observation=np.ones((1, 2, 1)),
            reward=np.zeros((2, 1)),
        )
        # stationary vector of the single action's chain
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])
        assert pi @ transition[0] == pytest.approx(pi)
        posterior = update_env_belief(model, pi, 0, 0)
        assert posterior == pytest.approx(pi, abs=1e-12)

    def test_impossible_observation_raises(self):
        model = FinitePomdp(
            states=("a", "b"),
            actions=("look",),
            observations=("hot", "cold"),
            transition=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
            observation=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
            reward=np.zeros((2, 1)),
        )
        with pytest.raises(ImpossibleObservation):
            update_env_belief(model, np.array([0.5, 0.5]), 0, 1)

    def test_normalization_along_filtered_trajectory(self):
        rng = np.random.default_rng(31)
        model = FinitePomdp(
            states=("a", "b"),
            actions=("wait",),
            observations=("x", "y"),
            transition=np.array([[[0.8, 0.2], [0.3, 0.7]]]),
            observation=np.array([[[0.85, 0.15], [0.2, 0.8]]]),
            reward=np.zeros((2, 1)),
        )
        belief = np.array([0.5, 0.5])
        state = 0
        for _ in range(500):
            state = int(rng.random() < model.transition[0, state, 1])
            obs = int(rng.random() < model.observation[0, state, 1])
            belief = update_env_belief(model, belief, 0, obs)
            assert abs(belief.sum() - 1.0) < 1e-9

    def test_filter_beats_frozen_prior(self):
        rng = np.random.default_rng(404)
        model = FinitePomdp(
            states=("a", "b"),
            actions=("wait",),
            observations=("x", "y"),
            transition=np.array([[[0.8, 0.2], [0.3, 0.7]]]),
            observation=np.array([[[0.85, 0.15], [0.2, 0.8]]]),
            reward=np.zeros((2, 1)),
        )
        prior = np.array([0.6, 0.4])  # stationary of the chain
        belief = prior.copy()
        filtered_mass, frozen_mass = [], []
        state = 0
        for _ in range(600):
            state = int(rng.random() < model.transition[0, state, 1])
            obs = int(rng.random() < model.observation[0, state, 1])
            belief = update_env_belief(model, belief, 0, obs)
            filtered_mass.append(belief[state])
            frozen_mass.append(prior[state])
        assert np.mean(filtered_mass) > np.mean(frozen_mass) + 0.05


class TestTypeBelief:
    def test_single_conjugate_update(self):
        counts = np.ones((1, 2))
        counts = update_type_belief(counts, 0, 0)
        mean = counts / counts.sum()
        assert np.allclose(mean, [[2.0 / 3.0, 1.0 / 3.0]])

    def test_no_observations_prior_mean(self):
        # unit reward under the second type reads back that type's mean
        slabs = np.array([[[0.0]], [[1.0]]])
        mean = type_profile_rewards(slabs, enumerate_profiles(1, 2), np.array([[2.0, 6.0]]))
        assert mean[0, 0] == pytest.approx(0.75)

    def test_many_observations_converge(self):
        rng = np.random.default_rng(8)
        truth = np.array([0.5, 0.3, 0.2])
        counts = np.ones((1, 3))
        draws = rng.choice(3, size=10_000, p=truth)
        for t in draws:
            counts = update_type_belief(counts, 0, int(t))
        mean = counts[0] / counts[0].sum()
        assert 0.5 * np.abs(mean - truth).sum() < 0.02

    def test_classify_ties_to_lower_index(self):
        space = TypeSpace.default()
        assert space.spare_units == (0, 1, 3)
        assert space.classify(2.0) == 1
        assert space.classify(0.5) == 0
        assert space.classify(10.0) == 2

    def test_type_space_validation(self):
        with pytest.raises(ValueError):
            TypeSpace(labels=("a",), spare_units=(1, 2))
        with pytest.raises(ValueError):
            TypeSpace(labels=("a", "b"), spare_units=(2, 1))


class TestExpectedReward:
    def test_profile_mixture_is_arithmetic_mean(self):
        # two deterministic worlds produced by the game solver: a helper
        # with 2 spare units vs none at all
        from conftest import make_node, make_service, make_slice
        from fogslice.game import solve_offload

        svc = make_service(deadline=0.1, unit_rate=10.0)
        rewards = []
        for helper_units in (2, 0):
            inst = make_slice(
                service=svc,
                nodes=(make_node(), make_node()),
                energy=np.array([1, helper_units]),
                arrivals=np.array([30.0, 0.0]),
                neighbors=(frozenset({1}), frozenset({0})),
                rtt=np.array([[0.0, 0.02], [0.02, 0.0]]),
            )
            rewards.append(solve_offload(inst).welfare)
        assert rewards[0] > rewards[1]

        profiles = enumerate_profiles(1, 2)
        slabs = np.array([[[rewards[0]]], [[rewards[1]]]])
        mixed = type_profile_rewards(slabs, profiles, np.array([[1.0, 1.0]]))
        assert mixed[0, 0] == pytest.approx(0.5 * (rewards[0] + rewards[1]))


class TestBellman:
    def test_gamma_zero_is_myopic(self):
        model = two_state_mdp(gamma=0.0)
        belief = np.array([0.5, 0.5])
        myopic = bellman_value(model, belief, 0)
        for depth in (1, 3, 7):
            assert bellman_value(model, belief, depth) == pytest.approx(myopic, abs=1e-12)

    def test_matches_value_iteration(self):
        model = two_state_mdp()
        vi = value_iteration(model.transition, model.reward, model.gamma, depth=50)
        cache = {}
        for s in range(2):
            ours = bellman_value(model, np.eye(2)[s], 50, cache=cache)
            assert ours == pytest.approx(vi[s], abs=1e-6)

    def test_nondecreasing_in_depth(self):
        model = two_state_mdp()
        belief = np.array([0.3, 0.7])
        values = [bellman_value(model, belief, d) for d in range(8)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_cache_shared_across_calls(self):
        model = two_state_mdp()
        cache = {}
        first = bellman_value(model, np.eye(2)[0], 12, cache=cache)
        assert len(cache) > 0
        again = bellman_value(model, np.eye(2)[0], 12, cache=cache)
        assert again == first


class TestSelectAction:
    def test_single_action_model(self):
        model = FinitePomdp(
            states=("s",),
            actions=("only",),
            observations=("o",),
            transition=np.ones((1, 1, 1)),
            observation=np.ones((1, 1, 1)),
            reward=np.array([[4.0]]),
        )
        assert select_action(model, np.array([1.0]), 3) == 0

    def test_depth_separates_saver_from_spender(self):
        model = save_or_spend_model()
        start = np.eye(4)[0]
        assert select_action(model, start, 0) == 0  # myopic agent spends
        assert select_action(model, start, 1) == 1  # lookahead saves
        assert select_action(model, start, 2) == 1

    def test_reward_scaling_leaves_argmax(self):
        base = save_or_spend_model()
        scaled = FinitePomdp(
            states=base.states,
            actions=base.actions,
            observations=base.observations,
            transition=base.transition,
            observation=base.observation,
            reward=base.reward * 37.5,
            gamma=base.gamma,
        )
        start = np.eye(4)[0]
        for depth in (0, 1, 2):
            assert select_action(base, start, depth) == select_action(scaled, start, depth)

    def test_cost_breaks_ties(self):
        # both actions are worthless; the cheaper one wins
        model = FinitePomdp(
            states=("s",),
            actions=("expensive", "cheap"),
            observations=("o",),
            transition=np.ones((2, 1, 1)),
            observation=np.ones((2, 1, 1)),
            reward=np.zeros((1, 2)),
        )
        picked = select_action(model, np.array([1.0]), 2, action_costs=np.array([5.0, 1.0]))
        assert picked == 1


def loop_pick(q_row, costs):
    """The tie rule one candidate at a time: best value, then cheapest cost, then lowest index."""
    best = q_row.max()
    candidates = [a for a in range(len(q_row)) if q_row[a] >= best - TIE_TOL]
    if costs is not None:
        cheapest = min(costs[a] for a in candidates)
        candidates = [a for a in candidates if costs[a] <= cheapest + TIE_TOL]
    return candidates[0]


# gaps that plant exact ties, ties within TIE_TOL, one on its edge and near misses
GAPS = st.sampled_from([0.0, 0.0, 0.25 * TIE_TOL, TIE_TOL, 1.5 * TIE_TOL, 3 * TIE_TOL])


@st.composite
def tied_tables(draw):
    """An (S, A) table whose rows hold planted ties, and costs that tie too or None."""
    s_n, a_n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    q = draw(hnp.arrays(float, (s_n, a_n), elements=st.floats(-10.0, 10.0)))
    for s in range(s_n):
        for a in range(a_n):
            if draw(st.booleans()):
                q[s, a] = q[s].max() - draw(GAPS)
    if draw(st.booleans()):
        return q, None
    costs = [draw(st.sampled_from([-2.0, 0.0, 1.0])) + draw(GAPS) for _ in range(a_n)]
    return q, np.array(costs)


EDGES = np.array([[1.0, 1.0 - 0.5 * TIE_TOL, 1.0 - 3 * TIE_TOL], [0.0, 2.0, 2.0]])


class TestPickActions:
    @settings(deadline=None, max_examples=300)
    @given(table=tied_tables())
    # a near tie that is cheaper, and a miss below TIE_TOL that is cheaper still
    @example(table=(EDGES, np.array([1.0, 0.0, -1.0])))
    @example(table=(EDGES, np.array([0.0, 0.5 * TIE_TOL, 0.0])))
    def test_matches_the_candidate_loop(self, table):
        q, costs = table
        expected = [loop_pick(row, costs) for row in q]
        assert pick_actions(q, costs).tolist() == expected
        assert [int(pick_actions(row, costs)) for row in q] == expected


class TestPlannerProperties:
    @settings(deadline=None)
    @given(model=fully_observed_models(), depth=st.integers(0, 8))
    def test_point_beliefs_match_value_iteration(self, model, depth):
        vi = value_iteration(model.transition, model.reward, model.gamma, depth)
        for s in range(model.n_states):
            ours = bellman_value(model, np.eye(model.n_states)[s], depth)
            assert ours == pytest.approx(vi[s], rel=0, abs=1e-9)

    @settings(deadline=None)
    @given(model=fully_observed_models(), depth=st.integers(0, 8), data=st.data())
    def test_mixed_beliefs_match_value_iteration(self, model, depth, data):
        belief = _stochastic(data.draw, (model.n_states,))
        q = model.reward
        if depth > 0:
            v = value_iteration(model.transition, model.reward, model.gamma, depth - 1)
            q = q + model.gamma * np.einsum("ast,t->sa", model.transition, v)
        expected = float((belief @ q).max())
        assert bellman_value(model, belief, depth) == pytest.approx(expected, rel=0, abs=1e-9)

    @settings(deadline=None)
    @given(model=fully_observed_models(), depth=st.integers(0, 8), data=st.data())
    def test_partial_observations_rejected(self, model, depth, data):
        o_n = data.draw(st.integers(1, 5))
        observation = _stochastic(data.draw, (model.n_actions, model.n_states, o_n))
        assume(o_n > 1 or model.n_states > 1)  # a 1x1 stochastic tensor is the identity
        noisy = FinitePomdp(
            states=model.states,
            actions=model.actions,
            observations=tuple(range(o_n)),
            transition=model.transition,
            observation=observation,
            reward=model.reward,
            gamma=model.gamma,
        )
        belief = np.full(model.n_states, 1.0 / model.n_states)
        with pytest.raises(ValueError):
            bellman_value(noisy, belief, depth)
        with pytest.raises(ValueError):
            select_action(noisy, belief, depth)
