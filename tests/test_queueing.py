"""M/M/1 response times and the closed-form local offload fraction."""

import numpy as np
import pytest

from fogslice.queueing import (
    DegenerateArrival,
    UnstableError,
    optimal_local_fraction,
    response_time_local,
    response_times,
)


class TestLocal:
    def test_loaded_queue(self):
        assert response_time_local(1.0, 40.0, 50.0) == pytest.approx(0.100, abs=1e-12)

    def test_empty_queue_pure_service_time(self):
        assert response_time_local(0.0, 40.0, 50.0) == pytest.approx(0.020, abs=1e-12)

    def test_saturation_boundary(self):
        with pytest.raises(UnstableError):
            response_time_local(1.0, 50.0, 50.0)

    def test_oversaturated(self):
        with pytest.raises(UnstableError):
            response_time_local(0.9, 100.0, 50.0)


class TestForwarding:
    def test_identity_collapses_to_local(self):
        alpha = np.eye(2)
        arrivals = np.array([30.0, 20.0])
        caps = np.array([40.0, 40.0])
        rtt = np.array([[0.0, 0.02], [0.02, 0.0]])
        fwd = response_times(alpha, arrivals, caps, rtt)
        for i in range(2):
            loc = response_time_local(1.0, arrivals[i], caps[i])
            assert fwd[i] == pytest.approx(loc, abs=1e-12)

    def test_split_between_self_and_idle_neighbor(self):
        alpha = np.array([[0.5, 0.5], [0.0, 0.0]])
        arrivals = np.array([40.0, 0.0])
        caps = np.array([30.0, 40.0])
        rtt = np.array([[0.0, 0.02], [0.02, 0.0]])
        pi = response_times(alpha, arrivals, caps, rtt)[0]
        # 0.5/(30-20) + 0.5*(0.02 + 1/(40-20))
        assert pi == pytest.approx(0.085, abs=1e-12)

    def test_pure_cross_forwarding(self):
        alpha = np.array([[0.0, 1.0], [0.0, 0.0]])
        arrivals = np.array([40.0, 0.0])
        caps = np.array([1.0, 50.0])
        rtt = np.array([[0.0, 0.02], [0.02, 0.0]])
        pi = response_times(alpha, arrivals, caps, rtt)[0]
        assert pi == pytest.approx(0.120, abs=1e-12)

    def test_monotone_in_alpha_and_arrivals(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 4))
            arrivals = rng.uniform(5.0, 25.0, n)
            caps = rng.uniform(90.0, 150.0, n)
            rtt = np.full((n, n), 0.02)
            np.fill_diagonal(rtt, 0.0)
            alpha = rng.uniform(0.0, 1.0, (n, n))
            alpha /= alpha.sum(axis=1, keepdims=True) * rng.uniform(1.0, 2.0)
            i = int(rng.integers(n))
            m = int(rng.integers(n))
            base = response_times(alpha, arrivals, caps, rtt)[i]

            bumped = alpha.copy()
            bumped[i, m] = min(1.0, bumped[i, m] + 0.02)
            up = response_times(bumped, arrivals, caps, rtt)[i]
            assert up >= base - 1e-12

            heavier = arrivals.copy()
            heavier[int(rng.integers(n))] += 1.0
            up = response_times(alpha, heavier, caps, rtt)[i]
            assert up >= base - 1e-12

            richer = caps.copy()
            richer += 5.0
            down = response_times(alpha, arrivals, richer, rtt)[i]
            assert down < base


class TestResponseKernel:
    def test_inf_only_for_senders_on_a_saturated_destination(self):
        # destination 1 carries 40 + 30 against capacity 60
        alpha = np.array([[0.2, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        arrivals = np.array([50.0, 30.0, 10.0])
        caps = np.array([40.0, 60.0, 40.0])
        rtt = np.full((3, 3), 0.02)
        np.fill_diagonal(rtt, 0.0)
        pis = response_times(alpha, arrivals, caps, rtt)
        assert np.isinf(pis[0]) and np.isinf(pis[1])
        assert pis[2] == pytest.approx(1.0 / 30.0, abs=1e-15)

    def test_idle_sender_and_idle_saturated_destination_cost_nothing(self):
        alpha = np.array([[1.0, 0.0], [0.0, 0.0]])
        pis = response_times(alpha, np.array([10.0, 5.0]), np.array([30.0, 0.0]), np.zeros((2, 2)))
        assert pis.tolist() == [0.05, 0.0]


class TestOptimalLocalFraction:
    def test_interior_solution_meets_deadline_exactly(self):
        frac = optimal_local_fraction(10, 2, 10.0, 100.0, 0.05)
        assert frac == pytest.approx(0.300, abs=1e-12)
        assert response_time_local(frac, 100.0, 50.0) == pytest.approx(0.05, abs=1e-12)

    def test_clamped_to_one(self):
        assert optimal_local_fraction(20, 1, 10.0, 50.0, 0.1) == 1.0

    def test_clamped_to_zero_when_capacity_below_deadline_rate(self):
        # w*p = 5 but meeting the deadline needs residual 1/theta = 10
        assert optimal_local_fraction(1, 1, 5.0, 50.0, 0.1) == 0.0

    def test_zero_arrivals_rejected(self):
        with pytest.raises(DegenerateArrival):
            optimal_local_fraction(10, 1, 10.0, 0.0, 0.1)

    def test_whole_unit_activation(self):
        # 3 energy at 2 per unit activates 1 unit, not 1.5
        whole = optimal_local_fraction(3, 2, 10.0, 20.0, 0.25)
        assert whole == pytest.approx(0.30, abs=1e-12)

    def test_agrees_with_bisection(self, rng):
        hits = 0
        for _ in range(300):
            units = int(rng.integers(1, 12))
            unit_energy = int(rng.integers(1, 3))
            w = rng.uniform(5.0, 40.0)
            lam = rng.uniform(20.0, 120.0)
            theta = rng.uniform(0.02, 0.2)
            frac = optimal_local_fraction(units * unit_energy, unit_energy, w, lam, theta)
            if frac in (0.0, 1.0):
                continue
            cap = w * units
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                try:
                    over = response_time_local(mid, lam, cap) > theta
                except UnstableError:
                    over = True
                if over:
                    hi = mid
                else:
                    lo = mid
            assert frac == pytest.approx(lo, abs=1e-9)
            hits += 1
        assert hits > 50  # the draw ranges must actually hit interior cases
