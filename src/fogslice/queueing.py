"""The M/M/1 slice arithmetic: capacity, response times, the closed-form optimum.

A node that activates p processing units for a service behaves as an M/M/1
server with service rate w*p for that service; response time of admitted
workload alpha*lam is 1/(w*p - alpha*lam).  Forwarded workload additionally
pays the round-trip time to its destination, weighted by the forwarded
fraction.  The solver's slice state and back-off checks, its energy trim,
the core check and the validator compute capacities and response times
here; the oracles re-derive response times on their own, on purpose.  Three
solver sites still re-derive the arithmetic in their own closed forms:
the water-fill's scalar delay (``game._waterfill``), the SLSQP deadline
rows (``game._joint_constraints``) and the isolated and demand candidates
(``game._isolated_candidate``, ``game._demand_candidate``).
"""

from __future__ import annotations

import numpy as np

SATURATION_TOL = 1e-9


class UnstableError(ValueError):
    """Offered load reaches or exceeds service capacity; queue diverges."""


class DegenerateArrival(ValueError):
    """Operation undefined for a zero arrival rate."""


def response_time_local(alpha: float, arrival_rate: float, service_rate: float) -> float:
    """Expected response time when a node serves alpha of its load locally.

    Args:
        alpha: Admitted fraction of the arriving workload, in [0, 1].
        arrival_rate: Workload arrival rate lam, requests/s.
        service_rate: Activated capacity w*p, requests/s.

    Returns:
        1 / (service_rate - alpha * arrival_rate), seconds.

    Raises:
        UnstableError: If the admitted load reaches capacity (within 1e-9).
    """
    if alpha < 0 or arrival_rate < 0:
        raise ValueError("alpha and arrival_rate must be >= 0")
    residual = service_rate - alpha * arrival_rate
    if residual <= SATURATION_TOL:
        raise UnstableError(
            f"load {alpha * arrival_rate:.6f} saturates capacity {service_rate:.6f}"
        )
    return 1.0 / residual


def capacity(unit_rate, energy, unit_energy):
    """Service rate of the whole processing units an energy commitment activates.

    w * floor(e / e_unit), requests/s; sub-unit remainders activate
    nothing.  Works elementwise on numpy arrays.
    """
    return unit_rate * (energy // unit_energy)


def response_times(
    alpha: np.ndarray, arrivals: np.ndarray, capacities: np.ndarray, rtt: np.ndarray
) -> np.ndarray:
    """Response time of every sender of one slice under forwarding.

    Each destination m serves the aggregate load sum_j alpha[j, m] * arrivals[j]
    from one queue; a sender's workload forwarded to m pays rtt[i, m] on top
    of the queueing delay, weighted by the forwarded fraction:

        pi_i = sum_m alpha[i, m] * (rtt[i, m] + 1 / (capacities[m] - load_m))

    Only entries with alpha[i, m] > 0 count.  A sender placing workload on a
    destination without residual capacity (within 1e-9) gets inf.

    A stack of matrices (..., n, n) gets one row of responses per matrix
    (..., n), each the bytes that matrix gets alone.

    Args:
        alpha: Offload fraction matrix (n x n), row per sender, or a stack.
        arrivals: Arrival rate per node (n,), requests/s.
        capacities: Activated capacity per node (n,), requests/s.
        rtt: Round-trip times (n x n), zero diagonal.
    """
    loads = np.swapaxes(alpha, -1, -2) @ arrivals
    residual = capacities - loads
    delay = np.full(residual.shape, np.inf)
    ok = residual > SATURATION_TOL
    delay[ok] = 1.0 / residual[ok]
    with np.errstate(invalid="ignore"):
        terms = alpha * (rtt + delay[..., None, :])
    terms[~(alpha > 0)] = 0.0
    return terms.sum(axis=-1)


def optimal_local_fraction(
    energy: float,
    unit_energy: int,
    unit_rate: float,
    arrival_rate: float,
    deadline: float,
) -> float:
    """Largest admissible local offload fraction for one node and service.

    The fraction solving response_time_local(alpha) == deadline, clamped to
    [0, 1]:

        alpha* = clamp(w * e / (lam * e_unit) - 1 / (deadline * lam), 0, 1)

    Capacity counts only fully activated processing units, w * floor(e / e_unit).

    Raises:
        DegenerateArrival: If arrival_rate is zero.
    """
    if arrival_rate == 0:
        raise DegenerateArrival("no workload: offload fraction undefined")
    if arrival_rate < 0 or energy < 0:
        raise ValueError("arrival_rate and energy must be >= 0")
    if deadline <= 0:
        raise ValueError("deadline must be > 0")
    cap = capacity(unit_rate, int(energy), int(unit_energy))
    alpha = cap / arrival_rate - 1.0 / (deadline * arrival_rate)
    return float(min(1.0, max(0.0, alpha)))
