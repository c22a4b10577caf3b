"""Brute-force reference results for desk-size instances.

Everything here re-derives an answer by enumeration or a textbook
iteration, sharing no machinery with the solvers it checks: offload
matrices are scored on an explicit fraction grid, welfare by enumerating
every integer energy vector, and policy values by finite-horizon value
iteration.  Slow on purpose; keep instances small.
"""

from __future__ import annotations

import itertools

import numpy as np

from .game import FEAS_TOL, GameInstance, SliceInstance

MAX_GRID_POINTS = 60_000_000


class OracleTooLarge(ValueError):
    """The requested enumeration exceeds the safety bound."""


def _sender_rows(instance: SliceInstance, i: int, caps: np.ndarray, grid: float) -> np.ndarray:
    """All grid rows for sender i, pruned by per-destination capacity."""
    n = instance.n_nodes
    lam = float(instance.arrivals[i])
    if lam <= 0:
        return np.zeros((1, n))
    steps = int(round(1.0 / grid))
    dests = list(np.flatnonzero(instance.allowed()[i]))
    tops = []
    for m in dests:
        if caps[m] <= FEAS_TOL:
            tops.append(0)
            continue
        top = int((caps[m] - FEAS_TOL) / (lam * grid))
        tops.append(min(steps, max(top, 0)))
    rows = []

    def rec(d, left, acc):
        if d == len(dests):
            row = np.zeros(n)
            for m, units in zip(dests, acc):
                row[m] = units * grid
            rows.append(row)
            return
        for units in range(min(tops[d], left) + 1):
            rec(d + 1, left - units, acc + [units])

    rec(0, steps, [])
    return np.array(rows)


def grid_slice_welfare(instance: SliceInstance, grid: float = 0.1) -> float:
    """Best slice payoff over all offload matrices on the fraction grid.

    Enumerates the cartesian product of per-sender rows, keeping only
    matrices where every used destination stays strictly stable and every
    active sender meets the deadline.  The empty matrix is always feasible,
    so the result is at least 0.
    """
    n = instance.n_nodes
    caps = instance.capacities().astype(float)
    lam = instance.arrivals.astype(float)
    theta = instance.service.deadline
    rho = instance.service.reward
    senders = [i for i in range(n) if lam[i] > 0]
    if not senders:
        return 0.0
    row_sets = [_sender_rows(instance, i, caps, grid) for i in senders]
    total = 1
    for rs in row_sets:
        total *= len(rs)
    if total > MAX_GRID_POINTS:
        raise OracleTooLarge(f"{total} grid points exceeds {MAX_GRID_POINTS}")

    last = senders[-1]
    last_rows = row_sets[-1]  # (R, n)
    last_served = last_rows.sum(axis=1) * lam[last]
    last_load = last_rows * lam[last]  # (R, n)
    tau_last = instance.rtt[last]

    best = 0.0
    for combo in itertools.product(*row_sets[:-1]):
        base = np.zeros(n)
        base_served = 0.0
        for i, row in zip(senders[:-1], combo):
            base += row * lam[i]
            base_served += row.sum() * lam[i]
        loads = base[None, :] + last_load  # (R, n)
        resid = caps[None, :] - loads
        used = loads > FEAS_TOL
        stable = ~np.any(used & (resid <= FEAS_TOL), axis=1)
        if not stable.any():
            continue
        delay = np.where(resid > FEAS_TOL, 1.0 / np.maximum(resid, 1e-300), np.inf)
        ok = stable.copy()
        for i, row in zip(senders[:-1], combo):
            active = row > 0
            if not active.any():
                continue
            pi = (row[active] * (instance.rtt[i, active] + delay[:, active])).sum(axis=1)
            ok &= pi <= theta + FEAS_TOL
        active_last = last_rows > 0
        with np.errstate(invalid="ignore"):
            pi_last = np.sum(
                last_rows * (tau_last[None, :] + delay), axis=1, where=active_last
            )
        ok &= np.where(active_last.any(axis=1), pi_last <= theta + FEAS_TOL, True)
        if not ok.any():
            continue
        obj = np.where(ok, base_served + last_served, -np.inf)
        r = int(np.argmax(obj))
        if rho * obj[r] > best:
            best = rho * float(obj[r])
    return best


def exhaustive_welfare(game: GameInstance, grid: float = 0.1) -> float:
    """Best total slot payoff over every integer energy vector and grid offload.

    Services decouple once energy vectors are fixed; the joint optimum is
    assembled by searching vector combinations under the node budgets.
    """
    net = game.network
    n, k_n = net.n_nodes, net.n_services
    budgets = tuple(int(b) for b in game.budgets)
    tables = []
    for k in range(k_n):
        cap_e = [
            min(budgets[i], net.nodes[i].max_units * net.nodes[i].unit_energy)
            for i in range(n)
        ]
        table = {}
        for vec in itertools.product(*(range(c + 1) for c in cap_e)):
            table[vec] = grid_slice_welfare(game.slice_for(k, np.array(vec)), grid)
        tables.append(table)

    memo: dict[tuple[int, tuple[int, ...]], float] = {}

    def best(k, remaining):
        if k == k_n:
            return 0.0
        key = (k, remaining)
        if key in memo:
            return memo[key]
        out = -np.inf
        for vec, welfare in tables[k].items():
            if any(e > r for e, r in zip(vec, remaining)):
                continue
            out = max(out, welfare + best(k + 1, tuple(r - e for r, e in zip(remaining, vec))))
        memo[key] = out
        return out

    return float(best(0, budgets))


def value_iteration(
    transitions: np.ndarray, rewards: np.ndarray, gamma: float, depth: int
) -> np.ndarray:
    """Finite-horizon optimal values V_d(s) for an explicit MDP.

    transitions: (A, S, S) row-stochastic per action; rewards: (S, A).
    V_0(s) = max_a r(s, a); V_d adds one more discounted lookahead step.
    """
    transitions = np.asarray(transitions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    a_n, s_n, s_n2 = transitions.shape
    if s_n != s_n2 or rewards.shape != (s_n, a_n):
        raise ValueError("transitions must be (A,S,S) and rewards (S,A)")
    v = rewards.max(axis=1)
    for _ in range(depth):
        q = rewards + gamma * np.einsum("ast,t->sa", transitions, v)
        v = q.max(axis=1)
    return v

