"""Brute-force reference results for desk-size instances.

Everything here re-derives an answer by enumeration or a textbook
iteration, sharing no machinery with the solvers it checks: offload
matrices are scored on an explicit fraction grid, welfare by enumerating
every integer energy vector, and policy values by finite-horizon value
iteration.  The grid oracle scores every matrix it enumerates, a
CHUNK_POINTS block at a time with numpy, and prunes nothing beyond
per-sender capacity; its cost grows with the product of the senders' row
counts, so keep instances small.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .game import FEAS_TOL, GameInstance, SliceInstance

MAX_GRID_POINTS = 60_000_000
CHUNK_POINTS = 1 << 14


class OracleTooLarge(ValueError):
    """The requested enumeration exceeds the safety bound."""


def _check_grid(grid: float) -> None:
    if not (math.isfinite(grid) and 0.0 < grid <= 1.0):
        raise ValueError(f"grid must be a finite fraction in (0, 1], got {grid!r}")


def _sender_rows(instance: SliceInstance, i: int, caps: np.ndarray, grid: float) -> np.ndarray:
    """All grid rows for sender i, pruned by per-destination capacity."""
    n = instance.n_nodes
    lam = float(instance.arrivals[i])
    if lam <= 0:
        return np.zeros((1, n))
    steps = int(round(1.0 / grid))
    dests = np.flatnonzero(instance.allowed()[i])
    units = [()]
    for m in dests:
        top = 0
        if caps[m] > FEAS_TOL:
            top = min(steps, max(int((caps[m] - FEAS_TOL) / (lam * grid)), 0))
        units = [u + (k,) for u in units for k in range(min(top, steps - sum(u)) + 1)]
    rows = np.zeros((len(units), n))
    rows[:, dests] = np.array(units, dtype=float).reshape(len(units), len(dests)) * grid
    return rows


def grid_slice_welfare(instance: SliceInstance, grid: float = 0.1) -> float:
    """Best slice payoff over all offload matrices on the fraction grid.

    Enumerates the cartesian product of per-sender rows, keeping only
    matrices where every used destination stays strictly stable and every
    sender meets the deadline: its response time, summed over the
    destinations it uses, is at most theta + FEAS_TOL (a sender using none
    scores 0).  Loads and served shares are added sender by sender, in
    sender order.  The empty matrix is always feasible, so the result is
    at least 0.
    """
    _check_grid(grid)
    n = instance.n_nodes
    caps = instance.capacities()
    lam = instance.arrivals
    theta = instance.service.deadline
    rho = instance.service.reward
    senders = [i for i in range(n) if lam[i] > 0]
    if not senders:
        return 0.0
    row_sets = [_sender_rows(instance, i, caps, grid) for i in senders]
    shape = tuple(len(rows) for rows in row_sets)
    total = math.prod(shape)
    if total > MAX_GRID_POINTS:
        raise OracleTooLarge(f"{total} grid points exceeds {MAX_GRID_POINTS}")
    # per sender: its grid rows as columns, so that a chunk holds one matrix
    # per column, and the workload each row serves
    columns = [rows.T.copy() for rows in row_sets]
    shares = [rows.sum(axis=1) * lam[i] for i, rows in zip(senders, row_sets)]

    best = 0.0
    for start in range(0, total, CHUNK_POINTS):
        picks = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, total)), shape)
        alphas = [np.take(cols, p, axis=1) for cols, p in zip(columns, picks)]
        loads = np.zeros(alphas[0].shape)
        served = np.zeros(len(picks[0]))
        for i, alpha, share, p in zip(senders, alphas, shares, picks):
            loads += alpha * lam[i]
            served += share[p]
        resid = caps[:, None] - loads
        ok = ~np.any((loads > FEAS_TOL) & (resid <= FEAS_TOL), axis=0)
        delay = np.where(resid > FEAS_TOL, 1.0 / np.maximum(resid, 1e-300), np.inf)
        for i, alpha in zip(senders, alphas):
            with np.errstate(invalid="ignore"):
                terms = alpha * (instance.rtt[i][:, None] + delay)
            ok &= np.where(alpha > 0, terms, 0.0).sum(axis=0) <= theta + FEAS_TOL
        if ok.any():
            best = max(best, rho * float(served[ok].max()))
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

    @functools.cache
    def best(k: int, remaining: tuple[int, ...]) -> float:
        if k == k_n:
            return 0.0
        totals = (
            welfare + best(k + 1, tuple(r - e for r, e in zip(remaining, vec)))
            for vec, welfare in tables[k].items()
            if all(e <= r for e, r in zip(vec, remaining))
        )
        return max(totals, default=-np.inf)

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

