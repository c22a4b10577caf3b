"""Inputs, ops and output checks of the three benchmark workloads.

Every input is generated here from the workload seed; the program only
sees the finished configs and game instances.  The game-audit instance
builders are copies of the acceptance-suite builders (criteria 2 and 3),
kept here so that an edit to the tests cannot change what is measured.

Program code is always reached through module attributes (``game.solve_...``)
at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

import numpy as np

from fogslice import engine, game, model, oracles

REL_TOL = 1e-3


# --------------------------------------------------------------- engine inputs


def scarcity_config(seed: int, policy: str) -> dict:
    """Criterion-8 config: 1 node, a cheap steady and a valuable bursty service."""
    return {
        "seed": seed,
        "slots": 100,
        "services": [
            {"name": "bulk", "deadline": 0.1, "reward": 1.0, "unit_rate": 10.0},
            {"name": "burst", "deadline": 0.1, "reward": 4.0, "unit_rate": 10.0},
        ],
        "defaults": {"node": {"max_units": 6, "unit_energy": 1, "battery_cap": 6}},
        "nodes": [
            {
                "position": [0.0, 0.0],
                "battery_init": 2,
                "harvest": {"kind": "constant", "value": 2},
                "arrivals": [
                    {"kind": "constant", "value": 30.0},
                    {
                        "kind": "levels",
                        "levels": [0.0, 30.0],
                        "transition": [[0.6, 0.4], [0.5, 0.5]],
                    },
                ],
            }
        ],
        "topology": {
            "rule": "radius",
            "radius": 100.0,
            "rtt": {"kind": "constant", "tau0": 0.02},
        },
        "policy": {"kind": policy, "depth": 2, "gamma": 0.9},
        "solver": {},
    }


URBAN_SLOTS = 4
URBAN_BLOCK = 2


def urban80_config(seed: int) -> dict:
    """80 synthetic urban nodes on a 1000 m disk; node positions fixed by seed 3."""
    return {
        "seed": seed,
        "slots": URBAN_SLOTS,
        "defaults": {
            "node": {"max_units": 6, "unit_energy": 1, "battery_cap": 8},
            "harvest": {"kind": "uniform", "max": 3},
            "arrivals": [
                {"kind": "bursty", "low": 2.0, "high": 20.0, "persistence": 0.7},
                {"kind": "bursty", "low": 5.0, "high": 40.0, "persistence": 0.7},
            ],
        },
        "nodes": {"count": 80, "profile": "urban", "radius": 1000.0, "seed": 3},
        "topology": {
            "rule": "radius",
            "radius": 150.0,
            "rtt": {"kind": "distance", "base": 0.005, "per_meter": 5e-5},
        },
        "policy": {"kind": "radius_coop"},
        "solver": {"exhaustive_vectors": 1},
    }


def urban80_order(n_ops: int, seed: int) -> list[int]:
    """Episode seeds of urban80's ops: 0 .. n_ops-1, shuffled by ``seed`` within pairs.

    About one episode in ten solves its 52-node slice in 14-36 passes and
    costs 3-9 s where most cost 1.5 s, and a 30 s window holds 15-25
    episodes.  With episode seeds drawn from the workload seed, throughput
    would hinge on how many of those land in the window (quartile spread
    about 0.3 across seeds, simulated from 60 measured episodes).  So
    every workload seed runs the same distinct episodes, as game-audit
    runs the same instances, and the seed only reorders them; no episode
    repeats within a run, so reusing solves across episodes gains nothing.
    """
    order = list(range(n_ops))
    rng = random.Random(seed)
    for start in range(0, n_ops, URBAN_BLOCK):
        block = order[start : start + URBAN_BLOCK]
        rng.shuffle(block)
        order[start : start + URBAN_BLOCK] = block
    return order


# ----------------------------------------------------------- game-audit inputs


def _service(deadline=0.1, reward=1.0, unit_rate=10.0, name="svc"):
    return model.ServiceTypeSpec(name=name, deadline=deadline, reward=reward, unit_rate=unit_rate)


def _node(name=""):
    return model.FogNodeSpec(
        max_units=10, unit_energy=1, battery_cap=100, rate_factor=1.0, name=name
    )


def _network(n_nodes=2, services=None, neighbors=None, tau=0.02):
    services = services or (_service(),)
    nodes = tuple(_node(name=f"n{i}") for i in range(n_nodes))
    if neighbors is None:
        neighbors = tuple(
            frozenset(j for j in range(n_nodes) if j != i) for i in range(n_nodes)
        )
    rtt = np.full((n_nodes, n_nodes), float(tau))
    np.fill_diagonal(rtt, 0.0)
    return model.NetworkSpec(services=tuple(services), nodes=nodes, neighbors=neighbors, rtt=rtt)


def _game(network, arrivals, budgets):
    return game.GameInstance(
        network=network,
        arrivals=np.array(arrivals, dtype=float),
        budgets=np.array(budgets),
    )


def _single(lams, budget, services):
    net = _network(n_nodes=1, services=services, neighbors=(frozenset(),))
    return _game(net, [list(lams)], [budget])


def _pair(lams, budgets, tau):
    net = _network(
        n_nodes=2, services=(_service(deadline=0.1, unit_rate=10.0),), tau=tau
    )
    return _game(net, [[l] for l in lams], budgets)


def _line3(lams, budgets):
    net = model.NetworkSpec(
        services=(_service(deadline=0.1, unit_rate=10.0),),
        nodes=tuple(_node(name=f"n{i}") for i in range(3)),
        neighbors=(frozenset({1}), frozenset({0, 2}), frozenset({1})),
        rtt=np.array([[0.0, 0.02, 0.04], [0.02, 0.0, 0.02], [0.04, 0.02, 0.0]]),
    )
    return _game(net, [[l] for l in lams], budgets)


def oracle_grid_instances():
    """The 276 criterion-2 instances as (family, game, oracle grid)."""
    out = []
    for deadline, rate, lams in ((0.1, 10.0, (15, 30)), (0.05, 20.0, (30, 60))):
        svc = (_service(deadline=deadline, unit_rate=rate),)
        for lam in lams:
            for e in range(5):
                out.append(("F1", _single([lam], e, svc), 0.05))
    for rate in (20.0, 30.0, 40.0, 60.0):
        svc = (_service(deadline=0.1, unit_rate=rate),)
        for lam in (2, 5, 8, 10, 12, 15, 18, 20, 22, 25):
            for e in range(1, 5):
                if rate * e >= lam + 10:
                    out.append(("F2", _single([lam], e, svc), 0.25))
    svcs = (
        _service(deadline=0.1, unit_rate=10.0, name="a"),
        _service(deadline=0.05, unit_rate=20.0, name="b"),
    )
    for lam_a in (15, 30):
        for lam_b in (30, 60):
            for e in range(1, 5):
                out.append(("F3", _single([lam_a, lam_b], e, svcs), 0.05))
    for lams in ((5, 5), (10, 5), (20, 10), (25, 15)):
        for budgets in ((2, 2), (3, 2), (4, 3), (4, 4)):
            if all(10.0 * e >= l + 10 for e, l in zip(budgets, lams)):
                for tau in (0.01, 0.02, 0.03):
                    out.append(("F4", _pair(lams, budgets, tau), 0.25))
    for e, load in ((2, 5), (3, 5), (3, 15), (4, 5), (4, 15), (4, 25)):
        for tau in (0.01, 0.02, 0.03):
            out.append(("F5", _pair((load, 0), (0, e), tau), 0.25))
    for lam in (15, 30):
        for e in range(1, 5):
            for tau in (0.01, 0.02, 0.04):
                out.append(("F6", _pair((lam, 0), (e, 0), tau), 0.05))
    out.append(("F7", _line3((10, 5, 10), (2, 2, 2)), 0.1))
    for load in (6, 10):
        out.append(("F7", _line3((0, load, 0), (2, 0, 2)), 0.1))
    for lam in (15, 30):
        for e in (1, 2):
            out.append(("F7", _line3((lam, 0, 0), (e, 0, 0)), 0.05))
    return out


def core_instance(s, rng):
    """Criterion-3 shape ``s``: a core-stable instance drawn from ``rng``."""
    svc = (_service(deadline=0.1, unit_rate=10.0),)
    kind = s % 4
    if kind in (0, 2):
        network = model.NetworkSpec(
            services=svc,
            nodes=tuple(_node(name=f"n{i}") for i in range(3)),
            neighbors=(frozenset({1, 2}), frozenset({0}), frozenset({0})),
            rtt=np.array([[0.0, 0.02, 0.02], [0.02, 0.0, 0.04], [0.02, 0.04, 0.0]]),
        )
        center = float(rng.integers(15, 26))
        arms = rng.integers(4, 9, 2).astype(float)
        arrivals = np.array([[center], [arms[0]], [arms[1]]])
        budgets = np.array([0, int(rng.integers(4, 6)), int(rng.integers(4, 6))])
    elif kind == 1:
        n = int(rng.integers(2, 4))
        network = _network(n_nodes=n, services=svc)
        arrivals = rng.integers(5, 18, (n, 1)).astype(float)
        budgets = np.array([int(a[0]) // 10 + 2 for a in arrivals])
    elif s % 8 == 3:
        network = _network(n_nodes=2, services=svc)
        load = float(rng.integers(10, 22))
        arrivals = np.array([[load], [float(rng.integers(3, 7))]])
        budgets = np.array([0, 5])
    else:
        network = _network(n_nodes=1, services=svc, neighbors=(frozenset(),))
        arrivals = np.array([[float(rng.integers(20, 45))]])
        budgets = np.array([int(rng.integers(1, 4))])
    return game.GameInstance(network=network, arrivals=arrivals, budgets=budgets)


def audit_instances():
    """Criterion-2 instances (with their oracle grid) then the 20 criterion-3 shapes.

    The criterion-3 shapes use the acceptance suite's generator seed (42):
    they are built to be core-stable, and redrawing them per workload seed
    could produce instances that are not.
    """
    out = list(oracle_grid_instances())
    rng = np.random.default_rng(42)
    out += [(f"C{s % 4}", core_instance(s, rng), None) for s in range(20)]
    return out


def _size_key(g):
    """Structural work estimate: node count, then energy vectors, then load."""
    vectors = 1
    for i, nd in enumerate(g.network.nodes):
        vectors *= min(int(g.budgets[i]), nd.max_units * nd.unit_energy) + 1
    return (g.network.n_nodes, vectors, float(g.arrivals.sum()))


def _interleave(items):
    """Order a sorted list so that every prefix samples it evenly.

    Recursive halving: the first k items of the result hold ceil(k/2) or
    floor(k/2) items of each half, and so on down, so any prefix is a
    stratified sample of the sorted list.
    """
    if len(items) <= 1:
        return list(items)
    half = len(items) // 2
    a, b = _interleave(items[:half]), _interleave(items[half:])
    out = []
    for k in range(max(len(a), len(b))):
        out += a[k : k + 1] + b[k : k + 1]
    return out


AUDIT_BATCH = 4


def audit_batches(instances, seed: int) -> list[list[int]]:
    """Seeded op list over the audit instances: batches of AUDIT_BATCH games.

    A time-bounded run covers only part of a pass, and a few 3-node games
    cost seconds where most cost milliseconds.  A full shuffle would make
    throughput hinge on which of those land in the window, so the games
    are sorted by a structural size and interleaved so that every prefix
    samples the sorted list evenly; each batch of four consecutive games
    then holds one game from each size quartile.  One game per op left
    the median op on a gap in the cost distribution: half the games are
    1-node ones of 1-10 ms, the median fell between the 6 ms and the 9 ms
    cluster, and it moved by a quarter between runs of the same code.  A
    batch's cost has no such gap.  The seed shuffles the games within
    each batch and the batches within consecutive pairs.
    """
    by_size = sorted(range(len(instances)), key=lambda i: (_size_key(instances[i][1]), i))
    order = _interleave(by_size)
    batches = [order[s : s + AUDIT_BATCH] for s in range(0, len(order), AUDIT_BATCH)]
    rng = random.Random(seed)
    for batch in batches:
        rng.shuffle(batch)
    for start in range(0, len(batches), 2):
        pair = batches[start : start + 2]
        rng.shuffle(pair)
        batches[start : start + 2] = pair
    return batches


# ---------------------------------------------------------------- digests


def _game_bytes(g) -> bytes:
    net = g.network
    parts = [
        repr(net.services).encode(),
        repr(net.nodes).encode(),
        repr([sorted(nb) for nb in net.neighbors]).encode(),
        np.ascontiguousarray(net.rtt, dtype=float).tobytes(),
        np.ascontiguousarray(g.arrivals, dtype=float).tobytes(),
        np.ascontiguousarray(g.budgets, dtype=np.int64).tobytes(),
    ]
    return b"|".join(parts)


def digest(configs=(), games=()) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        h.update(json.dumps(cfg, sort_keys=True).encode())
    for g in games:
        h.update(_game_bytes(g))
    return h.hexdigest()[:16]


# ------------------------------------------------------------------- ops


class EngineWorkload:
    """Closed loop of episodes; op = run_episode, then emit_report."""

    def __init__(self, name: str, seed: int, n_ops: int, out_dir: str):
        self.out_dir = out_dir
        if name == "scarcity":
            dicts = [
                scarcity_config(seed + r, "bpomdp" if r % 2 == 0 else "myopic")
                for r in range(n_ops)
            ]
            warm = scarcity_config(seed + 1_000_003, "bpomdp")
        else:
            dicts = [urban80_config(s) for s in urban80_order(n_ops, seed)]
            warm = urban80_config(1_000_003)
        self.digest = digest(configs=dicts + [warm])
        self.configs = [engine.build_config(d) for d in dicts]
        self.warmup_config = engine.build_config(warm)

    def _run(self, cfg, tag: str):
        result = engine.run_episode(cfg)
        path = os.path.join(self.out_dir, tag)
        engine.emit_report(result, path)
        return {"dir": path, "welfare": result.total_welfare()}

    def warmup(self):
        out = self._run(self.warmup_config, "warmup")
        shutil.rmtree(out["dir"], ignore_errors=True)

    def op(self, i: int):
        return self._run(self.configs[i % len(self.configs)], f"op{i}")

    def failures(self, i: int, out) -> list[str]:
        """Reasons op ``i`` failed; its report directory is removed."""
        try:
            _, summary = engine.load_report(out["dir"])
        except (OSError, ValueError, KeyError) as exc:
            return [f"report_rejected: {exc}"]
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)
        if summary["total_welfare"] != out["welfare"]:
            return ["report_welfare_mismatch"]
        return []

    def welfare(self, out) -> tuple[float, float]:
        return out["welfare"], 0.0

    def below_default(self, out) -> int:
        return 0


def program_digest() -> str:
    """Digest of the program's sources, so that cached results follow the code."""
    src = os.path.dirname(os.path.abspath(game.__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class OracleCache:
    """Grid-oracle welfare per instance, optionally kept on disk between runs.

    One oracle pass over the criterion-2 instances takes about 19 s, nearly
    all of it on one 3-node line, and every run of a checkout would compute
    the same values again.  The file is named after the program's source
    digest, so a changed program starts from an empty cache.
    """

    def __init__(self, directory: str | None):
        self.path = None
        self.values: dict[str, float] = {}
        if directory is not None:
            self.path = os.path.join(directory, f"oracle-{program_digest()}.json")
            if os.path.exists(self.path):
                with open(self.path) as fh:
                    self.values = json.load(fh)

    def welfare(self, g, grid: float) -> float:
        key = f"{hashlib.sha256(_game_bytes(g)).hexdigest()[:24]}@{grid!r}"
        if key not in self.values:
            self.values[key] = oracles.exhaustive_welfare(g, grid=grid)
            if self.path is not None:
                tmp = f"{self.path}.{os.getpid()}"
                with open(tmp, "w") as fh:
                    json.dump(self.values, fh)
                os.replace(tmp, self.path)
        return self.values[key]


class AuditWorkload:
    """Library traffic: per game, solve on both paths, validate both, certify the core."""

    def __init__(self, seed: int, oracle_dir: str | None):
        self.instances = audit_instances()
        self.batches = audit_batches(self.instances, seed)
        self.digest = digest(games=[self.instances[i][1] for b in self.batches for i in b])
        self.heuristic = game.SolverOptions(exhaustive_nodes=0)
        self.core = game.CoreOptions(grid=0.05)
        self.oracle = OracleCache(oracle_dir)
        # a 2-node forwarding game: reaches SLSQP, the heuristic path and check_core
        self.warmup_game = _pair((15, 0), (0, 3), 0.02)

    def _run(self, g):
        d = game.solve_social_welfare(g)
        h = game.solve_social_welfare(g, self.heuristic)
        state = model.SlotState(
            battery=g.budgets.astype(float),
            arrivals=g.arrivals,
            harvested_prev=np.zeros(g.network.n_nodes),
        )
        vd = model.validate_agreement(g.network, state, d.agreement)
        vh = model.validate_agreement(g.network, state, h.agreement)
        core = game.check_core(g, d.agreement, self.core)
        return {"default": d, "heuristic": h, "violations": vd + vh, "core": core}

    def warmup(self):
        self._run(self.warmup_game)

    def _batch(self, i: int) -> list[int]:
        return self.batches[i % len(self.batches)]

    def op(self, i: int):
        return [self._run(self.instances[idx][1]) for idx in self._batch(i)]

    def failures(self, i: int, out) -> list[str]:
        """Reasons op ``i`` failed, by the rules in perfbench/README.md."""
        reasons = []
        for idx, res in zip(self._batch(i), out):
            reasons += self._game_failures(idx, res)
        return reasons

    def _game_failures(self, idx: int, out) -> list[str]:
        _, g, grid = self.instances[idx]
        d, h, core = out["default"], out["heuristic"], out["core"]
        reasons = [f"violation: {v}" for v in out["violations"]]
        reasons += agreement_errors(g, d.agreement) + agreement_errors(g, h.agreement)
        if grid is not None:
            best = self.oracle.welfare(g, grid)
            if best > 1e-9:
                off = abs(d.welfare - best) > REL_TOL * best
            else:
                off = abs(d.welfare) > 1e-9
            if off:
                reasons.append("default_off_oracle")
        if core.deviation is not None or not core.certified:
            reasons.append("core_not_certified")
        return reasons

    def welfare(self, out) -> tuple[float, float]:
        return sum(r["default"].welfare for r in out), sum(r["heuristic"].welfare for r in out)

    def below_default(self, out) -> int:
        """Games of the op hit by the ROADMAP item-2 defect: heuristic below default.

        On some criterion-2 instances the two paths use different deadline
        rules.  Such games are counted, not failed: a failed op means a
        wrong output, and both agreements here are valid.
        """
        return sum(
            r["heuristic"].welfare < r["default"].welfare - REL_TOL * abs(r["default"].welfare)
            for r in out
        )


def agreement_errors(g, agreement, tol: float = 1e-6) -> list[str]:
    """The benchmark's own check of an agreement, independent of the validator.

    Offload rows lie in [0, 1], energy stays within each node's budget, and
    every reward equals reward * arrivals * served share.
    """
    out = []
    offload = np.asarray(agreement.offload)
    if np.any(offload < -tol) or np.any(offload.sum(axis=2) > 1.0 + tol):
        out.append("offload_row_out_of_range")
    if np.any(np.asarray(agreement.energy).sum(axis=1) > np.asarray(g.budgets) + tol):
        out.append("energy_over_budget")
    rewards = np.array([s.reward for s in g.network.services])
    earned = offload.sum(axis=2).T * g.arrivals * rewards[None, :]
    if np.any(np.abs(earned - np.asarray(agreement.rewards)) > tol):
        out.append("reward_mismatch")
    return out


def make(name: str, seed: int, n_ops: int, out_dir: str, oracle_dir: str | None = None):
    """The workload's inputs; ``oracle_dir`` keeps game-audit oracle values between runs."""
    if name == "game-audit":
        return AuditWorkload(seed, oracle_dir)
    return EngineWorkload(name, seed, n_ops, out_dir)
