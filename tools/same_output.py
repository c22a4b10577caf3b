"""Print one sha256 per run over a fixed set of episodes and games.

Run it in two checkouts and diff the outputs: identical lines mean that
every report, agreement, welfare value and core-check result came out
byte for byte the same.

    python3 tools/same_output.py > after.txt
    python3 tools/same_output.py episodes > part.txt   # one part only

Parts (all by default, in this order):

- ``episodes``: 744 engine episodes, hashing the bytes of ``slots.csv``
  and ``summary.json``: scarcity seeds 0-99 under bpomdp and myopic, the
  episodes of acceptance criteria 4, 5, 6 and 10, and the harvest,
  forwarding and doubling configs under bpomdp (depth 2, gamma 0.9).
- ``urban80``: the benchmark's urban80 episodes 0-4.
- ``games``: the 296 game-audit games (criteria 2 and 3), hashing both
  solver paths' agreement arrays and welfare, the validator's verdicts
  and the ``check_core`` result of the default path's agreement.

The configs and games come from ``tests/test_acceptance.py`` and
``perfbench/workloads.py``; nothing here builds inputs of its own.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import numpy as np  # noqa: E402

import test_acceptance as acc  # noqa: E402
import workloads  # noqa: E402
from fogslice import engine, game, model  # noqa: E402

PARTS = ("episodes", "urban80", "games")
BPOMDP = {"kind": "bpomdp", "depth": 2, "gamma": 0.9}


def _sweep(cfg: dict, axis: str, values, reps: int = 20):
    """The cells ``engine.run_sweep`` runs, as (label, config) pairs."""
    base = int(cfg.get("seed", 0))
    for value in values:
        for rep in range(reps):
            cell = engine.set_config_value(cfg, axis, value)
            cell["seed"] = base + rep
            yield f"{axis}={value}/rep{rep}", cell


def episode_configs():
    for seed in range(100):
        for policy in ("bpomdp", "myopic"):
            yield f"scarcity/{policy}/seed{seed}", acc.scarcity_config(seed, policy)
    for policy in ("no_coop", "nearest_neighbor", "radius_coop"):
        for seed in range(20):
            yield f"c4/{policy}/seed{seed}", acc.doubling_config(seed, policy)
    for label, cell in _sweep(acc.forwarding_config(), "topology.rtt.tau0", [0.01, 0.02, 0.04, 0.08]):
        yield f"c5/{label}", cell
    for policy in ("no_coop", "nearest_neighbor", "radius_coop", "myopic", "bpomdp"):
        cfg = acc.harvest_config()
        cfg["policy"] = {"kind": policy, "depth": 2, "gamma": 0.9}
        for label, cell in _sweep(cfg, "defaults.harvest.max", [1, 2, 4, 8]):
            yield f"c6/{policy}/{label}", cell
    yield "c10/forwarding", acc.forwarding_config()
    for name, cfg in (
        ("harvest", acc.harvest_config()),
        ("forwarding", acc.forwarding_config()),
        ("doubling3", acc.doubling_config(3, "radius_coop")),
    ):
        cfg["policy"] = dict(BPOMDP)
        yield f"bpomdp/{name}", cfg


def report_digest(cfg: dict, scratch: str) -> str:
    csv_path, json_path = engine.emit_report(engine.run_episode(cfg), scratch)
    h = hashlib.sha256()
    for path in (csv_path, json_path):
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _arrays(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def game_digest(g) -> str:
    h = hashlib.sha256()
    state = model.SlotState(
        battery=g.budgets.astype(float),
        arrivals=g.arrivals,
        harvested_prev=np.zeros(g.network.n_nodes),
    )
    default = game.solve_social_welfare(g)
    heuristic = game.solve_social_welfare(g, game.SolverOptions(exhaustive_nodes=0))
    for sol in (default, heuristic):
        a = sol.agreement
        _arrays(h, a.energy, a.offload, a.rewards)
        h.update(f"{sol.welfare!r} {sol.status}".encode())
        verdicts = model.validate_agreement(g.network, state, a)
        h.update(repr([(v.kind, v.node, v.service) for v in verdicts]).encode())
    core = game.check_core(g, default.agreement, game.CoreOptions(grid=0.05))
    h.update(repr((core.certified, core.checked_subsets, core.truncated_sizes, core.grid)).encode())
    dev = core.deviation
    if dev is not None:
        h.update(repr(dev.members).encode())
        _arrays(h, dev.energy, *dev.alphas, dev.rewards)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    parts = argv or list(PARTS)
    unknown = [p for p in parts if p not in PARTS]
    if unknown:
        print(f"unknown part(s) {unknown}; choose from {PARTS}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        if "episodes" in parts:
            for label, cfg in episode_configs():
                print(label, report_digest(cfg, scratch), flush=True)
        if "urban80" in parts:
            for seed in range(5):
                print(f"urban80/ep{seed}", report_digest(workloads.urban80_config(seed), scratch), flush=True)
    if "games" in parts:
        for idx, (family, g, _) in enumerate(workloads.audit_instances()):
            print(f"game/{idx:03d}/{family}", game_digest(g), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
