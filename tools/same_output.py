"""Print a sha256 and the welfare per run: episodes, games, oracle calls, agent models.

Each line is ``label digest welfare...``: an episode's total welfare, a
game's welfare on the default path and then on the heuristic path, or an
oracle value, each printed with ``repr``; agent-model lines carry no
welfare.  Identical digests in two checkouts mean that every report,
agreement, welfare value, core-check result, oracle value and bpomdp
model tensor came out byte for byte the same.

    python3 tools/same_output.py > after.txt
    python3 tools/same_output.py episodes > part.txt   # one part only
    python3 tools/same_output.py --against HEAD~1 games

Output bytes depend on the BLAS thread count: SciPy's SLSQP, which the
joint refine calls, runs on BLAS.  So this script sets the thread
variables of ``perfbench/run.py`` (``BLAS_VARS``) to 1 before numpy is
imported, as the benchmark does, and the ``--against`` runs inherit them.

``--against REV`` extracts REV with ``git archive`` into a temporary
directory and runs this same script there and here, side by side, on the
same parts.  It prints every label whose digest differs (or that only one
side produced), with both sides' welfare and its relative change, and
exits 1 on any difference, 0 when all digests match.  A last line counts
the welfare figures (one per episode and oracle value, two per game) that
rose, fell or stayed equal, and names the worst relative fall.

Parts (all by default, in this order):

- ``episodes``: 744 engine episodes, hashing the bytes of ``slots.csv``
  and ``summary.json``: scarcity seeds 0-99 under bpomdp and myopic, the
  episodes of acceptance criteria 4, 5, 6 and 10, and the harvest,
  forwarding and doubling configs under bpomdp (depth 2, gamma 0.9).
- ``urban80``: the benchmark's urban80 episodes 0-4.
- ``games``: the 296 game-audit games (criteria 2 and 3), hashing both
  solver paths' agreement arrays and welfare, the validator's verdicts
  and the ``check_core`` result of the default path's agreement.
- ``oracle``: ``oracles.exhaustive_welfare`` on the 276 criterion-2
  instances at their grids, hashing the ``repr`` of each value.
- ``minds``: the bpomdp agent model of each of urban80's 80 nodes, hashing
  its transition and reward tensors.  The nodes get two-level harvest and
  arrival chains on which the order of the Kronecker factors changes bits
  (see ``MIND_CHAINS``); urban80's own chains would not show it.

The configs and games come from ``tests/test_acceptance.py`` and
``perfbench/workloads.py``; only ``MIND_CHAINS`` is defined here.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import run  # noqa: E402,F401  sets perfbench's BLAS_VARS to 1 before numpy is imported
import numpy as np  # noqa: E402

import test_acceptance as acc  # noqa: E402
import workloads  # noqa: E402
from fogslice import engine, game, model, oracles  # noqa: E402

PARTS = ("episodes", "urban80", "games", "oracle", "minds")
BPOMDP = {"kind": "bpomdp", "depth": 2, "gamma": 0.9}
# kron(kron(H, A1), A2) and kron(H, kron(A1, A2)) differ in 20 of these 64 cells
MIND_CHAINS = {
    "harvest": {"kind": "levels", "levels": [1, 3], "transition": [[0.7, 0.3], [0.4, 0.6]]},
    "arrivals": [
        {"kind": "levels", "levels": [2.0, 20.0], "transition": [[0.7, 0.3], [0.3, 0.7]]},
        {"kind": "levels", "levels": [5.0, 40.0], "transition": [[0.6, 0.4], [0.45, 0.55]]},
    ],
}


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
    """Digest of the episode's report, then its total welfare."""
    result = engine.run_episode(cfg)
    csv_path, json_path = engine.emit_report(result, scratch)
    h = hashlib.sha256()
    for path in (csv_path, json_path):
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return f"{h.hexdigest()} {result.total_welfare()!r}"


def _arrays(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def game_digest(g) -> str:
    """Digest of both paths' results and the core check, then both welfares."""
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
    return f"{h.hexdigest()} {default.welfare!r} {heuristic.welfare!r}"


def run_parts(parts: list[str]) -> None:
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
    if "oracle" in parts:
        for idx, (family, g, grid) in enumerate(workloads.oracle_grid_instances()):
            value = repr(oracles.exhaustive_welfare(g, grid=grid))
            digest = hashlib.sha256(value.encode()).hexdigest()
            print(f"oracle/{idx:03d}/{family}", digest, value, flush=True)
    if "minds" in parts:
        raw = workloads.urban80_config(0)
        raw["defaults"].update(MIND_CHAINS)
        raw["policy"] = dict(BPOMDP)
        cfg = engine.build_config(raw)
        for i in range(cfg.network.n_nodes):
            mind = engine._AgentMind(cfg, i)
            h = hashlib.sha256()
            _arrays(h, mind._transition, mind._reward_profiles)
            print(f"mind/{i:02d}", h.hexdigest(), flush=True)


def _lines(path: str) -> dict[str, tuple[str, list[float]]]:
    """label -> (digest, welfare figures) for each line of a run's output."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                label, digest, *welfare = line.split()
                out[label] = (digest, [float(w) for w in welfare])
    return out


def _relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else math.copysign(math.inf, new - old)


def compare_against(rev: str, parts: list[str]) -> int:
    """Run the parts here and in a ``git archive`` of rev; 1 on any difference."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as other:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(other, filter="data")
        os.makedirs(os.path.join(other, "tools"), exist_ok=True)
        there = os.path.join(other, "tools", os.path.basename(__file__))
        shutil.copyfile(os.path.abspath(__file__), there)
        # both sides at once, one process each, each writing to its own file
        procs, outs = [], []
        for side, script in (("there", there), ("here", os.path.abspath(__file__))):
            outs.append(os.path.join(other, f"{side}.txt"))
            with open(outs[-1], "w") as fh:
                procs.append(subprocess.Popen([sys.executable, script, *parts], stdout=fh))
        codes = [proc.wait() for proc in procs]
        if any(codes):
            print(f"a run failed (exit codes {codes})", file=sys.stderr)
            return 1
        base, head = (_lines(out) for out in outs)
    missing = ("", [])
    differ = [
        label for label in {**base, **head} if base.get(label, missing)[0] != head.get(label, missing)[0]
    ]
    for label in differ:
        old, new = base.get(label, missing)[1], head.get(label, missing)[1]
        moves = ", ".join(f"{o!r} -> {n!r} ({_relative(o, n):+.3g})" for o, n in zip(old, new))
        print(f"differs: {label} welfare {moves or 'only on one side'}")
    print(f"{len(base)} lines at {rev}, {len(head)} here, {len(differ)} differ")
    changes = [
        (_relative(o, n), label)
        for label in base.keys() & head.keys()
        for o, n in zip(base[label][1], head[label][1])
    ]
    rose = sum(rel > 0 for rel, _ in changes)
    fell = sorted(change for change in changes if change[0] < 0)
    worst = f"{fell[0][0]:+.3g} at {fell[0][1]}" if fell else "none"
    print(
        f"welfare figures: {rose} rose, {len(fell)} fell, "
        f"{len(changes) - rose - len(fell)} equal; worst relative fall {worst}"
    )
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parts", nargs="*", metavar="PART", help=f"any of {PARTS}; default all")
    p.add_argument("--against", metavar="REV", help="compare with this git revision")
    args = p.parse_args(argv)
    unknown = [part for part in args.parts if part not in PARTS]
    if unknown:
        p.error(f"unknown part(s) {unknown}; choose from {PARTS}")
    parts = args.parts or list(PARTS)
    if args.against:
        return compare_against(args.against, parts)
    run_parts(parts)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
