"""Welfare the bpomdp neighbour-type belief earns: learned counts against counts frozen at the prior.

Each seed runs one bpomdp episode twice on ``perfbench/workloads.urban80_config(seed)``
grown to paper scale: 200 urban nodes, ``battery_init`` 4, 20 slots, depth
2, gamma 0.9, and urban80's solver settings (the heuristic path).  The
learned run is the engine as it is.  The frozen run swaps
``engine._AgentMind.observe_agreement`` for a no-op inside its worker
process, so every mind keeps planning on its all-ones prior counts.  The
environment's draws do not depend on the policy's decisions, so both runs
of a seed see the same harvest and arrival paths.

It prints, per seed, both total welfares, the relative gain
(learned - frozen) / frozen and each run's wall time, then the mean gain,
its sample standard deviation and the number of seeds with a positive
gain.  BLAS is pinned to one thread per worker, as in ``perfbench/run.py``.

    python3 tools/belief_gain.py                 # seeds 0-19, 2 workers
    python3 tools/belief_gain.py --seeds 3 --workers 1

One 200-node episode holds every mind's transition tensor, about 0.3 GB.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import run  # noqa: E402,F401  sets perfbench's BLAS_VARS to 1 before numpy is imported
import workloads  # noqa: E402
from fogslice import engine  # noqa: E402

NODES = 200
BATTERY_INIT = 4
SLOTS = 20
POLICY = {"kind": "bpomdp", "depth": 2, "gamma": 0.9}


def paper_config(seed: int) -> dict:
    cfg = workloads.urban80_config(seed)
    cfg["nodes"]["count"] = NODES
    cfg["defaults"]["node"]["battery_init"] = BATTERY_INIT
    cfg["slots"] = SLOTS
    cfg["policy"] = dict(POLICY)
    return cfg


def episode(seed: int, frozen: bool) -> tuple[float, float]:
    """Total welfare and wall seconds of one episode, with the counts learned or frozen."""
    learn = engine._AgentMind.observe_agreement
    if frozen:
        engine._AgentMind.observe_agreement = lambda mind, agreement, arrivals: None
    try:
        start = time.perf_counter()
        welfare = engine.run_episode(paper_config(seed)).total_welfare()
        return welfare, time.perf_counter() - start
    finally:
        engine._AgentMind.observe_agreement = learn


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=20, help="run seeds 0 .. SEEDS-1 (default 20)")
    p.add_argument("--workers", type=int, default=2, help="worker processes (default 2)")
    args = p.parse_args(argv)
    if args.seeds < 1 or args.workers < 1:
        p.error("--seeds and --workers must be >= 1")
    seeds = range(args.seeds)
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        learned = [pool.submit(episode, seed, False) for seed in seeds]
        frozen = [pool.submit(episode, seed, True) for seed in seeds]
        print(f"{'seed':>4s} {'learned':>12s} {'frozen':>12s} {'gain':>8s} {'learned_s':>9s} {'frozen_s':>8s}")
        gains = []
        for seed, ours, prior in zip(seeds, learned, frozen):
            (w_learned, s_learned), (w_frozen, s_frozen) = ours.result(), prior.result()
            gains.append((w_learned - w_frozen) / w_frozen)
            print(
                f"{seed:4d} {w_learned:12.4f} {w_frozen:12.4f} {gains[-1]:+8.2%} "
                f"{s_learned:9.2f} {s_frozen:8.2f}",
                flush=True,
            )
    sd = statistics.stdev(gains) if len(gains) > 1 else 0.0
    positive = sum(g > 0 for g in gains)
    print(f"mean gain {statistics.mean(gains):+.2%}, s.d. {sd:.2%}, positive {positive}/{len(gains)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
