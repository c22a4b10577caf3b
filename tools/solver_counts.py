"""Count the slice solver's response evaluations and back-off searches on two workloads.

- ``audit``: one pass over the 296 game-audit games (criteria 2 and 3, from
  ``perfbench/workloads.py``), each solved on both paths: the default path
  and the heuristic path (``exhaustive_nodes=0``).
- ``urban80``: the benchmark's urban80 episodes 0-4, run whole.

For each workload the script prints

- the CPU time of one run with nothing wrapped;
- kernel calls: ``response_times`` calls made by the solver
  (``game.response_times``; the validator's own calls are not counted),
  with the offload matrices they checked (a stack counts each of its
  matrices), by the solver stage that made them and by the function that
  asked for them;
- the slice state memo's hits and misses (``_SliceWork.state``), by stage;
- the back-off searches (``game._last_feasible`` calls), by stage: their
  kernel calls, matrices checked and mids walked per search.  The mids
  walked are those of the bisection's own path, retraced here from its
  result with the verdict ``mid <= lo``;
- the ``solve_offload`` calls, and how many of them were on a dead slice
  (no usable pair, ``_SliceWork.movers`` empty), which returns at once;
- the ``_update_row`` calls the ascent made, and how many of them were on
  a dead sender (a sender outside ``_SliceWork.movers``);
- for the audit only, per game family (F1-F7, C0-C3), what the default
  path's exhaustive search (``_solve_exhaustive``) did: the (service,
  energy vector) pairs a full enumeration would solve, the slice bounds it
  computed (``_slice_bound`` calls) and the slices it solved
  (``solve_offload`` calls).

Functions are wrapped at run time; the program has no hook for this.  The
script also runs in a checkout whose searches check one mid per call.  The
dead slice and dead sender counts read ``_SliceWork.movers``; a checkout
without it needs that property added before the run.

    PYTHONPATH=src python3 tools/solver_counts.py            # both workloads
    PYTHONPATH=src python3 tools/solver_counts.py urban80    # one of them
"""

from __future__ import annotations

import collections
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for sub in ("src", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import workloads  # noqa: E402
from fogslice import engine, game  # noqa: E402

STAGES = (
    "_update_row",
    "_polish_priority",
    "_joint_refine",
    "_swap_pass",
    "solve_offload",
    "_trim_energy",
)
# frames between a response evaluation and the code that asked for it
PLUMBING = {
    "max_violation",
    "feasible",
    "<lambda>",
    "last_feasible",
    "_last_feasible",
    "searched",
    "verdicts",
    "evaluated",
    "looked_up",
    "state",
    "pis",
    "violation",
}


def audit_pass(games) -> None:
    for g in games:
        game.solve_social_welfare(g)
        game.solve_social_welfare(g, game.SolverOptions(exhaustive_nodes=0))


def exhaustive_counts(instances):
    """Per family: games searched, (service, vector) pairs, bounds computed and slices solved by the search."""
    counts = collections.defaultdict(collections.Counter)
    solve_exhaustive, slice_bound, solve_offload = game._solve_exhaustive, game._slice_bound, game.solve_offload
    family, inside = None, False

    def searched(g):
        nonlocal inside
        c = counts[family]
        c["games"] += 1
        c["vectors"] += game._exhaustive_vector_count(g) * g.network.n_services
        inside = True
        try:
            return solve_exhaustive(g)
        finally:
            inside = False

    def bounded(instance):
        counts[family]["bounds"] += inside
        return slice_bound(instance)

    def solved(instance):
        counts[family]["solved"] += inside
        return solve_offload(instance)

    game._solve_exhaustive, game._slice_bound, game.solve_offload = searched, bounded, solved
    try:
        for family, g, _ in instances:
            game.solve_social_welfare(g)
    finally:
        game._solve_exhaustive, game._slice_bound, game.solve_offload = solve_exhaustive, slice_bound, solve_offload
    return counts


def report_exhaustive(instances) -> None:
    counts = exhaustive_counts(instances)
    print("exhaustive search on the default path, by family:")
    print(f"  {'family':6s} {'games':>6s} {'vectors':>8s} {'bounds':>7s} {'solved':>7s}")
    total = sum(counts.values(), collections.Counter())
    for family, c in sorted(counts.items()) + [("all", total)]:
        print(f"  {family:6s} {c['games']:6d} {c['vectors']:8d} {c['bounds']:7d} {c['solved']:7d}")


def urban80_run(seeds) -> None:
    for seed in seeds:
        engine.run_episode(workloads.urban80_config(seed))


def _where():
    """(stage, caller) of the call being made: the nearest stage and the first non-plumbing frame."""
    frame, caller, stage = sys._getframe(2), None, "other"
    while frame is not None:
        name = frame.f_code.co_name
        if caller is None and name not in PLUMBING:
            caller = name
        if name in STAGES:
            stage = name
            break
        frame = frame.f_back
    return stage, caller or "other"


def walked(hi: float, steps: int, lo: float) -> int:
    """Mids a ``steps``-step bisection of [0, hi] that ends on lo walks before it stops."""
    at, failed_hi = 0.0, False
    for count in range(steps):
        mid = (at + hi) / 2
        if mid == at or (mid == hi and failed_hi):
            return count
        if mid <= lo:
            at = mid
        else:
            hi, failed_hi = mid, True
    return steps


def counted_run(run):
    """Run ``run()`` with the solver wrapped; returns the counters."""
    calls, matrices, memo, searches, slices = (collections.Counter() for _ in range(5))
    last_feasible, response_times, state = game._last_feasible, game.response_times, game._SliceWork.state
    solve_offload, update_row = game.solve_offload, game._update_row

    def evaluated(alpha, *args):
        site = _where()
        calls[site] += 1
        matrices[site] += math.prod(alpha.shape[:-2])
        return response_times(alpha, *args)

    def looked_up(self, alpha):
        kept = self._state
        found = state(self, alpha)
        memo[_where()[0], "hit" if found is kept else "miss"] += 1
        return found

    def searched(check, hi, steps, *rest):
        stage = _where()[0]
        before = sum(calls.values()), sum(matrices.values())
        lo = last_feasible(check, hi, steps, *rest)
        searches[stage, "searches"] += 1
        searches[stage, "calls"] += sum(calls.values()) - before[0]
        searches[stage, "matrices"] += sum(matrices.values()) - before[1]
        searches[stage, "walked"] += walked(hi, steps, lo)
        return lo

    def solved(instance):
        slices["solves"] += 1
        slices["dead slices"] += not game._SliceWork(instance).movers
        return solve_offload(instance)

    def updated(work, alpha, i):
        slices["row updates"] += 1
        slices["dead senders"] += i not in work.movers
        return update_row(work, alpha, i)

    game._last_feasible, game.response_times, game._SliceWork.state = searched, evaluated, looked_up
    game.solve_offload, game._update_row = solved, updated
    try:
        run()
    finally:
        game._last_feasible, game.response_times, game._SliceWork.state = last_feasible, response_times, state
        game.solve_offload, game._update_row = solve_offload, update_row
    return calls, matrices, memo, searches, slices


def report(label, run) -> None:
    start = time.process_time()
    run()
    cpu = time.process_time() - start
    calls, matrices, memo, searches, slices = counted_run(run)
    print(f"{label}: {cpu:.2f} s CPU (unwrapped)")
    print(f"response_times calls: {sum(calls.values())}, matrices checked: {sum(matrices.values())}")
    for site, count in sorted(calls.items(), key=lambda kv: -kv[1]):
        print(f"  {count:7d} calls {matrices[site]:7d} matrices  {site[0]} via {site[1]}")
    hits = sum(v for (_, kind), v in memo.items() if kind == "hit")
    print(f"slice state lookups: {hits} hits, {sum(memo.values()) - hits} misses")
    for stage in sorted({stage for stage, _ in memo}):
        print(f"  {stage}: {memo[stage, 'hit']} hits, {memo[stage, 'miss']} misses")
    stages = sorted({stage for stage, _ in searches})
    total = {kind: sum(searches[stage, kind] for stage in stages) for kind in ("searches", "calls", "matrices", "walked")}
    print(f"searches: {total['searches']}")
    for stage, counts in [(s, {k: searches[s, k] for k in total}) for s in stages] + [("all", total)]:
        n = counts["searches"]
        print(
            f"  {stage}: {n} searches; per search {counts['calls'] / n:.1f} kernel calls, "
            f"{counts['matrices'] / n:.1f} matrices, {counts['walked'] / n:.1f} mids walked"
        )
    print(f"solve_offload calls: {slices['solves']}, {slices['dead slices']} on dead slices (no usable pair)")
    print(f"_update_row calls by the ascent: {slices['row updates']}, {slices['dead senders']} on dead senders")


def main(argv: list[str]) -> int:
    parts = argv or ["audit", "urban80"]
    if "audit" in parts:
        instances = workloads.audit_instances()
        games = [g for _, g, _ in instances]
        audit_pass(games[:4])  # imports and first-call costs stay out of the timing
        report(f"audit pass: {len(games)} games, both paths", lambda: audit_pass(games))
        report_exhaustive(instances)
    if "urban80" in parts:
        urban80_run([1000003])  # as the benchmark's warm-up op
        report("urban80 episodes 0-4", lambda: urban80_run(range(5)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
