"""Count the slice solver's checks and response evaluations on two workloads.

- ``audit``: one pass over the 296 game-audit games (criteria 2 and 3, from
  ``perfbench/workloads.py``), each solved on both paths: the default path
  and the heuristic path (``exhaustive_nodes=0``).
- ``urban80``: the benchmark's urban80 episodes 0-4, run whole.

For each workload the script prints

- the CPU time of one run with nothing wrapped;
- ``response_times`` calls made by the solver (``game.response_times``; the
  validator's own calls are not counted), by the solver stage that made
  them and by the function that asked for them;
- the slice state memo's hits and misses (``_SliceWork.state``), by stage,
  where the checkout has the memo;
- ``_SliceWork.max_violation`` calls, by stage and by caller;
- the back-off searches (``game._last_feasible`` calls), and their mids:
  evaluated (the predicate ran) against inferred (the loop took the verdict
  from the bracket it was given), in all and per search.

Functions are wrapped at run time; the program has no hook for this.  A
search's mids are recounted by replaying it with the default bracket and the
verdict ``mid <= lo``, which retraces the bisection's path from its result.

    PYTHONPATH=src python3 tools/solver_counts.py            # both workloads
    PYTHONPATH=src python3 tools/solver_counts.py urban80    # one of them
"""

from __future__ import annotations

import collections
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
# frames between a check or a response evaluation and the code that asked for it
PLUMBING = {
    "max_violation",
    "feasible",
    "<lambda>",
    "last_feasible",
    "counted",
    "probe",
    "evaluated",
    "looked_up",
    "state",
    "pis",
    "violation",
    "_excess",
}


def audit_pass(games) -> None:
    for g in games:
        game.solve_social_welfare(g)
        game.solve_social_welfare(g, game.SolverOptions(exhaustive_nodes=0))


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


def counted_run(run):
    """Run ``run()`` with the solver wrapped; returns the counters."""
    counts = {name: collections.Counter() for name in ("checks", "responses", "memo", "searches", "mids")}
    checks, responses, memo = counts["checks"], counts["responses"], counts["memo"]
    searches, mids = counts["searches"], counts["mids"]
    max_violation, last_feasible = game._SliceWork.max_violation, game._last_feasible
    response_times, state = game.response_times, getattr(game._SliceWork, "state", None)

    def counted(self, alpha):
        checks[_where()] += 1
        return max_violation(self, alpha)

    def evaluated(*args):
        responses[_where()] += 1
        return response_times(*args)

    def looked_up(self, alpha):
        kept = self._state
        found = state(self, alpha)
        memo[_where()[0], "hit" if found is kept else "miss"] += 1
        return found

    def searched(feasible, hi, steps, *bracket):
        stage = _where()[0]
        calls = [0]

        def probe(mid):
            calls[0] += 1
            return feasible(mid)

        lo = last_feasible(probe, hi, steps, *bracket)
        replay = [0]
        last_feasible(lambda mid: replay.__setitem__(0, replay[0] + 1) or mid <= lo, hi, steps)
        searches[stage] += 1
        mids[stage, "evaluated"] += calls[0]
        mids[stage, "inferred"] += replay[0] - calls[0]
        return lo

    game._SliceWork.max_violation, game._last_feasible = counted, searched
    game.response_times = evaluated
    if state is not None:
        game._SliceWork.state = looked_up
    try:
        run()
    finally:
        game._SliceWork.max_violation, game._last_feasible = max_violation, last_feasible
        game.response_times = response_times
        if state is not None:
            game._SliceWork.state = state
    return counts


def _by_site(title, counter) -> None:
    print(f"{title}: {sum(counter.values())}")
    for (stage, caller), count in sorted(counter.items(), key=lambda kv: -kv[1]):
        print(f"  {count:7d}  {stage} via {caller}")


def report(label, run) -> None:
    start = time.process_time()
    run()
    cpu = time.process_time() - start
    counts = counted_run(run)
    print(f"{label}: {cpu:.2f} s CPU (unwrapped)")
    _by_site("response_times calls", counts["responses"])
    memo = counts["memo"]
    if memo:
        hits = sum(v for (_, kind), v in memo.items() if kind == "hit")
        print(f"slice state lookups: {hits} hits, {sum(memo.values()) - hits} misses")
        for stage in sorted({stage for stage, _ in memo}):
            print(f"  {stage}: {memo[stage, 'hit']} hits, {memo[stage, 'miss']} misses")
    _by_site("max_violation calls", counts["checks"])
    searches, mids = counts["searches"], counts["mids"]
    total = sum(searches.values())
    evaluated = sum(v for (_, kind), v in mids.items() if kind == "evaluated")
    inferred = sum(v for (_, kind), v in mids.items() if kind == "inferred")
    print(f"searches: {total}; mids evaluated {evaluated}, inferred {inferred}")
    for stage, count in sorted(searches.items()):
        ev, inf = mids[stage, "evaluated"] / count, mids[stage, "inferred"] / count
        print(f"  {stage}: {count} searches, {ev:.1f} evaluated and {inf:.1f} inferred per search")
    if total:
        per = (evaluated + inferred) / total
        print(f"  all: {evaluated / total:.1f} evaluated, {per:.1f} mids per search")


def main(argv: list[str]) -> int:
    parts = argv or ["audit", "urban80"]
    if "audit" in parts:
        games = [g for _, g, _ in workloads.audit_instances()]
        audit_pass(games[:4])  # imports and first-call costs stay out of the timing
        report(f"audit pass: {len(games)} games, both paths", lambda: audit_pass(games))
    if "urban80" in parts:
        urban80_run([1000003])  # as the benchmark's warm-up op
        report("urban80 episodes 0-4", lambda: urban80_run(range(5)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
