"""Count the slice solver's feasibility checks over one pass of the audit games.

One pass solves each of the 296 game-audit games (criteria 2 and 3, from
``perfbench/workloads.py``) on both paths: the default path and the
heuristic path (``exhaustive_nodes=0``).  The script prints

- the CPU time of one pass with nothing wrapped;
- ``_SliceWork.max_violation`` calls in a second, counted pass, by the
  solver stage that made them and by the function that called the check;
- the back-off searches (``game._last_feasible`` calls), and their mids:
  evaluated (the predicate ran) against inferred (the loop took the verdict
  from the bracket it was given), in all and per search.

Functions are wrapped at run time; the program has no hook for this.  A
search's mids are recounted by replaying it with the default bracket and the
verdict ``mid <= lo``, which retraces the bisection's path from its result.

    PYTHONPATH=src python3 tools/solver_counts.py
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
from fogslice import game  # noqa: E402

STAGES = ("_update_row", "_polish_priority", "_joint_refine", "_swap_pass", "solve_offload")
# frames between a check and the code that asked for it
PLUMBING = {"max_violation", "feasible", "<lambda>", "last_feasible", "counted", "probe"}


def one_pass(games) -> None:
    for g in games:
        game.solve_social_welfare(g)
        game.solve_social_welfare(g, game.SolverOptions(exhaustive_nodes=0))


def _where():
    """(stage, caller) of the check being made: the nearest stage and the first non-plumbing frame."""
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


def main() -> int:
    games = [g for _, g, _ in workloads.audit_instances()]
    one_pass(games[:4])  # imports and first-call costs stay out of the timing
    start = time.process_time()
    one_pass(games)
    cpu = time.process_time() - start

    checks = collections.Counter()
    searches = collections.Counter()
    mids = collections.Counter()
    max_violation, last_feasible = game._SliceWork.max_violation, game._last_feasible

    def counted(self, alpha):
        checks[_where()] += 1
        return max_violation(self, alpha)

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
    try:
        one_pass(games)
    finally:
        game._SliceWork.max_violation, game._last_feasible = max_violation, last_feasible

    print(f"audit pass: {len(games)} games, both paths, {cpu:.2f} s CPU (unwrapped)")
    print(f"max_violation calls: {sum(checks.values())}")
    for (stage, caller), count in sorted(checks.items(), key=lambda kv: -kv[1]):
        print(f"  {count:7d}  {stage} via {caller}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
