"""Checks that the benchmark's own output checks bite.

    python3 perfbench/selfcheck.py

- An agreement corrupted on purpose (an offload row summing above 1, or
  a reward that disagrees with the offload) makes a game-audit op fail,
  both through the program's validator and through the benchmark's own
  agreement check.
- A solver returning a corrupted agreement inside an episode makes the
  engine op fail, and so does a report whose summary was tampered with.
- A minimal-length run of each workload, untraced and traced, prints
  every metric named in BENCHMARK.json with its unit.
- In a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # sets the BLAS thread variables before numpy is imported

RESULTS = []


def verdict(label, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""), flush=True)


def corrupted(solution, how):
    from fogslice import game, model

    a = solution.agreement
    offload = a.offload.copy()
    rewards = a.rewards.copy()
    if how == "row_sum":
        offload[0, 0, 0] += 0.5
    else:
        rewards[0, 0] += 1.0
    bad = model.SlicingAgreement(energy=a.energy, offload=offload, rewards=rewards)
    return game.WelfareSolution(
        agreement=bad,
        welfare=solution.welfare,
        status=solution.status,
        certified=solution.certified,
        rounds=solution.rounds,
    )


def check_audit_corruption(workloads, out_dir):
    from fogslice import game

    work = workloads.make("game-audit", 0, 0, out_dir)
    i = 0  # a batch of four games, one from each size quartile
    clean = work.failures(i, work.op(i))
    verdict("uncorrupted game-audit op passes", clean == [], str(clean))
    original = game.solve_social_welfare
    for how in ("row_sum", "reward"):

        def solve(g, options=None, how=how):
            return corrupted(original(g, options), how)

        game.solve_social_welfare = solve
        try:
            reasons = work.failures(i, work.op(i))
        finally:
            game.solve_social_welfare = original
        validator = any(r.startswith("violation") for r in reasons)
        own = any(r in ("offload_row_out_of_range", "reward_mismatch") for r in reasons)
        verdict(f"game-audit op with corrupted {how} fails", validator and own, "; ".join(reasons))


def check_engine_corruption(workloads, out_dir):
    from fogslice import engine

    work = workloads.make("scarcity", 0, 2, out_dir)
    original = engine.solve_social_welfare
    engine.solve_social_welfare = lambda g, options=None: corrupted(original(g, options), "row_sum")
    try:
        outputs, errors = {}, {}
        run.run_ops(work, range(1), outputs, [], errors, run.hostspeed.HostSpeed())
    finally:
        engine.solve_social_welfare = original
    failed = run.check_ops(work, outputs, errors)
    verdict("engine op with a corrupted agreement fails", 0 in failed, str(failed.get(0)))

    outputs = {1: work.op(1)}
    path = os.path.join(outputs[1]["dir"], "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["total_welfare"] += 1.0
    with open(path, "w") as fh:
        json.dump(summary, fh)
    failed = run.check_ops(work, outputs, {})
    verdict("engine op with a tampered report fails", 1 in failed, str(failed.get(1)))


def check_minimal_runs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload",
                   w["name"], "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
                ok = (
                    done.returncode == 0
                    and set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["correct"] is True
                    and result["attempted"] >= 1
                    and got == wanted
                    and numbers
                )
                detail = f"{result['attempted']} ops, {len(got)} metrics"
            except (IndexError, ValueError, KeyError) as exc:
                ok, detail = False, f"rc {done.returncode}, {exc}: {done.stderr[-500:]}"
            verdict(f"minimal run of {w['name']} (trace {trace}) prints every metric", ok, detail)


def check_without_program():
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            run.BENCH_DIR,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        cmd = [sys.executable, "perfbench/run.py", "--workload", "scarcity", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        ok = done.returncode != 0 and not done.stdout.strip()
        verdict("without the program the run fails and prints no result", ok,
                f"rc {done.returncode}, stderr {done.stderr.strip()[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    if not run.load_program():
        print("no fogslice sources in this checkout", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR)
    try:
        check_audit_corruption(workloads, out_dir)
        check_engine_corruption(workloads, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    check_minimal_runs()
    check_without_program()
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
