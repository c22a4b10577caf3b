"""fogslice benchmark: one workload, one process, one caller in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scarcity,urban80,game-audit,all} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: it sets up, runs ops back
to back for S seconds, checks every op's output, and repeats the set-up
twice more in fresh processes so that ``setup_s`` is a median of three.
``--trace 1`` runs a fixed, seed-determined list of ops twice, traced
and then untraced, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are a readable
table, the run's provenance and its details.  Workloads, ops, failure
rules and metrics are described in perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# one BLAS thread: the machine has two cores and the loop has one caller.
# Set before hostspeed imports numpy.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("scarcity", "urban80", "game-audit")
SETUP_REPEATS = 3
# engine configs built during set-up, enough for a window at twice today's
# speed; ops cycle through them if a run needs more
ENGINE_CONFIGS = 64
# ops per second of --seconds in the traced run: the traced and the untraced
# pass each take about half the run at the speed of the code this was sized on
TRACE_OPS_PER_S = {"scarcity": 0.24, "urban80": 0.24, "game-audit": 0.6}
TAIL_PCT = 80.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("game.solve_offload.calls", "count"),
    ("game.solve_offload.s", "s"),
    ("game.solve_offload.self_s", "s"),
    ("game.solve_offload.passes", "count"),
    ("game.solve_offload.converged_frac", "ratio"),
    ("game.solve_social_welfare.exhaustive.calls", "count"),
    ("game.solve_social_welfare.exhaustive.s", "s"),
    ("game.solve_social_welfare.heuristic.calls", "count"),
    ("game.solve_social_welfare.heuristic.s", "s"),
    ("game.check_core.calls", "count"),
    ("game.check_core.s", "s"),
    ("game.check_core.subsets", "count"),
    ("game.solve_energy_split.calls", "count"),
    ("game.solve_energy_split.s", "s"),
    ("belief.select_action.calls", "count"),
    ("belief.select_action.s", "s"),
    ("belief.type_profile_rewards.s", "s"),
    ("belief.update_type_belief.s", "s"),
    ("model.validate_agreement.calls", "count"),
    ("model.validate_agreement.s", "s"),
    ("model.validate_agreement.violations", "count"),
    ("queueing.response_time_forwarding.calls", "count"),
    ("queueing.response_time_forwarding.s", "s"),
    ("env.sample_step.calls", "count"),
    ("env.sample_step.s", "s"),
    ("engine.run_episode.self_s", "s"),
    ("engine.emit_report.s", "s"),
    ("engine.build_config.s", "s"),
    ("topology.synth_topology.s", "s"),
    ("topology.build_neighbors.s", "s"),
    ("oracles.exhaustive_welfare.s", "s"),
    ("game.welfare_total", "reward"),
    ("game.welfare_total.default", "reward"),
    ("game.welfare_total.heuristic", "reward"),
    ("game.heuristic_below_default", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_frac", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        required=True,
        help="one workload, or all three one after another",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time (used for the setup_s median)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_program():
    """Import the program from this checkout; False if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fogslice", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401  (imported lazily by the solver; pay it here)

    import fogslice  # noqa: F401

    return True


def set_up(workloads, name, seed, n_ops, out_dir, speed, tracer=None, oracle_dir=None):
    """Generate inputs, build configs and run one untimed warm-up op.

    Returns the workload and the set-up time from the first line of this
    script, in reference seconds and in wall seconds (probing excluded).
    """
    work = workloads.make(name, seed, n_ops, out_dir, oracle_dir)
    if tracer is not None:
        tracer.enabled = False
    work.warmup()
    if tracer is not None:
        tracer.enabled = True
    end = time.perf_counter()
    wall = end - T0 - speed.spent  # only the probe taken before set-up so far
    speed.probe()
    return work, wall * speed.scale(), wall


def tail(durations):
    """The TAIL_PCT percentile of op time, interpolated.

    Returns (value, percentile, ops beyond).  A fixed percentile, not the
    highest one with ten ops beyond it: a rank counted from the top moves
    with the number of ops a window holds, so a faster host, or faster
    code, read a slower tail (on game-audit the op count and that tail
    correlated 0.85 over ten runs), and with the 15-20 ops of an engine
    run it lay below the median.
    """
    if len(durations) < 2:
        return durations[0], TAIL_PCT, 0
    value = statistics.quantiles(durations, n=100, method="inclusive")[int(TAIL_PCT) - 1]
    return value, TAIL_PCT, sum(d > value for d in durations)


def run_ops(work, indices, outputs, spans, errors, speed, deadline=None):
    """Run ops back to back; stop after ``indices`` or once ``deadline`` passes.

    Each op's (start, end) goes to ``spans``.  The host-speed probe runs
    between ops, at most every hostspeed.EVERY_S, and once at the end.
    Returns the loop's start.
    """
    start = time.perf_counter()
    for i in indices:
        if speed.due(time.perf_counter()):
            speed.probe()
        t0 = time.perf_counter()
        try:
            outputs[i] = work.op(i)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        if deadline is not None and t1 - start >= deadline:
            break
    speed.probe()
    return start


def check_ops(work, outputs, errors):
    """Failure reasons per failed op; every op's output is checked."""
    failed = {i: [f"raised: {msg}"] for i, msg in errors.items()}
    for i, out in outputs.items():
        reasons = work.failures(i, out)
        if reasons:
            failed[i] = reasons
    return failed


def provenance(args, digest):
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def probe_setup(args):
    """Set-up time of a fresh process running the same code path."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_wall_s"]


def engine_ops(args, traced_ops):
    if args.workload == "game-audit":
        return 0
    return traced_ops if args.trace else ENGINE_CONFIGS


def trace_ops(args):
    n = max(2, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
    return n + (n % 2 if args.workload == "scarcity" else 0)  # both policies equally


def measure(args, workloads, out_dir, speed):
    """End-to-end metrics of one timed window."""
    work, setup_s, setup_wall = set_up(
        workloads, args.workload, args.seed, engine_ops(args, 0), out_dir, speed,
        oracle_dir=OUT_DIR,
    )
    outputs, spans, errors = {}, [], {}
    start = run_ops(work, itertools.count(), outputs, spans, errors, speed, deadline=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = check_ops(work, outputs, errors)
    setups = [(setup_s, setup_wall)] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]

    n = len(spans)
    durations = speed.rescale(spans)
    wall = [t1 - t0 for t0, t1 in spans]
    # the op in flight at the deadline counts by the share of it done by then,
    # so that where the window happens to cut a long op does not move throughput
    t0, t1 = spans[-1]
    share = min(max((start + args.seconds - t0) / (t1 - t0), 0.0), 1.0)
    tail_s, tail_pct, beyond = tail(durations)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": (n - 1 + share) / (sum(durations[:-1]) + share * durations[-1]),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_s,
        "ok_frac": (n - len(failed)) / n,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_ops_beyond": beyond,
        "wall": {
            "setup_s": statistics.median(w for _, w in setups),
            "ops_per_s": (n - 1 + share) / (sum(wall[:-1]) + share * wall[-1]),
            "op_s_p50": statistics.median(wall),
            "op_s_tail": tail(wall)[0],
            "window_s": spans[-1][1] - spans[0][0],
        },
        "setup_runs_s": [s for s, _ in setups],
        "heuristic_below_default": sum(map(work.below_default, outputs.values())),
        "host": speed.summary(),
        "op_s": durations,
    }
    return work, metrics, END_TO_END, detail, n, failed


def measure_layers(args, workloads, out_dir, speed):
    """Per-layer metrics of a fixed op list, run traced and then untraced."""
    import tracer

    tr = tracer.Tracer()
    tr.install()
    n = trace_ops(args)
    work, _, _ = set_up(
        workloads, args.workload, args.seed, engine_ops(args, n), out_dir, speed, tr
    )
    outputs, traced, errors = {}, [], {}
    tr.phase = "op"
    run_ops(work, range(n), outputs, traced, errors, speed)
    welfare = [work.welfare(out) for _, out in sorted(outputs.items())]
    tr.phase = "check"
    failed = check_ops(work, outputs, errors)
    tr.uninstall()
    # the same ops untraced, for the tracing overhead; their outputs are checked too
    again, untraced, again_errors = {}, [], {}
    run_ops(work, range(n), again, untraced, again_errors, speed)
    for i, reasons in check_ops(work, again, again_errors).items():
        failed.setdefault(i, reasons)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tr.write(spans_path, T0)

    traced_s, untraced_s = sum(speed.rescale(traced)), sum(speed.rescale(untraced))
    totals = tr.totals()
    offload_calls = totals.get("game.solve_offload", {}).get("calls", 0)
    extra = {
        "game.solve_offload.converged_frac": (
            tr.counts["game.solve_offload.converged"] / offload_calls if offload_calls else 0.0
        ),
        "game.welfare_total.default": (
            sum(w[0] for w in welfare) if args.workload == "game-audit" else 0.0
        ),
        "game.welfare_total.heuristic": sum(w[1] for w in welfare),
        "game.heuristic_below_default": sum(map(work.below_default, outputs.values())),
        "trace.ops": n,
        # share of throughput lost to tracing: 1 - traced ops/s / untraced ops/s
        "trace.overhead_frac": 1.0 - untraced_s / traced_s,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in extra:
            metrics[name] = extra[name]
        elif name in tr.counts:
            metrics[name] = tr.counts[name]
        else:
            span, _, key = name.rpartition(".")
            metrics[name] = totals.get(span, {}).get(key, 0)
    detail = {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "host": speed.summary(),
        "spans": len(tr.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "all_layers": {k: dict(v) for k, v in sorted(totals.items())},
    }
    return work, metrics, PER_LAYER, detail, n, failed


def _reason_counts(failed):
    counts = {}
    for reasons in failed.values():
        for r in reasons:
            key = r.split(":", 1)[0]
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def run_all(args):
    """Every workload in its own process, one after another.

    Each workload's lines are passed through; the last line maps each
    workload to its result.
    """
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    speed = hostspeed.HostSpeed()
    speed.probe()
    if not load_program():
        print(f"error: no fogslice sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            _, setup_s, setup_wall = set_up(
                workloads, args.workload, args.seed, engine_ops(args, 0), out_dir, speed
            )
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0
        run = measure_layers if args.trace else measure
        work, metrics, units, detail, attempted, failed = run(args, workloads, out_dir, speed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for i, reasons in sorted(failed.items()):
        print(f"op {i} failed: {'; '.join(reasons)}", file=sys.stderr)
    detail.update(
        ops=attempted,
        failed_frac=len(failed) / attempted,
        failure_reasons=_reason_counts(failed),
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    for name, unit in units:
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':44s} {detail['failed_frac']:>16.6g} ratio ({len(failed)}/{attempted})")
    if "heuristic_below_default" in detail:
        print(f"  {'heuristic_below_default':44s} {detail['heuristic_below_default']:>16d} games")
    if "op_s_tail_percentile" in detail:
        print(
            f"  op_s_tail is p{detail['op_s_tail_percentile']:.1f} of {attempted} ops "
            f"({detail['op_s_tail_ops_beyond']} beyond)"
        )
    print(json.dumps({"provenance": provenance(args, work.digest)}))
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
