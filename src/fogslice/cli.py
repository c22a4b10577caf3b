"""Command line entry points: run, sweep, validate, oracle.

Exit codes: 0 success, 1 config or input-file error, 2 runtime failure
(a solver invariant violation or an oracle mismatch).
"""

from __future__ import annotations

import argparse
import sys

from . import engine, oracles
from .engine import ConfigError, EngineInvariantError
from .game import load_instance, solve_social_welfare


def _overridden(args) -> engine.ExperimentConfig:
    cfg = engine.load_config(args.config)
    raw = dict(cfg.raw)
    changed = False
    for key in ("slots", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
            changed = True
    if getattr(args, "policy", None) is not None:
        pol = dict(raw.get("policy", {}))
        pol["kind"] = args.policy
        raw["policy"] = pol
        changed = True
    return engine.build_config(raw) if changed else cfg


def _cmd_run(args) -> int:
    cfg = _overridden(args)
    result = engine.run_episode(cfg)
    csv_path, json_path = engine.emit_report(result, args.out)
    print(
        f"{cfg.slots} slots, {cfg.network.n_nodes} nodes, policy {cfg.policy.kind}: "
        f"total welfare {result.total_welfare():.6f}, "
        f"offloaded {result.total_offloaded():.6f}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = engine.load_config(args.config)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    result = engine.run_sweep(
        cfg.raw, args.axis, values, reps=args.reps, workers=args.workers
    )
    csv_path, json_path = engine.emit_sweep(result, args.out)
    for row in result.summary:
        print(
            f"{args.axis}={row['value']}: mean total welfare "
            f"{row['mean_total_welfare']:.6f} +/- {row['stderr_total_welfare']:.6f}, "
            f"mean offloaded {row['mean_total_offloaded']:.6f}"
        )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_validate(args) -> int:
    cfg = engine.load_config(args.config)
    raw = dict(cfg.raw)
    raw["slots"] = 1
    engine.run_episode(engine.build_config(raw))
    print(
        f"ok: {cfg.network.n_nodes} nodes, {cfg.network.n_services} services, "
        f"policy {cfg.policy.kind}, {cfg.slots} slots configured"
    )
    return 0


def _cmd_oracle(args) -> int:
    game = load_instance(args.instance)
    if game.network.n_nodes > 3:
        raise ConfigError(
            f"{args.instance}: oracle replay needs at most 3 nodes, "
            f"got {game.network.n_nodes}"
        )
    solver = solve_social_welfare(game)
    reference = oracles.exhaustive_welfare(game, grid=args.grid)
    gap = abs(solver.welfare - reference) / max(abs(reference), 1.0)
    print(
        f"solver {solver.welfare:.6f} oracle {reference:.6f} "
        f"(grid {args.grid}) rel gap {gap:.2e}"
    )
    if gap > args.tol:
        print(f"FAIL: gap exceeds {args.tol}", file=sys.stderr)
        return 2
    print("PASS")
    return 0


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fogslice",
        description="Simulate energy-harvesting fog networks with sliced resources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode and write a report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--policy", choices=engine.POLICY_KINDS, default=None,
                       help="override the config's policy kind")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--slots", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a seeded grid over one config axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, help="dotted config path, e.g. topology.rtt.tau0")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--reps", type=int, default=1)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes; results do not depend on it")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config and run a single slot")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", help="replay a dumped instance against enumeration")
    p_oracle.add_argument("--instance", required=True,
                          help="instance file written by game.dump_instance")
    p_oracle.add_argument("--grid", type=float, default=0.1)
    p_oracle.add_argument("--tol", type=float, default=1e-3)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except oracles.OracleTooLarge as exc:
        print(f"oracle too large: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except EngineInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
