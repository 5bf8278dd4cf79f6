"""Command-line entry point.

Subcommands: train, eval, demo1d, bench.  Every command writes its outputs
plus a manifest.json into --out.  Exit codes: 0 success, 2 config error,
3 checkpoint error, 4 model mismatch, 1 runtime failure.

The run seed is taken from --seed when given, else from the CACTO_SEED
environment variable when set, else from the config's trainer seed;
manifest.json records which one as seed_source (cli / env / config).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nets
from .config import ConfigError, RunConfig, load_config
from .envs import Region, sample_initial_states, toy1d_cost
from .ilqr import RegularizerConfig, solve_batch
from .trainer import evaluate_policy_costs, toy1d_diagnostic, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_MODEL_MISMATCH = 4

REPORT_COLUMNS = ["iter", "episodes_cum", "eval_mean_cost", "to_mean_cost",
                  "converged_frac", "critic_loss", "std_loss", "t_to_s",
                  "t_nets_s"]

VARIANTS = {
    "bic": dict(bic=True),
    "reduced": dict(bic=False),
    "baseline": dict(bic=False, episode_fraction=1.0),
}


class CheckpointError(Exception):
    pass


class ModelMismatch(Exception):
    pass


def _build_id() -> str:
    return f"trajrl-{__version__}"


def _write_manifest(out: Path, rc: RunConfig, seeds, seed_source: str,
                    command: str):
    manifest = {
        "command": command,
        "build": _build_id(),
        "config_hash": rc.config_hash,
        "config": rc.raw,
        "seeds": list(seeds),
        "seed_source": seed_source,
        "out_dir": str(out),
        "timings_file": "timings.json",
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_timings(out: Path, phases: dict[str, float]):
    with open(out / "timings.json", "w") as fh:
        json.dump({k: round(v, 3) for k, v in phases.items()}, fh, indent=2)


def _resolve_seed(args, rc: RunConfig) -> tuple[int, str]:
    """The run seed and where it came from: --seed, CACTO_SEED, config."""
    if args.seed is not None:
        return args.seed, "cli"
    env = os.environ.get("CACTO_SEED")
    if env is not None:
        return int(env), "env"
    return rc.train.seed, "config"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_train(args) -> int:
    rc = load_config(args.config)
    seed, seed_source = _resolve_seed(args, rc)
    cfg = replace(rc.train, seed=seed, **VARIANTS[args.variant])
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, rc, [seed], seed_source, "train")

    report_file = open(out / "reports.csv", "w", newline="")
    writer = csv.writer(report_file)
    writer.writerow(REPORT_COLUMNS)

    def on_report(rep):
        writer.writerow([_fmt(v) for v in (
            rep.iteration, rep.episodes_cum, rep.eval_mean_cost,
            rep.to_cost_mean, rep.converged_frac, rep.critic_loss_mean,
            rep.std_loss_mean, round(rep.t_to_s, 3), round(rep.t_nets_s, 3))])
        report_file.flush()

    def on_checkpoint(state):
        for net, kind in ((state.actor, "actor"), (state.critic, "critic"),
                          (state.std, "std_critic")):
            nets.save_checkpoint(out / f"{kind}.json", net, kind,
                                 cfg.model.name, rc.config_hash)

    t0 = time.perf_counter()
    try:
        _, _, _, reports = train(cfg, checkpoint_cb=on_checkpoint,
                                 report_cb=on_report)
    finally:
        report_file.close()
    _write_timings(out, {
        "total_s": time.perf_counter() - t0,
        "to_s": sum(r.t_to_s for r in reports),
        "nets_s": sum(r.t_nets_s for r in reports),
    })
    print(f"trained {cfg.iterations} iterations "
          f"({reports[-1].episodes_cum if reports else 0} episodes); "
          f"outputs in {out}")
    return EXIT_OK


def _load_actor(path, rc: RunConfig):
    try:
        mlp, meta = nets.load_checkpoint(path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        raise CheckpointError(f"cannot load checkpoint {path}: {err}") from None
    if meta["model"] != rc.model.name or mlp.in_dim != rc.model.n + 1:
        raise CheckpointError(
            f"checkpoint is for model '{meta['model']}' "
            f"(input dim {mlp.in_dim}), config wants '{rc.model.name}' "
            f"(input dim {rc.model.n + 1})")
    if meta["kind"] != "actor":
        raise CheckpointError(f"expected an actor checkpoint, got {meta['kind']}")
    return mlp


def cmd_eval(args) -> int:
    rc = load_config(args.config)
    seed, seed_source = _resolve_seed(args, rc)
    actor = _load_actor(args.checkpoint, rc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, rc, [seed], seed_source, "eval")

    region = Region.HARD_REGION if args.region == "hard" else Region.WORKSPACE
    starts = sample_initial_states(rc.model, rc.train.eval_count,
                                   seed, region)
    t0 = time.perf_counter()
    costs = evaluate_policy_costs(
        actor, rc.model, rc.field, starts, use_to=args.with_to,
        max_iter=rc.train.eval_max_iter,
        reg=RegularizerConfig(rc.train.reg_eps), tol=rc.train.tol,
        workers=args.workers or rc.train.workers)
    _write_timings(out, {"total_s": time.perf_counter() - t0})

    with open(out / "eval_costs.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["start_index", "cost"] +
                    [f"x{i}" for i in range(rc.model.n)])
        for i, (s, c) in enumerate(zip(starts, costs)):
            wr.writerow([i, _fmt(float(c))] + [_fmt(float(v)) for v in s.x])
    print(f"mean cost over {len(costs)} {args.region} starts "
          f"({'TO-refined' if args.with_to else 'rollout'}): "
          f"{float(np.mean(costs)):.6f}")
    return EXIT_OK


def cmd_demo1d(args) -> int:
    rc = load_config(args.config)
    if rc.model.name != "toy1d":
        raise ModelMismatch(f"demo1d requires a toy1d config, got '{rc.model.name}'")
    seed, seed_source = _resolve_seed(args, rc)
    cfg = replace(rc.train, seed=seed)
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, rc, [seed], seed_source, "demo1d")

    t0 = time.perf_counter()
    table = toy1d_diagnostic(cfg, grid=args.grid)
    _write_timings(out, {"total_s": time.perf_counter() - t0})

    with open(out / "demo1d_curves.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x0", "v_bar_to", "v_critic", "v_std", "x_final"])
        for row in zip(table["x0"], table["v_bar"], table["v_critic"],
                       table["v_std"], table["x_final"]):
            wr.writerow([_fmt(float(v)) for v in row])
    with open(out / "cost_curve.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "cost"])
        for x in table["x0"]:
            wr.writerow([_fmt(float(x)), _fmt(float(toy1d_cost(x)))])
    print(f"wrote diagnostic curves for {len(table['x0'])} grid starts to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    rc = load_config(args.config)
    seed, seed_source = _resolve_seed(args, rc)
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, rc, [seed], seed_source, "bench")
    model, field = rc.model, rc.field
    reg = RegularizerConfig(rc.train.reg_eps)
    max_iter = rc.train.max_iter_first or 50
    sizes = [int(s) for s in args.batch_sizes.split(",")]
    workers = args.workers or (os.cpu_count() or 1)

    rows = []
    for size in sizes:
        starts = sample_initial_states(model, size, seed, Region.WORKSPACE)
        warms = [np.zeros((model.t_max, model.m)) for _ in starts]
        for w in sorted({1, workers}):
            t0 = time.perf_counter()
            solve_batch(model, field, starts, warms, max_iter, reg,
                        rc.train.tol, workers=w)
            wall = time.perf_counter() - t0
            rows.append((size, w, wall, wall / size))
            print(f"batch {size:5d}  workers {w}: {wall:8.2f} s "
                  f"({wall / size * 1000:7.1f} ms/problem)")
    with open(out / "bench.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["batch_size", "workers", "wall_s", "s_per_problem"])
        for row in rows:
            wr.writerow([_fmt(v) for v in row])
    _write_timings(out, {"total_s": sum(r[2] for r in rows)})
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajrl",
        description="Trajectory-optimization-driven actor-critic training")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a full training experiment")
    p_train.add_argument("config")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--variant", choices=sorted(VARIANTS), default="bic")
    p_train.add_argument("--workers", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained actor checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("config")
    p_eval.add_argument("--region", choices=["hard", "workspace"],
                        default="hard")
    p_eval.add_argument("--with-to", action="store_true",
                        help="refine rollouts with a full-convergence solve")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default="eval_out")
    p_eval.add_argument("--workers", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_demo = sub.add_parser("demo1d", help="1D value-discontinuity diagnostic")
    p_demo.add_argument("config")
    p_demo.add_argument("--grid", type=int, default=400)
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_demo1d)

    p_bench = sub.add_parser("bench", help="time batched solving")
    p_bench.add_argument("config")
    p_bench.add_argument("--batch-sizes", default="10,50,100,250")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ModelMismatch as err:
        print(f"model mismatch: {err}", file=sys.stderr)
        return EXIT_MODEL_MISMATCH
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
