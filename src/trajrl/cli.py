"""Command-line entry point.

Subcommands: train, eval, demo1d.  Every command writes its outputs
plus a manifest.json into --out.  Exit codes: 0 success, 2 config error,
3 checkpoint error, 4 model mismatch, 1 runtime failure.  `eval` writes nan
for a start whose rollout or solve failed, and exits 1 only when every start
failed.  It costs the actor's rollouts, refined by a solve (capped at [solver]
eval_max_iter) only under --with-to; [trainer] eval_use_to sets the same choice
for the eval that closes each iteration of a `train` run.

The run seed is taken from --seed when given, else from the CACTO_SEED
environment variable when set, else from the config's trainer seed;
manifest.json records which one as seed_source (cli / env / config).
`train --variant` (see VARIANTS) overrides the config's trainer settings only
when given; manifest.json records it as variant (null when not given).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, nets
from .config import ConfigError, RunConfig, load_config
from .envs import Region, sample_initial_states, toy1d_cost
from .trainer import (IterationReport, evaluate_policy_costs,
                      toy1d_diagnostic, train)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_MODEL_MISMATCH = 4

VARIANTS = {
    "bic": dict(bic=True),
    "reduced": dict(bic=False),
    "baseline": dict(bic=False, episode_fraction=1.0),
}


class CheckpointError(Exception):
    pass


class ModelMismatch(Exception):
    pass


def _start_run(args, rc: RunConfig, seed: int, seed_source: str) -> Path:
    """Make the output directory (--out, else out_dir) and its manifest.json."""
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "build": f"trajrl-{__version__}",
        "config_hash": rc.config_hash,
        "config": rc.raw,
        "seeds": [seed],
        "seed_source": seed_source,
        "variant": getattr(args, "variant", None),
        "out_dir": str(out),
        "timings_file": "timings.json",
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return out


def _write_timings(out: Path, phases: dict[str, float]):
    with open(out / "timings.json", "w") as fh:
        json.dump({k: round(v, 3) for k, v in phases.items()}, fh, indent=2)


def _resolve_seed(args, rc: RunConfig) -> tuple[int, str]:
    """The run seed and where it came from: --seed, CACTO_SEED, config."""
    if args.seed is not None:
        seed, source, label = args.seed, "cli", "--seed"
    elif (env := os.environ.get("CACTO_SEED")) is not None:
        try:
            seed, source, label = int(env), "env", "CACTO_SEED"
        except ValueError:
            raise ConfigError(f"CACTO_SEED must be an integer, got {env!r}") \
                from None
    else:
        return rc.train.seed, "config"      # TrainConfig rejects seed < 0
    if seed < 0:
        raise ConfigError(f"{label} must be a non-negative integer, got {seed}")
    return seed, source


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def cmd_train(args) -> int:
    rc = load_config(args.config)
    seed, seed_source = _resolve_seed(args, rc)
    cfg = replace(rc.train, seed=seed, **VARIANTS.get(args.variant, {}))
    out = _start_run(args, rc, seed, seed_source)

    report_file = open(out / "reports.csv", "w", newline="")
    writer = csv.writer(report_file)
    writer.writerow([f.name for f in fields(IterationReport)])

    def on_report(rep):
        # phase times (the *_s columns) to the millisecond
        writer.writerow([_fmt(round(v, 3) if name.endswith("_s") else v)
                         for name, v in asdict(rep).items()])
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
        # where a spare CPU runs an eval in a child beside the next iteration,
        # only the wait for its result (see trainer.learn_iteration)
        "eval_s": sum(r.t_eval_s for r in reports),
    })
    print(f"trained {cfg.iterations} iterations "
          f"({reports[-1].episodes_cum} episodes); "
          f"outputs in {out}")
    return EXIT_OK


def _load_actor(path, rc: RunConfig):
    try:
        mlp, meta = nets.load_checkpoint(path)
    except (OSError, KeyError, TypeError, ValueError) as err:
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
    out = _start_run(args, rc, seed, seed_source)

    region = Region.HARD_REGION if args.region == "hard" else Region.WORKSPACE
    starts = sample_initial_states(rc.model, rc.train.eval_count,
                                   seed, region)
    t0 = time.perf_counter()
    costs = evaluate_policy_costs(actor, rc.train, starts, use_to=args.with_to)
    _write_timings(out, {"total_s": time.perf_counter() - t0})

    _write_csv(out / "eval_costs.csv",
               ["start_index", "cost"] + [f"x{i}" for i in range(rc.model.n)],
               ([i, c, *s.x] for i, (s, c) in enumerate(zip(starts, costs))))
    ok = np.isfinite(costs)
    print(f"mean cost over {ok.sum()} of {len(costs)} {args.region} starts "
          f"({'TO-refined' if args.with_to else 'rollout'}): "
          f"{float(costs[ok].mean()):.6f}; {np.count_nonzero(~ok)} failed")
    return EXIT_OK


def cmd_demo1d(args) -> int:
    rc = load_config(args.config)
    if rc.model.name != "toy1d":
        raise ModelMismatch(f"demo1d requires a toy1d config, got '{rc.model.name}'")
    seed, seed_source = _resolve_seed(args, rc)
    cfg = replace(rc.train, seed=seed)
    out = _start_run(args, rc, seed, seed_source)

    t0 = time.perf_counter()
    table = toy1d_diagnostic(cfg, grid=args.grid)
    _write_timings(out, {"total_s": time.perf_counter() - t0})

    _write_csv(out / "demo1d_curves.csv",
               ["x0", "v_bar_to", "v_critic", "v_std", "x_final"],
               zip(table["x0"], table["v_bar"], table["v_critic"], table["v_std"],
                   table["x_final"]))
    _write_csv(out / "cost_curve.csv", ["x", "cost"],
               ((x, toy1d_cost(x)) for x in table["x0"]))
    print(f"wrote diagnostic curves for {len(table['x0'])} grid starts to {out}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajrl",
        description="Trajectory-optimization-driven actor-critic training")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a full training experiment")
    p_train.add_argument("config")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--variant", choices=sorted(VARIANTS), default=None)
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
    p_eval.set_defaults(func=cmd_eval)

    p_demo = sub.add_parser("demo1d", help="1D value-discontinuity diagnostic")
    p_demo.add_argument("config")
    p_demo.add_argument("--grid", type=_positive_int, default=400)
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=cmd_demo1d)
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
