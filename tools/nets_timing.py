"""Per-call times of the network kernels on minibatches of one config's buffer.

    python3 tools/nets_timing.py CONFIG [--reps R]

Imports `trajrl` from this checkout's `src/`, with BLAS on one thread.  Fills
the replay buffer with CONFIG's iteration-1 solves, as `train` does, and draws
CALLS minibatches of the config's size from it.  Then, in this one process,
calls each kernel once per minibatch, R times over, on the networks a run
starts from (`adam_step` on the critic's vectors, `polyak` on the critic
target's, or on the critic's own where the config keeps no target).  Prints
one JSON object: the minimum over the R repeats of the microseconds per call.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":     # before numpy loads: BLAS on one thread
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trajrl import nets, trainer  # noqa: E402
from trajrl.config import load_config  # noqa: E402

CALLS = 200     # minibatches, drawn once; a repeat calls a kernel on each


def _kernels(state, batches):
    """name -> f(batch), one call of each kernel as an update cycle makes it."""
    cfg = state.config
    target = state.critic_target
    # on the critic's own vectors where the config keeps no target
    polyak_from = state.critic if target is None else target
    _, cgrads = nets.critic_loss(state.critic, target, batches[0], cfg.k_s)
    err = trainer._critic_error(state.critic, batches[0])
    return {
        "critic_loss": lambda b: nets.critic_loss(state.critic, target, b, cfg.k_s),
        "actor_loss": lambda b: nets.actor_loss(state.actor, state.critic,
                                                cfg.model, cfg.field, b.xa),
        "std_critic_loss": lambda b: nets.std_critic_loss(state.std, err, b.xa),
        "adam_step": lambda b: nets.adam_step(state.critic.flat_params(),
                                              state.adam_critic, cgrads),
        "polyak": lambda b: nets.polyak(polyak_from, state.critic, cfg.tau),
        "mlp_forward": lambda b: nets.mlp_forward(state.critic, b.xa),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("config", type=Path)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    cfg = load_config(args.config).train
    state = trainer.TrainerState(cfg)
    for res in trainer.solve_iteration(state, 1)[0]:
        if res is not None:
            state.buffer.push_many(trainer.kstep_targets(res, cfg.k_lookahead,
                                                         cfg.model.t_max))
    batches = [state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
               for _ in range(CALLS)]
    us = {}
    for name, call in _kernels(state, batches).items():
        best = float("inf")
        for _ in range(args.reps):
            t0 = time.perf_counter()
            for batch in batches:
                call(batch)
            best = min(best, time.perf_counter() - t0)
        us[name] = round(best / CALLS * 1e6, 1)
    print(json.dumps({"config": str(args.config), "minibatch": cfg.minibatch,
                      "buffer_rows": len(state.buffer), "calls": CALLS,
                      "reps": args.reps, "us_per_call": us}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
