"""Outer training loop: TO batch -> replay buffer -> network updates ->
uncertainty-ranked selection of the next batch's initial states.

Iteration 1 samples starts uniformly and warm-starts the solver naively; from
iteration 2 on, a pool of candidate starts is ranked by the std-critic and the
top fraction is kept, warm-started by actor rollouts.  All randomness is
derived from the run seed, so fixed-seed runs repeat exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import nets
from .buffer import ReplayBuffer
from .envs import (CostField, ModelSpec, Region, TimeState,
                   sample_initial_states)
from .ilqr import (RegularizerConfig, calibrate_max_iter, kstep_targets,
                   solve_batch)


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    field: CostField
    n_episodes: int = 300               # TO problems in iteration 1
    episode_fraction: float = 0.25      # batch fraction from iteration 2 on
    candidate_multiplier: int = 10      # candidate pool size per kept start
    m_updates: int = 500                # network update cycles per iteration
    k_lookahead: int = 10               # TD lookahead steps for targets
    k_s: float = 1.0                    # weight of the gradient-matching term
    lr_actor: float = 5e-4
    lr_critic: float = 1e-3
    lr_std: float = 1e-3
    minibatch: int = 128
    iterations: int = 5
    seed: int = 0
    bic: bool = True
    bootstrap: bool = True
    tau: float = 0.005
    sigma_min: float = 1e-3
    hidden: tuple[int, ...] = (64, 64, 64)
    activation: str = "elu"
    reg_eps: float = 1e-6
    tol: float = 1e-6
    p_first: float = 99.0
    p_later: float = 50.0
    max_iter_first: Optional[int] = None      # overrides calibration when set
    max_iter_later: Optional[int] = None
    calibration_probes: int = 100
    calibration_cap: int = 1000
    eval_count: int = 100
    eval_use_to: bool = True
    eval_max_iter: int = 300
    buffer_capacity: int = 2**20
    randomize_initial_time: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.n_episodes < 1 or self.candidate_multiplier < 1:
            raise ValueError("n_episodes and candidate_multiplier must be >= 1")
        if not 0.0 < self.episode_fraction <= 1.0:
            raise ValueError("episode_fraction must be in (0, 1]")
        if self.k_lookahead < 1 or self.m_updates < 1:
            raise ValueError("k_lookahead and m_updates must be >= 1")

    @property
    def later_batch(self) -> int:
        return int(round(self.episode_fraction * self.n_episodes))


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    episodes_cum: int
    to_cost_mean: float
    to_cost_median: float
    converged_frac: float
    critic_loss_mean: float
    std_loss_mean: float
    eval_mean_cost: float
    t_to_s: float
    t_nets_s: float


class TrainerState:
    """Mutable bundle carried across iterations."""

    def __init__(self, config: TrainConfig):
        self.config = config
        model = config.model
        lo, hi = model.region_box(Region.WORKSPACE)
        center = np.concatenate([(lo + hi) / 2.0, [0.0]])
        half = np.concatenate([np.maximum((hi - lo) / 2.0, 1e-9),
                               [float(model.t_max)]])
        d_in = model.n + 1
        rng = np.random.default_rng(_seed_seq(config.seed, 0))
        sizes = [d_in, *config.hidden, 1]
        self.critic = nets.init_mlp(sizes, rng, config.activation,
                                    in_center=center, in_half=half)
        self.critic_target = self.critic
        self.actor = nets.init_mlp([d_in, *config.hidden, model.m], rng,
                                   config.activation, head="tanh",
                                   out_scale=model.u_bound,
                                   in_center=center, in_half=half)
        self.std = nets.init_mlp(sizes, rng, config.activation, head="std",
                                 sigma_min=config.sigma_min,
                                 in_center=center, in_half=half)
        self.adam_critic = nets.AdamState.init(self.critic.flat_params(),
                                               lr=config.lr_critic)
        self.adam_actor = nets.AdamState.init(self.actor.flat_params(),
                                              lr=config.lr_actor)
        self.adam_std = nets.AdamState.init(self.std.flat_params(),
                                            lr=config.lr_std)
        self.buffer = ReplayBuffer(model.n, model.m, model.t_max,
                                   capacity=config.buffer_capacity)
        self.rng_batches = np.random.default_rng(_seed_seq(config.seed, 5))
        self.eval_starts = sample_initial_states(
            model, config.eval_count, _seed_int(config.seed, 3),
            Region.HARD_REGION)
        self.reg = RegularizerConfig(eps=config.reg_eps)
        self.max_iter_first: Optional[int] = config.max_iter_first
        self.max_iter_later: Optional[int] = config.max_iter_later
        self.episodes_cum = 0


def _seed_seq(seed: int, *tags: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed)] + [int(t) for t in tags])


def _seed_int(seed: int, *tags: int) -> int:
    return int(_seed_seq(seed, *tags).generate_state(1)[0])


def select_initial_states_bic(candidates: list[TimeState], std_net: nets.Mlp,
                              keep: int) -> list[TimeState]:
    """Keep the candidates with the largest predicted critic uncertainty.

    Stable sort: ties resolve by candidate index; output in descending score
    order.
    """
    if keep > len(candidates):
        raise ValueError(f"keep={keep} exceeds {len(candidates)} candidates")
    xa = np.stack([c.augmented for c in candidates])
    scores = nets.mlp_forward(std_net, xa)[:, 0]
    order = np.argsort(-scores, kind="stable")[:keep]
    return [candidates[i] for i in order]


def _naive_warmstart(model: ModelSpec, start: TimeState) -> np.ndarray:
    return np.zeros((model.t_max - start.t, model.m))


def _assign_start_times(starts, model, cfg, iter_idx):
    if not cfg.randomize_initial_time:
        return starts
    rng = np.random.default_rng(_seed_seq(cfg.seed, 7, iter_idx))
    ts = rng.integers(0, model.t_max, size=len(starts))
    return [TimeState(s.x, int(t)) for s, t in zip(starts, ts)]


def run_iteration(state: TrainerState, iter_idx: int) -> tuple[TrainerState, IterationReport]:
    cfg = state.config
    model, fld = cfg.model, cfg.field

    t0 = time.perf_counter()
    if iter_idx == 1:
        starts = sample_initial_states(model, cfg.n_episodes,
                                       _seed_int(cfg.seed, 1, iter_idx),
                                       Region.WORKSPACE)
        starts = _assign_start_times(starts, model, cfg, iter_idx)
        warms = [_naive_warmstart(model, s) for s in starts]
        max_iter = state.max_iter_first
    else:
        n_sel = cfg.later_batch
        if cfg.bic:
            cands = sample_initial_states(
                model, cfg.candidate_multiplier * n_sel,
                _seed_int(cfg.seed, 1, iter_idx), Region.WORKSPACE)
            starts = select_initial_states_bic(cands, state.std, n_sel)
        else:
            starts = sample_initial_states(model, n_sel,
                                           _seed_int(cfg.seed, 1, iter_idx),
                                           Region.WORKSPACE)
        starts = _assign_start_times(starts, model, cfg, iter_idx)
        warms = [nets.actor_rollout(state.actor, model, s,
                                    model.t_max - s.t).U for s in starts]
        max_iter = state.max_iter_later
    if max_iter is None:
        raise RuntimeError("iteration cap not resolved; run via train()")

    results = solve_batch(model, fld, starts, warms, max_iter,
                          state.reg, cfg.tol, cfg.workers)
    for res in results:
        state.buffer.push_many(kstep_targets(res, cfg.k_lookahead))
    state.episodes_cum += len(results)

    costs = np.array([r.cost for r in results])
    conv = float(np.mean([r.converged for r in results]))
    t_to = time.perf_counter() - t0

    t1 = time.perf_counter()
    critic_losses = np.empty(cfg.m_updates)
    std_losses = np.empty(cfg.m_updates)
    for i in range(cfg.m_updates):
        batch = state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
        closs, cgrads = nets.critic_loss(
            state.critic, state.critic_target if cfg.bootstrap else None,
            batch, cfg.k_s, cfg.bootstrap)
        params, state.adam_critic = nets.adam_step(
            state.critic.flat_params(), state.adam_critic, cgrads)
        state.critic = state.critic.with_params(params)
        state.critic_target = nets.polyak(state.critic_target, state.critic,
                                          cfg.tau)
        aloss, agrads, _ = nets.actor_loss(state.actor, state.critic,
                                           model, fld, batch.xa)
        params, state.adam_actor = nets.adam_step(
            state.actor.flat_params(), state.adam_actor, agrads)
        state.actor = state.actor.with_params(params)
        critic_losses[i] = closs
    for i in range(cfg.m_updates):
        batch = state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
        sloss, sgrads = nets.std_critic_loss(state.std, state.critic, batch)
        params, state.adam_std = nets.adam_step(
            state.std.flat_params(), state.adam_std, sgrads)
        state.std = state.std.with_params(params)
        std_losses[i] = sloss
    t_nets = time.perf_counter() - t1

    t2 = time.perf_counter()
    eval_mean = evaluate_policy(state.actor, model, fld, state.eval_starts,
                                cfg.eval_use_to, max_iter=cfg.eval_max_iter,
                                reg=state.reg, tol=cfg.tol,
                                workers=cfg.workers)
    t_to += time.perf_counter() - t2

    report = IterationReport(
        iteration=iter_idx,
        episodes_cum=state.episodes_cum,
        to_cost_mean=float(costs.mean()),
        to_cost_median=float(np.median(costs)),
        converged_frac=conv,
        critic_loss_mean=float(critic_losses.mean()),
        std_loss_mean=float(std_losses.mean()),
        eval_mean_cost=float(eval_mean),
        t_to_s=t_to,
        t_nets_s=t_nets,
    )
    return state, report


def evaluate_policy_costs(actor: nets.Mlp, model: ModelSpec, fld: CostField,
                          eval_starts: list[TimeState], use_to: bool,
                          max_iter: int = 300,
                          reg: RegularizerConfig = RegularizerConfig(),
                          tol: float = 1e-6, workers: int = 1) -> np.ndarray:
    """Per-start cost of actor rollouts, optionally refined by a
    full-convergence solve warm-started from the rollout."""
    if not eval_starts:
        raise ValueError("eval_starts must be non-empty")
    rollouts = [nets.actor_rollout(actor, model, s, model.t_max - s.t, fld)
                for s in eval_starts]
    if not use_to:
        return np.array([r.cost for r in rollouts])
    results = solve_batch(model, fld, eval_starts, [r.U for r in rollouts],
                          max_iter, reg, tol, workers)
    return np.array([r.cost for r in results])


def evaluate_policy(actor: nets.Mlp, model: ModelSpec, fld: CostField,
                    eval_starts: list[TimeState], use_to: bool,
                    **kwargs) -> float:
    return float(evaluate_policy_costs(actor, model, fld, eval_starts,
                                       use_to, **kwargs).mean())


def train(config: TrainConfig, checkpoint_cb: Optional[Callable] = None,
          report_cb: Optional[Callable] = None):
    """Full training run; returns (actor, critic, std_critic, reports).

    checkpoint_cb(state) and report_cb(report) fire after every iteration,
    and checkpoint_cb also fires when an iteration aborts, so partial
    results survive.
    """
    state = TrainerState(config)
    model, fld = config.model, config.field
    reports: list[IterationReport] = []

    if state.max_iter_first is None:
        state.max_iter_first = calibrate_max_iter(
            model, fld, config.calibration_probes, config.calibration_cap,
            config.p_first, warmstart_source=None,
            rng_seed=_seed_int(config.seed, 2), reg=state.reg,
            tol=config.tol, workers=config.workers)

    try:
        for j in range(1, config.iterations + 1):
            state, rep = run_iteration(state, j)
            reports.append(rep)
            if checkpoint_cb is not None:
                checkpoint_cb(state)
            if report_cb is not None:
                report_cb(rep)
            if j == 1 and state.max_iter_later is None:
                actor = state.actor
                state.max_iter_later = calibrate_max_iter(
                    model, fld, config.calibration_probes,
                    config.calibration_cap, config.p_later,
                    warmstart_source=lambda s: nets.actor_rollout(
                        actor, model, s, model.t_max - s.t).U,
                    rng_seed=_seed_int(config.seed, 4), reg=state.reg,
                    tol=config.tol, workers=config.workers)
    except Exception:
        if checkpoint_cb is not None:
            checkpoint_cb(state)
        raise
    return state.actor, state.critic, state.std, reports


def toy1d_diagnostic(config: TrainConfig, grid: int = 400,
                     naive_max_iter: int = 400) -> dict[str, np.ndarray]:
    """Value curves over a dense 1D grid of starts.

    Solves every grid start with the naive warm start to convergence (the
    piecewise-continuous reference value and the basin assignment via final
    states), then trains for one iteration and evaluates critic and
    std-critic at t=0 on the same grid.
    """
    model = config.model
    if model.name != "toy1d":
        raise ValueError("diagnostic requires the toy1d model")
    lo, hi = model.region_box(Region.WORKSPACE)
    xs = np.linspace(lo[0], hi[0], grid)
    starts = [TimeState(np.array([x]), 0) for x in xs]
    warms = [_naive_warmstart(model, s) for s in starts]
    results = solve_batch(model, config.field, starts, warms, naive_max_iter,
                          RegularizerConfig(config.reg_eps), config.tol,
                          config.workers)
    v_bar = np.array([r.cost for r in results])
    x_final = np.array([r.traj.X[-1, 0] for r in results])

    actor, critic, std, _ = train(replace(config, iterations=1))
    xa = np.stack([s.augmented for s in starts])
    v_critic = nets.mlp_forward(critic, xa)[:, 0]
    v_std = nets.mlp_forward(std, xa)[:, 0]
    return {"x0": xs, "v_bar": v_bar, "v_critic": v_critic, "v_std": v_std,
            "x_final": x_final}
