"""Outer training loop: TO batch -> replay buffer -> network updates ->
uncertainty-ranked selection of the next batch's initial states.

The trainer poses every solve and decides what it becomes: it calibrates each
iteration cap from probes solved in the lockstep of the batch they cap,
warm-starts the solver (zeros in iteration 1, actor rollouts later; probes as
their batch), and turns solved trajectories into K-step replay rows.  From
iteration 2 on, the std-critic ranks a pool of candidate starts and the top
fraction is kept.  All randomness is derived from
the run seed, so fixed-seed runs repeat exactly.

Each iteration solves (solve_iteration, which changes no state), learns
(learn_iteration) and closes with an eval of its actor.  Where a second CPU
is spare, a forked child runs the actor's updates beside the critic's and
the std-critic's, and then the eval beside the next solve, which reads
nothing it changes; while it runs, no solve splits across processes, and
the eval's report follows once the next solve is done.  The reports and
networks are those of a run in one process, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nets, procs
from .buffer import ReplayBuffer, SampleBatch
from .envs import (CostField, ModelSpec, Region, TimeState,
                   sample_initial_states)
from .ilqr import (BatchSolveError, Probes, RegularizerConfig, SolveResult,
                   SolverError, solve_batch)


def _key(section: str, default):
    """A TrainConfig field that a config file sets as a key of [section]."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    field: CostField
    n_episodes: int = _key("trainer", 300)           # TO problems in iteration 1
    episode_fraction: float = _key("trainer", 0.25)  # batch fraction from iteration 2 on
    candidate_multiplier: int = _key("trainer", 10)  # candidate pool size per kept start
    m_updates: int = _key("trainer", 500)            # network update cycles per iteration
    k_lookahead: int = _key("trainer", 10)           # TD lookahead steps for targets
    k_s: float = _key("nets", 1.0)                   # weight of the gradient-matching term
    lr_actor: float = _key("nets", 5e-4)
    lr_critic: float = _key("nets", 1e-3)
    lr_std: float = _key("nets", 1e-3)
    minibatch: int = _key("trainer", 128)
    iterations: int = _key("trainer", 5)
    seed: int = _key("trainer", 0)
    bic: bool = _key("trainer", True)
    bootstrap: bool = _key("nets", True)
    tau: float = _key("nets", 0.005)
    sigma_min: float = _key("nets", 1e-3)
    hidden: tuple[int, ...] = _key("nets", (64, 64, 64))
    activation: str = _key("nets", "elu")
    reg_eps: float = _key("solver", 1e-6)
    tol: float = _key("solver", 1e-6)
    p_first: float = _key("solver", 99.0)
    p_later: float = _key("solver", 50.0)
    max_iter_first: Optional[int] = _key("solver", None)  # overrides calibration when set
    max_iter_later: Optional[int] = _key("solver", None)
    calibration_probes: int = _key("solver", 100)
    calibration_cap: int = _key("solver", 1000)
    eval_count: int = _key("trainer", 100)
    eval_use_to: bool = _key("trainer", True)
    eval_max_iter: int = _key("solver", 300)
    buffer_capacity: int = _key("trainer", 2**20)
    randomize_initial_time: bool = _key("trainer", False)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_episodes < 1 or self.candidate_multiplier < 1:
            raise ValueError("n_episodes and candidate_multiplier must be >= 1")
        if not 0.0 < self.episode_fraction <= 1.0:
            raise ValueError("episode_fraction must be in (0, 1]")
        if min(self.k_lookahead, self.m_updates, self.iterations,
               self.buffer_capacity) < 1:
            raise ValueError("k_lookahead, m_updates, iterations and "
                             "buffer_capacity must be >= 1")
        # written so that a NaN fails them too
        if not all(v > 0.0 for v in (self.lr_actor, self.lr_critic, self.lr_std,
                                     self.reg_eps, self.sigma_min)):
            raise ValueError("lr_actor, lr_critic, lr_std, reg_eps and "
                             "sigma_min must be positive")
        if not (self.tol >= 0.0 and self.k_s >= 0.0):
            raise ValueError("tol and k_s must be >= 0")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden}")
        caps = (self.calibration_cap, self.eval_max_iter, self.max_iter_first, self.max_iter_later)
        if min(self.eval_count, self.minibatch, *(c for c in caps if c is not None)) < 1:
            raise ValueError("eval_count, minibatch and the iteration caps must be >= 1")
        if self.activation not in nets._ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.calibration_probes < 10:
            raise ValueError("calibration_probes must be >= 10")
        if not (0.0 < self.p_first <= 100.0 and 0.0 < self.p_later <= 100.0):
            raise ValueError("p_first and p_later must be in (0, 100]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.iterations > 1 and self.later_batch < 1:
            raise ValueError("episode_fraction * n_episodes must round to >= 1 problems")

    @property
    def later_batch(self) -> int:
        return int(round(self.episode_fraction * self.n_episodes))


@dataclass(frozen=True)
class IterationReport:
    """One iteration's outcome; `reports.csv` has a column per field."""

    iteration: int
    episodes_cum: int       # TO problems posed so far, failed ones included
    eval_mean_cost: float   # over the eval starts that did not fail
    eval_failed: int
    to_cost_mean: float     # over the solved TO problems
    to_cost_median: float
    converged_frac: float
    to_failed: int          # TO problems that failed and left no replay rows
    critic_loss_mean: float
    std_loss_mean: float
    t_to_s: float           # sampling, BIC, probes, warm starts, solve, targets
    t_nets_s: float         # the updates, or a child's fork and the wait for its actor
    t_eval_s: float         # the eval, or the wait for the child's result


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
        self.buffer = ReplayBuffer(model.n, model.t_max,
                                   capacity=config.buffer_capacity)
        self.rng_batches = np.random.default_rng(_seed_seq(config.seed, 5))
        self.eval_starts = sample_initial_states(
            model, config.eval_count, _seed_int(config.seed, 3),
            Region.HARD_REGION)
        # the cap of iterations 2 on; None until calibrated.  Iteration 1's
        # cap is config.max_iter_first, or calibrated in its own solve and
        # not kept: nothing reads it afterwards
        self.max_iter = config.max_iter_later
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


def _assign_start_times(starts, model, cfg, iter_idx):
    if not cfg.randomize_initial_time:
        return starts
    rng = np.random.default_rng(_seed_seq(cfg.seed, 7, iter_idx))
    ts = rng.integers(0, model.t_max, size=len(starts))
    return [TimeState(s.x, int(t)) for s, t in zip(starts, ts)]


def _warmstarts(state: TrainerState, starts, first: bool) -> list[np.ndarray]:
    """Zeros in iteration 1 (first), else the actor's rollouts, in one call."""
    model = state.config.model
    if first:
        return [np.zeros((model.t_max - s.t, model.m)) for s in starts]
    return [r.U for r in nets.actor_rollout(state.actor, model,
                                            state.config.field, starts)]


def _solve_each(cfg: TrainConfig, starts, warms, max_iter: int,
                probes: Optional[Probes] = None) -> list[Optional[SolveResult]]:
    """solve_batch on cfg's model, cost and solver keys, where a problem fails
    alone: its result is None.  Only when every problem fails -- every probe,
    or every one after the probes -- is a BatchSolveError raised, for them."""
    try:
        return solve_batch(cfg.model, cfg.field, starts, warms, max_iter,
                           RegularizerConfig(cfg.reg_eps), cfg.tol, probes)
    except BatchSolveError as err:
        n = probes.n if probes else 0
        for lo, hi in ((0, n), (n, len(starts))):
            if lo < hi and all(i in err.errors for i in range(lo, hi)):
                raise BatchSolveError({i - lo: err.errors[i] for i in range(lo, hi)},
                                      err.results[lo:hi]) from None
        return err.results


def nearest_rank(counts, percentile: float) -> int:
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(counts)
    if not ordered:
        raise ValueError("empty count set")
    idx = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
    return ordered[idx]


def calibrate_max_iter(state: TrainerState, first: bool, starts: list[TimeState]
                       ) -> tuple[list[TimeState], list[np.ndarray], Probes]:
    """Pose the solve that calibrates the iteration cap of iteration 1 (first)
    or of the later ones: calibration_probes workspace starts in front of the
    batch `starts`, all warm-started as that batch is, in one call.  Returns
    the starts, the warm starts and solve_batch's `probes`.

    Solved at calibration_cap, the probes set the batch's cap in its own
    lockstep: the p_first (p_later) nearest-rank percentile of their
    iteration counts, a probe that fails or does not converge counting as
    calibration_cap.  Iteration 1's cap is read by its batch alone, so its
    probes are marked batch_only: they stop once no batch problem is still
    running, and their results no longer tell the cap.  The later cap is
    kept for iterations 3 on, so its probes run until it is known, and
    `_calibrated_cap` reads it back from their results.
    """
    cfg = state.config
    probes = sample_initial_states(cfg.model, cfg.calibration_probes,
                                   _seed_int(cfg.seed, 2 if first else 4),
                                   Region.WORKSPACE)
    n = len(probes)
    starts = probes + list(starts)
    # the rank is the percentile of the ranks 1..n themselves
    rank = nearest_rank(range(1, n + 1), cfg.p_first if first else cfg.p_later)
    return starts, _warmstarts(state, starts, first), Probes(n, rank, first)


def _calibrated_cap(cfg: TrainConfig, probe_results) -> int:
    """The later cap that the probes' results fix (see calibrate_max_iter)."""
    cap = cfg.calibration_cap
    return nearest_rank([r.iters_used if r is not None and r.converged else cap
                         for r in probe_results], cfg.p_later)


def kstep_targets(result: SolveResult, K: int, t_max: int) -> SampleBatch:
    """Replay rows of one solved trajectory, one per step k = 0..T.

    Row k holds the augmented state [x_k, t_k], the raw K'-step partial
    cost-to-go with K' = min(K, T-k), its state gradient, and the augmented
    state K' steps later.  A window that reaches the horizon takes the tail
    sum of the step costs, terminal cost included; a shorter one sums its K
    step costs.  The gradient targets are the solver's cost-to-go gradients.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    traj = result.traj
    t_hor = traj.horizon
    steps = np.arange(t_hor + 1)
    xa = np.column_stack([traj.X, traj.t0 + steps])
    v_bar = np.cumsum(traj.step_costs[::-1])[::-1].copy()
    if K < t_hor:
        # one sum per window, not cumsum differences, so that each target
        # rounds exactly as step_costs[k:k+K].sum() does
        windows = sliding_window_view(traj.step_costs[:t_hor], K)
        v_bar[:t_hor - K] = windows[:t_hor - K].sum(axis=1)
    return SampleBatch(xa, v_bar, result.V_bar_x,
                       xa[np.minimum(steps + K, t_hor)], t_max)


class _Eval:
    """The eval that closes an iteration: evaluate_policy_costs of its actor,
    which the actor's child sends once its updates are done (see
    learn_iteration), or which finish() runs in this process where no child
    was forked.  t_eval_s is this process's own time on it: the wait for the
    child's result, or the whole eval."""

    def __init__(self, state: TrainerState, child: Optional[procs.Child]):
        cfg = state.config
        self._run = partial(evaluate_policy_costs, state.actor, cfg,
                            state.eval_starts, cfg.eval_use_to)
        self.child = child

    def kill(self):
        if self.child is not None:
            self.child.kill()

    def finish(self, report) -> IterationReport:
        """report given the eval's fields; called once, raises the eval's error."""
        t = time.perf_counter()
        costs = self._run() if self.child is None else self.child.join()
        ok = np.isfinite(costs)
        return report(eval_mean_cost=float(costs[ok].mean()),
                      eval_failed=int(np.count_nonzero(~ok)),
                      t_eval_s=time.perf_counter() - t)


def _actor_update(state: TrainerState, xa: np.ndarray):
    """One actor update on the minibatch states xa, against state.critic."""
    cfg = state.config
    _, grads, _ = nets.actor_loss(state.actor, state.critic, cfg.model, cfg.field, xa)
    params, state.adam_actor = nets.adam_step(state.actor.flat_params(),
                                              state.adam_actor, grads)
    state.actor = state.actor.with_params(params)


def _critic_error(critic: nets.Mlp, batch: SampleBatch) -> np.ndarray:
    """The critic's error on batch's values, which the std-critic learns."""
    return batch.v_bar - nets.mlp_forward(critic, batch.xa)[:, 0]


def _actor_child(state: TrainerState, read_into):
    """The actor's process (see learn_iteration), in its forked copy of state,
    drawing the minibatches that the parent draws beside it: the actor
    updates, each on the critic the parent sends; then the actor and its
    Adam state, the final critic's error on each std-critic minibatch, and
    the eval's costs."""
    cfg = state.config
    for _ in range(cfg.m_updates):
        batch = state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
        theta = np.empty_like(state.critic.flat_params())
        read_into(theta)
        state.critic = state.critic.with_params(theta)
        _actor_update(state, batch.xa)
    yield state.actor.flat_params(), state.adam_actor
    for _ in range(cfg.m_updates):
        yield _critic_error(state.critic, state.buffer.sample_minibatch(
            cfg.minibatch, state.rng_batches))
    return evaluate_policy_costs(state.actor, cfg, state.eval_starts,
                                 cfg.eval_use_to)


def solve_iteration(state: TrainerState, iter_idx: int):
    """An iteration's first phase: sample the starts, apply BIC, pose the
    probes and warm starts, and solve.  It changes no state, so the previous
    iteration's eval may run beside it.  Returns the results (see
    _solve_each), solve_batch's probes or None, and its time.
    """
    cfg = state.config
    model = cfg.model
    first = iter_idx == 1
    t0 = time.perf_counter()
    n_sel = cfg.n_episodes if first else cfg.later_batch
    bic = cfg.bic and not first
    # candidates carry their start times, so BIC ranks the (x, t) it solves
    starts = _assign_start_times(sample_initial_states(
        model, cfg.candidate_multiplier * n_sel if bic else n_sel,
        _seed_int(cfg.seed, 1, iter_idx), Region.WORKSPACE), model, cfg, iter_idx)
    if bic:
        starts = select_initial_states_bic(starts, state.std, n_sel)
    max_iter = cfg.max_iter_first if first else state.max_iter
    probes = None
    if max_iter is None:
        # each cap is calibrated when first needed, the later one with the
        # actor trained in iteration 1, by probes in the batch's solve
        starts, warms, probes = calibrate_max_iter(state, first, starts)
        max_iter = cfg.calibration_cap
    else:
        warms = _warmstarts(state, starts, first)
    results = _solve_each(cfg, starts, warms, max_iter, probes)
    return results, probes, time.perf_counter() - t0


def learn_iteration(state: TrainerState, iter_idx: int, results, probes, t_solve):
    """An iteration's second phase, on solve_iteration's outcome: the later
    cap's readback, the replay rows, the network updates, and the eval of the
    updated actor.  Returns the _Eval and the report but the eval's fields.

    Update i draws minibatch i, steps the critic (and its target) on it, and
    then the actor against that new critic; the std-critic's updates follow,
    on minibatches drawn after the m_updates of the loop, each learning the
    final critic's error on its minibatch.  Where a CPU is spare, the
    actor's updates run in a forked child (_actor_child) beside the
    critic's: the parent sends each updated critic through the child's feed,
    and the child draws the same minibatches from its copy of rng_batches
    and the buffer.  It sends back the actor and its Adam state, then the
    critic's errors as the parent's std-critic updates take them, and goes
    on to the eval, beside those updates and the next solve; while it runs,
    no solve splits (see solve_batch).  The bits are those of the loop in
    one process.
    """
    cfg = state.config
    model = cfg.model
    t0 = time.perf_counter()
    if probes is not None:
        if iter_idx > 1:
            state.max_iter = _calibrated_cap(cfg, results[:probes.n])
        results = results[probes.n:]
    solved = [r for r in results if r is not None]
    for res in solved:
        state.buffer.push_many(kstep_targets(res, cfg.k_lookahead, model.t_max))
    state.episodes_cum += len(results)

    costs = np.array([r.cost for r in solved])
    conv = float(np.mean([r.converged for r in solved]))
    t_to = t_solve + time.perf_counter() - t0

    t1 = time.perf_counter()
    child = (procs.Child(partial(_actor_child, state), feed=True)
             if procs.spare_cpu() else None)
    critic_losses = np.empty(cfg.m_updates)
    std_losses = np.empty(cfg.m_updates)
    try:
        for i in range(cfg.m_updates):
            batch = state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
            critic_losses[i], cgrads = nets.critic_loss(
                state.critic, state.critic_target if cfg.bootstrap else None,
                batch, cfg.k_s)
            params, state.adam_critic = nets.adam_step(
                state.critic.flat_params(), state.adam_critic, cgrads)
            state.critic = state.critic.with_params(params)
            state.critic_target = nets.polyak(state.critic_target, state.critic,
                                              cfg.tau)
            if child is None:
                _actor_update(state, batch.xa)
            else:
                child.send(params)
        if child is not None:
            params, state.adam_actor = child.recv()
            state.actor = state.actor.with_params(params)
        for i in range(cfg.m_updates):
            batch = state.buffer.sample_minibatch(cfg.minibatch, state.rng_batches)
            err = _critic_error(state.critic, batch) if child is None else child.recv()
            std_losses[i], sgrads = nets.std_critic_loss(state.std, err, batch.xa)
            params, state.adam_std = nets.adam_step(
                state.std.flat_params(), state.adam_std, sgrads)
            state.std = state.std.with_params(params)
    except BaseException:
        if child is not None:
            child.kill()
        raise
    t_nets = time.perf_counter() - t1

    return _Eval(state, child), partial(
        IterationReport,
        iteration=iter_idx,
        episodes_cum=state.episodes_cum,
        to_cost_mean=float(costs.mean()),
        to_cost_median=float(np.median(costs)),
        converged_frac=conv,
        to_failed=len(results) - len(solved),
        critic_loss_mean=float(critic_losses.mean()),
        std_loss_mean=float(std_losses.mean()),
        t_to_s=t_to,
        t_nets_s=t_nets,
    )


def evaluate_policy_costs(actor: nets.Mlp, cfg: TrainConfig,
                          eval_starts: list[TimeState], use_to: bool) -> np.ndarray:
    """Per-start cost of actor rollouts, optionally (use_to) refined by a
    solve warm-started from the rollout, capped at cfg.eval_max_iter.

    A start fails alone: its cost is nan when its solve fails, or when its
    rollout cost is not finite and use_to is off.  Only when every start
    fails is a BatchSolveError raised.
    """
    if not eval_starts:
        raise ValueError("eval_starts must be non-empty")
    results = nets.actor_rollout(actor, cfg.model, cfg.field, eval_starts)
    if use_to:
        results = _solve_each(cfg, eval_starts, [r.U for r in results],
                              cfg.eval_max_iter)
    costs = np.array([np.nan if r is None else r.cost for r in results])
    costs[~np.isfinite(costs)] = np.nan
    if np.isnan(costs).all():
        raise BatchSolveError(
            {i: SolverError("non-finite cost under the actor's controls")
             for i in range(len(costs))}, [None] * len(costs))
    return costs


def train(config: TrainConfig, checkpoint_cb: Optional[Callable] = None,
          report_cb: Optional[Callable] = None):
    """Full training run; returns (actor, critic, std_critic, reports).

    Iteration j runs solve_iteration, reports iteration j-1, runs
    learn_iteration, calls checkpoint_cb(state), and reports at once where
    its eval ran in this process.  So checkpoint_cb fires once per completed
    iteration, and an abort leaves the last completed iteration's networks.
    Where a spare CPU runs the actor's updates and the eval in a child,
    report_cb(report) fires once the next solve has returned or raised, or
    after the last iteration; a failed eval aborts there, its error raised
    in place of a failed solve's, and a failed actor update aborts the
    iteration it belongs to.  An interrupt (a BaseException that is not an
    Exception) kills the child at once, and its report is lost.
    """
    state = TrainerState(config)
    reports: list[IterationReport] = []
    pending = None      # an _Eval not yet finished, and its report

    def report():
        # the pending eval's report, once it is done; raises the eval's error
        nonlocal pending
        if pending is None:
            return
        (evaluation, fields), pending = pending, None
        reports.append(evaluation.finish(fields))
        if report_cb is not None:
            report_cb(reports[-1])

    try:
        for j in range(1, config.iterations + 1):
            try:
                solved = solve_iteration(state, j)
            except Exception:
                report()
                raise
            report()
            pending = learn_iteration(state, j, *solved)
            del solved      # so the results are freed before the next solve
            if checkpoint_cb is not None:
                checkpoint_cb(state)
            if pending[0].child is None:
                report()
        report()
    finally:
        if pending is not None:
            pending[0].kill()
    return state.actor, state.critic, state.std, reports


def toy1d_diagnostic(config: TrainConfig, grid: int,
                     naive_max_iter: int = 400) -> dict[str, np.ndarray]:
    """Value curves over a dense 1D grid of starts.

    Solves every grid start with the naive warm start to convergence (the
    piecewise-continuous reference value and the basin assignment via final
    states), then trains for one iteration and evaluates critic and
    std-critic at t=0 on the same grid.  That run's eval is discarded, so it
    takes rollouts only, which draw no randomness and change no network.
    """
    model = config.model
    if model.name != "toy1d":
        raise ValueError("diagnostic requires the toy1d model")
    lo, hi = model.region_box(Region.WORKSPACE)
    xs = np.linspace(lo[0], hi[0], grid)
    starts = [TimeState(np.array([x]), 0) for x in xs]
    warms = [np.zeros((model.t_max, model.m)) for _ in starts]
    results = solve_batch(model, config.field, starts, warms, naive_max_iter,
                          RegularizerConfig(config.reg_eps), config.tol)
    v_bar = np.array([r.cost for r in results])
    x_final = np.array([r.traj.X[-1, 0] for r in results])

    actor, critic, std, _ = train(replace(config, iterations=1, eval_use_to=False))
    xa = np.stack([s.augmented for s in starts])
    v_critic = nets.mlp_forward(critic, xa)[:, 0]
    v_std = nets.mlp_forward(std, xa)[:, 0]
    return {"x0": xs, "v_bar": v_bar, "v_critic": v_critic, "v_std": v_std,
            "x_final": x_final}
