import copy
import fcntl
import json
import os
import time

import numpy as np
import pytest
from dataclasses import asdict, replace

from trajrl import envs, ilqr, nets, procs, trainer
from trajrl.envs import Region, TimeState
from trajrl.ilqr import BatchSolveError, RegularizerConfig, SolverError, solve_batch
from trajrl.trainer import (IterationReport, TrainConfig, TrainerState,
                            calibrate_max_iter, evaluate_policy_costs,
                            nearest_rank, select_initial_states_bic,
                            toy1d_diagnostic, train)


def _tiny_toy_config(**overrides):
    model = envs.default_model("toy1d")
    field = envs.CostField(control_weight=0.01)
    kw = dict(model=model, field=field, n_episodes=16, episode_fraction=0.25,
              candidate_multiplier=3, m_updates=20, k_lookahead=60,
              minibatch=32, iterations=2, seed=7, reg_eps=0.1,
              max_iter_first=60, max_iter_later=30, eval_count=4,
              eval_use_to=False, eval_max_iter=60, calibration_probes=10,
              calibration_cap=80)
    kw.update(overrides)
    return TrainConfig(**kw)


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Two CPUs on any machine.  Returns a function that lists the pids that
    called os.fork, from any process; a fork while a child is alive fails."""
    log, real_fork = tmp_path / "forks", os.fork

    def fork():
        assert procs._alive == 0, "forked beside a live child"
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    return lambda: [int(p) for p in log.read_text().split()] if log.exists() else []


def _no_fork(monkeypatch):
    """One CPU, and a fork fails the test."""
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)


# -- BIC selection ------------------------------------------------------------------

def _scored_candidates(scores):
    return [TimeState(np.array([s]), 0) for s in scores]


def _linear_std_net():
    # sigma = sigma_min + softplus(w x); w chosen so the raw score is x itself
    return nets.Mlp(weights=(np.array([[1.0, 0.0]]),), biases=(np.zeros(1),),
                    head="std", sigma_min=1e-3)


def test_bic_keeps_largest_scores_descending():
    net = _linear_std_net()
    cands = _scored_candidates(np.linspace(-1.0, 1.0, 10))
    kept = select_initial_states_bic(cands, net, keep=3)
    vals = [c.x[0] for c in kept]
    assert vals == sorted(vals, reverse=True)
    assert vals == [1.0, pytest.approx(7.0 / 9.0 * 1.0 + 0.0, abs=1e-9),
                    pytest.approx(5.0 / 9.0, abs=1e-9)]


def test_bic_stable_tie_break():
    net = _linear_std_net()
    cands = _scored_candidates(np.zeros(6))
    kept = select_initial_states_bic(cands, net, keep=2)
    assert kept[0] is cands[0] and kept[1] is cands[1]


def test_bic_selected_scores_dominate_rejected():
    rng = np.random.default_rng(0)
    net = _linear_std_net()
    cands = _scored_candidates(rng.normal(0.0, 2.0, 1000))
    kept = select_initial_states_bic(cands, net, keep=100)
    kept_scores = {float(c.x[0]) for c in kept}
    rejected = [float(c.x[0]) for c in cands
                if float(c.x[0]) not in kept_scores]
    assert min(kept_scores) >= max(rejected)


def test_bic_rejects_keep_too_large():
    net = _linear_std_net()
    with pytest.raises(ValueError):
        select_initial_states_bic(_scored_candidates([0.0]), net, keep=2)


# -- schedule accounting ---------------------------------------------------------------

def test_single_iteration_solves_exactly_n_episodes():
    cfg = _tiny_toy_config(iterations=1)
    _, _, _, reports = train(cfg)
    assert len(reports) == 1
    assert reports[0].episodes_cum == cfg.n_episodes


def test_cumulative_episode_accounting():
    cfg = _tiny_toy_config(iterations=4)
    _, _, _, reports = train(cfg)
    expected = [cfg.n_episodes + j * round(cfg.episode_fraction * cfg.n_episodes)
                for j in range(4)]
    assert [r.episodes_cum for r in reports] == expected


def test_paper_schedule_300_375():
    # N=300 at 25%: cumulative counts 300, 375 after the first two iterations
    assert 300 + round(0.25 * 300) == 375
    cfg = _tiny_toy_config(n_episodes=12, iterations=3, episode_fraction=0.25)
    _, _, _, reports = train(cfg)
    assert [r.episodes_cum for r in reports] == [12, 15, 18]


def test_baseline_variant_schedule_is_full_batches():
    cfg = _tiny_toy_config(iterations=3, bic=False, episode_fraction=1.0)
    _, _, _, reports = train(cfg)
    assert [r.episodes_cum for r in reports] == [16, 32, 48]


def test_zero_iterations_rejected():
    with pytest.raises(ValueError, match="iterations"):
        _tiny_toy_config(iterations=0)


# -- determinism -----------------------------------------------------------------------

def test_fixed_seed_runs_are_identical():
    cfg = _tiny_toy_config(iterations=2)
    a_actor, a_critic, a_std, a_reports = train(cfg)
    b_actor, b_critic, b_std, b_reports = train(cfg)
    for pa, pb in ((a_actor, b_actor), (a_critic, b_critic), (a_std, b_std)):
        np.testing.assert_array_equal(pa.flat_params(), pb.flat_params())
    for ra, rb in zip(a_reports, b_reports):
        assert ra.episodes_cum == rb.episodes_cum
        assert ra.to_cost_mean == rb.to_cost_mean
        assert ra.eval_mean_cost == rb.eval_mean_cost
        assert ra.critic_loss_mean == rb.critic_loss_mean
        assert ra.std_loss_mean == rb.std_loss_mean


def test_different_seeds_differ():
    a = train(_tiny_toy_config(iterations=1, seed=1))[3]
    b = train(_tiny_toy_config(iterations=1, seed=2))[3]
    assert a[0].to_cost_mean != b[0].to_cost_mean


# -- evaluate_policy_costs --------------------------------------------------------------

def _trained_tiny():
    cfg = _tiny_toy_config(iterations=1)
    actor, critic, std, _ = train(cfg)
    return cfg, actor


def test_evaluate_single_start_equals_trajectory_cost():
    cfg, actor = _trained_tiny()
    start = TimeState(np.array([1.0]), 0)
    traj = nets.actor_rollout(actor, cfg.model, cfg.field, [start])[0]
    costs = evaluate_policy_costs(actor, replace(cfg, eval_use_to=False), [start])
    assert costs.mean() == pytest.approx(traj.cost, abs=1e-12)


def test_evaluate_with_to_never_worse_than_rollout():
    cfg, actor = _trained_tiny()
    starts = envs.sample_initial_states(cfg.model, 6, 11, Region.HARD_REGION)
    plain = evaluate_policy_costs(actor, replace(cfg, eval_use_to=False), starts)
    refined = evaluate_policy_costs(
        actor, replace(cfg, eval_use_to=True, eval_max_iter=80), starts)
    assert np.all(refined <= plain + 1e-9)


def test_evaluate_requires_starts():
    cfg, actor = _trained_tiny()
    with pytest.raises(ValueError):
        evaluate_policy_costs(actor, replace(cfg, eval_use_to=False), [])


def test_non_finite_rollout_cost_fails_its_eval_start(monkeypatch):
    cfg, actor = _trained_tiny()
    cfg = replace(cfg, eval_use_to=False)
    starts = envs.sample_initial_states(cfg.model, 4, 11, Region.HARD_REGION)
    want = evaluate_policy_costs(actor, cfg, starts)
    real = nets.actor_rollout

    def overflowing(bad):
        def rollout(*args):
            trajs = real(*args)
            for i in bad:
                trajs[i].step_costs[-1] = np.inf
            return trajs
        return rollout

    monkeypatch.setattr(nets, "actor_rollout", overflowing({1}))
    got = evaluate_policy_costs(actor, cfg, starts)
    assert np.isnan(got[1])
    assert np.delete(got, 1).tobytes() == np.delete(want, 1).tobytes()
    monkeypatch.setattr(nets, "actor_rollout", overflowing(range(4)))
    with pytest.raises(BatchSolveError, match="4 of 4 problems failed"):
        evaluate_policy_costs(actor, cfg, starts)


def _failing_eval_solves(monkeypatch, cfg, failing, log):
    """Make the eval solves (the only ones at eval_max_iter) fail the
    problems failing(count, evals_before) names.  An eval, in a child process
    or not, appends the costs of the others to the file log as one line;
    returns a function that reads them back, per eval."""
    def solve(model, field, starts, warms, max_iter, *args):
        results = solve_batch(model, field, starts, warms, max_iter, *args)
        if max_iter != cfg.eval_max_iter:
            return results
        before = len(log.read_text().splitlines()) if log.exists() else 0
        bad = set(failing(len(results), before))
        with open(log, "a") as fh:
            fh.write(json.dumps([r.cost for i, r in enumerate(results)
                                 if i not in bad]) + "\n")
        for i in bad:
            results[i] = None
        raise BatchSolveError({i: SolverError(f"eval problem {i} failed")
                               for i in bad}, results)

    monkeypatch.setattr(trainer, "solve_batch", solve)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


def test_failed_eval_problem_counts_and_leaves_the_mean(monkeypatch, tmp_path):
    cfg = _tiny_toy_config(eval_use_to=True, eval_max_iter=70)
    others = _failing_eval_solves(monkeypatch, cfg, lambda n, _: {1},
                                  tmp_path / "evals")
    reports = train(cfg)[3]
    assert len(reports) == cfg.iterations == len(others())
    for rep, costs in zip(reports, others()):
        assert rep.eval_failed == 1 and len(costs) == cfg.eval_count - 1
        assert rep.eval_mean_cost == np.array(costs).mean()


def test_run_ends_when_every_eval_problem_fails(monkeypatch, tmp_path):
    cfg = _tiny_toy_config(eval_use_to=True, eval_max_iter=70)
    _failing_eval_solves(monkeypatch, cfg, lambda n, _: range(n),
                         tmp_path / "evals")
    with pytest.raises(BatchSolveError, match="4 of 4 problems failed"):
        train(cfg)


# -- eval in a child process, beside the next iteration --------------------------------

def _params(*mlps):
    return [None if m is None else m.flat_params().tobytes() for m in mlps]


def _recording_train(cfg):
    """train(cfg); returns its outcome (the reports, or the exception it
    raised), each checkpoint as (actor, nets' bytes, episodes_cum, the
    whole state's bytes), and the reports that report_cb saw."""
    checkpoints, seen = [], []

    def checkpoint(state):
        checkpoints.append((state.actor, _params(state.actor, state.critic, state.std),
                            state.episodes_cum, _state_bytes(state)))

    try:
        out = train(cfg, checkpoint_cb=checkpoint, report_cb=seen.append)[3]
    except Exception as err:  # noqa: BLE001 - the outcome under test
        out = err
    return out, checkpoints, seen


def _without_times(rep):
    return {k: v for k, v in asdict(rep).items() if not k.endswith("_s")}


def test_forked_evals_report_the_checkpointed_actor_bitwise(monkeypatch, forks):
    # each report's eval equals an in-process eval of the actor checkpointed
    # with it, and the reports and checkpoints (networks, critic target, Adam
    # states, rng_batches) equal those of a run on one CPU
    cfg = _tiny_toy_config(iterations=3, eval_use_to=True, eval_max_iter=70)
    reports, checkpoints, seen = _recording_train(cfg)
    assert forks() == [os.getpid()] * cfg.iterations
    assert seen == reports and len(checkpoints) == cfg.iterations
    starts = TrainerState(cfg).eval_starts
    for rep, (actor, _, episodes, _) in zip(reports, checkpoints):
        costs = evaluate_policy_costs(actor, cfg, starts)
        ok = np.isfinite(costs)
        assert rep.eval_mean_cost == float(costs[ok].mean())
        assert rep.eval_failed == np.count_nonzero(~ok)
        assert rep.episodes_cum == episodes
    _no_fork(monkeypatch)
    one, one_checkpoints, _ = _recording_train(cfg)
    assert [_without_times(r) for r in one] == [_without_times(r) for r in reports]
    assert [c[1:] for c in one_checkpoints] == [c[1:] for c in checkpoints]


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_eval_aborts_with_its_iterations_checkpoint(monkeypatch, tmp_path,
                                                           cpus):
    # the second of three evals fails, in a child or not: the run raises its
    # error, and the last checkpoint holds iteration 2's networks.  Iteration
    # 2's checkpoint came before its eval was done, and the abort writes none
    cfg = _tiny_toy_config(iterations=3, eval_use_to=True, eval_max_iter=70)
    actor, critic, std, want = train(replace(cfg, iterations=2))
    if cpus == 1:
        _no_fork(monkeypatch)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _failing_eval_solves(monkeypatch, cfg,
                         lambda n, before: range(n) if before == 1 else (),
                         tmp_path / "evals")
    err, checkpoints, seen = _recording_train(cfg)
    assert isinstance(err, BatchSolveError)
    assert str(err).startswith("4 of 4 problems failed")
    assert [_without_times(r) for r in seen] == [_without_times(want[0])]
    assert len(checkpoints) == 2
    assert checkpoints[-1][1:3] == (_params(actor, critic, std), want[1].episodes_cum)


@pytest.mark.parametrize("eval_fails", [False, True])
def test_failed_next_solve_waits_for_the_eval(monkeypatch, tmp_path, forks,
                                              eval_fails):
    # iteration 2's solve raises: iteration 1's checkpoint came first, and
    # its report follows, unless its eval failed too, whose error is then
    # raised.  The abort writes no checkpoint
    cfg = _tiny_toy_config(eval_use_to=True, eval_max_iter=70)
    want = train(replace(cfg, iterations=1))[3]
    _failing_eval_solves(monkeypatch, cfg,
                         lambda n, _: range(n) if eval_fails else (),
                         tmp_path / "evals")
    evaluating = trainer.solve_batch

    def solve(*args):
        if args[4] == cfg.max_iter_later:
            raise SolverError("iteration 2's solve failed")
        return evaluating(*args)

    monkeypatch.setattr(trainer, "solve_batch", solve)
    err, checkpoints, seen = _recording_train(cfg)
    assert len(forks()) == 2        # the evals of want's iteration and of iteration 1
    if eval_fails:
        assert isinstance(err, BatchSolveError) and seen == []
        assert str(err).startswith("4 of 4 problems failed")
    else:
        assert str(err) == "iteration 2's solve failed"
        assert [_without_times(r) for r in seen] == [_without_times(want[0])]
    assert len(checkpoints) == 1
    assert checkpoints[-1][2] == cfg.n_episodes


def _state_bytes(state):
    """What an iteration changes in state, as comparable values."""
    return (len(state.buffer), state.episodes_cum, state.max_iter,
            _params(state.critic, state.critic_target, state.actor, state.std),
            [(a.m.tobytes(), a.v.tobytes(), a.step, a.lr)
             for a in (state.adam_critic, state.adam_actor, state.adam_std)],
            state.rng_batches.bit_generator.state)


def test_solve_iteration_changes_no_state():
    # so the previous eval may run beside it: iteration 1 at its fixed cap,
    # iteration 2 calibrating the later cap, which it keeps, and iteration 3
    # at that cap.  Only the batch's results are returned, not the probes'
    cfg = _tiny_toy_config(iterations=3, max_iter_later=None)
    state = TrainerState(cfg)
    for j in (1, 2, 3):
        before = _state_bytes(state)
        results, _ = trainer.solve_iteration(state, j)
        assert len(results) == (cfg.n_episodes if j == 1 else cfg.later_batch)
        after = _state_bytes(state)
        assert after[:2] + after[3:] == before[:2] + before[3:]
        assert (after[2] != before[2]) == (j == 2)
        _iterate(state, j, results)
    assert state.max_iter is not None


@pytest.mark.parametrize("pipe", ["1 MB", "default"])
@pytest.mark.parametrize("system", ["toy1d", "pointmass"])
def test_forked_learn_iteration_equals_one_process(monkeypatch, forks, pointmass_rc,
                                                   system, pipe):
    # the actor's updates in a child, fed each critic through a pipe that
    # holds about 15 of them or (where F_SETPIPE_SZ fails) less than one:
    # the networks, the critic target, the three Adam states, rng_batches and
    # the report, eval included, equal those of the loop in one process
    if system == "toy1d":
        cfg = _tiny_toy_config(m_updates=40, minibatch=64)
    else:
        cfg = replace(pointmass_rc.train, n_episodes=8, m_updates=40, seed=3,
                      max_iter_first=30, eval_count=3, eval_use_to=False)
    refused = []
    if pipe == "default":
        def fcntl_refused(*args):
            refused.append(args)
            raise OSError("F_SETPIPE_SZ refused")

        monkeypatch.setattr(fcntl, "fcntl", fcntl_refused)
    state = TrainerState(cfg)
    solved = trainer.solve_iteration(state, 1)
    learned = []
    for cpus in (2, 1):
        if cpus == 1:
            _no_fork(monkeypatch)
        copied = copy.deepcopy(state)
        child, report = trainer.learn_iteration(copied, 1, *solved)
        learned.append((_state_bytes(copied),
                         _without_times(_finish(copied, child, report))))
    assert len(forks()) == 1 and procs._alive == 0
    assert len(refused) == (2 if pipe == "default" else 0)
    assert learned[0] == learned[1]


@pytest.mark.parametrize("system", ["toy1d", "pointmass"])
def test_target_critic_is_kept_only_where_a_window_reads_it(monkeypatch, pointmass_rc,
                                                           system):
    # toy1d's windows (k_lookahead = t_max) all end at the horizon, so no
    # replay row reads a target critic: none is kept or Polyak-updated, and
    # the run is a bootstrap = false run bit for bit.  Pointmass's windows
    # (k_lookahead < t_max) read one, updated after each critic update
    if system == "toy1d":
        cfg = _tiny_toy_config()
    else:
        cfg = replace(pointmass_rc.train, n_episodes=8, m_updates=20, iterations=2,
                      seed=3, max_iter_first=30, max_iter_later=30, eval_count=3,
                      eval_use_to=False)
    assert cfg.bootstrap and (cfg.k_lookahead < cfg.model.t_max) == (system != "toy1d")
    calls, real = [], nets.polyak
    monkeypatch.setattr(nets, "polyak", lambda *args: calls.append(1) or real(*args))
    state = TrainerState(cfg)
    assert (state.critic_target is None) == (system == "toy1d")
    reports = []
    for j in range(1, cfg.iterations + 1):
        reports.append(_iterate(state, j))
        assert len(calls) == (0 if system == "toy1d" else j * cfg.m_updates)
    if system == "toy1d":
        actor, critic, std, want = train(replace(cfg, bootstrap=False))
        assert _params(state.actor, state.critic, state.std) == _params(actor, critic, std)
        assert [_without_times(r) for r in reports] == [_without_times(r) for r in want]
    else:
        assert _params(state.critic_target) != _params(state.critic)


@pytest.mark.parametrize("where", ["next solve", "std-critic updates"])
def test_interrupt_kills_the_eval_child(monkeypatch, forks, where):
    # a KeyboardInterrupt in iteration 2's solve, or in the std-critic updates
    # that run beside the actor's child, ends the child at once while it
    # sleeps in its eval (and conftest's no_child_left finds none left).
    # Iteration 1's checkpoint, which does not wait for its eval, survives an
    # interrupt in iteration 2
    cfg = _tiny_toy_config()
    monkeypatch.setattr(trainer, "evaluate_policy_costs",
                        lambda *args: time.sleep(60))
    _interrupt(monkeypatch, cfg, where)
    checkpoints = []
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        train(cfg, checkpoint_cb=lambda state: checkpoints.append(state.episodes_cum))
    assert time.perf_counter() - t0 < 30.0
    assert len(forks()) == 1
    assert checkpoints == ([cfg.n_episodes] if where == "next solve" else [])


def _interrupt(monkeypatch, cfg, where):
    """A KeyboardInterrupt in iteration 2's solve, or in the first std-critic
    update."""
    if where == "next solve":
        real = trainer.solve_batch

        def solve(*args):
            if args[4] == cfg.max_iter_later:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(trainer, "solve_batch", solve)
    else:
        def std_loss(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(nets, "std_critic_loss", std_loss)


def _fail_at(monkeypatch, module, name, k, fail):
    """module.name calls fail() at its k-th call (from 0) in the process that
    makes it: the actor's child, where one is forked, for nets.actor_loss and
    trainer._critic_error."""
    real, calls = getattr(module, name), []

    def failing(*args):
        calls.append(1)
        if len(calls) == k + 1:
            fail()
        return real(*args)

    monkeypatch.setattr(module, name, failing)


def _raise(exc):
    def fail():
        raise exc
    return fail


@pytest.mark.parametrize("where", ["critic updates", "std-critic updates"])
def test_interrupt_kills_the_actor_child(monkeypatch, forks, where):
    # a KeyboardInterrupt in the critic's third update, while the child
    # sleeps in its first actor update, or in the std-critic's first, while
    # it sleeps in the critic's error on the second std-critic minibatch,
    # ends the child at once
    cfg = _tiny_toy_config()
    if where == "critic updates":
        _fail_at(monkeypatch, nets, "actor_loss", 0, lambda: time.sleep(60))
        _fail_at(monkeypatch, nets, "critic_loss", 2, _raise(KeyboardInterrupt))
    else:
        _fail_at(monkeypatch, trainer, "_critic_error", 1, lambda: time.sleep(60))
        _interrupt(monkeypatch, cfg, where)
    checkpoints = []
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        train(cfg, checkpoint_cb=checkpoints.append)
    assert time.perf_counter() - t0 < 30.0
    assert len(forks()) == 1 and checkpoints == [] and procs._alive == 0


@pytest.mark.parametrize("k", [0, 39])
def test_failed_actor_update_in_the_child_raises_its_error(monkeypatch, forks, k):
    # the parent raises the child's own error: found by a send to the dead
    # child (at update 0, as 40 critics of about 69 KB overfill the pipe), or
    # where it waits for the actor (at the last update), and never a
    # BrokenPipeError.  The iteration aborts before its checkpoint
    cfg = _tiny_toy_config(m_updates=40)
    _fail_at(monkeypatch, nets, "actor_loss", k,
             _raise(FloatingPointError(f"actor update {k} failed")))
    checkpoints = []
    with pytest.raises(FloatingPointError, match=f"actor update {k} failed"):
        train(cfg, checkpoint_cb=checkpoints.append)
    assert len(forks()) == 1 and checkpoints == [] and procs._alive == 0


def test_interrupt_on_one_cpu_keeps_the_finished_iteration(monkeypatch):
    # on one CPU the eval is done before the iteration returns, so its report
    # and checkpoint both come before iteration 2 starts
    _no_fork(monkeypatch)
    cfg = _tiny_toy_config()
    _interrupt(monkeypatch, cfg, "next solve")
    checkpoints, seen = [], []
    with pytest.raises(KeyboardInterrupt):
        train(cfg, checkpoint_cb=lambda state: checkpoints.append(state.episodes_cum),
              report_cb=seen.append)
    assert checkpoints == [cfg.n_episodes]
    assert [rep.iteration for rep in seen] == [1]


def test_one_cpu_forks_nothing(monkeypatch):
    # eval runs in this process on one CPU, and where os.sched_getaffinity is
    # missing (macOS, Windows)
    _no_fork(monkeypatch)
    cfg = _tiny_toy_config(eval_use_to=True, eval_max_iter=70)
    assert len(train(cfg)[3]) == cfg.iterations
    monkeypatch.delattr(os, "sched_getaffinity")
    assert len(train(cfg)[3]) == cfg.iterations


@pytest.mark.parametrize("split_rows", [1, 961, 10**6])
def test_no_solve_splits_beside_an_eval_child(monkeypatch, forks, split_rows):
    # every eval forks, and the cap holds wherever a call could split: beside
    # eval 1's child, iteration 2's solve does not, nor do the evals' solves
    # in their children.  Only iteration 1's solve of 16 starts at the full
    # horizon of 60 steps, 960 rows, splits where it reaches SPLIT_ROWS
    monkeypatch.setattr(ilqr, "SPLIT_ROWS", split_rows)
    cfg = _tiny_toy_config(eval_use_to=True, eval_max_iter=70)
    assert len(train(cfg)[3]) == cfg.iterations
    splits = int(960 >= split_rows)
    assert forks() == [os.getpid()] * (splits + cfg.iterations)
    assert procs._alive == 0


# -- reports ---------------------------------------------------------------------------

def test_report_fields_populated():
    cfg = _tiny_toy_config(iterations=2)
    _, _, _, reports = train(cfg)
    for rep in reports:
        assert isinstance(rep, IterationReport)
        assert np.isfinite(rep.to_cost_mean)
        assert np.isfinite(rep.to_cost_median)
        assert 0.0 <= rep.converged_frac <= 1.0
        assert np.isfinite(rep.critic_loss_mean)
        assert np.isfinite(rep.std_loss_mean)
        assert np.isfinite(rep.eval_mean_cost) and rep.eval_failed == 0
        assert rep.to_failed == 0
        assert min(rep.t_to_s, rep.t_nets_s, rep.t_eval_s) >= 0.0


def test_checkpoint_callback_fires_every_iteration():
    seen = []
    cfg = _tiny_toy_config(iterations=3)
    train(cfg, checkpoint_cb=lambda state: seen.append(state.episodes_cum))
    assert len(seen) == 3


def _check_phase_times(monkeypatch, cpus):
    """On one CPU each eval moves the clock 1000 s on; on two, the fork of
    the actor's child and the wait for its eval each do: the fork is nets
    time, the wait eval time.  Where that delay is counted shows whatever
    the host's speed."""
    clock, skew = time.perf_counter, [0.0]

    def delay(fn):
        def delayed(*args, **kwargs):
            skew[0] += 1000.0
            return fn(*args, **kwargs)
        return delayed

    if cpus == 1:
        _no_fork(monkeypatch)
        monkeypatch.setattr(trainer, "evaluate_policy_costs",
                            delay(evaluate_policy_costs))
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", delay(os.fork))
        monkeypatch.setattr(procs.Child, "join", delay(procs.Child.join))
    monkeypatch.setattr(trainer.time, "perf_counter", lambda: clock() + skew[0])
    t0 = time.perf_counter()
    reports = train(_tiny_toy_config(max_iter_first=None, max_iter_later=None))[3]
    total = time.perf_counter() - t0
    for rep in reports:
        assert 1000.0 <= rep.t_eval_s < 2000.0
        assert 1000.0 * (cpus - 1) <= rep.t_nets_s < 1000.0 * cpus
        assert rep.t_to_s < 1000.0
    assert sum(rep.t_to_s + rep.t_nets_s + rep.t_eval_s
               for rep in reports) <= total


def test_phase_times_split_eval_from_to(monkeypatch):
    # the actor's updates and the eval in a child: its fork is the updates'
    # time, the wait for its eval the eval's
    _check_phase_times(monkeypatch, 2)


def test_phase_times_split_inline_eval_from_to(monkeypatch):
    _check_phase_times(monkeypatch, 1)


def test_train_calibrates_each_cap_when_first_needed(monkeypatch):
    calls = []

    def counting(state, first, starts):
        calls.append(first)
        return calibrate_max_iter(state, first, starts)

    monkeypatch.setattr(trainer, "calibrate_max_iter", counting)
    train(_tiny_toy_config(iterations=1, max_iter_first=None, max_iter_later=None))
    assert calls == [True]          # the later cap is never needed
    train(_tiny_toy_config(iterations=2, max_iter_first=None, max_iter_later=None))
    assert calls == [True, True, False]


def _probes_alone(state, first, cap):
    """The probes calibrate_max_iter draws, with their warm starts, solved
    alone: returns the warm starts, the counts (a probe that does not
    converge counts as cap) and the sort oracle's cap."""
    cfg = state.config
    model, field = cfg.model, cfg.field
    seed = np.random.SeedSequence([cfg.seed, 2 if first else 4]).generate_state(1)[0]
    probes = envs.sample_initial_states(model, cfg.calibration_probes, int(seed),
                                        Region.WORKSPACE)
    warms = ([np.zeros((model.t_max, model.m)) for _ in probes] if first
             else [r.U for r in nets.actor_rollout(state.actor, model, field,
                                                   probes)])
    results = solve_batch(model, field, probes, warms, cap,
                          RegularizerConfig(cfg.reg_eps), cfg.tol)
    counts = [r.iters_used if r.converged else cap for r in results]
    ordered = sorted(counts)
    pct = cfg.p_first if first else cfg.p_later
    return warms, counts, ordered[int(np.ceil(pct / 100.0 * len(ordered))) - 1]


def test_calibrate_matches_sort_oracle(pointmass_rc, monkeypatch):
    cfg = replace(pointmass_rc.train, seed=5, calibration_probes=10,
                  calibration_cap=60, p_first=99.0, p_later=50.0)
    state = TrainerState(cfg)
    model, field = cfg.model, cfg.field
    solved = []

    def recording(*args):
        solved.append(args[3])
        return solve_batch(*args)

    monkeypatch.setattr(trainer, "solve_batch", recording)
    batch = envs.sample_initial_states(model, 4, 25, Region.WORKSPACE)
    for first in (True, False):
        warms, _, oracle = _probes_alone(state, first, 60)
        starts, joint_warms, probes = calibrate_max_iter(state, first, batch)
        results = trainer._solve_each(cfg, starts, joint_warms, 60, probes)
        n = probes.n
        if first:
            # the first cap is not read back: the batch is solved at it
            _assert_same_results(results[n:], solve_batch(
                model, field, batch, joint_warms[n:], oracle,
                RegularizerConfig(cfg.reg_eps), cfg.tol))
        else:
            assert trainer._calibrated_cap(cfg, results[:n]) == oracle
        # zero warm starts for the first cap, actor rollouts for the later one
        assert len(solved[-1]) == len(warms) + len(batch)
        for got, want in zip(solved[-1], warms):
            assert got.tobytes() == want.tobytes()
    assert np.any(solved[-1][0] != 0.0)


def _finish(state, child, report):
    """learn_iteration's report given its eval's fields, as train fills them
    (t_eval_s aside)."""
    costs = trainer._eval(state) if child is None else child.join()
    ok = np.isfinite(costs)
    return report(eval_mean_cost=float(costs[ok].mean()),
                  eval_failed=int(np.count_nonzero(~ok)), t_eval_s=0.0)


def _iterate(state, j, results=None):
    """Iteration j of state, as train runs it, or its learn phase on the
    results of its solve phase; returns its report."""
    solved = trainer.solve_iteration(state, j) if results is None else (results, 0.0)
    return _finish(state, *trainer.learn_iteration(state, j, *solved))


def test_failed_calibration_probe_counts_as_the_cap(monkeypatch):
    cfg = _tiny_toy_config(max_iter_later=None, p_later=50.0)
    state = TrainerState(cfg)
    _iterate(state, 1)
    counts = []

    def probe_3_fails(*args):
        results = solve_batch(*args)
        counts.extend(r.iters_used if r.converged else cfg.calibration_cap
                      for r in results[:cfg.calibration_probes])
        results[3] = None
        raise BatchSolveError({3: SolverError("probe 3 failed")}, results)

    monkeypatch.setattr(trainer, "solve_batch", probe_3_fails)
    _iterate(state, 2)
    cap = state.max_iter
    counts[3] = cfg.calibration_cap
    assert len(counts) == cfg.calibration_probes
    assert cap == nearest_rank(counts, 50.0)


# -- calibration probes in the batch's lockstep -----------------------------------------

def _assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("X", "U", "step_costs"):
            assert getattr(a.traj, name).tobytes() == getattr(b.traj, name).tobytes()
        assert a.V_bar_x.tobytes() == b.V_bar_x.tobytes()
        assert (a.iters_used, a.converged) == (b.iters_used, b.converged)


def _joint_and_separate(state, first, batch, probe_order=None, spoil=()):
    """Solve batch with the calibration probes in one lockstep, and the
    probes alone, then batch alone at the sort oracle's cap.  probe_order
    reorders the probes; the probes in spoil get non-finite warm starts, so
    they fail.  Returns the cap read from the joint results (None for the
    first cap, which is not read back), the oracle's cap, the joint probe and
    batch results, and the batch's separate ones."""
    cfg = state.config
    model, field, cap = cfg.model, cfg.field, cfg.calibration_cap
    starts, warms, probes = calibrate_max_iter(state, first, batch)
    n = probes.n
    if probe_order is not None:
        starts[:n] = [starts[i] for i in probe_order]
        warms[:n] = [warms[i] for i in probe_order]
    for i in spoil:
        warms[i] = np.full_like(warms[i], np.nan)

    def solve(rows, probes_arg):
        try:
            return solve_batch(model, field, starts[rows], warms[rows], cap,
                               RegularizerConfig(cfg.reg_eps), cfg.tol, probes_arg)
        except BatchSolveError as err:
            assert set(err.errors) == set(spoil)
            return err.results

    joint, alone = solve(slice(None), probes), solve(slice(n), None)
    ordered = sorted(r.iters_used if r is not None and r.converged else cap
                     for r in alone)
    oracle = nearest_rank(ordered, cfg.p_first if first else cfg.p_later)
    assert oracle == ordered[probes.rank - 1]
    separate = solve_batch(model, field, starts[n:], warms[n:], oracle,
                           RegularizerConfig(cfg.reg_eps), cfg.tol)
    cap = None if first else trainer._calibrated_cap(cfg, joint[:n])
    return cap, oracle, joint[:n], joint[n:], separate


def _pointmass_state(pointmass_rc, **overrides):
    kw = dict(seed=5, calibration_probes=10, calibration_cap=60, p_first=99.0,
              p_later=50.0)
    return TrainerState(replace(pointmass_rc.train, **{**kw, **overrides}))


@pytest.mark.parametrize("first", [True, False])
def test_joint_calibration_solve_matches_separate_solves(pointmass_rc, first):
    state = _pointmass_state(pointmass_rc)
    batch = envs.sample_initial_states(state.config.model, 12, 21, Region.WORKSPACE)
    cap, oracle, _, joint, separate = _joint_and_separate(state, first, batch)
    assert cap == (None if first else oracle)
    _assert_same_results(joint, separate)


def test_joint_calibration_last_probe_runs_longest(pointmass_rc):
    # the probes in the order of their counts: the last is still running
    # when the cap is known, and leaves unconverged at the cap
    state = _pointmass_state(pointmass_rc)
    counts = _probes_alone(state, False, 60)[1]
    batch = envs.sample_initial_states(state.config.model, 8, 22, Region.WORKSPACE)
    cap, oracle, probes, joint, separate = _joint_and_separate(
        state, False, batch, probe_order=np.argsort(counts, kind="stable"))
    assert max(counts) > oracle == cap
    assert (probes[-1].iters_used, probes[-1].converged) == (cap, False)
    assert probes[-1].V_bar_x is None
    _assert_same_results(joint, separate)


def test_joint_calibration_falls_back_to_calibration_cap(pointmass_rc):
    # more than N - r probes fail (the first case) or hit the cap (the
    # second): the cap is calibration_cap
    state = _pointmass_state(pointmass_rc)
    batch = envs.sample_initial_states(state.config.model, 8, 23, Region.WORKSPACE)
    cap, oracle, probes, joint, separate = _joint_and_separate(
        state, False, batch, spoil=(0, 2, 4, 6, 8, 9))
    assert cap == oracle == 60
    assert sum(r is None for r in probes) == 6
    _assert_same_results(joint, separate)
    state = _pointmass_state(pointmass_rc, calibration_cap=12)
    counts = _probes_alone(state, True, 12)[1]
    assert counts.count(12) > 0           # N - r = 0 at p_first 99
    _, oracle, _, joint, separate = _joint_and_separate(state, True, batch)
    assert oracle == 12
    _assert_same_results(joint, separate)


def test_first_cap_probes_stop_with_their_batch(pointmass_rc):
    # the probes in the order of their counts, the slowest last: the probes
    # still running leave, unconverged, once the batch's last problem has
    # ended, long before the slowest would set the cap
    state = _pointmass_state(pointmass_rc)
    counts = _probes_alone(state, True, 60)[1]
    batch = envs.sample_initial_states(state.config.model, 8, 22, Region.WORKSPACE)
    _, oracle, probes, joint, separate = _joint_and_separate(
        state, True, batch, probe_order=np.argsort(counts, kind="stable"))
    _assert_same_results(joint, separate)
    last = max(r.iters_used for r in joint)
    assert oracle == max(counts) > last
    assert (probes[-1].iters_used, probes[-1].converged) == (last, False)


def test_joint_calibration_with_mixed_start_times():
    # the probes (at t = 0) and a batch at mixed start times share one
    # lockstep: the batch stops at the cap the probes set, exactly as when
    # solved alone at it, and with batch_only the probes stop with it
    cfg = _tiny_toy_config(max_iter_first=None, randomize_initial_time=True)
    state = TrainerState(cfg)
    model = cfg.model
    batch = trainer._assign_start_times(envs.sample_initial_states(
        model, 16, 24, Region.WORKSPACE), model, cfg, 1)
    assert len({s.t for s in batch}) > 2
    starts, warms, probes = calibrate_max_iter(state, True, batch)
    assert probes.batch_only
    n = probes.n

    def joint(batch_only):
        return solve_batch(model, cfg.field, starts, warms, cfg.calibration_cap,
                           RegularizerConfig(cfg.reg_eps), cfg.tol,
                           probes._replace(batch_only=batch_only))

    until_cap, with_batch = joint(False), joint(True)
    cap = nearest_rank([r.iters_used if r.converged else cfg.calibration_cap
                        for r in until_cap[:n]], cfg.p_first)
    assert cap == _probes_alone(state, True, cfg.calibration_cap)[2]
    separate = solve_batch(model, cfg.field, batch, warms[n:], cap,
                           RegularizerConfig(cfg.reg_eps), cfg.tol)
    _assert_same_results(until_cap[n:], separate)
    _assert_same_results(with_batch[n:], separate)
    last = max(r.iters_used for r in separate)
    assert max(r.iters_used for r in with_batch[:n]) <= last <= cap


def test_joint_calibration_probes_share_one_horizon():
    # probes need not share one horizon: at mixed start times they set the
    # cap that they set when solved alone, and the others stop at it
    cfg = _tiny_toy_config()
    model = cfg.model
    reg = ilqr.RegularizerConfig(cfg.reg_eps)
    xs = np.linspace(-1.5, 1.5, 8)
    starts = [TimeState(np.array([x]), t)
              for x, t in zip(xs, (0, 3, 41, 17, 0, 25, 9, 0))]
    warms = [np.zeros((model.t_max - s.t, model.m)) for s in starts]
    n, rank, max_iter = 5, 3, 40

    def cap_of(results):
        return sorted(r.iters_used if r.converged else max_iter
                      for r in results)[rank - 1]

    cap = cap_of(solve_batch(model, cfg.field, starts[:n], warms[:n], max_iter,
                             reg, cfg.tol))
    joint = solve_batch(model, cfg.field, starts, warms, max_iter, reg, cfg.tol,
                        ilqr.Probes(n, rank))
    assert cap_of(joint[:n]) == cap < max_iter
    _assert_same_results(joint[n:], solve_batch(
        model, cfg.field, starts[n:], warms[n:], cap, reg, cfg.tol))
    with pytest.raises(ValueError, match="rank"):
        solve_batch(model, cfg.field, starts, warms, 10, probes=ilqr.Probes(2, 3))


def _spoil_warmstarts(monkeypatch, rows):
    """Make the warm starts of rows(n_probes, n_all) of the calibrating
    solve non-finite."""
    def spoiled(state, first, starts):
        starts, warms, probes = calibrate_max_iter(state, first, starts)
        for i in rows(probes.n, len(starts)):
            warms[i] = np.full_like(warms[i], np.nan)
        return starts, warms, probes
    monkeypatch.setattr(trainer, "calibrate_max_iter", spoiled)


def test_every_probe_failing_raises(monkeypatch):
    _spoil_warmstarts(monkeypatch, lambda n, total: range(n))
    with pytest.raises(BatchSolveError, match="10 of 10 problems failed"):
        train(_tiny_toy_config(max_iter_first=None))


def test_every_probe_failing_fails_the_batch_without_iterating(monkeypatch):
    # the batch rows, at mixed start times, fail at once
    cfg = _tiny_toy_config(max_iter_first=None, randomize_initial_time=True)
    state = TrainerState(cfg)
    model = cfg.model
    batch = trainer._assign_start_times(envs.sample_initial_states(
        model, 6, 24, Region.WORKSPACE), model, cfg, 1)
    batch[0] = TimeState(batch[0].x, 0)
    starts, warms, probes = calibrate_max_iter(state, True, batch)
    for i in range(probes.n):
        warms[i] = np.full_like(warms[i], np.nan)
    passes = []
    real = ilqr._backward
    monkeypatch.setattr(ilqr, "_backward", lambda *args: (
        passes.append(args[2].shape[1]) or real(*args)))
    with pytest.raises(BatchSolveError) as exc:
        solve_batch(model, cfg.field, starts, warms, cfg.calibration_cap,
                    RegularizerConfig(cfg.reg_eps), cfg.tol, probes)
    assert passes == []
    assert sorted(exc.value.errors) == list(range(len(starts)))
    for i in range(probes.n, len(starts)):
        assert str(exc.value.errors[i]) == "every calibration probe failed"


def test_every_batch_problem_failing_raises(monkeypatch):
    # iteration 1's solve fails: no iteration completed, so no checkpoint
    _spoil_warmstarts(monkeypatch, lambda n, total: range(n, total))
    checkpoints = []
    with pytest.raises(BatchSolveError, match="16 of 16 problems failed"):
        train(_tiny_toy_config(max_iter_first=None), checkpoint_cb=checkpoints.append)
    assert checkpoints == []


def test_one_failed_probe_counts_as_the_cap_and_fails_nothing_else(monkeypatch):
    cfg = _tiny_toy_config(max_iter_later=None, p_later=50.0)
    state = TrainerState(cfg)
    _iterate(state, 1)
    counts = _probes_alone(state, False, cfg.calibration_cap)[1]
    counts[3] = cfg.calibration_cap
    _spoil_warmstarts(monkeypatch, lambda n, total: [3])
    rep = _iterate(state, 2)
    assert state.max_iter == nearest_rank(counts, 50.0)
    assert rep.to_failed == 0
    assert rep.episodes_cum == cfg.n_episodes + cfg.later_batch


def test_failed_training_problem_is_dropped(monkeypatch):
    cfg = _tiny_toy_config()
    posed = []

    def problem_1_fails(*args):
        results = solve_batch(*args)
        posed.extend(results)
        results[1] = None
        raise BatchSolveError({1: SolverError("problem 1 failed")}, results)

    monkeypatch.setattr(trainer, "solve_batch", problem_1_fails)
    state = TrainerState(cfg)
    rep = _iterate(state, 1)
    kept = posed[:1] + posed[2:]
    assert len(posed) == rep.episodes_cum == cfg.n_episodes
    assert rep.to_failed == 1
    assert len(state.buffer) == sum(r.traj.horizon + 1 for r in kept)
    assert rep.to_cost_mean == np.array([r.cost for r in kept]).mean()
    assert rep.converged_frac == np.mean([r.converged for r in kept])


def test_bic_keeps_top_scored_start_times(monkeypatch):
    seen = {}

    def select(cands, std_net, keep):
        seen["cands"], seen["std"] = cands, std_net
        return select_initial_states_bic(cands, std_net, keep)

    def solve(model, field, starts, *args):
        seen["solved"] = list(starts)
        return solve_batch(model, field, starts, *args)

    monkeypatch.setattr(trainer, "select_initial_states_bic", select)
    monkeypatch.setattr(trainer, "solve_batch", solve)
    train(_tiny_toy_config(n_episodes=8, m_updates=5, randomize_initial_time=True))
    cands = seen["cands"]
    assert len({c.t for c in cands}) > 1
    scores = nets.mlp_forward(seen["std"], np.stack([c.augmented for c in cands]))[:, 0]
    top = np.argsort(-scores, kind="stable")[:len(seen["solved"])]
    assert [(s.x.tolist(), s.t) for s in seen["solved"]] == \
        [(cands[i].x.tolist(), cands[i].t) for i in top]


# -- 1D diagnostic (small grid smoke; the full version runs in acceptance) ------------

def test_toy1d_diagnostic_structure():
    cfg = _tiny_toy_config(iterations=1, m_updates=150, n_episodes=40)
    table = toy1d_diagnostic(cfg, grid=60, naive_max_iter=100)
    assert set(table) == {"x0", "v_bar", "v_critic", "v_std", "x_final"}
    assert all(len(v) == 60 for v in table.values())
    left = table["x_final"] < 0
    assert np.sum(left[:-1] != left[1:]) == 1     # exactly one basin flip


def test_toy1d_diagnostic_eval_makes_no_solve(monkeypatch, tmp_path):
    # the training run's eval is discarded, so it takes rollouts only.  It
    # may run in a child process, so calls are logged to a file
    log = tmp_path / "calls"
    real_eval, real_solve = trainer.evaluate_policy_costs, trainer.solve_batch

    def logged(name, fn):
        def call(*args):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return fn(*args)
        return call

    monkeypatch.setattr(trainer, "evaluate_policy_costs", logged("eval", real_eval))
    monkeypatch.setattr(trainer, "solve_batch", logged("solve", real_solve))
    toy1d_diagnostic(_tiny_toy_config(iterations=1, eval_use_to=True), grid=20,
                     naive_max_iter=50)
    assert log.read_text().split() == ["solve", "solve", "eval"]


def test_toy1d_diagnostic_rejects_other_models():
    model = envs.default_model("pointmass")
    cfg = replace(_tiny_toy_config(), model=model,
                  field=envs.CostField(obstacles=(
                      envs.Ellipse((0.0, 3.5), (1.8, 3.2)),
                      envs.Ellipse((0.0, -3.5), (1.8, 3.2)),
                      envs.Ellipse((1.2, 0.0), (2.2, 1.4))),
                      obstacle_weight=10.0, distance_weight=0.02))
    with pytest.raises(ValueError):
        toy1d_diagnostic(cfg, grid=60)
