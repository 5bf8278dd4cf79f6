import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from trajrl import nets, trainer
from trajrl.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_MODEL_MISMATCH,
                        EXIT_OK, EXIT_RUNTIME, main)
from trajrl.trainer import IterationReport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Fixed iteration caps, so no calibration solves run.
TINY_TOY1D = """\
[model]
name = toy1d
t_max = 10

[cost]
control_weight = 0.01

[solver]
reg_eps = 0.1
max_iter_first = 5
max_iter_later = 5
eval_max_iter = 5

[nets]
hidden = 8

[trainer]
n_episodes = 4
candidate_multiplier = 2
m_updates = 2
k_lookahead = 3
minibatch = 8
iterations = 2
seed = 11
eval_count = 2
"""

TINY_POINTMASS = TINY_TOY1D.replace("name = toy1d", "name = pointmass").replace(
    "[cost]\n", "[cost]\n"
    "obstacle1 = 0.0, 3.5, 1.8, 3.2, 0.0\n"
    "obstacle2 = 0.0, -3.5, 1.8, 3.2, 0.0\n"
    "obstacle3 = 1.2, 0.0, 2.2, 1.4, 0.0\n")
TINY_MANIPULATOR = TINY_POINTMASS.replace("name = pointmass", "name = manipulator3")


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy1d.ini"
    path.write_text(TINY_TOY1D)
    return path


def _train(config, out, *extra):
    return main(["train", str(config), "--out", str(out), *extra])


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_train_exit_ok_writes_outputs(toy_config, tmp_path, monkeypatch):
    monkeypatch.delenv("CACTO_SEED", raising=False)
    out = tmp_path / "run"
    assert _train(toy_config, out) == EXIT_OK
    for name in ("manifest.json", "reports.csv", "actor.json", "timings.json"):
        assert (out / name).is_file(), name
    rows = (out / "reports.csv").read_text().splitlines()
    assert len(rows) == 1 + 2                      # header + two iterations
    header = rows[0].split(",")
    assert header == [f.name for f in dataclasses.fields(IterationReport)]
    failed = [header.index("eval_failed"), header.index("to_failed")]
    assert [[row.split(",")[i] for i in failed] for row in rows[1:]] == \
        [["0", "0"], ["0", "0"]]
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"total_s", "to_s", "nets_s", "eval_s"}
    manifest = _manifest(out)
    assert manifest["command"] == "train"
    assert manifest["seeds"] == [11] and manifest["seed_source"] == "config"


@pytest.mark.parametrize("cli_seed, env_seed, want", [
    ("3", "7", (3, "cli")),
    (None, "7", (7, "env")),
    (None, None, (11, "config")),
])
def test_seed_precedence_cli_then_env_then_config(toy_config, tmp_path,
                                                  monkeypatch, cli_seed,
                                                  env_seed, want):
    if env_seed is None:
        monkeypatch.delenv("CACTO_SEED", raising=False)
    else:
        monkeypatch.setenv("CACTO_SEED", env_seed)
    out = tmp_path / "run"
    extra = [] if cli_seed is None else ["--seed", cli_seed]
    assert _train(toy_config, out, *extra) == EXIT_OK
    manifest = _manifest(out)
    assert (manifest["seeds"][0], manifest["seed_source"]) == want


@pytest.mark.parametrize("extra, bic_calls, variant", [
    ([], False, None), (["--variant", "bic"], True, "bic"),
    (["--variant", "baseline"], False, "baseline")])
def test_variant_overrides_config_only_when_given(tmp_path, monkeypatch, extra,
                                                  bic_calls, variant):
    path = tmp_path / "nobic.ini"
    path.write_text(TINY_TOY1D.replace("seed = 11", "seed = 11\nbic = false"))
    calls = []
    real = trainer.select_initial_states_bic
    monkeypatch.setattr(trainer, "select_initial_states_bic",
                        lambda *args: calls.append(1) or real(*args))
    out = tmp_path / "run"
    assert _train(path, out, *extra) == EXIT_OK
    assert bool(calls) == bic_calls
    manifest = _manifest(out)
    assert manifest["variant"] == variant
    assert manifest["config"]["trainer"]["bic"] == "false"


def test_bad_value_exits_config_error_with_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_TOY1D.replace("n_episodes = 4", "n_episodes = many"))
    line = TINY_TOY1D.splitlines().index("n_episodes = 4") + 1
    assert _train(path, tmp_path / "run") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err and "n_episodes" in err


def test_non_integer_cacto_seed_exits_config_error(toy_config, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.setenv("CACTO_SEED", "abc")
    assert _train(toy_config, tmp_path / "run") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "CACTO_SEED" in err and "'abc'" in err


@pytest.mark.parametrize("command, env_seed, label", [
    (["train", "--seed", "-1"], None, "--seed"),
    (["train"], "-5", "CACTO_SEED"),
    (["eval", "--seed", "-2"], None, "--seed"),
], ids=["train-flag", "train-env", "eval-flag"])
def test_negative_seed_exits_config_error_before_writing(
        toy_config, tmp_path, monkeypatch, capsys, command, env_seed, label):
    if env_seed is None:
        monkeypatch.delenv("CACTO_SEED", raising=False)
    else:
        monkeypatch.setenv("CACTO_SEED", env_seed)
    out = tmp_path / "run"
    args = [command[0], str(toy_config), "--out", str(out), *command[1:]]
    if command[0] == "eval":
        args.insert(1, str(tmp_path / "actor.json"))     # never read
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{label} must be a non-negative integer" in err
    assert not (out / "manifest.json").exists()


def test_removed_workers_key_exits_config_error_with_line(tmp_path, capsys):
    path = tmp_path / "workers.ini"
    path.write_text(TINY_TOY1D.replace("reg_eps = 0.1",
                                       "reg_eps = 0.1\nworkers = 2"))
    line = TINY_TOY1D.splitlines().index("reg_eps = 0.1") + 2
    assert _train(path, tmp_path / "run") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err and "unknown key [solver] workers" in err


# Config text, the offending line (None when the error names no line) and the
# expected message of each malformed case.
MALFORMED = {
    "hidden-float": (TINY_TOY1D.replace("hidden = 8", "hidden = 8.7, 0.5"),
                     "hidden = 8.7, 0.5", "bad value for [nets] hidden"),
    "hidden-zero": (TINY_TOY1D.replace("hidden = 8", "hidden = 8, 0"), None,
                    "hidden layer widths must be >= 1"),
    "target-length": (TINY_TOY1D.replace("[cost]\n", "[cost]\ntarget = 3\n"),
                      None, "target must have 2 entries, got 1"),
    "one-obstacle": (TINY_POINTMASS.replace("obstacle2 = 0.0, -3.5, 1.8, 3.2, 0.0\n", "")
                     .replace("obstacle3 = 1.2, 0.0, 2.2, 1.4, 0.0\n", ""),
                     None, "pointmass expects exactly 3 obstacles, got 1"),
    "pointmass-param": (TINY_POINTMASS.replace("t_max = 10", "t_max = 10\nparam_l1 = 4.0"),
                        "param_l1 = 4.0", "unknown key [model] param_l1"),
    "manipulator-param": (TINY_MANIPULATOR.replace("t_max = 10", "t_max = 10\nparam_l4 = 1.0"),
                          "param_l4 = 1.0", "unknown key [model] param_l4"),
    "key-case": (TINY_TOY1D.replace("n_episodes = 4", "N_Episodes = abc"),
                 "N_Episodes = abc", "bad value for [trainer] n_episodes"),
    "key-colon": (TINY_TOY1D.replace("n_episodes = 4", "n_episodes: abc"),
                  "n_episodes: abc", "bad value for [trainer] n_episodes"),
    "header-comment": (TINY_TOY1D.replace("[trainer]", "[trainer]  # schedule")
                       .replace("n_episodes = 4", "n_episodes = abc"),
                       "n_episodes = abc", "bad value for [trainer] n_episodes"),
    "default-section": ("[DEFAULT]\nseed = 3\n\n" + TINY_TOY1D, "seed = 3",
                        "unknown key [DEFAULT] seed"),
    "empty-dt": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\ndt ="), "dt =",
                 "bad value for [model] dt: empty value"),
    "dt-nan": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\ndt = nan"), None,
               "need dt > 0 and t_max >= 1"),
    "control-weight-nan": (TINY_TOY1D.replace("control_weight = 0.01",
                                              "control_weight = nan"),
                           None, "cost weights must be non-negative"),
    "empty-hidden": (TINY_TOY1D.replace("hidden = 8", "hidden ="), "hidden =",
                     "bad value for [nets] hidden: empty value"),
    "eval-count-zero": (TINY_TOY1D.replace("eval_count = 2", "eval_count = 0"), None,
                        "eval_count, minibatch and the iteration caps must be >= 1"),
    "minibatch-zero": (TINY_TOY1D.replace("minibatch = 8", "minibatch = 0"), None,
                       "eval_count, minibatch and the iteration caps must be >= 1"),
    "p-first-zero": (TINY_TOY1D.replace("reg_eps = 0.1", "reg_eps = 0.1\np_first = 0"),
                     None, "p_first and p_later must be in (0, 100]"),
    "few-probes": (TINY_TOY1D.replace("reg_eps = 0.1",
                                      "reg_eps = 0.1\ncalibration_probes = 5"),
                   None, "calibration_probes must be >= 10"),
    "tau-two": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\ntau = 2"), None,
                "tau must be in (0, 1], got 2.0"),
    "cap-zero": (TINY_TOY1D.replace("max_iter_first = 5", "max_iter_first = 0"), None,
                 "eval_count, minibatch and the iteration caps must be >= 1"),
    "activation-relu": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\nactivation = relu"),
                        None, "unknown activation 'relu'"),
    "lr-actor-negative": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\nlr_actor = -1"),
                          None, "lr_actor, lr_critic, lr_std, reg_eps and sigma_min "
                          "must be positive"),
    "lr-critic-nan": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\nlr_critic = nan"),
                      None, "lr_actor, lr_critic, lr_std, reg_eps and sigma_min "
                      "must be positive"),
    "sigma-min-zero": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\nsigma_min = 0"),
                       None, "lr_actor, lr_critic, lr_std, reg_eps and sigma_min "
                       "must be positive"),
    "reg-eps-zero": (TINY_TOY1D.replace("reg_eps = 0.1", "reg_eps = 0"), None,
                     "lr_actor, lr_critic, lr_std, reg_eps and sigma_min must be positive"),
    "k-s-negative": (TINY_TOY1D.replace("hidden = 8", "hidden = 8\nk_s = -1"), None,
                     "tol and k_s must be >= 0"),
    "tol-negative": (TINY_TOY1D.replace("reg_eps = 0.1", "reg_eps = 0.1\ntol = -1"),
                     None, "tol and k_s must be >= 0"),
    "iterations-zero": (TINY_TOY1D.replace("iterations = 2", "iterations = 0"), None,
                        "k_lookahead, m_updates, iterations and buffer_capacity "
                        "must be >= 1"),
    "buffer-capacity-zero": (TINY_TOY1D.replace("eval_count = 2",
                                                "eval_count = 2\nbuffer_capacity = 0"),
                             None, "k_lookahead, m_updates, iterations and "
                             "buffer_capacity must be >= 1"),
    "empty-out-dir": (TINY_TOY1D + "\n[cli]\nout_dir =\n", "out_dir =",
                      "bad value for [cli] out_dir: empty value"),
    "workspace-inverted": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\nworkspace = 2 -2"),
                           None, "workspace bounds must be finite with lo <= hi, "
                           "got (2.0, -2.0)"),
    "hard-region-nan": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\nhard_region = nan 1"),
                        None, "hard_region bounds must be finite with lo <= hi, "
                        "got (nan, 1.0)"),
    "dt-inf": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\ndt = inf"), None,
               "need dt > 0 and t_max >= 1, with dt finite"),
    "u-max-inf": (TINY_TOY1D.replace("t_max = 10", "t_max = 10\nu_max = inf"), None,
                  "u_max must have m finite positive components"),
    "seed-negative": (TINY_TOY1D.replace("seed = 11", "seed = -3"), None,
                      "seed must be >= 0, got -3"),
    "target-nan": (TINY_POINTMASS.replace("[cost]\n", "[cost]\ntarget = nan, 0\n"),
                   None, "target must be finite, got (nan, 0.0)"),
    "obstacle-center-inf": (TINY_POINTMASS.replace("obstacle1 = 0.0, 3.5,",
                                                   "obstacle1 = 0.0, inf,"),
                            "obstacle1 = 0.0, inf, 1.8, 3.2, 0.0",
                            "need finite center and angle"),
    "obstacle-angle-nan": (TINY_POINTMASS.replace("2.2, 1.4, 0.0", "2.2, 1.4, nan"),
                           "obstacle3 = 1.2, 0.0, 2.2, 1.4, nan",
                           "need finite center and angle"),
    "obstacle-axis-negative": (TINY_POINTMASS.replace("= 0.0, 3.5, 1.8",
                                                      "= 0.0, 3.5, -1.8"),
                               "obstacle1 = 0.0, 3.5, -1.8, 3.2, 0.0",
                               "semi-axes in (0, inf)"),
    "obstacle-short": (TINY_POINTMASS.replace("-3.5, 1.8, 3.2, 0.0", "-3.5, 1.8"),
                       "obstacle2 = 0.0, -3.5, 1.8",
                       "obstacle2 ('cx cy ra rb angle'): not enough values"),
    "later-batch-zero": (TINY_TOY1D.replace("n_episodes = 4", "n_episodes = 1"), None,
                         "episode_fraction * n_episodes must round to >= 1 problems"),
    "later-batch-half": (TINY_TOY1D.replace("n_episodes = 4", "n_episodes = 2"), None,
                         "episode_fraction * n_episodes must round to >= 1 problems"),
    "chain-length-negative": (TINY_MANIPULATOR.replace("t_max = 10", "t_max = 10\nparam_l2 = -3.5"),
                              None, "invalid [model] section: param_l2 must be in (0, inf), "
                              "got -3.5"),
    "chain-mass-nan": (TINY_MANIPULATOR.replace("t_max = 10", "t_max = 10\nparam_m2 = nan"),
                       None, "invalid [model] section: param_m2 must be in (0, inf), got nan"),
    "chain-length-inf": (TINY_MANIPULATOR.replace("t_max = 10", "t_max = 10\nparam_l1 = inf"),
                         None, "invalid [model] section: param_l1 must be in (0, inf), got inf"),
    "chain-mass-zero": (TINY_MANIPULATOR.replace("t_max = 10", "t_max = 10\nparam_m3 = 0"),
                        None, "invalid [model] section: param_m3 must be in (0, inf), got 0.0"),
    "toy1d-ignored-cost-keys": (TINY_TOY1D.replace("[cost]\n", "[cost]\ndistance_weight = 5\n"),
                                None, "invalid [cost] section: toy1d takes only "
                                "control_weight from [cost]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_cost_nets_exit_config_error(tmp_path, capsys, case):
    text, bad_line, message = MALFORMED[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert _train(path, tmp_path / "run") == EXIT_CONFIG
    err = capsys.readouterr().err
    if bad_line is None:
        assert f"{path}: " in err
    else:
        assert f"{path}:{text.splitlines().index(bad_line) + 1}:" in err
    assert message in err


def test_runtime_failure_exits_runtime_error(toy_config, tmp_path, monkeypatch,
                                             capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr("trajrl.cli.train", fail)
    assert _train(toy_config, tmp_path / "run") == EXIT_RUNTIME
    assert "error: solver blew up" in capsys.readouterr().err


def test_eval_garbage_checkpoint_exits_checkpoint_error(toy_config, tmp_path,
                                                        capsys):
    ckpt = tmp_path / "actor.json"
    ckpt.write_text("this is not a checkpoint")
    code = main(["eval", str(ckpt), str(toy_config),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_CHECKPOINT
    assert "checkpoint error" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: {**d, "biases": [[0.5], d["biases"][1]]}, "layer 0"),  # broadcast
    (lambda d: {**d, "biases": d["biases"][:1]}, "layer 1"),          # zip drop
    (lambda d: {**d, "layer_sizes": ["2", "8", "1"]}, ""),
    (lambda d: {**d, "weights": None}, ""),
    (lambda d: [], ""),
    (lambda d: {**d, "activation": "relu"}, "unknown activation 'relu'"),
    (lambda d: {**d, "head": "foo"}, "head 'foo'"),
    (lambda d: {**d, "out_scale": [1.0, 2.0, 3.0]}, "out_scale must be 1 finite"),
    (lambda d: {**d, "norm_center": [0.0], "norm_half": [1.0, 1.0]},
     "in_center must be 2 finite"),
    (lambda d: {**d, "weights": [[np.nan] + d["weights"][0][1:], d["weights"][1]]},
     "weights, biases and sigma_min must be finite"),
], ids=["short-bias", "missing-bias", "string-sizes", "null-weights", "not-an-object",
        "activation-relu", "head-foo", "out-scale-length", "norm-center-length",
        "nan-weight"])
def test_eval_malformed_checkpoint_exits_checkpoint_error(toy_config, tmp_path,
                                                          capsys, edit, message):
    ckpt = tmp_path / "actor.json"
    actor = nets.init_mlp([2, 8, 1], np.random.default_rng(0), head="tanh",
                          out_scale=[2.0])
    nets.save_checkpoint(ckpt, actor, "actor", "toy1d", "cafebabe")
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    code = main(["eval", str(ckpt), str(toy_config),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert "checkpoint error" in err and message in err


def test_demo1d_on_pointmass_exits_model_mismatch(tmp_path, capsys):
    code = main(["demo1d", str(CONFIGS / "pointmass.ini"),
                 "--out", str(tmp_path / "demo")])
    assert code == EXIT_MODEL_MISMATCH
    assert "model mismatch" in capsys.readouterr().err


def _csv_rows(path):
    return path.read_text().splitlines()


def test_eval_and_demo1d_success_paths(toy_config, tmp_path, monkeypatch):
    monkeypatch.delenv("CACTO_SEED", raising=False)
    run = tmp_path / "run"
    assert _train(toy_config, run) == EXIT_OK
    for name, extra in (("rollout", []),
                        ("to", ["--with-to", "--region", "workspace"])):
        out = tmp_path / f"eval-{name}"
        assert main(["eval", str(run / "actor.json"), str(toy_config),
                     "--out", str(out), *extra]) == EXIT_OK
        rows = _csv_rows(out / "eval_costs.csv")
        assert rows[0] == "start_index,cost,x0" and len(rows) == 1 + 2
        assert _manifest(out)["command"] == "eval"
    out = tmp_path / "demo"
    assert main(["demo1d", str(toy_config), "--grid", "20",
                 "--out", str(out)]) == EXIT_OK
    for name in ("demo1d_curves.csv", "cost_curve.csv"):
        assert len(_csv_rows(out / name)) == 1 + 20, name
    assert _manifest(out)["command"] == "demo1d"


def test_eval_writes_nan_for_a_failed_start(toy_config, tmp_path, monkeypatch,
                                            capsys):
    # start 1's rollout overflows; exit 0 while any start succeeds
    monkeypatch.delenv("CACTO_SEED", raising=False)
    run = tmp_path / "run"
    assert _train(toy_config, run) == EXIT_OK
    real = nets.actor_rollout

    def overflowing(bad):
        def rollout(*args):
            trajs = real(*args)
            for i in bad:
                trajs[i].step_costs[-1] = np.inf
            return trajs
        return rollout

    def run_eval(name):
        return main(["eval", str(run / "actor.json"), str(toy_config),
                     "--out", str(tmp_path / name)])

    capsys.readouterr()
    monkeypatch.setattr(nets, "actor_rollout", overflowing({1}))
    assert run_eval("one") == EXIT_OK
    rows = _csv_rows(tmp_path / "one" / "eval_costs.csv")
    assert rows[2].startswith("1,nan,") and rows[1].split(",")[1] != "nan"
    out = capsys.readouterr().out
    assert "mean cost over 1 of 2 hard starts" in out and "; 1 failed" in out
    monkeypatch.setattr(nets, "actor_rollout", overflowing({0, 1}))
    assert run_eval("all") == EXIT_RUNTIME
    assert "2 of 2 problems failed" in capsys.readouterr().err
