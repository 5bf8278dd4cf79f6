import json

import pytest

from trajrl.cli import (EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_MODEL_MISMATCH,
                        EXIT_OK, main)

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
    for name in ("manifest.json", "reports.csv", "actor.json"):
        assert (out / name).is_file(), name
    rows = (out / "reports.csv").read_text().splitlines()
    assert len(rows) == 1 + 2                      # header + two iterations
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


def test_bad_value_exits_config_error_with_line(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY_TOY1D.replace("n_episodes = 4", "n_episodes = many"))
    line = TINY_TOY1D.splitlines().index("n_episodes = 4") + 1
    assert _train(path, tmp_path / "run") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err and "n_episodes" in err


def test_eval_garbage_checkpoint_exits_checkpoint_error(toy_config, tmp_path,
                                                        capsys):
    ckpt = tmp_path / "actor.json"
    ckpt.write_text("this is not a checkpoint")
    code = main(["eval", str(ckpt), str(toy_config),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_CHECKPOINT
    assert "checkpoint error" in capsys.readouterr().err


def test_demo1d_on_pointmass_exits_model_mismatch(tmp_path, capsys):
    path = tmp_path / "pointmass.ini"
    path.write_text("[model]\nname = pointmass\n")
    code = main(["demo1d", str(path), "--out", str(tmp_path / "demo")])
    assert code == EXIT_MODEL_MISMATCH
    assert "model mismatch" in capsys.readouterr().err
