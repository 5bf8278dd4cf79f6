from dataclasses import fields
from pathlib import Path

import pytest

from trajrl.config import load_config
from trajrl.envs import CostField, Ellipse, ModelSpec, cost_for, system_for
from trajrl.trainer import TrainConfig

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
# the shipped configs and, read but never written here, the benchmark's
SHIPPED = {p.name: p for p in CONFIGS.glob("*.ini")} | {
    f"perfbench/{p.name}": p for p in (REPO / "perfbench" / "configs").glob("*.ini")}

# One non-default value for every TrainConfig field a config file may set.
NON_DEFAULT = {
    "trainer": {"n_episodes": ("7", 7), "episode_fraction": ("0.5", 0.5),
                "candidate_multiplier": ("3", 3), "m_updates": ("9", 9),
                "k_lookahead": ("4", 4), "minibatch": ("16", 16),
                "iterations": ("2", 2), "seed": ("5", 5), "bic": ("no", False),
                "eval_count": ("6", 6), "eval_use_to": ("off", False),
                "buffer_capacity": ("99", 99),
                "randomize_initial_time": ("yes", True)},
    "nets": {"k_s": ("0.25", 0.25), "lr_actor": ("0.1", 0.1),
             "lr_critic": ("0.2", 0.2), "lr_std": ("0.3", 0.3),
             "bootstrap": ("false", False), "tau": ("0.5", 0.5),
             "sigma_min": ("0.01", 0.01), "hidden": ("4, 5", (4, 5)),
             "activation": (" tanh ", "tanh")},
    "solver": {"reg_eps": ("0.1", 0.1), "tol": ("1e-3", 1e-3),
               "p_first": ("90", 90.0), "p_later": ("40", 40.0),
               "max_iter_first": ("11", 11), "max_iter_later": ("12", 12),
               "calibration_probes": ("13", 13), "calibration_cap": ("14", 14),
               "eval_max_iter": ("15", 15)},
}


def test_every_train_field_is_read_from_its_section(tmp_path):
    lines = ["[model]", "name = toy1d"]
    for section, keys in NON_DEFAULT.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {raw}" for key, (raw, _) in keys.items()]
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n")
    train = load_config(path).train
    want = {key: value for keys in NON_DEFAULT.values()
            for key, (_, value) in keys.items()}
    configurable = {f.name for f in fields(TrainConfig)} - {"model", "field"}
    assert set(want) == configurable
    assert {key: getattr(train, key) for key in want} == want


# One non-default value for every [model] key of a manipulator3 config
# (ModelSpec fields other than name, n, m and extra, plus one link parameter)
# and for every [cost] key.
NON_DEFAULT_MODEL = {
    "dt": ("0.02", 0.02), "t_max": ("12", 12), "u_max": ("1, 2, 3", (1.0, 2.0, 3.0)),
    "workspace": ("-1 1; -2 2; -3 3; -4 4; -5 5; -6 6",
                  ((-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0), (-4.0, 4.0),
                   (-5.0, 5.0), (-6.0, 6.0))),
    "hard_region": ("0 1; 0 2; 0 3; 0 0; 0 0; 0 0",
                    ((0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 0.0),
                     (0.0, 0.0), (0.0, 0.0))),
}
NON_DEFAULT_COST = {
    "target": ("1, 2", (1.0, 2.0)), "obstacle_weight": ("3", 3.0),
    "target_reward_weight": ("4", 4.0), "target_reward_radius": ("5", 5.0),
    "control_weight": ("6", 6.0), "distance_weight": ("7", 7.0),
    "obstacle1": ("1 2 3 4 0.5", Ellipse((1.0, 2.0), (3.0, 4.0), 0.5)),
    "obstacle2": ("-1 -2 1 1 0", Ellipse((-1.0, -2.0), (1.0, 1.0), 0.0)),
    "obstacle3": ("0 0 2 1 0", Ellipse((0.0, 0.0), (2.0, 1.0), 0.0)),
}


def test_every_model_and_cost_field_is_read_from_its_section(tmp_path):
    lines = ["[model]", "name = manipulator3", "param_l2 = 2.25"]
    lines += [f"{key} = {raw}" for key, (raw, _) in NON_DEFAULT_MODEL.items()]
    lines.append("[cost]")
    lines += [f"{key} = {raw}" for key, (raw, _) in NON_DEFAULT_COST.items()]
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n")
    rc = load_config(path)

    assert set(NON_DEFAULT_MODEL) == ({f.name for f in fields(ModelSpec)}
                                      - {"name", "n", "m", "extra"})
    assert ({key: getattr(rc.model, key) for key in NON_DEFAULT_MODEL}
            == {key: value for key, (_, value) in NON_DEFAULT_MODEL.items()})
    assert rc.model.extra_params() == {"l1": 4.0, "l2": 2.25, "l3": 2.5,
                                       "m1": 1.5, "m2": 1.0, "m3": 0.6}

    obstacles = [f"obstacle{i}" for i in (1, 2, 3)]
    assert set(NON_DEFAULT_COST) - set(obstacles) == (
        {f.name for f in fields(CostField)} - {"obstacles"})
    want = {key: value for key, (_, value) in NON_DEFAULT_COST.items()}
    assert rc.field.obstacles == tuple(want.pop(key) for key in obstacles)
    assert {key: getattr(rc.field, key) for key in want} == want


def test_missing_model_and_cost_keys_take_the_defaults(tmp_path):
    path = tmp_path / "bare.ini"
    path.write_text("[model]\nname = toy1d\n")
    rc = load_config(path)
    assert rc.model == ModelSpec(name="toy1d", n=1, m=1, dt=0.05, t_max=60,
                                 u_max=(2.0,), workspace=((-2.0, 2.0),),
                                 hard_region=((0.3, 1.9),))
    assert rc.field == CostField()


@pytest.mark.parametrize("config", sorted(SHIPPED))
def test_every_shipped_config_loads_and_builds_its_system(config):
    rc = load_config(SHIPPED[config])
    system = system_for(rc.model)
    assert system.spec == rc.model and system.n == rc.model.n
    assert cost_for(rc.model, rc.field) is not None
