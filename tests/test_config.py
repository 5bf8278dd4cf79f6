from dataclasses import fields

from trajrl.config import load_config
from trajrl.trainer import TrainConfig

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
