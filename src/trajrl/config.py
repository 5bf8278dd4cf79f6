"""Plain-text run configuration: sections (model, cost, solver, nets, trainer,
cli) of key = value pairs, parsed into the spec/field/train dataclasses.

Keys are optional; anything missing falls back to the per-system defaults.
A key the parser does not read is an error, so a misspelt or retired key
does not pass silently.  Errors carry the config line they came from where
possible.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .envs import CostField, Ellipse, ModelSpec, default_model
from .trainer import TrainConfig


class ConfigError(Exception):
    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line else f"{path}: "
        super().__init__(loc + message)
        self.path, self.line = path, line


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    field: CostField
    train: TrainConfig
    out_dir: str
    config_hash: str
    raw: dict


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _find_line(text: str, section: str, key: str):
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.split("=")[0].strip() == key:
            return lineno
    return None


def _floats(raw: str) -> list[float]:
    parts = raw.replace(",", " ").split()
    return [float(p) for p in parts]


def _bounds(raw: str) -> tuple:
    out = []
    for piece in raw.split(";"):
        vals = _floats(piece)
        if len(vals) != 2:
            raise ValueError(f"expected 'lo hi' pairs, got {piece!r}")
        out.append((vals[0], vals[1]))
    return tuple(out)


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config file not found", path=path)
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        raise ConfigError(str(err), path=path) from None

    used: set[tuple[str, str]] = set()

    def section(name):
        return dict(parser[name]) if parser.has_section(name) else {}

    def get(sec, key):
        used.add((sec, key))
        return section(sec).get(key)

    def take(sec, key, conv, default):
        raw = get(sec, key)
        if raw is None or raw.strip() == "":
            return default
        try:
            return conv(raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for [{sec}] {key}: {err}",
                              path=path, line=_find_line(text, sec, key)) from None

    name = get("model", "name")
    if name is None:
        raise ConfigError("missing required key [model] name", path=path)
    try:
        base = default_model(name.strip())
    except ValueError as err:
        raise ConfigError(str(err), path=path,
                          line=_find_line(text, "model", "name")) from None

    extra = dict(base.extra)
    for key, raw in section("model").items():
        if key.startswith("param_"):
            used.add(("model", key))
            try:
                extra[key[len("param_"):]] = float(raw)
            except ValueError as err:
                raise ConfigError(f"bad value for [model] {key}: {err}",
                                  path=path,
                                  line=_find_line(text, "model", key)) from None
    try:
        model = ModelSpec(
            name=base.name, n=base.n, m=base.m,
            dt=take("model", "dt", float, base.dt),
            t_max=take("model", "t_max", int, base.t_max),
            u_max=take("model", "u_max", lambda r: tuple(_floats(r)), base.u_max),
            workspace=take("model", "workspace", _bounds, base.workspace),
            hard_region=take("model", "hard_region", _bounds, base.hard_region),
            extra=tuple(sorted(extra.items())),
        )
    except ValueError as err:
        raise ConfigError(f"invalid [model] section: {err}", path=path) from None

    obstacles = []
    for i in (1, 2, 3):
        raw = get("cost", f"obstacle{i}")
        if raw is None:
            continue
        vals = _floats(raw)
        if len(vals) != 5:
            raise ConfigError(f"obstacle{i} needs 'cx cy ra rb angle'",
                              path=path,
                              line=_find_line(text, "cost", f"obstacle{i}"))
        obstacles.append(Ellipse(center=(vals[0], vals[1]),
                                 semi_axes=(vals[2], vals[3]), angle=vals[4]))
    try:
        field = CostField(
            target=take("cost", "target", lambda r: tuple(_floats(r)), (-7.0, 0.0)),
            obstacles=tuple(obstacles),
            obstacle_weight=take("cost", "obstacle_weight", float, 0.0),
            target_reward_weight=take("cost", "target_reward_weight", float, 0.0),
            target_reward_radius=take("cost", "target_reward_radius", float, 1.0),
            control_weight=take("cost", "control_weight", float, 0.0),
            distance_weight=take("cost", "distance_weight", float, 1.0),
        )
    except ValueError as err:
        raise ConfigError(f"invalid [cost] section: {err}", path=path) from None

    try:
        train = _build_train(model, field, take)
    except ValueError as err:
        raise ConfigError(f"invalid trainer settings: {err}", path=path) from None

    out_dir = get("cli", "out_dir")
    for sec in parser.sections():
        for key in parser[sec]:
            if (sec, key) not in used:
                raise ConfigError(f"unknown key [{sec}] {key}", path=path,
                                  line=_find_line(text, sec.lower(), key))
    raw_snapshot = {sec: dict(parser[sec]) for sec in parser.sections()}
    return RunConfig(model=model, field=field, train=train,
                     out_dir="runs" if out_dir is None else out_dir,
                     config_hash=config_hash(text), raw=raw_snapshot)


def _build_train(model, field, take) -> TrainConfig:
    def opt_int(raw):
        return int(raw)

    return TrainConfig(
        model=model, field=field,
        n_episodes=take("trainer", "n_episodes", int, 300),
        episode_fraction=take("trainer", "episode_fraction", float, 0.25),
        candidate_multiplier=take("trainer", "candidate_multiplier", int, 10),
        m_updates=take("trainer", "m_updates", int, 500),
        k_lookahead=take("trainer", "k_lookahead", int, 10),
        k_s=take("nets", "k_s", float, 1.0),
        lr_actor=take("nets", "lr_actor", float, 5e-4),
        lr_critic=take("nets", "lr_critic", float, 1e-3),
        lr_std=take("nets", "lr_std", float, 1e-3),
        minibatch=take("trainer", "minibatch", int, 128),
        iterations=take("trainer", "iterations", int, 5),
        seed=take("trainer", "seed", int, 0),
        bic=take("trainer", "bic", _bool, True),
        bootstrap=take("nets", "bootstrap", _bool, True),
        tau=take("nets", "tau", float, 0.005),
        sigma_min=take("nets", "sigma_min", float, 1e-3),
        hidden=take("nets", "hidden", lambda r: tuple(int(v) for v in _floats(r)),
                    (64, 64, 64)),
        activation=take("nets", "activation", lambda r: r.strip(), "elu"),
        reg_eps=take("solver", "reg_eps", float, 1e-6),
        tol=take("solver", "tol", float, 1e-6),
        p_first=take("solver", "p_first", float, 99.0),
        p_later=take("solver", "p_later", float, 50.0),
        max_iter_first=take("solver", "max_iter_first", opt_int, None),
        max_iter_later=take("solver", "max_iter_later", opt_int, None),
        calibration_probes=take("solver", "calibration_probes", int, 100),
        calibration_cap=take("solver", "calibration_cap", int, 1000),
        eval_count=take("trainer", "eval_count", int, 100),
        eval_use_to=take("trainer", "eval_use_to", _bool, True),
        eval_max_iter=take("solver", "eval_max_iter", int, 300),
        buffer_capacity=take("trainer", "buffer_capacity", int, 2**20),
        randomize_initial_time=take("trainer", "randomize_initial_time",
                                    _bool, False),
    )
