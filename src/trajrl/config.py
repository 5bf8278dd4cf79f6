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
from dataclasses import dataclass, fields
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


# The config section of each TrainConfig field a file may set.  A value is
# parsed by the field's annotated type and falls back to the field's default.
_TRAIN_KEYS = {
    "trainer": ("n_episodes", "episode_fraction", "candidate_multiplier", "m_updates",
                "k_lookahead", "minibatch", "iterations", "seed", "bic", "eval_count",
                "eval_use_to", "buffer_capacity", "randomize_initial_time"),
    "nets": ("k_s", "lr_actor", "lr_critic", "lr_std", "bootstrap", "tau", "sigma_min",
             "hidden", "activation"),
    "solver": ("reg_eps", "tol", "p_first", "p_later", "max_iter_first",
               "max_iter_later", "calibration_probes", "calibration_cap",
               "eval_max_iter"),
}
_PARSERS = {"int": int, "Optional[int]": int, "float": float, "bool": _bool,
            "str": str.strip,
            "tuple[int, ...]": lambda r: tuple(int(v) for v in _floats(r))}


def _build_train(model, field, take) -> TrainConfig:
    section = {key: sec for sec, keys in _TRAIN_KEYS.items() for key in keys}
    return TrainConfig(model=model, field=field, **{
        f.name: take(section[f.name], f.name, _PARSERS[f.type], f.default)
        for f in fields(TrainConfig) if f.name in section})
