"""Plain-text run configuration: sections (model, cost, solver, nets, trainer,
cli) of key = value pairs, parsed into the spec/field/train dataclasses.

Keys are optional; anything missing falls back to the defaults of the
system class ([model]) or of the dataclass field.  Each key is parsed by the
annotated type of the field it fills.  A [solver], [nets] or [trainer] key
fills the TrainConfig field of its name, and that field declares its section.
Ranges are declared on the fields (envs.setting) and on a system's param_<name>
keys (System.extra_interval), and checked where each key is read.  A key the
parser does not read is an error, so a misspelt or retired key does not pass
silently; so is any [DEFAULT] key.  Errors carry the config line they came from
where possible.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .envs import (CostField, Ellipse, ModelSpec, cost_for, default_model,
                   in_range, system_class, system_for)
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
    """The line of key in section, each compared as configparser reads it."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"\s#", line)[0].strip()    # drops an inline comment
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1]
        elif current == section and re.split("[=:]", stripped)[0].rstrip().lower() == key:
            return lineno
    return None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.replace(",", " ").split())


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
    # no header can name "", so [DEFAULT] is a section whose keys are unknown
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       default_section="")
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

    def take(sec, key, conv, default, interval=None):
        raw = get(sec, key)
        if raw is None:
            return default
        try:
            if not raw.strip():
                raise ValueError("empty value")
            value = conv(raw)
            if interval:
                in_range(key, value, interval)
            return value
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

    # only the parameters the system defines may be set, as param_<name>
    interval = system_class(base.name).extra_interval
    extra = tuple((key, take("model", f"param_{key}", float, value, interval))
                  for key, value in base.extra)
    try:
        model = _from_fields(ModelSpec, take, lambda _: "model",
                             lambda f: getattr(base, f.name), name=base.name,
                             n=base.n, m=base.m, extra=extra)
        system_for(model)           # the system's own parameter checks fail here
    except ValueError as err:
        raise ConfigError(f"invalid [model] section: {err}", path=path) from None

    obstacles = []
    for i in (1, 2, 3):
        raw = get("cost", f"obstacle{i}")
        if raw is None:
            continue
        try:
            cx, cy, ra, rb, angle = _floats(raw)
            obstacles.append(Ellipse(center=(cx, cy), semi_axes=(ra, rb), angle=angle))
        except ValueError as err:
            raise ConfigError(f"obstacle{i} ('cx cy ra rb angle'): {err}", path=path,
                              line=_find_line(text, "cost", f"obstacle{i}")) from None
    try:
        field = _from_fields(CostField, take, lambda _: "cost",
                             lambda f: f.default, obstacles=tuple(obstacles))
        cost_for(model, field)      # the system's own cost checks fail here
    except ValueError as err:
        raise ConfigError(f"invalid [cost] section: {err}", path=path) from None

    try:
        train = _from_fields(TrainConfig, take, lambda f: f.metadata["section"],
                             lambda f: f.default, model=model, field=field)
    except ValueError as err:
        raise ConfigError(f"invalid trainer settings: {err}", path=path) from None

    out_dir = take("cli", "out_dir", str.strip, "runs")
    for sec in parser.sections():
        for key in parser[sec]:
            if (sec, key) not in used:
                raise ConfigError(f"unknown key [{sec}] {key}", path=path,
                                  line=_find_line(text, sec, key))
    raw_snapshot = {sec: dict(parser[sec]) for sec in parser.sections()}
    return RunConfig(model=model, field=field, train=train,
                     out_dir=out_dir,
                     config_hash=config_hash(text), raw=raw_snapshot)


_PARSERS = {"int": int, "Optional[int]": int, "float": float, "bool": _bool,
            "str": str.strip, "Bounds": _bounds,
            "tuple[float, ...]": _floats, "tuple[float, float]": _floats,
            "tuple[int, ...]": _ints}


def _from_fields(cls, take, section, default, **fixed):
    """cls(**fixed), every other field read from the key of its name in
    config section section(field), parsed by the field's annotated type,
    checked against its interval and falling back to default(field) when the
    key is absent."""
    return cls(**fixed, **{
        f.name: take(section(f), f.name, _PARSERS[f.type], default(f),
                     f.metadata.get("interval"))
        for f in fields(cls) if f.name not in fixed})
