"""Experiment configuration: flat key=value files with CLI overrides.

Every hyperparameter of the round loop appears here; the config template
in the README annotates each key with its conventional symbol and its BOUNDS text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    # dataset source: synthetic generator or ratings+kg files
    synthetic: bool = True
    ratings_file: str | None = None
    kg_file: str | None = None
    rating_threshold: float = 0.0
    users: int = 500
    items: int = 200
    attributes: int = 20
    relations: int = 2
    interactions_per_user: int = 16
    noise: float = 0.1
    prefs_per_user: int = 2

    # round / model hyperparameters
    sample_size: int = 4  # K
    embed_dim: int = 16  # d
    depth: int = 1  # H
    eta: float = 2.0  # learning rate; mean-BCE gradients scale with 1/|request|
    clients_per_round: int = 32
    pseudo_items: int | None = None  # p; None = one per interaction
    flip_rate: float = 0.1  # q
    clip_threshold: float = 0.5  # delta
    noise_scale: float = 1e-4  # lambda
    epochs: int = 1
    mode: str = "transform"  # aggregation phi: replace | transform

    # training schedule
    max_rounds: int = 300
    eval_every: int = 10
    patience: int = 10
    recall_ks: tuple[int, ...] = (5, 10, 20, 50)

    # run plumbing
    seed: int = 7
    out_dir: str = "runs/exp"
    workers: int = 1
    transport: str = "memory"  # memory | json
    checkpoint_every: int = 0  # 0: only at the end

    def validate(self) -> None:
        """ConfigError for a key outside its BOUNDS, then for data files unfit for `synthetic`."""
        for key in BOUNDS:
            if self.synthetic or key not in _SYNTHETIC_BOUNDS:
                check(key, getattr(self, key))
        if self.synthetic:
            for key in ("ratings_file", "kg_file"):
                if getattr(self, key):
                    raise ConfigError(f"{key} is read only with synthetic = false")
        elif not (self.ratings_file and self.kg_file):
            raise ConfigError("file datasets need both ratings_file and kg_file")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a `to_dict` record (JSON values); a ConfigError names
        the unknown keys, or the first key whose value is not of its type."""
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind = _FIELD_TYPES[key]
            if not _is_of(kind, value):
                name = kind.__name__ if isinstance(kind, type) else kind
                raise ConfigError(f"{key} must be {name}, got {value!r}")
        if "recall_ks" in data:
            data = {**data, "recall_ks": tuple(data["recall_ks"])}
        return cls(**data)


_FIELD_TYPES = get_type_hints(ExperimentConfig)


# Each key's one bound, (predicate, bound text): every entry point that takes the
# key, or its RoundConfig / DpConfig / ModelParams counterpart, checks it here.
_AT_LEAST_1 = ((lambda value: value >= 1), ">= 1")
_AT_LEAST_0 = ((lambda value: value >= 0), ">= 0")
_SYNTHETIC_BOUNDS = {  # checked only with synthetic = true
    **dict.fromkeys(("users", "items", "attributes", "relations", "interactions_per_user",
                     "prefs_per_user"), _AT_LEAST_1),
    "noise": ((lambda value: 0.0 <= value <= 1.0), "in [0, 1]"),
}
BOUNDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    **_SYNTHETIC_BOUNDS,
    **dict.fromkeys(("sample_size", "embed_dim", "clients_per_round", "epochs", "patience",
                     "workers"), _AT_LEAST_1),
    **dict.fromkeys(("depth", "max_rounds", "eval_every", "seed", "checkpoint_every"),
                    _AT_LEAST_0),
    "eta": ((lambda value: math.isfinite(value) and value > 0), "finite and > 0"),
    "pseudo_items": ((lambda value: value is None or value >= 0), ">= 0 or parity"),
    "flip_rate": ((lambda value: 0.0 <= value < 0.5), "in [0, 0.5)"),
    "clip_threshold": ((lambda value: value > 0), "> 0"),  # inf: no clipping
    "noise_scale": ((lambda value: math.isfinite(value) and value >= 0), "finite and >= 0"),
    "mode": ((lambda value: value in ("replace", "transform")), "replace or transform"),
    "recall_ks": ((lambda value: len(value) > 0 and all(k >= 1 for k in value)),
                  "one or more K, each >= 1"),
    "transport": ((lambda value: value in ("memory", "json")), "memory or json"),
}


def check(key: str, value, name: str | None = None) -> None:
    """ConfigError `[name: ]key must be <bound>, got <value>` unless `value` is
    within `key`'s BOUNDS; `name` is a flag or field that carries the key's value."""
    ok, bound = BOUNDS[key]
    if not ok(value):
        prefix = f"{name}: " if name else ""
        raise ConfigError(f"{prefix}{key} must be {bound}, got {value!r}")


def _is_of(kind, value) -> bool:
    """Whether a JSON value has a field's type: a bool only for bool, an int
    also for float, null for an optional, a list of ints for a tuple."""
    if type(None) in get_args(kind):
        if value is None:
            return True
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    if get_origin(kind) is tuple:
        return isinstance(value, (list, tuple)) and all(_is_of(int, v) for v in value)
    kind = (int, float) if kind is float else kind
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _parse_value(key: str, raw: str):
    """Coerce a value to the field's type; an optional field is unset when
    empty, an optional number also when parity or none."""
    raw, kind = raw.strip(), _FIELD_TYPES[key]
    if type(None) in get_args(kind):
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
        if not raw or (kind is not str and raw.lower() in ("parity", "none")):
            return None
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    try:
        if get_origin(kind) is tuple:
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines (# comments allowed) into an override dict."""
    overrides: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = _parse_value(key, raw)
    return overrides


def config_echo(config: ExperimentConfig) -> str:
    """Render the config back out in the flat file format; ConfigError naming the
    first key whose text would not read back as itself."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, str) and (value != value.strip() or any(c in value for c in "#\r\n")):
            raise ConfigError(f"{f.name}: {value!r} would not read back (a # starts a comment, "
                              f"a line break a new key; surrounding whitespace is stripped)")
        if value is None:
            value = "parity" if f.name == "pseudo_items" else ""
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
