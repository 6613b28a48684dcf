"""Experiment configuration: flat key=value files with CLI overrides.

Every hyperparameter of the round loop appears here; the config template
in the README annotates each key with its conventional symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints


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
        checks = [
            (self.embed_dim >= 1, "embed_dim (d) must be >= 1"),
            (self.depth >= 0, "depth (H) must be >= 0"),
            (0.0 <= self.flip_rate < 0.5, "flip_rate (q) must be in [0, 0.5)"),
            (self.eta > 0, "eta must be > 0"),
            (self.sample_size >= 1, "sample_size (K) must be >= 1"),
            (self.clients_per_round >= 1, "clients_per_round must be >= 1"),
            (self.clip_threshold > 0, "clip_threshold (delta) must be > 0"),
            (self.noise_scale >= 0, "noise_scale (lambda) must be >= 0"),
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.max_rounds >= 0, "max_rounds must be >= 0"),
            (self.eval_every >= 0, "eval_every must be >= 0 (0: no validation)"),
            (self.patience >= 1, "patience must be >= 1"),
            (self.checkpoint_every >= 0, "checkpoint_every must be >= 0 (0: only at the end)"),
            (len(self.recall_ks) > 0, "recall_ks must name at least one K"),
            (all(k >= 1 for k in self.recall_ks), "recall_ks (K) must all be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.workers >= 1, "workers must be >= 1"),
            (self.mode in ("replace", "transform"), "mode must be replace or transform"),
            (self.transport in ("memory", "json"), "transport must be memory or json"),
            (self.pseudo_items is None or self.pseudo_items >= 0,
             "pseudo_items must be >= 0 (or unset for parity)"),
        ]
        if self.synthetic:
            checks += [(getattr(self, key) >= 1, f"{key} must be >= 1")
                       for key in ("users", "items", "attributes", "relations",
                                   "interactions_per_user", "prefs_per_user")]
            checks.append((0.0 <= self.noise <= 1.0, "noise must be in [0, 1]"))
        else:
            checks.append((bool(self.ratings_file) and bool(self.kg_file),
                           "file datasets need both ratings_file and kg_file"))
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

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
    """Render the config back out in the flat file format."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            value = "parity" if f.name == "pseudo_items" else ""
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
