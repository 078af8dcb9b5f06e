"""Runtime configuration: defaults, config-file parsing, env overrides."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .client import (
    DEFAULT_IN_FLIGHT_LIMIT,
    DEFAULT_TEMPERATURE,
    HttpChatClient,
    RecordingClient,
    ScriptedChatClient,
)
from .errors import ConfigError
from .model import read_text

ENV_API_BASE = "CAMA_API_BASE"
ENV_API_KEY = "CAMA_API_KEY"
ENV_MODEL = "CAMA_MODEL"

MODES = ("live", "record", "replay")

# the learning and discovery defaults live here, where no NumPy is imported,
# so that loading a config costs the reasoning commands nothing
DEFAULT_GRANULARITY = 3
DEFAULT_ALPHA = 0.05
DEFAULT_MAX_COND_SIZE = 8
# the largest conditioning set the G-squared test takes
G_SQUARED_MAX_COND_SIZE = 30


@dataclass(frozen=True)
class AlignmentConfig:
    """Knobs of the alignment loop. ``m=None`` aligns on the whole dataset."""

    m: int | None = None
    s_b: int = 5
    n_e: int = 10
    r: int = 7
    c_stop: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.s_b < 1:
            raise ValueError("batch size s_b must be >= 1")
        if self.n_e < 1:
            raise ValueError("epoch count n_e must be >= 1")
        if self.r < 0:
            raise ValueError("history length r must be >= 0")
        if self.c_stop < 1:
            raise ValueError("early-stop threshold c_stop must be >= 1")
        if self.m is not None and self.m < self.s_b:
            raise ValueError("alignment subset size m must be >= s_b")


@dataclass(frozen=True)
class Config:
    api_base: str = ""
    model: str = ""
    api_key_env: str = ENV_API_KEY
    granularity: int = DEFAULT_GRANULARITY
    alpha: float = DEFAULT_ALPHA
    temperature: float = DEFAULT_TEMPERATURE
    in_flight_limit: int = DEFAULT_IN_FLIGHT_LIMIT
    max_cond_size: int = DEFAULT_MAX_COND_SIZE
    repetitions: int = 1
    run_dir: Path = Path("cama_run")
    transcript_mode: str = "live"
    transcript_path: Path | None = None
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)

    def __post_init__(self):
        if self.granularity < 1:
            raise ConfigError("lambda (granularity) must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if self.in_flight_limit < 1:
            raise ConfigError("in_flight_limit must be >= 1")
        if not 0 <= self.max_cond_size <= G_SQUARED_MAX_COND_SIZE:
            raise ConfigError(f"max_cond_size must lie in [0, {G_SQUARED_MAX_COND_SIZE}]")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.transcript_mode not in MODES:
            raise ConfigError(
                f"mode must be one of {MODES}, got {self.transcript_mode!r}"
            )


_SCALAR_KEYS = {
    "api_base": str,
    "model": str,
    "api_key_env": str,
    "lambda": int,
    "alpha": float,
    "temperature": float,
    "in_flight_limit": int,
    "max_cond_size": int,
    "repetitions": int,
    "seed": int,
    "run_dir": str,
    "mode": str,
    "transcript": str,
}
# a line up to its comment: a # inside a double-quoted value is kept
_CONTENT = re.compile(r'(?:[^#"]|"[^"]*"?)*')
# the alignment seed's one key is ``seed``, so a --seed flag always beats the file
_ALIGN_KEYS = {"m": int, "s_b": int, "n_e": int, "r": int, "c_stop": int}
# file keys whose Config field has another name; every other key is its field
_FIELD_OF_KEY = {
    "lambda": "granularity",
    "mode": "transcript_mode",
    "transcript": "transcript_path",
}


def _coerce(key: str, raw: str, kind):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        raw = raw[1:-1]
    try:
        return kind(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from e


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` document with # comments; dotted alignment keys."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _CONTENT.match(line).group().strip()
        if not stripped:
            continue
        if stripped.count('"') % 2:
            raise ConfigError(f"config line {lineno} has an unclosed quote")
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value'")
        if "\0" in stripped:
            raise ConfigError(f"config line {lineno} holds a NUL character")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key.startswith("alignment."):
            table, kinds = values.setdefault("alignment", {}), _ALIGN_KEYS
            name = key.removeprefix("alignment.")
        else:
            table, name, kinds = values, key, _SCALAR_KEYS
        if name not in kinds:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if name in table:
            raise ConfigError(f"config key {key!r} repeated (line {lineno})")
        table[name] = _coerce(key, raw, kinds[name])
    return values


def load_config(path: str | Path | None = None, **overrides) -> Config:
    """Assemble a Config from file, environment, and explicit overrides.

    Precedence: explicit overrides > environment > file > the ``Config``
    defaults. Overrides are named by file key; those with value None are
    ignored.
    """
    values: dict = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        values = parse_config_text(read_text(file_path, "config file"))

    if os.environ.get(ENV_API_BASE):
        values["api_base"] = os.environ[ENV_API_BASE]
    if os.environ.get(ENV_MODEL):
        values["model"] = os.environ[ENV_MODEL]

    for key, value in overrides.items():
        if value is not None:
            values[key] = value

    align_values = values.pop("alignment", {})
    if "seed" in values:
        align_values["seed"] = values.pop("seed")
    try:
        alignment = AlignmentConfig(**align_values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad alignment settings: {e}") from e

    kwargs = {_FIELD_OF_KEY.get(key, key): value for key, value in values.items()}
    if "run_dir" in kwargs:
        kwargs["run_dir"] = Path(kwargs["run_dir"])
    transcript = kwargs.pop("transcript_path", None)
    return Config(
        alignment=alignment, transcript_path=Path(transcript) if transcript else None, **kwargs
    )


def default_transcript_path(cfg: Config) -> Path:
    return cfg.transcript_path or (cfg.run_dir / "transcript.jsonl")


def build_client(cfg: Config):
    """Construct the chat client for the configured mode.

    Replay never touches the network; record wraps the remote client with
    a transcript writer.
    """
    if cfg.transcript_mode == "replay":
        path = default_transcript_path(cfg)
        if not path.is_file():
            raise ConfigError(f"replay mode requires an existing transcript: {path}")
        return ScriptedChatClient.from_file(path)

    if not cfg.api_base:
        raise ConfigError(
            f"{cfg.transcript_mode} mode requires an API base URL "
            f"(set {ENV_API_BASE} or api_base in the config file)"
        )
    if not cfg.model:
        raise ConfigError(
            f"{cfg.transcript_mode} mode requires a model name "
            f"(set {ENV_MODEL} or model in the config file)"
        )
    api_key = os.environ.get(cfg.api_key_env, "")
    if not api_key:
        raise ConfigError(
            f"{cfg.transcript_mode} mode requires a credential in ${cfg.api_key_env}"
        )
    client = HttpChatClient(
        api_base=cfg.api_base,
        model=cfg.model,
        api_key=api_key,
        in_flight_limit=cfg.in_flight_limit,
        temperature=cfg.temperature,
    )
    if cfg.transcript_mode == "record":
        path = default_transcript_path(cfg)
        path.parent.mkdir(parents=True, exist_ok=True)
        return RecordingClient(client, path)
    return client
