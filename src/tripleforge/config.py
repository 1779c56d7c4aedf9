"""Plain-text key-value configuration for pipeline runs.

Lines are ``key = value``; a ``#`` at the start of a line or after
whitespace starts a comment, so a value such as ``http://h/v1#x`` keeps its
``#``.  Path values are resolved relative to the config file's directory so
a run can be launched from anywhere.  CLI flags override file values.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .prompting import PromptFormat
from .retriever import TrainConfig
from .selection import STRATEGIES


class ConfigError(ValueError):
    pass


# The settings that take one of a fixed set of values, checked by
# ``PipelineConfig`` and offered as choices by the CLI.
CHOICES: dict[str, tuple[str, ...]] = {
    "provider": ("mock", "real"),
    "embedder": ("hash", "http"),
    "strategy": tuple(STRATEGIES),
    "distance_source": ("retriever", "direct"),
    "demo_order": ("similar-last", "similar-first"),
    "format": tuple(f.value for f in PromptFormat),
}


@dataclass(frozen=True)
class PipelineConfig(TrainConfig):
    """Every setting of a run; ``stage_train`` passes it to the retriever as
    the ``TrainConfig`` it extends."""

    pool_path: Path = Path("train.jsonl")
    test_path: Path = Path("test.jsonl")
    run_dir: Path = Path("runs/default")
    cache_dir: Optional[Path] = None  # defaults to <run_dir>/cache

    provider: str = "mock"
    model_id: str = "mock-echo-gold"
    endpoint_url: str = ""
    retry_attempts: int = 3
    backoff_base: float = 0.5
    concurrency: int = 4

    embedder: str = "hash"
    embedding_dim: int = 64
    embedding_endpoint: str = ""
    embedding_model: str = ""

    format: str = "tableie"  # tableie | textie | codeie
    strategy: str = "coverage"
    budget: int = 5
    top_u: int = 5
    distance_source: str = "retriever"
    checkpoint_path: Optional[Path] = None  # defaults to <run_dir>/retriever.ckpt
    demo_order: str = "similar-last"

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)}, "
                                  f"got {getattr(self, name)!r}")
        for name in ("budget", "top_u", "retry_attempts", "concurrency", "embedding_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("embedding_endpoint", "embedding_model") if self.embedder == "http" else ():
            if not getattr(self, name):
                raise ConfigError(f"embedder http needs a {name}")
        if not 0 <= self.backoff_base < math.inf:
            raise ConfigError("backoff_base must be >= 0 and finite")
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def effective_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.run_dir / "cache"

    @property
    def effective_checkpoint_path(self) -> Path:
        return (self.checkpoint_path if self.checkpoint_path is not None
                else self.run_dir / "retriever.ckpt")

    def snapshot(self) -> dict:
        """JSON-safe view of every setting, for the run manifest; paths are
        relative to ``run_dir`` (itself ``"."``), so the run_dir can move."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(cache_dir=self.effective_cache_dir,
                   checkpoint_path=self.effective_checkpoint_path)
        return {name: os.path.relpath(value, self.run_dir) if isinstance(value, Path) else value
                for name, value in out.items()}


_KEY_TYPES = get_type_hints(PipelineConfig)
_COMMENT = re.compile(r"(?:^|(?<=\s))#")


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    base = path.parent
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if kind is Path and not value:
                raise ValueError("empty path")
            if kind in (Path, Optional[Path]):
                values[key] = (base / value).resolve() if value else None
            else:
                values[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return PipelineConfig(**values)


def apply_overrides(cfg: PipelineConfig, **overrides) -> PipelineConfig:
    """Return a copy of the config with non-None overrides applied."""
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
