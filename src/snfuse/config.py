"""Flat key=value run configuration.

Every key has a documented default; unknown keys are rejected. The
effective configuration is echoed into every output directory, and its
hash ties checkpoints to the exact configuration that produced them.
Output/input directory locations never enter the hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DataFormatError, read_utf8
from .pooling import VARIANTS

_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


@dataclass
class RunConfig:
    seed: int = 0
    t_window: int = 20          # key: T
    horizon: int = 1            # key: H
    dim: int = 0                # key: d; 0 = infer from the data
    pooling: str = "sap"        # none|ap|cap|sap|pasap
    snp: bool = False           # stock-name prompt token
    no_gcn: bool = False
    no_p2n: bool = False
    no_n2p: bool = False
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 64
    vocab_size: int = 128       # V
    num_prototypes: int = 16    # U
    patch_len: int = 5
    patch_stride: int = 5
    reprogram_heads: int = 1
    max_news_per_day: int = 2048
    lr: float = 0.01
    batch_size: int = 4
    max_epochs: int = 15
    patience: int = 5
    vocab_file: str = ""        # optional NEWSEMB1 file with V x d_model rows

    def validate(self) -> None:
        if self.pooling not in VARIANTS:
            raise ValueError(f"unknown pooling variant '{self.pooling}'")
        for name in ("horizon", "t_window", "d_model", "n_layers", "n_heads", "ffn_dim", "vocab_size",
                     "num_prototypes", "patch_len", "patch_stride", "reprogram_heads",
                     "batch_size", "max_epochs", "patience", "max_news_per_day"):
            if getattr(self, name) < 1:
                raise ValueError(f"{_ALIASES.get(name, name)} must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.dim < 0:
            raise ValueError("d must be >= 0 (0 means infer)")
        if self.num_prototypes > self.vocab_size:
            raise ValueError("num_prototypes must not exceed vocab_size")
        if self.patch_len > self.t_window:
            raise ValueError("patch_len must not exceed T")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.d_model % self.reprogram_heads != 0:
            raise ValueError("d_model must be divisible by reprogram_heads")


# config-file key -> dataclass field: the field name, except for three short aliases
_ALIASES = {"t_window": "T", "horizon": "H", "dim": "d"}
_KEY_MAP = {_ALIASES.get(f.name, f.name): f.name for f in fields(RunConfig)}


def _parse_value(where: str, key: str, text: str, kind: type):
    """text as a value of kind; where (file:line) leads the message of a refusal."""
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise DataFormatError(f"{where}: key '{key}': expected a boolean, got '{text}'")
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError as exc:
            expected = "an integer" if kind is int else "a number"
            raise DataFormatError(f"{where}: key '{key}': expected {expected}, got '{text}'") from exc
    return text


def load_config(path: str | Path) -> RunConfig:
    """Parse a key=value file; '#' starts a comment, blank lines ignored."""
    path = Path(path)
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(read_utf8(path)[0].splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key = value, got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise DataFormatError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate config key '{key}'")
        seen.add(key)
        attr = _KEY_MAP[key]
        # every default has its field's type
        setattr(cfg, attr, _parse_value(f"{path}:{lineno}", key, value, type(getattr(cfg, attr))))
    try:
        cfg.validate()
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """Canonical echo of the effective configuration, stable key order."""
    lines = []
    for key in sorted(_KEY_MAP):
        lines.append(f"{key} = {_format_value(getattr(cfg, _KEY_MAP[key]))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    """cfg with each field given a value other than None replaced; a value validate() refuses is a DataFormatError."""
    out = replace(cfg, **{k: v for k, v in kwargs.items() if v is not None})
    try:
        out.validate()
    except ValueError as exc:
        raise DataFormatError(f"command-line override: {exc}") from exc
    return out
