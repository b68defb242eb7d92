"""Configuration dataclasses: the one place a setting and its default are written.

It owns the flat dotted-key table ("model.filters": 64): ``defaults``,
``settings`` and ``section`` walk it, so it must stay importable without
numpy, as ``--threads`` has to take effect before any BLAS library loads.
``check_type`` is the one type rule for a setting, whether it comes from the
command line, a config file or a checkpoint.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

VISUAL_DIM = 18
MAX_SPAN_LENGTH = 5
MAX_DOC_LENGTH = 256

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


def check_type(key, value, kind):
    """``value``, made a float if ``kind`` is; ValueError naming ``key`` if it is not a ``kind``.

    Nothing else is coerced. An int key takes an int, a float key a finite
    int or float (not NaN, infinite or past float range), a bool key a bool
    and a string key a string. True is an int in Python, so a bool is refused
    wherever a number is wanted.
    """
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or kind is float and not abs(value) <= sys.float_info.max):  # NaN compares false
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


@dataclass(frozen=True)
class EmbeddingConfig:
    token_dim: int = 64
    position_dim: int = 32
    source: str = "trainable"  # or "frozen"
    min_count: int = 2

    def __post_init__(self):
        if self.token_dim < 1:
            raise ValueError("token_dim must be positive")
        if self.position_dim < 2 or self.position_dim % 2 != 0:
            raise ValueError("position_dim must be a positive even number")
        if self.source not in ("trainable", "frozen"):
            raise ValueError(f"unknown embedding source {self.source!r}")

    @property
    def width(self):
        return self.token_dim + self.position_dim + VISUAL_DIM


@dataclass(frozen=True)
class ModelConfig:
    max_span_length: int = MAX_SPAN_LENGTH
    filters: int = 64
    heads: int = 2
    layers: int = 1  # 0 = no transformer: spans are scored from the CNN alone
    dropout: float = 0.2
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    no_position: bool = False
    no_visual: bool = False

    def __post_init__(self):
        if self.max_span_length < 1:
            raise ValueError("max_span_length must be at least 1")
        if self.filters < 1:
            raise ValueError("filters must be positive")
        if self.layers < 0:
            raise ValueError("layers must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.heads < 1 or self.filters % self.heads != 0:
            raise ValueError(
                f"filters {self.filters} not divisible by heads {self.heads}"
            )

    @classmethod
    def from_dict(cls, d):
        """The config that ``asdict`` gave as ``d``, each value checked as a config file's is.

        A missing key takes its default. An unknown key, or a value of the
        wrong type (``check_type``) or out of range, raises ValueError naming
        it, and so does an ``embedding.visual_dim`` other than 18.
        """
        cfg = settings(cls(), "model")  # the model's keys, at their defaults
        for prefix, values in (("model", d), ("embedding", d.get("embedding", {}))):
            if not isinstance(values, dict):
                raise ValueError(f"{prefix} must be an object, got {values!r}")
            for name, value in values.items():
                key = f"{prefix}.{name}"
                if key in cfg:
                    cfg[key] = value
                elif key == "embedding.visual_dim":  # older checkpoints record the fixed width
                    if value != VISUAL_DIM:
                        raise ValueError(f"visual_dim {value!r} is not {VISUAL_DIM}")
                elif key != "model.embedding":  # the nested section, walked second
                    raise ValueError(f"unknown {prefix} key {name!r}")
        return section(cfg, "model")


@dataclass(frozen=True)
class TrainingConfig:
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 10
    validation_fraction: float = 0.1
    max_doc_length: int = MAX_DOC_LENGTH
    seed: int = 0

    def __post_init__(self):
        if self.lr_start <= 0 or self.lr_end <= 0:
            raise ValueError("learning rates must be positive")
        if self.lr_end > self.lr_start:
            raise ValueError("lr_end must not exceed lr_start")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.max_doc_length < 1:
            raise ValueError("max_doc_length must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PredictConfig:
    top_k: int = 10
    chunk_weight: float = 0.9

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if not 0.0 < self.chunk_weight <= 1.0:
            raise ValueError("chunk_weight must be in (0, 1]")


# Key prefix -> section dataclass. A field is the key "<prefix>.<field>", but
# the model's embedding section has its own prefix and the training seed is "seed".
SECTIONS = {
    "model": ModelConfig,
    "embedding": EmbeddingConfig,
    "train": TrainingConfig,
    "predict": PredictConfig,
}


def _key(prefix, name):
    return "seed" if (prefix, name) == ("train", "seed") else f"{prefix}.{name}"


def settings(config, prefix):
    """The flat keys of ``config``, a dataclass of section ``prefix``, with its values."""
    found = {}
    for f in fields(config):
        if f.name in SECTIONS:  # the model's embedding section
            found.update(settings(getattr(config, f.name), f.name))
        else:
            found[_key(prefix, f.name)] = getattr(config, f.name)
    return found


def defaults():
    """Every config key with its default."""
    cfg = {"threads": 0,  # 0 = leave the BLAS thread pool alone
           "embedding.frozen_vectors": None}  # a file path, not a model setting
    for prefix in ("model", "train", "predict"):  # model holds embedding
        cfg.update(settings(SECTIONS[prefix](), prefix))
    return cfg


def section(cfg, prefix):
    """The dataclass of section ``prefix`` built from the flat ``cfg`` alone.

    Each value passes ``check_type`` (an int given for a float field becomes
    a float) and then the dataclass's range checks, or raises ValueError.
    """
    values = {}
    for f in fields(SECTIONS[prefix]):
        if f.name in SECTIONS:
            values[f.name] = section(cfg, f.name)
        else:
            key = _key(prefix, f.name)
            values[f.name] = check_type(key, cfg[key], type(f.default))
    return SECTIONS[prefix](**values)
