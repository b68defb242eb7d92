"""Configuration dataclasses: the one place a setting and its default are written.

The CLI derives its flat dotted-key table ("model.filters": 64) from these
fields, so this module must stay importable without numpy: ``--threads`` has
to take effect before any BLAS library loads. ``check_type`` is the one type
rule for a setting, whether it comes from the command line, a config file or
a checkpoint.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

VISUAL_DIM = 18
MAX_SPAN_LENGTH = 5
MAX_DOC_LENGTH = 256

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def check_type(key, value, kind):
    """``value``, made a float if ``kind`` is; ValueError naming ``key`` if it is not a ``kind``.

    Nothing else is coerced. An int key takes an int, a float key an int or a
    float, a bool key a bool and a string key a string. True is an int in
    Python, so a bool is refused wherever a number is wanted.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _from_dict(cls, values, prefix):
    """``cls`` built from ``values``, a mapping as ``asdict`` gives; ``prefix`` names its keys."""
    if not isinstance(values, dict):
        raise ValueError(f"{prefix} must be an object, got {values!r}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for name, value in values.items():
        key = f"{prefix}.{name}"
        if key == "embedding.visual_dim":  # older checkpoints record the fixed width
            if value != VISUAL_DIM:
                raise ValueError(f"visual_dim {value!r} is not {VISUAL_DIM}")
        elif name not in known:
            raise ValueError(f"unknown {prefix} key {name!r}")
        elif known[name].default is MISSING:  # a nested section
            kwargs[name] = _from_dict(known[name].default_factory, value, name)
        else:
            kwargs[name] = check_type(key, value, type(known[name].default))
    return cls(**kwargs)


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
        return _from_dict(cls, d, "model")


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
