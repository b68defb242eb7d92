"""Xavier initialization and binary checkpoint serialization.

A model's parameters are a plain name -> Tensor dict (``SpanScorer.registry``)
whose insertion order optimizers and checkpoints both follow. Checkpoints are
a single binary file: a magic/version header, a JSON metadata block (model
config, vocab, caller extras such as the CLI's config digest), then one record
per parameter, in that order, with its name, shape, and little-endian float64
payload. Round-trips are exact.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .fileio import write_atomic

MAGIC = b"KPEX"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def xavier_uniform(rng, shape):
    """Glorot-uniform init: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def check_arrays(shapes, arrays):
    """Raise CheckpointError unless ``arrays`` fit the name -> shape map ``shapes``.

    The two name sets must be equal and every name's shape the same.
    """
    mismatched = [
        f"{name}: have {shapes[name]}, got {np.shape(arr)}"
        for name, arr in arrays.items()
        if name in shapes and shapes[name] != np.shape(arr)
    ]
    if mismatched:
        raise CheckpointError("shape mismatch for " + "; ".join(mismatched))
    missing = [n for n in shapes if n not in arrays]
    unknown = [n for n in arrays if n not in shapes]
    if missing or unknown:
        raise CheckpointError(
            f"parameter set mismatch: missing {missing}, unknown {unknown}"
        )


def _checkpoint_chunks(registry, metadata):
    """The bytes of a checkpoint, in order; arrays go out as views, not copies."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    yield MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(meta_bytes))
    yield meta_bytes
    yield struct.pack("<Q", len(registry))
    for name, tensor in registry.items():
        name_bytes = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        yield struct.pack("<H", len(name_bytes)) + name_bytes
        yield struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
        yield arr.data


def save_checkpoint(path, registry, metadata):
    """Serialize registry + metadata to ``path`` (written atomically)."""
    write_atomic(path, _checkpoint_chunks(registry, metadata))


def load_checkpoint(path):
    """Read a checkpoint; returns (metadata dict, name -> float64 array).

    The file is read record by record, each array straight into its final
    buffer, so no copy of the whole file is held. A parameter holding NaN or
    ±inf (seen by min and max, with no full-size temporary) is refused.
    """
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size

        def claim(n):
            nonlocal remaining
            if n > remaining:
                raise CheckpointError(f"truncated checkpoint {path}")
            remaining -= n

        def take(n):
            claim(n)
            return fh.read(n)

        if take(4) != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", take(4))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", take(8))
        try:
            metadata = json.loads(take(meta_len).decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CheckpointError(f"{path}: metadata is not valid JSON: {exc}") from exc
        (n_records,) = struct.unpack("<Q", take(8))
        arrays = {}
        for _ in range(n_records):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            claim(8 * count)  # before allocating: a bad shape fails as truncated
            data = np.empty(shape, dtype="<f8")
            fh.readinto(data)
            if data.size and not (math.isfinite(data.min()) and math.isfinite(data.max())):
                raise CheckpointError(f"non-finite values in parameter {name!r} of {path}")
            arrays[name] = data.astype(np.float64, copy=False)
        if remaining:
            raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return metadata, arrays
