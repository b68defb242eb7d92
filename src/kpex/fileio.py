"""Small JSON / JSONL file helpers with atomic writes."""

from __future__ import annotations

import json
import os


class DatasetError(ValueError):
    pass


def read_jsonl(path):
    """Yield (line_number, object) for each non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
                ) from exc


def string_list(value, name, where):
    """``value`` if it is a list of strings, else DatasetError at ``where``.

    ``where`` locates the record, as ``path:lineno`` for a JSONL line. A
    string is rejected, not read as a list of one-character strings.
    """
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise DatasetError(f"{where}: {name} must be a list of strings")


def write_atomic(path, chunks):
    """Replace ``path`` with the concatenated byte ``chunks`` through one rename.

    ``chunks`` is any iterable of bytes-like objects, written as it is
    consumed, so no joined copy of the contents is held. The temporary file
    is made by ``open``, so both get the usual 0o666-minus-umask mode.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path, objects):
    write_atomic(path, ((json.dumps(obj) + "\n").encode("utf-8") for obj in objects))


def write_json(path, obj):
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])
