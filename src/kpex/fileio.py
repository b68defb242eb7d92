"""The one reader for each input file format, and atomic writes.

Every text file kpex reads (checkpoints are binary, see ``registry``) goes
through one function here, which locates a bad input at ``path:line``:
``read_records`` for JSONL records, ``read_json`` for a whole JSON file and
``read_lines`` for a plain list of lines. This module imports no numpy,
because the CLI reads its config file before ``--threads`` caps the BLAS
thread pools.
"""

from __future__ import annotations

import json
import os


class DatasetError(ValueError):
    pass


def _invalid_json(path, exc, lineno=None):
    """DatasetError at ``path:lineno``, or at ``path`` for a whole file.

    A syntax error adds its column (and its line in a whole file). An integer
    literal past Python's digit limit raises a plain ValueError, and nesting
    past the recursion limit a RecursionError, both with no position.
    """
    if isinstance(exc, json.JSONDecodeError):
        return DatasetError(
            f"{path}:{lineno or exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    where = path if lineno is None else f"{path}:{lineno}"
    return DatasetError(f"{where}: invalid JSON: {exc}")


def read_json(path):
    """The JSON value in ``path``; a syntax error fails at ``path:line:col``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise _invalid_json(path, exc) from exc


def read_records(path, *fields):
    """Yield ``(where, object)`` for each non-blank line of a JSONL file.

    ``where`` is ``path:lineno``. A line that is not valid JSON, not an
    object, or lacks one of ``fields`` raises DatasetError at ``where``.
    When ``id`` is one of ``fields``, so does an id seen on an earlier line;
    ids compare as strings.
    """
    expected = f"expected an object with {' and '.join(fields)}"
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise _invalid_json(path, exc, lineno) from exc
            if not isinstance(obj, dict) or any(f not in obj for f in fields):
                raise DatasetError(f"{where}: {expected}")
            if "id" in fields:
                doc_id = str(obj["id"])
                if doc_id in seen_ids:
                    raise DatasetError(f"{where}: duplicate id {doc_id!r}")
                seen_ids.add(doc_id)
            yield where, obj


def read_lines(path):
    """The stripped lines of a text file, skipping blank lines and # comments."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]


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
