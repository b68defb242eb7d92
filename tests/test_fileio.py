"""The shared JSONL record contract, held by every reader of a JSONL file."""

import argparse
import os
import re

import pytest

from kpex.cli import cmd_agreement, main
from kpex.documents import read_dataset
from kpex.embedding import attach_vectors
from kpex.fileio import DatasetError, read_json, read_lines, read_records, write_jsonl
from kpex.inference import read_predictions
from kpex.weaksup import read_query_log


def _agreement(path):
    args = argparse.Namespace(annotations=path, depth=1, mode="exact", out=None)
    return cmd_agreement(args, {})


# reader: (read a path, a valid record but its id, the fields a record needs)
READERS = {
    "dataset": (read_dataset, {"text": "red stapler"}, ("id", "text")),
    "query_log": (read_query_log, {"queries": ["red stapler"]}, ("id", "queries")),
    "frozen_vectors": (lambda path: attach_vectors([], path, token_dim=2),
                       {"vectors": [[0.0, 1.0]]}, ("id", "vectors")),
    "predictions": (read_predictions, {"phrases": [["red stapler", 0.5]]}, ("id", "phrases")),
    "agreement": (_agreement, {"judges": [["red stapler"], ["red"]]}, ("judges",)),
}


def _bad_lines():
    for name, (_, record, fields) in READERS.items():
        expected = "expected an object with " + " and ".join(fields)
        yield pytest.param(name, ["d2", record], expected, id=f"{name}-not-an-object")
        for field in fields:
            line = {"id": "d2", **record}
            del line[field]
            yield pytest.param(name, line, expected, id=f"{name}-no-{field}")
        if "id" in fields:
            yield pytest.param(name, {"id": "d1", **record}, "duplicate id 'd1'",
                               id=f"{name}-duplicate-id")
            yield pytest.param(name, {"id": "", **record}, "id must be non-empty",
                               id=f"{name}-empty-id")


@pytest.mark.parametrize("reader,line,message", _bad_lines())
def test_bad_record_located(tmp_path, reader, line, message):
    read, record, _ = READERS[reader]
    path = str(tmp_path / "records.jsonl")
    write_jsonl(path, [{"id": "d1", **record}, line])
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: {message}")):
        read(path)


def test_ids_compare_as_strings(tmp_path):
    path = str(tmp_path / "records.jsonl")
    write_jsonl(path, [{"id": 7}, {"id": "7"}])
    with pytest.raises(DatasetError, match=re.escape(f"{path}:2: duplicate id '7'")):
        list(read_records(path, "id"))


def test_invalid_json_located_by_line_and_column(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "d1"}\n\n{"id": oops}\n')
    with pytest.raises(DatasetError, match=re.escape(f"{path}:3:8: invalid JSON: ")):
        list(read_records(str(path), "id"))


# an integer literal past Python's 4,300-digit limit: json raises a plain
# ValueError for it, with no line or column
LONG_INTEGER = "1" * 5000


def test_integer_past_digit_limit_located(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text('{"id": "d1"}\n{"id": %s}\n' % LONG_INTEGER)
    with pytest.raises(DatasetError, match=re.escape(f"{records}:2: invalid JSON: ")):
        list(read_records(str(records), "id"))
    whole = tmp_path / "config.json"
    whole.write_text('{"seed": %s}\n' % LONG_INTEGER)
    with pytest.raises(DatasetError, match=re.escape(f"{whole}: invalid JSON: ")):
        read_json(str(whole))


@pytest.mark.parametrize("command", ["baseline", "config"])
def test_integer_past_digit_limit_exits_one_naming_the_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    if command == "baseline":
        bad.write_text('{"id": "d1", "text": "red stapler"}\n'
                       '{"id": "d2", "text": "blue chair", "n": %s}\n' % LONG_INTEGER)
        argv = ["baseline", "--method", "tfidf", "--data", str(bad),
                "--out", str(tmp_path / "out.jsonl")]
        where = f"{bad}:2"
    else:
        bad.write_text('{"seed": %s}\n' % LONG_INTEGER)
        argv = ["--config", str(bad), "--show-config"]
        where = str(bad)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: invalid JSON: ")


# nesting past Python's recursion limit: json raises RecursionError, not a
# ValueError, and names no file
DEEP = 100_000
DEEP_ARRAY = "[" * DEEP + "]" * DEEP


def test_deep_nesting_located(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text('{"id": "d1"}\n{"id": "d2", "n": %s}\n' % DEEP_ARRAY)
    with pytest.raises(DatasetError, match=re.escape(
            f"{records}:2: invalid JSON: maximum recursion depth exceeded")):
        list(read_records(str(records), "id"))
    whole = tmp_path / "config.json"
    whole.write_text('{"seed": %s}\n' % DEEP_ARRAY)
    with pytest.raises(DatasetError, match=re.escape(
            f"{whole}: invalid JSON: maximum recursion depth exceeded")):
        read_json(str(whole))


def _deep_layout(divs):
    """A layout whose root holds one leaf under ``divs`` nested div nodes."""
    div = '{"tag": "div", "box": [0, 0, 10, 10], "font": 10, "children": ['
    leaf = '{"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "x"}'
    return '{"page": [100, 100], "root": %s%s%s}' % (div * divs, leaf, "]}" * divs)


@pytest.mark.parametrize("command", ["baseline", "featurize"])
def test_deep_nesting_exits_one_naming_the_file(tmp_path, capsys, command):
    out = str(tmp_path / "out.jsonl")
    if command == "baseline":
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "d1", "text": "red stapler"}\n'
                       '{"id": "d2", "text": "blue chair", "n": %s}\n' % DEEP_ARRAY)
        argv = ["baseline", "--method", "tfidf", "--data", str(bad), "--out", out]
        where = f"{bad}:2"
    else:
        bad = tmp_path / "page.json"
        bad.write_text(_deep_layout(600))
        argv = ["featurize", "--layout-dir", str(tmp_path), "--out", out]
        where = str(bad)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {where}: invalid JSON: maximum recursion depth exceeded")
    assert not os.path.exists(out)


# 0xE9 is Latin-1 "é"; in UTF-8 it opens a sequence that the next byte must continue
NOT_UTF8 = b'{"id": "bad", "text": "caf\xe9 au lait"}\n'


@pytest.mark.parametrize("before", [1, 400], ids=["line-2", "past-first-8KiB"])
def test_non_utf8_line_located(tmp_path, before):
    # text mode decodes 8 KiB at a time, so a late bad byte needs its own line's decode
    path = tmp_path / "records.jsonl"
    good = b"".join(b'{"id": "d%d", "text": "tea"}\n' % i for i in range(before))
    path.write_bytes(good + NOT_UTF8 + b'{"id": "last", "text": "milk"}\n')
    with pytest.raises(DatasetError, match=re.escape(f"{path}:{before + 1}: not UTF-8: ")):
        list(read_records(str(path), "id"))


def test_non_utf8_whole_file_located(tmp_path):
    whole = tmp_path / "config.json"
    whole.write_bytes(b'{"name": "caf\xe9"}\n')
    with pytest.raises(DatasetError, match=re.escape(f"{whole}: not UTF-8: ")):
        read_json(str(whole))
    lines = tmp_path / "stopwords.txt"
    lines.write_bytes(b"the\ncaf\xe9\n")
    with pytest.raises(DatasetError, match=re.escape(f"{lines}: not UTF-8: ")):
        read_lines(str(lines))


@pytest.mark.parametrize("command", ["baseline", "config"])
def test_non_utf8_exits_one_naming_the_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.jsonl"
    if command == "baseline":
        bad.write_bytes(b'{"id": "d1", "text": "red stapler"}\n' + NOT_UTF8)
        argv = ["baseline", "--method", "tfidf", "--data", str(bad),
                "--out", str(tmp_path / "out.jsonl")]
        where = f"{bad}:2"
    else:
        bad.write_bytes(b'{"seed": 1, "x": "caf\xe9"}\n')
        argv = ["--config", str(bad), "--show-config"]
        where = str(bad)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: not UTF-8: ") and err.count("\n") == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_line_ends_read_alike(tmp_path, newline):
    path = tmp_path / "records.jsonl"
    lines = ['{"id": "d1", "text": "café"}', "  ", '{"id": "d2", "text": "tea"}', ""]
    path.write_bytes(newline.join(lines).encode("utf-8"))
    assert list(read_records(str(path), "id")) == [
        (f"{path}:1", {"id": "d1", "text": "café"}),
        (f"{path}:3", {"id": "d2", "text": "tea"}),
    ]
    listed = tmp_path / "stopwords.txt"
    listed.write_bytes(newline.join(["# words", "the", "", " café "]).encode("utf-8"))
    assert read_lines(str(listed)) == ["the", "café"]
