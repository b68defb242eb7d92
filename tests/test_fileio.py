"""The shared JSONL record contract, held by every reader of a JSONL file."""

import argparse
import re

import pytest

from kpex.cli import cmd_agreement
from kpex.documents import read_dataset
from kpex.embedding import FrozenVectors
from kpex.fileio import DatasetError, read_records, write_jsonl
from kpex.inference import read_predictions
from kpex.weaksup import read_query_log


def _agreement(path):
    args = argparse.Namespace(annotations=path, depth=1, mode="exact", out=None)
    return cmd_agreement(args, {})


# reader: (read a path, a valid record but its id, the fields a record needs)
READERS = {
    "dataset": (read_dataset, {"text": "red stapler"}, ("id", "text")),
    "query_log": (read_query_log, {"queries": ["red stapler"]}, ("id", "queries")),
    "frozen_vectors": (lambda path: FrozenVectors.load(path, token_dim=2),
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
