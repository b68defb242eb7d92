"""Tokenizer, span enumeration, label alignment, and dataset ingestion."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from kpex import documents
from kpex.documents import (
    VISUAL_DIM,
    Document,
    Span,
    build_labels,
    count_spans,
    enumerate_spans,
    make_document,
    match_phrase,
    read_dataset,
    span_index,
    span_target,
    tokenize,
    truncate,
)
from kpex.fileio import DatasetError, read_records


class TestTokenize:
    def test_alphanumerics_stay_whole(self):
        assert tokenize("Bostitch 651S5 Stapler") == ["bostitch", "651s5", "stapler"]

    def test_punctuation_detached(self):
        assert tokenize("A,B") == ["a", ",", "b"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize(" \t\n ") == []

    def test_mixed_sample(self):
        assert tokenize("It's state-of-the-art!") == [
            "it", "'", "s", "state", "-", "of", "-", "the", "-", "art", "!",
        ]


def _doc(tokens, doc_id="d", keyphrases=()):
    return Document(doc_id, tuple(tokens), np.zeros((len(tokens), VISUAL_DIM)),
                    keyphrases=keyphrases)


class TestDocument:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no tokens"):
            _doc([])

    def test_rejects_misaligned_visual(self):
        with pytest.raises(ValueError, match="visual shape"):
            Document("d", ("a", "b"), np.zeros((3, VISUAL_DIM)))

    @pytest.mark.parametrize("shape", [(3, 4), (2,), (1, 2, 4)])
    def test_rejects_misaligned_vectors(self, shape):
        with pytest.raises(ValueError, match="'d': vectors shape"):
            Document("d", ("a", "b"), np.zeros((2, VISUAL_DIM)), vectors=np.zeros(shape))

    def test_make_document_zero_fills_missing_visual(self):
        doc = make_document("d", "hello world")
        np.testing.assert_array_equal(doc.visual, np.zeros((2, VISUAL_DIM)))

    def test_make_document_empty_text_returns_none(self):
        assert make_document("d", "") is None
        assert make_document("d", "  \n ") is None

    def test_phrase(self):
        doc = _doc(["protein", "synthesis", "rate"])
        assert doc.phrase(Span(0, 2)) == "protein synthesis"


class TestTruncate:
    def test_long_document_clipped(self):
        doc = _doc([f"w{i}" for i in range(300)])
        clipped = truncate(doc)
        assert len(clipped) == 256
        assert clipped.visual.shape == (256, VISUAL_DIM)

    def test_short_document_untouched(self):
        doc = _doc([f"w{i}" for i in range(100)])
        assert truncate(doc) is doc

    def test_visual_rows_in_lockstep(self):
        visual = np.arange(10 * VISUAL_DIM, dtype=float).reshape(10, VISUAL_DIM)
        doc = Document("d", tuple(f"w{i}" for i in range(10)), visual)
        clipped = truncate(doc, 4)
        np.testing.assert_array_equal(clipped.visual, visual[:4])

    def test_vector_rows_in_lockstep(self):
        vectors = np.arange(10 * 3, dtype=float).reshape(10, 3)
        doc = _doc([f"w{i}" for i in range(10)])
        clipped = truncate(Document(doc.id, doc.tokens, doc.visual, vectors=vectors), 4)
        np.testing.assert_array_equal(clipped.vectors, vectors[:4])
        assert truncate(doc, 4).vectors is None


class TestEnumerateSpans:
    def test_counting_cases(self):
        assert len(enumerate_spans(6, 3)) == 15
        assert len(enumerate_spans(3, 5)) == 6
        assert len(enumerate_spans(1, 5)) == 1
        assert len(enumerate_spans(12, 5)) == 50

    def test_ordering_by_length_then_start(self):
        spans = enumerate_spans(3, 2)
        np.testing.assert_array_equal(
            spans, [Span(0, 1), Span(1, 1), Span(2, 1), Span(0, 2), Span(1, 2)]
        )

    def test_count_formula_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 8))
            assert count_spans(n, k) == len(enumerate_spans(n, k))

    def test_span_index_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 7))
            spans = enumerate_spans(n, k)
            for i, span in enumerate(spans):
                assert span_index(n, span) == i

    def test_span_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            span_index(4, Span(3, 2))


class TestMatchPhrase:
    def test_multiple_occurrences(self):
        doc = _doc(["protein", "synthesis", "and", "protein"])
        assert match_phrase(doc, ("protein",)) == [Span(0, 1), Span(3, 1)]

    def test_absent_phrase(self):
        doc = _doc(["protein", "synthesis"])
        assert match_phrase(doc, ("dna",)) == []

    def test_bigram(self):
        doc = _doc(["protein", "synthesis", "and", "protein"])
        assert match_phrase(doc, ("protein", "synthesis")) == [Span(0, 2)]

    def test_normalization_shared_with_tokenizer(self):
        doc = _doc(["bostitch", "651s5", "stapler"])
        assert match_phrase(doc, tuple(tokenize("Bostitch 651S5"))) == [Span(0, 2)]


class TestBuildLabels:
    def test_two_positives_half_mass_each(self):
        spans, report = build_labels(_doc(["a", "b", "c", "d"], keyphrases=("a", "c d")))
        assert report.matched == 2
        dense = span_target(4, 5, spans)
        np.testing.assert_allclose(dense.sum(), 1.0)
        assert dense[span_index(4, Span(0, 1))] == 0.5
        assert dense[span_index(4, Span(2, 2))] == 0.5

    def test_repeated_occurrence_thirds(self):
        spans, _ = build_labels(_doc(["x", "y", "x", "z"], keyphrases=("x", "z")))
        dense = span_target(4, 5, spans)
        hits = dense[dense > 0]
        np.testing.assert_allclose(hits, [1 / 3, 1 / 3, 1 / 3])

    def test_phrase_beyond_truncation_skips_document(self):
        doc = truncate(_doc([f"w{i}" for i in range(300)], keyphrases=("w299",)), 256)
        target, report = build_labels(doc)
        assert target is None
        assert report.unmatched == ["w299"]

    def test_too_long_phrase_counted_separately(self):
        doc = _doc(["a", "b", "c", "d", "e", "f", "g"], keyphrases=("a b c d e f",))
        target, report = build_labels(doc)
        assert target is None
        assert report.too_long == ["a b c d e f"]

    def test_span_target_requires_spans(self):
        with pytest.raises(ValueError):
            span_target(4, 5, ())


class TestReadDataset:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        return str(path)

    def test_reads_labeled_and_unlabeled(self, tmp_path):
        visual = [[0.5] * VISUAL_DIM] * 2
        path = self._write(tmp_path, [
            {"id": "a", "text": "hello world", "visual": visual,
             "keyphrases": ["hello"]},
            {"id": "b", "text": "plain doc"},
            {"id": "c", "text": "empty list", "keyphrases": []},
            {"id": "d", "text": "null list", "keyphrases": None},
        ])
        docs, report = read_dataset(path)
        assert all(isinstance(doc, Document) for doc in docs)
        assert [doc.keyphrases for doc in docs] == [("hello",), (), (), ()]
        assert report.zero_visual == ["b", "c", "d"]

    def test_empty_text_counted_skip(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "   "},
            {"id": "b", "text": "fine"},
        ])
        items, report = read_dataset(path)
        assert len(items) == 1
        assert report.skipped_empty == ["a"]

    def test_wrong_visual_width_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "one two", "visual": [[0.1] * 17] * 2},
        ])
        with pytest.raises(DatasetError, match="visual"):
            read_dataset(path)

    @pytest.mark.parametrize("visual,message", [
        ([[0.1]], r"visual features have shape \(1, 1\), expected \(2, 18\)"),
        ([[float("nan")] * VISUAL_DIM] * 2, "non-finite visual feature"),
    ], ids=["shape", "non-finite"])
    def test_bad_visual_located(self, tmp_path, visual, message):
        path = self._write(tmp_path, [
            {"id": "z", "text": "fine"},
            {"id": "a", "text": "one two", "visual": visual},
        ])
        with pytest.raises(DatasetError, match=r":2: document 'a': " + message):
            read_dataset(path)

    @pytest.mark.parametrize("value", ["0.5", True, None], ids=["string", "bool", "null"])
    def test_non_number_visual_values_located(self, tmp_path, value):
        # numpy would read "0.5" as 0.5, true as 1.0 and null as NaN
        for visual in ([[value] * VISUAL_DIM] * 2, [[0.5] * VISUAL_DIM, [0.5] * 17 + [value]]):
            path = self._write(tmp_path, [
                {"id": "z", "text": "fine"},
                {"id": "a", "text": "one two", "visual": visual},
            ])
            with pytest.raises(DatasetError, match=r"data.jsonl:2: document 'a': visual "
                               r"features must form a \(2, 18\) array of numbers"):
                read_dataset(path)

    def test_integer_past_float_range_is_non_finite(self, tmp_path):
        path = tmp_path / "data.jsonl"
        row = ", ".join(["0.5"] * (VISUAL_DIM - 1) + ["1" + "0" * 400])
        path.write_text('{"id": "a", "text": "one", "visual": [[%s]]}\n' % row)
        with pytest.raises(DatasetError, match=r":1: document 'a': non-finite visual features"):
            read_dataset(str(path))

    def test_ragged_visual_rows_located(self, tmp_path):
        # numpy's own "inhomogeneous shape" error names no file or document
        visual = [[0.1] * VISUAL_DIM, [0.1] * (VISUAL_DIM - 1)]
        path = self._write(tmp_path, [
            {"id": "z", "text": "fine"},
            {"id": "a", "text": "one two", "visual": visual},
        ])
        with pytest.raises(DatasetError, match=r"data.jsonl:2: document 'a': visual"):
            read_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "x"},
            {"id": "a", "text": "y"},
        ])
        with pytest.raises(DatasetError, match="duplicate"):
            read_dataset(path)

    def test_bad_json_line_located(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{oops\n')
        with pytest.raises(DatasetError, match=":2:"):
            read_dataset(str(path))

    def test_visual_values_clamped(self, tmp_path):
        visual = [[1.5] * VISUAL_DIM, [-0.5] * VISUAL_DIM]
        path = self._write(tmp_path, [{"id": "a", "text": "x y", "visual": visual}])
        items, _ = read_dataset(path)
        assert items[0].visual.max() == 1.0
        assert items[0].visual.min() == 0.0

    def test_non_string_text_located(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "text": "fine"},
            {"id": "b", "text": 5},
        ])
        with pytest.raises(DatasetError, match=r":2: text must be a string"):
            read_dataset(path)

    @pytest.mark.parametrize("keyphrases", ["red stapler", ["red", 5], {"red": 1}])
    def test_keyphrases_not_a_list_of_strings_located(self, tmp_path, keyphrases):
        path = self._write(tmp_path, [
            {"id": "a", "text": "red stapler", "keyphrases": keyphrases},
        ])
        with pytest.raises(DatasetError, match=r":1: keyphrases must be a list of strings"):
            read_dataset(path)


def _snapshot(docs, report):
    """Everything a read returns, as bytes and tuples, for bitwise comparison."""
    return ([(d.id, d.tokens, d.keyphrases, d.visual.dtype.str, d.visual.shape,
              d.visual.tobytes(), d.vectors) for d in docs],
            (report.skipped_empty, report.zero_visual))


class TestParseMemo:
    LINES = [
        {"id": "a", "text": "Red stapler, heavy-duty!", "keyphrases": ["red stapler"],
         "visual": [[(i * VISUAL_DIM + j) / 40 - 0.5 for j in range(VISUAL_DIM)]
                    for i in range(7)]},
        {"id": "blank", "text": " \t "},
        {"id": 7, "text": "Büro stühle naïve café", "keyphrases": []},
        {"id": "c", "text": "one", "visual": [[-0.0] * VISUAL_DIM]},
    ]

    @pytest.fixture
    def parses(self, monkeypatch):
        """Paths parsed so far, counted from an empty memo."""
        monkeypatch.setattr(documents, "_last_parse", None)
        parsed = []

        def counted(path, *fields):
            parsed.append(path)
            return read_records(path, *fields)

        monkeypatch.setattr(documents, "read_records", counted)
        return parsed

    @staticmethod
    def _write(path, lines=LINES):
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        return str(path)

    def test_repeat_read_is_bitwise_the_parse(self, tmp_path, parses):
        path = self._write(tmp_path / "data.jsonl")
        first = read_dataset(path)
        second = read_dataset(path)
        assert parses == [path]
        assert _snapshot(*second) == _snapshot(*first)
        assert _snapshot(*first)[1] == (["blank"], ["7"])
        # fresh containers, shared read-only documents
        assert second[0] is not first[0] and second[1] is not first[1]
        second[1].skipped_empty.append("x")
        assert read_dataset(path)[1].skipped_empty == ["blank"]
        for doc in first[0]:
            with pytest.raises(ValueError, match="read-only"):
                doc.visual[0, 0] = 0.5

    def test_repeat_command_reports_the_same_skips(self, tmp_path, parses, capsys):
        from kpex.cli import main

        data = self._write(tmp_path / "data.jsonl")
        runs = []
        for out in ("first.jsonl", "second.jsonl"):
            out = str(tmp_path / out)
            assert main(["baseline", "--method", "tfidf", "--data", data, "--out", out]) == 0
            with open(out, "rb") as fh:
                runs.append((capsys.readouterr().err, fh.read()))
        assert runs[0] == runs[1]
        assert runs[0][0] == "skipped: 1 empty\nzero-filled or dropped: zero_visual=1\n"
        assert parses == [data]

    def test_same_size_edit_parses_again(self, tmp_path, parses):
        path = tmp_path / "data.jsonl"
        self._write(path)
        read_dataset(str(path))
        path.write_bytes(path.read_bytes().replace(b"Red stapler", b"Red staples"))
        docs, _ = read_dataset(str(path))
        assert docs[0].tokens[:2] == ("red", "staples")
        assert parses == [str(path)] * 2

    def test_only_the_last_file_kept(self, tmp_path, parses):
        a = self._write(tmp_path / "a.jsonl")
        b = self._write(tmp_path / "b.jsonl", self.LINES[:2])
        copy = self._write(tmp_path / "copy.jsonl")
        for path in (a, copy, b, a, a):
            read_dataset(path)
        assert parses == [a, b, a]  # a copy has the same bytes

    def test_file_changed_during_parse_not_kept(self, tmp_path, parses, monkeypatch):
        path = tmp_path / "data.jsonl"
        self._write(path)
        parse = documents.dataset_from_records

        def parse_then_edit(records):
            parsed = parse(records)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"id": "late", "text": "added mid-read"}) + "\n")
            return parsed

        monkeypatch.setattr(documents, "dataset_from_records", parse_then_edit)
        read_dataset(str(path))
        assert documents._last_parse is None

    def test_fifo_read_and_never_kept(self, tmp_path, parses):
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        payload = "".join(json.dumps(obj) + "\n" for obj in self.LINES).encode()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(payload)

        got = []
        # a reader that hashed the FIFO first would block on reopening it
        reader = threading.Thread(target=lambda: got.append(read_dataset(str(fifo))),
                                  daemon=True)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=30)
        writer.join(timeout=1)
        assert not reader.is_alive() and not writer.is_alive()
        assert documents._last_parse is None
        assert _snapshot(*got[0]) == _snapshot(*read_dataset(self._write(tmp_path / "data.jsonl")))

    def test_bad_file_never_kept(self, tmp_path, parses):
        good = self._write(tmp_path / "good.jsonl")
        read_dataset(good)
        path = self._write(tmp_path / "data.jsonl", self.LINES + [
            {"id": "d", "text": "one two", "visual": [[0.5] * VISUAL_DIM]}])
        for _ in range(2):
            with pytest.raises(DatasetError, match=r"data.jsonl:5: document 'd': visual"):
                read_dataset(path)
            assert documents._last_parse is None  # the good parse is dropped first
        assert parses == [good, path, path]

    def test_threads_reading_two_files_get_their_own(self, tmp_path, parses):
        paths = [self._write(tmp_path / "a.jsonl"),
                 self._write(tmp_path / "b.jsonl", self.LINES[2:])]
        want = [_snapshot(*read_dataset(p)) for p in paths]
        wrong = []

        def read(i):
            try:
                for _ in range(30):
                    if _snapshot(*read_dataset(paths[i % 2])) != want[i % 2]:
                        wrong.append(i)
            except Exception as exc:  # a thread's exception would go unseen
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
