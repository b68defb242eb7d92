"""Query-log filtering and the weak supervision dataset builder."""

import numpy as np
import pytest

from kpex.documents import Span, make_document, span_index
from kpex.fileio import DatasetError, write_jsonl
from kpex.training import prepare_examples
from kpex.weaksup import (
    QueryDatasetStats,
    build_qp_dataset,
    filter_queries,
    load_blocklist,
    read_query_log,
)


def _doc(doc_id, text):
    return make_document(doc_id, text)


class TestFilterQueries:
    def test_verbatim_query_kept_with_spans(self):
        doc = _doc("d", "book cheap flights to boston today")
        kept, dropped = filter_queries(doc, ["cheap flights"])
        assert kept == ["cheap flights"]
        assert dropped == []

    def test_absent_query_dropped(self):
        doc = _doc("d", "book cheap flights to boston")
        kept, dropped = filter_queries(doc, ["hotels"])
        assert kept == []
        assert dropped == [("hotels", "not_verbatim")]

    def test_too_long_query(self):
        doc = _doc("d", "a b c d e f g h")
        kept, dropped = filter_queries(doc, ["a b c d e f"], max_span_length=5)
        assert dropped == [("a b c d e f", "too_long")]

    def test_repeated_occurrence_collects_every_span(self):
        doc = _doc("d", "red stapler on a red stapler")
        kept, _ = filter_queries(doc, ["red stapler"])
        assert kept == ["red stapler"]

    def test_duplicate_queries_collapse(self):
        doc = _doc("d", "cheap flights here")
        kept, dropped = filter_queries(doc, ["cheap flights", "Cheap  FLIGHTS"])
        assert len(kept) == 1
        assert dropped == [("Cheap  FLIGHTS", "duplicate")]

    def test_empty_query(self):
        doc = _doc("d", "a b")
        _, dropped = filter_queries(doc, ["   "])
        assert dropped == [("   ", "empty")]

    def test_blocklist(self):
        doc = _doc("d", "free stuff inside")
        _, dropped = filter_queries(
            doc, ["free stuff"], blocklist=frozenset({"free stuff"})
        )
        assert dropped == [("free stuff", "blocked")]

    def test_tokenization_matches_document_side(self):
        doc = _doc("d", "The Bostitch 651S5 stapler!")
        kept, _ = filter_queries(doc, ["bostitch 651s5"])
        assert kept == ["bostitch 651s5"]


class TestBuildQpDataset:
    def _corpus(self):
        docs = [
            _doc("d1", "alpha beta gamma alpha beta"),
            _doc("d2", "delta epsilon zeta"),
            _doc("d3", "eta theta iota"),
        ]
        log = {
            "d1": ["alpha beta", "gamma"],
            "d2": ["missing phrase"],
            # d3 absent from the log
        }
        return docs, log

    def test_examples_and_skips(self):
        docs, log = self._corpus()
        examples, stats = build_qp_dataset(docs, log)
        assert [ex.id for ex in examples] == ["d1"]
        assert examples[0].keyphrases == ("alpha beta", "gamma")
        assert stats.n_documents == 1
        assert stats.dropped == {"not_verbatim": 1}

    def test_target_uniform_over_all_occurrences(self):
        docs, log = self._corpus()
        examples, _ = build_qp_dataset(docs, log)
        [prepared], _ = prepare_examples(examples, 5)
        assert prepared.document is examples[0]
        dense = prepared.target
        # "alpha beta" occurs twice, "gamma" once: three spans total
        hits = {span_index(5, s) for s in (Span(2, 1), Span(0, 2), Span(3, 2))}
        assert set(np.flatnonzero(dense).tolist()) == hits
        np.testing.assert_allclose(dense[dense > 0], np.full(3, 1 / 3))

    def test_doc_length_measured_before_truncation(self):
        doc = _doc("d", " ".join(["tok"] * 30))
        examples, stats = build_qp_dataset([doc], {"d": ["tok"]}, max_doc_length=10)
        assert len(examples[0]) == 10
        assert (stats.doc_length_mean, stats.doc_length_std) == (30.0, 0.0)

    def test_stats_values(self):
        docs = [
            _doc("d1", "a b c d"),
            _doc("d2", "a b e f g h"),
        ]
        log = {"d1": ["a b", "c"], "d2": ["a b"]}
        _, stats = build_qp_dataset(docs, log)
        assert stats.n_documents == 2
        assert stats.n_unique_queries == 2  # "a b" shared, "c"
        assert stats.doc_length_mean == pytest.approx(5.0)
        assert stats.queries_per_doc_mean == pytest.approx(1.5)
        assert stats.query_length_mean == pytest.approx((2 + 1 + 2) / 3)
        assert stats.doc_vocabulary_size == 8
        assert stats.query_vocabulary_size == 3  # a, b, c

    def test_table_labels(self):
        table = QueryDatasetStats().as_table()
        for label in (
            "# of Documents",
            "# of Unique Queries",
            "Doc Length",
            "# of Query per Doc",
            "Query Length",
            "Doc Vocabulary Size",
            "Query Vocabulary Size",
        ):
            assert label in table

    def test_asdict_roundtrips_through_json(self):
        import json
        from dataclasses import asdict

        docs, log = self._corpus()
        _, stats = build_qp_dataset(docs, log)
        blob = json.dumps(asdict(stats))
        assert json.loads(blob)["n_documents"] == 1


class TestQueryLogIO:
    def test_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(
            str(path),
            [{"id": "d1", "queries": ["q one"]}, {"id": "d2", "queries": []}],
        )
        log = read_query_log(str(path))
        assert log == {"d1": ["q one"], "d2": []}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(
            str(path),
            [{"id": "d1", "queries": []}, {"id": "d1", "queries": []}],
        )
        with pytest.raises(DatasetError, match="duplicate"):
            read_query_log(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(str(path), [{"id": "d1"}])
        with pytest.raises(DatasetError, match="queries"):
            read_query_log(str(path))

    @pytest.mark.parametrize("queries", ["one two", ["one", 5], {"one": 1}])
    def test_queries_not_a_list_of_strings_located(self, tmp_path, queries):
        path = tmp_path / "log.jsonl"
        write_jsonl(str(path), [{"id": "d1", "queries": []}, {"id": "d2", "queries": queries}])
        with pytest.raises(DatasetError, match=r":2: queries must be a list of strings"):
            read_query_log(str(path))

    def test_blocklist_file(self, tmp_path):
        path = tmp_path / "block.txt"
        path.write_text("# adult terms\nFree   Stuff\n\ncasino\n")
        entries = load_blocklist(str(path))
        assert entries == frozenset({"free stuff", "casino"})
