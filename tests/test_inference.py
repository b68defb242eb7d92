"""Phrase ranking, chunked scoring of long documents, and deduplication."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpex.config import EmbeddingConfig, PredictConfig
from kpex.documents import enumerate_spans, make_document, tokenize
from kpex.embedding import TokenVocabulary
from kpex.fileio import DatasetError, write_jsonl
from kpex.inference import (
    RANK_SLICE_PER_PHRASE,
    Prediction,
    chunk_and_merge,
    chunk_document,
    dedup_substrings,
    normalize_phrase,
    predict_topk,
    rank_phrases,
    read_predictions,
    write_predictions,
)
from kpex.model import ModelConfig, SpanDistribution, SpanScorer


def _distribution(n_tokens, probs, max_span_length=5):
    spans = enumerate_spans(n_tokens, max_span_length)
    probs = np.asarray(probs, dtype=np.float64)
    assert len(spans) == len(probs)
    return SpanDistribution(spans, probs)


def _contiguous_in(needle, haystack):
    if len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def _dedup_oracle(prediction):
    """The quadratic reference: test each tail phrase against each head phrase."""
    phrases = prediction.phrases
    head = math.ceil(len(phrases) / 4)
    protected = [tuple(p.split()) for p, _ in phrases[:head]]
    return phrases[:head] + tuple(
        (phrase, score) for phrase, score in phrases[head:]
        if not any(_contiguous_in(tuple(phrase.split()), top) for top in protected)
    )


def _collapse_oracle(distribution, doc):
    """Rank by (-probability, start, length), re-normalizing every span's text."""
    order = sorted(
        range(len(distribution.spans)),
        key=lambda i: (-distribution.probs[i], distribution.spans[i][0],
                       distribution.spans[i][1]),
    )
    ranked = {}
    for i in order:
        phrase = normalize_phrase(doc.phrase(distribution.spans[i]))
        ranked.setdefault(phrase, float(distribution.probs[i]))
    return tuple(ranked.items())


class FakeModel:
    """Serves canned distributions keyed by chunk document id."""

    def __init__(self, tables):
        self.tables = tables

    def distribution(self, chunk):
        return self.tables[chunk.id]


class TestNormalizePhrase:
    def test_lowercase_and_punctuation(self):
        assert normalize_phrase("The  Stapler!") == "the stapler !"
        assert normalize_phrase("Heavy-Duty") == "heavy - duty"

    def test_whitespace_collapse(self):
        assert normalize_phrase(" red   stapler ") == "red stapler"

    @pytest.mark.parametrize(
        "token,stemmed",
        [
            ("staplers", "stapler"),
            ("cities", "city"),
            ("glasses", "glass"),
            ("boss", "boss"),
            ("gas", "gas"),
            ("dogs", "dog"),
            ("red", "red"),
        ],
    )
    def test_plural_stemming(self, token, stemmed):
        assert normalize_phrase(token, stem=True) == stemmed

    def test_stem_off_by_default(self):
        assert normalize_phrase("staplers") == "staplers"


class TestPredictTopk:
    def test_identical_phrases_collapse_to_best(self):
        doc = make_document("d", "stapler x stapler")
        dist = _distribution(3, [0.2, 0.3, 0.5], max_span_length=1)
        pred = predict_topk(dist, doc, k=5)
        assert pred.phrases == (("stapler", 0.5), ("x", 0.3))

    def test_tie_breaks_by_start_then_length(self):
        doc = make_document("d", "delta echo fox")
        dist = _distribution(3, [0.2] * 5, max_span_length=2)
        pred = predict_topk(dist, doc, k=5)
        assert pred.phrase_list() == [
            "delta", "delta echo", "echo", "echo fox", "fox",
        ]

    def test_k_cuts_list(self):
        doc = make_document("d", "a b c")
        dist = _distribution(3, [0.5, 0.3, 0.2], max_span_length=1)
        assert len(predict_topk(dist, doc, k=2).phrases) == 2
        assert predict_topk(dist, doc, k=10).phrases[0] == ("a", 0.5)

    def test_k_validation(self):
        doc = make_document("d", "a")
        dist = _distribution(1, [1.0])
        with pytest.raises(ValueError):
            predict_topk(dist, doc, k=0)

    @given(st.text())
    @example("İstanbul Straße ﬁle ΟΔΟΣ, «x»…")
    def test_tokens_retokenize_to_themselves(self, text):
        # span phrases are document tokens joined by spaces, so they need
        # no second normalization
        assert tokenize(" ".join(tokenize(text))) == tokenize(text)

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.text(min_size=1, max_size=40),
        levels=st.lists(st.integers(0, 3), min_size=1),
    )
    @example(text="İstanbul ß ﬁle σχολή!! ﬁle", levels=[1, 0])
    def test_matches_renormalizing_oracle(self, text, levels):
        doc = make_document("d", text)
        if doc is None:
            return
        spans = enumerate_spans(len(doc), 5)
        # few distinct probability levels, so ties decide most of the order
        probs = np.array([levels[i % len(levels)] + 1.0 for i in range(len(spans))])
        dist = _distribution(len(doc), probs / probs.sum())
        pred = predict_topk(dist, doc, k=len(spans))
        assert pred.phrases == _collapse_oracle(dist, doc)


class TestRankPhrasesPrefix:
    """With k, rank_phrases converts the sorted spans a slice at a time and
    stops at k phrases; the result is the first k of the full ranking."""

    @settings(max_examples=150, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from("abcde"), min_size=1, max_size=40),
        levels=st.lists(st.integers(0, 3), min_size=1, max_size=50),
        max_len=st.integers(1, 5),
    )
    def test_equals_first_k_of_full_ranking(self, tokens, levels, max_len):
        # a five-word vocabulary repeats phrases; few score levels make ties
        doc = make_document("d", " ".join(tokens))
        spans = enumerate_spans(len(doc), max_len)
        scores = np.array([levels[i % len(levels)] / 3.0 for i in range(len(spans))])
        full = rank_phrases(doc, spans, scores)
        for k in range(1, len(full) + 2):
            assert rank_phrases(doc, spans, scores, k) == full[:k], k

    @pytest.mark.parametrize("repeats", [
        2 * RANK_SLICE_PER_PHRASE - 2,  # the second phrase one before a slice's end
        2 * RANK_SLICE_PER_PHRASE - 1,  # ... as its last span
        2 * RANK_SLICE_PER_PHRASE,  # ... as the next slice's first span
        5 * RANK_SLICE_PER_PHRASE,  # ... several slices on
    ])
    def test_phrase_found_across_slice_ends(self, repeats):
        # "x" repeated fills the first slices; "y" and "z" rank after it
        doc = make_document("d", " ".join(["x"] * repeats + ["y", "z"]))
        spans = enumerate_spans(len(doc), 1)
        scores = np.concatenate([np.linspace(1.0, 0.5, repeats), [0.25, 0.125]])
        full = rank_phrases(doc, spans, scores)
        assert [p for p, _ in full] == ["x", "y", "z"]
        for k in (1, 2, 3, 4):
            assert rank_phrases(doc, spans, scores, k) == full[:k], k


class TestChunkDocument:
    def test_sizes_ids_offsets(self):
        doc = make_document("d", " ".join(f"t{i}" for i in range(10)))
        vectors = np.arange(10 * 3, dtype=float).reshape(10, 3)
        chunks = chunk_document(replace(doc, vectors=vectors), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [c.id for c in chunks] == ["d#chunk0", "d#chunk1", "d#chunk2"]
        assert chunks[2].tokens == ("t8", "t9")
        # each chunk's vector rows start at its token offset
        for chunk, lo in zip(chunks, (0, 4, 8)):
            np.testing.assert_array_equal(chunk.vectors, vectors[lo : lo + len(chunk)])
        assert all(c.vectors is None for c in chunk_document(doc, 4))

    def test_visual_rows_travel_with_tokens(self):
        visual = np.linspace(0, 1, 6 * 18).reshape(6, 18)
        doc = make_document("d", "a b c d e f", visual.tolist())
        chunks = chunk_document(doc, 4)
        np.testing.assert_array_equal(chunks[1].visual, doc.visual[4:])

    def test_offset_compounds_for_rechunked_chunk(self):
        doc = make_document("d", "a b c d")
        vectors = np.arange(4 * 2, dtype=float).reshape(4, 2)
        sub = chunk_document(replace(doc, vectors=vectors), 2)[1]
        nested = chunk_document(sub, 1)
        assert [c.tokens for c in nested] == [("c",), ("d",)]
        np.testing.assert_array_equal(nested[0].vectors, vectors[2:3])
        np.testing.assert_array_equal(nested[1].vectors, vectors[3:4])

    def test_chunk_len_validation(self):
        doc = make_document("d", "a b")
        with pytest.raises(ValueError):
            chunk_document(doc, 0)


class TestChunkAndMerge:
    def test_hand_case_two_chunks(self):
        doc = make_document("d", "alpha beta gamma alpha")
        tables = {
            "d#chunk0": _distribution(2, [0.5, 0.3, 0.2], max_span_length=2),
            "d#chunk1": _distribution(2, [0.13, 0.27, 0.6], max_span_length=2),
        }
        pred = chunk_and_merge(FakeModel(tables), doc, chunk_len=2)
        scores = dict(pred.phrases)
        assert scores["alpha"] == pytest.approx(0.5 + 0.9 * 0.27)  # 0.743
        assert scores["gamma alpha"] == pytest.approx(0.9 * 0.6)
        assert scores["beta"] == pytest.approx(0.3)
        assert scores["gamma"] == pytest.approx(0.9 * 0.13)
        assert pred.phrase_list()[0] == "alpha"

    def test_fourth_chunk_weight_is_cubed(self):
        doc = make_document("d", "a b c zeta")
        tables = {
            f"d#chunk{p}": _distribution(1, [1.0]) for p in range(4)
        }
        pred = chunk_and_merge(FakeModel(tables), doc, chunk_len=1)
        assert dict(pred.phrases)["zeta"] == pytest.approx(0.9**3)  # 0.729

    def test_single_chunk_matches_predict_topk(self):
        vocab = TokenVocabulary(tuple(f"w{i}" for i in range(8)))
        model = SpanScorer(
            ModelConfig(
                filters=8, heads=2, dropout=0.0,
                embedding=EmbeddingConfig(token_dim=6, position_dim=4),
            ),
            vocab=vocab,
        )
        doc = make_document("d", "w0 w3 w1 w4 w2 w5 w0 w6")
        direct = predict_topk(model.distribution(doc), doc, k=10_000)
        merged = chunk_and_merge(model, doc, chunk_len=256)
        assert merged.doc_id == "d"
        assert merged.phrases == direct.phrases

    def test_random_tables_match_weighted_sum_oracle(self):
        rng = np.random.default_rng(42)
        vocab = [f"v{i}" for i in range(6)]
        for _ in range(200):
            n = int(rng.integers(4, 40))
            chunk_len = int(rng.integers(3, 9))
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=n)]
            doc = make_document("d", " ".join(tokens))
            chunks = chunk_document(doc, chunk_len)
            tables = {}
            expected = {}
            for p, chunk in enumerate(chunks):
                spans = enumerate_spans(len(chunk), 5)
                probs = rng.dirichlet(np.ones(len(spans)))
                tables[chunk.id] = _distribution(len(chunk), probs)
                per_phrase = {}
                for span, prob in zip(spans, probs):
                    phrase = chunk.phrase(span)
                    per_phrase[phrase] = max(per_phrase.get(phrase, 0.0), prob)
                for phrase, prob in per_phrase.items():
                    expected[phrase] = expected.get(phrase, 0.0) + 0.9**p * prob
            pred = chunk_and_merge(FakeModel(tables), doc, chunk_len=chunk_len)
            got = dict(pred.phrases)
            assert set(got) == set(expected)
            for phrase, score in expected.items():
                assert got[phrase] == pytest.approx(score, abs=1e-12)
            ranked_scores = [s for _, s in pred.phrases]
            assert ranked_scores == sorted(ranked_scores, reverse=True)

    def test_weight_validation(self):
        doc = make_document("d", "a")
        with pytest.raises(ValueError):
            chunk_and_merge(FakeModel({}), doc, chunk_len=1, chunk_weight=0.0)
        with pytest.raises(ValueError):
            chunk_and_merge(FakeModel({}), doc, chunk_len=1, chunk_weight=1.5)


class TestDedupSubstrings:
    def _pred(self, phrases):
        scored = tuple((p, 1.0 - 0.01 * i) for i, p in enumerate(phrases))
        return Prediction("d", scored)

    def test_substrings_of_protected_head_dropped(self):
        pred = self._pred([
            "new york city", "heavy duty stapler",  # protected head (8 -> 2)
            "new york", "york city", "new city", "duty",
            "city new", "stapler heavy",
        ])
        kept = dedup_substrings(pred).phrase_list()
        assert kept == [
            "new york city", "heavy duty stapler",
            "new city", "city new", "stapler heavy",
        ]

    def test_superset_phrases_survive(self):
        pred = self._pred(["new york", "fine print", "hm", "ok",
                           "new york city"])
        kept = dedup_substrings(pred).phrase_list()
        assert "new york city" in kept

    def test_head_size_is_quarter_rounded_up(self):
        pred = self._pred(["a b", "a", "c", "d"])  # head = ceil(4/4) = 1
        kept = dedup_substrings(pred).phrase_list()
        assert kept == ["a b", "c", "d"]

    def test_head_entries_never_dropped(self):
        # with 2 protected entries, the second duplicates part of the first
        pred = self._pred(["a b c", "b c", "x", "y", "z", "w", "v", "u"])
        kept = dedup_substrings(pred).phrase_list()
        assert kept[:2] == ["a b c", "b c"]

    def test_single_phrase_unchanged(self):
        pred = self._pred(["only phrase"])
        assert dedup_substrings(pred).phrases == pred.phrases

    def test_empty_prediction(self):
        pred = Prediction("d", ())
        assert dedup_substrings(pred).phrases == ()

    def test_empty_tail_phrase_dropped(self):
        # the empty token run occurs in every protected phrase
        pred = self._pred(["a b", "", "c", "d"])
        assert dedup_substrings(pred).phrase_list() == ["a b", "c", "d"]

    def test_tail_longer_than_every_protected_phrase_kept(self):
        pred = self._pred(["a b", "a b c d e f g", "c", "d"])
        assert dedup_substrings(pred).phrase_list() == [
            "a b", "a b c d e f g", "c", "d",
        ]

    def test_head_phrase_longer_than_five_tokens(self):
        pred = self._pred(["a b c d e f g", "b c d e f g", "g a", "x"])
        assert dedup_substrings(pred).phrase_list() == ["a b c d e f g", "g a", "x"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7).map(" ".join),
        min_size=1, max_size=40,
    ))
    def test_matches_pairwise_oracle(self, phrases):
        # repeated tokens, 0- to 7-token phrases, heads of size 1 up to 10
        pred = self._pred(phrases)
        kept = dedup_substrings(pred)
        assert kept.doc_id == "d"
        assert kept.phrases == _dedup_oracle(pred)


class TestPredictionIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "preds.jsonl")
        predictions = [
            Prediction("d1", (("red stapler", 0.5), ("desk", 0.25))),
            Prediction("d2", ()),
        ]
        write_predictions(path, predictions)
        loaded = read_predictions(path)
        assert [p.doc_id for p in loaded] == ["d1", "d2"]
        assert loaded[0].phrases == predictions[0].phrases
        assert loaded[1].phrases == ()

    @pytest.mark.parametrize("line", [
        {"id": "d2"},
        {"id": "d2", "phrases": "red stapler"},
        {"id": "d2", "phrases": [["red stapler"]]},
        {"id": "d2", "phrases": [["red stapler", "high"]]},
        {"phrases": []},
        {"id": "d2", "phrases": [["red stapler", True]]},
        {"id": "d2", "phrases": [["red stapler", float("nan")]]},
        {"id": "d2", "phrases": [["red stapler", float("inf")]]},
        {"id": "d2", "phrases": [["red stapler", 10**400]]},
    ])
    def test_bad_line_located(self, tmp_path, line):
        path = str(tmp_path / "preds.jsonl")
        write_jsonl(path, [{"id": "d1", "phrases": [["desk", 0.5]]}, line])
        with pytest.raises(DatasetError, match=r"preds\.jsonl:2: "):
            read_predictions(path)


class TestPredictConfig:
    @pytest.mark.parametrize("field,value", [
        ("top_k", 0), ("top_k", -2),
        ("chunk_weight", 0.0), ("chunk_weight", 1.5),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PredictConfig(**{field: value})

    def test_bounds_accepted(self):
        PredictConfig(top_k=1, chunk_weight=1.0)
