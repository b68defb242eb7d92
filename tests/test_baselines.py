"""TFIDF and TextRank baselines over the shared candidate space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpex.baselines import (
    STOPWORDS,
    CorpusStats,
    WordGraph,
    build_word_graph,
    candidate_filter,
    is_punctuation,
    load_stopwords,
    pagerank,
    textrank_rank,
    textrank_scores,
    tfidf_rank,
    tfidf_score,
)
from kpex.documents import Span, enumerate_spans, make_document


def _degree(graph, node):
    """Weighted degree of ``node``: the sum of its edge weights."""
    return sum(w for (u, _), w in graph.weights.items() if u == node)


def _filter_oracle(spans, doc, stopwords=STOPWORDS):
    """The per-span reference: each span's tokens checked one by one."""
    kept = []
    for start, length in spans.tolist():
        tokens = doc.tokens[start : start + length]
        if tokens[0] in stopwords or tokens[-1] in stopwords:
            continue
        if any(is_punctuation(t) for t in tokens):
            continue
        kept.append([start, length])
    return kept


_MIXED_TOKENS = ["the", "of", "a", "red", "stapler", "art", "651s5", ",", "-", "!", "«"]


class TestCandidateFilter:
    def test_boundary_stopwords_dropped(self):
        doc = make_document("d", "the stapler of art")
        spans = enumerate_spans(4, 3)
        kept = candidate_filter(spans, doc)
        phrases = {doc.phrase(s) for s in kept}
        assert "stapler" in phrases and "art" in phrases
        assert "the stapler" not in phrases  # leading stopword
        assert "stapler of" not in phrases  # trailing stopword

    def test_interior_stopwords_allowed(self):
        doc = make_document("d", "state of the art")
        kept = candidate_filter(enumerate_spans(4, 4), doc)
        assert [0, 4] in kept.tolist()

    def test_punctuation_anywhere_dropped(self):
        doc = make_document("d", "red , blue")
        kept = candidate_filter(enumerate_spans(3, 3), doc)
        phrases = {doc.phrase(s) for s in kept}
        assert phrases == {"red", "blue"}

    @pytest.mark.parametrize(
        "token,expected",
        [(",", True), ("...", True), ("-", True), ("a", False), ("651s5", False)],
    )
    def test_is_punctuation(self, token, expected):
        assert is_punctuation(token) == expected

    def test_custom_stopwords(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# corpus specific\nred\n\nBLUE\n")
        stops = load_stopwords(str(path))
        assert stops == frozenset({"red", "blue"})
        doc = make_document("d", "red pen")
        kept = candidate_filter(enumerate_spans(2, 2), doc, stopwords=stops)
        assert {doc.phrase(s) for s in kept} == {"pen"}

    @settings(max_examples=200, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(_MIXED_TOKENS), min_size=1, max_size=30),
        stopwords=st.none() | st.frozensets(st.sampled_from(_MIXED_TOKENS)),
        max_len=st.integers(1, 6),
    )
    def test_matches_per_span_oracle(self, tokens, stopwords, max_len):
        doc = make_document("d", " ".join(tokens))
        stopwords = STOPWORDS if stopwords is None else stopwords
        spans = enumerate_spans(len(doc), max_len)
        kept = candidate_filter(spans, doc, stopwords)
        assert kept.tolist() == _filter_oracle(spans, doc, stopwords)


class TestTfidf:
    def test_idf_values(self):
        stats = CorpusStats(3, {"common": 3, "rare": 1})
        assert stats.idf("common") == pytest.approx(math.log(4 / 4) + 1)  # = 1
        assert stats.idf("rare") == pytest.approx(math.log(4 / 2) + 1)
        assert stats.idf("unseen") == pytest.approx(math.log(4 / 1) + 1)

    def test_build_counts_types_once_per_document(self):
        docs = [make_document("d1", "red red blue"), make_document("d2", "red")]
        stats = CorpusStats.build(docs)
        assert stats.n_documents == 2
        assert stats.document_frequency == {"red": 2, "blue": 1}

    def test_hand_case(self):
        # doc (a b a) in a 2-document corpus where df(a)=2 and df(b)=1:
        # tf(a) = 2/3 with idf 1.0, tf(b) = 1/3 with idf ln(3/2)+1
        doc = make_document("d", "a b a")
        stats = CorpusStats(2, {"a": 2, "b": 1})
        assert tfidf_score(Span(0, 1), doc, stats) == pytest.approx(0.6667, abs=5e-5)
        assert tfidf_score(Span(1, 1), doc, stats) == pytest.approx(0.4685, abs=5e-5)

    def test_span_score_is_token_mean(self):
        doc = make_document("d", "a b a")
        stats = CorpusStats(2, {"a": 2, "b": 1})
        single_a = tfidf_score(Span(0, 1), doc, stats)
        single_b = tfidf_score(Span(1, 1), doc, stats)
        assert tfidf_score(Span(0, 2), doc, stats) == pytest.approx(
            (single_a + single_b) / 2
        )

    def test_rank_end_to_end(self):
        docs = [
            make_document("d1", "red stapler guide red stapler tips"),
            make_document("d2", "blue pen guide"),
            make_document("d3", "green pen guide"),
        ]
        stats = CorpusStats.build(docs)
        pred = tfidf_rank(docs[0], stats, top_k=50)
        scores = dict(pred.phrases)
        # repeated rare words dominate; the corpus-wide word scores lowest
        assert scores["red"] == pytest.approx((2 / 6) * (math.log(2) + 1))
        assert pred.phrase_list()[0] == "red"
        assert scores["guide"] < scores["tips"] < scores["red"]
        assert "red stapler" in scores

    def test_rank_deterministic(self):
        docs = [make_document("d1", "red stapler red pen"),
                make_document("d2", "blue pen")]
        stats = CorpusStats.build(docs)
        a = tfidf_rank(docs[0], stats)
        b = tfidf_rank(docs[0], stats)
        assert a.phrases == b.phrases

    def test_top_k_cuts(self):
        docs = [make_document("d1", "one two three four five")]
        stats = CorpusStats.build(docs)
        assert len(tfidf_rank(docs[0], stats, top_k=3).phrases) == 3


class TestWordGraph:
    def test_window_two_links_adjacent_only(self):
        doc = make_document("d", "alpha beta gamma")
        graph = build_word_graph(doc, window=2)
        assert graph.nodes == ("alpha", "beta", "gamma")
        assert graph.weights[("alpha", "beta")] == 1.0
        assert graph.weights[("beta", "alpha")] == 1.0
        assert ("alpha", "gamma") not in graph.weights

    def test_window_three_skips_one(self):
        doc = make_document("d", "alpha beta gamma")
        graph = build_word_graph(doc, window=3)
        assert graph.weights[("alpha", "gamma")] == 1.0

    def test_stopwords_and_punctuation_excluded_but_positions_kept(self):
        # "of" sits between the content words, so with window=2 they are
        # separated by 2 positions in the raw text: no edge
        doc = make_document("d", "state of art")
        graph = build_word_graph(doc, window=2)
        assert graph.nodes == ("art", "state")
        assert graph.weights == {}
        wide = build_word_graph(doc, window=3)
        assert wide.weights[("state", "art")] == 1.0

    def test_repeated_cooccurrence_accumulates(self):
        doc = make_document("d", "red pen red pen")
        graph = build_word_graph(doc, window=2)
        assert graph.weights[("red", "pen")] == 3.0

    def test_self_loops_skipped(self):
        doc = make_document("d", "echo echo echo")
        graph = build_word_graph(doc, window=2)
        assert graph.weights == {}
        assert graph.nodes == ("echo",)

    def test_window_validation(self):
        doc = make_document("d", "a b")
        with pytest.raises(ValueError):
            build_word_graph(doc, window=1)

    def test_degree(self):
        graph = WordGraph(
            ("a", "b", "c"),
            {("a", "b"): 2.0, ("b", "a"): 2.0, ("a", "c"): 1.0, ("c", "a"): 1.0},
        )
        assert _degree(graph, "a") == 3.0
        assert _degree(graph, "b") == 2.0


class TestPageRank:
    def test_triangle_scores_exactly_one(self):
        doc = make_document("d", "x y z x")
        result = pagerank(build_word_graph(doc))
        assert set(result.scores) == {"x", "y", "z"}
        for score in result.scores.values():
            assert score == pytest.approx(1.0, abs=1e-12)
        assert result.residual < 1e-8

    def test_star_matches_linear_solve(self):
        # c l1 c l2 c l3 c l4 c: every center-leaf edge has weight 2
        doc = make_document("d", "c l1 c l2 c l3 c l4 c")
        result = pagerank(build_word_graph(doc), damping=0.85)
        d, k = 0.85, 4
        center = (1 - d) * (1 + d * k) / (1 - d * d)
        leaf = (1 - d) + (d / k) * center
        assert result.scores["c"] == pytest.approx(center, abs=1e-6)
        for name in ("l1", "l2", "l3", "l4"):
            assert result.scores[name] == pytest.approx(leaf, abs=1e-6)
        assert result.iterations < 200
        assert result.residual < 1e-8

    def test_isolated_node_settles_at_one_minus_damping(self):
        doc = make_document("d", "the red the")
        scores = textrank_scores(doc)
        assert scores == {"red": pytest.approx(0.15)}

    def test_insertion_order_irrelevant(self):
        doc = make_document("d", "alpha beta gamma beta alpha")
        graph = build_word_graph(doc)
        shuffled = WordGraph(
            graph.nodes, dict(sorted(graph.weights.items(), reverse=True))
        )
        a = pagerank(graph).scores
        b = pagerank(shuffled).scores
        assert a.keys() == b.keys()
        for node in a:
            assert a[node] == pytest.approx(b[node], abs=1e-12)

    def test_empty_graph(self):
        result = pagerank(WordGraph((), {}))
        assert result.scores == {}

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            pagerank(WordGraph(("a",), {}), damping=1.0)

    def test_iteration_cap_respected(self):
        doc = make_document("d", "p q r s p")
        result = pagerank(build_word_graph(doc), tol=0.0, max_iterations=7)
        assert result.iterations == 7


class TestTextRankRanking:
    def test_span_scores_sum_word_scores(self):
        doc = make_document("d", "alpha beta gamma alpha beta delta")
        word_scores = textrank_scores(doc)
        pred = textrank_rank(doc, top_k=50)
        for phrase, score in pred.phrases:
            expected = sum(word_scores.get(t, 0.0) for t in phrase.split())
            assert score == pytest.approx(expected, abs=1e-12)

    def test_boundary_stopwords_absent(self):
        doc = make_document("d", "the quick brown fox")
        phrases = textrank_rank(doc).phrase_list()
        assert all(not p.startswith("the") for p in phrases)

    def test_repeated_bigram_outranks_isolated_word(self):
        doc = make_document("d", "alpha beta gamma alpha beta alpha beta")
        pred = textrank_rank(doc, top_k=50)
        scores = dict(pred.phrases)
        assert scores["alpha beta"] > scores["gamma"]

    def test_interior_stopword_contributes_nothing(self):
        doc = make_document("d", "state of art state art")
        word_scores = textrank_scores(doc, window=3)
        pred = textrank_rank(doc, window=3, top_k=50)
        scores = dict(pred.phrases)
        assert "of" not in word_scores
        assert scores["state of art"] == pytest.approx(
            word_scores["state"] + word_scores["art"], abs=1e-12
        )
