"""TFIDF and TextRank baselines over the shared candidate space."""

import math
import operator
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpex.baselines import (
    STOPWORDS,
    CorpusStats,
    PageRankResult,
    WordGraph,
    _span_sums,
    build_word_graph,
    candidate_filter,
    is_punctuation,
    load_stopwords,
    pagerank,
    pagerank_block,
    textrank_block,
    textrank_rank,
    tfidf_block,
    tfidf_rank,
)
from kpex.documents import Span, enumerate_spans, make_document
from kpex.inference import Prediction, rank_phrases


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

# The per-span and dict-loop reference implementations the numpy code in
# kpex.baselines replaced. They must agree bit for bit: the sums run in the
# same order. sum() is spelled out as _sum, 0 plus each term in turn, because
# Python 3.12 made the builtin sum() of floats compensated.


def _sum(terms):
    return reduce(operator.add, terms, 0)


def tfidf_score(span, doc, stats, counts=None):
    """Mean tf*idf over the span tokens; tf is count / document length."""
    start, length = span
    counts = counts or Counter(doc.tokens)
    n = len(doc)
    total = 0.0
    for token in doc.tokens[start : start + length]:
        total += (counts[token] / n) * stats.idf(token)
    return total / length


def _pagerank_oracle(graph, damping=0.85, tol=1e-8, max_iterations=200):
    """PageRank as a dict loop over each node's in-neighbors."""
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    nodes = graph.nodes
    if not nodes:
        return PageRankResult({}, 0, 0.0)
    neighbors = {v: [] for v in nodes}
    degree = {v: 0.0 for v in nodes}
    for (u, v), w in graph.weights.items():
        neighbors[v].append((u, w))
        degree[u] += w
    scores = {v: 1.0 for v in nodes}
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        updated = {}
        for v in nodes:
            incoming = _sum(
                w / degree[u] * scores[u] for u, w in neighbors[v] if degree[u] > 0
            )
            updated[v] = (1.0 - damping) + damping * incoming
        residual = _sum(abs(updated[v] - scores[v]) for v in nodes)
        scores = updated
        if residual < tol:
            return PageRankResult(scores, iteration, residual)
    return PageRankResult(scores, max_iterations, residual)


def _pagerank_loop(graph, damping=0.85, tol=1e-8, max_iterations=200):
    """PageRank of one graph alone, as numpy ops over its own edge list."""
    nodes = graph.nodes
    if not nodes:
        return PageRankResult({}, 0, 0.0)
    index = {v: i for i, v in enumerate(nodes)}
    src = np.array([index[u] for u, _ in graph.weights], dtype=np.intp)
    dst = np.array([index[v] for _, v in graph.weights], dtype=np.intp)
    w = np.array(list(graph.weights.values()), dtype=np.float64)
    degree = np.bincount(src, weights=w, minlength=len(nodes))
    live = degree[src] > 0
    src, dst = src[live], dst[live]
    coef = w[live] / degree[src]
    scores = np.ones(len(nodes))
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        incoming = np.bincount(dst, weights=coef * scores[src], minlength=len(nodes))
        updated = (1.0 - damping) + damping * incoming
        residual = float(np.abs(updated - scores).cumsum()[-1])
        scores = updated
        if residual < tol:
            return PageRankResult(dict(zip(nodes, scores.tolist())), iteration, residual)
    return PageRankResult(dict(zip(nodes, scores.tolist())), max_iterations, residual)


def _tfidf_rank_oracle(doc, stats, max_span_length=5, top_k=10, stopwords=STOPWORDS):
    spans = candidate_filter(enumerate_spans(len(doc), max_span_length), doc, stopwords)
    counts = Counter(doc.tokens)
    scores = [tfidf_score(s, doc, stats, counts) for s in spans.tolist()]
    return Prediction(doc.id, tuple(rank_phrases(doc, spans, scores, top_k)))


def _textrank_rank_oracle(doc, max_span_length=5, top_k=10, window=2, stopwords=STOPWORDS):
    graph = build_word_graph(doc, window=window, stopwords=stopwords)
    scores = _pagerank_oracle(graph).scores
    spans = candidate_filter(enumerate_spans(len(doc), max_span_length), doc, stopwords)
    span_scores = [
        _sum(scores.get(t, 0.0) for t in doc.tokens[start : start + length])
        for start, length in spans.tolist()
    ]
    return Prediction(doc.id, tuple(rank_phrases(doc, spans, span_scores, top_k)))


def textrank_scores(doc, window=2, damping=0.85, tol=1e-8, stopwords=STOPWORDS):
    """Converged word scores for one document (empty dict if no candidates)."""
    graph = build_word_graph(doc, window=window, stopwords=stopwords)
    return pagerank(graph, damping=damping, tol=tol).scores


def _bits(pairs):
    """(key, exact float bits) pairs: equal only when every value is bitwise equal."""
    return [(key, float(value).hex()) for key, value in pairs]


# stopwords, punctuation and repeated content types, so graphs have cycles,
# isolated nodes and repeated edges
_PAGE_TOKENS = ["the", "of", "and", "a", ",", "!", "-", "red", "stapler", "art",
                "office", "pen", "blue", "651s5", "x", "y", "z", "w"]
_pages = st.lists(st.sampled_from(_PAGE_TOKENS), min_size=1, max_size=60)


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

    @settings(max_examples=200, deadline=None)
    @given(tokens=_pages, other=_pages, max_len=st.integers(1, 5),
           top_k=st.sampled_from([1, 10, 100000]))
    def test_rank_matches_per_span_oracle(self, tokens, other, max_len, top_k):
        docs = [make_document("d", " ".join(tokens)), make_document("e", " ".join(other))]
        stats = CorpusStats.build(docs)
        got = tfidf_rank(docs[0], stats, max_span_length=max_len, top_k=top_k)
        want = _tfidf_rank_oracle(docs[0], stats, max_len, top_k)
        assert _bits(got.phrases) == _bits(want.phrases)


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
        assert (result.iterations, result.residual) == (0, 0.0)

    def test_nodes_without_edges_settle_at_one_minus_damping(self):
        result = pagerank(WordGraph(("a", "b", "c"), {}), damping=0.85)
        assert list(result.scores.items()) == [(v, 1.0 - 0.85) for v in "abc"]
        assert result.iterations == 2 and result.residual == 0.0

    def test_zero_degree_sources_skipped(self):
        # a's only edge weighs 0, so a passes nothing on (no 0/0)
        graph = WordGraph(("a", "b", "c"), {("a", "b"): 0.0, ("b", "a"): 0.0,
                                            ("b", "c"): 1.0, ("c", "b"): 1.0})
        got, want = pagerank(graph), _pagerank_oracle(graph)
        assert _bits(got.scores.items()) == _bits(want.scores.items())
        assert (got.iterations, got.residual) == (want.iterations, want.residual)

    def test_damping_validation(self):
        for damping in (1.0, 0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                pagerank(WordGraph(("a",), {}), damping=damping)

    @settings(max_examples=300, deadline=None)
    @given(tokens=_pages, window=st.integers(2, 4), cap=st.none() | st.integers(1, 7),
           damping=st.sampled_from([0.5, 0.85, 0.95]), data=st.data())
    def test_matches_dict_loop_oracle(self, tokens, window, cap, damping, data):
        graph = build_word_graph(make_document("d", " ".join(tokens)), window=window)
        items = list(graph.weights.items())
        order = data.draw(st.permutations(range(len(items))))
        graph = WordGraph(graph.nodes, dict(items[i] for i in order))
        kwargs = {"damping": damping}
        if cap is not None:
            kwargs.update(tol=0.0, max_iterations=cap)
        got, want = pagerank(graph, **kwargs), _pagerank_oracle(graph, **kwargs)
        assert _bits(got.scores.items()) == _bits(want.scores.items())
        assert got.iterations == want.iterations
        assert got.residual.hex() == want.residual.hex()

    def test_iteration_cap_respected(self):
        doc = make_document("d", "p q r s p")
        result = pagerank(build_word_graph(doc), tol=0.0, max_iterations=7)
        assert result.iterations == 7


def _result_bits(result):
    return (_bits(result.scores.items()), result.iterations, result.residual.hex())


def _assert_block_matches_loop(graphs, **kwargs):
    got = pagerank_block(graphs, **kwargs)
    assert len(got) == len(graphs)
    for g, (result, graph) in enumerate(zip(got, graphs)):
        assert _result_bits(result) == _result_bits(_pagerank_loop(graph, **kwargs)), g
    return got


def _graph(text, window=2):
    return build_word_graph(make_document("d", text), window=window)


_BLOCK_TEXTS = [
    "x y z x",  # a triangle: converges at once
    "c l1 c l2 c l3 c l4 c",  # a star
    "alpha beta gamma delta epsilon alpha zeta beta",
    "p q r s p q t u v w p",
    "the red the",  # one isolated node
]


class TestPageRankBlock:
    """One power iteration over a block equals each graph run alone, bitwise."""

    def test_empty_graphs_in_block(self):
        empty = WordGraph((), {})
        got = _assert_block_matches_loop([empty, _graph("x y z x"), empty])
        assert (got[0].scores, got[0].iterations, got[0].residual) == ({}, 0, 0.0)
        assert pagerank_block([]) == []
        assert [r.iterations for r in pagerank_block([empty, empty])] == [0, 0]

    def test_isolated_nodes(self):
        graphs = [WordGraph(("a", "b", "c"), {}), _graph("the red the"),
                  WordGraph(("a", "b", "c", "d"), {("b", "c"): 2.0, ("c", "b"): 2.0})]
        _assert_block_matches_loop(graphs)

    def test_graphs_converge_at_different_iterations(self):
        graphs = [_graph(t) for t in _BLOCK_TEXTS]
        got = _assert_block_matches_loop(graphs)
        assert len({r.iterations for r in got}) >= 4
        # the order of a block's graphs changes none of their results
        for result, graph in zip(pagerank_block(graphs[::-1]), graphs[::-1]):
            assert _result_bits(result) == _result_bits(_pagerank_loop(graph))

    @pytest.mark.parametrize("cap", [0, 1, 2, 7, 40])
    def test_tol_zero_runs_max_iterations(self, cap):
        graphs = [_graph(t) for t in _BLOCK_TEXTS] + [WordGraph((), {})]
        got = _assert_block_matches_loop(graphs, tol=0.0, max_iterations=cap)
        assert [r.iterations for r in got[:-1]] == [cap] * len(_BLOCK_TEXTS)

    def test_zero_degree_sources_skipped(self):
        graph = WordGraph(("a", "b", "c"), {("a", "b"): 0.0, ("b", "a"): 0.0,
                                            ("b", "c"): 1.0, ("c", "b"): 1.0})
        _assert_block_matches_loop([graph, _graph("p q r s p"), graph])

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            pagerank_block([WordGraph((), {})], damping=1.0)

    @settings(max_examples=150, deadline=None)
    @given(pages=st.lists(_pages, min_size=1, max_size=6), window=st.integers(2, 4),
           cap=st.none() | st.integers(0, 9), damping=st.sampled_from([0.5, 0.85, 0.95]))
    def test_matches_per_graph_loop(self, pages, window, cap, damping):
        graphs = [_graph(" ".join(tokens), window) for tokens in pages]
        kwargs = {"damping": damping}
        if cap is not None:
            kwargs.update(tol=0.0, max_iterations=cap)
        _assert_block_matches_loop(graphs, **kwargs)


class TestRankBlocks:
    """A block's predictions are bitwise those of its documents ranked alone."""

    @settings(max_examples=60, deadline=None)
    @given(pages=st.lists(_pages, min_size=1, max_size=5), max_len=st.integers(1, 5),
           window=st.integers(2, 4), top_k=st.sampled_from([1, 10, 100000]))
    def test_textrank_block_matches_oracle(self, pages, max_len, window, top_k):
        docs = [make_document(f"d{i}", " ".join(t)) for i, t in enumerate(pages)]
        got = textrank_block(docs, max_span_length=max_len, top_k=top_k, window=window)
        for pred, doc in zip(got, docs):
            want = _textrank_rank_oracle(doc, max_len, top_k, window)
            assert pred.doc_id == doc.id
            assert _bits(pred.phrases) == _bits(want.phrases)

    @settings(max_examples=60, deadline=None)
    @given(pages=st.lists(_pages, min_size=1, max_size=5), max_len=st.integers(1, 5),
           top_k=st.sampled_from([1, 10, 100000]))
    def test_tfidf_block_matches_oracle(self, pages, max_len, top_k):
        docs = [make_document(f"d{i}", " ".join(t)) for i, t in enumerate(pages)]
        stats = CorpusStats.build(docs[1:] + docs[:1])
        got = tfidf_block(docs, stats, max_span_length=max_len, top_k=top_k)
        for pred, doc in zip(got, docs):
            want = _tfidf_rank_oracle(doc, stats, max_len, top_k)
            assert pred.doc_id == doc.id
            assert _bits(pred.phrases) == _bits(want.phrases)

    def test_custom_stopwords_and_punctuation_set(self):
        docs = [make_document("a", "the red stapler , of the office"),
                make_document("b", "red ! pen")]
        stop = frozenset({"red"})
        assert textrank_block(docs, stopwords=stop)[1].phrase_list() == ["pen"]
        spans = enumerate_spans(len(docs[1]), 5)
        # a superset of the document's punctuation filters the same rows
        np.testing.assert_array_equal(
            candidate_filter(spans, docs[1], stop, frozenset({"!", ","})),
            candidate_filter(spans, docs[1], stop))


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

    @settings(max_examples=200, deadline=None)
    @given(tokens=_pages, max_len=st.integers(1, 5), window=st.integers(2, 4),
           top_k=st.sampled_from([1, 10, 100000]))
    def test_rank_matches_per_span_oracle(self, tokens, max_len, window, top_k):
        doc = make_document("d", " ".join(tokens))
        got = textrank_rank(doc, max_span_length=max_len, top_k=top_k, window=window)
        want = _textrank_rank_oracle(doc, max_len, top_k, window)
        assert _bits(got.phrases) == _bits(want.phrases)

    def test_page_without_candidates(self):
        doc = make_document("d", "the , of !")
        no_spans = np.zeros((0, 2), dtype=np.int64)
        assert _span_sums(np.ones(len(doc)), no_spans).shape == (0,)
        assert textrank_rank(doc).phrases == ()
        assert tfidf_rank(doc, CorpusStats.build([doc])).phrases == ()
