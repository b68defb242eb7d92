"""Unsupervised baselines: TFIDF span ranking and TextRank.

Both score the same candidate set as the neural model, filtered to plausible
phrases: no punctuation anywhere, no stopword at either boundary (interior
stopwords are fine, as in "state of the art"). TFIDF averages smoothed
tf*idf over the span's tokens; TextRank runs PageRank-style propagation over
a word co-occurrence graph and sums word scores over the span. The scored
spans are ranked by ``inference.rank_phrases``, the ranking and tie-break of
``predict``.

Both rank a block of documents at a time (``tfidf_block``, ``textrank_block``;
``kpex baseline`` passes ``BLOCK_DOCUMENTS`` at a time). A block tests each
distinct token once for punctuation (and, for TFIDF, idf), and TextRank runs
PageRank over all its word graphs in one power iteration (``pagerank_block``),
where each graph's scores freeze as it converges and the rest run on.
Every score is bitwise that of the document ranked alone, which is what
``tfidf_rank``, ``textrank_rank`` and ``pagerank`` do: each is a block of one.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import MAX_SPAN_LENGTH, PredictConfig
from .documents import enumerate_spans
from .fileio import read_lines
from .inference import Prediction, rank_phrases
# Unused here: the benchmark's tracer (bench/tracing.py) patches this binding.
from .inference import normalize_phrase  # noqa: F401

# standard English function words; override per corpus via load_stopwords
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because been
before being below between both but by can cannot could did do does doing down
during each few for from further had has have having he her here hers herself
him himself his how i if in into is it its itself just me more most my myself
no nor not now of off on once only or other our ours ourselves out over own
same she should so some such than that the their theirs them themselves then
there these they this those through to too under until up very was we were
what when where which while who whom why will with you your yours yourself
yourselves
""".split())

_WORD_RE = re.compile(r"\w")

# documents the CLI ranks at a time, which bounds a block's graphs and edge arrays
BLOCK_DOCUMENTS = 256


def load_stopwords(path):
    return frozenset(line.lower() for line in read_lines(path))


def is_punctuation(token):
    return not _WORD_RE.search(token)


def _types(docs):
    """The distinct tokens of ``docs``."""
    return set().union(*(doc.tokens for doc in docs))


def _punctuation(types):
    """The punctuation tokens among the token types ``types``."""
    return frozenset(t for t in types if is_punctuation(t))


def candidate_filter(spans, doc, stopwords=STOPWORDS, punctuation=None):
    """The rows of ``spans`` with no boundary stopword and no punctuation token.

    ``punctuation`` holds every punctuation token of ``doc`` and no word
    token; by default it is found from the document's own token types.
    """
    if punctuation is None:
        punctuation = _punctuation(set(doc.tokens))
    stop = np.array([t in stopwords for t in doc.tokens], dtype=bool)
    punct = np.array([t in punctuation for t in doc.tokens], dtype=np.int64)
    punct_before = np.concatenate(([0], np.cumsum(punct)))  # punctuation in tokens[:i]
    starts, ends = spans[:, 0], spans[:, 0] + spans[:, 1]
    keep = ~stop[starts] & ~stop[ends - 1] & (punct_before[ends] == punct_before[starts])
    return spans[keep]


@dataclass(frozen=True, eq=False)
class CorpusStats:
    """Document frequencies for idf; built once over a corpus."""

    n_documents: int
    document_frequency: dict

    @classmethod
    def build(cls, documents):
        df = Counter()
        n = 0
        for doc in documents:
            n += 1
            df.update(set(doc.tokens))
        return cls(n, dict(df))

    def idf(self, token):
        # smoothed so unseen tokens stay finite and positive
        df = self.document_frequency.get(token, 0)
        return math.log((self.n_documents + 1) / (df + 1)) + 1.0


def _span_sums(values, spans):
    """Sum a per-token array over each (start, length) row, left to right."""
    starts, lengths = spans[:, 0], spans[:, 1]
    total = values[starts]
    for j in range(1, lengths.max(initial=1)):
        m = lengths > j
        total[m] += values[starts[m] + j]
    return total


def tfidf_block(docs, stats, max_span_length=MAX_SPAN_LENGTH, top_k=PredictConfig.top_k,
                stopwords=STOPWORDS):
    """``tfidf_rank`` of each document; idf is computed once per token type."""
    types = _types(docs)
    idf = {t: stats.idf(t) for t in types}
    punctuation = _punctuation(types)
    predictions = []
    for doc in docs:
        spans = candidate_filter(
            enumerate_spans(len(doc), max_span_length), doc, stopwords, punctuation)
        counts = Counter(doc.tokens)
        n = len(doc)
        values = np.array([(counts[t] / n) * idf[t] for t in doc.tokens])
        scores = _span_sums(values, spans) / spans[:, 1]
        predictions.append(Prediction(doc.id, tuple(rank_phrases(doc, spans, scores, top_k))))
    return predictions


def tfidf_rank(doc, stats, max_span_length=MAX_SPAN_LENGTH, top_k=PredictConfig.top_k,
               stopwords=STOPWORDS):
    """Rank candidate spans by their mean tf*idf; tf is count / document length."""
    return tfidf_block([doc], stats, max_span_length, top_k, stopwords)[0]


@dataclass(frozen=True, eq=False)
class WordGraph:
    """Undirected weighted co-occurrence graph over candidate word types."""

    nodes: tuple
    weights: dict  # (u, v) -> weight, stored both ways


def build_word_graph(doc, window=2, stopwords=STOPWORDS, punctuation=None):
    """Connect candidate words co-occurring within ``window`` text positions.

    Two words co-occur when their token positions in the original text differ
    by less than ``window`` (the classic convention: window=2 links adjacent
    words). Candidates are non-stopword, non-punctuation token types; each
    co-occurrence adds 1 to the symmetric edge weight and self-loops (a type
    next to itself) are skipped. ``punctuation`` is as for candidate_filter.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if punctuation is None:
        punctuation = _punctuation(set(doc.tokens))
    positions = [
        (i, t)
        for i, t in enumerate(doc.tokens)
        if t not in stopwords and t not in punctuation
    ]
    nodes = tuple(sorted({t for _, t in positions}))
    weights = {}
    for a in range(len(positions)):
        i, u = positions[a]
        for b in range(a + 1, len(positions)):
            j, v = positions[b]
            if j - i >= window:
                break
            if u != v:
                weights[(u, v)] = weights.get((u, v), 0.0) + 1.0
                weights[(v, u)] = weights.get((v, u), 0.0) + 1.0
    return WordGraph(nodes, weights)


@dataclass
class PageRankResult:
    scores: dict
    iterations: int
    residual: float


def pagerank(graph, damping=0.85, tol=1e-8, max_iterations=200):
    """Weighted PageRank without normalization to a probability simplex.

    S(v) = (1 - d) + d * sum over in-neighbors u of w_uv / deg(u) * S(u),
    iterated from all-ones until the L1 change drops below ``tol``. Isolated
    nodes settle at 1 - d.
    """
    return pagerank_block([graph], damping, tol, max_iterations)[0]


def pagerank_block(graphs, damping=0.85, tol=1e-8, max_iterations=200):
    """``pagerank`` of each of the ``graphs``, run as one power iteration.

    ``graphs`` is any iterable, read once up front; only each graph's nodes
    are kept from it. Node indices are offset per graph, so no sum mixes
    graphs. bincount adds in input order, so one bincount over every edge
    sums each node's in-flow in its graph's dict order, and one over every
    node sums each graph's L1 change in node order: the sums of the graph
    run alone, left to right (a matmul or a pairwise sum would not keep that
    order, and would move the last bits). A graph's scores and ``residual``
    freeze at the iteration where it converges, while the others run on, so
    its scores, ``iterations`` and ``residual`` are bitwise those of a block
    of one.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    node_lists, src, dst, w = [], [], [], []
    offset = 0
    for graph in graphs:  # a generator's graphs are freed as they are read
        node_lists.append(graph.nodes)
        index = {v: offset + i for i, v in enumerate(graph.nodes)}
        offset += len(graph.nodes)
        weights = graph.weights
        heads, tails = zip(*weights) if weights else ((), ())
        src.append(np.fromiter(map(index.__getitem__, heads), np.intp, len(weights)))
        dst.append(np.fromiter(map(index.__getitem__, tails), np.intp, len(weights)))
        w.append(np.fromiter(weights.values(), np.float64, len(weights)))
    if not node_lists:
        return []
    sizes = np.array([len(nodes) for nodes in node_lists])
    src, dst, w = np.concatenate(src), np.concatenate(dst), np.concatenate(w)
    graph_of = np.repeat(np.arange(len(sizes)), sizes)  # each node's graph
    degree = np.bincount(src, weights=w, minlength=offset)
    live = degree[src] > 0
    src, dst = src[live], dst[live]
    coef = w[live] / degree[src]
    scores = np.ones(offset)
    running = sizes > 0  # an empty graph has nothing to iterate
    residual = np.where(running, np.inf, 0.0)
    iterations = np.zeros(len(sizes), dtype=np.intp)
    for _ in range(max_iterations):
        if not running.any():
            break
        iterations += running
        incoming = np.bincount(dst, weights=coef * scores[src], minlength=offset)
        updated = (1.0 - damping) + damping * incoming
        change = np.bincount(graph_of, weights=np.abs(updated - scores), minlength=len(sizes))
        scores = np.where(running[graph_of], updated, scores)
        residual = np.where(running, change, residual)
        running &= ~(residual < tol)
    pieces = np.split(scores, np.cumsum(sizes)[:-1])  # each graph's scores
    return [PageRankResult(dict(zip(nodes, piece.tolist())), count, res)
            for nodes, piece, count, res
            in zip(node_lists, pieces, iterations.tolist(), residual.tolist())]


def textrank_block(docs, max_span_length=MAX_SPAN_LENGTH, top_k=PredictConfig.top_k,
                   window=2, damping=0.85, stopwords=STOPWORDS):
    """``textrank_rank`` of each document, with one PageRank over all graphs."""
    punctuation = _punctuation(_types(docs))
    graphs = (build_word_graph(doc, window, stopwords, punctuation) for doc in docs)
    predictions = []
    for doc, result in zip(docs, pagerank_block(graphs, damping=damping)):
        spans = candidate_filter(
            enumerate_spans(len(doc), max_span_length), doc, stopwords, punctuation)
        scores = result.scores
        span_scores = _span_sums(np.array([scores.get(t, 0.0) for t in doc.tokens]), spans)
        predictions.append(
            Prediction(doc.id, tuple(rank_phrases(doc, spans, span_scores, top_k))))
    return predictions


def textrank_rank(doc, max_span_length=MAX_SPAN_LENGTH, top_k=PredictConfig.top_k,
                  window=2, damping=0.85, stopwords=STOPWORDS):
    """Rank candidate spans by the sum of their words' TextRank scores."""
    return textrank_block([doc], max_span_length, top_k, window, damping, stopwords)[0]
