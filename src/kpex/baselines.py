"""Unsupervised baselines: TFIDF span ranking and TextRank.

Both score the same candidate set as the neural model, filtered to plausible
phrases: no punctuation anywhere, no stopword at either boundary (interior
stopwords are fine, as in "state of the art"). TFIDF averages smoothed
tf*idf over the span's tokens; TextRank runs PageRank-style propagation over
a word co-occurrence graph and sums word scores over the span. The scored
spans are ranked by ``inference.rank_phrases``, the ranking and tie-break of
``predict``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .documents import enumerate_spans
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


def load_stopwords(path):
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.add(word)
    return frozenset(words)


def is_punctuation(token):
    return not _WORD_RE.search(token)


def candidate_filter(spans, doc, stopwords=STOPWORDS):
    """The rows of ``spans`` with no boundary stopword and no punctuation token."""
    stop = np.array([t in stopwords for t in doc.tokens], dtype=bool)
    punct = np.array([is_punctuation(t) for t in doc.tokens], dtype=np.int64)
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


def tfidf_rank(doc, stats, max_span_length=5, top_k=10, stopwords=STOPWORDS):
    """Rank candidate spans by their mean tf*idf; tf is count / document length."""
    spans = candidate_filter(enumerate_spans(len(doc), max_span_length), doc, stopwords)
    counts = Counter(doc.tokens)
    n = len(doc)
    values = np.array([(counts[t] / n) * stats.idf(t) for t in doc.tokens])
    scores = _span_sums(values, spans) / spans[:, 1]
    return Prediction(doc.id, tuple(rank_phrases(doc, spans, scores, top_k)))


@dataclass(frozen=True, eq=False)
class WordGraph:
    """Undirected weighted co-occurrence graph over candidate word types."""

    nodes: tuple
    weights: dict  # (u, v) -> weight, stored both ways


def build_word_graph(doc, window=2, stopwords=STOPWORDS):
    """Connect candidate words co-occurring within ``window`` text positions.

    Two words co-occur when their token positions in the original text differ
    by less than ``window`` (the classic convention: window=2 links adjacent
    words). Candidates are non-stopword, non-punctuation token types; each
    co-occurrence adds 1 to the symmetric edge weight and self-loops (a type
    next to itself) are skipped.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    positions = [
        (i, t)
        for i, t in enumerate(doc.tokens)
        if t not in stopwords and not is_punctuation(t)
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
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    nodes = graph.nodes
    if not nodes:
        return PageRankResult({}, 0, 0.0)
    # bincount and cumsum add in input order, so each sum runs in the dict's
    # insertion order (a matmul would not, and would move the last bits)
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


def textrank_scores(doc, window=2, damping=0.85, tol=1e-8, stopwords=STOPWORDS):
    """Converged word scores for one document (empty dict if no candidates)."""
    graph = build_word_graph(doc, window=window, stopwords=stopwords)
    return pagerank(graph, damping=damping, tol=tol).scores


def textrank_rank(
    doc,
    max_span_length=5,
    top_k=10,
    window=2,
    damping=0.85,
    stopwords=STOPWORDS,
):
    """Rank candidate spans by the sum of their words' TextRank scores."""
    scores = textrank_scores(doc, window=window, damping=damping, stopwords=stopwords)
    spans = candidate_filter(enumerate_spans(len(doc), max_span_length), doc, stopwords)
    span_scores = _span_sums(np.array([scores.get(t, 0.0) for t in doc.tokens]), spans)
    return Prediction(doc.id, tuple(rank_phrases(doc, spans, span_scores, top_k)))
