"""Ranking spans into keyphrase predictions, plus long-document chunking.

Predictions are ranked lists of (normalized phrase, score). Normalization is
the shared tokenizer re-joined with single spaces: lowercase, punctuation
detached, whitespace collapsed. Identical normalized phrases collapse to
their best-scoring occurrence. For documents longer than the model's input
budget, fixed-width chunks are scored independently and merged with
geometrically decaying chunk weights. Near-duplicate suppression never
touches the top quarter of the list (the protected head) and drops every
lower phrase whose tokens form a contiguous run of a protected phrase's
tokens; its cost is linear in the number of phrases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PredictConfig
from .documents import tokenize
from .fileio import read_jsonl, write_jsonl


def _stem_token(token):
    # deliberately tiny plural stemmer, only for corpus-comparability runs
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("ss") or len(token) < 4:
        return token
    if token.endswith("s"):
        return token[:-1]
    return token


def normalize_phrase(phrase, stem=False):
    """Canonical phrase form used for all matching and deduplication."""
    tokens = tokenize(phrase)
    if stem:
        tokens = [_stem_token(t) for t in tokens]
    return " ".join(tokens)


@dataclass(frozen=True, eq=False)
class Prediction:
    """Ranked (phrase, score) pairs, already normalized and deduplicated."""

    doc_id: str
    phrases: tuple

    def top(self, k):
        return self.phrases[:k]

    def phrase_list(self):
        return [p for p, _ in self.phrases]


def predict_topk(distribution, doc, k):
    """The k best phrases from a span distribution.

    Spans sort by probability; ties break by earlier start, then shorter
    length. Spans sharing a normalized phrase collapse to the best one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ranked = _collapse_spans(distribution, doc)
    return Prediction(doc.id, tuple(ranked[:k]))


def _collapse_spans(distribution, doc):
    # Document tokens are tokenizer output, which re-tokenizes to itself, so
    # doc.phrase(span) is already the normalized phrase.
    spans = distribution.spans
    starts = np.fromiter((s.start for s in spans), dtype=np.int64, count=len(spans))
    lengths = np.fromiter((s.length for s in spans), dtype=np.int64, count=len(spans))
    order = np.lexsort((lengths, starts, -distribution.probs))
    order = order[distribution.mask[order]]
    seen = set()
    ranked = []
    for i, prob in zip(order.tolist(), distribution.probs[order].tolist()):
        phrase = doc.phrase(spans[i])
        if phrase not in seen:
            seen.add(phrase)
            ranked.append((phrase, prob))
    return ranked


def chunk_document(doc, chunk_len):
    """Split into consecutive chunk_len-token sub-documents."""
    if chunk_len < 1:
        raise ValueError("chunk length must be at least 1")
    chunks = []
    for p, start in enumerate(range(0, len(doc), chunk_len)):
        stop = min(start + chunk_len, len(doc))
        chunks.append(replace(
            doc, id=f"{doc.id}#chunk{p}", tokens=doc.tokens[start:stop],
            visual=doc.visual[start:stop], token_offset=doc.token_offset + start,
        ))
    return chunks


def chunk_and_merge(model, doc, chunk_len=PredictConfig.chunk_len,
                    chunk_weight=PredictConfig.chunk_weight):
    """Zero-shot scoring of arbitrarily long documents.

    Each chunk p contributes weight chunk_weight**p of its own span
    probabilities; per-phrase scores are summed across chunks. A document
    that fits in one chunk reproduces predict_topk exactly.
    """
    if not 0.0 < chunk_weight <= 1.0:
        raise ValueError("chunk weight must be in (0, 1]")
    merged = {}
    tie_key = {}
    for p, chunk in enumerate(chunk_document(doc, chunk_len)):
        ranked = _collapse_spans(model.distribution(chunk), chunk)
        weight = chunk_weight**p
        for rank, (phrase, score) in enumerate(ranked):
            merged[phrase] = merged.get(phrase, 0.0) + weight * score
            tie_key.setdefault(phrase, (p, rank))
    ordered = sorted(merged.items(), key=lambda kv: (-kv[1], tie_key[kv[0]]))
    return Prediction(doc.id, tuple(ordered))


def dedup_substrings(prediction):
    """Drop phrases that repeat a top-quarter phrase as a contiguous sub-span.

    The protected head is the top ceil(len/4) entries; those are never
    removed. Anything below the head whose token sequence is a contiguous
    run of a protected phrase's tokens, the empty run included, is discarded.
    Every run of every head phrase goes into one set, so each phrase below
    the head costs a single lookup.
    """
    phrases = prediction.phrases
    if not phrases:
        return prediction
    head = math.ceil(len(phrases) / 4)
    protected = {()}
    for phrase, _ in phrases[:head]:
        tokens = tuple(phrase.split())
        n = len(tokens)
        protected.update(tokens[i:j] for i in range(n) for j in range(i + 1, n + 1))
    kept = tuple(
        (phrase, score) for phrase, score in phrases[head:]
        if tuple(phrase.split()) not in protected
    )
    return Prediction(prediction.doc_id, phrases[:head] + kept)


def write_predictions(path, predictions):
    write_jsonl(
        path,
        (
            {"id": p.doc_id, "phrases": [[phrase, score] for phrase, score in p.phrases]}
            for p in predictions
        ),
    )


def read_predictions(path):
    predictions = []
    for _, obj in read_jsonl(path):
        phrases = tuple((str(s), float(v)) for s, v in obj["phrases"])
        predictions.append(Prediction(str(obj["id"]), phrases))
    return predictions
