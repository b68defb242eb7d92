"""Ranking spans into keyphrase predictions, plus long-document chunking.

Predictions are ranked lists of (normalized phrase, score). Normalization is
the shared tokenizer re-joined with single spaces: lowercase, punctuation
detached, whitespace collapsed. Identical normalized phrases collapse to
their best-scoring occurrence. For documents longer than the model's input
budget, fixed-width chunks are scored independently and merged with
geometrically decaying chunk weights; near-duplicate suppression drops any
phrase that is a token-contiguous substring of a higher-ranked phrase from
the top quarter of the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    order = sorted(
        range(len(distribution.spans)),
        key=lambda i: (
            -distribution.probs[i],
            distribution.spans[i].start,
            distribution.spans[i].length,
        ),
    )
    best = {}
    ranked = []
    for i in order:
        if not distribution.mask[i]:
            continue
        span = distribution.spans[i]
        phrase = normalize_phrase(doc.phrase(span))
        if phrase in best:
            continue
        best[phrase] = True
        ranked.append((phrase, float(distribution.probs[i])))
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
    removed. Anything below the head whose token sequence appears contiguously
    inside a protected phrase is discarded.
    """
    phrases = prediction.phrases
    if not phrases:
        return prediction
    head = math.ceil(len(phrases) / 4)
    protected = [tuple(p.split()) for p, _ in phrases[:head]]
    kept = list(phrases[:head])
    for phrase, score in phrases[head:]:
        tokens = tuple(phrase.split())
        if not any(_contiguous_in(tokens, top) for top in protected):
            kept.append((phrase, score))
    return Prediction(prediction.doc_id, tuple(kept))


def _contiguous_in(needle, haystack):
    if len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


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
