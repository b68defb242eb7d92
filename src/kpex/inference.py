"""Ranking spans into keyphrase predictions, plus long-document chunking.

Predictions are ranked lists of (normalized phrase, score). Normalization is
the shared tokenizer re-joined with single spaces: lowercase, punctuation
detached, whitespace collapsed. ``rank_phrases`` is the one ranking of scored
spans, shared by plain and chunked prediction and by the baselines: identical
phrases collapse to their best-scoring occurrence. For documents longer than
the model's input budget, fixed-width chunks, each with the visual and
frozen vector rows of its own tokens, are scored independently and merged
with geometrically decaying chunk weights. Near-duplicate
suppression never touches the top quarter of the list (the protected head)
and drops every lower phrase whose tokens form a contiguous run of a
protected phrase's tokens; its cost is linear in the number of phrases.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import MAX_DOC_LENGTH, PredictConfig
from .documents import tokenize
from .fileio import DatasetError, read_records, write_jsonl


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


# spans converted per phrase wanted, in each slice of a top-k ranking
RANK_SLICE_PER_PHRASE = 4


def rank_phrases(doc, spans, scores, k=None):
    """Rank scored (start, length) rows of ``doc`` into (phrase, score) pairs.

    ``spans`` is an (M, 2) array like enumerate_spans, one row per score.
    Spans sort by score, then earlier start, then shorter length; a phrase
    keeps the score of its first span in that order. With ``k``, ranking
    stops after k phrases, and the sorted spans go to Python a slice of
    ``RANK_SLICE_PER_PHRASE * k`` at a time. Document tokens are tokenizer
    output, which re-tokenizes to itself, so doc.phrase(span) is already
    normalized.
    """
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((spans[:, 1], spans[:, 0], -scores))
    step = max(len(order), 1) if k is None else RANK_SLICE_PER_PHRASE * k
    seen = set()
    ranked = []
    for lo in range(0, len(order), step):
        part = order[lo : lo + step]
        for span, score in zip(spans[part].tolist(), scores[part].tolist()):
            phrase = doc.phrase(span)
            if phrase not in seen:
                seen.add(phrase)
                ranked.append((phrase, score))
                if len(ranked) == k:
                    return ranked
    return ranked


def predict_topk(distribution, doc, k):
    """The k best phrases of a span distribution, ranked by rank_phrases."""
    return Prediction(doc.id, tuple(rank_phrases(doc, distribution.spans, distribution.probs, k)))


def chunk_document(doc, chunk_len):
    """Split into consecutive chunk_len-token sub-documents.

    Chunk p has id ``<id>#chunk<p>`` and carries the visual and frozen vector
    rows of its own tokens.
    """
    if chunk_len < 1:
        raise ValueError("chunk length must be at least 1")
    return [doc.slice(start, start + chunk_len, id=f"{doc.id}#chunk{p}")
            for p, start in enumerate(range(0, len(doc), chunk_len))]


def chunk_and_merge(model, doc, chunk_len=MAX_DOC_LENGTH,
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
        dist = model.distribution(chunk)
        ranked = rank_phrases(chunk, dist.spans, dist.probs)
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


def _is_pair(entry):
    # a score's type is checked exactly, as a bool is an int; the bound
    # refuses NaN and Infinity, which json reads, and ints past the float range
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and type(entry[1]) in (int, float) and abs(entry[1]) <= sys.float_info.max)


def read_predictions(path):
    """Load the JSONL that write_predictions writes; bad lines fail with file:line."""
    predictions = []
    for where, obj in read_records(path, "id", "phrases"):
        phrases = obj["phrases"]
        if not isinstance(phrases, list) or not all(_is_pair(p) for p in phrases):
            raise DatasetError(
                f"{where}: phrases must be a list of [phrase, score] pairs "
                "with finite number scores"
            )
        pairs = tuple((phrase, float(score)) for phrase, score in phrases)
        predictions.append(Prediction(str(obj["id"]), pairs))
    return predictions
