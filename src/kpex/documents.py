"""Document model: tokenization, candidate spans, and gold-label alignment.

A document is a sequence of lowercased tokens plus one 18-dimensional visual
feature row per token. Candidate keyphrases are all n-grams up to a maximum
width K, one (start, length) row each; gold phrases are aligned to the token
sequence by exact token-level match, and the training target spreads
probability uniformly over every occurrence of every matched phrase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .config import MAX_DOC_LENGTH, MAX_SPAN_LENGTH, VISUAL_DIM
from .fileio import DatasetError, read_jsonl, string_list

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text):
    """Lowercase, split on whitespace, and detach punctuation.

    Alphanumeric runs (including ``_``) stay whole; every other non-space
    character becomes its own token, so "A,B" -> ["a", ",", "b"].
    """
    return _TOKEN_RE.findall(text.lower())


class Span(NamedTuple):
    """A phrase: ``length`` tokens from token ``start``; unpacks like a span row."""

    start: int
    length: int


@dataclass(frozen=True, eq=False)
class Document:
    id: str
    tokens: tuple
    visual: np.ndarray
    zero_visual: bool = False
    token_offset: int = 0  # position of token 0 in the source document
    source_id: str = ""  # id of the source document; defaults to id

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.source_id:
            object.__setattr__(self, "source_id", self.id)
        if len(self.tokens) < 1:
            raise ValueError(f"document {self.id!r} has no tokens")
        if self.visual.shape != (len(self.tokens), VISUAL_DIM):
            raise ValueError(
                f"document {self.id!r}: visual shape {self.visual.shape} != "
                f"({len(self.tokens)}, {VISUAL_DIM})"
            )

    def __len__(self):
        return len(self.tokens)

    def phrase(self, span):
        start, length = span
        return " ".join(self.tokens[start : start + length])


@dataclass(frozen=True, eq=False)
class LabeledDocument:
    document: Document
    keyphrases: tuple

    def __post_init__(self):
        if not self.keyphrases:
            raise ValueError(f"document {self.document.id!r} has no keyphrases")


def validate_visual_rows(doc_id, n_tokens, rows, where=None):
    """Check a raw visual feature list; returns an (n, 18) float64 array.

    Values are clamped to [0, 1]; non-finite values are rejected. ``where``
    (``path:lineno``) prefixes the error when the rows come from a file.
    """
    source = f"{where}: document {doc_id!r}" if where else f"document {doc_id!r}"
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows or a non-number
        raise DatasetError(
            f"{source}: visual features must be {n_tokens} rows of {VISUAL_DIM} numbers"
        ) from exc
    if arr.shape != (n_tokens, VISUAL_DIM):
        raise DatasetError(
            f"{source}: visual features have shape {arr.shape}, "
            f"expected ({n_tokens}, {VISUAL_DIM})"
        )
    if not np.isfinite(arr).all():
        raise DatasetError(f"{source}: non-finite visual feature")
    return np.clip(arr, 0.0, 1.0)


def make_document(doc_id, text, visual_rows=None, where=None):
    """Tokenize raw text into a Document; returns None for empty token lists.

    Missing visual features are zero-filled and flagged via ``zero_visual``;
    ``where`` locates bad visual rows in their file.
    """
    tokens = tuple(tokenize(text))
    if not tokens:
        return None
    if visual_rows is None:
        visual = np.zeros((len(tokens), VISUAL_DIM))
        return Document(doc_id, tokens, visual, zero_visual=True)
    visual = validate_visual_rows(doc_id, len(tokens), visual_rows, where)
    return Document(doc_id, tokens, visual)


def truncate(doc, max_len=MAX_DOC_LENGTH):
    """Keep the first ``max_len`` tokens (and their visual rows)."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if len(doc) <= max_len:
        return doc
    return replace(doc, tokens=doc.tokens[:max_len], visual=doc.visual[:max_len])


def enumerate_spans(n_tokens, max_len=MAX_SPAN_LENGTH):
    """All spans up to max_len as an (M, 2) int64 array of (start, length) rows.

    Rows are ordered by (length, start): row i is the span that logit i scores.
    """
    if n_tokens < 1:
        raise ValueError("need at least one token")
    if max_len < 1:
        raise ValueError("max span length must be at least 1")
    widths = np.arange(1, min(max_len, n_tokens) + 1, dtype=np.int64)
    counts = n_tokens - widths + 1
    starts = np.concatenate([np.arange(c, dtype=np.int64) for c in counts])
    return np.stack([starts, np.repeat(widths, counts)], axis=1)


def count_spans(n_tokens, max_len=MAX_SPAN_LENGTH):
    k = min(max_len, n_tokens)
    return k * n_tokens - (k * (k - 1)) // 2


def span_index(n_tokens, span):
    """Index of ``span`` within enumerate_spans(n_tokens, ...) ordering."""
    start, k = span
    if start + k > n_tokens:
        raise ValueError(f"span {span} exceeds document length {n_tokens}")
    offset = (k - 1) * n_tokens - ((k - 1) * (k - 2)) // 2
    return offset + start


def span_target(n_tokens, max_len, spans):
    """Uniform target over ``spans``, aligned with enumerate_spans(n_tokens, max_len)."""
    if not spans:
        raise ValueError("span target needs at least one span")
    out = np.zeros(count_spans(n_tokens, max_len))
    mass = 1.0 / len(spans)
    for span in spans:
        out[span_index(n_tokens, span)] += mass
    return out


def match_phrase(doc, phrase):
    """Every span of ``doc`` whose tokens equal the tokenized phrase."""
    needle = tuple(tokenize(phrase))
    if not needle:
        raise ValueError(f"phrase {phrase!r} tokenizes to nothing")
    k = len(needle)
    return [
        Span(i, k)
        for i in range(len(doc) - k + 1)
        if doc.tokens[i : i + k] == needle
    ]


@dataclass
class LabelReport:
    """Per-document accounting of how gold phrases aligned to the text."""

    matched: int = 0
    unmatched: list = field(default_factory=list)
    too_long: list = field(default_factory=list)


def build_labels(labeled, max_len=MAX_SPAN_LENGTH):
    """Align gold phrases to spans; returns (sorted Spans | None, LabelReport).

    Phrases longer than ``max_len`` tokens are unmatchable by construction and
    reported separately. A document where nothing matches yields None and is
    expected to be skipped (with a counter) by training code.
    """
    report = LabelReport()
    spans = set()
    for phrase in labeled.keyphrases:
        needle = tokenize(phrase)
        if not needle:
            report.unmatched.append(phrase)
            continue
        if len(needle) > max_len:
            report.too_long.append(phrase)
            continue
        found = match_phrase(labeled.document, phrase)
        if found:
            report.matched += 1
            spans.update(found)
        else:
            report.unmatched.append(phrase)
    if not spans:
        return None, report
    return tuple(sorted(spans, key=lambda s: (s.length, s.start))), report


@dataclass
class IngestReport:
    total_lines: int = 0
    kept: int = 0
    skipped_empty: list = field(default_factory=list)
    skipped_unlabeled: list = field(default_factory=list)
    zero_visual: list = field(default_factory=list)


def read_dataset(path, require_labels=False):
    """Load a JSONL dataset of {"id", "text", "visual"?, "keyphrases"?}.

    Returns (items, IngestReport). Items are LabeledDocuments when the line
    carries keyphrases, otherwise bare Documents. Documents that tokenize to
    nothing are skipped and counted, not fatal; structural problems (bad JSON,
    a text that is not a string, keyphrases that are not a list of strings,
    wrong visual shape, duplicate ids) raise DatasetError at ``path:lineno``.
    """
    return dataset_from_records(path, read_jsonl(path), require_labels)


def dataset_from_records(path, records, require_labels=False):
    """``read_dataset`` over already parsed ``(lineno, object)`` records of ``path``."""
    items = []
    report = IngestReport()
    seen_ids = set()
    for lineno, obj in records:
        where = f"{path}:{lineno}"
        report.total_lines += 1
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise DatasetError(f"{where}: expected an object with id and text")
        doc_id = str(obj["id"])
        if doc_id in seen_ids:
            raise DatasetError(f"{where}: duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        if not isinstance(obj["text"], str):
            raise DatasetError(f"{where}: text must be a string")
        phrases = obj.get("keyphrases")
        if phrases is not None:
            string_list(phrases, "keyphrases", where)
        doc = make_document(doc_id, obj["text"], obj.get("visual"), where)
        if doc is None:
            report.skipped_empty.append(doc_id)
            continue
        if doc.zero_visual:
            report.zero_visual.append(doc_id)
        if phrases:
            items.append(LabeledDocument(doc, tuple(phrases)))
        elif require_labels:
            report.skipped_unlabeled.append(doc_id)
            continue
        else:
            items.append(doc)
        report.kept += 1
    return items, report
