"""Document model: tokenization, candidate spans, and gold-label alignment.

A document is a sequence of lowercased tokens plus one 18-dimensional visual
feature row per token, one frozen contextual vector per token once attached,
and the keyphrases it is labeled with, if any; slices keep rows with tokens.
Candidate keyphrases are all n-grams up to a maximum width K, one (start,
length) row each; gold phrases are aligned to the token sequence by exact
token-level match, and the training target spreads probability uniformly
over every occurrence of every matched phrase.
"""

from __future__ import annotations

import hashlib
import os
import re
import stat
from dataclasses import dataclass, field, replace
from itertools import chain
from numbers import Real
from typing import NamedTuple

import numpy as np

from .config import MAX_DOC_LENGTH, MAX_SPAN_LENGTH, VISUAL_DIM
from .fileio import DatasetError, read_records, string_list

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
    keyphrases: tuple = ()  # gold or query phrases; empty when unlabeled
    vectors: np.ndarray | None = None  # (n, token_dim) frozen rows, if attached

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        n = len(self.tokens)
        if n < 1:
            raise ValueError(f"document {self.id!r} has no tokens")
        if self.visual.shape != (n, VISUAL_DIM):
            raise ValueError(
                f"document {self.id!r}: visual shape {self.visual.shape} != "
                f"({n}, {VISUAL_DIM})"
            )
        if self.vectors is not None and (self.vectors.ndim != 2 or len(self.vectors) != n):
            raise ValueError(
                f"document {self.id!r}: vectors shape {self.vectors.shape} != ({n}, d)"
            )

    def __len__(self):
        return len(self.tokens)

    def slice(self, start, stop, **changes):
        """Tokens ``start:stop`` and their rows; ``changes`` replace other fields."""
        vectors = None if self.vectors is None else self.vectors[start:stop]
        return replace(self, tokens=self.tokens[start:stop], visual=self.visual[start:stop],
                       vectors=vectors, **changes)

    def phrase(self, span):
        start, length = span
        return " ".join(self.tokens[start : start + length])


def float_rows(rows, name, width, where, n_rows=None):
    """``rows`` as a 2-D float64 array of finite numbers, ``width`` columns wide.

    ``n_rows``, when given, is the required row count. ``where`` locates the
    rows, as ``path:lineno: document 'id'`` for a JSONL line; ragged rows,
    a non-number (strings, booleans and null included), a wrong shape or a
    NaN or infinity raise DatasetError there.
    """
    expected = f"({'n' if n_rows is None else n_rows}, {width})"
    not_numbers = DatasetError(f"{where}: {name} must form a {expected} array of numbers")
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except OverflowError as exc:  # an integer past float range
        raise DatasetError(f"{where}: non-finite {name}") from exc
    except (TypeError, ValueError) as exc:  # ragged rows or a non-number
        raise not_numbers from exc
    if arr.ndim != 2 or arr.shape[1] != width or n_rows not in (None, arr.shape[0]):
        raise DatasetError(f"{where}: {name} have shape {arr.shape}, expected {expected}")
    # numpy reads "0.5" as 0.5, true as 1.0 and null as NaN
    if any(kind is bool or not issubclass(kind, Real)
           for kind in set(map(type, chain.from_iterable(rows)))):
        raise not_numbers
    if not np.isfinite(arr).all():
        raise DatasetError(f"{where}: non-finite {name}")
    return arr


def make_document(doc_id, text, visual_rows=None, where=None, keyphrases=()):
    """Tokenize raw text into a Document; returns None for empty token lists.

    Missing visual features are zero-filled (``read_dataset`` lists those
    documents in its report); given rows are clamped to [0, 1], and ``where``
    locates bad rows in their file. ``keyphrases`` labels the document; none
    leaves it unlabeled.
    """
    tokens = tuple(tokenize(text))
    if not tokens:
        return None
    if visual_rows is None:
        visual = np.zeros((len(tokens), VISUAL_DIM))
    else:
        source = f"{where}: document {doc_id!r}" if where else f"document {doc_id!r}"
        rows = float_rows(visual_rows, "visual features", VISUAL_DIM, source, len(tokens))
        visual = np.clip(rows, 0.0, 1.0)
    return Document(doc_id, tokens, visual, keyphrases=tuple(keyphrases))


def truncate(doc, max_len=MAX_DOC_LENGTH):
    """Keep the first ``max_len`` tokens (and their visual and vector rows)."""
    if len(doc) <= max_len:
        return doc
    return doc.slice(0, max_len)


def enumerate_spans(n_tokens, max_len=MAX_SPAN_LENGTH):
    """All spans up to max_len as an (M, 2) int64 array of (start, length) rows.

    Rows are ordered by (length, start): row i is the span that logit i scores.
    """
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
    return count_spans(n_tokens, k - 1) + start


def span_target(n_tokens, max_len, spans):
    """Uniform target over ``spans``, aligned with enumerate_spans(n_tokens, max_len)."""
    if not spans:
        raise ValueError("span target needs at least one span")
    out = np.zeros(count_spans(n_tokens, max_len))
    mass = 1.0 / len(spans)
    for span in spans:
        out[span_index(n_tokens, span)] += mass
    return out


def match_phrase(doc, needle):
    """Every span of ``doc`` whose tokens equal the non-empty token tuple ``needle``."""
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


def build_labels(doc, max_len=MAX_SPAN_LENGTH):
    """Align ``doc.keyphrases`` to spans; returns (sorted Spans | None, LabelReport).

    Phrases longer than ``max_len`` tokens are unmatchable by construction and
    reported separately. A document where nothing matches, an unlabeled one
    included, yields None and is expected to be skipped (with a counter) by
    training code.
    """
    report = LabelReport()
    spans = set()
    for phrase in doc.keyphrases:
        needle = tuple(tokenize(phrase))
        if not needle:
            report.unmatched.append(phrase)
            continue
        if len(needle) > max_len:
            report.too_long.append(phrase)
            continue
        found = match_phrase(doc, needle)
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
    skipped_empty: list = field(default_factory=list)
    zero_visual: list = field(default_factory=list)  # ids given no visual rows


def read_dataset(path):
    """Load a JSONL dataset of {"id", "text", "visual"?, "keyphrases"?}.

    Returns (documents, IngestReport). Each line becomes one Document whose
    ``keyphrases`` holds the line's phrases, empty when it has none. Documents
    that tokenize to nothing are skipped and counted, not fatal. A text that is
    not a string, keyphrases that are not a list of strings, bad visual rows,
    and every breach of the ``read_records`` contract raise DatasetError at
    ``path:lineno``.

    A regular file's parse is kept until another file is parsed, keyed by the
    SHA-256 of its bytes, so reading the same bytes again in this process
    skips the JSON parse. The documents are shared between such reads, so
    their visual rows are read-only; the list and the report are fresh.
    """
    global _last_parse
    stamp = _stamp(path)
    digest = _sha256_file(path) if stamp and stat.S_ISREG(stamp[0]) else None
    if digest is None:  # a pipe, which hashing would consume, or an unreadable path
        return dataset_from_records(read_records(path, "id", "text"))
    memo = _last_parse  # read once: another thread may replace it
    if memo is None or memo[0] != digest:
        _last_parse = None  # never hold two parses at once
        parsed = dataset_from_records(read_records(path, "id", "text"))
        if _stamp(path) != stamp:  # changed while read: the digest may not name it
            return parsed
        memo = _last_parse = digest, *parsed
    _, docs, report = memo
    return list(docs), IngestReport(list(report.skipped_empty), list(report.zero_visual))


def dataset_from_records(records):
    """``read_dataset`` over the ``(where, object)`` records of ``read_records``."""
    docs = []
    report = IngestReport()
    for where, obj in records:
        doc_id = obj["id"]
        if not isinstance(obj["text"], str):
            raise DatasetError(f"{where}: text must be a string")
        phrases = obj.get("keyphrases")
        if phrases is not None:
            string_list(phrases, "keyphrases", where)
        doc = make_document(doc_id, obj["text"], obj.get("visual"), where, phrases or ())
        if doc is None:
            report.skipped_empty.append(doc_id)
            continue
        if obj.get("visual") is None:
            report.zero_visual.append(doc_id)
        doc.visual.flags.writeable = False
        docs.append(doc)
    return docs, report


# -- the parse memo --------------------------------------------------------

_last_parse = None  # (SHA-256, documents, IngestReport) of the last regular file parsed


def _stamp(path):
    """What changes when the file at ``path`` is written or replaced; None if ``os.stat`` fails."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mode, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _sha256_file(path):
    """The file's SHA-256, or None if it cannot be read."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            # blocks under glibc's 128 KiB mmap threshold: freeing a larger one
            # raises the threshold and moves later arrays onto the heap
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.digest()
