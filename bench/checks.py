"""Output checks for every command the benchmark times.

Each check returns a list of ``(document index or None, message)`` problems;
an empty list means the output is correct. The checks read only the files
the program wrote and the generator's own token lists, so they do not trust
any kpex helper to define what a correct answer is, except for loading the
trained checkpoint, which is what "the checkpoint loads" means.
"""

from __future__ import annotations

import json
import math
import os

from corpus import FUNCTION_WORDS, MAX_SPAN, TRUNCATE_AT

STOPWORDS = frozenset(FUNCTION_WORDS)


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def windows(tokens, limit=None):
    """Every contiguous window of at most MAX_SPAN tokens, space-joined."""
    toks = tokens[:limit] if limit else tokens
    return {
        " ".join(toks[i : i + k])
        for k in range(1, min(MAX_SPAN, len(toks)) + 1)
        for i in range(len(toks) - k + 1)
    }


class Reference:
    """What the checks know about the input corpus."""

    def __init__(self, docs):
        self.ids = [d["id"] for d in docs]
        self.tokens = [d["tokens"] for d in docs]
        self._windows = {}

    def windows(self, i, truncated):
        key = (i, truncated)
        if key not in self._windows:
            limit = TRUNCATE_AT if truncated else None
            self._windows[key] = windows(self.tokens[i], limit)
        return self._windows[key]


def _is_boundary_ok(token):
    return token.isalnum() and token not in STOPWORDS


def check_predictions(path, ref, command, chunked_output=None):
    """Problems in one predictions file written by ``command``.

    ``chunked_output`` is the parsed output of ``--chunked`` on the same
    input with the same model; the dedup check needs it to know which
    phrases form the protected top quarter.
    """
    try:
        rows = read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [(None, f"unreadable predictions: {exc}")]
    if [r.get("id") for r in rows] != ref.ids:
        return [(None, f"expected {len(ref.ids)} predictions with ids in input order")]
    truncated = command in ("predict", "tfidf", "textrank")
    problems = []
    for i, row in enumerate(rows):
        # a baseline has no candidate in a document without a content word
        may_be_empty = command in ("tfidf", "textrank") and not any(
            _is_boundary_ok(t) for t in ref.tokens[i][:TRUNCATE_AT])
        for message in _check_row(row, ref.windows(i, truncated), command, may_be_empty):
            problems.append((i, message))
    if command == "chunked_dedup":
        if chunked_output is None or len(chunked_output) != len(rows):
            problems.append((None, "dedup check needs the --chunked output"))
        else:
            for i, (row, full) in enumerate(zip(rows, chunked_output)):
                message = _dedup_problem(row["phrases"], full["phrases"])
                if message:
                    problems.append((i, message))
    return problems


def _check_row(row, doc_windows, command, may_be_empty):
    phrases = row.get("phrases")
    if not isinstance(phrases, list) or not (phrases or may_be_empty):
        yield "no phrases"
        return
    previous = math.inf
    for phrase, score in phrases:
        if phrase not in doc_windows:
            yield f"{phrase!r} is not a window of at most {MAX_SPAN} document tokens"
        if not isinstance(score, (int, float)) or not math.isfinite(score):
            yield f"{phrase!r} has score {score!r}"
            continue
        if score > previous:
            yield f"score rises to {score} at {phrase!r}"
        previous = score
        if command == "predict" and not 0.0 <= score <= 1.0:
            yield f"probability {score} of {phrase!r} outside [0, 1]"
        if command in ("tfidf", "textrank"):
            tokens = phrase.split()
            if not (_is_boundary_ok(tokens[0]) and _is_boundary_ok(tokens[-1])):
                yield f"{phrase!r} starts or ends with a stopword or punctuation"
    if len({p for p, _ in phrases}) != len(phrases):
        yield "a phrase is listed twice"


def _dedup_problem(kept, full):
    head = math.ceil(len(full) / 4)
    protected = [p for p, _ in full[:head]]
    if [p for p, _ in kept[:head]] != protected:
        return "dedup changed the protected top quarter"
    sub_spans = set()
    for phrase in protected:
        toks = tuple(phrase.split())
        sub_spans.update(
            toks[i:j] for i in range(len(toks)) for j in range(i + 1, len(toks) + 1)
        )
    for phrase, _ in kept[head:]:
        if tuple(phrase.split()) in sub_spans:
            return f"{phrase!r} below the top quarter is inside a protected phrase"
    return None


def check_training(run_dir, epochs):
    """Problems in a ``kpex train`` run directory."""
    problems = []
    try:
        epochs_seen = read_jsonl(os.path.join(run_dir, "metrics.jsonl"))
    except (OSError, ValueError) as exc:
        return [(None, f"unreadable metrics.jsonl: {exc}")]
    if len(epochs_seen) != epochs:
        problems.append((None, f"{len(epochs_seen)} epochs logged, expected {epochs}"))
    for row in epochs_seen:
        for key in ("train_loss", "val_loss"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append((None, f"epoch {row.get('epoch')}: {key} is {value!r}"))
    from kpex.model import SpanScorer

    try:
        SpanScorer.load(os.path.join(run_dir, "best.ckpt"))
    except Exception as exc:  # any failure to load is the finding
        problems.append((None, f"best.ckpt does not load: {type(exc).__name__}: {exc}"))
    return problems
