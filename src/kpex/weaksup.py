"""Weak supervision from search query logs.

Documents paired with the queries that led clicks to them become pretraining
examples: a query survives the filter only if its token sequence occurs
verbatim inside the (truncated) document and is at most K tokens long. The
surviving queries become the document's keyphrases, so they are aligned and
trained exactly as gold keyphrases are: the target spreads uniformly over
every occurrence of every surviving query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import mean, pstdev

from .documents import (
    MAX_DOC_LENGTH,
    MAX_SPAN_LENGTH,
    match_phrase,
    tokenize,
    truncate,
)
from .fileio import read_lines, read_records, string_list


def read_query_log(path):
    """Load a JSONL click log of {"id": str, "queries": [str, ...]}."""
    return {obj["id"]: string_list(obj["queries"], "queries", where)
            for where, obj in read_records(path, "id", "queries")}


def filter_queries(doc, queries, max_span_length=MAX_SPAN_LENGTH, blocklist=None):
    """Split queries into (kept, dropped) against a truncated document.

    Kept entries are the queries that occur verbatim, duplicates collapsed;
    dropped entries are (query, reason) with reason one of "empty",
    "blocked", "too_long", "not_verbatim", "duplicate".
    """
    blocklist = blocklist or frozenset()
    kept = []
    dropped = []
    seen = set()
    for query in queries:
        tokens = tuple(tokenize(query))
        if not tokens:
            dropped.append((query, "empty"))
            continue
        if tokens in seen:
            dropped.append((query, "duplicate"))
            continue
        seen.add(tokens)
        if " ".join(tokens) in blocklist:
            dropped.append((query, "blocked"))
            continue
        if len(tokens) > max_span_length:
            dropped.append((query, "too_long"))
            continue
        if not match_phrase(doc, tokens):
            dropped.append((query, "not_verbatim"))
            continue
        kept.append(query)
    return kept, dropped


@dataclass
class QueryDatasetStats:
    """Corpus statistics over the surviving query-prediction examples.

    The field names are the keys of ``build-qp``'s ``.stats.json``, which
    holds ``asdict`` of this record; each ``*_std`` is a population std.
    """

    n_documents: int = 0
    n_unique_queries: int = 0
    doc_length_mean: float = 0.0
    doc_length_std: float = 0.0
    queries_per_doc_mean: float = 0.0
    queries_per_doc_std: float = 0.0
    query_length_mean: float = 0.0
    query_length_std: float = 0.0
    doc_vocabulary_size: int = 0
    query_vocabulary_size: int = 0
    dropped: dict = field(default_factory=dict)

    def as_table(self):
        rows = [
            ("# of Documents", f"{self.n_documents}"),
            ("# of Unique Queries", f"{self.n_unique_queries}"),
            ("Doc Length", f"{self.doc_length_mean:.2f} +/- {self.doc_length_std:.2f}"),
            ("# of Query per Doc",
             f"{self.queries_per_doc_mean:.2f} +/- {self.queries_per_doc_std:.2f}"),
            ("Query Length",
             f"{self.query_length_mean:.2f} +/- {self.query_length_std:.2f}"),
            ("Doc Vocabulary Size", f"{self.doc_vocabulary_size}"),
            ("Query Vocabulary Size", f"{self.query_vocabulary_size}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _mean_std(name, values):
    """The ``<name>_mean`` and ``<name>_std`` fields of QueryDatasetStats over ``values``."""
    if not values:
        return {f"{name}_mean": 0.0, f"{name}_std": 0.0}
    return {f"{name}_mean": float(mean(values)), f"{name}_std": float(pstdev(values))}


def build_qp_dataset(
    documents,
    query_log,
    max_span_length=MAX_SPAN_LENGTH,
    max_doc_length=MAX_DOC_LENGTH,
    blocklist=None,
):
    """Join documents with their clicked queries into weak supervision.

    ``documents`` is any iterable of Documents; ids absent from the log, and
    documents where every query drops out, are skipped. Returns (examples,
    QueryDatasetStats), where each example is the truncated Document with its
    kept queries as ``keyphrases``; training.prepare_examples aligns those
    queries to spans exactly as it aligns gold keyphrases. Statistics describe
    the kept examples; document length is measured before truncation.
    """
    examples = []
    doc_lengths = []
    query_counts = []
    query_lengths = []
    doc_vocab = set()
    query_vocab = set()
    unique_queries = set()
    dropped = {}
    for doc in documents:
        queries = query_log.get(doc.id)
        if not queries:
            continue
        clipped = truncate(doc, max_doc_length)
        kept, drops = filter_queries(clipped, queries, max_span_length, blocklist)
        for _, reason in drops:
            dropped[reason] = dropped.get(reason, 0) + 1
        if not kept:
            continue
        examples.append(replace(clipped, keyphrases=tuple(kept)))
        doc_lengths.append(len(doc))
        query_counts.append(len(kept))
        doc_vocab.update(doc.tokens)
        for query in kept:
            tokens = tokenize(query)
            query_lengths.append(len(tokens))
            query_vocab.update(tokens)
            unique_queries.add(" ".join(tokens))
    stats = QueryDatasetStats(
        n_documents=len(examples),
        n_unique_queries=len(unique_queries),
        **_mean_std("doc_length", doc_lengths),
        **_mean_std("queries_per_doc", query_counts),
        **_mean_std("query_length", query_lengths),
        doc_vocabulary_size=len(doc_vocab),
        query_vocabulary_size=len(query_vocab),
        dropped=dropped,
    )
    return examples, stats


def load_blocklist(path):
    """One normalized query per line; blank lines and # comments ignored."""
    return frozenset(" ".join(tokenize(line)) for line in read_lines(path))
