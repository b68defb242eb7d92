"""Evaluation: ranked precision/recall and inter-judge agreement.

All metrics are macro-averaged: computed per document, then averaged with
equal document weight. Phrase matching uses the shared normalization on both
sides; an optional stemmer flag exists for corpora annotated with inflected
variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .inference import normalize_phrase


@dataclass
class MetricReport:
    precision: dict = field(default_factory=dict)  # depth -> macro P@depth
    recall: dict = field(default_factory=dict)
    f1: dict = field(default_factory=dict)
    documents: int = 0
    skipped: list = field(default_factory=list)

    def to_dict(self):
        return {
            "precision": {str(k): v for k, v in self.precision.items()},
            "recall": {str(k): v for k, v in self.recall.items()},
            "f1": {str(k): v for k, v in self.f1.items()},
            "documents": self.documents,
            "skipped": list(self.skipped),
        }

    def as_table(self):
        depths = sorted(self.precision)
        lines = ["depth  precision  recall"]
        for d in depths:
            lines.append(f"@{d:<5} {self.precision[d]:9.4f}  {self.recall[d]:7.4f}")
        for d in sorted(self.f1):
            lines.append(f"F1@{d:<4} {self.f1[d]:9.4f}")
        lines.append(f"documents: {self.documents} (skipped {len(self.skipped)})")
        return "\n".join(lines)


def _normalize_list(phrases, stem):
    out = []
    for p in phrases:
        n = normalize_phrase(p, stem=stem)
        if n:
            out.append(n)
    return out


def _hit_counts(predictions, gold, depths, stem):
    """Gold phrases found in each document's top ``d`` predictions, per depth.

    Returns (depth -> int array of hits, int array of gold-set sizes, skipped
    ids), over sorted doc ids whose gold set normalizes to something; the
    ranked list is deduplicated after normalization, before the cut.
    """
    hits = {d: [] for d in depths}
    sizes = []
    skipped = []
    for doc_id in sorted(gold):
        gold_set = set(_normalize_list(gold[doc_id], stem))
        if not gold_set:
            skipped.append(doc_id)
            continue
        ranked = list(dict.fromkeys(_normalize_list(predictions.get(doc_id, ()), stem)))
        sizes.append(len(gold_set))
        for d in hits:
            hits[d].append(len(set(ranked[:d]) & gold_set))
    return ({d: np.array(h, dtype=np.int64) for d, h in hits.items()},
            np.array(sizes, dtype=np.int64), skipped)


def evaluate(predictions, gold, depths=(1, 3, 5), f1_depths=(10,), stem=False):
    """Macro P@k and R@k at each depth, plus macro F1 at the f1 depths.

    ``predictions`` maps doc id -> ranked phrase list; ``gold`` maps doc id ->
    gold phrase collection. Documents whose gold set normalizes to empty are
    skipped and recorded. A missing prediction list counts as empty (scores
    zero), not as a skip.
    """
    if any(d < 1 for d in (*depths, *f1_depths)):
        raise ValueError("depths must be at least 1")
    hits, sizes, skipped = _hit_counts(predictions, gold, (*depths, *f1_depths), stem)
    report = MetricReport(documents=len(sizes), skipped=skipped)
    if report.documents == 0:
        raise ValueError("no documents with usable gold keyphrases")
    for d in depths:
        report.precision[d] = float(np.mean(hits[d] / d))
        report.recall[d] = float(np.mean(hits[d] / sizes))
    for d in f1_depths:
        p, r = hits[d] / d, hits[d] / sizes
        with np.errstate(invalid="ignore"):  # 0/0 where a document has no hit
            report.f1[d] = float(np.mean(np.where(hits[d] == 0, 0.0, 2 * p * r / (p + r))))
    return report


@dataclass
class AgreementReport:
    percentage: float
    pairs: int
    truncated_lists: int
    skipped_pairs: int


def judge_agreement(items, depth, mode="exact"):
    """Mean pairwise agreement between judges' top-``depth`` keyphrases.

    ``items`` is a list of documents, each a list of per-judge ranked phrase
    lists. Exact mode scores |top_A & top_B| / depth on normalized phrases.
    Unigram mode compares the word sets of the top lists, scoring
    |U_A & U_B| / min(|U_A|, |U_B|). Judges with fewer than ``depth`` entries
    are used truncated and counted. Returns a percentage in [0, 100].
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if mode not in ("exact", "unigram"):
        raise ValueError(f"unknown agreement mode {mode!r}")
    scores = []
    truncated = 0
    skipped = 0
    for judges in items:
        tops = []
        for ranked in judges:
            normalized = list(dict.fromkeys(_normalize_list(ranked, stem=False)))
            if len(normalized) < depth:
                truncated += 1
            tops.append(normalized[:depth])
        for a, b in combinations(tops, 2):
            if mode == "exact":
                scores.append(len(set(a) & set(b)) / depth)
            else:
                ua = {w for p in a for w in p.split()}
                ub = {w for p in b for w in p.split()}
                if not ua or not ub:
                    skipped += 1
                    continue
                scores.append(len(ua & ub) / min(len(ua), len(ub)))
    if not scores:
        raise ValueError("no judge pairs to compare")
    return AgreementReport(
        percentage=100.0 * float(np.mean(scores)),
        pairs=len(scores),
        truncated_lists=truncated,
        skipped_pairs=skipped,
    )
