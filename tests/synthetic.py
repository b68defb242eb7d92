"""Synthetic corpora with planted keyphrases, and the full-scale model config.

Three signal regimes back the end-to-end checks: a lexical regime where
keyphrases come from a dedicated keyword vocabulary, a visual regime where
the keyphrase is marked only by bold / large-font features, and a weak
supervision regime that emits documents plus a click log of queries. All
generators are deterministic in their seed. Only the tests use them.
"""

from dataclasses import replace

import numpy as np

from kpex.config import EmbeddingConfig, ModelConfig
from kpex.documents import VISUAL_DIM, Document

_FONT_ROWS = slice(0, 2)  # word + parent font features
_BOLD_ROWS = slice(10, 12)  # word + parent bold flags


def _make_doc(doc_id, tokens, keyphrases, visual=None):
    if visual is None:
        visual = np.zeros((len(tokens), VISUAL_DIM))
    return Document(doc_id, tuple(tokens), visual, keyphrases=keyphrases)


def lexical_corpus(
    seed,
    n_docs,
    doc_len=16,
    filler_vocab=40,
    keyword_vocab=12,
    max_phrase_len=2,
    id_prefix="lex",
):
    """Keyphrases are runs of dedicated keyword-vocabulary tokens.

    Filler and keyword vocabularies are disjoint, so the planted phrase is
    the only place keyword tokens appear and the signal is purely lexical.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        length = int(rng.integers(1, max_phrase_len + 1))
        words = rng.choice(keyword_vocab, size=length, replace=False)
        phrase_tokens = [f"kw{w}" for w in words]
        tokens = [f"w{v}" for v in rng.integers(0, filler_vocab, size=doc_len)]
        start = int(rng.integers(0, doc_len - length + 1))
        tokens[start : start + length] = phrase_tokens
        docs.append(_make_doc(f"{id_prefix}{d}", tokens, (" ".join(phrase_tokens),)))
    return docs


def visual_corpus(seed, n_docs, doc_len=20, vocab=60, id_prefix="vis"):
    """The keyphrase is a single token marked only by bold + large font.

    Tokens are sampled without replacement from one shared pool, so token
    identity carries no information about which one is the keyphrase; only
    the visual rows distinguish it.
    """
    rng = np.random.default_rng(seed)
    if doc_len > vocab:
        raise ValueError("doc_len cannot exceed vocab for replacement-free draws")
    docs = []
    for d in range(n_docs):
        tokens = [f"w{v}" for v in rng.choice(vocab, size=doc_len, replace=False)]
        visual = np.full((doc_len, VISUAL_DIM), 0.5)
        visual[:, _FONT_ROWS] = 0.4
        visual[:, _BOLD_ROWS] = 0.0
        key = int(rng.integers(0, doc_len))
        visual[key, _FONT_ROWS] = 1.0
        visual[key, _BOLD_ROWS] = 1.0
        docs.append(_make_doc(f"{id_prefix}{d}", tokens, (tokens[key],), visual))
    return docs


def weak_supervision_setup(
    seed,
    n_pretrain=200,
    n_finetune=8,
    n_heldout=24,
    doc_len=24,
    filler_vocab=30,
    keyword_vocab=12,
    tail_tokens=2,
):
    """Documents plus a click log for the pretraining-direction check.

    Every document plants one keyword-vocabulary token as its key phrase;
    ``tail_tokens`` per document are globally unique, so any split sees some
    out-of-vocabulary tokens and "unseen token" alone cannot identify the
    keyphrase. Returns (pretrain_docs, query_log, finetune, heldout):
    pretrain documents are unlabeled, their supervision arrives only through
    the query log.
    """
    rng = np.random.default_rng(seed)
    serial = 0

    def build(count, prefix):
        nonlocal serial
        out = []
        for d in range(count):
            tokens = [f"w{v}" for v in rng.integers(0, filler_vocab, size=doc_len)]
            slots = rng.choice(doc_len, size=1 + tail_tokens, replace=False)
            for slot in slots[1:]:
                tokens[int(slot)] = f"tail{serial}"
                serial += 1
            key = f"kw{int(rng.integers(0, keyword_vocab))}"
            tokens[int(slots[0])] = key
            out.append(_make_doc(f"{prefix}{d}", tokens, (key,)))
        return out

    pretrain_labeled = build(n_pretrain, "qp")
    query_log = {doc.id: list(doc.keyphrases) for doc in pretrain_labeled}
    pretrain_docs = [replace(doc, keyphrases=()) for doc in pretrain_labeled]
    return (
        pretrain_docs,
        query_log,
        build(n_finetune, "tune"),
        build(n_heldout, "held"),
    )


def full_scale_config():
    """The full-size configuration: 512 filters, 8 heads, 256-dim positions."""
    return ModelConfig(
        filters=512,
        heads=8,
        embedding=EmbeddingConfig(token_dim=1024, position_dim=256, source="frozen"),
    )
