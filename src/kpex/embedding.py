"""Hybrid word embeddings: contextual + sinusoidal position + visual.

Each token i embeds as the concatenation h_i ++ pos_i ++ v_i, where h_i comes
from a contextual source (a trainable lookup table, or the document's frozen
vector row, which ``attach_vectors`` reads from a sidecar file), pos_i is the
fixed sinusoidal position code, and v_i is the 18-float visual row.
Ablations zero the position or visual slice in place, keeping every
parameter shape unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np

from .autodiff import Tensor, embedding_lookup
from .documents import float_rows
from .fileio import DatasetError, read_records

UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"


def position_matrix(n_tokens, dims):
    p = np.arange(dims // 2)
    positions = np.arange(n_tokens)[:, None]
    angles = positions / np.power(10000.0, 2.0 * p / dims)[None, :]
    mat = np.empty((n_tokens, dims))
    mat[:, 0::2] = np.sin(angles)
    mat[:, 1::2] = np.cos(angles)
    return mat


class TokenVocabulary:
    """Frequency-thresholded token -> id map with reserved unk and mask ids."""

    def __init__(self, tokens):
        reserved = (UNK_TOKEN, MASK_TOKEN)
        for r in reserved:
            if r in tokens:
                raise ValueError(f"reserved token {r!r} in vocabulary input")
        self._tokens = reserved + tuple(tokens)
        self._index = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ValueError("duplicate tokens in vocabulary input")

    @classmethod
    def build(cls, documents, min_count=2):
        """Count tokens across documents; keep those seen >= min_count times."""
        counts = Counter()
        for doc in documents:
            counts.update(doc.tokens)
        kept = sorted(t for t, c in counts.items() if c >= min_count)
        return cls(kept)

    def __len__(self):
        return len(self._tokens)

    def lookup(self, token):
        return self._index.get(token, 0)

    def ids(self, tokens):
        return np.array([self.lookup(t) for t in tokens], dtype=np.int64)

    def to_list(self):
        return list(self._tokens[2:])

    @classmethod
    def from_list(cls, tokens):
        return cls(tuple(tokens))


def attach_vectors(docs, path, token_dim):
    """``docs`` with their frozen contextual vectors from a sidecar JSONL file.

    Each line is {"id": str, "vectors": [[finite floats]...]}, at least one
    ``token_dim``-wide row per token of the document. Lines follow the
    ``read_records`` contract, and every line is checked at ``path:lineno``,
    used or not. A document gets its first ``len(doc)`` rows; one with no
    line, or with fewer rows than tokens, raises DatasetError.
    """
    found = {}
    for where, obj in read_records(path, "id", "vectors"):
        doc_id = str(obj["id"])
        where = f"{where}: document {doc_id!r}"
        found[doc_id] = where, float_rows(obj["vectors"], "vectors", token_dim, where)
    attached = []
    for doc in docs:
        if doc.id not in found:
            raise DatasetError(f"{path}: no vectors for document {doc.id!r}")
        where, rows = found[doc.id]
        if len(rows) < len(doc):
            raise DatasetError(f"{where}: {len(rows)} vectors for {len(doc)} tokens")
        attached.append(replace(doc, vectors=rows[: len(doc)]))
    return attached


def embed_document(doc, config, table=None, vocab=None, no_position=False,
                   no_visual=False):
    """The (n, width) hybrid embedding matrix as one graph Tensor.

    A trainable source looks the tokens up in ``table`` through ``vocab``; a
    frozen one takes ``doc.vectors``. Those rows come before the position and
    visual columns. ``no_position`` / ``no_visual`` zero their slice, so
    ablated models keep identical parameter shapes and widths.
    """
    n = len(doc)
    if no_position:
        pos = np.zeros((n, config.position_dim))
    else:
        pos = position_matrix(n, config.position_dim)
    vis = np.zeros_like(doc.visual) if no_visual else doc.visual
    if config.source == "trainable":
        x = embedding_lookup(table, vocab.ids(doc.tokens), (pos, vis))
    elif doc.vectors is None:
        raise ValueError(f"document {doc.id!r} has no frozen vectors")
    else:
        x = Tensor(np.concatenate([doc.vectors, pos, vis], axis=1))
    if x.shape != (n, config.width):
        raise ValueError(f"embedding has shape {x.shape}, expected ({n}, {config.width})")
    return x
