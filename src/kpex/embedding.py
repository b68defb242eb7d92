"""Hybrid word embeddings: contextual + sinusoidal position + visual.

Each token i embeds as the concatenation h_i ++ pos_i ++ v_i, where h_i comes
from a contextual source (a trainable lookup table, or frozen per-document
vectors loaded from a sidecar file), pos_i is the fixed sinusoidal position
code, and v_i is the 18-float visual row. Ablations zero the position or
visual slice in place, keeping every parameter shape unchanged.
"""

from __future__ import annotations

from collections import Counter

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


class TrainableLookup:
    """Contextual-embedding stand-in: a trainable per-type lookup table."""

    def __init__(self, vocab, table):
        self.vocab = vocab
        self.table = table  # (len(vocab), token_dim) parameter Tensor

    def vectors_for(self, doc, columns):
        return embedding_lookup(self.table, self.vocab.ids(doc.tokens), columns)


class FrozenVectors:
    """Per-document frozen contextual vectors from a sidecar JSONL file.

    Each line is {"id": str, "vectors": [[finite floats]...]} aligned with
    the document's untruncated token sequence; rows beyond the (possibly
    truncated) document length are dropped. Lines follow the
    ``read_records`` contract, so ids are unique.
    """

    def __init__(self, by_id, token_dim):
        self._by_id = by_id
        self.token_dim = token_dim

    @classmethod
    def load(cls, path, token_dim):
        by_id = {}
        for where, obj in read_records(path, "id", "vectors"):
            doc_id = str(obj["id"])
            by_id[doc_id] = float_rows(obj["vectors"], "vectors", token_dim,
                                       f"{where}: document {doc_id!r}")
        return cls(by_id, token_dim)

    def vectors_for(self, doc, columns):
        if doc.source_id not in self._by_id:
            raise KeyError(f"no frozen vectors for document {doc.source_id!r}")
        arr = self._by_id[doc.source_id]
        lo, hi = doc.token_offset, doc.token_offset + len(doc)
        if arr.shape[0] < hi:
            raise DatasetError(
                f"document {doc.id!r}: {arr.shape[0]} frozen vectors cover "
                f"fewer than {hi} tokens"
            )
        return Tensor(np.concatenate([arr[lo:hi], *columns], axis=1))


def embed_document(doc, config, source, no_position=False, no_visual=False):
    """The (n, width) hybrid embedding matrix as one graph Tensor.

    The source builds it, putting its vectors before the position and visual
    columns. ``no_position`` / ``no_visual`` zero their slice, so ablated
    models keep identical parameter shapes and widths.
    """
    n = len(doc)
    if no_position:
        pos = np.zeros((n, config.position_dim))
    else:
        pos = position_matrix(n, config.position_dim)
    vis = np.zeros((n, config.visual_dim)) if no_visual else doc.visual
    x = source.vectors_for(doc, (pos, vis))
    if x.shape != (n, config.width):
        raise ValueError(f"embedding has shape {x.shape}, expected ({n}, {config.width})")
    return x
