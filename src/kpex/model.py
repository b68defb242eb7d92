"""Span classification model over n-gram candidates.

Every candidate span (start i, length k <= K) becomes one logit: a width-k
convolution bank turns the token embeddings into k-gram representations, a
single transformer encoder (its parameters shared across all k) contextualizes
each k-gram sequence, and a shared feedforward scorer maps each position to a
scalar. One joint softmax over every (i, k) pair yields the span distribution,
so location and length compete in the same normalization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .config import VISUAL_DIM, ModelConfig
from .documents import enumerate_spans
from .embedding import TokenVocabulary, embed_document
from .registry import (
    CheckpointError,
    check_arrays,
    load_checkpoint,
    save_checkpoint,
    xavier_uniform,
)


@dataclass(frozen=True, eq=False)
class SpanDistribution:
    """Softmax output: the enumerate_spans rows and their probabilities, one per row."""

    spans: np.ndarray
    probs: np.ndarray


def score_spans(logits, mask=None):
    """Joint softmax over all candidate logits: ``(probs, mask)``, mask as given.

    ``mask`` marks scorable spans with True; masked spans get exactly
    probability 0 (they are excluded from the normalization, not just given
    tiny weight). All-masked input, or a NaN or +inf logit, is an error.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != logits.shape:
            raise ValueError("mask shape does not match logits")
        if not mask.any():
            raise ValueError("every candidate span is masked")
        logits = np.where(mask, logits, -np.inf)  # exp(-inf) is exactly 0
    top = logits.max()
    if not np.isfinite(top):
        raise ValueError("non-finite span logits")
    shifted = np.exp(logits - top)
    return shifted / shifted.sum(), mask


def _normal(rng, shape):
    return rng.normal(0.0, 0.1, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _parameter_layout(config, n_tokens=0):
    """(name, shape, init) of every parameter, in registry and draw order.

    ``init(rng, shape)`` draws the initial value; ``n_tokens`` is the
    vocabulary size, used only by trainable embeddings.
    """
    emb = config.embedding
    layout = []
    if emb.source == "trainable":
        layout.append(("embedding/tokens", (n_tokens, emb.token_dim), _normal))
    d_in = emb.width
    f = config.filters
    for k in range(1, config.max_span_length + 1):
        layout.append((f"cnn/k{k}/weight", (k * d_in, f), xavier_uniform))
        layout.append((f"cnn/k{k}/bias", (f,), _zeros))
    for layer in range(config.layers):
        base = f"transformer/layer{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            layout.append((f"{base}/attention/{name}", (f, f), xavier_uniform))
        for name in ("bq", "bk", "bv", "bo"):
            layout.append((f"{base}/attention/{name}", (f,), _zeros))
        layout.append((f"{base}/attention_norm/scale", (f,), _ones))
        layout.append((f"{base}/attention_norm/shift", (f,), _zeros))
        layout.append((f"{base}/ffn/w1", (f, f), xavier_uniform))
        layout.append((f"{base}/ffn/b1", (f,), _zeros))
        layout.append((f"{base}/ffn/w2", (f, f), xavier_uniform))
        layout.append((f"{base}/ffn/b2", (f,), _zeros))
        layout.append((f"{base}/ffn_norm/scale", (f,), _ones))
        layout.append((f"{base}/ffn_norm/shift", (f,), _zeros))
    layout.append(("scorer/w1", (f, f), xavier_uniform))
    layout.append(("scorer/b1", (f,), _zeros))
    layout.append(("scorer/w2", (f, f), xavier_uniform))
    layout.append(("scorer/b2", (f,), _zeros))
    layout.append(("scorer/w3", (f, 1), xavier_uniform))
    layout.append(("scorer/b3", (1,), _zeros))
    return layout


class SpanScorer:
    """The end-to-end span classifier; ``registry`` maps each parameter name to its Tensor."""

    def __init__(self, config, vocab=None, seed=0, arrays=None):
        """Parameters drawn from ``seed``, or taken from ``arrays``.

        ``arrays`` maps each parameter name to its value, as load_checkpoint
        returns them; the model keeps those arrays and draws nothing.
        """
        self.config = config
        self.vocab = vocab
        if config.embedding.source == "trainable" and vocab is None:
            raise ValueError("trainable embeddings need a vocabulary")
        layout = _parameter_layout(config, len(vocab) if vocab is not None else 0)
        if arrays is None:
            rng = np.random.default_rng(seed)
            arrays = {name: init(rng, shape) for name, shape, init in layout}
        else:
            check_arrays({name: shape for name, shape, _ in layout}, arrays)
        self.registry = {
            name: ad.Tensor(np.asarray(arrays[name], dtype=np.float64), requires_grad=True)
            for name, _, _ in layout
        }

    # -- forward --------------------------------------------------------

    def _transformer(self, x, train, rng):
        p = self.registry
        cfg = self.config
        for layer in range(cfg.layers):
            base = f"transformer/layer{layer}"
            x = ad.multi_head_self_attention(
                x,
                cfg.heads,
                p[f"{base}/attention/wq"],
                p[f"{base}/attention/bq"],
                p[f"{base}/attention/wk"],
                p[f"{base}/attention/bk"],
                p[f"{base}/attention/wv"],
                p[f"{base}/attention/bv"],
                p[f"{base}/attention/wo"],
                p[f"{base}/attention/bo"],
                p[f"{base}/attention_norm/scale"],
                p[f"{base}/attention_norm/shift"],
                dropout_p=cfg.dropout,
                rng=rng,
                train=train,
            )
            hidden = ad.linear(x, p[f"{base}/ffn/w1"], p[f"{base}/ffn/b1"], relu=True,
                               dropout_p=cfg.dropout, rng=rng, train=train)
            x = ad.residual_layer_norm(
                x,
                hidden,
                p[f"{base}/ffn/w2"],
                p[f"{base}/ffn/b2"],
                p[f"{base}/ffn_norm/scale"],
                p[f"{base}/ffn_norm/shift"],
            )
        return x

    def _scorer(self, x, train, rng):
        p = self.registry
        cfg = self.config
        drop = dict(dropout_p=cfg.dropout, rng=rng, train=train)
        h = ad.linear(x, p["scorer/w1"], p["scorer/b1"], relu=True, **drop)
        h = ad.linear(h, p["scorer/w2"], p["scorer/b2"], relu=True, **drop)
        return ad.linear(h, p["scorer/w3"], p["scorer/b3"])

    def forward(self, doc, train=False, rng=None):
        """Logits Tensor of shape (M,): logit i scores row i of enumerate_spans.

        Documents shorter than K simply have no length-k candidates for k > n.
        """
        cfg = self.config
        n = len(doc)
        emb = cfg.embedding
        table = self.registry["embedding/tokens"] if emb.source == "trainable" else None
        x = embed_document(doc, emb, table, self.vocab,
                           no_position=cfg.no_position, no_visual=cfg.no_visual)
        # the one finiteness check; load_checkpoint refuses non-finite parameters
        if not np.isfinite(x.data).all():
            raise ValueError("non-finite values entering conv1d")
        columns = []
        for k in range(1, min(cfg.max_span_length, n) + 1):
            grams = ad.conv1d(x, self.registry[f"cnn/k{k}/weight"],
                              self.registry[f"cnn/k{k}/bias"],
                              dropout_p=cfg.dropout, rng=rng, train=train)
            grams = self._transformer(grams, train, rng)
            columns.append(self._scorer(grams, train, rng))
        return ad.concat(columns)

    def distribution(self, doc):
        """Inference-mode probabilities of every candidate span (no tape, no dropout)."""
        with ad.no_grad():
            logits = self.forward(doc, train=False)
        probs, _ = score_spans(logits.data)
        spans = enumerate_spans(len(doc), self.config.max_span_length)
        return SpanDistribution(spans, probs)

    # -- persistence ----------------------------------------------------

    def save(self, path, extra_metadata=None):
        meta = {
            "format": "span-scorer",
            "config": asdict(self.config),
            "vocab": self.vocab.to_list() if self.vocab is not None else None,
        }
        if extra_metadata:
            meta.update(extra_metadata)
        save_checkpoint(path, self.registry, meta)

    @classmethod
    def load(cls, path):
        """The model at ``path`` and its metadata; documents bring any frozen vectors."""
        meta, arrays = load_checkpoint(path)
        config = dict(meta["config"])
        if config.pop("no_transformer", False):  # legacy spelling of layers=0
            config["layers"] = 0
            arrays = {n: a for n, a in arrays.items() if not n.startswith("transformer/")}
        # older checkpoints record the visual width, which is fixed
        config["embedding"] = dict(config["embedding"])
        visual_dim = config["embedding"].pop("visual_dim", VISUAL_DIM)
        if visual_dim != VISUAL_DIM:
            raise CheckpointError(f"{path}: visual_dim {visual_dim!r} is not {VISUAL_DIM}")
        config = ModelConfig.from_dict(config)
        vocab = (
            TokenVocabulary.from_list(meta["vocab"])
            if meta.get("vocab") is not None
            else None
        )
        model = cls(config, vocab=vocab, arrays=arrays)
        return model, meta
