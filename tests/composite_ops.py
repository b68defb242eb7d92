"""Composite autodiff ops kept as oracles for the fused ones in ``kpex.autodiff``.

``softmax``, ``transpose`` and ``power`` are the tape ops the library had
before ``layer_norm`` and the attention core became single fused nodes.
``linear``, ``layer_norm`` and ``multi_head_self_attention`` below build the
fused ops from the small ones, as the library used to, so tests can compare
the fused values (bitwise) and gradients (within rounding) against them.
"""

import math

import numpy as np

from kpex.autodiff import (
    _as_tensor,
    _make,
    dropout,
    matmul,
    reduce_sum,
    relu as relu_op,
    reshape,
)


def power(a, exponent):
    """Elementwise a**exponent for a constant (non-tensor) exponent."""
    a = _as_tensor(a)
    e = float(exponent)
    data = a.data**e

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * e * a.data ** (e - 1.0))

    return _make(data, (a,), backward_fn)


def transpose(a, axes):
    a = _as_tensor(a)
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _make(data, (a,), backward_fn)


def softmax(a, axis=-1):
    """Numerically stable softmax along one axis (fused backward)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate((g - inner) * data)

    return _make(data, (a,), backward_fn)


def linear(x, weight, bias, relu=False):
    """Dense layer as matmul, add and (with ``relu``) relu nodes."""
    out = matmul(x, weight) + bias
    return relu_op(out) if relu else out


def layer_norm(x, scale, shift, eps=1e-5):
    """Normalize the last axis to zero mean and unit variance, then affine."""
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    d = x.data.shape[-1]
    mean = reduce_sum(x, axis=-1, keepdims=True) * (1.0 / d)
    centered = x - mean
    var = reduce_sum(centered * centered, axis=-1, keepdims=True) * (1.0 / d)
    inv = power(var + eps, -0.5)
    return centered * inv * scale + shift


def attention_core(q, k, v, heads):
    """Head split, scaled scores, softmax, weighted sum and head merge."""
    n, d = q.shape
    dh = d // heads

    def split(t):
        return transpose(reshape(t, (n, heads, dh)), (1, 0, 2))

    q, k, v = split(q), split(k), split(v)
    logits = matmul(q, transpose(k, (0, 2, 1))) * (1.0 / math.sqrt(dh))
    weights = softmax(logits, axis=-1)
    return reshape(transpose(matmul(weights, v), (1, 0, 2)), (n, d))


def multi_head_self_attention(
    x, heads, wq, bq, wk, bk, wv, bv, wo, bo, scale, shift,
    dropout_p=0.0, rng=None, train=False,
):
    """Self-attention sublayer: layer_norm(x + dropout(proj(attend(x))))."""
    x = _as_tensor(x)
    q = matmul(x, wq) + bq
    k = matmul(x, wk) + bk
    v = matmul(x, wv) + bv
    projected = matmul(attention_core(q, k, v, heads), wo) + bo
    projected = dropout(projected, dropout_p, rng=rng, train=train)
    return layer_norm(x + projected, scale, shift)
