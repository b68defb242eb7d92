"""Composite autodiff ops kept as oracles for the fused ones in ``kpex.autodiff``.

``add``, ``mul``, ``matmul`` and ``reduce_sum`` are the generic tape ops the
library no longer needs; ``Tensor`` has no operator methods, so tests call them
by name for ``+``, ``*``, ``@`` and ``.sum()``. ``softmax``, ``transpose``,
``power``, ``relu``, ``sliding_windows``, ``dropout``, ``reshape``, the
axis-wise ``concat`` and the table-only ``embedding_lookup`` are the ops the
library had before its fused nodes. ``linear``, ``conv1d``, ``layer_norm``,
``residual_layer_norm`` and ``multi_head_self_attention`` build the fused ops
from the small ones, as the library used to, so tests can compare the fused
values (bitwise) and gradients (within rounding) against them.
``tape_arrays`` lists what a tape keeps alive, and ``depth_first_backward`` is
the walk ``Tensor.backward`` made before it walked in creation order.
"""

import math

import numpy as np

from kpex.autodiff import Tensor, _as_tensor, _make


def _unbroadcast(g, shape):
    """Sum a gradient over the axes numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward_fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward_fn)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects operands with at least 2 dimensions")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward_fn)


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward_fn)


def reshape(a, shape):
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), backward_fn)


def concat(tensors, axis=0):
    """Join tensors along ``axis``; the library's ``concat`` ravels and joins."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tuple(tensors), backward_fn)


def embedding_lookup(table, ids):
    """Gather rows of a (v, e) table by integer id; backward scatter-adds."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    data = table.data[ids]

    def backward_fn(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table._accumulate(gt)

    return _make(data, (table,), backward_fn)


def embed_document(doc, config, table=None, vocab=None, no_position=False, no_visual=False):
    """The hybrid embedding as lookup, position and visual tensors and an axis-1 concat.

    A trainable source looks tokens up in ``table``; a frozen one reads ``doc.vectors``.
    """
    from kpex.embedding import position_matrix

    n = len(doc)
    if config.source == "trainable":
        h = embedding_lookup(table, vocab.ids(doc.tokens))
    else:
        h = Tensor(doc.vectors)
    pos = np.zeros((n, config.position_dim)) if no_position else position_matrix(
        n, config.position_dim)
    vis = np.zeros_like(doc.visual) if no_visual else doc.visual
    return concat([h, Tensor(pos), Tensor(vis)], axis=1)


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


def relu(a):
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))

    return _make(data, (a,), backward_fn)


relu_op = relu  # linear's ``relu`` flag shadows the op's name


def sliding_windows(a, k):
    """Stack the k-token windows of an (n, d) sequence into (n-k+1, k*d) rows.

    Row j is the concatenation of rows j..j+k-1 of the input, which is the
    im2col layout a width-k convolution consumes.
    """
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError("sliding_windows expects an (n, d) sequence")
    n, d = a.data.shape
    k = int(k)
    if k < 1:
        raise ValueError("window width must be at least 1")
    if k > n:
        raise ValueError(f"window width {k} exceeds sequence length {n}")
    view = np.lib.stride_tricks.sliding_window_view(a.data, (k, d))
    data = view.reshape(n - k + 1, k * d).copy()

    def backward_fn(g):
        if not a.requires_grad:
            return
        gr = g.reshape(n - k + 1, k, d)
        ga = np.zeros_like(a.data)
        for offset in range(k):
            ga[offset : offset + n - k + 1] += gr[:, offset, :]
        a._accumulate(ga)

    return _make(data, (a,), backward_fn)


def dropout(a, p, rng=None, train=False):
    """Inverted dropout: training scales kept units by 1/(1-p)."""
    a = _as_tensor(a)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not train or p == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(a.data.shape) >= p
    data = a.data * (keep * (1.0 / (1.0 - p)))

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * (keep * (1.0 / (1.0 - p))))

    return _make(data, (a,), backward_fn)


def linear(x, weight, bias, relu=False, dropout_p=0.0, rng=None, train=False):
    """Dense layer as matmul, add, (with ``relu``) relu and dropout nodes."""
    out = add(matmul(x, weight), bias)
    if relu:
        out = relu_op(out)
    return dropout(out, dropout_p, rng=rng, train=train)


def conv1d(x, weight, bias, dropout_p=0.0, rng=None, train=False):
    """ReLU'd width-k convolution as window, matmul, add, relu and dropout nodes."""
    k = weight.shape[0] // x.shape[1]
    return linear(sliding_windows(x, k), weight, bias, relu=True,
                  dropout_p=dropout_p, rng=rng, train=train)


def layer_norm(x, scale, shift, eps=1e-5, residual=None):
    """Normalize the last axis of ``x`` (plus ``residual``), then affine."""
    if residual is not None:
        x = add(x, residual)
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    d = x.data.shape[-1]
    mean = mul(reduce_sum(x, axis=-1, keepdims=True), 1.0 / d)
    centered = add(x, mul(mean, -1.0))
    var = mul(reduce_sum(mul(centered, centered), axis=-1, keepdims=True), 1.0 / d)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), scale), shift)


def residual_layer_norm(x, h, weight, bias, scale, shift,
                        dropout_p=0.0, rng=None, train=False):
    """layer_norm(x + dropout(h @ weight + bias)) as linear, dropout, add and layer_norm nodes."""
    projected = linear(h, weight, bias, dropout_p=dropout_p, rng=rng, train=train)
    return layer_norm(add(x, projected), scale, shift)


def attention_core(q, k, v, heads):
    """Head split, scaled scores, softmax, weighted sum and head merge."""
    n, d = q.shape
    dh = d // heads

    def split(t):
        return transpose(reshape(t, (n, heads, dh)), (1, 0, 2))

    q, k, v = split(q), split(k), split(v)
    logits = mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    weights = softmax(logits, axis=-1)
    return reshape(transpose(matmul(weights, v), (1, 0, 2)), (n, d))


def multi_head_self_attention(
    x, heads, wq, bq, wk, bk, wv, bv, wo, bo, scale, shift,
    dropout_p=0.0, rng=None, train=False,
):
    """Self-attention sublayer: layer_norm(x + dropout(proj(attend(x))))."""
    x = _as_tensor(x)
    q = add(matmul(x, wq), bq)
    k = add(matmul(x, wk), bk)
    v = add(matmul(x, wv), bv)
    return residual_layer_norm(x, attention_core(q, k, v, heads), wo, bo, scale, shift,
                               dropout_p=dropout_p, rng=rng, train=train)


def tape_arrays(root):
    """Every ndarray the tape under ``root`` keeps alive.

    Walks tensor parents and the cells of each backward closure, including
    closures of the functions those cells hold.
    """
    arrays, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
            stack.extend(obj._parents)
            stack.append(obj._backward_fn)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return arrays


def depth_first_backward(root, seed=1.0):
    """``root.backward(seed)`` as a depth-first walk of the tape.

    Post-order puts parents first, so popping the order walks children first.
    A parameter that several nodes feed sums its gradients in walk order, so
    this walk is the oracle that a different walk must match bit for bit.
    """
    order, seen = [], {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    root._accumulate(np.full_like(root.data, seed))
    while order:
        node = order.pop()
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
        if node._parents:
            node.grad = None
            node._parents = ()
