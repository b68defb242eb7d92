"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied to it
on a tape. Calling ``backward()`` on a scalar result walks the tape's nodes in
the reverse of the order they were recorded in and accumulates gradients into
every tensor that requires them. The op set is just what the span classifier
calls, one node per layer: ``embedding_lookup``, a document's whole embedding;
``concat``, which ravels its operands into one 1-d array; and five fused ops
with closed-form backwards: the dense layer ``linear`` and the ReLU'd windowed
convolution ``conv1d``, both with optional inverted dropout on their output;
``residual_layer_norm``, a residual sublayer's output projection, dropout,
residual sum and layer norm in one node; the attention core, whose backward
runs one head at a time; and softmax cross-entropy. There is no operator sugar
on ``Tensor``; the generic ops the tests build composite oracles from live in
``tests/composite_ops.py``. ``backward()`` releases the tape as it walks it.
No op but the loss scans for NaN or inf: ``SpanScorer.forward`` checks the
embedding once, and checkpoints with a non-finite parameter are refused.

float64 is the default dtype so finite-difference checks stay meaningful.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "linear",
    "conv1d",
    "embedding_lookup",
    "residual_layer_norm",
    "attention_core",
    "multi_head_self_attention",
    "softmax_cross_entropy",
]

_grad_enabled = True
_creation = itertools.count()  # numbers interior nodes in the order _make records them


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording inside its block."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A node in the computation graph backed by a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accumulate(self, g):
        """Add ``g`` into this tensor's gradient.

        The first write stores ``g`` itself, not a copy, so gradients may
        alias: ``residual_layer_norm`` hands ``x`` the array it goes on to
        backpropagate through its projection, and ``concat`` each operand a
        view of its own gradient. That is safe because a later write rebinds
        ``grad`` to a new sum, and nothing in ``src/`` writes ``.grad`` in
        place; code that does must copy first.
        """
        if self.grad is None:
            # np.require(g, requirements="C") without its Python overhead
            self.grad = g if g.flags.c_contiguous else g.copy()
        else:
            self.grad = self.grad + g

    def backward(self, seed=1.0):
        """Backpropagate ``seed`` from a scalar tensor through the recorded tape.

        The gradients are those of ``seed`` times this tensor; ``seed`` is the
        starting gradient, so no tape node is needed to scale a loss.

        The walk runs nodes latest-recorded first, by the number ``_make``
        gives each: every consumer of a node was recorded after it, so each
        node passes its gradient on only once all of it has arrived. The tape
        is released as the walk goes: once an interior node (one with parents)
        has passed its gradient on, it drops that gradient, its parents and
        its backward closure, so what only that node's backward needed can be
        freed. Leaves keep their gradients. A second backward through a
        released node raises RuntimeError.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        self._accumulate(np.full_like(self.data, seed))
        if self._backward_fn is None:
            return
        nodes, stack = {self._seq: self}, [self]
        while stack:
            for p in stack.pop()._parents:
                if p._backward_fn is not None and p._seq not in nodes:
                    nodes[p._seq] = p
                    stack.append(p)
        for seq in sorted(nodes, reverse=True):
            node = nodes.pop(seq)
            if node.grad is not None:
                node._backward_fn(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward_fn = _released


def _released(g):
    raise RuntimeError(
        "backward through a tape that an earlier backward() already released"
    )


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """Build an op result; skips tape recording when no parent needs grads."""
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward_fn = backward_fn
                out._seq = next(_creation)
                break
    return out


def _dropout(data, p, rng, train):
    """Inverted dropout on ``data`` in place; returns the keep flags, or None.

    Training scales kept units by 1/(1-p). Only the 1-byte keep flags are
    kept; ``keep * (1 / (1 - p))`` rebuilds the float64 mask, the same bytes
    as ``keep / (1 - p)`` and cheaper.
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.random(data.shape) >= p
    data *= keep * (1.0 / (1.0 - p))
    return keep


def _dropout_relu_backward(g, data, keep, p, relu):
    """Gradient through dropout, then through the ReLU that preceded it.

    The ReLU mask is read from the post-dropout output: a dropped unit's
    gradient is already ±0, and masking it again keeps that sign bit.
    """
    if keep is not None:
        g = g * (keep * (1.0 / (1.0 - p)))
    if relu:
        g = g * (data > 0.0)
    return g


def linear(x, weight, bias, relu=False, dropout_p=0.0, rng=None, train=False):
    """Dense layer ``x @ weight + bias`` over (n, d) rows, then ReLU when ``relu`` is set.

    In training with ``dropout_p`` > 0 it then applies inverted dropout to
    its own output, drawing the mask from ``rng``. One tape node and one
    array for what the composite op in ``tests/composite_ops.py`` builds from
    ``matmul``, ``add``, ``relu`` and ``dropout``; the in-place steps round as
    their out-of-place forms do, so the values are bitwise equal to it.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim != 2:
        raise ValueError("linear expects (n, d) input")
    data = x.data @ weight.data
    data += bias.data
    if relu:
        np.maximum(data, 0.0, out=data)
    keep = _dropout(data, dropout_p, rng, train)

    def backward_fn(g):
        g = _dropout_relu_backward(g, data, keep, dropout_p, relu)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)

    return _make(data, (x, weight, bias), backward_fn)


def concat(tensors):
    """Every tensor raveled and joined end to end: one 1-d node, the model's logits."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=None)
    offsets = np.cumsum([t.data.size for t in tensors])[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, offsets)):
            if t.requires_grad:
                t._accumulate(piece.reshape(t.data.shape))

    return _make(data, tuple(tensors), backward_fn)


def conv1d(x, weight, bias, dropout_p=0.0, rng=None, train=False):
    """ReLU'd width-k convolution over an (n, d) sequence.

    ``weight`` has shape (k*d, f); k is inferred from the input width. Output
    row j is the ReLU'd score of the k-gram starting at token j, shape
    (n-k+1, f), with inverted dropout applied as ``linear`` applies it. One
    tape node that keeps only its operands, output and keep flags: the
    forward runs ``linear(relu=True)`` on the (n-k+1, k*d) window copy (the
    im2col layout, row j the concatenation of rows j..j+k-1) and drops that
    copy; the backward writes the weight gradient one d-row block per window
    offset, so it needs no copy. The caller checks that ``x`` is finite.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    n, d = x.data.shape
    kd, f = weight.data.shape
    k = kd // d
    if k > n:
        raise ValueError(f"window width {k} exceeds sequence length {n}")
    rows = n - k + 1
    # one strided copy: k*d values read on from row j of a C-contiguous x are
    # rows j..j+k-1 (the ndarray constructor makes as_strided's view, faster)
    xc = np.ascontiguousarray(x.data)
    windows = np.ndarray((rows, kd), xc.dtype, xc, 0, xc.strides).copy()
    data = windows @ weight.data
    del windows  # freed before the dropout draw allocates
    data += bias.data
    np.maximum(data, 0.0, out=data)
    keep = _dropout(data, dropout_p, rng, train)

    def backward_fn(g):
        g = _dropout_relu_backward(g, data, keep, dropout_p, True)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            # fold each window row's gradient back onto its k tokens
            gr = (g @ weight.data.T).reshape(rows, k, d)
            gx = np.zeros_like(x.data)
            for offset in range(k):
                gx[offset : offset + rows] += gr[:, offset, :]
            x._accumulate(gx)
        if weight.requires_grad:
            # block o of windows.T @ g is x[o:o+rows].T @ g, and BLAS gives
            # the same bytes for it (tests/test_autodiff.py checks)
            gw = np.empty_like(weight.data)
            for o in range(k):
                np.matmul(x.data[o : o + rows].T, g, out=gw[o * d : (o + 1) * d])
            weight._accumulate(gw)

    return _make(data, (x, weight, bias), backward_fn)


def embedding_lookup(table, ids, columns):
    """One (n, e + c) node: table rows by id, then the fixed (n, c_i) arrays ``columns``."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError("embedding id out of range")
    e = table.data.shape[1]
    data = np.concatenate([table.data[ids], *columns], axis=1)

    def backward_fn(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g[:, :e])
            table._accumulate(gt)

    return _make(data, (table,), backward_fn)


def residual_layer_norm(x, h, weight, bias, scale, shift, dropout_p=0.0, rng=None,
                        train=False):
    """Residual sublayer output ``layer_norm(x + dropout(h @ weight + bias))`` over (n, d) rows.

    The projection and its inverted dropout run as ``linear`` runs them, then
    each row of the sum is normalized to zero mean and unit variance (with
    1e-5 added to the variance) and given the affine ``scale`` and ``shift``.
    One tape node that keeps only its operands, output, keep flags, the
    normalized rows and their inverse deviations: neither the projection nor
    the sum. The layer-norm backward is the closed form of Ba et al. 2016:
    with sum ``t``, ``normed = (t - mean) * inv`` and ``dn = g * scale``,
    ``dt = inv * (dn - mean(dn) - normed * mean(dn * normed))``. ``dt`` goes
    to ``x`` and, back through dropout, to the projection.
    """
    x, h, weight, bias = _as_tensor(x), _as_tensor(h), _as_tensor(weight), _as_tensor(bias)
    scale, shift = _as_tensor(scale), _as_tensor(shift)
    if x.ndim != 2 or h.ndim != 2:
        raise ValueError("residual_layer_norm expects (n, d) input")
    projected = h.data @ weight.data
    projected += bias.data
    keep = _dropout(projected, dropout_p, rng, train)
    normed = x.data + projected  # the sum ``t``, normalized in place below
    del projected
    d = normed.shape[-1]
    # the composite ops' expressions in their order (tests/composite_ops.py),
    # so the values are bitwise equal to them: t - mean is t + mean * -1.0, as
    # IEEE subtraction adds the negation, and each in-place step rounds
    # exactly as its out-of-place form does
    normed -= normed.sum(axis=-1, keepdims=True) * (1.0 / d)
    var = (normed * normed).sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = (var + 1e-5) ** -0.5
    normed *= inv
    data = normed * scale.data
    data += shift.data

    def backward_fn(g):
        if shift.requires_grad:
            shift._accumulate(g.sum(axis=0))
        if scale.requires_grad:
            scale._accumulate((g * normed).sum(axis=0))
        dn = g * scale.data
        # sum / d is the bytes np.mean gives for float64, without its wrapper
        dt = dn - dn.sum(axis=-1, keepdims=True) / d
        dt -= normed * ((dn * normed).sum(axis=-1, keepdims=True) / d)
        dt *= inv
        if x.requires_grad:
            x._accumulate(dt)
        g = _dropout_relu_backward(dt, None, keep, dropout_p, False)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if h.requires_grad:
            h._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(h.data.T @ g)

    return _make(data, (x, h, weight, bias, scale, shift), backward_fn)


def attention_core(q, k, v, heads):
    """Multi-head scaled dot-product attention over (n, d) projections.

    Splits q, k and v into ``heads`` heads of width dh = d / heads, weights
    each head's values by softmax(q k^T / sqrt(dh)) over the keys, and merges
    the heads back into an (n, d) context. One tape node with a closed-form
    backward; ``heads`` must divide d.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n, d = q.data.shape
    dh = d // heads

    def split(a):
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    # as in residual_layer_norm, the composite op's expressions in its order;
    # each in-place step rounds exactly as its out-of-place form does
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(dh)
    weights = qh @ kh.transpose(0, 2, 1)
    weights *= scale
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    data = merge(weights @ vh)

    def backward_fn(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(weights.transpose(0, 2, 1) @ gh))
        if q.requires_grad or k.requires_grad:
            # the softmax backward one head at a time, so the scores' gradient
            # is (n, n), not (heads, n, n); each head's products write straight
            # into the merged (n, d) layout, scaled only after the matmuls
            gq, gk = np.empty((n, d)), np.empty((n, d))
            gqh, gkh = split(gq), split(gk)
            for h in range(heads):
                gl = gh[h] @ vh[h].T
                gl -= (gl * weights[h]).sum(axis=-1, keepdims=True)
                gl *= weights[h]
                np.matmul(gl, kh[h], out=gqh[h])
                np.matmul(gl.T, qh[h], out=gkh[h])
            if q.requires_grad:
                gq *= scale
                q._accumulate(gq)
            if k.requires_grad:
                gk *= scale
                k._accumulate(gk)

    return _make(data, (q, k, v), backward_fn)


def multi_head_self_attention(x, heads, wq, bq, wk, bk, wv, bv, wo, bo, scale, shift,
                              dropout_p=0.0, rng=None, train=False):
    """Self-attention sublayer: layer_norm(x + dropout(proj(attend(x)))).

    The output projection, its dropout, the residual sum and the layer norm
    are one ``residual_layer_norm`` node. Each output row mixes value
    projections with softmax weights, so with the value and output
    projections zeroed the sublayer reduces to layer_norm(x).
    """
    x = _as_tensor(x)
    n, d = x.data.shape
    heads = int(heads)
    if heads < 1 or d % heads != 0:
        raise ValueError(f"model width {d} not divisible by {heads} heads")
    q = linear(x, wq, bq)
    k = linear(x, wk, bk)
    v = linear(x, wv, bv)
    return residual_layer_norm(x, attention_core(q, k, v, heads), wo, bo, scale, shift,
                               dropout_p=dropout_p, rng=rng, train=train)


def softmax_cross_entropy(logits, target):
    """Cross-entropy between softmax(logits) and a fixed target distribution.

    ``target`` is a plain array: entries must be non-negative and sum to 1
    within 1e-9. The gradient is softmax(logits) - target, computed in a
    single fused step via log-sum-exp so large logits cannot overflow.
    """
    logits = _as_tensor(logits)
    target = np.asarray(target, dtype=np.float64)
    if logits.data.shape != target.shape:
        raise ValueError(
            f"logits shape {logits.data.shape} != target shape {target.shape}"
        )
    if not np.isfinite(logits.data).all():
        raise ValueError("non-finite values entering softmax_cross_entropy")
    if (target < 0.0).any():
        raise ValueError("target distribution has negative entries")
    total = target.sum()
    if total == 0.0:
        raise ValueError("target distribution has zero mass")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"target distribution sums to {total!r}, not 1")
    m = logits.data.max()
    log_z = m + math.log(np.exp(logits.data - m).sum())
    data = np.asarray(log_z - float(target @ logits.data))

    def backward_fn(g):
        if logits.requires_grad:
            probs = np.exp(logits.data - log_z)
            logits._accumulate(g * (probs - target))

    return _make(data, (logits,), backward_fn)
