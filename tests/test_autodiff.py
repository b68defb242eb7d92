"""Finite-difference oracles and closed-form checks for every primitive."""

import ast
import glob
import os
import weakref

import numpy as np
import pytest

import composite_ops
from composite_ops import add, matmul, mul, reduce_sum
from kpex import autodiff as ad
from kpex.autodiff import Tensor

DROPOUT_PS = [0.05, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 0.7, 0.9, 0.99]


def numeric_grad(build, tensor, eps=1e-6):
    """Central-difference gradient of build() w.r.t. one tensor's data."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(build().data)
        flat[i] = orig - eps
        lo = float(build().data)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_grads(build, tensors, rtol=1e-5, atol=1e-7):
    for t in tensors:
        t.grad = None
    loss = build()
    loss.backward()
    for t in tensors:
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, numeric_grad(build, t), rtol=rtol, atol=atol)


class TestArithmetic:
    def test_add_mul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        np.testing.assert_array_equal(add(a, b).data, [[11, 22], [13, 24]])
        np.testing.assert_array_equal(mul(a, 2.0).data, [[2, 4], [6, 8]])
        np.testing.assert_array_equal(add(a, mul(b, -1.0)).data, [[-9, -18], [-7, -16]])

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_grads(lambda: reduce_sum(mul(add(a, b), b)), [a, b])

    def test_pow_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        check_grads(lambda: reduce_sum(composite_ops.power(x, -0.5)), [x])

    def test_matmul_2d(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        np.testing.assert_allclose(matmul(a, b).data, a.data @ b.data)
        check_grads(lambda: reduce_sum(matmul(a, b)), [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        check_grads(lambda: reduce_sum(matmul(a, b)), [a, b])

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


class TestShapeOps:
    def test_reshape_transpose_concat(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def build():
            ar = composite_ops.reshape(a, (3, 4))
            at = composite_ops.transpose(ar, (1, 0))  # 4x3
            cat = composite_ops.concat([ar, b], axis=0)  # 6x4
            flat = ad.concat([matmul(cat, at), b])  # 36 + 12
            return reduce_sum(mul(flat, flat))

        check_grads(build, [a, b])

    def test_concat_values(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(
            composite_ops.concat([a, b], axis=1).data, [[1, 3], [2, 4]]
        )
        # the library's concat ravels each operand, then joins them end to end
        np.testing.assert_array_equal(
            ad.concat([composite_ops.concat([a, b], axis=1), b]).data, [1, 3, 2, 4, 3, 4]
        )

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_grads(lambda: reduce_sum(mul(reduce_sum(a, axis=0, keepdims=True), a)), [a])


class TestRelu:
    def test_values_and_mask(self):
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        y = composite_ops.relu(x)
        np.testing.assert_array_equal(y.data, [[0, 0, 2]])
        reduce_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [[0, 0, 1]])

    def test_gradient(self):
        rng = np.random.default_rng(6)
        # keep values away from the kink where FD is one-sided
        x = Tensor(rng.normal(size=(4, 3)) + 0.2, requires_grad=True)
        x.data[np.abs(x.data) < 0.05] = 0.5
        check_grads(lambda: reduce_sum(mul(composite_ops.relu(x), x)), [x])


class TestSoftmax:
    def test_rows_normalize(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 9)) * 10.0)
        y = composite_ops.softmax(x, axis=-1)
        np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        a = composite_ops.softmax(Tensor(x)).data
        b = composite_ops.softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))
        check_grads(lambda: reduce_sum(mul(composite_ops.softmax(x, axis=-1), w)), [x])


class TestSlidingWindowsConv:
    def test_window_contents(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        w = composite_ops.sliding_windows(x, 2)
        assert w.shape == (3, 4)
        np.testing.assert_array_equal(w.data[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(w.data[2], [4, 5, 6, 7])

    def test_conv_output_shape(self):
        # n=10, k=3, F=8 filters -> 8 windows x 8 filters
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(10, 6)))
        w = Tensor(rng.normal(size=(18, 8)))
        b = Tensor(np.zeros(8))
        assert ad.conv1d(x, w, b).shape == (8, 8)

    def test_zero_filters_zero_output(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(7, 4)))
        out = ad.conv1d(x, Tensor(np.zeros((8, 3))), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.zeros((6, 3)))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        def build():
            y = ad.conv1d(x, w, b)
            return reduce_sum(mul(y, y))

        check_grads(build, [x, w, b])

    def test_window_longer_than_sequence(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="exceeds"):
            ad.conv1d(x, Tensor(np.zeros((15, 4))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_composite(self, k):
        rng = np.random.default_rng(50 + k)
        x = Tensor(rng.normal(size=(9, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(k * 7, 6)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(6,)) * 0.3, requires_grad=True)
        weights = rng.normal(size=(10 - k, 6))
        fused = _values_and_grads(lambda: ad.conv1d(x, w, b), weights, [x, w, b])
        composite = _values_and_grads(
            lambda: composite_ops.conv1d(x, w, b), weights, [x, w, b])
        assert (fused[0] == 0.0).any() and (fused[0] > 0.0).any()
        _assert_same_values_close_grads(fused, composite, tol=1e-12)

    def test_one_tape_node_without_window_copy(self):
        rng = np.random.default_rng(55)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        y = ad.conv1d(x, w, b)
        assert y._parents == (x, w, b)
        assert (4, 12) not in {a.shape for a in composite_ops.tape_arrays(y)}

    @pytest.mark.parametrize("p", DROPOUT_PS)
    def test_dropout_matches_composite(self, p):
        # values and gradients bitwise equal to window, matmul, add, relu, dropout
        rng = np.random.default_rng(60)
        x = Tensor(rng.normal(size=(9, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(21, 6)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(6,)) * 0.3, requires_grad=True)
        weights = rng.normal(size=(7, 6))

        def build(conv):
            return lambda: conv(x, w, b, dropout_p=p, rng=np.random.default_rng(61),
                                train=True)

        fused = _values_and_grads(build(ad.conv1d), weights, [x, w, b])
        composite = _values_and_grads(build(composite_ops.conv1d), weights, [x, w, b])
        _assert_bitwise(fused, composite)

    @pytest.mark.parametrize("n", [5, 16, 64, 256, 1088])
    def test_forward_matches_concat_window_copy(self, n):
        # conv1d copies its windows out of x's buffer in one strided copy; the
        # output bytes are those of the concatenated k row slices
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=(n, 114))
        for k in range(1, 6):
            w = rng.normal(size=(k * 114, 64)) * 0.05
            b = rng.normal(size=64) * 0.05
            windows = np.concatenate([x[o : o + n - k + 1] for o in range(k)], axis=1)
            expected = np.maximum(windows @ w + b, 0.0)
            assert ad.conv1d(x, w, b).data.tobytes() == expected.tobytes(), k

    @pytest.mark.parametrize("n", [5, 16, 64, 130, 192, 256, 300])
    def test_weight_gradient_blocks_match_windows(self, n):
        # conv1d writes windows.T @ g one d-row block per offset; the model's
        # widths (d=114, f=64) and the benchmark's page lengths
        rng = np.random.default_rng(n)
        x = Tensor(rng.normal(size=(n, 114)))
        for k in range(1, 6):
            w = Tensor(rng.normal(size=(k * 114, 64)) * 0.05, requires_grad=True)
            b = Tensor(np.zeros(64))
            y = ad.conv1d(x, w, b)
            upstream = rng.normal(size=y.shape)
            reduce_sum(mul(y, upstream)).backward()
            windows = composite_ops.sliding_windows(x, k).data
            expected = windows.T @ (upstream * (y.data > 0.0))
            assert w.grad.tobytes() == expected.tobytes(), k


def _identity_linear(x, p, rng=None, train=True):
    """``linear`` as a bare dropout: x @ I + 0 is exactly x.

    Its input gradient matches a bare dropout's except in the sign of zeros,
    which the identity matmul turns to +0.
    """
    d = x.shape[1]
    return ad.linear(x, np.eye(d), np.zeros(d), dropout_p=p, rng=rng, train=train)


class TestDropout:
    """Inverted dropout as ``linear`` and ``conv1d`` apply it to their output."""

    def test_identity_when_disabled(self):
        x = Tensor(np.random.default_rng(11).normal(size=(3, 3)))
        plain = _identity_linear(x, 0.0, train=False).data
        assert _identity_linear(x, 0.2, train=False).data.tobytes() == plain.tobytes()
        rng = np.random.default_rng(0)
        assert _identity_linear(x, 0.0, rng=rng).data.tobytes() == plain.tobytes()
        # p = 0 draws nothing, so the rest of the stream does not shift
        assert rng.random() == np.random.default_rng(0).random()

    def test_inverted_scaling(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.ones((200, 50)))
        y = _identity_linear(x, 0.2, rng=rng)
        values = np.unique(y.data)
        np.testing.assert_allclose(values, [0.0, 1.0 / 0.8])
        assert abs(y.data.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("p", DROPOUT_PS)
    def test_matches_float_mask_dropout(self, p):
        # the float64 keep / (1 - p) mask the tape used to store, as the oracle
        def float_mask_dropout(a, rng):
            mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
            out = Tensor(a.data * mask)
            return out, lambda g: g * mask

        data = np.random.default_rng(31).normal(size=(6, 5))
        upstream = np.random.default_rng(32).normal(size=(6, 5))
        expected, expected_backward = float_mask_dropout(
            Tensor(data.copy()), np.random.default_rng(33))
        # the steps linear and conv1d run after their product and ReLU
        out = data.copy()
        keep = ad._dropout(out, p, np.random.default_rng(33), True)
        assert out.tobytes() == expected.data.tobytes()
        grad = ad._dropout_relu_backward(upstream, out, keep, p, relu=False)
        assert grad.tobytes() == expected_backward(upstream).tobytes()
        # and so does the oracle op the tests keep
        x = Tensor(data.copy(), requires_grad=True)
        z = composite_ops.dropout(x, p, rng=np.random.default_rng(33), train=True)
        reduce_sum(mul(z, upstream)).backward()
        assert z.data.tobytes() == expected.data.tobytes()
        assert x.grad.tobytes() == expected_backward(upstream).tobytes()

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        y = _identity_linear(x, 0.5, rng=np.random.default_rng(13))
        reduce_sum(y).backward()
        np.testing.assert_array_equal((x.grad > 0), (y.data > 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            _identity_linear(Tensor(np.ones((1, 3))), 1.0)
        with pytest.raises(ValueError, match="rng"):
            _identity_linear(Tensor(np.ones((1, 3))), 0.5)

    def test_node_keeps_only_keep_flags(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        for y in (ad.linear(x, w, b, relu=True, dropout_p=0.3, rng=rng, train=True),
                  ad.conv1d(x, w, b, dropout_p=0.3, rng=rng, train=True)):
            assert y._parents == (x, w, b)
            own = {id(a) for a in (x.data, w.data, b.data, y.data)}
            extra = [a for a in composite_ops.tape_arrays(y) if id(a) not in own]
            assert [a.dtype for a in extra] == [np.bool_]


class TestEmbeddingLookup:
    def test_gather_and_scatter(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        columns = (np.array([[-1.0], [-3.0], [-5.0]]), np.array([[-2.0], [-4.0], [-6.0]]))
        out = ad.embedding_lookup(table, np.array([1, 1, 3]), columns)
        np.testing.assert_array_equal(out.data[0], [3, 4, 5, -1, -2])
        np.testing.assert_array_equal(out.data[:, 3:], np.hstack(columns))
        reduce_sum(out).backward()
        # duplicate ids accumulate; the fixed columns take no gradient
        np.testing.assert_array_equal(table.grad[1], [2, 2, 2])
        np.testing.assert_array_equal(table.grad[0], [0, 0, 0])

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, np.array([4]), (np.zeros((1, 2)),))
        with pytest.raises(ValueError):  # one row of columns per id
            ad.embedding_lookup(table, np.array([1, 2]), (np.zeros((1, 2)),))


def _plain_layer_norm(x, scale, shift):
    """The library's layer norm alone: ``residual_layer_norm`` over a zero projection.

    ``x + (0 @ 0 + 0)`` is ``x`` bit for bit unless ``x`` holds -0.0.
    """
    n, d = x.shape
    return ad.residual_layer_norm(x, np.zeros((n, d)), np.zeros((d, d)), np.zeros(d),
                                  scale, shift)


class TestLayerNorm:
    """The layer norm inside ``residual_layer_norm``, and the fused op itself."""

    def test_normalizes_rows(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(5, 8)) * 3.0 + 2.0)
        y = _plain_layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(y.data.std(axis=-1), np.ones(5), atol=1e-3)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(6,)), requires_grad=True)
        s = Tensor(rng.normal(size=(6,)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)))
        check_grads(lambda: reduce_sum(mul(_plain_layer_norm(x, g, s), w)), [x, g, s])

    def test_matches_composite(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(7, 6)) * 4.0 + 1.0, requires_grad=True)
        g = Tensor(rng.normal(size=(6,)), requires_grad=True)
        s = Tensor(rng.normal(size=(6,)), requires_grad=True)
        w = rng.normal(size=(7, 6))
        fused = _values_and_grads(lambda: _plain_layer_norm(x, g, s), w, [x, g, s])
        composite = _values_and_grads(
            lambda: composite_ops.layer_norm(x, g, s), w, [x, g, s]
        )
        _assert_same_values_close_grads(fused, composite)

    def test_one_tape_node(self):
        operands = self._residual_operands(np.random.default_rng(60))
        out = ad.residual_layer_norm(*operands)
        assert out._parents == operands

    @staticmethod
    def _residual_operands(rng, n=7, d=6):
        x = Tensor(rng.normal(size=(n, d)) * 4.0 + 1.0, requires_grad=True)
        h = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(d, d)), requires_grad=True)
        b = Tensor(rng.normal(size=(d,)), requires_grad=True)
        g = Tensor(rng.normal(size=(d,)), requires_grad=True)
        s = Tensor(rng.normal(size=(d,)), requires_grad=True)
        return x, h, w, b, g, s

    def test_residual_matches_composite(self):
        rng = np.random.default_rng(56)
        operands = self._residual_operands(rng)
        w = rng.normal(size=(7, 6))
        fused = _values_and_grads(lambda: ad.residual_layer_norm(*operands), w, operands)
        composite = _values_and_grads(
            lambda: composite_ops.residual_layer_norm(*operands), w, operands)
        _assert_same_values_close_grads(fused, composite)

    @pytest.mark.parametrize("p", DROPOUT_PS)
    def test_residual_dropout_matches_composite(self, p):
        # forward bytes of linear, dropout, add and layer_norm nodes; gradient
        # bytes of the same nodes with the library's closed-form layer norm
        # in place of the composite one, whose chain of small backwards rounds
        # differently (its scale and shift gradients are the same bytes)
        rng = np.random.default_rng(62)
        operands = self._residual_operands(rng, n=9, d=8)
        x, h, w, b, g, s = operands
        weights = rng.normal(size=(9, 8))
        drop = lambda: dict(dropout_p=p, rng=np.random.default_rng(63), train=True)
        fused = _values_and_grads(lambda: ad.residual_layer_norm(*operands, **drop()),
                                  weights, operands)
        composite = _values_and_grads(
            lambda: composite_ops.residual_layer_norm(*operands, **drop()), weights, operands)
        closed_form = _values_and_grads(
            lambda: _plain_layer_norm(add(x, composite_ops.linear(h, w, b, **drop())), g, s),
            weights, operands)
        assert fused[0].tobytes() == composite[0].tobytes()
        _assert_bitwise(fused, closed_form)
        for grad, expected in zip(fused[1][4:], composite[1][4:]):
            assert grad.tobytes() == expected.tobytes()
        _assert_same_values_close_grads(fused, composite)

    def test_residual_gradients(self):
        rng = np.random.default_rng(57)
        operands = self._residual_operands(rng, n=5, d=4)
        w = Tensor(rng.normal(size=(5, 4)))
        build = lambda: reduce_sum(mul(ad.residual_layer_norm(
            *operands, dropout_p=0.3, rng=np.random.default_rng(64), train=True), w))
        check_grads(build, operands)

    def test_residual_one_tape_node_without_sum(self):
        # the node keeps its operands, output, normalized rows, inverse
        # deviations and keep flags: neither the projection nor the sum
        operands = self._residual_operands(np.random.default_rng(58))
        x, h, w, b = (t.data for t in operands[:4])
        out = ad.residual_layer_norm(*operands, dropout_p=0.3,
                                     rng=np.random.default_rng(65), train=True)
        assert out._parents == operands
        own = {id(t.data) for t in operands} | {id(out.data)}
        extra = [a for a in composite_ops.tape_arrays(out) if id(a) not in own]
        assert sorted((a.shape, a.dtype.str) for a in extra) == [
            ((7, 1), "<f8"), ((7, 6), "<f8"), ((7, 6), "|b1")]
        projected = h @ w + b
        for kept in (projected, x + projected):
            assert all(a.tobytes() != kept.tobytes() for a in composite_ops.tape_arrays(out))

    def test_residual_without_grad_is_plain_sum(self):
        rng = np.random.default_rng(59)
        operands = self._residual_operands(rng)
        x, h, w, b, g, s = operands
        for t in (h, w, b):
            t.requires_grad = False
        out = ad.residual_layer_norm(*operands)
        reduce_sum(mul(out, 1.0)).backward()
        assert h.grad is None and w.grad is None and b.grad is None
        assert x.grad is not None
        np.testing.assert_array_equal(
            out.data, _plain_layer_norm(Tensor(x.data + (h.data @ w.data + b.data)), g, s).data)


def _values_and_grads(build, weights, tensors):
    """Forward values of build() and the gradients of sum(build() * weights)."""
    for t in tensors:
        t.grad = None
    y = build()
    reduce_sum(mul(y, weights)).backward()
    return y.data, [t.grad for t in tensors]


def _assert_bitwise(a, b):
    assert a[0].tobytes() == b[0].tobytes()
    for ga, gb in zip(a[1], b[1]):
        assert ga.tobytes() == gb.tobytes()


def _assert_same_values_close_grads(a, b, tol=1e-10):
    np.testing.assert_array_equal(a[0], b[0])
    scale = max(np.abs(g).max() for g in b[1])
    for ga, gb in zip(a[1], b[1]):
        np.testing.assert_allclose(ga, gb, rtol=0, atol=tol * scale)


class TestLinear:
    @staticmethod
    def _operands(rng, n=5, d=4, f=3):
        return (Tensor(rng.normal(size=(n, d)), requires_grad=True),
                Tensor(rng.normal(size=(d, f)), requires_grad=True),
                Tensor(rng.normal(size=(f,)), requires_grad=True))

    @pytest.mark.parametrize("relu", [False, True])
    def test_matches_composite(self, relu):
        rng = np.random.default_rng(40)
        x, w, b = self._operands(rng, n=9, d=7, f=6)
        weights = rng.normal(size=(9, 6))
        fused = _values_and_grads(lambda: ad.linear(x, w, b, relu=relu), weights, [x, w, b])
        composite = _values_and_grads(
            lambda: composite_ops.linear(x, w, b, relu=relu), weights, [x, w, b])
        if relu:
            assert (fused[0] == 0.0).any() and (fused[0] > 0.0).any()
        _assert_same_values_close_grads(fused, composite, tol=1e-12)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("p", DROPOUT_PS)
    def test_dropout_matches_composite(self, p, relu):
        # values and gradients bitwise equal to matmul, add, relu, dropout nodes
        rng = np.random.default_rng(44)
        x, w, b = self._operands(rng, n=9, d=7, f=6)
        weights = rng.normal(size=(9, 6))

        def build(dense):
            return lambda: dense(x, w, b, relu=relu, dropout_p=p,
                                 rng=np.random.default_rng(45), train=True)

        fused = _values_and_grads(build(ad.linear), weights, [x, w, b])
        composite = _values_and_grads(build(composite_ops.linear), weights, [x, w, b])
        pre = x.data @ w.data + b.data
        assert (pre < 0.0).any() and (pre > 0.0).any()
        _assert_bitwise(fused, composite)

    @pytest.mark.parametrize("relu", [False, True])
    def test_gradients(self, relu):
        rng = np.random.default_rng(41)
        x, w, b = self._operands(rng)
        weights = Tensor(rng.normal(size=(5, 3)))
        check_grads(lambda: reduce_sum(mul(ad.linear(x, w, b, relu=relu), weights)), [x, w, b])

    def test_one_tape_node(self):
        x, w, b = self._operands(np.random.default_rng(42))
        y = ad.linear(x, w, b, relu=True)
        assert y._parents == (x, w, b)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
def test_linear_and_layer_norm_reject_non_matrix_input(shape):
    x = Tensor(np.ones(shape))
    with pytest.raises(ValueError, match=r"linear expects \(n, d\)"):
        ad.linear(x, np.ones((4, 3)), np.zeros(3))
    with pytest.raises(ValueError, match=r"layer_norm expects \(n, d\)"):
        ad.residual_layer_norm(x, x, np.ones((4, 4)), np.zeros(4), np.ones(4), np.zeros(4))


class TestTapeRelease:
    @staticmethod
    def _graph():
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        h = ad.linear(x, w, b, relu=True)
        y = reduce_sum(mul(h, h))
        return x, w, b, h, y

    def test_interior_released_leaves_keep_grads(self):
        x, w, b, h, y = self._graph()
        interior = [h, y._parents[0], y]
        y.backward()
        for t in interior:
            assert t.grad is None
            assert t._parents == ()
        for t in (x, w, b):
            assert t.grad is not None and t.grad.shape == t.shape
        np.testing.assert_allclose(b.grad, (2.0 * h.data).sum(axis=0))

    def test_released_arrays_are_freed(self):
        x, w, b, h, y = self._graph()
        squared = weakref.ref(y._parents[0].data)
        del h
        y.backward()
        assert squared() is None

    def test_second_backward_raises(self):
        *_, y = self._graph()
        y.backward()
        with pytest.raises(RuntimeError, match="released"):
            y.backward()

    def test_backward_through_released_intermediate_raises(self):
        x, w, b, h, y = self._graph()
        y.backward()
        grads = [t.grad.copy() for t in (x, w, b)]
        with pytest.raises(RuntimeError, match="released"):
            reduce_sum(mul(h, 3.0)).backward()
        for t, g in zip((x, w, b), grads):
            np.testing.assert_array_equal(t.grad, g)

    def test_leaf_gradients_accumulate_over_two_graphs(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        mul(x, 3.0).backward()
        mul(x, x).backward()
        np.testing.assert_allclose(x.grad, 3.0 + 4.0)


def _attention_params(rng, d):
    make = lambda *shape: Tensor(rng.normal(size=shape) * 0.3, requires_grad=True)
    return {
        "wq": make(d, d), "bq": make(d), "wk": make(d, d), "bk": make(d),
        "wv": make(d, d), "bv": make(d), "wo": make(d, d), "bo": make(d),
        "scale": Tensor(np.ones(d), requires_grad=True),
        "shift": Tensor(np.zeros(d), requires_grad=True),
    }


class TestAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(16)
        p = _attention_params(rng, 8)
        x = Tensor(rng.normal(size=(5, 8)))
        assert ad.multi_head_self_attention(x, 2, **p).shape == (5, 8)

    def test_zero_values_reduce_to_layer_norm(self):
        rng = np.random.default_rng(17)
        p = _attention_params(rng, 8)
        p["wv"] = Tensor(np.zeros((8, 8)))
        p["bv"] = Tensor(np.zeros(8))
        p["bo"] = Tensor(np.zeros(8))
        x = Tensor(rng.normal(size=(6, 8)))
        out = ad.multi_head_self_attention(x, 2, **p)
        expected = _plain_layer_norm(x, p["scale"], p["shift"])
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        p = _attention_params(rng, 8)
        x = rng.normal(size=(7, 8))
        perm = rng.permutation(7)
        out = ad.multi_head_self_attention(Tensor(x), 2, **p).data
        out_perm = ad.multi_head_self_attention(Tensor(x[perm]), 2, **p).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_gradients_4x8_2heads(self):
        rng = np.random.default_rng(19)
        p = _attention_params(rng, 8)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        tensors = [x] + list(p.values())
        def build():
            y = ad.multi_head_self_attention(x, 2, **p)
            return reduce_sum(mul(y, y))

        check_grads(
            build,
            tensors,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_core_gradients(self):
        rng = np.random.default_rng(24)
        q, k, v = (Tensor(rng.normal(size=(5, 6)), requires_grad=True) for _ in range(3))
        w = Tensor(rng.normal(size=(5, 6)))
        check_grads(lambda: reduce_sum(mul(ad.attention_core(q, k, v, 3), w)), [q, k, v])

    @pytest.mark.parametrize("n,d,heads", [(1, 4, 4), (6, 8, 2), (9, 48, 3), (256, 64, 4)])
    def test_core_backward_matches_composite_bitwise(self, n, d, heads):
        # the fused backward runs the softmax backward one head at a time and
        # scales the scores' gradient after the matmuls, the composite before
        # them; with a head width that is a power of 4, 1 / sqrt(dh) is a power
        # of 2 and the two give the same bytes
        rng = np.random.default_rng(66)
        q, k, v = (Tensor(rng.normal(size=(n, d)), requires_grad=True) for _ in range(3))
        w = rng.normal(size=(n, d))
        fused = _values_and_grads(lambda: ad.attention_core(q, k, v, heads), w, [q, k, v])
        composite = _values_and_grads(
            lambda: composite_ops.attention_core(q, k, v, heads), w, [q, k, v])
        _assert_bitwise(fused, composite)

    @pytest.mark.parametrize("n,d,heads", [(1, 4, 1), (6, 8, 2), (9, 12, 4)])
    def test_matches_composite(self, n, d, heads):
        rng = np.random.default_rng(25)
        p = _attention_params(rng, d)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        w = rng.normal(size=(n, d))
        tensors = [x] + list(p.values())

        def build(attend):
            return lambda: attend(
                x, heads, **p, dropout_p=0.3, rng=np.random.default_rng(26), train=True
            )

        fused = _values_and_grads(build(ad.multi_head_self_attention), w, tensors)
        composite = _values_and_grads(
            build(composite_ops.multi_head_self_attention), w, tensors
        )
        _assert_same_values_close_grads(fused, composite)

    def test_head_divisibility(self):
        rng = np.random.default_rng(20)
        p = _attention_params(rng, 8)
        with pytest.raises(ValueError, match="divisible"):
            ad.multi_head_self_attention(Tensor(rng.normal(size=(3, 8))), 3, **p)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_two_positives(self):
        # uniform target over 2 of 7 spans, all logits equal -> ln 7
        logits = Tensor(np.full(7, 0.37))
        target = np.zeros(7)
        target[[1, 4]] = 0.5
        loss = ad.softmax_cross_entropy(logits, target)
        np.testing.assert_allclose(float(loss.data), np.log(7.0), atol=1e-12)

    def test_confident_correct_loss_vanishes(self):
        logits = Tensor(np.array([80.0, 0.0, 0.0]))
        target = np.array([1.0, 0.0, 0.0])
        assert float(ad.softmax_cross_entropy(logits, target).data) < 1e-12

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(21)
        logits = Tensor(rng.normal(size=(9,)), requires_grad=True)
        target = np.zeros(9)
        target[[0, 3, 4]] = 1.0 / 3.0
        loss = ad.softmax_cross_entropy(logits, target)
        loss.backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        np.testing.assert_allclose(logits.grad, probs - target, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(22)
        logits = Tensor(rng.normal(size=(12,)), requires_grad=True)
        target = np.zeros(12)
        target[[2, 7]] = 0.5
        check_grads(lambda: ad.softmax_cross_entropy(logits, target), [logits])

    @pytest.mark.parametrize(
        "target,message",
        [
            (np.array([0.5, 0.6]), "sums to"),
            (np.array([-0.2, 1.2]), "negative"),
            (np.array([0.0, 0.0]), "zero mass"),
        ],
    )
    def test_target_validation(self, target, message):
        with pytest.raises(ValueError, match=message):
            ad.softmax_cross_entropy(Tensor(np.zeros(2)), target)

    def test_rejects_non_finite_logits(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.softmax_cross_entropy(Tensor(np.array([np.inf, 0.0])), np.array([1.0, 0.0]))


class TestOpSet:
    def test_every_export_is_used_in_the_package(self):
        # every public top-level function and class of src/kpex has a caller:
        # it is named in the package outside its own definition (and, in
        # autodiff, outside Tensor, whose operator methods once kept test-only
        # ops alive), or bench/tracing.py patches it by name. So has every
        # public method and property of a class: an attribute of that name is
        # read in the package outside the method's own body, or it is patched.
        package = os.path.dirname(ad.__file__)
        root = os.path.join(package, os.pardir, os.pardir)
        defined, used = set(), set()
        methods, read = set(), set()
        for path in glob.glob(os.path.join(package, "*.py")):
            module = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8") as fh:
                body = ast.parse(fh.read()).body
            aliases = {a.asname or a.name for top in body for n in ast.walk(top)
                       if isinstance(n, ast.ImportFrom) and n.level and not n.module
                       for a in n.names}
            for top in body:
                own = getattr(top, "name", None)
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                    defined.add((module, own))
                for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                    member = getattr(part, "name", None)
                    if (isinstance(top, ast.ClassDef) and isinstance(part, ast.FunctionDef)
                            and not member.startswith("_")):
                        methods.add((module, own, member))
                    read.update({n.attr for n in ast.walk(part)
                                 if isinstance(n, ast.Attribute)} - {member})
                if own == "Tensor" and module == "autodiff":
                    continue
                used.update({n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(top) if isinstance(n, ast.Name)
                             or (isinstance(n, ast.Attribute)
                                 and getattr(n.value, "id", None) in aliases)} - {own})
        with open(os.path.join(root, "bench", "tracing.py"), encoding="utf-8") as fh:
            patched = {n.args[1].value for n in ast.walk(ast.parse(fh.read()))
                       if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_patch"}
        assert set(ad.__all__) <= {name for module, name in defined if module == "autodiff"}
        assert sorted(d for d in defined if d[1] not in used | patched) == []
        assert sorted(m for m in methods if m[2] not in read | patched) == []

    def test_no_generic_ops_or_operator_sugar(self):
        gone = {"add", "mul", "matmul", "reduce_sum", "reshape", "_unbroadcast", "__add__",
                "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__matmul__", "sum", "item"}
        assert not gone & (set(vars(ad)) | set(vars(Tensor)))


class TestTape:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            mul(x, 2.0).backward()

    def test_backward_on_a_leaf_seeds_its_gradient(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        x.backward(2.0)
        assert x.grad == 2.0 and x.grad.shape == ()

    def test_gradient_accumulates_through_reuse(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = add(mul(x, x), x)  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, 5.0)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with ad.no_grad():
            y = reduce_sum(mul(x, 3.0))
        assert not y.requires_grad
        assert y._backward_fn is None

    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert add(a, b).requires_grad
        assert not add(b, b).requires_grad

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_shared_gradient_not_changed_by_later_accumulation(self, shape):
        # add hands one upstream array to both parents; the first write keeps
        # it without a copy, so a later write into either parent must rebind
        rng = np.random.default_rng(27)
        a = Tensor(rng.normal(size=shape), requires_grad=True)
        b = Tensor(rng.normal(size=shape), requires_grad=True)
        y = add(a, b)
        upstream = rng.normal(size=shape)
        y._backward_fn(upstream)
        assert a.grad is b.grad or np.shares_memory(a.grad, b.grad)
        before = upstream.copy()
        a._accumulate(np.ones(shape))
        b._accumulate(np.full(shape, 2.0))
        np.testing.assert_array_equal(upstream, before)
        np.testing.assert_array_equal(a.grad, before + 1.0)
        np.testing.assert_array_equal(b.grad, before + 2.0)
        assert np.shape(a.grad) == shape

    @staticmethod
    def _shared_tape():
        """A loss over four branches that share one input node and every parameter.

        Each shared parameter sums four or more gradients, whose bytes depend
        on the order the walk adds them in.
        """
        rng = np.random.default_rng(67)
        leaf = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
        x, w, b, v, c = leaf(8, 4), leaf(4, 4), leaf(4), leaf(4, 1), leaf(1)
        scale, shift = leaf(4), leaf(4)
        h = ad.linear(x, w, b, relu=True)
        pieces = []
        for branch in range(4):
            y = ad.linear(h, w, b, dropout_p=0.2, rng=np.random.default_rng(branch),
                          train=True)
            y = ad.residual_layer_norm(h, y, w, b, scale, shift)
            y = ad.multi_head_self_attention(y, 2, w, b, w, b, w, b, w, b, scale, shift)
            pieces.append(ad.linear(y, v, c))
        target = np.zeros(32)
        target[[3, 17]] = 0.5
        loss = ad.softmax_cross_entropy(ad.concat(pieces), target)
        return loss, [x, w, b, v, c, scale, shift]

    def test_walk_matches_depth_first_gradients(self):
        loss, leaves = self._shared_tape()
        loss.backward(1.0 / 3.0)
        walked = [t.grad.tobytes() for t in leaves]
        loss, leaves = self._shared_tape()
        composite_ops.depth_first_backward(loss, 1.0 / 3.0)
        assert walked == [t.grad.tobytes() for t in leaves]

    def test_diamond_graph_single_visit(self):
        # two paths to the same parent must each contribute once
        x = Tensor(np.array(3.0), requires_grad=True)
        a = mul(x, 2.0)
        b = mul(x, 4.0)
        mul(a, b).backward()  # d/dx 8x^2 = 16x = 48
        np.testing.assert_allclose(x.grad, 48.0)
