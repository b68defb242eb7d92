"""Parameter dicts, checkpoint format, Adam, and the gradient checker."""

import json
import os
import struct

import numpy as np
import pytest

from composite_ops import add, matmul, mul, reduce_sum, reshape
from kpex import autodiff as ad
from kpex.autodiff import Tensor
from kpex.fileio import write_atomic
from kpex.gradcheck import finite_difference_check
from kpex.optim import Adam, MissingGradientError, clear_grads, geometric_lr
from kpex.registry import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    check_arrays,
    load_checkpoint,
    save_checkpoint,
    xavier_uniform,
)


def _param(values):
    """A trainable float64 parameter, as ``SpanScorer`` keeps each one."""
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestRegistry:
    def test_insertion_order_and_lookup(self, tmp_path):
        # Adam's moment buffers and the checkpoint records follow insertion order
        reg = {"b/2": _param(np.zeros(2)), "a/1": _param(np.zeros(3))}
        assert list(Adam(reg)._m) == list(Adam(reg)._v) == ["b/2", "a/1"]
        path = str(tmp_path / "order.ckpt")
        save_checkpoint(path, reg, {})
        _, arrays = load_checkpoint(path)
        assert list(arrays) == ["b/2", "a/1"]
        assert arrays["a/1"].shape == reg["a/1"].data.shape == (3,)

    def test_clear_grads(self):
        reg = {"w": _param(np.ones(2)), "b": _param(np.ones(3))}
        for p in reg.values():
            p.grad = np.ones_like(p.data)
        clear_grads(reg)
        assert all(p.grad is None for p in reg.values())

    def test_check_arrays_shape_mismatch_names_offenders(self):
        with pytest.raises(CheckpointError, match="w1"):
            check_arrays({"w1": (2, 3), "w2": (4,)},
                         {"w1": np.zeros((3, 2)), "w2": np.zeros(4)})

    def test_check_arrays_set_mismatch(self):
        with pytest.raises(CheckpointError, match="missing"):
            check_arrays({"w1": (2,)}, {})

    def test_xavier_bounds(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform(rng, (100, 50))
        bound = np.sqrt(6.0 / 150.0)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > bound * 0.9


def _joined_checkpoint(registry, metadata):
    """The checkpoint bytes built as one joined blob, every field in turn."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(meta_bytes)),
             meta_bytes, struct.pack("<Q", len(registry))]
    for name, tensor in registry.items():
        name_bytes = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        parts += [struct.pack("<H", len(name_bytes)), name_bytes,
                  struct.pack("<B", arr.ndim), struct.pack(f"<{arr.ndim}Q", *arr.shape),
                  arr.tobytes()]
    return b"".join(parts)


def _odd_registry():
    rng = np.random.default_rng(3)
    return {
        "a/w": _param(rng.normal(size=(5, 3))),
        "a/wT": _param(rng.normal(size=(3, 4)).T),  # not C-contiguous
        "s": _param(rng.normal(size=())),
        "empty": _param(np.zeros((0, 3))),
        "é/b": _param(rng.normal(size=(7,))),
    }


class TestCheckpoint:
    def test_bytes_equal_joined_blob(self, tmp_path):
        reg = _odd_registry()
        meta = {"config": {"filters": 64}, "vocab": ["a", "ü"]}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, reg, meta)
        with open(path, "rb") as fh:
            assert fh.read() == _joined_checkpoint(reg, meta)
        loaded_meta, arrays = load_checkpoint(path)
        assert loaded_meta == meta
        assert list(arrays) == list(reg)
        for name, tensor in reg.items():
            want = np.ascontiguousarray(tensor.data)
            assert arrays[name].dtype == np.float64
            assert arrays[name].tobytes() == want.tobytes() and arrays[name].shape == want.shape

    def test_rejects_trailing_bytes(self, tmp_path):
        reg = _odd_registry()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, reg, {})
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        blob = bytearray(_joined_checkpoint({"w": _param(np.ones(3))}, {}))
        blob[4:8] = struct.pack("<I", 2)
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == f"{path}: unsupported checkpoint version 2"

    def test_huge_shape_fails_as_truncated(self, tmp_path):
        # a corrupt shape is caught against the file size, before allocating
        reg = {"w": _param(np.ones(3))}
        blob = bytearray(_joined_checkpoint(reg, {}))
        shape_at = len(blob) - 3 * 8 - 8
        blob[shape_at : shape_at + 8] = struct.pack("<Q", 2**60)
        path = tmp_path / "model.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_every_truncation_rejected(self, tmp_path):
        reg = {"w": _param(np.ones((2, 2)))}
        blob = _joined_checkpoint(reg, {"k": 1})
        path = tmp_path / "model.ckpt"
        for cut in range(4, len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(str(path))

    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        reg = {}
        originals = {}
        for name, shape in (("a/w", (5, 3)), ("a/b", (3,)), ("s", ())):
            arr = rng.normal(size=shape)
            reg[name] = _param(arr)
            originals[name] = arr
        path = str(tmp_path / "model.ckpt")
        meta = {"config": {"filters": 64}, "config_digest": "abc123"}
        save_checkpoint(path, reg, meta)
        loaded_meta, arrays = load_checkpoint(path)
        assert loaded_meta == meta
        assert list(arrays) == ["a/w", "a/b", "s"]
        for name, arr in originals.items():
            np.testing.assert_array_equal(arrays[name], arr)
            assert arrays[name].dtype == np.float64

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(str(path))

    def test_rejects_truncated_file(self, tmp_path):
        reg = {"w": _param(np.ones((4, 4)))}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, reg, {})
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameter(self, tmp_path, bad):
        reg = _odd_registry()
        reg["é/b"].data[3] = bad
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, reg, {})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert path in str(err.value) and "'é/b'" in str(err.value)


class TestWriteAtomic:
    def test_writes_chunks_in_order(self, tmp_path):
        path = str(tmp_path / "out.bin")
        write_atomic(path, (bytes([i]) * i for i in range(1, 4)))
        with open(path, "rb") as fh:
            assert fh.read() == b"\x01\x02\x02\x03\x03\x03"

    def test_failing_chunks_leave_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_atomic(str(path), chunks())
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = _param([1.0, -2.0])
        reg = {"w": p}
        p.grad = np.zeros(2)
        Adam(reg).step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = _param(np.zeros(3))
        reg = {"w": p}
        p.grad = np.array([0.5, -2.0, 1e-3])
        Adam(reg).step(0.1)
        np.testing.assert_allclose(p.data, [-0.1, 0.1, -0.1], rtol=1e-4)

    def test_minimizes_quadratic(self):
        theta = _param(3.0)
        reg = {"theta": theta}
        opt = Adam(reg)
        for _ in range(200):
            clear_grads(reg)
            loss = mul(theta, theta)
            loss.backward()
            opt.step(0.1)
        assert abs(float(theta.data)) < 0.05

    def test_missing_gradient_names_parameter(self):
        reg = {"w/ok": _param(np.zeros(2)), "w/missing": _param(np.zeros(2))}
        reg["w/ok"].grad = np.ones(2)
        with pytest.raises(MissingGradientError, match="w/missing"):
            Adam(reg).step(0.1)

    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_non_positive_lr_rejected(self, lr):
        p = _param(np.ones(2))
        p.grad = np.ones(2)
        opt = Adam({"w": p})
        with pytest.raises(ValueError, match="learning rate must be positive"):
            opt.step(lr)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        assert opt.t == 0

    def test_step_clears_grads(self):
        p = _param(np.ones(2))
        p.grad = np.ones(2)
        Adam({"w": p}).step(0.01)
        assert p.grad is None


class TestLearningRateSchedule:
    def test_endpoints_exact(self):
        assert geometric_lr(0, 1000, 0.3, 0.001) == 0.3
        assert geometric_lr(1000, 1000, 0.3, 0.001) == 0.001

    def test_geometric_midpoint(self):
        lr = geometric_lr(500, 1000, 0.3, 0.001)
        np.testing.assert_allclose(lr, np.sqrt(0.3 * 0.001), rtol=1e-12)
        np.testing.assert_allclose(lr, 0.01732, atol=5e-6)

    def test_monotone_non_increasing(self):
        values = [geometric_lr(t, 50, 1e-3, 1e-4) for t in range(60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            geometric_lr(0, 10, 0.0, 1e-4)


def _quadratic_setup():
    rng = np.random.default_rng(3)
    theta = _param(rng.normal(size=(3,)))
    reg = {"theta": theta}
    xs = rng.normal(size=(8, 3))
    ys = rng.normal(size=(8, 1))

    def loss_fn():
        pred = matmul(Tensor(xs), reshape(theta, (3, 1)))
        err = add(pred, mul(Tensor(ys), -1.0))
        return reduce_sum(mul(err, err))

    return reg, loss_fn


class TestFiniteDifferenceCheck:
    def test_linear_model_quadratic_loss_tiny_error(self):
        reg, loss_fn = _quadratic_setup()
        errors = finite_difference_check(loss_fn, reg, samples_per_param=None)
        assert max(errors.values()) < 1e-8

    def test_corrupted_backward_flagged(self):
        rng = np.random.default_rng(4)
        theta = _param(rng.uniform(1.0, 2.0, size=(4,)))
        reg = {"theta": theta}

        def corrupted_square(t):
            data = t.data**2

            def backward_fn(g):
                t._accumulate(g * 2.0 * t.data * 1.5)  # wrong by 50%

            return ad._make(data, (t,), backward_fn)

        errors = finite_difference_check(
            lambda: reduce_sum(corrupted_square(theta)), reg, samples_per_param=None
        )
        assert max(errors.values()) > 1e-2

    def test_parameter_without_gradient_rejected(self):
        reg, loss_fn = _quadratic_setup()
        reg["unused"] = _param(np.ones(2))
        with pytest.raises(RuntimeError, match="^parameter 'unused' received no gradient$"):
            finite_difference_check(loss_fn, reg)

    def test_nondeterministic_loss_rejected(self):
        reg = {"w": _param(np.ones(2))}
        state = {"count": 0}

        def noisy():
            state["count"] += 1
            return Tensor(np.array(float(state["count"])))

        with pytest.raises(RuntimeError, match="deterministic"):
            finite_difference_check(noisy, reg)

    def test_sampling_caps_coordinates(self):
        reg, loss_fn = _quadratic_setup()
        errors = finite_difference_check(loss_fn, reg, samples_per_param=2)
        assert set(errors) == {"theta"}
        assert max(errors.values()) < 1e-8
