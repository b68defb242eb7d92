"""Training loop: loss values, determinism, batching, and run artifacts."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

import composite_ops
from kpex import autodiff
from kpex.config import EmbeddingConfig, TrainingConfig
from kpex.documents import (
    Span,
    count_spans,
    make_document,
    span_index,
    span_target,
)
from kpex.embedding import TokenVocabulary
from kpex.model import ModelConfig, SpanScorer
from kpex.optim import clear_grads
from kpex.training import (
    TrainingExample,
    keyphrase_loss,
    prepare_examples,
    run_training,
    _backward_document,
    _length_batches,
)

VOCAB_TOKENS = tuple(f"w{i}" for i in range(12))


def _config(**overrides):
    defaults = dict(
        filters=8,
        heads=2,
        layers=1,
        dropout=0.0,
        embedding=EmbeddingConfig(token_dim=6, position_dim=4),
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def _model(seed=0, **overrides):
    return SpanScorer(_config(**overrides), vocab=TokenVocabulary(VOCAB_TOKENS), seed=seed)


def _corpus(n_docs=12, doc_len=8, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n_docs):
        tokens = [f"w{rng.integers(0, 12)}" for _ in range(doc_len)]
        doc = make_document(f"doc{i}", " ".join(tokens))
        start = int(rng.integers(0, doc_len - 1))
        examples.append(TrainingExample(doc, span_target(doc_len, 5, (Span(start, 2),))))
    return examples


class TestLossValues:
    def test_uniform_model_single_target_is_log_m(self):
        # zero every parameter that feeds the scorer output so logits are flat
        model = _model()
        for name in ("scorer/w3", "scorer/b3"):
            model.registry[name].data[:] = 0.0
        doc = make_document("d", " ".join(["w0"] * 12))
        ex = TrainingExample(doc, span_target(12, 5, (Span(0, 1),)))
        loss = keyphrase_loss(model, ex)
        assert float(loss.data) == pytest.approx(math.log(50), abs=1e-9)

    def test_two_span_uniform_target(self):
        model = _model()
        for name in ("scorer/w3", "scorer/b3"):
            model.registry[name].data[:] = 0.0
        doc = make_document("d", " ".join(["w0"] * 12))
        ex = TrainingExample(doc, span_target(12, 5, (Span(0, 1), Span(3, 2))))
        loss = keyphrase_loss(model, ex)
        assert float(loss.data) == pytest.approx(math.log(50), abs=1e-9)

    def test_target_length_mismatch(self):
        model = _model()
        doc = make_document("d", "w0 w1 w2")

        with pytest.raises(ValueError, match="target shape"):
            keyphrase_loss(model, TrainingExample(doc, np.full(99, 1 / 99)))

    def test_loss_decreases_under_adam(self):
        model = _model()
        examples = _corpus(n_docs=8)
        config = TrainingConfig(
            max_epochs=12, batch_size=4, validation_fraction=0.0, lr_start=5e-3,
            lr_end=1e-3,
        )
        record = run_training(model, examples, config)
        assert record.epochs[-1].train_loss < record.epochs[0].train_loss * 0.7


class TestPrepareExamples:
    def test_alignment_and_truncation(self):
        doc = make_document("d", " ".join(f"w{i % 12}" for i in range(20)),
                            keyphrases=("w1 w2",))
        examples, report = prepare_examples([doc], 5, max_doc_length=10)
        assert report.prepared == 1
        assert len(examples[0].document) == 10
        assert examples[0].target.shape == (count_spans(10, 5),)
        assert examples[0].target[span_index(10, Span(1, 2))] == 1.0

    def test_unmatched_document_skipped(self):
        doc = make_document("d", "w0 w1", keyphrases=("w9 w9",))
        examples, report = prepare_examples([doc], 5)
        assert examples == []
        assert report.skipped_no_match == ["d"]
        assert report.phrases_unmatched == 1

    def test_too_long_phrase_counted(self):
        doc = make_document("d", "w0 w1 w2 w3 w4 w5 w0 w1",
                            keyphrases=("w0 w1 w2 w3 w4 w5", "w0 w1"))
        examples, report = prepare_examples([doc], 5)
        assert report.phrases_too_long == 1
        assert report.prepared == 1


class TestBatching:
    def test_batches_group_similar_lengths(self):
        examples = []
        for i, n in enumerate((3, 9, 4, 8, 3, 9)):
            doc = make_document(f"d{i}", " ".join(["w0"] * n))
            examples.append(TrainingExample(doc, span_target(n, 5, (Span(0, 1),))))
        rng = np.random.default_rng(0)
        batches = _length_batches(examples, 2, rng)
        assert sorted(len(b) for b in batches) == [2, 2, 2]
        by_len = sorted(
            tuple(sorted(len(ex.document) for ex in b)) for b in batches
        )
        assert by_len == [(3, 3), (4, 8), (9, 9)]

    def test_all_examples_survive_batching(self):
        examples = _corpus(n_docs=10)
        rng = np.random.default_rng(1)
        batches = _length_batches(examples, 3, rng)
        flat = {ex.document.id for b in batches for ex in b}
        assert flat == {ex.document.id for ex in examples}


class TestRunTraining:
    def test_identical_seeds_identical_curves(self):
        config = TrainingConfig(max_epochs=3, batch_size=4, lr_start=1e-3)
        losses = []
        for _ in range(2):
            record = run_training(_model(), _corpus(), config)
            losses.append([e.train_loss for e in record.epochs])
        assert losses[0] == losses[1]

    def test_different_seed_different_curve(self):
        base = TrainingConfig(max_epochs=2, batch_size=4)
        other = TrainingConfig(max_epochs=2, batch_size=4, seed=7)
        a = run_training(_model(), _corpus(), base)
        b = run_training(_model(), _corpus(), other)
        assert [e.train_loss for e in a.epochs] != [e.train_loss for e in b.epochs]

    def test_validation_split_size(self):
        config = TrainingConfig(max_epochs=1, batch_size=4, validation_fraction=0.25)
        record = run_training(_model(), _corpus(n_docs=12), config)
        assert record.epochs[0].val_loss is not None
        # 9 train examples -> ceil(9/4) = 3 steps
        assert record.steps == 3

    def test_run_dir_artifacts(self, tmp_path):
        run_dir = str(tmp_path / "run")
        config = TrainingConfig(max_epochs=2, batch_size=4)
        record = run_training(
            _model(), _corpus(), config, run_dir=run_dir,
            checkpoint_metadata={"phase": "finetune"},
        )
        names = sorted(os.listdir(run_dir))
        assert names == ["best.ckpt", "config.json", "epoch1.ckpt", "epoch2.ckpt",
                         "metrics.jsonl"]
        with open(os.path.join(run_dir, "metrics.jsonl")) as fh:
            lines = [json.loads(line) for line in fh]
        assert [l["epoch"] for l in lines] == [1, 2]
        assert all("train_loss" in l and "lr_last" in l for l in lines)
        loaded, meta = SpanScorer.load(os.path.join(run_dir, "best.ckpt"))
        assert meta["phase"] == "finetune"
        assert meta["epoch"] == record.best_epoch

    def test_stale_metrics_replaced(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 7}\n')
        run_training(_model(), _corpus(), TrainingConfig(max_epochs=1, batch_size=4),
                     run_dir=str(run_dir))
        with open(run_dir / "metrics.jsonl") as fh:
            assert [json.loads(line)["epoch"] for line in fh] == [1]

    def test_best_checkpoint_tracks_lowest_val(self, tmp_path):
        run_dir = str(tmp_path / "run")
        config = TrainingConfig(max_epochs=4, batch_size=4, lr_start=5e-3, lr_end=1e-3)
        record = run_training(_model(), _corpus(), config, run_dir=run_dir)
        vals = [e.val_loss for e in record.epochs]
        assert record.best_val_loss == min(vals)
        assert record.best_epoch == vals.index(min(vals)) + 1

    def test_interrupted_best_copy_keeps_previous(self, tmp_path, monkeypatch):
        # writing epoch 2's model over best.ckpt fails after its first 64 bytes
        import builtins

        real_open = builtins.open
        best_writes = []

        class FailingWriter:
            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.written >= 64:
                    raise OSError("write failed partway")
                data = bytes(data)[: 64 - self.written]
                self.written += len(data)
                return self.fh.write(data)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if os.path.basename(str(path)).startswith("best.ckpt") and "w" in mode:
                best_writes.append(path)
                if len(best_writes) == 2:
                    return FailingWriter(fh)
            return fh

        run_dir = str(tmp_path / "run")
        config = TrainingConfig(max_epochs=2, batch_size=4, lr_start=5e-3,
                                validation_fraction=0.0)
        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="partway"):
            run_training(_model(), _corpus(), config, run_dir=run_dir)
        monkeypatch.undo()
        assert len(best_writes) == 2
        with open(os.path.join(run_dir, "epoch1.ckpt"), "rb") as fh:
            epoch1 = fh.read()
        with open(os.path.join(run_dir, "best.ckpt"), "rb") as fh:
            assert fh.read() == epoch1
        _, meta = SpanScorer.load(os.path.join(run_dir, "best.ckpt"))
        assert meta["epoch"] == 1
        assert sorted(os.listdir(run_dir)) == ["best.ckpt", "config.json", "epoch1.ckpt",
                                               "epoch2.ckpt", "metrics.jsonl"]

    def test_log_callback_sees_every_epoch(self):
        seen = []
        config = TrainingConfig(max_epochs=3, batch_size=4)
        run_training(_model(), _corpus(), config, log=seen.append)
        assert [s.epoch for s in seen] == [1, 2, 3]

    def test_documents_shorter_than_max_span_length(self):
        # 2-token documents build no bank of width 3..5: Adam must still step,
        # and those banks, whose true gradient is zero, must not move
        model = _model()
        idle = model.registry["cnn/k3/weight"].data.copy()
        config = TrainingConfig(max_epochs=2, batch_size=4, validation_fraction=0.0)
        record = run_training(model, _corpus(n_docs=8, doc_len=2), config)
        assert record.steps == 4
        np.testing.assert_array_equal(model.registry["cnn/k3/weight"].data, idle)

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            run_training(_model(), [], TrainingConfig())

    def test_lr_schedule_spans_run(self):
        config = TrainingConfig(
            max_epochs=2, batch_size=4, lr_start=1e-2, lr_end=1e-3,
            validation_fraction=0.0,
        )
        record = run_training(_model(), _corpus(n_docs=8), config)
        # 8 docs, batch 4 -> 2 steps/epoch, 4 total; last step uses step=3 of 4
        assert record.steps == 4
        assert record.epochs[-1].lr_last == pytest.approx(
            math.exp(math.log(1e-2) + (3 / 4) * (math.log(1e-3) - math.log(1e-2)))
        )

    def test_nonfinite_loss_aborts_with_step(self, monkeypatch):
        import kpex.training as training_mod
        from kpex.autodiff import Tensor

        monkeypatch.setattr(
            training_mod, "keyphrase_loss",
            lambda model, example, train=False, rng=None: Tensor(np.array(np.nan)),
        )
        with pytest.raises(RuntimeError, match="step 0"):
            run_training(_model(), _corpus(), TrainingConfig(max_epochs=1))

    def test_nonfinite_weights_caught_in_graph(self):
        model = _model()
        model.registry["scorer/w3"].data[:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                run_training(model, _corpus(), TrainingConfig(max_epochs=1))


class TestFirstStepPin:
    """Values recorded before the tape changes; no forward value or gradient bit may move.

    The epoch-1 loss of a 1-step run sees only the forward. The gradient
    digest sees every bit of every gradient; the epoch-2 loss sees them only
    through Adam's steps, which divide out a uniform scale.
    """

    def test_first_step_train_loss(self):
        config = TrainingConfig(max_epochs=1, batch_size=4, validation_fraction=0.0)
        record = run_training(_model(dropout=0.1), _corpus(n_docs=4, doc_len=9), config)
        assert record.steps == 1
        assert record.epochs[0].train_loss.hex() == "0x1.a0f041df1339bp+1"

    def test_first_batch_gradients(self):
        model = _model(dropout=0.1, layers=2)
        value, grads = _batch_gradients(model, TestTapeEquivalence._batch(), per_document=True)
        digest = hashlib.sha256()
        for name, g in grads.items():
            digest.update(name.encode() + g.tobytes())
        assert value.hex() == "0x1.a32bc41530b4fp+1"
        assert digest.hexdigest() == (
            "0b6724cf6b1dfe288899a66c7dbe4905b897e48e363d1786e140177d43965ef6"
        )

    def test_second_epoch_train_loss(self):
        config = TrainingConfig(max_epochs=2, batch_size=2, validation_fraction=0.0)
        record = run_training(_model(dropout=0.1, layers=2), TestTapeEquivalence._batch(),
                              config)
        assert record.steps == 4
        assert record.epochs[1].train_loss.hex() == "0x1.b1f2d4acc2468p+1"

    def test_training_forward_logits(self):
        model = _model(dropout=0.1, layers=2)
        doc = _corpus(n_docs=1, doc_len=9)[0].document
        logits = model.forward(doc, train=True, rng=np.random.default_rng(3))
        assert logits.requires_grad
        assert hashlib.sha256(logits.data.tobytes()).hexdigest() == (
            "eab2e96cfe3c5658b7a94c91dde07ba752a6e016d76c8b127d8f37b5e897783e"
        )


def _batch_gradients(model, batch, per_document):
    """Batch loss value and every parameter gradient, dropout drawn from seed 9."""
    clear_grads(model.registry)
    rng = np.random.default_rng(9)
    scale = 1.0 / len(batch)
    if per_document:
        total = 0.0
        for ex in batch:
            total += _backward_document(model, ex, scale, rng, 0)
        value = total * scale
    else:
        total = None
        for ex in batch:
            loss = keyphrase_loss(model, ex, train=True, rng=rng)
            total = loss if total is None else composite_ops.add(total, loss)
        loss = composite_ops.mul(total, scale)
        loss.backward()
        value = float(loss.data)
    return value, {name: p.grad for name, p in model.registry.items()}


def _assert_close_over_model(grads, expected):
    """Gradients agree within 1e-10 of the whole model's largest gradient."""
    assert grads.keys() == expected.keys()
    scale = max(np.abs(g).max() for g in expected.values())
    for name, g in expected.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-10 * scale,
                                   err_msg=name)


def _tape_nodes(root):
    """Every interior node on the tape under ``root``."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(p for p in t._parents if p._parents)
    return nodes


def _op_name(node):
    """The name of the op that recorded ``node``."""
    return node._backward_fn.__qualname__.split(".")[0]


class TestTapeEquivalence:
    """The fused ops and the per-document backward against their oracles."""

    @staticmethod
    def _batch():
        return _corpus(n_docs=2, doc_len=7, seed=5) + _corpus(n_docs=2, doc_len=11, seed=6)

    def test_per_document_matches_whole_batch(self):
        model = _model(dropout=0.1, layers=2)
        value, grads = _batch_gradients(model, self._batch(), per_document=True)
        expected_value, expected = _batch_gradients(model, self._batch(), per_document=False)
        assert value.hex() == expected_value.hex()
        _assert_close_over_model(grads, expected)

    def test_seeded_backward_matches_scaling_node(self):
        # backward(scale) seeds what a mul-by-scale node's backward passed on
        model = _model(dropout=0.1, layers=2)
        example = self._batch()[-1]
        grads = []
        for backward in (lambda loss: loss.backward(1.0 / 3.0),
                         lambda loss: composite_ops.mul(loss, 1.0 / 3.0).backward()):
            clear_grads(model.registry)
            backward(keyphrase_loss(model, example, train=True, rng=np.random.default_rng(9)))
            grads.append({name: p.grad.tobytes() for name, p in model.registry.items()})
        assert grads[0] == grads[1]

    def test_fused_ops_match_composite(self, monkeypatch):
        model = _model(dropout=0.1, layers=2)
        value, grads = _batch_gradients(model, self._batch(), per_document=False)
        monkeypatch.setattr(autodiff, "linear", composite_ops.linear)
        monkeypatch.setattr(autodiff, "conv1d", composite_ops.conv1d)
        monkeypatch.setattr(autodiff, "residual_layer_norm", composite_ops.residual_layer_norm)
        monkeypatch.setattr(autodiff, "multi_head_self_attention",
                            composite_ops.multi_head_self_attention)
        expected_value, expected = _batch_gradients(model, self._batch(), per_document=False)
        assert value.hex() == expected_value.hex()
        _assert_close_over_model(grads, expected)

    def test_tape_keeps_no_window_copies_or_residual_sums(self):
        model = _model(dropout=0.1, layers=2)
        doc = _corpus(n_docs=1, doc_len=11)[0].document
        logits = model.forward(doc, train=True, rng=np.random.default_rng(3))
        d = model.config.embedding.width
        windows = {(11 - k + 1, k * d) for k in range(2, 6)}
        kept = composite_ops.tape_arrays(logits)
        assert not windows & {a.shape for a in kept}
        nodes = _tape_nodes(logits)
        ops = [_op_name(t) for t in nodes]
        # every residual sum and the projection it adds are inside a
        # residual_layer_norm node: 2 per layer per width
        assert "add" not in ops
        assert ops.count("residual_layer_norm") == 2 * 2 * 5
        assert ops.count("conv1d") == 5
        kept = {a.tobytes() for a in kept}
        for node in nodes:
            if _op_name(node) == "residual_layer_norm":
                x, h, w, b = (p.data for p in node._parents[:4])
                # the FFN's projection has no dropout; the attention one's is
                # not kept before dropout either
                projected = h @ w + b
                assert projected.tobytes() not in kept
                assert (x + projected).tobytes() not in kept

    def test_tape_has_no_dropout_nodes(self):
        # each dropout is folded into the linear, conv1d or residual_layer_norm
        # node it follows; per width: conv1d, q/k/v, attention_core, 2
        # residual_layer_norm, ffn, 3 scorer linear; plus the concat of the
        # widths' scorer columns and the one-node embedding_lookup
        model = _model(dropout=0.1)
        doc = _corpus(n_docs=1, doc_len=11)[0].document
        logits = model.forward(doc, train=True, rng=np.random.default_rng(3))
        ops = [_op_name(t) for t in _tape_nodes(logits)]
        assert len(ops) == 57
        assert {op: ops.count(op) for op in set(ops)} == {
            "conv1d": 5, "linear": 35, "attention_core": 5, "residual_layer_norm": 10,
            "concat": 1, "embedding_lookup": 1,
        }

    @pytest.mark.parametrize("layers", [1, 2])
    def test_walk_matches_depth_first_order(self, layers):
        # every parameter feeds all five widths, so its gradient is a sum whose
        # bytes depend on the order the walk adds the widths' terms in
        model = _model(dropout=0.1, layers=layers)
        example = self._batch()[-1]
        grads = []
        for backward in (lambda loss: loss.backward(0.5),
                         lambda loss: composite_ops.depth_first_backward(loss, 0.5)):
            clear_grads(model.registry)
            backward(keyphrase_loss(model, example, train=True, rng=np.random.default_rng(9)))
            grads.append({name: p.grad.tobytes() for name, p in model.registry.items()})
        assert grads[0] == grads[1]

    def test_backward_document_peak_memory(self):
        # one default-config document of 256 tokens: 15.32 MiB traced at the
        # peak with a projection array kept per residual node and the
        # attention backward's (heads, n, n) scores gradient, 14.07 without
        import tracemalloc

        rng = np.random.default_rng(0)
        doc = make_document("d", " ".join(f"w{i}" for i in rng.integers(0, 50, size=256)))
        model = SpanScorer(ModelConfig(), vocab=TokenVocabulary.build([doc]), seed=0)
        example = TrainingExample(doc, span_target(256, 5, (Span(10, 2),)))
        tracemalloc.start()
        try:
            _backward_document(model, example, 1.0, np.random.default_rng(1), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.7 * 2**20


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(lr_start=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(lr_start=1e-4, lr_end=1e-3)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(validation_fraction=1.0)
