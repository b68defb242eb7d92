"""Span scorer: architecture shape, softmax, sharing, and persistence."""

import os
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

import composite_ops
from composite_ops import mul, reduce_sum
from kpex import autodiff as ad
from kpex import model as model_module
from kpex.config import VISUAL_DIM, EmbeddingConfig
from kpex.documents import Document, count_spans, enumerate_spans, make_document
from kpex.embedding import TokenVocabulary
from kpex.model import (
    ModelConfig,
    SpanScorer,
    score_spans,
)
from kpex.optim import clear_grads
from kpex.registry import CheckpointError, load_checkpoint, save_checkpoint
from synthetic import full_scale_config

# Logits of the small 8-filter model (seed 0) with the old no_transformer=True
# flag, recorded from the per-width forward that skipped the transformer.
LEGACY_NO_TRANSFORMER_LOGITS = [
    -0.26651717196311786, -0.2724980352337193, -0.11856607993391571,
    -0.02385946513158775, -0.03540053646688443, -0.12635286032005036,
    -0.250300361193726, -0.23541992936035322, -0.22902876729242325,
    -0.20181086717967808, -0.12947774757182773, -0.003027711910264955,
    -0.04707718896199317, 0.0031812594399576316, -0.06807699327594267,
    -0.054729235739220304, -0.005431712806483032, 0.0,
    -0.014879187626922792, -0.01770866451524013, -0.02980981860964832,
    -0.05312402475006737, -0.11712392257200073, -0.07944596203417398,
    -0.013222252835414141,
]


def _small_config(**overrides):
    defaults = dict(
        filters=16,
        heads=2,
        layers=1,
        dropout=0.2,
        embedding=EmbeddingConfig(token_dim=8, position_dim=4),
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def _model(config=None, seed=0, vocab_tokens=("blue", "red", "stapler")):
    config = config or _small_config()
    return SpanScorer(config, vocab=TokenVocabulary(vocab_tokens), seed=seed)


def parameter_census(model):
    """Counts of parameter groups, for asserting weight sharing."""
    params = dict(model.registry.items())
    groups = lambda prefix: {n.split("/")[1] for n in params if n.startswith(prefix)}
    return {"cnn_banks": len(groups("cnn/")), "transformer_layers": len(groups("transformer/")),
            "scorer_sets": 1, "embedding_tables": sum(n.startswith("embedding/") for n in params),
            "total_parameters": sum(t.data.size for t in params.values())}


def _doc(n, doc_id="d"):
    tokens = ["red", "blue", "stapler"] * (n // 3 + 1)
    return make_document(doc_id, " ".join(tokens[:n]))


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.max_span_length == 5
        assert cfg.filters == 64
        assert cfg.heads == 2
        assert cfg.layers == 1
        assert cfg.dropout == 0.2

    def test_full_scale(self):
        cfg = full_scale_config()
        assert cfg.filters == 512
        assert cfg.heads == 8
        assert cfg.embedding.token_dim == 1024
        assert cfg.embedding.position_dim == 256
        assert cfg.embedding.source == "frozen"

    def test_heads_must_divide_filters(self):
        with pytest.raises(ValueError, match="divisible"):
            _small_config(filters=10, heads=3)

    def test_roundtrip_dict(self):
        cfg = _small_config(no_visual=True, layers=2)
        assert ModelConfig.from_dict(asdict(cfg)) == cfg


class TestScoreSpans:
    def test_uniform_logits(self):
        probs, _ = score_spans(np.zeros(10))
        np.testing.assert_allclose(probs, np.full(10, 0.1))

    def test_masked_entries_exactly_zero(self):
        logits = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, False, True, False])
        probs, _ = score_spans(logits, mask)
        assert probs[1] == 0.0 and probs[3] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # renormalized over the kept entries only
        kept = np.exp([1.0, 3.0])
        np.testing.assert_allclose(probs[[0, 2]], kept / kept.sum())

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=20)
        a, _ = score_spans(logits)
        b, _ = score_spans(logits + 123.456)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_logits_stable(self):
        probs, _ = score_spans(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            score_spans(np.zeros(3), np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite span logits"):
            score_spans(np.array([0.5, bad, -1.0]))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="mask"):
            score_spans(np.zeros(3), np.ones(4, dtype=bool))


class TestForward:
    def test_logit_count_12_tokens(self):
        model = _model()
        doc = _doc(12)
        logits = model.forward(doc)
        assert logits.shape == (50,)
        assert len(model.distribution(doc).spans) == 50
        assert count_spans(12, 5) == 50

    def test_short_document_drops_long_banks(self):
        model = _model()
        logits = model.forward(_doc(3))
        assert logits.shape == (count_spans(3, 5),) == (6,)
        assert model.distribution(_doc(3)).spans[:, 1].max() == 3

    def test_span_order_matches_enumeration(self):
        # without a transformer, a span's logit sees only its own tokens: a
        # change to token t moves exactly the logits of the rows covering t
        model = _model(_small_config(layers=0, dropout=0.0))
        doc = _doc(9)
        before = model.forward(doc).data
        visual = doc.visual.copy()
        visual[4] = np.random.default_rng(0).uniform(size=visual.shape[1])
        after = model.forward(replace(doc, visual=visual)).data
        spans = enumerate_spans(9, 5)
        covers = (spans[:, 0] <= 4) & (4 < spans[:, 0] + spans[:, 1])
        np.testing.assert_array_equal(after != before, covers)

    def test_eval_forward_deterministic(self):
        model = _model()
        doc = _doc(9)
        a = model.forward(doc, train=False)
        b = model.forward(doc, train=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_dropout_varies(self):
        model = _model()
        doc = _doc(9)
        rng = np.random.default_rng(0)
        a = model.forward(doc, train=True, rng=rng)
        b = model.forward(doc, train=True, rng=rng)
        assert not np.array_equal(a.data, b.data)

    def test_distribution_sums_to_one(self):
        model = _model()
        dist = model.distribution(_doc(12))
        assert dist.probs.shape == (50,)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert (dist.probs > 0).all()

    def test_zero_layer_config(self):
        model = _model(_small_config(layers=0))
        assert parameter_census(model)["transformer_layers"] == 0
        logits = model.forward(_doc(6))
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("layers", [1, 0])
    def test_overflowing_forward_rejected(self, layers):
        # finite parameters and embedding can still overflow; no op scans
        # for it, so the span softmax refuses the logits
        model = _model(_small_config(layers=layers))
        for name in ("cnn/k1/weight", "scorer/w3"):
            model.registry[name].data *= 1e306
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite span"):
            model.distribution(_doc(6))

    def test_rejects_non_finite_embedding(self):
        # without a transformer no later check would see the NaN
        model = _model(_small_config(layers=0))
        model.registry["embedding/tokens"].data[:] = np.nan
        with pytest.raises(ValueError, match="non-finite values entering conv1d"):
            model.forward(_doc(6))


class TestFusedEmbeddingAndConcat:
    """The one-node embedding and the flat ``concat`` against the composite ops.

    The composite builds the embedding as ``embedding_lookup`` (table rows
    only), then an axis-1 ``concat`` with the position and visual tensors, and
    the logits as a ``reshape`` of each width's column, then an axis-0
    ``concat`` (a lone width is its reshape alone).
    """

    @staticmethod
    def _loss_and_grads(model, doc):
        logits = model.forward(doc, train=True, rng=np.random.default_rng(7))
        target = np.full(logits.shape, 1.0 / logits.shape[0])
        loss = ad.softmax_cross_entropy(logits, target)
        clear_grads(model.registry)
        loss.backward()
        # banks wider than the document get no gradient
        grads = {name: p.grad if p.grad is None else p.grad.tobytes()
                 for name, p in model.registry.items()}
        return logits.data.tobytes(), float(loss.data).hex(), grads

    @pytest.mark.parametrize("n", [1, 4, 11])
    @pytest.mark.parametrize("source", ["trainable", "frozen"])
    def test_matches_composite_bitwise(self, monkeypatch, source, n):
        rng = np.random.default_rng(n)
        tokens = tuple(rng.choice(["red", "blue", "stapler", "unseen"], size=n))
        visual = rng.uniform(size=(n, 18))
        doc = Document("d", tokens, visual, vectors=rng.normal(size=(n, 8)))
        config = _small_config(embedding=EmbeddingConfig(token_dim=8, position_dim=4,
                                                         source=source))
        model = _model(config) if source == "trainable" else SpanScorer(config, seed=0)
        fused = self._loss_and_grads(model, doc)

        def composite_concat(columns):
            flat = [composite_ops.reshape(c, (c.shape[0],)) for c in columns]
            return composite_ops.concat(flat, axis=0) if len(flat) > 1 else flat[0]

        monkeypatch.setattr(model_module, "embed_document", composite_ops.embed_document)
        monkeypatch.setattr(ad, "concat", composite_concat)
        assert self._loss_and_grads(model, doc) == fused


class TestParameterSharing:
    def test_census(self):
        census = parameter_census(_model())
        assert census["cnn_banks"] == 5
        assert census["transformer_layers"] == 1
        assert census["scorer_sets"] == 1
        assert census["embedding_tables"] == 1

    def test_single_transformer_shared_across_lengths(self):
        names = dict(_model().registry.items())
        attention = [n for n in names if "/attention/wq" in n]
        assert attention == ["transformer/layer0/attention/wq"]

    def test_cnn_bank_shapes_scale_with_k(self):
        model = _model()
        width = model.config.embedding.width
        for k in range(1, 6):
            assert model.registry[f"cnn/k{k}/weight"].shape == (k * width, 16)

    def test_gradients_reach_every_parameter(self):
        model = _model()
        logits = model.forward(_doc(8), train=False)
        reduce_sum(mul(logits, logits)).backward()
        missing = [
            name for name, p in model.registry.items() if p.grad is None
        ]
        assert missing == []

    def test_seed_controls_init(self):
        a = _model(seed=0).registry["cnn/k1/weight"].data
        b = _model(seed=0).registry["cnn/k1/weight"].data
        c = _model(seed=1).registry["cnn/k1/weight"].data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPersistence:
    def test_save_load_identical_forward(self, tmp_path):
        model = _model()
        doc = _doc(10)
        before = model.forward(doc).data
        path = str(tmp_path / "model.ckpt")
        model.save(path, extra_metadata={"step": 7})
        loaded, meta = SpanScorer.load(path)
        after = loaded.forward(doc).data
        np.testing.assert_array_equal(before, after)
        assert meta["step"] == 7
        assert meta["format"] == "span-scorer"
        assert loaded.config == model.config

    def test_save_load_roundtrip_bitwise(self, tmp_path):
        model = _model()
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        loaded, _ = SpanScorer.load(path)
        assert list(loaded.registry) == list(model.registry)
        for name, p in model.registry.items():
            q = loaded.registry[name]
            assert q.data.dtype == np.float64 and q.data.shape == p.data.shape
            assert q.data.tobytes() == p.data.tobytes(), name
            assert q.requires_grad
        # the forward looks tokens up in the registry's table, so training moves it
        reduce_sum(loaded.forward(_doc(4))).backward()
        assert loaded.registry["embedding/tokens"].grad.any()

    def test_registry_in_layout_order_through_save_and_load(self, tmp_path):
        # Adam's moment buffers and the checkpoint records follow this order
        model = _model(_small_config(layers=2))
        layout = [name for name, _, _ in
                  model_module._parameter_layout(model.config, len(model.vocab))]
        assert list(model.registry) == layout
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        _, arrays = load_checkpoint(path)
        assert list(arrays) == layout
        assert list(SpanScorer.load(path)[0].registry) == layout
        shuffled = dict(reversed(list(arrays.items())))
        rebuilt = SpanScorer(model.config, vocab=model.vocab, arrays=shuffled)
        assert list(rebuilt.registry) == layout

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.ckpt")
        _model().save(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        SpanScorer.load(path)

    def _edited_checkpoint(self, path, edit):
        model = _model()
        arrays = {name: p.data for name, p in model.registry.items()}
        edit(arrays)
        registry = {name: ad.Tensor(array) for name, array in arrays.items()}
        save_checkpoint(path, registry, {"format": "span-scorer",
                                         "config": asdict(model.config),
                                         "vocab": model.vocab.to_list()})

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.pop("scorer/b3"),
         "parameter set mismatch: missing ['scorer/b3'], unknown []"),
        (lambda a: a.update({"scorer/b4": np.zeros(1)}),
         "parameter set mismatch: missing [], unknown ['scorer/b4']"),
        (lambda a: a.update({"scorer/w3": np.zeros((1, 16)), "scorer/b3": np.zeros(2)}),
         "shape mismatch for scorer/w3: have (16, 1), got (1, 16); "
         "scorer/b3: have (1,), got (2,)"),
    ], ids=["missing", "unknown", "misshaped"])
    def test_load_error_messages(self, tmp_path, edit, message):
        path = str(tmp_path / "edited.ckpt")
        self._edited_checkpoint(path, edit)
        with pytest.raises(CheckpointError) as exc:
            SpanScorer.load(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_save_writes_no_config_digest(self, tmp_path):
        # config_digest is the run config's, and only the CLI computes it
        path = str(tmp_path / "model.ckpt")
        _model().save(path)
        _, meta = SpanScorer.load(path)
        assert "config_digest" not in meta

    def test_vocab_roundtrips(self, tmp_path):
        model = _model(vocab_tokens=("alpha", "beta"))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        loaded, _ = SpanScorer.load(path)
        assert loaded.vocab.to_list() == ["alpha", "beta"]

    def _legacy_checkpoint(self, path, no_transformer):
        """A checkpoint as written before ``no_transformer`` became layers=0."""
        cfg = _small_config(filters=8, embedding=EmbeddingConfig(token_dim=6, position_dim=4))
        model = _model(cfg)
        config = dict(asdict(cfg), no_transformer=no_transformer)
        save_checkpoint(path, model.registry,
                        {"format": "span-scorer", "config": config,
                         "vocab": model.vocab.to_list()})
        return model

    def test_legacy_no_transformer_checkpoint(self, tmp_path):
        path = str(tmp_path / "legacy.ckpt")
        self._legacy_checkpoint(path, no_transformer=True)
        loaded, _ = SpanScorer.load(path)
        assert loaded.config.layers == 0
        assert not any(n.startswith("transformer/") for n, _ in loaded.registry.items())
        doc = make_document("d", "red blue stapler red blue stapler red")
        # logits of the same checkpoint under the skip-the-transformer forward
        np.testing.assert_allclose(
            loaded.forward(doc).data, LEGACY_NO_TRANSFORMER_LOGITS, rtol=0, atol=1e-10
        )

    def test_legacy_transformer_flag_off_is_dropped(self, tmp_path):
        path = str(tmp_path / "legacy.ckpt")
        model = self._legacy_checkpoint(path, no_transformer=False)
        loaded, _ = SpanScorer.load(path)
        assert loaded.config == model.config
        doc = _doc(7)
        np.testing.assert_array_equal(loaded.forward(doc).data, model.forward(doc).data)

    # saved when EmbeddingConfig still had a visual_dim field, always 18
    VISUAL_DIM_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data", "checkpoints",
                                         "visual_dim_18.ckpt")

    def test_checkpoint_with_visual_dim_loads(self):
        loaded, meta = SpanScorer.load(self.VISUAL_DIM_CHECKPOINT)
        assert meta["config"]["embedding"]["visual_dim"] == 18
        # the model it was saved from: the same config and seed draw the same weights
        config = ModelConfig(max_span_length=2, filters=4, heads=2, layers=1, dropout=0.0,
                             embedding=EmbeddingConfig(token_dim=2, position_dim=2))
        assert loaded.config == config
        drawn = _model(config, seed=3)
        visual = np.linspace(0.0, 1.0, 7 * VISUAL_DIM).reshape(7, VISUAL_DIM)
        doc = make_document("d", "red blue stapler red blue stapler red", visual)
        got, want = loaded.distribution(doc), drawn.distribution(doc)
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_checkpoint_with_other_visual_dim_refused(self, tmp_path):
        with open(self.VISUAL_DIM_CHECKPOINT, "rb") as fh:
            data = fh.read()
        path = str(tmp_path / "visual_dim_17.ckpt")
        with open(path, "wb") as fh:  # the same length, so the header still fits
            fh.write(data.replace(b'"visual_dim": 18', b'"visual_dim": 17'))
        with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: visual_dim 17 is not 18$"):
            SpanScorer.load(path)

    def test_trainable_requires_vocab(self):
        with pytest.raises(ValueError, match="vocabulary"):
            SpanScorer(_small_config())

    def test_frozen_requires_vectors(self):
        cfg = _small_config(
            embedding=EmbeddingConfig(token_dim=8, position_dim=4, source="frozen")
        )
        with pytest.raises(ValueError, match="document 'd' has no frozen vectors"):
            SpanScorer(cfg).forward(_doc(4))

    def test_frozen_checkpoint_loads_from_path_alone(self, tmp_path):
        cfg = _small_config(
            embedding=EmbeddingConfig(token_dim=8, position_dim=4, source="frozen")
        )
        model = SpanScorer(cfg, seed=3)
        path = str(tmp_path / "frozen.ckpt")
        model.save(path)
        loaded, _ = SpanScorer.load(path)
        assert loaded.config == cfg
        doc = replace(_doc(7), vectors=np.random.default_rng(0).normal(size=(7, 8)))
        assert loaded.forward(doc).data.tobytes() == model.forward(doc).data.tobytes()
