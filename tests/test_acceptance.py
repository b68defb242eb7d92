"""Acceptance suite: twelve end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Full-corpus numbers are out of reach on a desk machine, so the
heavy criteria are property-based and direction-only: planted-signal corpora
where the correct behavior is known by construction, with wide margins
between the required threshold and what the implementation actually reaches.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from kpex.baselines import CorpusStats, build_word_graph, pagerank
from kpex.config import EmbeddingConfig, TrainingConfig
from kpex.documents import Span, count_spans, enumerate_spans, make_document, truncate
from kpex.embedding import TokenVocabulary, position_matrix
from kpex.gradcheck import finite_difference_check, gradcheck_example
from kpex.inference import chunk_and_merge, chunk_document, predict_topk
from kpex.metrics import evaluate, judge_agreement
from kpex.model import ModelConfig, SpanDistribution, SpanScorer
from kpex.training import (
    TrainingExample,
    keyphrase_loss,
    prepare_examples,
    run_training,
)
from kpex.weaksup import build_qp_dataset
from synthetic import lexical_corpus, visual_corpus, weak_supervision_setup
from test_baselines import tfidf_score
from test_embedding import position_encoding
from test_model import parameter_census


def _slim_config(dropout=0.2, **kw):
    """Small-but-real model: full architecture, desk-friendly sizes."""
    return ModelConfig(
        filters=32, heads=2, layers=1, dropout=dropout,
        embedding=EmbeddingConfig(token_dim=24, position_dim=8), **kw,
    )


def _p_at_1(model, items):
    preds, gold = {}, {}
    for item in items:
        doc = truncate(item, 256)
        pred = predict_topk(model.distribution(doc), doc, k=1)
        preds[doc.id] = pred.phrase_list()
        gold[doc.id] = list(item.keyphrases)
    return evaluate(preds, gold, depths=(1,), f1_depths=()).precision[1]


def test_criterion_01_gradient_suite():
    """Finite differences agree with backprop across every parameter."""
    started = time.monotonic()
    doc, target = gradcheck_example(seed=0)
    vocab = TokenVocabulary.build([doc], min_count=2)
    model = SpanScorer(ModelConfig(), vocab=vocab, seed=0)  # desk config
    example = TrainingExample(doc, target)
    errors = finite_difference_check(
        lambda: keyphrase_loss(model, example), model.registry,
        samples_per_param=16, seed=0,
    )
    elapsed = time.monotonic() - started
    worst = max(errors.values())
    print(f"criterion 1: max rel err {worst:.3e} over {len(errors)} "
          f"parameters in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_02_softmax_span_normalization():
    """100 random documents: probabilities sum to 1, masked spans exactly 0."""
    rng = np.random.default_rng(0)
    vocab = TokenVocabulary(tuple(f"w{i}" for i in range(30)))
    model = SpanScorer(_slim_config(), vocab=vocab, seed=0)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 65))
        text = " ".join(f"w{rng.integers(0, 30)}" for _ in range(n))
        doc = make_document("d", text)
        dist = model.distribution(doc)
        assert dist.probs.shape == (count_spans(n, 5),)
        worst_gap = max(worst_gap, abs(dist.probs.sum() - 1.0))
        assert abs(dist.probs.sum() - 1.0) <= 1e-6
        mask = rng.random(len(dist.probs)) < 0.5
        if not mask.any():
            mask[0] = True
        masked = model.distribution(doc, mask=mask)
        assert (masked.probs[~mask] == 0.0).all()
        assert abs(masked.probs.sum() - 1.0) <= 1e-6
    print(f"criterion 2: 100 documents, worst |sum-1| = {worst_gap:.2e}")


def test_criterion_03_parameter_sharing_audit():
    """Exactly 5 CNN banks, 1 transformer set, 1 scorer set."""
    census = parameter_census(SpanScorer(
        ModelConfig(), vocab=TokenVocabulary(("a", "b")), seed=0
    ))
    print(f"criterion 3: census {census}")
    assert census["cnn_banks"] == 5
    assert census["transformer_layers"] == 1
    assert census["scorer_sets"] == 1


def test_criterion_04_overfit_planted_corpus():
    """32 planted-keyphrase documents reach training P@1 >= 0.95."""
    started = time.monotonic()
    corpus = lexical_corpus(seed=11, n_docs=32)
    vocab = TokenVocabulary.build(corpus, min_count=1)
    model = SpanScorer(_slim_config(dropout=0.0), vocab=vocab, seed=0)
    examples, _ = prepare_examples(corpus, 5)
    score, epochs_done = 0.0, 0
    while epochs_done < 500:
        run_training(model, examples, TrainingConfig(
            lr_start=3e-3, lr_end=1e-3, batch_size=8, max_epochs=20,
            validation_fraction=0.0, seed=epochs_done,
        ))
        epochs_done += 20
        score = _p_at_1(model, corpus)
        if score >= 0.95:
            break
    elapsed = time.monotonic() - started
    print(f"criterion 4: training P@1 {score:.3f} after {epochs_done} epochs "
          f"in {elapsed:.1f}s")
    assert score >= 0.95
    assert elapsed < 300.0


def test_criterion_05_visual_signal_direction():
    """Keyphrase marked only visually: full model works, no_visual cannot."""
    train = visual_corpus(seed=21, n_docs=64)
    heldout = visual_corpus(seed=22, n_docs=24, id_prefix="vh")
    vocab = TokenVocabulary.build(train, min_count=1)
    examples, _ = prepare_examples(train, 5)
    scores = {}
    for ablate in (False, True):
        model = SpanScorer(_slim_config(no_visual=ablate), vocab=vocab, seed=0)
        run_training(model, examples, TrainingConfig(
            lr_start=2e-3, lr_end=3e-4, batch_size=8, max_epochs=60,
            validation_fraction=0.0,
        ))
        scores[ablate] = _p_at_1(model, heldout)
    print(f"criterion 5: held-out P@1 full {scores[False]:.3f}, "
          f"no_visual {scores[True]:.3f}")
    assert scores[False] >= 0.9
    assert scores[True] <= 0.5


def test_criterion_06_pretraining_direction():
    """Query-log pretraining beats finetune-only by >= 0.1 P@1 (5 seeds)."""
    gaps = []
    for seed in range(5):
        pretrain_docs, log, finetune, heldout = weak_supervision_setup(
            seed=100 + seed
        )
        qp_docs, _ = build_qp_dataset(pretrain_docs, log)
        qp_train, _ = prepare_examples(qp_docs, 5)
        tune_examples, _ = prepare_examples(finetune, 5)
        finetune_cfg = TrainingConfig(
            lr_start=3e-4, lr_end=1e-4, batch_size=8, max_epochs=10,
            validation_fraction=0.0, seed=seed,
        )

        vocab_a = TokenVocabulary.build(
            [truncate(d, 256) for d in pretrain_docs], min_count=2)
        pretrained = SpanScorer(_slim_config(), vocab=vocab_a, seed=seed)
        run_training(pretrained, qp_train, TrainingConfig(
            lr_start=1e-3, lr_end=3e-4, batch_size=16, max_epochs=20,
            validation_fraction=0.0, seed=seed,
        ))
        run_training(pretrained, tune_examples, finetune_cfg)

        vocab_b = TokenVocabulary.build(
            [truncate(d, 256) for d in finetune], min_count=2)
        tuned_only = SpanScorer(_slim_config(), vocab=vocab_b, seed=seed)
        run_training(tuned_only, tune_examples, finetune_cfg)

        gaps.append(_p_at_1(pretrained, heldout) - _p_at_1(tuned_only, heldout))
    mean_gap = float(np.mean(gaps))
    print(f"criterion 6: mean P@1 gap {mean_gap:+.3f} "
          f"(per seed {[f'{g:+.3f}' for g in gaps]})")
    assert mean_gap >= 0.1


def test_criterion_07_metric_oracle():
    """Macro P/R@{1,3,5} and F1@10 vs brute force on 1000 random cases."""
    rng = np.random.default_rng(7)
    phrases = [f"p{i}" for i in range(14)]
    depths = (1, 3, 5)
    for case in range(1000):
        gold, preds = {}, {}
        for i in range(int(rng.integers(1, 5))):
            gold[f"d{i}"] = list(
                rng.choice(phrases, size=int(rng.integers(1, 6)), replace=False)
            )
            if rng.random() < 0.9:
                preds[f"d{i}"] = list(rng.choice(phrases, size=int(rng.integers(0, 12))))
        report = evaluate(preds, gold, depths=depths, f1_depths=(10,))
        brute = {d: ([], []) for d in depths}
        brute_f1 = []
        for doc_id in gold:
            gset = set(gold[doc_id])
            seen = list(dict.fromkeys(preds.get(doc_id, [])))
            for d in depths:
                hits = len(set(seen[:d]) & gset)
                brute[d][0].append(hits / d)
                brute[d][1].append(hits / len(gset))
            hits10 = len(set(seen[:10]) & gset)
            p10, r10 = hits10 / 10, hits10 / len(gset)
            brute_f1.append(0.0 if hits10 == 0 else 2 * p10 * r10 / (p10 + r10))
        for d in depths:
            assert report.precision[d] == pytest.approx(np.mean(brute[d][0]), abs=1e-12)
            assert report.recall[d] == pytest.approx(np.mean(brute[d][1]), abs=1e-12)
        assert report.f1[10] == pytest.approx(np.mean(brute_f1), abs=1e-12)
        recalls = [report.recall[d] for d in depths]
        assert recalls == sorted(recalls)
    print("criterion 7: 1000 random cases match brute force; R@k monotone")


class _TableModel:
    def __init__(self, tables):
        self.tables = tables

    def distribution(self, chunk):
        return self.tables[chunk.id]


def _canned(n_tokens, probs):
    spans = enumerate_spans(n_tokens, 5)
    return SpanDistribution(
        spans, np.asarray(probs, dtype=np.float64), np.ones(len(spans), dtype=bool)
    )


def test_criterion_08_chunk_merge():
    """Decaying-weight merge vs oracle; hand case 0.5 + 0.3*0.9^2 = 0.743."""
    doc = make_document("d", "alpha b c d alpha e")
    tables = {
        "d#chunk0": _canned(2, [0.5, 0.3, 0.2]),  # alpha scores 0.5
        "d#chunk1": _canned(2, [0.6, 0.3, 0.1]),
        "d#chunk2": _canned(2, [0.3, 0.5, 0.2]),  # alpha scores 0.3
    }
    pred = chunk_and_merge(_TableModel(tables), doc, chunk_len=2)
    merged = dict(pred.phrases)
    assert merged["alpha"] == 0.5 + 0.9**2 * 0.3  # = 0.743
    assert merged["alpha"] == pytest.approx(0.743)

    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        chunk_len = int(rng.integers(3, 9))
        tokens = [f"v{rng.integers(0, 6)}" for _ in range(n)]
        doc = make_document("d", " ".join(tokens))
        tables, expected = {}, {}
        for p, chunk in enumerate(chunk_document(doc, chunk_len)):
            spans = enumerate_spans(len(chunk), 5)
            probs = rng.dirichlet(np.ones(len(spans)))
            tables[chunk.id] = _canned(len(chunk), probs)
            best = {}
            for span, prob in zip(spans, probs):
                phrase = chunk.phrase(span)
                best[phrase] = max(best.get(phrase, 0.0), prob)
            for phrase, prob in best.items():
                expected[phrase] = expected.get(phrase, 0.0) + 0.9**p * prob
        got = dict(chunk_and_merge(_TableModel(tables), doc, chunk_len=chunk_len).phrases)
        assert set(got) == set(expected)
        for phrase in expected:
            assert got[phrase] == pytest.approx(expected[phrase], abs=1e-12)
    print("criterion 8: hand case 0.743 exact; 200 random tables match oracle")


def test_criterion_09_position_encoding():
    """Sinusoidal codes match direct evaluation; frozen i=1, P=4 vector."""
    worst = 0.0
    for dims in range(2, 65, 2):
        mat = position_matrix(257, dims)
        half = np.arange(dims // 2)
        for i in range(257):
            direct = np.empty(dims)
            angles = i / np.power(10000.0, 2.0 * half / dims)
            direct[0::2] = np.sin(angles)
            direct[1::2] = np.cos(angles)
            gap = np.abs(mat[i] - direct).max()
            worst = max(worst, gap)
            assert gap <= 1e-12
    np.testing.assert_allclose(
        position_encoding(1, 4),
        [0.841471, 0.540302, 0.010000, 0.999950],
        atol=1e-6,
    )
    print(f"criterion 9: direct-eval max gap {worst:.2e} for i<=256, P<=64")


def test_criterion_10_baselines():
    """TFIDF hand case exact; TextRank symmetric and convergent."""
    doc = make_document("d", "a b a")
    stats = CorpusStats(2, {"a": 2, "b": 1})
    score_a = tfidf_score(Span(0, 1), doc, stats)
    score_b = tfidf_score(Span(1, 1), doc, stats)
    assert score_a == (2 / 3) * (math.log(3 / 3) + 1)
    assert score_b == (1 / 3) * (math.log(3 / 2) + 1)

    cycle = make_document("d", "x y z x")
    result = pagerank(build_word_graph(cycle))
    spread = max(result.scores.values()) - min(result.scores.values())
    assert spread <= 1e-12
    assert result.residual < 1e-8
    print(f"criterion 10: tfidf {score_a:.4f}/{score_b:.4f}; "
          f"cycle spread {spread:.1e}, residual {result.residual:.1e}")


def test_criterion_11_judge_agreement():
    """Identity lists 100%; the two-of-three depth-3 case 66.67%."""
    same = judge_agreement([[["x", "y", "z"], ["x", "y", "z"]]], depth=3)
    assert same.percentage == 100.0
    mixed = judge_agreement([[["x", "y", "z"], ["x", "w", "z"]]], depth=3)
    assert mixed.percentage == pytest.approx(66.67, abs=0.01)
    print(f"criterion 11: identity {same.percentage:.2f}%, "
          f"two-of-three {mixed.percentage:.2f}%")


def test_criterion_12_checkpoint_roundtrip(tmp_path):
    """save -> load -> forward reproduces span distributions bit for bit."""
    vocab = TokenVocabulary(tuple(f"w{i}" for i in range(10)))
    model = SpanScorer(_slim_config(), vocab=vocab, seed=3)
    docs = [
        make_document(f"d{i}", " ".join(f"w{(i + j) % 10}" for j in range(5 + 3 * i)))
        for i in range(4)
    ]
    before = [model.distribution(doc).probs for doc in docs]
    path = str(tmp_path / "model.ckpt")
    model.save(path)
    loaded, _ = SpanScorer.load(path)
    after = [loaded.distribution(doc).probs for doc in docs]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)
    print("criterion 12: distributions bit-identical across save/load")
