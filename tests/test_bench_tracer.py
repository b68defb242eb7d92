"""The benchmark's tracer (bench/tracing.py) against the current package.

The tracer looks up every function it wraps by name, so renaming one in
``src/`` breaks ``bench/run.py --trace 1``. This test installs the tracer,
runs one small command of each kind through it and restores it. It only
reads ``bench/``; every output goes to a temporary directory.
"""

import importlib.util
import os

import numpy as np

from kpex import cli
from kpex.config import EmbeddingConfig
from kpex.documents import read_dataset
from kpex.embedding import TokenVocabulary
from kpex.fileio import write_jsonl
from kpex.model import ModelConfig, SpanScorer

HERE = os.path.dirname(__file__)
TRACING = os.path.join(HERE, os.pardir, "bench", "tracing.py")
GOLDEN_PAGES = os.path.join(HERE, "data", "golden", "pages.jsonl")


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _commands(tmp_path):
    docs, _ = read_dataset(GOLDEN_PAGES)
    model = str(tmp_path / "model.ckpt")
    config = ModelConfig(filters=8, embedding=EmbeddingConfig(token_dim=6, position_dim=4))
    SpanScorer(config, vocab=TokenVocabulary.build(docs), seed=0).save(model)
    train = str(tmp_path / "train.jsonl")
    rng = np.random.default_rng(0)
    write_jsonl(train, [
        {"id": f"d{i}", "text": " ".join(f"w{j}" for j in rng.integers(0, 10, 12)),
         "keyphrases": ["w1"]}
        for i in range(4)
    ])
    out = str(tmp_path / "out")
    predict = ["predict", "--model", model, "--data", GOLDEN_PAGES]
    return [
        ["--set", "model.filters=8", "--set", "embedding.token_dim=6",
         "--set", "embedding.position_dim=4", "--set", "train.max_epochs=1",
         "train", "--data", train, "--out", out + "-run"],
        predict + ["--out", out + "-predict.jsonl"],
        predict + ["--chunked", "--dedup", "--out", out + "-dedup.jsonl"],
        ["baseline", "--method", "tfidf", "--data", GOLDEN_PAGES,
         "--out", out + "-tfidf.jsonl"],
        ["baseline", "--method", "textrank", "--data", GOLDEN_PAGES,
         "--out", out + "-textrank.jsonl"],
    ]


def test_tracer_installs_runs_and_restores(tmp_path):
    commands = _commands(tmp_path)
    tracer = _tracer_class()()
    try:
        tracer.install()  # raises KeyError for a name the package lost
        patches = list(tracer._patches)
        for argv in commands:
            assert cli.main(argv) == 0, argv
        summary = tracer.summary()
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert summary["training.steps"] > 0
    assert summary["inference.phrases_ranked"] > 0
    assert summary["inference.dedup.phrases_in"] > 0
    assert summary["baselines.candidate_filter.kept_ratio"] > 0
    # no ranked phrase is re-tokenized: document tokens are already normalized
    assert summary["inference.normalize_phrase.calls"] == 0
    # the per-width metrics read conv1d's (x, weight, bias) arguments
    for k in range(1, 6):
        assert summary[f"model.conv.k{k}.ms"] > 0, k
        assert summary[f"model.attention.k{k}.ms"] > 0, k
    assert summary["autodiff.tensors_per_forward"] > 0

