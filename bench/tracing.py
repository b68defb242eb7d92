"""Span tracing from outside the program.

``Tracer.install()`` replaces the public functions of each kpex module with
wrappers that record a span (name, start, end, parent span, trace id) or
bump a counter, at the binding the program actually calls through: a
function imported into another module with ``from .x import f`` is wrapped
there as well. ``Tracer.restore()`` puts every original object back.

Spans of one document share a trace id: the id of the first document found
among a call's arguments, else the id of the enclosing span. Spans are kept
in memory; ``summary()`` folds them into per-layer totals and ``dump()``
writes them out as JSONL.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

COMMANDS = ("train", "predict", "chunked", "chunked_dedup", "tfidf", "textrank")
WIDTHS = (1, 2, 3, 4, 5)


def command_label(argv):
    """The benchmark's name for one ``kpex`` argv."""
    if "train" in argv:
        return "train"
    if "baseline" in argv:
        return argv[argv.index("--method") + 1]
    if "--dedup" in argv:
        return "chunked_dedup"
    return "chunked" if "--chunked" in argv else "predict"


def _trace_id(args):
    """Id of the first document among the arguments, chunk suffix dropped."""
    for a in args:
        doc = getattr(a, "document", a)  # LabeledDocument, TrainingExample
        doc_id = getattr(doc, "doc_id", None) or getattr(doc, "id", None)
        if isinstance(doc_id, str):
            return doc_id.split("#", 1)[0]
    return None


class Tracer:
    def __init__(self):
        # [id, parent, trace, name, start, end, child seconds, command]
        self.spans = []
        self.counts = defaultdict(float)  # (command, key) -> count
        self.invocations = defaultdict(int)  # command -> times cli.main ran it
        self.distribution_ms = []
        self._stack = []
        self._patches = []
        self._command = None
        self._conv_k = 0
        self._forward_depth = 0

    # -- spans ----------------------------------------------------------

    def _open(self, name, trace):
        parent = self._stack[-1] if self._stack else None
        if trace is None:
            trace = parent[2] if parent else f"command{len(self.spans)}"
        span = [len(self.spans), parent[0] if parent else None, trace, name,
                time.perf_counter(), None, 0.0, self._command]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[5] - span[4]

    def _timed(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = tracer._open(label, _trace_id(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    def count(self, key, value=1):
        self.counts[(self._command, key)] += value

    def _counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, wrap):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(wrap(original.__func__)))
        else:
            setattr(owner, attr, wrap(original))

    def restore(self):
        """Put back every object ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    def install(self):
        from kpex import autodiff, baselines, cli, documents, inference, model, optim, training

        tracer = self
        count = self.count

        def main_name(args, kwargs):
            tracer._command = command_label(list(args[0]))
            tracer.invocations[tracer._command] += 1
            return f"cli.main.{tracer._command}"

        self._patch(cli, "main", lambda f: self._timed(f, main_name))

        self._patch(documents, "read_dataset", lambda f: self._timed(
            f, "documents.read_dataset",
            lambda a, k, r, s: count("documents.read_dataset.docs", len(r[0]))))
        for owner in (model, baselines):
            self._patch(owner, "enumerate_spans", lambda f: self._timed(
                f, "documents.enumerate_spans",
                lambda a, k, r, s: count("documents.candidate_spans", len(r))))

        self._patch(model, "embed_document", lambda f: self._timed(
            f, "embedding.embed_document",
            lambda a, k, r, s: count("embedding.embed_document.tokens", len(a[0]))))

        def forward(f):
            timed = self._timed(
                f, lambda a, k: "model.forward." + ("train" if k.get("train") else "infer"))

            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                tracer._forward_depth += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer._forward_depth -= 1

            return wrapper

        self._patch(model.SpanScorer, "forward", forward)
        self._patch(model.SpanScorer, "distribution", lambda f: self._timed(
            f, "model.distribution",
            lambda a, k, r, s: tracer.distribution_ms.append(1e3 * (s[5] - s[4]))))
        self._patch(model, "score_spans", lambda f: self._timed(
            f, "model.score_spans",
            lambda a, k, r, s: count("model.logits", len(r[0]))))

        def conv_name(args, kwargs):
            x, weight = args[0], args[1]
            tracer._conv_k = weight.shape[0] // x.shape[1]
            return f"model.conv.k{tracer._conv_k}"

        self._patch(autodiff, "conv1d", lambda f: self._timed(f, conv_name))
        self._patch(autodiff, "multi_head_self_attention", lambda f: self._timed(
            f, lambda a, k: f"model.attention.k{tracer._conv_k}"))

        def tensor_init(f):
            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                if tracer._forward_depth:
                    count("autodiff.tensors_in_forward")
                return f(*args, **kwargs)

            return wrapper

        self._patch(autodiff.Tensor, "__init__", tensor_init)
        self._patch(autodiff.Tensor, "backward", lambda f: self._timed(f, "autodiff.backward"))
        self._patch(training, "softmax_cross_entropy", lambda f: self._timed(
            f, "autodiff.softmax_cross_entropy"))

        self._patch(training, "run_training", lambda f: self._timed(f, "training.run_training"))
        self._patch(training, "prepare_examples", lambda f: self._timed(
            f, "training.prepare_examples"))

        def loss_counter(f):
            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                if kwargs.get("train"):
                    count("training.train_losses")
                return f(*args, **kwargs)

            return wrapper

        self._patch(training, "keyphrase_loss", loss_counter)
        self._patch(optim.Adam, "step", lambda f: self._timed(f, "optim.adam_step"))

        self._patch(model, "save_checkpoint", lambda f: self._timed(
            f, "registry.save_checkpoint",
            lambda a, k, r, s: count("registry.checkpoint_bytes", os.path.getsize(a[0]))))
        self._patch(model, "load_checkpoint", lambda f: self._timed(
            f, "registry.load_checkpoint"))

        def ranked(a, k, r, s):
            count("inference.phrases_ranked", len(r.phrases))

        self._patch(inference, "predict_topk", lambda f: self._timed(
            f, "inference.predict_topk", ranked))
        self._patch(inference, "chunk_and_merge", lambda f: self._timed(
            f, "inference.chunk_and_merge", ranked))
        self._patch(inference, "chunk_document", lambda f: self._timed(
            f, "inference.chunk_document",
            lambda a, k, r, s: count("inference.chunks", len(r))))

        def dedup_counts(a, k, r, s):
            count("inference.dedup.phrases_in", len(a[0].phrases))
            count("inference.dedup.phrases_kept", len(r.phrases))

        self._patch(inference, "dedup_substrings", lambda f: self._timed(
            f, "inference.dedup_substrings", dedup_counts))
        self._patch(inference, "write_predictions", lambda f: self._timed(
            f, "inference.write_predictions",
            lambda a, k, r, s: count("inference.write_predictions.bytes",
                                     os.path.getsize(a[0]))))
        # baselines bound its own name for normalize_phrase at import time
        for owner in (inference, baselines):
            self._patch(owner, "normalize_phrase", lambda f: self._counted(
                f, "inference.normalize_phrase.calls"))

        self._patch(baselines.CorpusStats, "build", lambda f: self._timed(
            f, "baselines.corpus_stats"))
        self._patch(baselines, "tfidf_rank", lambda f: self._timed(f, "baselines.tfidf_rank"))
        self._patch(baselines, "textrank_rank", lambda f: self._timed(
            f, "baselines.textrank_rank"))

        def graph_counts(a, k, r, s):
            count("baselines.build_word_graph.nodes", len(r.nodes))
            count("baselines.build_word_graph.edges", len(r.weights) / 2)

        self._patch(baselines, "build_word_graph", lambda f: self._timed(
            f, "baselines.build_word_graph", graph_counts))
        self._patch(baselines, "pagerank", lambda f: self._timed(
            f, "baselines.pagerank",
            lambda a, k, r, s: count("baselines.pagerank.iterations", r.iterations)))

        def filter_counts(a, k, r, s):
            count("baselines.candidate_filter.in", len(a[0]))
            count("baselines.candidate_filter.kept", len(r))

        self._patch(baselines, "candidate_filter", lambda f: self._timed(
            f, "baselines.candidate_filter", filter_counts))

    # -- results --------------------------------------------------------

    def totals(self):
        """name -> [busy s, self s, calls], each per run of its command, so
        the figures cover one run of every command the workload times."""
        out = defaultdict(lambda: [0.0, 0.0, 0.0])
        for span in self.spans:
            if span[5] is None:
                continue
            share = 1.0 / self.invocations[span[7]]
            busy = span[5] - span[4]
            row = out[span[3]]
            row[0] += busy * share
            row[1] += (busy - span[6]) * share
            row[2] += share
        return out

    def summary(self):
        """Per-layer metrics over one run of each command of the workload."""
        totals = self.totals()
        c = defaultdict(float)
        for (command, key), value in self.counts.items():
            c[key] += value / self.invocations[command]

        def ms(name):
            return 1e3 * totals[name][0] if name in totals else 0.0

        def self_ms(name):
            return 1e3 * totals[name][1] if name in totals else 0.0

        def calls(name):
            return totals[name][2] if name in totals else 0.0

        def per_pass(key):
            return c[key]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for cmd in COMMANDS:
            out[f"cli.main.{cmd}.ms"] = ms(f"cli.main.{cmd}")
            out[f"cli.main.{cmd}.self_ms"] = self_ms(f"cli.main.{cmd}")
        out["documents.read_dataset.ms"] = ms("documents.read_dataset")
        out["documents.read_dataset.docs"] = per_pass("documents.read_dataset.docs")
        out["documents.enumerate_spans.ms"] = ms("documents.enumerate_spans")
        out["documents.candidate_spans"] = per_pass("documents.candidate_spans")
        out["embedding.embed_document.ms"] = ms("embedding.embed_document")
        out["embedding.embed_document.tokens"] = per_pass("embedding.embed_document.tokens")
        for mode in ("infer", "train"):
            out[f"model.forward.{mode}.ms"] = ms(f"model.forward.{mode}")
            out[f"model.forward.{mode}.self_ms"] = self_ms(f"model.forward.{mode}")
            out[f"model.forward.{mode}.calls"] = calls(f"model.forward.{mode}")
        for k in WIDTHS:
            out[f"model.conv.k{k}.ms"] = ms(f"model.conv.k{k}")
        for k in WIDTHS:
            out[f"model.attention.k{k}.ms"] = ms(f"model.attention.k{k}")
        latencies = self.distribution_ms
        out["model.distribution.p50_ms"] = _percentile(latencies, 50)
        out["model.distribution.p99_ms"] = _percentile(latencies, 99)
        out["model.distribution.n"] = calls("model.distribution")
        out["model.score_spans.ms"] = ms("model.score_spans")
        out["model.logits"] = per_pass("model.logits")
        forwards = calls("model.forward.infer") + calls("model.forward.train")
        out["autodiff.tensors_per_forward"] = ratio(
            per_pass("autodiff.tensors_in_forward"), forwards)
        out["autodiff.backward.ms"] = ms("autodiff.backward")
        out["autodiff.softmax_cross_entropy.ms"] = ms("autodiff.softmax_cross_entropy")
        out["training.run_training.self_ms"] = self_ms("training.run_training")
        out["training.prepare_examples.ms"] = ms("training.prepare_examples")
        out["training.steps"] = calls("optim.adam_step")
        out["training.docs_per_step"] = ratio(
            per_pass("training.train_losses"), calls("optim.adam_step"))
        out["optim.adam_step.ms"] = ms("optim.adam_step")
        out["optim.adam_step.calls"] = calls("optim.adam_step")
        out["registry.save_checkpoint.ms"] = ms("registry.save_checkpoint")
        out["registry.checkpoint_bytes"] = per_pass("registry.checkpoint_bytes")
        out["registry.load_checkpoint.ms"] = ms("registry.load_checkpoint")
        out["inference.predict_topk.ms"] = ms("inference.predict_topk")
        out["inference.normalize_phrase.calls"] = per_pass("inference.normalize_phrase.calls")
        out["inference.phrases_ranked"] = per_pass("inference.phrases_ranked")
        out["inference.chunk_and_merge.self_ms"] = self_ms("inference.chunk_and_merge")
        out["inference.chunks"] = per_pass("inference.chunks")
        out["inference.dedup_substrings.ms"] = ms("inference.dedup_substrings")
        out["inference.dedup.phrases_in"] = per_pass("inference.dedup.phrases_in")
        out["inference.dedup.phrases_kept"] = per_pass("inference.dedup.phrases_kept")
        out["inference.dedup.kept_ratio"] = ratio(
            c["inference.dedup.phrases_kept"], c["inference.dedup.phrases_in"])
        out["inference.write_predictions.ms"] = ms("inference.write_predictions")
        out["inference.write_predictions.bytes"] = per_pass("inference.write_predictions.bytes")
        out["baselines.corpus_stats.ms"] = ms("baselines.corpus_stats")
        out["baselines.tfidf_rank.ms"] = ms("baselines.tfidf_rank")
        out["baselines.textrank_rank.ms"] = ms("baselines.textrank_rank")
        out["baselines.build_word_graph.ms"] = ms("baselines.build_word_graph")
        out["baselines.build_word_graph.nodes"] = per_pass("baselines.build_word_graph.nodes")
        out["baselines.build_word_graph.edges"] = per_pass("baselines.build_word_graph.edges")
        out["baselines.pagerank.ms"] = ms("baselines.pagerank")
        out["baselines.pagerank.iterations"] = per_pass("baselines.pagerank.iterations")
        out["baselines.candidate_filter.ms"] = ms("baselines.candidate_filter")
        out["baselines.candidate_filter.kept_ratio"] = ratio(
            c["baselines.candidate_filter.kept"], c["baselines.candidate_filter.in"])
        return out

    def largest_self(self, command):
        """(span name, self ms per run) under one command, largest first."""
        by_name = defaultdict(float)
        for span in self.spans:
            if span[5] is not None and span[7] == command:
                by_name[span[3]] += span[5] - span[4] - span[6]
        runs = self.invocations[command]
        return sorted(((n, 1e3 * s / runs) for n, s in by_name.items()),
                      key=lambda kv: -kv[1])

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "trace", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:6]))) + "\n")


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
