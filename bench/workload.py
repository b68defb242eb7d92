"""One workload process: set up, time the kpex CLI, check every output.

Started by ``run.py`` from the root of a source checkout; it imports kpex
from ``src/`` and needs no install and no network. BLAS is pinned to one
thread before numpy loads, and the process refuses to report if the thread
count in effect differs.

Load is closed-loop from this one process: each command runs ``kpex.cli.main``
on the whole corpus file, one document at a time, as the CLI does. A pass
runs every command of the workload once; passes repeat until ``--seconds``
is spent. ``tokens_per_s`` is the median over passes and each command's
rate the median over its calls. With ``--trace 1`` the
first half of the time runs untraced passes and the second half traced
ones, so the per-layer numbers come with the tracing overhead.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import corpus  # noqa: E402
import environment  # noqa: E402
from tracing import COMMANDS, Tracer  # noqa: E402

TRAIN_EPOCHS = 2
BATCH_SIZE = 16  # kpex's default train.batch_size
VALIDATION_FRACTION = 0.1  # kpex's default train.validation_fraction
MODEL_SEED = 0  # init seed of the untrained predict checkpoint
# kpex's training seed picks the validation documents and the batch order; a
# fixed one keeps the training work the same for every corpus seed
TRAIN_SEED = 0
FULL_LIST = "100000"  # --top-k that keeps every ranked phrase
WARMUP_DOCS = 4
WARMUP_TOKENS = 64


class Workload:
    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        self.docs = corpus.generate(name, seed)
        self.ref = checks.Reference(self.docs)
        self.data = os.path.join(work, "corpus.jsonl")
        self.model = os.path.join(work, "model.ckpt")
        self.out = os.path.join(work, "out")
        n_train = len(self.docs) - int(len(self.docs) * VALIDATION_FRACTION)
        self.steps = TRAIN_EPOCHS * math.ceil(n_train / BATCH_SIZE)
        self.tokens = sum(min(len(d["tokens"]), corpus.TRUNCATE_AT) for d in self.docs)
        self.all_tokens = sum(len(d["tokens"]) for d in self.docs)

    def commands(self, data=None, epochs=TRAIN_EPOCHS):
        """(label, kpex argv) for each command one pass runs, in order."""
        data = data or self.data
        out = self.out
        if self.name == "train_mixed":
            return [("train", ["--seed", str(TRAIN_SEED), "--set",
                               f"train.max_epochs={epochs}", "train", "--data", data,
                               "--out", os.path.join(out, "run")])]
        predict = ["predict", "--model", self.model, "--data", data]
        if self.name == "predict_page":
            return [
                ("predict", predict + ["--out", os.path.join(out, "predict.jsonl")]),
                ("tfidf", ["baseline", "--method", "tfidf", "--data", data,
                           "--out", os.path.join(out, "tfidf.jsonl")]),
                ("textrank", ["baseline", "--method", "textrank", "--data", data,
                              "--out", os.path.join(out, "textrank.jsonl")]),
            ]
        # full ranked lists, so the dedup check can see the protected quarter
        return [
            ("chunked", predict + ["--chunked", "--top-k", FULL_LIST,
                                   "--out", os.path.join(out, "chunked.jsonl")]),
            ("chunked_dedup", predict + ["--chunked", "--dedup", "--top-k", FULL_LIST,
                                         "--out", os.path.join(out, "chunked_dedup.jsonl")]),
        ]

    def setup(self):
        """Write the corpus, save the untrained checkpoint, warm up."""
        os.makedirs(self.out, exist_ok=True)
        with open(self.data, "w", encoding="utf-8") as fh:
            fh.write(corpus.to_jsonl(self.docs))
        if self.name == "train_mixed":
            warm_docs = self.docs[:WARMUP_DOCS]
        else:
            self._save_model()
            warm_docs = [dict(d, tokens=d["tokens"][:WARMUP_TOKENS],
                              visual=d["visual"][:WARMUP_TOKENS])
                         for d in self.docs[:WARMUP_DOCS]]
        warm = os.path.join(self.work, "warmup.jsonl")
        with open(warm, "w", encoding="utf-8") as fh:
            fh.write(corpus.to_jsonl(warm_docs))
        for _, argv in self.commands(warm, epochs=1):
            code, output = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"warm-up kpex {' '.join(argv)} failed:\n{output}")

    def _save_model(self):
        """An untrained SpanScorer in the CLI's default configuration.

        Its vocabulary is the generator's whole vocabulary and its weights
        come from a fixed seed, so every workload seed runs the same model.
        A vocabulary built from each corpus would shift every embedding row
        with the seed, and with it which spans rank high; dedup cost follows
        the ranking and varied by 11% (IQR/median) over ten seeds that way.
        """
        from kpex.embedding import TokenVocabulary
        from kpex.model import ModelConfig, SpanScorer

        vocab = TokenVocabulary.from_list(corpus.vocabulary())
        SpanScorer(ModelConfig(), vocab=vocab, seed=MODEL_SEED).save(self.model)

    def operations(self, label):
        """Operations one command attempts: training steps, or documents."""
        return self.steps if label == "train" else len(self.docs)

    def work_done(self, label):
        """The numerator of the command's rate: tokens trained, or documents."""
        return self.tokens * TRAIN_EPOCHS if label == "train" else len(self.docs)

    def tokens_in(self, label):
        """Input tokens one command handles: trained tokens, or every token read."""
        return self.tokens * TRAIN_EPOCHS if label == "train" else self.all_tokens

    def check(self, label, argv, chunked_output):
        out = argv[argv.index("--out") + 1]
        if label != "train":
            return checks.check_predictions(out, self.ref, label, chunked_output)
        problems = checks.check_training(out, TRAIN_EPOCHS)
        try:
            with open(os.path.join(out, "run.meta.json"), encoding="utf-8") as fh:
                steps = json.load(fh)["steps"]
        except (OSError, ValueError, KeyError) as exc:
            steps = f"unreadable ({exc})"
        if steps != self.steps:
            problems.append((None, f"{steps} training steps, expected {self.steps}"))
        return problems


def run_cli(argv):
    """``kpex.cli.main(argv)`` with its console output captured."""
    from kpex import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed command, recorded with its traceback
            traceback.print_exc()
            code = 1
    return code, buffer.getvalue()


def measure(wl, seconds, tracer=None):
    """Run passes until ``seconds`` are spent; returns (records, pass rates, passes).

    A pass runs every command of the workload once, in order, so each command
    gets time in proportion to its cost, as it would for a user running them
    all. Every call gives one rate sample of its command, and every pass in
    which all commands succeeded one ``tokens_per_s`` sample: the input
    tokens of all its commands over their summed wall time.
    """
    records = {label: {"rates": [], "attempted": 0, "failed": 0, "problems": []}
               for label, _ in wl.commands()}
    pass_rates = []
    started = time.perf_counter()
    passes = 0
    while True:
        chunked_output = None
        busy = 0.0
        succeeded = True
        for label, argv in wl.commands():
            rec = records[label]
            ok, elapsed = _invoke(wl, label, argv, rec, chunked_output, tracer)
            busy += elapsed
            if not ok:
                succeeded = False
                continue
            rec["rates"].append(wl.work_done(label) / elapsed)
            if label == "chunked":
                chunked_output = checks.read_jsonl(argv[argv.index("--out") + 1])
        if succeeded:
            pass_rates.append(sum(wl.tokens_in(label) for label in records) / busy)
        passes += 1
        spent = time.perf_counter() - started
        if spent + spent / passes > seconds:
            return records, pass_rates, passes


def _invoke(wl, label, argv, rec, chunked_output, tracer):
    """One timed command and its checks; returns (succeeded, seconds)."""
    out = argv[argv.index("--out") + 1]
    if label == "train":
        shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        code, output = run_cli(argv)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    ops = wl.operations(label)
    rec["attempted"] += ops
    if code != 0:
        rec["failed"] += ops
        rec["problems"].append([None, f"exit code {code}: {output.strip()[-400:]}"])
        return False, elapsed
    problems = wl.check(label, argv, chunked_output)
    if problems:
        docs = {i for i, _ in problems}
        whole = label == "train" or None in docs
        rec["failed"] += ops if whole else len(docs)
        rec["problems"].extend([i, m] for i, m in problems[:5])
    return True, elapsed


def median_rate(rec):
    """Median rate over calls; 0 when every call of the command failed."""
    return statistics.median(rec["rates"]) if rec and rec["rates"] else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="source checkout holding src/kpex")
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done and report when that was")
    args = parser.parse_args(argv)

    env = environment.record(args.root, args.seed, BLAS_THREADS)
    if env["blas_threads"] != BLAS_THREADS:
        print(f"error: BLAS runs {env['blas_threads']} threads, {BLAS_THREADS} requested; "
              "refusing to report", file=sys.stderr)
        return 3
    sys.path.insert(0, os.path.join(args.root, "src"))
    import kpex.cli  # noqa: F401  (importing the program is part of set-up)

    wl = Workload(args.workload, args.seed, args.work)
    wl.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "environment": env, "corpus": corpus.properties(wl.docs)}
    if args.trace:
        untraced, _, _ = measure(wl, args.seconds / 2)
        tracer = Tracer()
        records, pass_rates, passes = measure(wl, args.seconds / 2, tracer)
        result["per_layer"] = tracer.summary()
        result["largest_self_ms"] = {label: tracer.largest_self(label)[:4]
                                     for label in records}
        for label in COMMANDS:
            rec, base = records.get(label), median_rate(untraced.get(label, {}))
            result["per_layer"][f"trace.{label}.overhead_pct"] = (
                100.0 * (base - median_rate(rec)) / base if base else 0.0)
            if rec is not None:
                for key in ("attempted", "failed", "problems"):
                    rec[key] += untraced[label][key]
                rec["untraced_rate"] = base
        traces = os.path.join(args.work, os.pardir, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.dump(os.path.join(traces, f"{args.workload}-{args.seed}.jsonl"))
    else:
        records, pass_rates, passes = measure(wl, args.seconds)
    result["passes"] = passes
    result["commands"] = {
        label: dict(rec, rate=median_rate(rec), problems=rec["problems"][:10])
        for label, rec in records.items()}
    # 0 when no pass succeeded; the failed operations then mark the run incorrect
    result["tokens_per_s"] = statistics.median(pass_rates) if pass_rates else 0.0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
