"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

They check that the generator is deterministic, that tracing leaves no
wrapper behind, that every output check rejects a corrupted file, and that
the benchmark refuses to run without the program's sources. They run a few
small kpex commands and write only under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import workload  # sets the BLAS thread variables before numpy loads

import checks
import corpus
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def scratch(name):
    path = os.path.join(ROOT, ".bench_work", f"selftest-{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in corpus.PROFILES:
            first = corpus.to_jsonl(corpus.generate(name, 7))
            self.assertEqual(first, corpus.to_jsonl(corpus.generate(name, 7)), name)

    def test_seeds_differ(self):
        for name in corpus.PROFILES:
            self.assertNotEqual(corpus.to_jsonl(corpus.generate(name, 7)),
                                corpus.to_jsonl(corpus.generate(name, 8)), name)

    def test_profiles_have_their_stated_shape(self):
        page = corpus.properties(corpus.generate("predict_page", 3))
        self.assertAlmostEqual(page["shorter_than_max_span_share"], 0.1)
        self.assertEqual(page["truncated_share"], 0.0)
        train = corpus.properties(corpus.generate("train_mixed", 3))
        self.assertAlmostEqual(train["truncated_share"], 0.25)
        long_docs = corpus.generate("predict_long", 3)
        self.assertEqual(sorted(len(d["tokens"]) for d in long_docs), [704, 1088])

    def test_labeled_phrase_survives_truncation(self):
        for doc in corpus.generate("train_mixed", 4):
            head = " ".join(doc["tokens"][: corpus.TRUNCATE_AT])
            self.assertIn(doc["keyphrases"][0], head)


class Outputs:
    """Valid outputs of every timed command on a small corpus, made once."""

    _made = None

    @classmethod
    def get(cls):
        if cls._made is None:
            cls._made = cls()
        return cls._made

    def __init__(self):
        self.work = scratch("outputs")
        page = workload.Workload("predict_page", 5, self.work)
        page.docs = page.docs[:10]
        page.ref = checks.Reference(page.docs)
        page.setup()
        self.page = page
        self.files = {}
        for label, argv in page.commands():
            self._run(argv)
            self.files[label] = argv[argv.index("--out") + 1]
        page.name = "predict_long"  # the chunked commands, on the same pages
        for label, argv in page.commands():
            self._run(argv)
            self.files[label] = argv[argv.index("--out") + 1]
        self.train_work = scratch("train")
        train = workload.Workload("train_mixed", 5, self.train_work)
        train.docs = train.docs[:10]  # one held out, so a validation loss exists
        os.makedirs(train.out)
        with open(train.data, "w", encoding="utf-8") as fh:
            fh.write(corpus.to_jsonl(train.docs))
        (_, argv), = train.commands(epochs=1)
        self._run(argv)
        self.run_dir = argv[argv.index("--out") + 1]

    @staticmethod
    def _run(argv):
        code, output = workload.run_cli(argv)
        if code != 0:
            raise AssertionError(f"kpex {' '.join(argv)} failed:\n{output}")

    def check(self, label, rows=None):
        path = self.files[label]
        if rows is not None:
            path = os.path.join(self.work, f"corrupt-{label}.jsonl")
            write_jsonl(path, rows)
        chunked = checks.read_jsonl(self.files["chunked"])
        return checks.check_predictions(path, self.page.ref, label, chunked)

    def rows(self, label):
        return checks.read_jsonl(self.files[label])


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.out = Outputs.get()

    def assertRejected(self, label, rows, fragment):
        problems = self.out.check(label, rows)
        self.assertTrue(any(fragment in m for _, m in problems), problems)

    def test_real_outputs_pass(self):
        for label in self.out.files:
            self.assertEqual(self.out.check(label), [], label)
        self.assertEqual(checks.check_training(self.out.run_dir, 1), [])

    def test_missing_document(self):
        self.assertRejected("predict", self.out.rows("predict")[:-1], "input order")

    def test_documents_out_of_order(self):
        rows = self.out.rows("predict")
        rows[0], rows[1] = rows[1], rows[0]
        self.assertRejected("predict", rows, "input order")

    def test_phrase_not_from_document(self):
        rows = self.out.rows("chunked")
        rows[2]["phrases"][0][0] = "zzz qqq"
        self.assertRejected("chunked", rows, "not a window")

    def test_phrase_longer_than_five_tokens(self):
        rows = self.out.rows("predict")
        doc = self.out.page.docs[-1]["tokens"]
        rows[-1]["phrases"][0][0] = " ".join(doc[:6])
        self.assertRejected("predict", rows, "not a window")

    def test_rising_score(self):
        rows = self.out.rows("textrank")
        phrases = next(r["phrases"] for r in rows if len(r["phrases"]) > 1)
        phrases[-1][1] = phrases[0][1] + 1.0
        self.assertRejected("textrank", rows, "score rises")

    def test_probability_above_one(self):
        rows = self.out.rows("predict")
        rows[0]["phrases"][0][1] = 1.5
        self.assertRejected("predict", rows, "outside [0, 1]")

    def test_dedup_keeps_a_sub_span_of_a_protected_phrase(self):
        rows = self.out.rows("chunked_dedup")
        row = next(r for r in rows if any(" " in p for p, _ in r["phrases"][:3]))
        protected = next(p for p, _ in row["phrases"][:3] if " " in p)
        row["phrases"] = [[p, s] for p, s in row["phrases"] if p != protected.split()[0]]
        row["phrases"].append([protected.split()[0], 0.0])
        self.assertRejected("chunked_dedup", rows, "inside a protected phrase")

    def test_baseline_phrase_with_stopword_boundary(self):
        for label in ("tfidf", "textrank"):
            rows = self.out.rows(label)
            i, window = next(
                (i, " ".join(d["tokens"][j : j + 2]))
                for i, d in enumerate(self.out.page.docs)
                for j in range(len(d["tokens"]) - 1)
                if d["tokens"][j] in checks.STOPWORDS and rows[i]["phrases"])
            rows[i]["phrases"][0][0] = window
            self.assertRejected(label, rows, "stopword or punctuation")

    def test_training_with_non_finite_loss(self):
        run_dir = os.path.join(self.out.work, "bad-run")
        shutil.copytree(self.out.run_dir, run_dir)
        rows = checks.read_jsonl(os.path.join(run_dir, "metrics.jsonl"))
        rows[0]["train_loss"] = float("nan")
        write_jsonl(os.path.join(run_dir, "metrics.jsonl"), rows)
        problems = checks.check_training(run_dir, 1)
        self.assertTrue(any("train_loss" in m for _, m in problems), problems)

    def test_training_with_unloadable_checkpoint(self):
        run_dir = os.path.join(self.out.work, "bad-ckpt")
        shutil.copytree(self.out.run_dir, run_dir)
        with open(os.path.join(run_dir, "best.ckpt"), "r+b") as fh:
            fh.truncate(100)
        problems = checks.check_training(run_dir, 1)
        self.assertTrue(any("does not load" in m for _, m in problems), problems)


class TracerTest(unittest.TestCase):
    def test_restore_leaves_no_wrapper(self):
        out = Outputs.get()
        tracer = Tracer()
        tracer.install()
        patched = [(owner, attr, vars(owner)[attr]) for owner, attr in tracer.patched]
        tracer.restore()
        self.assertGreater(len(patched), 20)
        for owner, attr, wrapper in patched:
            restored = vars(owner)[attr]
            self.assertIsNot(restored, wrapper, f"{owner.__name__}.{attr}")
            self.assertFalse(hasattr(getattr(restored, "__func__", restored), "__wrapped__"),
                             f"{owner.__name__}.{attr}")
        # an untraced command in the same interpreter records nothing
        (_, argv) = out.page.commands()[0]
        Outputs._run(argv)
        self.assertEqual(tracer.spans, [])
        self.assertEqual(dict(tracer.counts), {})

    def test_traced_command_records_spans(self):
        out = Outputs.get()
        tracer = Tracer()
        tracer.install()
        try:
            (_, argv) = out.page.commands()[1]  # predict --chunked --dedup
            Outputs._run(argv)
        finally:
            tracer.restore()
        summary = tracer.summary()
        self.assertEqual(summary["documents.read_dataset.docs"], len(out.page.docs))
        self.assertEqual(summary["model.distribution.n"], len(out.page.docs))
        self.assertGreater(summary["cli.main.chunked_dedup.ms"], 0.0)
        doc_ids = {s[2] for s in tracer.spans if s[3] == "model.forward.infer"}
        self.assertEqual(doc_ids, {d["id"] for d in out.page.docs})


class RefusalTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = scratch("bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "predict_page", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        if Outputs._made is not None:
            shutil.rmtree(Outputs._made.work, ignore_errors=True)
            shutil.rmtree(Outputs._made.train_work, ignore_errors=True)
