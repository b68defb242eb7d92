"""Training loop shared by supervised finetuning and query-log pretraining.

Both paths minimize the same loss: cross-entropy between the joint span
softmax and a uniform distribution over the gold (or query-matched) spans.
Documents are truncated, grouped into fixed-size batches of similar length,
and optimized with Adam under a geometrically decaying learning rate. A
batch's gradient is summed one document's tape at a time. Runs
are reproducible: one seed fixes shuffling, dropout, and initialization
downstream, so identical seeds give identical loss curves.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import no_grad, softmax_cross_entropy
from .config import MAX_DOC_LENGTH
from .documents import build_labels, span_target, truncate
from .fileio import write_json, write_jsonl
from .optim import Adam, clear_grads, geometric_lr


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """A truncated document and its span_target distribution over candidates."""

    document: object
    target: np.ndarray


def keyphrase_loss(model, example, train=False, rng=None):
    """Cross-entropy of the joint span softmax against the uniform target."""
    logits = model.forward(example.document, train=train, rng=rng)
    return softmax_cross_entropy(logits, example.target)


@dataclass
class PreparationReport:
    prepared: int = 0
    skipped_no_match: list = field(default_factory=list)
    phrases_too_long: int = 0
    phrases_unmatched: int = 0


def prepare_examples(docs, max_span_length, max_doc_length=MAX_DOC_LENGTH):
    """Truncate, align keyphrases, and drop documents with no matchable phrase."""
    examples = []
    report = PreparationReport()
    for doc in docs:
        doc = truncate(doc, max_doc_length)
        spans, label_report = build_labels(doc, max_span_length)
        report.phrases_too_long += len(label_report.too_long)
        report.phrases_unmatched += len(label_report.unmatched)
        if spans is None:
            report.skipped_no_match.append(doc.id)
            continue
        target = span_target(len(doc), max_span_length, spans)
        examples.append(TrainingExample(doc, target))
        report.prepared += 1
    return examples, report


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    lr_last: float
    seconds: float


@dataclass
class TrainRunRecord:
    epochs: list
    best_epoch: int | None
    best_val_loss: float | None
    steps: int


def _length_batches(examples, batch_size, rng):
    """Batches of similar length: sort by token count, slice, shuffle order."""
    ordered = sorted(examples, key=lambda ex: len(ex.document))
    batches = [
        ordered[i : i + batch_size] for i in range(0, len(ordered), batch_size)
    ]
    rng.shuffle(batches)
    return batches


def _backward_document(model, example, scale, rng, step):
    """Backpropagate one document's training loss times ``scale``.

    Returns the unscaled loss value. The tape is built and dropped inside this
    call, so a batch's gradients add up in the parameters while only one
    document's tape is alive.
    """
    loss = keyphrase_loss(model, example, train=True, rng=rng)
    value = float(loss.data)
    if not math.isfinite(value):
        raise RuntimeError(f"non-finite training loss at step {step}")
    loss.backward(scale)
    return value


def _zero_fill_idle_banks(model, batch):
    """Zero gradients for the width-k banks that every document is too short for.

    No k-gram exists in a document shorter than k, so such a bank takes no
    part in the loss and its true gradient is zero.
    """
    longest = max(len(ex.document) for ex in batch)
    for k in range(longest + 1, model.config.max_span_length + 1):
        for name in (f"cnn/k{k}/weight", f"cnn/k{k}/bias"):
            param = model.registry[name]
            param.grad = np.zeros_like(param.data)


def run_training(model, examples, config, run_dir=None, log=None, checkpoint_metadata=None):
    """Optimize ``model`` on prepared examples; returns a TrainRunRecord.

    When ``run_dir`` is given the loop writes config.json, per-epoch
    metrics.jsonl, one checkpoint per epoch, and ``best.ckpt``: the epoch with
    the lowest validation loss (training loss when no validation split
    exists), saved a second time with that epoch checkpoint's bytes.
    ``checkpoint_metadata`` is merged into every checkpoint's metadata block.
    Non-finite losses abort with the failing step in the error.
    """
    if not examples:
        raise ValueError("no training examples after preparation")
    rng = np.random.default_rng(config.seed)
    examples = list(examples)
    order = rng.permutation(len(examples))
    examples = [examples[i] for i in order]
    n_val = int(len(examples) * config.validation_fraction)
    val_set = examples[:n_val]
    train_set = examples[n_val:]
    if not train_set:
        raise ValueError("validation split consumed every example")

    steps_per_epoch = math.ceil(len(train_set) / config.batch_size)
    total_steps = steps_per_epoch * config.max_epochs
    optimizer = Adam(model.registry)
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        write_json(
            os.path.join(run_dir, "config.json"),
            {"training": asdict(config), "model": asdict(model.config)},
        )
    metrics_path = os.path.join(run_dir, "metrics.jsonl") if run_dir else None
    if metrics_path and os.path.exists(metrics_path):
        os.unlink(metrics_path)

    record = TrainRunRecord(epochs=[], best_epoch=None, best_val_loss=None, steps=0)
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.monotonic()
        epoch_losses = []
        for batch in _length_batches(train_set, config.batch_size, rng):
            clear_grads(model.registry)
            scale = 1.0 / len(batch)
            total = 0.0  # added in order: sum() rounds differently from Python 3.12 on
            for ex in batch:
                total += _backward_document(model, ex, scale, rng, step)
            value = total * scale
            _zero_fill_idle_banks(model, batch)
            optimizer.step(geometric_lr(step, total_steps, config.lr_start, config.lr_end))
            step += 1
            epoch_losses.append(value)
        lr_last = geometric_lr(step - 1, total_steps, config.lr_start, config.lr_end)

        val_loss = None
        if val_set:
            with no_grad():
                val_loss = float(
                    np.mean([float(keyphrase_loss(model, ex).data) for ex in val_set])
                )
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            val_loss=val_loss,
            lr_last=lr_last,
            seconds=time.monotonic() - started,
        )
        record.epochs.append(stats)
        record.steps = step
        if log:
            log(stats)

        selection = val_loss if val_loss is not None else stats.train_loss
        is_best = record.best_val_loss is None or selection < record.best_val_loss
        if is_best:
            record.best_val_loss = selection
            record.best_epoch = epoch
        if run_dir:
            write_jsonl(metrics_path, [asdict(s) for s in record.epochs])
            epoch_path = os.path.join(run_dir, f"epoch{epoch}.ckpt")
            extra = dict(checkpoint_metadata or {})
            extra["epoch"] = epoch
            model.save(epoch_path, extra_metadata=extra)
            if is_best:  # the epoch's bytes, through one rename: a failed write keeps the old best
                model.save(os.path.join(run_dir, "best.ckpt"), extra_metadata=extra)
    return record
