"""Command-line surface: one ``kpex`` entry point with one subcommand per
pipeline stage.

Configuration is a flat JSON object with dotted keys ("model.filters": 64).
Precedence: built-in defaults < config file (--config) < --set overrides <
shortcut flags (--seed, --threads, --top-k, --ablate), which ``main`` turns
into --set items applied last. The merged config is checked whole when it
loads, and handlers read settings from it alone. A command that loads a
checkpoint first writes the checkpoint's model settings into it. Its SHA-256
digest, computed only here, is recorded in every output (run directories,
checkpoint metadata, sidecar .meta.json files next to JSONL outputs) so any
artifact can be traced to its exact settings.

Heavy imports happen inside handlers so --threads can cap BLAS thread pools
before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields

from .config import EmbeddingConfig, ModelConfig, PredictConfig, TrainingConfig
from .fileio import read_json, read_records, string_list, write_json, write_jsonl

# Config sections: key prefix -> dataclass. Every field is a key except the
# nested embedding section and the training seed, which the top-level "seed"
# feeds.
SECTIONS = {
    "model": ModelConfig,
    "embedding": EmbeddingConfig,
    "train": TrainingConfig,
    "predict": PredictConfig,
}
_NOT_KEYS = ("model.embedding", "train.seed")

# The paper's ablation names, as the --set items that --ablate stands for.
ABLATIONS = {
    "no_transformer": "model.layers=0",
    "no_position": "model.no_position=true",
    "no_visual": "model.no_visual=true",
}


# The keys whose default is null, and the type of a value that is not.
_NULLABLE = {"embedding.frozen_vectors": str}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


class CliError(RuntimeError):
    pass


def default_config():
    """Every config key with its default, read off the config dataclasses."""
    cfg = {
        "seed": TrainingConfig.seed,
        "threads": 0,  # 0 = leave the BLAS thread pool alone
        "embedding.frozen_vectors": None,  # a file path, not a model setting
    }
    for prefix, cls in SECTIONS.items():
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            if key not in _NOT_KEYS:
                cfg[key] = f.default
    return cfg


def load_run_config(config_path=None, overrides=()):
    """Merge defaults, the config file and ``overrides``, in that order.

    ``overrides`` are ``key=value`` items, a later one winning: the --set
    items, then those the shortcut flags stand for (see ``main``). Every
    value's type and every section's ranges are checked here.
    """
    merged = default_config()
    if config_path:
        file_cfg = read_json(config_path)
        if not isinstance(file_cfg, dict):
            raise CliError(f"{config_path}: config must be a JSON object")
        for key, value in file_cfg.items():
            if key not in merged:
                raise CliError(f"{config_path}: unknown config key {key!r}")
            merged[key] = value
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise CliError(f"--set needs key=value, got {item!r}")
        if key not in merged:
            raise CliError(f"--set: unknown config key {key!r}")
        try:
            merged[key] = json.loads(raw)
        except json.JSONDecodeError:
            merged[key] = raw  # bare strings are fine unquoted
        except ValueError as exc:  # an integer past Python's digit limit
            raise CliError(f"--set {key}: {exc}")
    _check_types(merged)
    n = merged["threads"]
    if n < 0:
        raise CliError(f"threads must be a non-negative integer, got {n!r}")
    for prefix in SECTIONS:  # each section checks its own ranges
        try:
            _section(merged, prefix)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    return merged


def _check_types(cfg):
    """Refuse a value whose type is not its key's; nothing is coerced.

    An int key takes an int, a float key an int or a float, a bool key a bool
    and a string key a string. True is an int in Python, so a bool is refused
    wherever a number is wanted. A ``_NULLABLE`` key may also be null.
    """
    for key, default in default_config().items():
        value = cfg[key]
        if value is None and key in _NULLABLE:
            continue
        kind = _NULLABLE.get(key, type(default))
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise CliError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def config_digest(cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _apply_threads(cfg):
    n = cfg["threads"]
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


def _section(cfg, prefix):
    """The dataclass of section ``prefix`` built from the flat ``cfg`` alone.

    ``cfg`` is type-checked by load_run_config; an int given for a float
    field becomes a float. The training seed is the top-level ``seed``.
    """
    values = {}
    for f in fields(SECTIONS[prefix]):
        key = f"{prefix}.{f.name}"
        if f.name in SECTIONS:
            values[f.name] = _section(cfg, f.name)
        elif key == "train.seed":
            values[f.name] = cfg["seed"]
        else:
            value = cfg[key]
            values[f.name] = float(value) if type(f.default) is float else value
    return SECTIONS[prefix](**values)


def _shortcut_items(args):
    """The --set items that the shortcut flags given in ``args`` stand for."""
    flags = (("seed", args.seed), ("threads", args.threads),
             ("predict.top_k", getattr(args, "top_k", None)))
    items = [f"{key}={value}" for key, value in flags if value is not None]
    for name in getattr(args, "ablate", ()):
        if name not in ABLATIONS:
            raise CliError(
                f"unknown ablation {name!r}; choose from {', '.join(ABLATIONS)}"
            )
        items.append(ABLATIONS[name])
    return items


def _write_meta(out_path, cfg, command, extra=None, counts=None):
    """Write ``out_path``.meta.json.

    ``counts`` (name -> number of documents zero-filled or phrases dropped)
    go into it as well, and into one stderr line when any is non-zero.
    """
    meta = {
        "command": command,
        "config_digest": config_digest(cfg),
        "seed": cfg["seed"],
    }
    meta.update(extra or {})
    meta.update(counts or {})
    write_json(out_path + ".meta.json", meta)
    if counts and any(counts.values()):
        print("zero-filled or dropped: "
              + ", ".join(f"{name}={n}" for name, n in counts.items()), file=sys.stderr)


def _report_empty(ingest):
    """Say on stderr how many documents were dropped for tokenizing to nothing."""
    if ingest.skipped_empty:
        print(f"skipped: {len(ingest.skipped_empty)} empty", file=sys.stderr)


def _resolve_checkpoint(path):
    """``path``, or ``path``.ckpt when only that is a file; opening it reports a bad path."""
    if not os.path.isfile(path) and os.path.isfile(path + ".ckpt"):
        return path + ".ckpt"
    return path


def _attach_frozen(cfg, docs):
    """``docs`` with frozen vectors attached if the model that ``cfg`` names uses them.

    A vectors path given for a trainable-embedding model is an error, not ignored.
    """
    path = cfg["embedding.frozen_vectors"]
    if cfg["embedding.source"] != "frozen":
        if path:
            raise CliError("embedding.frozen_vectors is set, but the model has "
                           "embedding.source=trainable")
        return docs
    from .embedding import attach_vectors

    if not path:
        raise CliError("embedding.source=frozen needs embedding.frozen_vectors")
    return attach_vectors(docs, path, cfg["embedding.token_dim"])


def _load_model(cfg, path):
    """The checkpoint at ``path``, its model settings written into ``cfg``.

    A model.* or embedding.* value that was asked for (by --set, --config or
    --ablate) must equal the checkpoint's; one left at its default takes the
    checkpoint's. So the digest taken afterwards names the model that ran.
    """
    from .model import SpanScorer

    path = _resolve_checkpoint(path)
    model, _ = SpanScorer.load(path)
    settings = asdict(model.config)
    found = {f"embedding.{k}": v for k, v in settings.pop("embedding").items()}
    found.update((f"model.{k}", v) for k, v in settings.items())
    defaults = default_config()
    for key, have in found.items():
        if cfg[key] not in (defaults[key], have):
            raise CliError(f"requested {key}={json.dumps(cfg[key])}, but checkpoint "
                           f"{path} has {key}={json.dumps(have)}")
        cfg[key] = have
    return model


# -- handlers ------------------------------------------------------------


def cmd_featurize(args, cfg):
    from .visual import LayoutError, parse_layout

    names = sorted(n for n in os.listdir(args.layout_dir) if n.endswith(".json"))
    if not names:
        raise CliError(f"no .json layout files in {args.layout_dir}")
    lines = []
    skipped = []
    for name in names:
        path = os.path.join(args.layout_dir, name)
        doc_id = os.path.splitext(name)[0]
        layout = read_json(path)
        text, rows = parse_layout(layout, doc_id)
        if not rows:
            skipped.append(doc_id)
            continue
        line = {"id": doc_id, "text": text, "visual": rows}
        keyphrases = layout.get("keyphrases")  # null is no field, and so is []
        if keyphrases is not None and string_list(keyphrases, "keyphrases", path):
            line["keyphrases"] = keyphrases
        lines.append(line)
    if not lines:
        raise LayoutError("every layout produced an empty token sequence")
    write_jsonl(args.out, lines)
    _write_meta(args.out, cfg, "featurize", {"documents": len(lines), "skipped": skipped})
    print(f"featurized {len(lines)} documents -> {args.out}"
          + (f" ({len(skipped)} empty skipped)" if skipped else ""))
    return 0


def cmd_build_qp(args, cfg):
    from .documents import dataset_from_records
    from .weaksup import build_qp_dataset, load_blocklist, read_query_log

    records = list(read_records(args.docs, "id", "text"))
    docs, ingest = dataset_from_records(records)
    _report_empty(ingest)
    raw_by_id = {str(obj["id"]): obj for _, obj in records}
    log = read_query_log(args.clicks)
    blocklist = load_blocklist(args.blocklist) if args.blocklist else None
    examples, stats = build_qp_dataset(
        docs,
        log,
        max_span_length=cfg["model.max_span_length"],
        max_doc_length=cfg["train.max_doc_length"],
        blocklist=blocklist,
    )
    if not examples:
        raise CliError("no documents survived query filtering")
    lines = []
    for ex in examples:
        raw = raw_by_id[ex.id]
        line = {"id": ex.id, "text": raw["text"]}
        if raw.get("visual") is not None:
            line["visual"] = raw["visual"]
        line["keyphrases"] = list(ex.keyphrases)
        lines.append(line)
    write_jsonl(args.out, lines)
    write_json(args.out + ".stats.json", dict(asdict(stats), config_digest=config_digest(cfg)))
    print(stats.as_table())
    print(f"wrote {len(lines)} query-prediction documents -> {args.out}")
    return 0


def _run_train(args, cfg):
    from .documents import read_dataset, truncate
    from .embedding import TokenVocabulary
    from .model import SpanScorer
    from .training import prepare_examples, run_training

    docs, ingest = read_dataset(args.data)
    labeled = [d for d in docs if d.keyphrases]
    if not labeled:
        raise CliError(f"no labeled documents in {args.data}")
    train_cfg = _section(cfg, "train")
    if args.init:
        model = _load_model(cfg, args.init)
    else:
        model_cfg = _section(cfg, "model")
        vocab = None
        if model_cfg.embedding.source == "trainable":
            vocab = TokenVocabulary.build(
                (truncate(d, train_cfg.max_doc_length) for d in labeled),
                min_count=model_cfg.embedding.min_count,
            )
        model = SpanScorer(model_cfg, vocab=vocab, seed=cfg["seed"])
    labeled = _attach_frozen(cfg, labeled)
    examples, prep = prepare_examples(
        labeled, model.config.max_span_length, train_cfg.max_doc_length
    )
    unlabeled = len(docs) - len(labeled)
    if ingest.skipped_empty or unlabeled or prep.skipped_no_match:
        print(
            f"skipped: {len(ingest.skipped_empty)} empty, {unlabeled} unlabeled, "
            f"{len(prep.skipped_no_match)} with no matchable phrase",
            file=sys.stderr,
        )
    record = run_training(
        model,
        examples,
        train_cfg,
        run_dir=args.out,
        log=lambda s: print(
            f"epoch {s.epoch}: train {s.train_loss:.4f}"
            + (f" val {s.val_loss:.4f}" if s.val_loss is not None else "")
            + f" lr {s.lr_last:.2e} [{s.seconds:.1f}s]"
        ),
        checkpoint_metadata={"config_digest": config_digest(cfg), "mode": args.command},
    )
    _write_meta(
        os.path.join(args.out, "run"),
        cfg,
        args.command,
        {
            "best_epoch": record.best_epoch,
            "steps": record.steps,
            "examples": prep.prepared,
        },
        {"zero_visual": len(ingest.zero_visual),
         "phrases_too_long": prep.phrases_too_long,
         "phrases_unmatched": prep.phrases_unmatched},
    )
    print(f"{args.command} finished: best epoch {record.best_epoch} "
          f"-> {os.path.join(args.out, 'best.ckpt')}")
    return 0


def cmd_predict(args, cfg):
    from .documents import read_dataset, truncate
    from .inference import chunk_and_merge, dedup_substrings, predict_topk, write_predictions

    predict_cfg = _section(cfg, "predict")
    model = _load_model(cfg, args.model)
    docs, ingest = read_dataset(args.data)
    _report_empty(ingest)
    max_len = cfg["train.max_doc_length"]  # the model's input budget
    predictions = []
    for doc in _attach_frozen(cfg, docs):
        if args.chunked:
            pred = chunk_and_merge(model, doc, max_len, predict_cfg.chunk_weight)
        else:
            clipped = truncate(doc, max_len)
            # dedup protects the top quarter of the full list, so it needs all of it
            pred = predict_topk(model.distribution(clipped), clipped,
                                k=None if args.dedup else predict_cfg.top_k)
        if args.dedup:
            pred = dedup_substrings(pred)
        predictions.append(type(pred)(pred.doc_id, pred.phrases[:predict_cfg.top_k]))
    write_predictions(args.out, predictions)
    _write_meta(args.out, cfg, "predict",
                {"model": args.model, "documents": len(predictions),
                 "chunked": bool(args.chunked), "dedup": bool(args.dedup)},
                {"zero_visual": len(ingest.zero_visual)})
    print(f"wrote predictions for {len(predictions)} documents -> {args.out}")
    return 0


def _int_list(raw, flag):
    """The integers of the comma list ``raw``; a malformed one names ``flag``."""
    try:
        return tuple(int(item) for item in raw.split(","))
    except ValueError:
        raise CliError(f"{flag} must be a comma list of integers, got {raw!r}") from None


def cmd_evaluate(args, cfg):
    from .documents import read_dataset
    from .inference import read_predictions
    from .metrics import evaluate

    depths = _int_list(args.depths, "--depths")
    f1_depths = _int_list(args.f1, "--f1") if args.f1 else ()
    preds = {p.doc_id: p.phrase_list() for p in read_predictions(args.preds)}
    docs, ingest = read_dataset(args.gold)
    _report_empty(ingest)
    gold = {doc.id: list(doc.keyphrases) for doc in docs}
    report = evaluate(preds, gold, depths=depths, f1_depths=f1_depths,
                      stem=args.stem)
    report.skipped += ingest.skipped_empty
    print(report.as_table())
    if args.out:
        payload = report.to_dict()
        payload["config_digest"] = config_digest(cfg)
        write_json(args.out, payload)
    return 0


def cmd_baseline(args, cfg):
    from .baselines import (
        BLOCK_DOCUMENTS, CorpusStats, load_stopwords, textrank_block, tfidf_block,
    )
    from .documents import read_dataset, truncate
    from .inference import write_predictions

    top_k = cfg["predict.top_k"]
    max_len = cfg["model.max_span_length"]
    docs, ingest = read_dataset(args.data)
    _report_empty(ingest)
    docs = [truncate(doc, cfg["train.max_doc_length"]) for doc in docs]
    if not docs:
        raise CliError(f"no documents in {args.data}")
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    kwargs = {"stopwords": stopwords} if stopwords is not None else {}
    if args.method == "tfidf":
        stats = CorpusStats.build(docs)

        def rank(block):
            return tfidf_block(block, stats, max_span_length=max_len, top_k=top_k, **kwargs)
    else:
        def rank(block):
            return textrank_block(block, max_span_length=max_len, top_k=top_k, **kwargs)
    predictions = [
        p for start in range(0, len(docs), BLOCK_DOCUMENTS)
        for p in rank(docs[start : start + BLOCK_DOCUMENTS])
    ]
    write_predictions(args.out, predictions)
    _write_meta(args.out, cfg, f"baseline:{args.method}",
                {"documents": len(predictions)}, {"zero_visual": len(ingest.zero_visual)})
    print(f"{args.method} predictions for {len(predictions)} documents -> {args.out}")
    return 0


def cmd_agreement(args, cfg):
    from .metrics import judge_agreement

    items = []
    for where, obj in read_records(args.annotations, "judges"):
        if not isinstance(obj["judges"], list):
            raise CliError(f"{where}: judges must be a list of ranked lists")
        items.append([string_list(ranked, f"judges[{i}]", where)
                      for i, ranked in enumerate(obj["judges"])])
    report = judge_agreement(items, depth=args.depth, mode=args.mode)
    print(
        f"agreement@{args.depth} ({args.mode}): {report.percentage:.2f}% "
        f"over {report.pairs} judge pairs"
        + (f", {report.truncated_lists} truncated lists" if report.truncated_lists else "")
        + (f", {report.skipped_pairs} skipped pairs" if report.skipped_pairs else "")
    )
    if args.out:
        write_json(args.out, dict(asdict(report), depth=args.depth, mode=args.mode,
                                  config_digest=config_digest(cfg)))
    return 0


def cmd_gradcheck(args, cfg):
    import numpy as np

    from .embedding import TokenVocabulary
    from .gradcheck import finite_difference_check, gradcheck_example
    from .model import SpanScorer
    from .training import TrainingExample, keyphrase_loss

    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    model_cfg = _section(cfg, "model")
    if model_cfg.embedding.source != "trainable":
        raise CliError("gradcheck runs on the trainable-embedding configuration")
    doc, target = gradcheck_example(seed=cfg["seed"],
                                    max_span_length=model_cfg.max_span_length)
    (doc,) = _attach_frozen(cfg, [doc])  # refuses a vectors path, attaching none
    vocab = TokenVocabulary.build([doc], min_count=2)
    model = SpanScorer(model_cfg, vocab=vocab, seed=cfg["seed"])
    # Zero-initialized biases over all-zero ReLU rows put pre-activations
    # exactly on the kink, where central differences are meaningless; move
    # them off it. Only the checked model changes, never training.
    rng = np.random.default_rng(cfg["seed"])
    for _, p in model.registry.items():
        if p.data.ndim == 1 and not p.data.any():
            p.data[...] = rng.normal(0.0, 0.1, size=p.data.shape)
    example = TrainingExample(doc, target)
    errors = finite_difference_check(
        lambda: keyphrase_loss(model, example),
        model.registry,
        samples_per_param=args.samples,
        seed=cfg["seed"],
    )
    for name in sorted(errors, key=errors.get, reverse=True):
        print(f"{errors[name]:.3e}  {name}")
    worst = max(errors.values())
    print(f"max rel err {worst:.3e} over {len(errors)} parameters")
    if worst < 1e-4:
        print("gradient check passed (threshold 1e-4)")
        return 0
    print("gradient check FAILED (threshold 1e-4)", file=sys.stderr)
    return 1


# -- parser wiring --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kpex",
        description="Keyphrase extraction: span classification, weak "
                    "supervision, baselines, and evaluation.",
    )
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="random seed (--set seed=N, applied last)")
    parser.add_argument("--threads", type=int,
                        help="cap BLAS threads (set before numpy loads); --set threads=N")
    parser.add_argument("--show-config", action="store_true",
                        help="print the merged configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("featurize", help="layout JSON directory -> dataset JSONL")
    p.add_argument("--layout-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_featurize)

    p = sub.add_parser("build-qp", help="join documents with click queries")
    p.add_argument("--docs", required=True)
    p.add_argument("--clicks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--blocklist", help="file of queries to drop, one per line")
    p.set_defaults(handler=cmd_build_qp)

    for name in ("pretrain", "train"):
        p = sub.add_parser(name, help=f"{name} the span classifier")
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--init", help="warm-start checkpoint (e.g. run/best)")
        p.add_argument("--ablate", type=_ablate_list, default=[],
                       help="comma list: " + ",".join(ABLATIONS))
        p.set_defaults(handler=_run_train)

    p = sub.add_parser("predict", help="rank keyphrases for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chunked", action="store_true",
                   help="score long documents in decaying-weight chunks")
    p.add_argument("--dedup", action="store_true",
                   help="drop substrings of top-quarter phrases")
    p.add_argument("--top-k", type=int, help="--set predict.top_k=K")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="precision/recall against gold labels")
    p.add_argument("--preds", required=True)
    p.add_argument("--gold", required=True, help="dataset JSONL with keyphrases")
    p.add_argument("--depths", default="1,3,5")
    p.add_argument("--f1", default="10", help="comma list of F1 depths ('' to skip)")
    p.add_argument("--stem", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("baseline", help="unsupervised reference systems")
    p.add_argument("--method", required=True, choices=("tfidf", "textrank"))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, help="--set predict.top_k=K")
    p.add_argument("--stopwords",
                   help="stopword list file, one word a line; it replaces the "
                        "built-in English list, and an empty file means no stopwords")
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("agreement", help="inter-judge agreement")
    p.add_argument("--annotations", required=True,
                   help='JSONL of {"id", "judges": [[phrase,...],...]}')
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "unigram"), default="exact")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_agreement)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--samples", type=int, default=16,
                   help="coordinates checked per parameter (default 16)")
    p.add_argument("--ablate", type=_ablate_list, default=[])
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def _ablate_list(raw):
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.set + _shortcut_items(args))
        if args.show_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            print(f"digest: {config_digest(cfg)}")
            return 0
        if not args.command:
            parser.print_help()
            return 2
        _apply_threads(cfg)
        return args.handler(args, cfg)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path of the wrong kind, or one that may not be used
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError) as exc:  # CliError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
