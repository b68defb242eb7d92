"""Command-line interface: config merging, each subcommand, exit codes."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kpex.cli import CliError, config_digest, load_run_config, main
from kpex.fileio import write_jsonl

LAYOUT_DIR = os.path.join(os.path.dirname(__file__), "data", "layouts")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# sha256 of the canonical default config; moves only when a key or default does
DEFAULT_DIGEST = "5e7227d8c25a4017cb55171dd0363ee16e40d17ed17fff580f901a7cf82ff885"

# sha256 of the predictions JSONL of the golden corpus (float64, x86-64)
GOLDEN_PAGES = os.path.join(os.path.dirname(__file__), "data", "golden", "pages.jsonl")
GOLDEN_PLAIN = "d25580cbdf2f9ba9a7cb38d984a7f87c0ad2a70dc7fe8c6b8ada6bbbf9b8e134"
GOLDEN_CHUNKED_DEDUP = "9dc417e95f9e54a7a40242731cf91c37370063ef30038fdbc676a31a6f3c0652"
GOLDEN_TFIDF = "4c6ecdf37d942d901549b099be844d9c161b0da75f96493b85fe12848c116c9b"
GOLDEN_TEXTRANK = "b25340a09262dc65eadcb4540a7d99f9b91a68482d01758f8cbb1dbb0ce5c7d9"

SMALL_MODEL = [
    "--set", "model.filters=8",
    "--set", "model.heads=2",
    "--set", "embedding.token_dim=6",
    "--set", "embedding.position_dim=4",
    "--set", "model.dropout=0.0",
]


def _write_dataset(path, n=8, seed=0, keyphrase=("w0", "w1")):
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        tokens = [f"w{j}" for j in rng.integers(0, 10, size=10)]
        tokens[2 : 2 + len(keyphrase)] = list(keyphrase)
        lines.append(
            {"id": f"d{i}", "text": " ".join(tokens), "keyphrases": [" ".join(keyphrase)]}
        )
    write_jsonl(str(path), lines)
    return str(path)


def _with_empty_line(tmp_path):
    """A 3-line dataset whose middle document tokenizes to nothing, and the same without it."""
    lines = [{"id": "a", "text": "red stapler on sale now"},
             {"id": "blank", "text": "  \t "},
             {"id": "b", "text": "blue office chair with wheels"}]
    full, kept = str(tmp_path / "full.jsonl"), str(tmp_path / "kept.jsonl")
    write_jsonl(full, lines)
    write_jsonl(kept, [lines[0], lines[2]])
    return full, kept


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _shown(capsys):
    """The config and digest that --show-config printed."""
    out = capsys.readouterr().out
    config, digest = out.split("digest: ")
    return json.loads(config), digest.strip()


TRAIN_ARGV = ["train", "--data", "train.jsonl", "--out", "run"]
PREDICT_ARGV = ["predict", "--model", "run/best", "--data", "pages.jsonl",
                "--out", "preds.jsonl"]

# (a shortcut flag's argv, the same run spelled with --set)
SHORTCUTS = [
    (["--seed", "5"], ["--set", "seed=5"]),
    (["--threads", "2"], ["--set", "threads=2"]),
    (PREDICT_ARGV + ["--top-k", "3"], ["--set", "predict.top_k=3"] + PREDICT_ARGV),
    (TRAIN_ARGV + ["--ablate", "no_visual"], ["--set", "model.no_visual=true"] + TRAIN_ARGV),
    (TRAIN_ARGV + ["--ablate", "no_transformer,no_position"],
     ["--set", "model.layers=0", "--set", "model.no_position=true"] + TRAIN_ARGV),
]


class TestConfigMerging:
    def test_defaults_returned(self):
        cfg = load_run_config()
        assert cfg["model.filters"] == 64
        assert cfg["train.lr_start"] == 1e-3
        assert cfg["seed"] == 0

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model.filters": 32, "seed": 3}))
        cfg = load_run_config(str(path))
        assert cfg["model.filters"] == 32
        assert cfg["seed"] == 3

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model.filters": 32}))
        cfg = load_run_config(str(path), overrides=["model.filters=16"])
        assert cfg["model.filters"] == 16

    def test_seed_flag_wins(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3}))

        def shown_seed(*flags):
            assert main(["--config", str(path), *flags, "--show-config"]) == 0
            return _shown(capsys)[0]["seed"]

        assert shown_seed() == 3
        assert shown_seed("--set", "seed=4") == 4
        assert shown_seed("--set", "seed=4", "--seed", "5") == 5
        assert shown_seed("--seed", "5", "--set", "seed=4") == 5

    def test_set_parses_json_values(self):
        cfg = load_run_config(overrides=[
            "model.no_visual=true",
            "train.lr_start=0.005",
            "embedding.source=frozen",
        ])
        assert cfg["model.no_visual"] is True
        assert cfg["train.lr_start"] == 0.005
        assert cfg["embedding.source"] == "frozen"

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model.fliters": 32}))
        with pytest.raises(CliError, match="fliters"):
            load_run_config(str(path))

    def test_unknown_key_in_set(self):
        with pytest.raises(CliError, match="unknown config key"):
            load_run_config(overrides=["nope=1"])

    def test_malformed_set(self):
        with pytest.raises(CliError, match="key=value"):
            load_run_config(overrides=["model.filters"])

    def test_config_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main(["--config", str(path), "--show-config"]) == 1
        assert capsys.readouterr().err == f"error: {path}: config must be a JSON object\n"

    def test_missing_config_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["--config", path, "--show-config"]) == 1
        assert capsys.readouterr().err == f"error: file not found: {path}\n"

    def test_default_digest_pinned(self):
        cfg = load_run_config()
        assert len(cfg) == 22
        assert config_digest(cfg) == DEFAULT_DIGEST

    def test_loading_config_leaves_numpy_unloaded(self, tmp_path):
        # with a config file too, so the file reader is held to it as well
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": 3}')
        code = ("import sys, kpex.cli; kpex.cli.load_run_config(); "
                "assert kpex.cli.load_run_config(sys.argv[1])['seed'] == 3; "
                "print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, str(config)],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_readme_table_lists_every_key(self):
        # each row's Default column, read as JSON, is the key's default;
        # the `a` / `b` row gives its two defaults in the same order
        with open(README, encoding="utf-8") as fh:
            rows = [line for line in fh if line.startswith("| `")]
        documented = {}
        for row in rows:
            cells = row.split("|")
            keys = re.findall(r"`([\w.]+)`", cells[1])
            values = [json.loads(v) for v in cells[2].split(" / ")]
            assert len(keys) == len(values), row
            documented.update(zip(keys, values))
        defaults = load_run_config()
        assert set(documented) == set(defaults)
        for key, value in documented.items():
            assert (type(value), value) == (type(defaults[key]), defaults[key]), key

    def test_digest_stable_and_sensitive(self):
        a = config_digest(load_run_config())
        b = config_digest(load_run_config())
        c = config_digest(load_run_config(overrides=["seed=1"]))
        assert a == b
        assert a != c
        assert len(a) == 64


class TestConfigTypes:
    """A value of the wrong type is refused, never coerced to the key's type."""

    WRONG = [
        ("train.batch_size", 2.5),
        ("train.max_epochs", True),
        ("model.filters", 16.9),
        ("model.no_visual", "no"),
        ("seed", 3.7),
        ("model.dropout", True),
        ("train.lr_start", "0.01"),
        ("embedding.frozen_vectors", 1.5),
        ("embedding.source", 3),
        ("train.lr_start", float("nan")),
        ("train.lr_start", float("inf")),
        pytest.param("model.dropout", 10**400, id="model.dropout-10**400"),  # past float range
    ]

    @staticmethod
    def _baseline(tmp_path, flags):
        out = str(tmp_path / "tfidf.jsonl")
        argv = flags + ["baseline", "--method", "tfidf", "--data", GOLDEN_PAGES,
                        "--out", out]
        return main(argv), out

    @pytest.mark.parametrize("key,value", WRONG)
    def test_wrong_type_in_set_rejected(self, tmp_path, capsys, key, value):
        # --set reads a word that is not JSON, like no, as a string
        raw = "no" if value == "no" else json.dumps(value)
        code, out = self._baseline(tmp_path, ["--set", f"{key}={raw}"])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key,value", WRONG)
    def test_wrong_type_in_config_file_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code, out = self._baseline(tmp_path, ["--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("item", [
        "train.lr_start=1",  # an int is a valid float
        "model.dropout=0",
        "model.no_visual=false",
        "embedding.frozen_vectors=null",
        "seed=0",
        "embedding.frozen_vectors=vectors.txt",
    ])
    def test_right_type_accepted(self, item):
        key, _, raw = item.partition("=")
        cfg = load_run_config(overrides=[item])
        assert cfg[key] == (raw if raw == "vectors.txt" else json.loads(raw))

    @pytest.mark.parametrize("item", ["train.total_steps=40", "predict.chunk_len=4"])
    def test_retired_key_is_unknown(self, capsys, item):
        # the schedule horizon is the planned step count, and --chunked cuts
        # chunks at train.max_doc_length
        assert main(["--set", item, "--show-config"]) == 1
        key = item.partition("=")[0]
        assert capsys.readouterr().err == f"error: --set: unknown config key {key!r}\n"


class TestTopLevel:
    def test_show_config(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert '"model.filters": 64' in out
        assert "digest: " in out

    @pytest.mark.parametrize("shortcut,spelled", SHORTCUTS,
                             ids=["seed", "threads", "top_k", "no_visual", "two_ablations"])
    def test_shortcut_shows_its_set_config(self, capsys, shortcut, spelled):
        assert main(["--show-config"]) == 0
        default = _shown(capsys)
        assert main(["--show-config"] + shortcut) == 0
        shown = _shown(capsys)
        assert main(["--show-config"] + spelled) == 0
        assert shown == _shown(capsys)
        assert shown[1] != default[1]

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage: kpex" in capsys.readouterr().out

    def test_over_long_set_integer_names_its_key(self, capsys):
        # json raises a plain ValueError past Python's 4,300-digit limit
        assert main(["--set", "seed=" + "1" * 5000, "--show-config"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --set seed: ")
        assert "digest:" not in captured.out

    @pytest.mark.parametrize("flags,message", [
        (["--set", "model.filters=0"], "filters must be positive"),
        (["--set", "model.heads=3"], "filters 64 not divisible by heads 3"),
        (["--set", "embedding.position_dim=3"], "position_dim must be a positive even number"),
        (["--set", "train.lr_end=1"], "lr_end must not exceed lr_start"),
        (["--set", "predict.chunk_weight=0"], "chunk_weight must be in (0, 1]"),
        (["--set", "train.max_doc_length=0"], "max_doc_length must be at least 1"),
        (["--set", "seed=-1"], "seed must be non-negative, got -1"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--set", "model.layers=-1"], "layers must be non-negative"),
        (["--set", "model.dropout=1"], "dropout must be in [0, 1)"),
        (["--set", "train.max_epochs=0"], "max_epochs must be at least 1"),
    ], ids=["filters", "heads", "position_dim", "lr_end", "chunk_weight", "max_doc_length",
            "seed", "seed-flag", "layers", "dropout", "max_epochs"])
    def test_out_of_range_config_refused_by_every_command(self, tmp_path, capsys,
                                                          flags, message):
        gold = str(tmp_path / "gold.jsonl")
        write_jsonl(gold, [{"id": "d", "text": "red stapler", "keyphrases": ["red stapler"]}])
        preds = str(tmp_path / "preds.jsonl")
        write_jsonl(preds, [{"id": "d", "phrases": [["red stapler", 0.5]]}])
        out = str(tmp_path / "out.json")
        commands = [["--show-config"],
                    ["evaluate", "--preds", preds, "--gold", gold, "--out", out],
                    ["baseline", "--method", "tfidf", "--data", gold, "--out", out]]
        for command in commands:
            assert main(flags + command) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert "digest:" not in captured.out
            assert not os.path.exists(out)

    def test_bad_set_key_exits_one(self, capsys):
        assert main(["--set", "nope=1", "--show-config"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--threads", "-4"],
        ["--set", "threads=2.5"],
        ["--set", "threads=true"],
        ["--set", 'threads="2"'],
    ], ids=["negative", "float", "bool", "string"])
    def test_threads_not_a_non_negative_int_rejected(self, capsys, flags):
        assert main(flags + ["--show-config"]) == 1
        captured = capsys.readouterr()
        assert "threads" in captured.err
        assert "digest:" not in captured.out

    @pytest.mark.parametrize("flags", [[], ["--threads", "0"], ["--set", "threads=3"]])
    def test_threads_non_negative_int_accepted(self, capsys, flags):
        assert main(flags + ["--show-config"]) == 0

    @pytest.mark.parametrize("threads", [2, 0])
    def test_threads_cap_blas_pools_before_the_command(self, tmp_path, monkeypatch, threads):
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        annotations = str(tmp_path / "judges.jsonl")
        write_jsonl(annotations, [{"id": "d", "judges": [["a"], ["a"]]}])
        assert main(["--threads", str(threads), "agreement", "--annotations", annotations]) == 0
        want = str(threads) if threads else None
        assert [os.environ.get(name) for name in names] == [want] * 3

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "kpex.cli", "--show-config"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(f"digest: {DEFAULT_DIGEST}\n")

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["kpex", "--show-config"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "digest:" in proc.stdout


class TestPathErrors:
    """An OSError on a path the user named exits 1 with one line giving reason and path."""

    def _fails(self, capsys, argv, path, errno_code):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {os.strerror(errno_code)}\n"

    def test_data_is_a_directory(self, tmp_path, capsys):
        argv = ["baseline", "--method", "tfidf", "--data", str(tmp_path),
                "--out", str(tmp_path / "o.jsonl")]
        self._fails(capsys, argv, tmp_path, errno.EISDIR)

    def test_annotations_is_a_directory(self, tmp_path, capsys):
        self._fails(capsys, ["agreement", "--annotations", str(tmp_path)], tmp_path,
                    errno.EISDIR)

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._fails(capsys, ["--config", str(tmp_path), "--show-config"], tmp_path,
                    errno.EISDIR)

    def test_model_is_a_directory(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "docs.jsonl", n=2)
        argv = ["predict", "--model", str(tmp_path), "--data", data,
                "--out", str(tmp_path / "p.jsonl")]
        self._fails(capsys, argv, tmp_path, errno.EISDIR)

    def test_layout_dir_is_a_file(self, tmp_path, capsys):
        page = tmp_path / "page.json"
        page.write_text("{}")
        argv = ["featurize", "--layout-dir", str(page), "--out", str(tmp_path / "o.jsonl")]
        self._fails(capsys, argv, page, errno.ENOTDIR)

    def test_run_dir_is_a_file(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "train.jsonl", n=4)
        taken = tmp_path / "run"
        taken.write_text("")
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1", "train", "--data", data,
                              "--out", str(taken)]
        self._fails(capsys, argv, taken, errno.EEXIST)

    def test_out_is_a_directory(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "docs.jsonl", n=2)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["baseline", "--method", "tfidf", "--data", data, "--out", str(out)]
        self._fails(capsys, argv, out, errno.EISDIR)
        assert sorted(os.listdir(tmp_path)) == ["docs.jsonl", "out"]
        assert os.listdir(out) == []

    def test_missing_out_directory_named(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "docs.jsonl", n=2)
        out = str(tmp_path / "nodir" / "o.jsonl")
        argv = ["baseline", "--method", "tfidf", "--data", data, "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: file not found: {out}\n"
        assert os.listdir(tmp_path) == ["docs.jsonl"]


class TestFeaturize:
    def test_layout_directory(self, tmp_path, capsys):
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", LAYOUT_DIR, "--out", out]) == 0
        lines = [json.loads(l) for l in open(out)]
        by_id = {l["id"]: l for l in lines}
        assert set(by_id) == {"product_page", "single_block"}
        assert by_id["product_page"]["keyphrases"] == ["heavy duty stapler"]
        assert "keyphrases" not in by_id["single_block"]
        assert len(by_id["product_page"]["visual"]) == 20
        meta = json.load(open(out + ".meta.json"))
        assert meta["command"] == "featurize"
        assert len(meta["config_digest"]) == 64
        assert "featurized 2 documents" in capsys.readouterr().out

    @staticmethod
    def _layout_with(tmp_path, keyphrases):
        with open(os.path.join(LAYOUT_DIR, "product_page.json"), encoding="utf-8") as fh:
            layout = json.load(fh)
        layout["keyphrases"] = keyphrases
        path = tmp_path / "product_page.json"
        path.write_text(json.dumps(layout))
        return path

    @pytest.mark.parametrize("keyphrases", [
        "heavy duty stapler", ["stapler", 3], "", 0, {}, False])
    def test_keyphrases_not_a_list_of_strings_located(self, tmp_path, capsys, keyphrases):
        path = self._layout_with(tmp_path, keyphrases)
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 1
        assert f"{path}: keyphrases must be a list of strings" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("keyphrases", [None, []])
    def test_null_or_empty_keyphrases_write_no_field(self, tmp_path, keyphrases):
        self._layout_with(tmp_path, keyphrases)
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 0
        assert "keyphrases" not in json.loads(open(out).read())

    def test_non_finite_font_refused_before_writing(self, tmp_path, capsys):
        with open(os.path.join(LAYOUT_DIR, "product_page.json"), encoding="utf-8") as fh:
            layout = json.load(fh)
        layout["root"]["children"][0]["font"] = float("nan")
        (tmp_path / "product_page.json").write_text(json.dumps(layout))  # writes NaN
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 1
        assert ("product_page.root.children[0]: non-finite box or font size"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value,message", [
        ("text", 5, "one.root: text must be a string, got 5"),
        ("page", ["wide", 100], "one: page must be [width, height] numbers, got ['wide', 100]"),
        ("font", -1, "one.root: negative font size"),
        ("children", [5], "one.root.children[0]: node must be an object"),
    ], ids=["int-text", "string-page", "negative-font", "child-not-an-object"])
    def test_bad_layout_value_located(self, tmp_path, capsys, field, value, message):
        layout = {"page": [100, 100],
                  "root": {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "x"}}
        (layout if field == "page" else layout["root"])[field] = value
        (tmp_path / "one.json").write_text(json.dumps(layout))
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    def test_empty_layout_skipped(self, tmp_path, capsys):
        layout = {"page": [100, 100],
                  "root": {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": " "}}
        (tmp_path / "blank.json").write_text(json.dumps(layout))
        layout["root"]["text"] = "red stapler"
        (tmp_path / "page.json").write_text(json.dumps(layout))
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 0
        assert [json.loads(l)["id"] for l in open(out)] == ["page"]
        meta = json.load(open(out + ".meta.json"))
        assert (meta["documents"], meta["skipped"]) == (1, ["blank"])
        assert capsys.readouterr().out == f"featurized 1 documents -> {out} (1 empty skipped)\n"

    def test_every_layout_empty_fails(self, tmp_path, capsys):
        layout = {"page": [100, 100],
                  "root": {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": " "}}
        (tmp_path / "blank.json").write_text(json.dumps(layout))
        out = str(tmp_path / "docs.jsonl")
        assert main(["featurize", "--layout-dir", str(tmp_path), "--out", out]) == 1
        assert capsys.readouterr().err == "error: every layout produced an empty token sequence\n"
        assert not os.path.exists(out)

    def test_empty_directory_fails(self, tmp_path):
        assert main(["featurize", "--layout-dir", str(tmp_path),
                     "--out", str(tmp_path / "o.jsonl")]) == 1


class TestBuildQp:
    def _inputs(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(str(docs), [
            {"id": "d1", "text": "alpha beta gamma alpha beta"},
            {"id": "d2", "text": "delta epsilon"},
        ])
        clicks = tmp_path / "clicks.jsonl"
        write_jsonl(str(clicks), [
            {"id": "d1", "queries": ["alpha beta", "zzz"]},
            {"id": "d2", "queries": ["missing"]},
        ])
        return str(docs), str(clicks)

    def test_join_and_stats(self, tmp_path, capsys):
        docs, clicks = self._inputs(tmp_path)
        out = str(tmp_path / "qp.jsonl")
        assert main(["build-qp", "--docs", docs, "--clicks", clicks, "--out", out]) == 0
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 1
        assert lines[0]["id"] == "d1"
        assert lines[0]["keyphrases"] == ["alpha beta"]
        stats = json.load(open(out + ".stats.json"))
        assert stats["n_documents"] == 1
        assert stats["dropped"] == {"not_verbatim": 2}
        assert "# of Query per Doc" in capsys.readouterr().out

    def test_output_bytes_pinned(self, tmp_path):
        # raw text and visual rows are copied through as read, not re-serialized
        visual = [[1.5, 0, -0.25] + [0.5] * 15] * 5
        docs = tmp_path / "docs.jsonl"
        docs.write_text(
            '{"id": "d1", "text": "  Alpha  beta\\tgamma alpha beta ", "visual": %s}\n'
            '{"id": 7, "text": "alpha beta", "keyphrases": ["gold"]}\n'
            '{"id": "d3", "text": "delta"}\n' % json.dumps(visual)
        )
        clicks = tmp_path / "clicks.jsonl"
        write_jsonl(str(clicks), [
            {"id": "d1", "queries": ["alpha beta", "gamma"]},
            {"id": "7", "queries": ["beta"]},
            {"id": "d3", "queries": ["zzz"]},
        ])
        out = str(tmp_path / "qp.jsonl")
        assert main(["build-qp", "--docs", str(docs), "--clicks", str(clicks),
                     "--out", out]) == 0
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "89e02abdf8d611a2917a5143b2afc1857e4dbda124846b3ec9e2a2472afb4765"
            )

    def test_empty_documents_reported(self, tmp_path, capsys):
        full, kept = _with_empty_line(tmp_path)
        clicks = str(tmp_path / "clicks.jsonl")
        write_jsonl(clicks, [{"id": "a", "queries": ["red stapler"]},
                             {"id": "blank", "queries": ["red stapler"]},
                             {"id": "b", "queries": ["office chair"]}])
        outs = []
        for docs in (full, kept):
            out = str(tmp_path / f"{os.path.basename(docs)}.qp")
            assert main(["build-qp", "--docs", docs, "--clicks", clicks, "--out", out]) == 0
            captured = capsys.readouterr()
            outs.append((captured.out.replace(out, ""), captured.err,
                         _read_bytes(out), _read_bytes(out + ".stats.json")))
        (full_out, full_err, *full_files), (kept_out, kept_err, *kept_files) = outs
        assert "wrote 2 query-prediction documents" in full_out
        assert full_out == kept_out
        assert "skipped: 1 empty" in full_err
        assert "skipped" not in kept_err
        assert full_files == kept_files

    def test_blocklist(self, tmp_path):
        docs, clicks = self._inputs(tmp_path)
        block = tmp_path / "block.txt"
        block.write_text("alpha beta\n")
        out = str(tmp_path / "qp.jsonl")
        assert main(["build-qp", "--docs", docs, "--clicks", clicks,
                     "--out", out, "--blocklist", str(block)]) == 1  # nothing left

    def test_max_span_length_below_one_rejected(self, tmp_path, capsys):
        docs, clicks = self._inputs(tmp_path)
        out = str(tmp_path / "qp.jsonl")
        assert main(["--set", "model.max_span_length=0", "build-qp", "--docs", docs,
                     "--clicks", clicks, "--out", out]) == 1
        assert "max_span_length must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train a tiny model once; downstream command tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    data = _write_dataset(root / "train.jsonl", n=8)
    run_dir = str(root / "run")
    argv = SMALL_MODEL + [
        "--set", "train.max_epochs=2",
        "--set", "train.batch_size=4",
        "train", "--data", data, "--out", run_dir,
    ]
    assert main(argv) == 0
    return {"root": root, "data": data, "run_dir": run_dir}


@pytest.fixture(scope="module")
def golden_model(tmp_path_factory):
    """An untrained default-config checkpoint over the golden corpus vocabulary."""
    from kpex.documents import read_dataset
    from kpex.embedding import TokenVocabulary
    from kpex.model import ModelConfig, SpanScorer

    docs, _ = read_dataset(GOLDEN_PAGES)
    path = str(tmp_path_factory.mktemp("golden") / "untrained.ckpt")
    SpanScorer(ModelConfig(), vocab=TokenVocabulary.build(docs), seed=0).save(path)
    return path


class TestTrainCli:
    def test_run_artifacts(self, pipeline):
        names = set(os.listdir(pipeline["run_dir"]))
        assert {"best.ckpt", "epoch1.ckpt", "epoch2.ckpt", "config.json",
                "metrics.jsonl", "run.meta.json"} <= names
        meta = json.load(open(os.path.join(pipeline["run_dir"], "run.meta.json")))
        assert meta["command"] == "train"
        assert meta["examples"] == 8
        assert meta["best_epoch"] in (1, 2)

    def test_epoch_lines_printed(self, pipeline, tmp_path, capsys):
        argv = SMALL_MODEL + [
            "--set", "train.max_epochs=1",
            "train", "--data", pipeline["data"], "--out", str(tmp_path / "r2"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "epoch 1: train" in out
        assert "finished: best epoch" in out

    def test_warm_start_from_checkpoint(self, pipeline, tmp_path, capsys):
        argv = [
            "--set", "train.max_epochs=1",
            "train", "--data", pipeline["data"], "--out", str(tmp_path / "r3"),
            "--init", os.path.join(pipeline["run_dir"], "best"),
        ]
        assert main(argv) == 0
        loaded = json.load(open(os.path.join(str(tmp_path / "r3"), "run.meta.json")))
        assert loaded["command"] == "train"

    def test_pretrain_mode_recorded(self, pipeline, tmp_path):
        argv = SMALL_MODEL + [
            "--set", "train.max_epochs=1",
            "pretrain", "--data", pipeline["data"], "--out", str(tmp_path / "rp"),
        ]
        assert main(argv) == 0
        from kpex.registry import load_checkpoint

        meta, _ = load_checkpoint(os.path.join(str(tmp_path / "rp"), "best.ckpt"))
        assert meta["mode"] == "pretrain"

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_object_frozen_vectors_line_exits_one(self, pipeline, tmp_path, capsys):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text('"id vectors"\n')
        argv = SMALL_MODEL + [
            "--set", "embedding.source=frozen", "--set", f"embedding.frozen_vectors={vectors}",
            "train", "--data", pipeline["data"], "--out", str(tmp_path / "r"),
        ]
        assert main(argv) == 1
        assert f"{vectors}:1: expected an object with id and vectors" in capsys.readouterr().err

    def test_init_from_frozen_checkpoint_needs_only_its_vectors(self, tmp_path):
        from kpex.registry import load_checkpoint

        data, vectors, model = _frozen_checkpoint(tmp_path)
        out = str(tmp_path / "r")
        argv = ["--set", f"embedding.frozen_vectors={vectors}", "--set", "train.max_epochs=1",
                "train", "--data", data, "--out", out, "--init", model]
        assert main(argv) == 0
        meta, _ = load_checkpoint(os.path.join(out, "best.ckpt"))
        assert meta["config"]["embedding"]["source"] == "frozen"
        assert meta["config"]["embedding"]["token_dim"] == 6

    @pytest.mark.parametrize("command", ["predict", "train", "train --init"])
    def test_short_vectors_refused_at_their_line(self, tmp_path, capsys, command):
        # pages are cut to 4 tokens, yet each line must cover all 6
        data, vectors, model = _frozen_checkpoint(tmp_path, rows=5)
        capsys.readouterr()  # the checkpoint's own training reports its zero-filled pages
        out = str(tmp_path / "out")
        argv = SMALL_MODEL + ["--set", "embedding.source=frozen",
                              "--set", f"embedding.frozen_vectors={vectors}",
                              "--set", "train.max_doc_length=4"]
        argv += {"predict": ["predict", "--model", model], "train": ["train"],
                 "train --init": ["train", "--init", model]}[command]
        assert main(argv + ["--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {vectors}:1: document 'https://x.com/p#top': 5 vectors for 6 tokens\n")
        assert not os.path.exists(out)

    def test_ablate_no_transformer(self, pipeline, tmp_path):
        run_dir = str(tmp_path / "r")
        argv = SMALL_MODEL + [
            "--set", "train.max_epochs=1",
            "train", "--data", pipeline["data"], "--out", run_dir,
            "--ablate", "no_transformer",
        ]
        assert main(argv) == 0
        from kpex.model import SpanScorer

        model, _ = SpanScorer.load(os.path.join(run_dir, "best.ckpt"))
        assert model.config.layers == 0

    def test_documents_shorter_than_max_span_length(self, tmp_path):
        data = str(tmp_path / "short.jsonl")
        write_jsonl(data, [{"id": f"d{i}", "text": f"w{i} w9", "keyphrases": ["w9"]}
                           for i in range(6)])
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1",
                              "train", "--data", data, "--out", str(tmp_path / "r")]
        assert main(argv) == 0

    def test_no_labeled_documents(self, tmp_path, capsys):
        data = str(tmp_path / "unlabeled.jsonl")
        write_jsonl(data, [{"id": "a", "text": "w0 w1"},
                           {"id": "b", "text": "w2", "keyphrases": []}])
        run_dir = str(tmp_path / "r")
        assert main(SMALL_MODEL + ["train", "--data", data, "--out", run_dir]) == 1
        assert capsys.readouterr().err == f"error: no labeled documents in {data}\n"
        assert not os.path.exists(run_dir)

    def test_frozen_source_needs_vectors(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "train.jsonl", n=2)
        run_dir = str(tmp_path / "r")
        argv = SMALL_MODEL + ["--set", "embedding.source=frozen",
                              "train", "--data", data, "--out", run_dir]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: embedding.source=frozen needs embedding.frozen_vectors\n")
        assert not os.path.exists(run_dir)

    def test_unlabeled_documents_reported(self, tmp_path, capsys):
        data = str(tmp_path / "mixed.jsonl")
        write_jsonl(data, [{"id": "a", "text": "w0 w1 w2 w3", "keyphrases": ["w1 w2"]},
                           {"id": "b", "text": "w4 w5 w6"},
                           {"id": "c", "text": "w7 w8", "keyphrases": []}])
        run_dir = str(tmp_path / "r")
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1", "--set", "embedding.min_count=1",
                              "train", "--data", data, "--out", run_dir]
        assert main(argv) == 0
        assert ("skipped: 0 empty, 2 unlabeled, 0 with no matchable phrase"
                in capsys.readouterr().err)
        assert json.load(open(os.path.join(run_dir, "run.meta.json")))["examples"] == 1
        from kpex.model import SpanScorer

        model, _ = SpanScorer.load(os.path.join(run_dir, "best.ckpt"))
        vocab = model.vocab.to_list()  # built from the labeled documents only
        assert "w0" in vocab and "w4" not in vocab and "w7" not in vocab

    def test_files_written_respect_umask(self, pipeline, tmp_path):
        run_dir = str(tmp_path / "r")
        preds = str(tmp_path / "preds.jsonl")
        previous = os.umask(0o022)
        try:
            assert main(SMALL_MODEL + ["--set", "train.max_epochs=2", "train",
                                       "--data", pipeline["data"], "--out", run_dir]) == 0
            assert main(["predict", "--model", os.path.join(run_dir, "best"),
                         "--data", pipeline["data"], "--out", preds]) == 0
        finally:
            os.umask(previous)
        written = [os.path.join(run_dir, n) for n in os.listdir(run_dir)]
        written += [preds, preds + ".meta.json"]
        assert len(written) == 8
        modes = {os.path.basename(p): oct(os.stat(p).st_mode & 0o777) for p in written}
        assert set(modes.values()) == {"0o644"}, modes

    def test_ablation_digest_is_its_set_digest(self, pipeline, tmp_path):
        from kpex.registry import load_checkpoint

        def digests(name, before=(), after=()):
            run_dir = str(tmp_path / name)
            argv = [*SMALL_MODEL, "--set", "train.max_epochs=1", *before,
                    "train", "--data", pipeline["data"], "--out", run_dir, *after]
            assert main(argv) == 0
            with open(os.path.join(run_dir, "run.meta.json")) as fh:
                run = json.load(fh)["config_digest"]
            checkpoint, _ = load_checkpoint(os.path.join(run_dir, "best.ckpt"))
            return run, checkpoint["config_digest"]

        ablated = digests("ablated", after=["--ablate", "no_visual"])
        assert ablated == digests("spelled", before=["--set", "model.no_visual=true"])
        assert ablated[0] == ablated[1]
        assert digests("plain")[0] != ablated[0]

    def test_seed_reaches_training(self, pipeline, tmp_path):
        run_dir = str(tmp_path / "r")
        argv = SMALL_MODEL + ["--seed", "3", "--set", "train.max_epochs=1",
                              "train", "--data", pipeline["data"], "--out", run_dir]
        assert main(argv) == 0
        with open(os.path.join(run_dir, "config.json")) as fh:
            assert json.load(fh)["training"]["seed"] == 3

    def test_unknown_ablation(self, pipeline, tmp_path, capsys):
        argv = ["train", "--data", pipeline["data"],
                "--out", str(tmp_path / "r"), "--ablate", "no_dropout"]
        assert main(argv) == 1
        assert "unknown ablation" in capsys.readouterr().err

    def test_unknown_ablation_with_init(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r")
        argv = ["train", "--data", pipeline["data"], "--out", out,
                "--init", os.path.join(pipeline["run_dir"], "best"),
                "--ablate", "bogus_name"]
        assert main(argv) == 1
        assert "unknown ablation 'bogus_name'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_ablation_contradicting_init_checkpoint(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r")
        argv = ["train", "--data", pipeline["data"], "--out", out,
                "--init", os.path.join(pipeline["run_dir"], "best"),
                "--ablate", "no_visual"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "model.no_visual" in err and "checkpoint" in err
        assert not os.path.exists(out)

    def test_ablation_matching_init_checkpoint(self, pipeline, tmp_path):
        first, second = str(tmp_path / "r1"), str(tmp_path / "r2")
        ablated = SMALL_MODEL + ["--set", "train.max_epochs=1", "train",
                                 "--data", pipeline["data"], "--ablate", "no_visual"]
        assert main(ablated + ["--out", first]) == 0
        assert main(ablated + ["--out", second,
                               "--init", os.path.join(first, "best")]) == 0
        from kpex.model import SpanScorer

        model, _ = SpanScorer.load(os.path.join(second, "best.ckpt"))
        assert model.config.no_visual is True

    @pytest.mark.parametrize("key,value,found", [
        ("model.dropout", "0.5", "0.0"),
        ("model.filters", "16", "8"),
        ("embedding.token_dim", "12", "6"),
    ])
    def test_set_contradicting_init_checkpoint(self, pipeline, tmp_path, capsys,
                                               key, value, found):
        out = str(tmp_path / "r")
        argv = ["--set", f"{key}={value}", "--set", "train.max_epochs=1",
                "train", "--data", pipeline["data"], "--out", out,
                "--init", os.path.join(pipeline["run_dir"], "best")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{key}={value}" in err and f"{key}={found}" in err
        assert "checkpoint" in err
        assert not os.path.exists(out)

    def test_init_digest_names_the_checkpoint_model(self, pipeline, tmp_path):
        # values left at their defaults take the checkpoint's (SMALL_MODEL)
        out = str(tmp_path / "r")
        argv = ["--set", "train.max_epochs=1", "train", "--data", pipeline["data"],
                "--out", out, "--init", os.path.join(pipeline["run_dir"], "best")]
        assert main(argv) == 0
        from kpex.registry import load_checkpoint

        expected = config_digest(load_run_config(
            overrides=SMALL_MODEL[1::2] + ["train.max_epochs=1"]))
        with open(os.path.join(out, "run.meta.json")) as fh:
            assert json.load(fh)["config_digest"] == expected
        assert load_checkpoint(os.path.join(out, "best.ckpt"))[0]["config_digest"] == expected

    def test_set_matching_init_checkpoint(self, pipeline, tmp_path):
        # the checkpoint's own non-default values may be repeated
        out = str(tmp_path / "r")
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1", "train",
                              "--data", pipeline["data"], "--out", out,
                              "--init", os.path.join(pipeline["run_dir"], "best")]
        assert main(argv) == 0

    def test_max_doc_length_below_one_rejected(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r")
        argv = ["--set", "train.max_doc_length=0",
                "train", "--data", pipeline["data"], "--out", out]
        assert main(argv) == 1
        assert "max_doc_length must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)


# two 6-token pages, one id holding a '#' like a chunk id
FROZEN_PAGES = {"https://x.com/p#top": "red blue stapler on sale now",
                "d2": "blue office chair with red wheels"}


def _frozen_checkpoint(tmp_path, rows=6):
    """A labeled FROZEN_PAGES dataset, ``rows`` 6-wide vectors for each page,
    and a checkpoint trained with a 6-wide frozen source on full vectors."""
    data, vectors = str(tmp_path / "docs.jsonl"), str(tmp_path / "vectors.jsonl")
    write_jsonl(data, [{"id": i, "text": t, "keyphrases": ["red"]}
                       for i, t in FROZEN_PAGES.items()])
    rng = np.random.default_rng(0)
    full = {i: rng.normal(size=(6, 6)).tolist() for i in FROZEN_PAGES}
    write_jsonl(vectors, [{"id": i, "vectors": v} for i, v in full.items()])
    run = str(tmp_path / "frozen")
    assert main(SMALL_MODEL + [
        "--set", "embedding.source=frozen", "--set", f"embedding.frozen_vectors={vectors}",
        "--set", "train.max_epochs=1", "train", "--data", data, "--out", run]) == 0
    write_jsonl(vectors, [{"id": i, "vectors": v[:rows]} for i, v in full.items()])
    return data, vectors, os.path.join(run, "best.ckpt")


class TestFrozenVectorsNeedFrozenSource:
    """A vectors path given for a trainable-embedding model is refused, never ignored."""

    ERR = "error: embedding.frozen_vectors is set, but the model has embedding.source=trainable\n"

    @staticmethod
    def _bogus(tmp_path):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("not a vectors line\n")
        return str(vectors)

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    @pytest.mark.parametrize("exists", [True, False], ids=["bogus_file", "missing_file"])
    def test_train_refuses(self, pipeline, tmp_path, capsys, command, exists):
        vectors = self._bogus(tmp_path) if exists else str(tmp_path / "ghost.jsonl")
        out = str(tmp_path / "r")
        argv = SMALL_MODEL + ["--set", f"embedding.frozen_vectors={vectors}",
                              "--set", "train.max_epochs=1",
                              command, "--data", pipeline["data"], "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == self.ERR
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["predict", "train --init"])
    def test_trainable_checkpoint_refuses(self, pipeline, tmp_path, capsys, command):
        model = os.path.join(pipeline["run_dir"], "best.ckpt")
        out = str(tmp_path / "out")
        argv = ["--set", f"embedding.frozen_vectors={self._bogus(tmp_path)}"]
        argv += {"predict": ["predict", "--model", model],
                 "train --init": ["train", "--init", model]}[command]
        assert main(argv + ["--data", pipeline["data"], "--out", out]) == 1
        assert capsys.readouterr().err == self.ERR
        assert not os.path.exists(out)

    def test_gradcheck_refuses(self, tmp_path, capsys):
        argv = SMALL_MODEL + ["--set", f"embedding.frozen_vectors={tmp_path / 'ghost'}",
                              "gradcheck", "--samples", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == self.ERR
        assert "passed" not in captured.out


class TestPredictCli:
    def test_predict_writes_ranked_phrases(self, pipeline, capsys):
        out = str(pipeline["root"] / "preds.jsonl")
        argv = ["predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                "--data", pipeline["data"], "--out", out, "--top-k", "5"]
        assert main(argv) == 0
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 8
        assert all(len(l["phrases"]) == 5 for l in lines)
        scores = [s for _, s in lines[0]["phrases"]]
        assert scores == sorted(scores, reverse=True)
        meta = json.load(open(out + ".meta.json"))
        assert meta["chunked"] is False

    def test_chunked_dedup_flags(self, pipeline, tmp_path):
        out = str(tmp_path / "preds.jsonl")
        argv = ["--set", "train.max_doc_length=4",
                "predict", "--model", os.path.join(pipeline["run_dir"], "best.ckpt"),
                "--data", pipeline["data"], "--out", out, "--chunked", "--dedup"]
        assert main(argv) == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["chunked"] is True and meta["dedup"] is True

    def test_chunked_cuts_at_max_doc_length(self, pipeline, tmp_path):
        from kpex.documents import read_dataset
        from kpex.inference import Prediction, chunk_and_merge, write_predictions
        from kpex.model import SpanScorer

        model_path = os.path.join(pipeline["run_dir"], "best.ckpt")
        data = str(tmp_path / "page.jsonl")
        write_jsonl(data, [{"id": "p", "text": "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"}])
        out = str(tmp_path / "preds.jsonl")
        assert main(["--set", "train.max_doc_length=4", "predict", "--model", model_path,
                     "--data", data, "--out", out, "--chunked"]) == 0
        model, _ = SpanScorer.load(model_path)
        (doc,), _ = read_dataset(data)
        assert len(doc) == 10
        merged = chunk_and_merge(model, doc, 4)
        assert merged.phrases != chunk_and_merge(model, doc, 10).phrases  # one chunk
        expected = str(tmp_path / "expected.jsonl")
        write_predictions(expected, [Prediction(doc.id, merged.phrases[:10])])
        assert _read_bytes(out) == _read_bytes(expected)

    @pytest.mark.parametrize("chunked", [[], ["--chunked"]])
    def test_frozen_vectors_for_id_with_hash(self, tmp_path, chunked):
        # the checkpoint's source and token_dim are taken over for its vectors
        data, vectors, model = _frozen_checkpoint(tmp_path)

        def predict(*flags):
            out = str(tmp_path / f"preds{len(flags)}.jsonl")
            argv = [*flags, "--set", f"embedding.frozen_vectors={vectors}",
                    "--set", "train.max_doc_length=4",
                    "predict", "--model", model, "--data", data, "--out", out] + chunked
            assert main(argv) == 0
            return _read_bytes(out)

        spelled = predict("--set", "embedding.source=frozen", "--set", "embedding.token_dim=6")
        assert predict() == spelled
        lines = [json.loads(line) for line in spelled.decode().splitlines()]
        assert [line["id"] for line in lines] == list(FROZEN_PAGES)
        assert all(line["phrases"] for line in lines)

    @pytest.mark.parametrize("flags,digest", [
        ([], GOLDEN_PLAIN),
        (["--chunked", "--dedup"], GOLDEN_CHUNKED_DEDUP),
    ], ids=["plain", "chunked-dedup"])
    def test_golden_predictions(self, golden_model, tmp_path, flags, digest):
        # every ranked phrase of an untrained default model on a fixed corpus:
        # a 4-chunk page plus short pages of mixed Unicode and punctuation
        out = str(tmp_path / "preds.jsonl")
        argv = ["predict", "--model", golden_model, "--data", GOLDEN_PAGES,
                "--out", out, "--top-k", "100000"] + flags
        assert main(argv) == 0
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [[], ["--dedup"]], ids=["plain", "dedup"])
    def test_top_k_is_a_prefix_of_the_full_list(self, golden_model, tmp_path, flags):
        def predict(top_k):
            out = str(tmp_path / f"preds{top_k}.jsonl")
            argv = ["predict", "--model", golden_model, "--data", GOLDEN_PAGES,
                    "--out", out, "--top-k", top_k] + flags
            assert main(argv) == 0
            return [json.loads(line) for line in open(out)]

        full = predict("100000")
        assert any(len(line["phrases"]) > 5 for line in full)
        for k in (3, 5):
            assert predict(str(k)) == [dict(line, phrases=line["phrases"][:k]) for line in full]

    @pytest.mark.parametrize("settings,flags", [
        ([], ["--top-k", "0"]),
        ([], ["--top-k", "-1"]),
        (["--set", "predict.top_k=-2"], []),
    ])
    def test_top_k_below_one_rejected(self, pipeline, tmp_path, capsys, settings, flags):
        out = str(tmp_path / "p.jsonl")
        argv = settings + ["predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                           "--data", pipeline["data"], "--out", out] + flags
        assert main(argv) == 1
        assert "top_k must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_max_doc_length_below_one_rejected(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "p.jsonl")
        argv = ["--set", "train.max_doc_length=0",
                "predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                "--data", pipeline["data"], "--out", out]
        assert main(argv) == 1
        assert "max_doc_length must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_empty_documents_reported(self, pipeline, tmp_path, capsys):
        full, kept = _with_empty_line(tmp_path)
        outs = []
        for data in (full, kept):
            out = str(tmp_path / f"{os.path.basename(data)}.preds")
            argv = ["predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                    "--data", data, "--out", out]
            assert main(argv) == 0
            outs.append((capsys.readouterr(), _read_bytes(out), _read_bytes(out + ".meta.json")))
        (full_io, *full_files), (kept_io, *kept_files) = outs
        assert "wrote predictions for 2 documents" in full_io.out
        assert full_io.out.replace(full, "") == kept_io.out.replace(kept, "")
        assert "skipped: 1 empty" in full_io.err
        assert "skipped" not in kept_io.err
        assert full_files[0] == kept_files[0]
        assert json.loads(full_files[1])["documents"] == 2

    @pytest.mark.parametrize("layers", [1, 0])
    def test_non_finite_checkpoint_refused(self, pipeline, tmp_path, capsys, layers):
        from kpex.embedding import TokenVocabulary
        from kpex.model import ModelConfig, SpanScorer

        model = SpanScorer(ModelConfig(filters=8, heads=2, layers=layers),
                           vocab=TokenVocabulary(("w0", "w1")), seed=0)
        model.registry["scorer/w3"].data[2, 0] = np.inf
        ckpt, out = str(tmp_path / "inf.ckpt"), str(tmp_path / "p.jsonl")
        model.save(ckpt)
        argv = ["predict", "--model", ckpt, "--data", pipeline["data"], "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert ckpt in err and "'scorer/w3'" in err
        assert not os.path.exists(out)
        assert os.listdir(tmp_path) == ["inf.ckpt"]

    def test_digest_names_the_checkpoint_model(self, pipeline, tmp_path):
        out = str(tmp_path / "p.jsonl")
        argv = ["predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                "--data", pipeline["data"], "--out", out]
        assert main(argv) == 0
        with open(out + ".meta.json") as fh:
            digest = json.load(fh)["config_digest"]
        assert digest == config_digest(load_run_config(overrides=SMALL_MODEL[1::2]))

    @pytest.mark.parametrize("key,value,found", [
        ("model.filters", "48", "8"),
        ("model.max_span_length", "2", "5"),
        ("embedding.position_dim", "8", "4"),
    ])
    def test_set_contradicting_checkpoint(self, pipeline, tmp_path, capsys, key, value, found):
        out = str(tmp_path / "p.jsonl")
        argv = ["--set", f"{key}={value}",
                "predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                "--data", pipeline["data"], "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{key}={value}" in err and f"{key}={found}" in err and "checkpoint" in err
        assert not os.path.exists(out)

    def test_missing_checkpoint(self, pipeline, tmp_path, capsys):
        argv = ["predict", "--model", str(tmp_path / "ghost"),
                "--data", pipeline["data"], "--out", str(tmp_path / "p.jsonl")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: file not found: {tmp_path / 'ghost'}\n"


def _edit_version(path):
    with open(path, "r+b") as fh:
        fh.seek(4)
        fh.write((2).to_bytes(4, "little"))


def _edit_metadata(path, text):
    """Rewrite the checkpoint at ``path`` with ``text`` as its metadata block."""
    from kpex.registry import MAGIC

    with open(path, "rb") as fh:
        blob = fh.read()
    rest = blob[16 + int.from_bytes(blob[8:16], "little"):]
    meta = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + (1).to_bytes(4, "little") + len(meta).to_bytes(8, "little")
                 + meta + rest)


class TestCheckpointMetadata:
    """A checkpoint whose metadata or records describe no model exits 1 with one located line."""

    @pytest.mark.parametrize("edit,reason", [
        (lambda meta, arrays: meta.pop("config"), "metadata has no config object"),
        (lambda meta, arrays: meta.update(config=[8, 2]), "metadata has no config object"),
        (lambda meta, arrays: meta["config"].update(filters="64"),
         "model.filters must be an integer, got '64'"),
        (lambda meta, arrays: meta["config"].update(colour="red"),
         "unknown model key 'colour'"),
        (lambda meta, arrays: meta["config"]["embedding"].update(token_dim=True),
         "embedding.token_dim must be an integer, got True"),
        (lambda meta, arrays: meta["config"].update(embedding=4),
         "embedding must be an object, got 4"),
        (lambda meta, arrays: meta["config"].update(filters=-8),
         "filters must be positive"),
        (lambda meta, arrays: meta["config"].update(dropout=10**400),
         f"model.dropout must be a finite number, got {10**400}"),
        (lambda meta, arrays: meta["config"]["embedding"].update(visual_dim=20),
         "visual_dim 20 is not 18"),
        (lambda meta, arrays: meta["config"].update(model={"filters": 16}),
         "unknown model key 'model'"),
        (lambda meta, arrays: meta["config"]["embedding"].update(embedding={}),
         "unknown embedding key 'embedding'"),
        (lambda meta, arrays: meta.update(vocab=5),
         "metadata: vocab must be a list of strings"),
        (lambda meta, arrays: meta.update(vocab=None),
         "trainable embeddings need a vocabulary"),
        (lambda meta, arrays: arrays.update({"scorer/b3": np.zeros(2)}),
         "shape mismatch for scorer/b3: have (1,), got (2,)"),
        (lambda meta, arrays: arrays.pop("scorer/b3"),
         "parameter set mismatch: missing ['scorer/b3'], unknown []"),
    ], ids=["no-config", "config-list", "filters-string", "unknown-key",
            "token-dim-bool", "embedding-int", "filters-negative", "dropout-overflow",
            "visual-dim", "model-in-model", "embedding-in-embedding",
            "vocab-int", "vocab-null", "shape", "missing-array"])
    def test_bad_checkpoint_located(self, tmp_path, capsys, edit, reason):
        from dataclasses import asdict

        from kpex.autodiff import Tensor
        from kpex.embedding import TokenVocabulary
        from kpex.model import ModelConfig, SpanScorer
        from kpex.registry import save_checkpoint

        model = SpanScorer(ModelConfig(filters=8, heads=2), vocab=TokenVocabulary(("w0",)))
        meta = {"format": "span-scorer", "config": asdict(model.config),
                "vocab": model.vocab.to_list()}
        arrays = {name: p.data for name, p in model.registry.items()}
        edit(meta, arrays)
        ckpt = str(tmp_path / "x.ckpt")
        save_checkpoint(ckpt, {n: Tensor(a) for n, a in arrays.items()}, meta)
        self._fails(tmp_path, capsys, ckpt, reason)

    @pytest.mark.parametrize("edit,reason", [
        (_edit_version, "unsupported checkpoint version 2"),
        (lambda path: _edit_metadata(path, "[1, 2]"), "metadata has no config object"),
        (lambda path: _edit_metadata(path, "{oops"), "metadata is not valid JSON"),
    ], ids=["version", "metadata-list", "metadata-not-json"])
    def test_bad_checkpoint_header_located(self, pipeline, tmp_path, capsys, edit, reason):
        ckpt = str(tmp_path / "x.ckpt")
        with open(os.path.join(pipeline["run_dir"], "best.ckpt"), "rb") as src, \
                open(ckpt, "wb") as dst:
            dst.write(src.read())
        edit(ckpt)
        self._fails(tmp_path, capsys, ckpt, reason)

    @staticmethod
    def _fails(tmp_path, capsys, ckpt, reason):
        data = _write_dataset(tmp_path / "docs.jsonl", n=2)
        out = str(tmp_path / "p.jsonl")
        assert main(["predict", "--model", ckpt, "--data", data, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {reason}")
        assert err.count("\n") == 1 and err.count(ckpt) == 1
        assert not os.path.exists(out)


class TestEvaluateCli:
    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        gold = _write_dataset(tmp_path / "gold.jsonl", n=3)
        preds = str(tmp_path / "preds.jsonl")
        write_jsonl(preds, [
            {"id": f"d{i}", "phrases": [["w0 w1", 1.0]]} for i in range(3)
        ])
        report_path = str(tmp_path / "report.json")
        argv = ["evaluate", "--preds", preds, "--gold", gold,
                "--depths", "1", "--f1", "", "--out", report_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "@1" in out
        report = json.load(open(report_path))
        assert report["precision"]["1"] == pytest.approx(1.0)
        assert report["recall"]["1"] == pytest.approx(1.0)
        assert "config_digest" in report

    @pytest.mark.parametrize("flags", [
        ["--depths", "0"], ["--depths=-1,1"], ["--f1", "0"],
    ])
    def test_depths_below_one_rejected(self, tmp_path, capsys, flags):
        gold = _write_dataset(tmp_path / "gold.jsonl", n=3)
        preds = str(tmp_path / "preds.jsonl")
        write_jsonl(preds, [{"id": "d0", "phrases": [["w0 w1", 1.0]]}])
        assert main(["evaluate", "--preds", preds, "--gold", gold] + flags) == 1
        captured = capsys.readouterr()
        assert "depths must be at least 1" in captured.err
        assert "@" not in captured.out

    @pytest.mark.parametrize("flag,value", [
        ("--depths", "a"), ("--depths", "1,,3"), ("--depths", ""), ("--f1", "x"),
        ("--f1", "10,"),
    ])
    def test_malformed_depths_name_the_flag(self, tmp_path, capsys, flag, value):
        gold = _write_dataset(tmp_path / "gold.jsonl", n=3)
        preds = str(tmp_path / "preds.jsonl")
        write_jsonl(preds, [{"id": "d0", "phrases": [["w0 w1", 1.0]]}])
        assert main(["evaluate", "--preds", preds, "--gold", gold, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {flag} must be a comma list of integers, "
                                f"got {value!r}\n")
        assert "@" not in captured.out

    def test_empty_documents_reported(self, tmp_path, capsys):
        lines = [{"id": "a", "text": "red stapler on sale", "keyphrases": ["red stapler"]},
                 {"id": "blank", "text": "   ", "keyphrases": ["lost phrase"]},
                 {"id": "b", "text": "blue office chair", "keyphrases": ["office chair"]}]
        gold, preds = str(tmp_path / "gold.jsonl"), str(tmp_path / "preds.jsonl")
        write_jsonl(gold, lines)
        write_jsonl(preds, [{"id": "a", "phrases": [["red stapler", 1.0]]}])
        report_path = str(tmp_path / "report.json")
        assert main(["evaluate", "--preds", preds, "--gold", gold, "--depths", "1",
                     "--out", report_path]) == 0
        captured = capsys.readouterr()
        assert "documents: 2 (skipped 1)" in captured.out
        assert "skipped: 1 empty" in captured.err
        report = json.load(open(report_path))
        assert report["documents"] == 2 and report["skipped"] == ["blank"]

    def test_unlabeled_documents_skipped_and_listed(self, tmp_path, capsys):
        lines = [{"id": "a", "text": "red stapler on sale", "keyphrases": ["red stapler"]},
                 {"id": "b", "text": "blue office chair", "keyphrases": []},
                 {"id": "c", "text": "green desk lamp"}]
        gold, preds = str(tmp_path / "gold.jsonl"), str(tmp_path / "preds.jsonl")
        write_jsonl(gold, lines)
        write_jsonl(preds, [{"id": "a", "phrases": [["red stapler", 1.0]]},
                            {"id": "b", "phrases": [["office chair", 1.0]]}])
        report_path = str(tmp_path / "report.json")
        assert main(["evaluate", "--preds", preds, "--gold", gold, "--depths", "1",
                     "--out", report_path]) == 0
        assert "documents: 1 (skipped 2)" in capsys.readouterr().out
        report = json.load(open(report_path))
        assert report["skipped"] == ["b", "c"]
        assert report["precision"]["1"] == report["recall"]["1"] == 1.0

    @pytest.mark.parametrize("line", [
        '{"id": "d0", "phrases": [["w0 w1", 0.5]]}',
        '{"id": "d1", "phrases": [["w0 w1", true]]}',
        '{"id": "d1", "phrases": [["w0 w1", NaN]]}',
        '{"id": "d1", "phrases": [["w0 w1", -Infinity]]}',
    ], ids=["duplicate-id", "bool-score", "nan-score", "infinite-score"])
    def test_bad_prediction_line_exits_one(self, tmp_path, capsys, line):
        gold = _write_dataset(tmp_path / "gold.jsonl", n=3)
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "d0", "phrases": [["w0 w1", 1.0]]}\n' + line + "\n")
        assert main(["evaluate", "--preds", str(preds), "--gold", gold]) == 1
        captured = capsys.readouterr()
        assert f"{preds}:2: " in captured.err
        assert "@" not in captured.out

    def test_end_to_end_numbers_in_range(self, pipeline, tmp_path):
        preds = str(tmp_path / "preds.jsonl")
        assert main(["predict", "--model", os.path.join(pipeline["run_dir"], "best"),
                     "--data", pipeline["data"], "--out", preds]) == 0
        report_path = str(tmp_path / "report.json")
        assert main(["evaluate", "--preds", preds, "--gold", pipeline["data"],
                     "--out", report_path]) == 0
        report = json.load(open(report_path))
        for block in ("precision", "recall", "f1"):
            for value in report[block].values():
                assert 0.0 <= value <= 1.0


class TestBaselineCli:
    def test_both_methods(self, tmp_path):
        data = _write_dataset(tmp_path / "docs.jsonl", n=4)
        for method in ("tfidf", "textrank"):
            out = str(tmp_path / f"{method}.jsonl")
            assert main(["baseline", "--method", method, "--data", data,
                         "--out", out, "--top-k", "5"]) == 0
            lines = [json.loads(l) for l in open(out)]
            assert len(lines) == 4
            assert all(l["phrases"] for l in lines)
            meta = json.load(open(out + ".meta.json"))
            assert meta["command"] == f"baseline:{method}"

    def test_ragged_visual_rows_located(self, tmp_path, capsys):
        data = str(tmp_path / "docs.jsonl")
        write_jsonl(data, [{"id": "d", "text": "red stapler",
                            "visual": [[0.5] * 18, [0.5] * 17]}])
        out = str(tmp_path / "tfidf.jsonl")
        assert main(["baseline", "--method", "tfidf", "--data", data, "--out", out]) == 1
        assert f"{data}:1: document 'd': visual" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_no_documents(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        out = str(tmp_path / "tfidf.jsonl")
        assert main(["baseline", "--method", "tfidf", "--data", str(data), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: no documents in {data}\n"
        assert not os.path.exists(out)

    def test_empty_id_located(self, tmp_path, capsys):
        data = str(tmp_path / "docs.jsonl")
        write_jsonl(data, [{"id": "", "text": "red stapler"}])
        out = str(tmp_path / "tfidf.jsonl")
        assert main(["baseline", "--method", "tfidf", "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {data}:1: id must be non-empty\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("method", ["tfidf", "textrank"])
    def test_empty_documents_reported(self, tmp_path, capsys, method):
        full, kept = _with_empty_line(tmp_path)
        outs = []
        for data in (full, kept):
            out = str(tmp_path / f"{os.path.basename(data)}.{method}")
            assert main(["baseline", "--method", method, "--data", data, "--out", out]) == 0
            outs.append((capsys.readouterr(), _read_bytes(out), _read_bytes(out + ".meta.json")))
        (full_io, *full_files), (kept_io, *kept_files) = outs
        assert f"{method} predictions for 2 documents" in full_io.out
        assert "skipped: 1 empty" in full_io.err
        assert "skipped" not in kept_io.err
        assert full_files == kept_files

    def test_rejects_unknown_method(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["baseline", "--method", "rake", "--data", "x", "--out", "y"])

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_rejected(self, tmp_path, capsys, top_k):
        out = str(tmp_path / "tfidf.jsonl")
        argv = ["baseline", "--method", "tfidf", "--data", GOLDEN_PAGES,
                "--out", out, "--top-k", top_k]
        assert main(argv) == 1
        assert "top_k must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key,message", [
        ("train.max_doc_length", "max_doc_length must be at least 1"),
        ("model.max_span_length", "max_span_length must be at least 1"),
    ])
    def test_length_below_one_rejected(self, tmp_path, capsys, key, message):
        out = str(tmp_path / "tfidf.jsonl")
        argv = ["--set", f"{key}=0", "baseline", "--method", "tfidf",
                "--data", GOLDEN_PAGES, "--out", out]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("method", ["tfidf", "textrank"])
    def test_empty_stopwords_file_means_no_stopwords(self, tmp_path, method):
        data = str(tmp_path / "docs.jsonl")
        write_jsonl(data, [{"id": "d", "text": "the red stapler of the office"}])
        stops = tmp_path / "empty.txt"
        stops.write_text("# none\n")
        out = str(tmp_path / "preds.jsonl")
        assert main(["baseline", "--method", method, "--data", data, "--out", out,
                     "--top-k", "100", "--stopwords", str(stops)]) == 0
        (line,) = [json.loads(l) for l in open(out)]
        phrases = [p for p, _ in line["phrases"]]
        assert "the" in phrases and "the red stapler" in phrases

    @pytest.mark.parametrize("method,digest", [
        ("tfidf", GOLDEN_TFIDF),
        ("textrank", GOLDEN_TEXTRANK),
    ])
    def test_golden_baselines(self, tmp_path, method, digest):
        # every ranked candidate of the golden corpus: score ties are common,
        # and the last page has no candidate at all
        out = str(tmp_path / f"{method}.jsonl")
        argv = ["baseline", "--method", method, "--data", GOLDEN_PAGES,
                "--out", out, "--top-k", "100000"]
        assert main(argv) == 0
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestDataCounts:
    """Visual rows zero-filled on reading and gold phrases dropped in labelling
    are counted in the .meta.json and said in one stderr line."""

    PLANTED = [  # 2 pages without visual rows, 1 phrase too long, 1 unmatched
        {"id": "a", "text": "red stapler on sale now", "visual": [[0.5] * 18] * 5,
         "keyphrases": ["red stapler"]},
        {"id": "b", "text": "blue office chair with wheels",
         "keyphrases": ["office chair", "one two three four five six"]},
        {"id": "c", "text": "green desk lamp for sale",
         "keyphrases": ["desk lamp", "purple elephant", "sale"]},
    ]
    LINE = "zero-filled or dropped: zero_visual=2, phrases_too_long=1, phrases_unmatched=1\n"

    def _data(self, tmp_path, planted=True):
        lines = self.PLANTED if planted else self.PLANTED[:1]
        path = str(tmp_path / ("planted.jsonl" if planted else "clean.jsonl"))
        write_jsonl(path, lines)
        return path

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "clean"])
    def test_train_counts(self, tmp_path, capsys, command, planted):
        run_dir = str(tmp_path / "run")
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1", "--set", "embedding.min_count=1",
                              command, "--data", self._data(tmp_path, planted),
                              "--out", run_dir]
        assert main(argv) == 0
        err = capsys.readouterr().err
        meta = json.load(open(os.path.join(run_dir, "run.meta.json")))
        counts = {k: meta[k] for k in ("zero_visual", "phrases_too_long", "phrases_unmatched")}
        if planted:
            assert counts == {"zero_visual": 2, "phrases_too_long": 1, "phrases_unmatched": 1}
            assert self.LINE in err
        else:
            assert counts == {"zero_visual": 0, "phrases_too_long": 0, "phrases_unmatched": 0}
            assert "zero-filled" not in err

    def test_phrase_tokenizing_to_nothing_counted_unmatched(self, tmp_path):
        data = str(tmp_path / "blank_phrase.jsonl")
        write_jsonl(data, [{"id": d, "text": "red stapler on sale now",
                            "keyphrases": ["red stapler", " \t"]} for d in ("a", "b")])
        run_dir = str(tmp_path / "run")
        argv = SMALL_MODEL + ["--set", "train.max_epochs=1", "--set", "embedding.min_count=1",
                              "train", "--data", data, "--out", run_dir]
        assert main(argv) == 0
        meta = json.load(open(os.path.join(run_dir, "run.meta.json")))
        assert (meta["examples"], meta["phrases_unmatched"], meta["phrases_too_long"]) == (2, 2, 0)

    @pytest.mark.parametrize("command", [["predict", "--model", None],
                                         ["baseline", "--method", "tfidf"]],
                             ids=["predict", "baseline"])
    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "clean"])
    def test_zero_visual_counted(self, pipeline, tmp_path, capsys, command, planted):
        command = [c or os.path.join(pipeline["run_dir"], "best.ckpt") for c in command]
        out = str(tmp_path / "out.jsonl")
        assert main(command + ["--data", self._data(tmp_path, planted), "--out", out]) == 0
        err = capsys.readouterr().err
        assert json.load(open(out + ".meta.json"))["zero_visual"] == (2 if planted else 0)
        if planted:
            assert "zero-filled or dropped: zero_visual=2\n" in err
        else:
            assert "zero-filled" not in err


class TestAgreementCli:
    def test_reports_percentage(self, tmp_path, capsys):
        path = str(tmp_path / "annotations.jsonl")
        write_jsonl(path, [
            {"id": "d1", "judges": [["x", "y", "z"], ["x", "y", "w"]]},
        ])
        out = str(tmp_path / "agreement.json")
        argv = ["agreement", "--annotations", path, "--depth", "3", "--out", out]
        assert main(argv) == 0
        assert "66.67%" in capsys.readouterr().out
        blob = json.load(open(out))
        assert blob["percentage"] == pytest.approx(200 / 3, abs=0.01)
        assert blob["pairs"] == 1

    def test_reports_skipped_unigram_pairs(self, tmp_path, capsys):
        # an empty judge list has no words, so unigram mode skips its pair
        path = str(tmp_path / "annotations.jsonl")
        write_jsonl(path, [
            {"id": "d1", "judges": [["new york"], ["york city"]]},
            {"id": "d2", "judges": [["red stapler"], []]},
        ])
        out = str(tmp_path / "agreement.json")
        argv = ["agreement", "--annotations", path, "--depth", "1", "--mode", "unigram",
                "--out", out]
        assert main(argv) == 0
        assert "50.00% over 1 judge pairs, 1 truncated lists, 1 skipped pairs" in (
            capsys.readouterr().out)
        blob = json.load(open(out))
        assert (blob["pairs"], blob["truncated_lists"], blob["skipped_pairs"]) == (1, 1, 1)

    @pytest.mark.parametrize("judges", [["ab", "ab"], "ab", 5, [["a", 1]]])
    def test_judges_not_lists_of_strings_located(self, tmp_path, capsys, judges):
        path = str(tmp_path / "annotations.jsonl")
        write_jsonl(path, [{"id": "d1", "judges": [["x"], ["x"]]},
                           {"id": "d2", "judges": judges}])
        assert main(["agreement", "--annotations", path]) == 1
        assert f"{path}:2: judges" in capsys.readouterr().err

    def test_missing_judges_field(self, tmp_path, capsys):
        path = str(tmp_path / "annotations.jsonl")
        write_jsonl(path, [{"id": "d1"}])
        assert main(["agreement", "--annotations", path]) == 1
        assert "judges" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [5, "d1", None])
    def test_line_not_an_object_located(self, tmp_path, capsys, line):
        path = str(tmp_path / "annotations.jsonl")
        write_jsonl(path, [{"id": "d1", "judges": [["x"], ["x"]]}, line])
        assert main(["agreement", "--annotations", path]) == 1
        assert f"{path}:2: expected an object with judges" in capsys.readouterr().err


class TestReportKeys:
    def test_stats_and_agreement_keys_pinned(self, tmp_path):
        # both files are written from their report records; these keys are the format
        docs, clicks = TestBuildQp()._inputs(tmp_path)
        out = str(tmp_path / "qp.jsonl")
        assert main(["build-qp", "--docs", docs, "--clicks", clicks, "--out", out]) == 0
        assert set(json.load(open(out + ".stats.json"))) == {
            "n_documents", "n_unique_queries", "doc_length_mean", "doc_length_std",
            "queries_per_doc_mean", "queries_per_doc_std", "query_length_mean",
            "query_length_std", "doc_vocabulary_size", "query_vocabulary_size",
            "dropped", "config_digest",
        }
        annotations = str(tmp_path / "annotations.jsonl")
        write_jsonl(annotations, [{"id": "d1", "judges": [["x", "y"], ["x", "z"]]}])
        report = str(tmp_path / "agreement.json")
        assert main(["agreement", "--annotations", annotations, "--out", report]) == 0
        assert set(json.load(open(report))) == {
            "depth", "mode", "percentage", "pairs", "truncated_lists", "skipped_pairs",
            "config_digest",
        }


class TestGradcheckCli:
    def test_passes_on_small_config(self, capsys):
        argv = SMALL_MODEL + ["gradcheck", "--samples", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out
        assert "passed" in out

    def test_passes_without_transformer(self, capsys):
        argv = ["gradcheck", "--samples", "2", "--ablate", "no_transformer"]
        assert main(argv) == 0
        assert "transformer/" not in capsys.readouterr().out

    def test_passes_on_small_model_without_transformer(self, capsys):
        # all-zero conv rows and zero biases put scorer pre-activations on
        # ReLU kinks when no layer norm precedes the scorer
        argv = SMALL_MODEL + ["gradcheck", "--ablate", "no_transformer"]
        assert main(argv) == 0
        assert "passed" in capsys.readouterr().out

    @pytest.mark.parametrize("max_span_length", ["1", "2"])
    def test_passes_with_short_max_span_length(self, capsys, max_span_length):
        argv = SMALL_MODEL + ["--set", f"model.max_span_length={max_span_length}",
                              "gradcheck", "--samples", "2"]
        assert main(argv) == 0
        assert "passed" in capsys.readouterr().out

    def test_failure_exits_one(self, capsys, monkeypatch):
        import kpex.gradcheck

        monkeypatch.setattr(kpex.gradcheck, "finite_difference_check",
                            lambda *args, **kwargs: {"scorer/b3": 0.5, "scorer/w3": 1e-6})
        assert main(SMALL_MODEL + ["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("5.000e-01  scorer/b3\n1.000e-06  scorer/w3\n"
                                "max rel err 5.000e-01 over 2 parameters\n")
        assert captured.err == "gradient check FAILED (threshold 1e-4)\n"

    def test_frozen_source_rejected(self, capsys):
        argv = ["--set", "embedding.source=frozen", "gradcheck"]
        assert main(argv) == 1
        assert "trainable" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, capsys, samples):
        # 0 samples checked nothing and passed; a negative count failed in numpy
        assert main(SMALL_MODEL + ["gradcheck", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
        assert "passed" not in captured.out
