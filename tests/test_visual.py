"""Layout parsing and the 18-float visual feature vectors."""

import json
import os

import numpy as np
import pytest

from kpex.documents import VISUAL_DIM, make_document, tokenize
from kpex.fileio import DatasetError, read_json
from kpex.visual import (
    BLOCK_TAGS,
    INLINE_TAGS,
    DomNode,
    LayoutError,
    classify_tag,
    compute_word_features,
    parse_layout,
)

LAYOUT_DIR = os.path.join(os.path.dirname(__file__), "data", "layouts")


def _leaf(tag="span", box=(0, 0, 10, 10), font=12.0, bold=False, text=None):
    return DomNode(tag, tuple(float(v) for v in box), font, bold, (), text)


class TestComputeWordFeatures:
    def test_location_normalization(self):
        word = _leaf(box=(100, 200, 50, 20))
        vec = compute_word_features(word, word, (1000, 2000), 12.0)
        # x then y, word slot then parent slot
        assert vec[6] == pytest.approx(0.1)
        assert vec[8] == pytest.approx(0.1)

    def test_font_normalization(self):
        word = _leaf(font=24.0)
        vec = compute_word_features(word, word, (100, 100), 32.0)
        assert vec[0] == pytest.approx(0.75)

    def test_vector_length_always_18(self):
        vec = compute_word_features(_leaf(), _leaf(tag="div"), (50, 50), 12.0)
        assert vec.shape == (VISUAL_DIM,)

    def test_word_and_parent_interleaved(self):
        word = _leaf(tag="b", box=(10, 20, 30, 40), font=10, bold=True)
        parent = DomNode("div", (0.0, 0.0, 100.0, 100.0), 20.0, False, (word,))
        vec = compute_word_features(word, parent, (100, 100), 20.0)
        np.testing.assert_allclose(
            vec[0::2], [0.5, 0.3, 0.4, 0.1, 0.2, 1.0, 1.0, 0.0, 1.0]
        )
        np.testing.assert_allclose(
            vec[1::2], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        )

    def test_translation_covariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            box = rng.uniform(0, 200, size=4)
            word = _leaf(box=box)
            base = compute_word_features(word, word, (1000, 500), 12.0)
            dx, dy = rng.uniform(0, 100, size=2)
            moved = _leaf(box=(box[0] + dx, box[1] + dy, box[2], box[3]))
            shifted = compute_word_features(moved, moved, (1000, 500), 12.0)
            delta = shifted - base
            np.testing.assert_allclose(delta[6:8], np.full(2, dx / 1000), atol=1e-12)
            np.testing.assert_allclose(delta[8:10], np.full(2, dy / 500), atol=1e-12)
            np.testing.assert_allclose(delta[:6], np.zeros(6), atol=1e-12)
            np.testing.assert_allclose(delta[10:], np.zeros(8), atol=1e-12)

    def test_uniform_page_scaling_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            box = rng.uniform(1, 300, size=4)
            factor = rng.uniform(0.5, 4.0)
            a = compute_word_features(_leaf(box=box), _leaf(box=box), (640, 480), 12.0)
            scaled_box = box * factor
            b = compute_word_features(
                _leaf(box=scaled_box), _leaf(box=scaled_box),
                (640 * factor, 480 * factor), 12.0,
            )
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_invalid_page_or_font(self):
        with pytest.raises(LayoutError):
            compute_word_features(_leaf(), _leaf(), (0, 100), 12.0)
        with pytest.raises(LayoutError):
            compute_word_features(_leaf(), _leaf(), (100, 100), 0.0)


class TestClassifyTag:
    def test_flags_mutually_exclusive(self):
        for tag in INLINE_TAGS | BLOCK_TAGS | {"html", "body", "custom"}:
            inline, block = classify_tag(tag)
            assert inline in (0.0, 1.0) and block in (0.0, 1.0)
            assert inline + block <= 1.0

    def test_known_tags(self):
        assert classify_tag("span") == (1.0, 0.0)
        assert classify_tag("DIV") == (0.0, 1.0)
        assert classify_tag("html") == (0.0, 0.0)


class TestParseLayout:
    def _load(self, name):
        with open(os.path.join(LAYOUT_DIR, name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_single_block_both_tokens_same_node(self):
        text, rows = parse_layout(self._load("single_block.json"))
        assert tokenize(text) == ["hello", "world"]
        rows = np.asarray(rows)
        assert rows.shape == (2, VISUAL_DIM)
        np.testing.assert_array_equal(rows[0], rows[1])
        # leaf is its own parent block: the two halves coincide
        np.testing.assert_array_equal(rows[0][0::2], rows[0][1::2])
        np.testing.assert_allclose(
            rows[0][0::2], [1.0, 0.9, 0.2, 0.05, 0.1, 0.0, 0.0, 1.0, 1.0]
        )

    def test_product_page_depth_first_order(self):
        text, rows = parse_layout(self._load("product_page.json"))
        tokens = tokenize(text)
        assert tokens[:3] == ["heavy", "duty", "stapler"]
        assert tokens[-3:] == ["free", "shipping", "available"]
        assert len(rows) == len(tokens) == 20

    def test_inline_word_gets_block_parent(self):
        _, rows = parse_layout(self._load("product_page.json"))
        rows = np.asarray(rows)
        # tokens 9-10 are "all metal" inside <b> under <p>
        bold_row = rows[9]
        assert bold_row[10] == 1.0  # word bold
        assert bold_row[12] == 1.0  # word inline tag
        assert bold_row[13] == 0.0  # parent (the <p>) is not inline
        assert bold_row[15] == 1.0  # parent is a block tag
        assert bold_row[3] == pytest.approx(800 / 1000)  # parent width

    def test_word_without_block_ancestor_gets_root_parent(self):
        # no ancestor of the <a> is block-tagged, so its parent block is the root
        link = {"tag": "a", "box": [10, 20, 100, 10], "font": 8, "text": "deep link"}
        span = {"tag": "span", "box": [0, 0, 200, 40], "font": 8, "children": [link]}
        root = {"tag": "body", "box": [0, 0, 500, 1000], "font": 16, "children": [span]}
        _, rows = parse_layout({"page": [1000, 2000], "root": root})
        np.testing.assert_array_equal(
            np.asarray(rows)[:, 1::2], [[1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2)

    def test_heading_row_features(self):
        _, rows = parse_layout(self._load("product_page.json"))
        head = np.asarray(rows)[0]
        assert head[0] == 1.0  # page max font
        assert head[10] == 1.0  # bold
        assert head[1] == pytest.approx(16 / 32)  # parent font

    def test_negative_width_rejected(self):
        layout = {
            "page": [100, 100],
            "root": {"tag": "p", "box": [0, 0, -5, 10], "font": 10, "text": "x"},
        }
        with pytest.raises(LayoutError, match="negative box"):
            parse_layout(layout)

    @pytest.mark.parametrize("field,value,message", [
        ("font", float("nan"), "non-finite box or font size"),
        ("font", float("inf"), "non-finite box or font size"),
        ("box", [0, 0, float("inf"), 10], "non-finite box or font size"),
        ("box", [float("nan"), 0, 10, 10], "non-finite box or font size"),
        ("bold", "false", "bold must be true or false, got 'false'"),
        ("bold", 0, "bold must be true or false, got 0"),
        ("bold", None, "bold must be true or false, got None"),
        ("text", 5, "text must be a string, got 5"),
        ("tag", 7, "tag must be a string, got 7"),
        ("box", ["0", "0", "10", "10"],
         "box must be [x, y, w, h] numbers, got ['0', '0', '10', '10']"),
        ("box", [0, 0, True, 10], "box must be [x, y, w, h] numbers, got [0, 0, True, 10]"),
        ("font", "12", "font must be a number, got '12'"),
        ("font", 10 ** 400, "non-finite box or font size"),
        ("children", 5, "children must be a list, got 5"),
        ("children", {"tag": "p"}, "children must be a list, got {'tag': 'p'}"),
        ("children", "b", "children must be a list, got 'b'"),
    ], ids=["nan-font", "inf-font", "inf-box", "nan-box", "string-bold", "int-bold",
            "null-bold", "int-text", "int-tag", "string-box", "bool-box", "string-font",
            "huge-int-font", "int-children", "object-children", "string-children"])
    def test_bad_node_value_located(self, field, value, message):
        layout = self._load("product_page.json")
        layout["root"]["children"][1][field] = value
        with pytest.raises(LayoutError) as info:
            parse_layout(layout, "p1")
        assert str(info.value) == f"p1.root.children[1]: {message}"

    def test_null_children_read_as_none(self):
        leaf = {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "red stapler"}
        page = {"page": [100, 100], "root": leaf}
        expected = parse_layout(page, "p1")
        assert parse_layout({**page, "root": {**leaf, "children": None}}, "p1") == expected

    @pytest.mark.parametrize("page,message", [
        ([float("nan"), 100], "page dimensions must be positive and finite"),
        ([100, float("inf")], "page dimensions must be positive and finite"),
        ([0, 100], "page dimensions must be positive and finite"),
        (["wide", 100], "page must be [width, height] numbers, got ['wide', 100]"),
        ([True, 100], "page must be [width, height] numbers, got [True, 100]"),
        ([100], "page must be [width, height] numbers, got [100]"),
    ], ids=["nan", "inf", "zero", "string", "bool", "one-entry"])
    def test_bad_page_dimensions_rejected(self, page, message):
        layout = {"page": page,
                  "root": {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "x"}}
        with pytest.raises(LayoutError) as info:
            parse_layout(layout, "p1")
        assert str(info.value) == f"p1: {message}"

    def test_text_on_internal_node_rejected(self):
        layout = {
            "page": [100, 100],
            "root": {
                "tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "x",
                "children": [
                    {"tag": "b", "box": [0, 0, 5, 5], "font": 10, "text": "y"}
                ],
            },
        }
        with pytest.raises(LayoutError, match="leaf"):
            parse_layout(layout)

    def test_all_zero_fonts_rejected(self):
        layout = {"page": [100, 100],
                  "root": {"tag": "div", "box": [0, 0, 10, 10], "font": 0, "children": [
                      {"tag": "p", "box": [0, 0, 10, 10], "font": 0, "text": "red stapler"}]}}
        with pytest.raises(LayoutError, match="^page: no positive font size on any node$"):
            parse_layout(layout, "page")

    def test_missing_page_rejected(self):
        with pytest.raises(LayoutError, match="page"):
            parse_layout({"root": {"tag": "p", "box": [0, 0, 1, 1], "font": 1}})

    def test_empty_text_layout_returns_no_rows(self):
        layout = {
            "page": [100, 100],
            "root": {"tag": "p", "box": [0, 0, 10, 10], "font": 10, "text": "..."},
        }
        text, rows = parse_layout(layout)
        assert rows != []  # punctuation still tokenizes
        layout["root"]["text"] = " "
        text, rows = parse_layout(layout)
        assert rows == []

    def test_readme_layout_example_parses(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            after = fh.read().split("**Layout JSON**", 1)[1]
        example = after.split("```json", 1)[1].split("```", 1)[0]
        text, rows = parse_layout(json.loads(example))
        assert text == "Product Title"
        assert len(rows) == 2

    def test_features_align_after_retokenization(self):
        text, rows = parse_layout(self._load("product_page.json"))
        doc = make_document("p1", text, rows)
        assert len(doc) == len(rows)


class TestLoadLayoutFile:
    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"page": [1, 2],\n "root": oops}')
        with pytest.raises(DatasetError, match=r"bad\.json:2:10: invalid JSON"):
            read_json(str(path))

    def test_fixture_roundtrip(self):
        path = os.path.join(LAYOUT_DIR, "product_page.json")
        text, rows = parse_layout(read_json(path), "p")
        assert len(rows) == 20
        assert "stapler" in text.lower()


class TestPassthrough:
    def test_aligned_18_wide_accepted(self):
        rows = [[0.5] * VISUAL_DIM] * 2
        doc = make_document("d", "hello world", rows)
        np.testing.assert_array_equal(doc.visual, np.full((2, VISUAL_DIM), 0.5))

    def test_17_wide_rejected(self):
        with pytest.raises(DatasetError, match="shape"):
            make_document("d", "hello world", [[0.5] * 17] * 2)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DatasetError, match="shape"):
            make_document("d", "hello world", [[0.5] * VISUAL_DIM] * 3)
