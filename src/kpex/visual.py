"""Visual features from rendered-page layout trees.

A layout file is JSON: a {"page": [width, height]} header and a "root" node
tree where each node carries tag, box [x, y, w, h] in page pixels, font size,
bold flag, optional leaf text, and children. Every token of the document gets
an 18-float vector: nine features for the node that carries the word and the
same nine for its parent block: the nearest block-tagged ancestor, or the root
when there is none. One depth-first walk hands each node its parent block.
Continuous features are normalized by page dimensions and the page's maximum
font size so everything lands in [0, 1].

Feature order (word value then parent value for each):
font, block width, block height, x, y, bold, inline-tag, block-tag, DOM-leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .documents import VISUAL_DIM, tokenize

INLINE_TAGS = frozenset({"a", "span", "b", "i", "em", "strong", "u", "small", "sup", "sub"})
BLOCK_TAGS = frozenset(
    {"div", "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "ul", "ol",
     "table", "tr", "td", "section", "article", "header", "footer"}
)


class LayoutError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DomNode:
    tag: str
    box: tuple  # (x, y, width, height) in page pixels
    font: float
    bold: bool
    children: tuple
    text: str | None = None


def _floats(values, count):
    """``values`` as ``count`` floats, or None unless it is a list of ``count``
    JSON numbers (true and false are not). An integer past float range is inf.
    """
    if not (isinstance(values, (list, tuple)) and len(values) == count and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        return None
    try:
        return tuple(map(float, values))
    except OverflowError:
        return (math.inf,) * count


def _parse_node(obj, path):
    if not isinstance(obj, dict):
        raise LayoutError(f"{path}: node must be an object")
    tag, text = obj.get("tag"), obj.get("text")
    if not isinstance(tag, str):
        raise LayoutError(f"{path}: tag must be a string, got {tag!r}")
    if text is not None and not isinstance(text, str):
        raise LayoutError(f"{path}: text must be a string, got {text!r}")
    box = _floats(obj.get("box"), 4)
    if box is None:
        raise LayoutError(f"{path}: box must be [x, y, w, h] numbers, got {obj.get('box')!r}")
    font = _floats([obj.get("font")], 1)
    if font is None:
        raise LayoutError(f"{path}: font must be a number, got {obj.get('font')!r}")
    (font,) = font
    bold = obj.get("bold", False)
    if not isinstance(bold, bool):
        raise LayoutError(f"{path}: bold must be true or false, got {bold!r}")
    if not all(map(math.isfinite, (*box, font))):
        raise LayoutError(f"{path}: non-finite box or font size")
    if box[2] < 0 or box[3] < 0:
        raise LayoutError(f"{path}: negative box dimensions")
    if font < 0:
        raise LayoutError(f"{path}: negative font size")
    children = obj.get("children")
    if children is not None and not isinstance(children, list):
        raise LayoutError(f"{path}: children must be a list, got {children!r}")
    children = tuple(_parse_node(child, f"{path}.children[{i}]")
                     for i, child in enumerate(children or ()))
    if text is not None and children:
        raise LayoutError(f"{path}: text is only allowed on leaf nodes")
    return DomNode(tag.lower(), box, font, bold, children, text)


def classify_tag(tag):
    """Returns (inline flag, block flag); a tag is inline, block, or neither."""
    t = tag.lower()
    return float(t in INLINE_TAGS), float(t in BLOCK_TAGS)


def compute_word_features(word_node, parent_block, page_dims, max_font):
    """The 18-float vector for one word: word-node and parent-block features."""
    page_w, page_h = page_dims
    if page_w <= 0 or page_h <= 0:
        raise LayoutError("page dimensions must be positive")
    if max_font <= 0:
        raise LayoutError("page max font must be positive")

    def nine(node):
        x, y, w, h = node.box
        inline, block = classify_tag(node.tag)
        return [
            node.font / max_font,
            w / page_w,
            h / page_h,
            x / page_w,
            y / page_h,
            float(node.bold),
            inline,
            block,
            float(not node.children),
        ]

    vec = np.empty(VISUAL_DIM)
    vec[0::2] = nine(word_node)
    vec[1::2] = nine(parent_block)
    return np.clip(vec, 0.0, 1.0)


def _walk(node, block):
    """``node`` and every node below it, depth first, each with its parent block.

    ``block`` is the parent block of ``node``: its nearest block-tagged
    ancestor, or the root when it has none.
    """
    yield node, block
    if node.tag in BLOCK_TAGS:
        block = node
    for child in node.children:
        yield from _walk(child, block)


def parse_layout(layout, doc_id="layout"):
    """Parse one layout object into (text, visual rows) in depth-first order.

    Every token maps to exactly one text-carrying leaf; the document text is
    the leaf texts joined in traversal order, which re-tokenizes to the same
    token sequence the features were computed for.
    """
    if not isinstance(layout, dict) or "page" not in layout or "root" not in layout:
        raise LayoutError(f"{doc_id}: layout needs 'page' and 'root' entries")
    page_dims = _floats(layout["page"], 2)
    if page_dims is None:
        raise LayoutError(f"{doc_id}: page must be [width, height] numbers, "
                          f"got {layout['page']!r}")
    if not all(0 < v < math.inf for v in page_dims):
        raise LayoutError(f"{doc_id}: page dimensions must be positive and finite")
    root = _parse_node(layout["root"], f"{doc_id}.root")
    nodes = list(_walk(root, root))
    max_font = max(node.font for node, _ in nodes)
    if max_font <= 0:
        raise LayoutError(f"{doc_id}: no positive font size on any node")

    pieces = []
    rows = []
    for node, block in nodes:
        tokens = tokenize(node.text or "")
        if not tokens:
            continue
        pieces.append(node.text)
        features = compute_word_features(node, block, page_dims, max_font)
        rows.extend([features] * len(tokens))
    text = " ".join(pieces)
    if not rows:
        return text, []
    return text, np.stack(rows).tolist()
