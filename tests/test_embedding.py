"""Position codes, vocabulary, and the hybrid embedding assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest

from composite_ops import mul, reduce_sum
from kpex.autodiff import Tensor
from kpex.config import EmbeddingConfig
from kpex.documents import Document, make_document, truncate
from kpex.embedding import (
    MASK_TOKEN,
    UNK_TOKEN,
    TokenVocabulary,
    attach_vectors,
    embed_document,
    position_matrix,
)
from kpex.fileio import DatasetError, write_jsonl
from kpex.inference import chunk_document


def position_encoding(position, dims):
    """Sinusoidal code: dim 2p = sin(i / 10000^(2p/P)), dim 2p+1 = cos(same).

    A one-position oracle for ``position_matrix``.
    """
    if dims < 2 or dims % 2 != 0:
        raise ValueError("position dims must be a positive even number")
    if position < 0:
        raise ValueError("position must be non-negative")
    p = np.arange(dims // 2)
    angles = position / np.power(10000.0, 2.0 * p / dims)
    vec = np.empty(dims)
    vec[0::2] = np.sin(angles)
    vec[1::2] = np.cos(angles)
    return vec


class TestPositionEncoding:
    def test_position_zero(self):
        np.testing.assert_allclose(
            position_encoding(0, 4), [0.0, 1.0, 0.0, 1.0], atol=1e-15
        )

    def test_position_one_dims_four(self):
        # angles: 1/10000^0 = 1, 1/10000^(2/4) = 0.01
        expected = [math.sin(1.0), math.cos(1.0), math.sin(0.01), math.cos(0.01)]
        np.testing.assert_allclose(position_encoding(1, 4), expected, atol=1e-12)
        np.testing.assert_allclose(
            position_encoding(1, 4),
            [0.841471, 0.540302, 0.010000, 0.999950],
            atol=1e-6,
        )

    def test_matrix_matches_per_position(self):
        for dims in (2, 8, 32, 64):
            mat = position_matrix(300, dims)
            for i in (0, 1, 17, 256, 299):
                np.testing.assert_allclose(
                    mat[i], position_encoding(i, dims), atol=1e-12
                )

    def test_values_bounded(self):
        mat = position_matrix(500, 48)
        assert np.all(np.abs(mat) <= 1.0)

    def test_distinct_positions_distinct_codes(self):
        mat = position_matrix(128, 32)
        assert len({tuple(np.round(row, 9)) for row in mat}) == 128

    def test_invalid_dims(self):
        for dims in (0, 1, 3, -2):
            with pytest.raises(ValueError):
                position_encoding(0, dims)
        with pytest.raises(ValueError):
            position_encoding(-1, 4)


class TestTokenVocabulary:
    def _docs(self):
        return [
            _doc("a", ["red", "red", "blue", "green"]),
            _doc("b", ["blue", "stapler", "stapler", "once"]),
        ]

    def test_min_count_threshold(self):
        vocab = TokenVocabulary.build(self._docs(), min_count=2)
        assert all(vocab.lookup(t) > 1 for t in ("red", "blue", "stapler"))
        assert vocab.lookup("green") == vocab.lookup("once") == 0
        assert len(vocab) == 5  # unk, mask, blue, red, stapler

    def test_reserved_ids(self):
        vocab = TokenVocabulary.build(self._docs())
        assert vocab.lookup(UNK_TOKEN) == 0 and vocab.lookup(MASK_TOKEN) == 1
        assert vocab.lookup("green") == 0
        assert vocab.lookup("red") >= 2

    def test_kept_tokens_sorted(self):
        vocab = TokenVocabulary.build(self._docs())
        assert vocab.to_list() == ["blue", "red", "stapler"]

    def test_roundtrip(self):
        vocab = TokenVocabulary.build(self._docs())
        again = TokenVocabulary.from_list(vocab.to_list())
        assert again.ids(["red", "green", "blue"]).tolist() == vocab.ids(
            ["red", "green", "blue"]
        ).tolist()

    def test_reserved_token_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            TokenVocabulary(("<unk>",))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TokenVocabulary(("a", "a"))

    def test_ids_dtype(self):
        vocab = TokenVocabulary.build(self._docs())
        assert vocab.ids(["red"]).dtype == np.int64


class TestEmbeddingConfig:
    def test_width(self):
        assert EmbeddingConfig(token_dim=8, position_dim=4).width == 30
        assert EmbeddingConfig().width == 64 + 32 + 18

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(token_dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(position_dim=5)
        with pytest.raises(ValueError):
            EmbeddingConfig(source="elmo")


class TestEmbedDocument:
    def _setup(self):
        doc = make_document("d", "red blue red")
        vocab = TokenVocabulary(("blue", "red"))
        config = EmbeddingConfig(token_dim=6, position_dim=4)
        rng = np.random.default_rng(0)
        table = Tensor(rng.normal(size=(len(vocab), 6)), requires_grad=True)
        return doc, config, table, vocab

    def test_shape_and_slices(self):
        doc, config, *source = self._setup()
        emb = embed_document(doc, config, *source).data
        assert emb.shape == (3, 28)
        np.testing.assert_allclose(emb[:, 6:10], position_matrix(3, 4))
        np.testing.assert_allclose(emb[:, 10:], np.zeros((3, 18)))
        # identical token types share the contextual slice
        np.testing.assert_array_equal(emb[0, :6], emb[2, :6])
        assert not np.array_equal(emb[0, :6], emb[1, :6])

    def test_position_ablation_zeroes_only_that_slice(self):
        doc, config, *source = self._setup()
        full = embed_document(doc, config, *source).data
        abl = embed_document(doc, config, *source, no_position=True).data
        np.testing.assert_allclose(abl[:, 6:10], np.zeros((3, 4)))
        np.testing.assert_array_equal(abl[:, :6], full[:, :6])
        np.testing.assert_array_equal(abl[:, 10:], full[:, 10:])

    def test_visual_ablation(self):
        doc, config, *source = self._setup()
        visual = np.full((3, 18), 0.25)
        doc = Document("d", doc.tokens, visual)
        full = embed_document(doc, config, *source).data
        abl = embed_document(doc, config, *source, no_visual=True).data
        np.testing.assert_allclose(full[:, 10:], visual)
        np.testing.assert_allclose(abl[:, 10:], np.zeros((3, 18)))

    def test_gradient_reaches_table(self):
        doc, config, table, vocab = self._setup()
        emb = embed_document(doc, config, table, vocab)
        reduce_sum(mul(emb, emb)).backward()
        assert table.grad is not None
        # the unused mask row gets zero gradient
        np.testing.assert_array_equal(table.grad[1], np.zeros(6))

    def test_wrong_width_source_rejected(self):
        doc, config, _, vocab = self._setup()
        with pytest.raises(ValueError, match="shape"):
            embed_document(doc, config, Tensor(np.zeros((len(vocab), 5))), vocab)

    def test_frozen_vectors_come_first(self):
        doc, config, *_ = self._setup()
        config = EmbeddingConfig(token_dim=6, position_dim=4, source="frozen")
        vectors = np.arange(3 * 6, dtype=float).reshape(3, 6)
        emb = embed_document(replace(doc, vectors=vectors), config)
        assert not emb.requires_grad
        np.testing.assert_array_equal(emb.data[:, :6], vectors)
        np.testing.assert_array_equal(emb.data[:, 6:10], position_matrix(3, 4))
        np.testing.assert_array_equal(emb.data[:, 10:], doc.visual)

    def test_frozen_without_vectors_names_document(self):
        doc, *_ = self._setup()
        config = EmbeddingConfig(token_dim=6, position_dim=4, source="frozen")
        with pytest.raises(ValueError, match="document 'd' has no frozen vectors"):
            embed_document(doc, config)

    def test_wrong_width_vectors_rejected(self):
        doc, *_ = self._setup()
        config = EmbeddingConfig(token_dim=6, position_dim=4, source="frozen")
        with pytest.raises(ValueError, match="shape"):
            embed_document(replace(doc, vectors=np.zeros((3, 5))), config)


def _doc(doc_id, tokens):
    return Document(doc_id, tuple(tokens), np.zeros((len(tokens), 18)))


class TestFrozenVectors:
    def _write(self, tmp_path, rows):
        path = tmp_path / "vectors.jsonl"
        write_jsonl(str(path), rows)
        return str(path)

    def test_load_and_slice(self, tmp_path):
        arr = np.arange(24, dtype=float).reshape(6, 4)
        path = self._write(tmp_path, [{"id": "d1", "vectors": arr.tolist()}])
        doc = _doc("d1", ["a", "b", "c", "d", "e", "f"])
        [attached] = attach_vectors([doc], path, token_dim=4)
        np.testing.assert_array_equal(attached.vectors, arr)
        assert attached.tokens == doc.tokens and doc.vectors is None

    def test_truncated_document_uses_prefix(self, tmp_path):
        # extra rows are dropped, and truncation slices the rows it keeps
        arr = np.arange(24, dtype=float).reshape(6, 4)
        path = self._write(tmp_path, [{"id": "d1", "vectors": arr.tolist()}])
        [attached] = attach_vectors([_doc("d1", ["a", "b", "c"])], path, token_dim=4)
        np.testing.assert_array_equal(attached.vectors, arr[:3])
        np.testing.assert_array_equal(truncate(attached, 2).vectors, arr[:2])

    def test_chunk_offset_slices_middle(self, tmp_path):
        arr = np.arange(24, dtype=float).reshape(6, 4)
        path = self._write(tmp_path, [{"id": "d1", "vectors": arr.tolist()}])
        [attached] = attach_vectors([_doc("d1", list("abcdef"))], path, token_dim=4)
        chunk = chunk_document(attached, 3)[1]
        assert chunk.id == "d1#chunk1" and chunk.tokens == ("d", "e", "f")
        np.testing.assert_array_equal(chunk.vectors, arr[3:6])

    def test_id_with_hash(self, tmp_path):
        path = self._write(tmp_path, [{"id": "d1", "vectors": [[1.0]]},
                                      {"id": "https://x.com/p#top", "vectors": [[2.0]]}])
        docs = [_doc("https://x.com/p#top", ["a"]), _doc("d1", ["b"])]
        attached = attach_vectors(docs, path, token_dim=1)
        assert [d.vectors.tolist() for d in attached] == [[[2.0]], [[1.0]]]

    def test_missing_document(self, tmp_path):
        path = self._write(tmp_path, [{"id": "d1", "vectors": [[0.0]]}])
        with pytest.raises(DatasetError, match=r"vectors.jsonl: no vectors for document 'd2'"):
            attach_vectors([_doc("d2", ["a"])], path, token_dim=1)

    def test_too_few_rows(self, tmp_path):
        path = self._write(tmp_path, [{"id": "d0", "vectors": [[0.0]]},
                                      {"id": "d1", "vectors": [[0.0], [1.0]]}])
        with pytest.raises(DatasetError,
                           match=r"vectors.jsonl:2: document 'd1': 2 vectors for 3 tokens"):
            attach_vectors([_doc("d1", ["a", "b", "c"])], path, token_dim=1)

    def test_ragged_rows_located(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "d0", "vectors": [[0.0, 1.0]]},
            {"id": "d1", "vectors": [[0.0, 1.0], [0.0]]},
        ])
        with pytest.raises(DatasetError, match=r"vectors.jsonl:2: document 'd1': vectors"):
            attach_vectors([], path, token_dim=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vectors_located(self, tmp_path, bad):
        path = self._write(tmp_path, [
            {"id": "d0", "vectors": [[0.0, 1.0]]},
            {"id": "d1", "vectors": [[0.0, 1.0], [bad, 2.0]]},
        ])
        with pytest.raises(DatasetError, match=r"vectors.jsonl:2: document 'd1': non-finite"):
            attach_vectors([_doc("d0", ["a"])], path, token_dim=2)

    @pytest.mark.parametrize("bad", ["0.5", True, None], ids=["string", "bool", "null"])
    def test_non_number_vectors_located(self, tmp_path, bad):
        path = self._write(tmp_path, [
            {"id": "d0", "vectors": [[0.0, 1.0]]},
            {"id": "d1", "vectors": [[0.0, 1.0], [bad, 0.5]]},
        ])
        with pytest.raises(DatasetError, match=r"vectors.jsonl:2: document 'd1': vectors "
                           r"must form a \(n, 2\) array of numbers"):
            attach_vectors([_doc("d0", ["a"])], path, token_dim=2)

    @pytest.mark.parametrize("line", [5, "id vectors", ["id", "vectors"]])
    def test_non_object_line_located(self, tmp_path, line):
        path = self._write(tmp_path, [{"id": "d0", "vectors": [[0.0]]}, line])
        with pytest.raises(DatasetError, match=r"vectors.jsonl:2: expected an object with id and vectors"):
            attach_vectors([], path, token_dim=1)

    def test_wrong_width_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "d1", "vectors": [[0.0, 1.0]]}])
        with pytest.raises(DatasetError, match="vectors"):
            attach_vectors([], path, token_dim=3)
