"""Sanity checks on the planted-signal corpus generators."""

import numpy as np

from kpex.documents import count_spans, match_phrase, tokenize
from kpex.gradcheck import gradcheck_example
from synthetic import (
    lexical_corpus,
    visual_corpus,
    weak_supervision_setup,
)


class TestLexicalCorpus:
    def test_deterministic_in_seed(self):
        a = lexical_corpus(seed=3, n_docs=5)
        b = lexical_corpus(seed=3, n_docs=5)
        assert [d.tokens for d in a] == [d.tokens for d in b]
        assert [d.keyphrases for d in a] == [d.keyphrases for d in b]

    def test_phrase_present_and_keyword_tokens_exclusive(self):
        for doc in lexical_corpus(seed=0, n_docs=20):
            assert match_phrase(doc, tuple(tokenize(doc.keyphrases[0])))
            phrase_tokens = set(doc.keyphrases[0].split())
            in_doc = [t for t in doc.tokens if t.startswith("kw")]
            assert set(in_doc) == phrase_tokens

    def test_phrase_lengths_bounded(self):
        for doc in lexical_corpus(seed=1, n_docs=30, max_phrase_len=3):
            assert 1 <= len(doc.keyphrases[0].split()) <= 3


class TestVisualCorpus:
    def test_key_token_marked_and_others_flat(self):
        for doc in visual_corpus(seed=0, n_docs=10):
            key = doc.keyphrases[0]
            idx = doc.tokens.index(key)
            assert doc.visual[idx, 0] == 1.0 and doc.visual[idx, 10] == 1.0
            others = [i for i in range(len(doc)) if i != idx]
            assert (doc.visual[others][:, 0] == 0.4).all()
            assert (doc.visual[others][:, 10] == 0.0).all()

    def test_tokens_unique_within_document(self):
        for doc in visual_corpus(seed=2, n_docs=10):
            assert len(set(doc.tokens)) == len(doc)


class TestWeakSupervisionSetup:
    def test_shapes_and_click_log(self):
        pretrain, log, finetune, heldout = weak_supervision_setup(
            seed=0, n_pretrain=12, n_finetune=3, n_heldout=5
        )
        assert len(pretrain) == 12 and len(finetune) == 3 and len(heldout) == 5
        assert set(log) == {d.id for d in pretrain}
        for doc in pretrain:
            assert match_phrase(doc, tuple(tokenize(log[doc.id][0])))

    def test_tail_tokens_globally_unique(self):
        pretrain, _, finetune, heldout = weak_supervision_setup(
            seed=1, n_pretrain=10, n_finetune=3, n_heldout=4, tail_tokens=2
        )
        tails = []
        for doc in pretrain:
            tails.extend(t for t in doc.tokens if t.startswith("tail"))
        for doc in list(finetune) + list(heldout):
            tails.extend(t for t in doc.tokens if t.startswith("tail"))
        assert len(tails) == len(set(tails)) == 2 * (10 + 3 + 4)

    def test_every_split_plants_one_keyword(self):
        _, _, finetune, heldout = weak_supervision_setup(
            seed=2, n_pretrain=4, n_finetune=6, n_heldout=6
        )
        for doc in list(finetune) + list(heldout):
            key = doc.keyphrases[0]
            assert key.startswith("kw")
            assert doc.tokens.count(key) >= 1


class TestGradcheckExample:
    def test_reproducible_and_in_range(self):
        doc_a, target_a = gradcheck_example(seed=0)
        doc_b, target_b = gradcheck_example(seed=0)
        np.testing.assert_array_equal(doc_a.visual, doc_b.visual)
        assert doc_a.tokens == doc_b.tokens
        np.testing.assert_array_equal(target_a, target_b)
        assert len(doc_a) == 12
        assert target_a.shape == (count_spans(12, 5),)
        assert doc_a.visual.min() >= 0.0 and doc_a.visual.max() <= 1.0
