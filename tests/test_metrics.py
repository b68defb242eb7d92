"""Ranked evaluation, judge agreement, and the paired permutation test."""

import math
from itertools import product

import numpy as np
import pytest

from kpex.metrics import (
    evaluate,
    judge_agreement,
    per_document_scores,
    permutation_test,
)


class TestEvaluate:
    def test_hand_case(self):
        preds = {"d": ["a", "b", "c", "d", "e"]}
        gold = {"d": ["a", "e"]}
        report = evaluate(preds, gold, depths=(1, 3, 5), f1_depths=(10,))
        assert report.precision[1] == pytest.approx(1.0)
        assert report.precision[3] == pytest.approx(1 / 3)
        assert report.precision[5] == pytest.approx(2 / 5)
        assert report.recall[1] == pytest.approx(1 / 2)
        assert report.recall[5] == pytest.approx(1.0)
        # at depth 10: p = 2/10, r = 1 -> f1 = 2*.2/(1.2)
        assert report.f1[10] == pytest.approx(1 / 3)

    def test_macro_average_weights_documents_equally(self):
        preds = {"d1": ["a"], "d2": ["x"]}
        gold = {"d1": ["a"], "d2": ["y", "z"]}
        report = evaluate(preds, gold, depths=(1,), f1_depths=())
        assert report.precision[1] == pytest.approx(0.5)
        assert report.recall[1] == pytest.approx(0.5 * (1 / 1 + 0 / 2))

    def test_missing_prediction_scores_zero(self):
        preds = {}
        gold = {"d": ["a"], "e": ["b"]}
        report = evaluate(preds, gold, depths=(1,), f1_depths=())
        assert report.precision[1] == 0.0
        assert report.documents == 2

    def test_empty_gold_documents_skipped(self):
        preds = {"d": ["a"], "e": ["a"]}
        gold = {"d": ["a"], "e": ["", "   "]}
        report = evaluate(preds, gold, depths=(1,), f1_depths=())
        assert report.skipped == ["e"]
        assert report.documents == 1

    def test_all_gold_empty_rejected(self):
        with pytest.raises(ValueError, match="gold"):
            evaluate({"d": ["a"]}, {"d": [""]}, depths=(1,), f1_depths=())

    def test_duplicate_predictions_collapse_before_cut(self):
        preds = {"d": ["a", "a", "b"]}
        gold = {"d": ["a", "b"]}
        report = evaluate(preds, gold, depths=(2,), f1_depths=())
        assert report.precision[2] == pytest.approx(1.0)

    def test_normalization_applies_to_both_sides(self):
        preds = {"d": ["Heavy  Duty!"]}
        gold = {"d": ["heavy duty !"]}
        report = evaluate(preds, gold, depths=(1,), f1_depths=())
        assert report.precision[1] == pytest.approx(1.0)

    def test_stemming_mode(self):
        preds = {"d": ["stapler"]}
        gold = {"d": ["staplers"]}
        strict = evaluate(preds, gold, depths=(1,), f1_depths=())
        loose = evaluate(preds, gold, depths=(1,), f1_depths=(), stem=True)
        assert strict.precision[1] == 0.0
        assert loose.precision[1] == pytest.approx(1.0)

    def test_recall_monotone_in_depth(self):
        rng = np.random.default_rng(0)
        phrases = [f"p{i}" for i in range(12)]
        for _ in range(50):
            gold = {"d": list(rng.choice(phrases, size=4, replace=False))}
            preds = {"d": list(rng.choice(phrases, size=8, replace=False))}
            report = evaluate(preds, gold, depths=(1, 2, 3, 5, 8), f1_depths=())
            recalls = [report.recall[d] for d in (1, 2, 3, 5, 8)]
            assert recalls == sorted(recalls)

    def test_random_cases_match_bruteforce(self):
        rng = np.random.default_rng(7)
        phrases = [f"p{i}" for i in range(10)]
        for _ in range(300):
            n_docs = int(rng.integers(1, 6))
            gold = {}
            preds = {}
            for i in range(n_docs):
                gold[f"d{i}"] = list(
                    rng.choice(phrases, size=int(rng.integers(1, 5)), replace=False)
                )
                if rng.random() < 0.85:
                    preds[f"d{i}"] = list(
                        rng.choice(phrases, size=int(rng.integers(0, 8)))
                    )
            depths = (1, 3)
            report = evaluate(preds, gold, depths=depths, f1_depths=())
            for d in depths:
                p_vals, r_vals = [], []
                for doc_id in gold:
                    gset = set(gold[doc_id])
                    seen = []
                    for phrase in preds.get(doc_id, []):
                        if phrase not in seen:
                            seen.append(phrase)
                    hits = sum(1 for phrase in seen[:d] if phrase in gset)
                    p_vals.append(hits / d)
                    r_vals.append(hits / len(gset))
                assert report.precision[d] == pytest.approx(sum(p_vals) / len(p_vals))
                assert report.recall[d] == pytest.approx(sum(r_vals) / len(r_vals))

    @pytest.mark.parametrize("depths,f1_depths", [
        ((0,), ()), ((-1, 1), ()), ((1,), (0,)), ((1,), (-3,)),
    ])
    def test_depths_below_one_rejected(self, depths, f1_depths):
        with pytest.raises(ValueError, match="depth"):
            evaluate({"d": ["a"]}, {"d": ["a"]}, depths=depths, f1_depths=f1_depths)

    def test_table_renders(self):
        report = evaluate({"d": ["a"]}, {"d": ["a"]}, depths=(1,), f1_depths=(10,))
        table = report.as_table()
        assert "@1" in table and "F1@10" in table and "documents: 1" in table

    def test_per_document_scores_aligned(self):
        preds = {"a": ["x"], "b": ["y"], "c": []}
        gold = {"b": ["y"], "a": ["z"], "c": ["w"]}
        scores = per_document_scores(preds, gold, depth=1)
        np.testing.assert_array_equal(scores, [0.0, 1.0, 0.0])


class TestJudgeAgreement:
    def test_identical_judges_100(self):
        items = [[["a", "b", "c"], ["a", "b", "c"]]]
        report = judge_agreement(items, depth=3, mode="exact")
        assert report.percentage == pytest.approx(100.0)
        assert report.pairs == 1

    def test_two_of_three_shared(self):
        items = [[["x", "y", "z"], ["x", "y", "w"]]]
        report = judge_agreement(items, depth=3, mode="exact")
        assert report.percentage == pytest.approx(66.67, abs=0.01)

    def test_three_judges_all_pairs(self):
        items = [[["a"], ["a"], ["b"]]]
        report = judge_agreement(items, depth=1, mode="exact")
        assert report.pairs == 3
        assert report.percentage == pytest.approx(100 / 3, abs=0.01)

    def test_truncated_lists_counted(self):
        items = [[["a", "b"], ["a", "b", "c"]]]
        report = judge_agreement(items, depth=3, mode="exact")
        assert report.truncated_lists == 1
        assert report.percentage == pytest.approx(200 / 3, abs=0.01)

    def test_unigram_mode(self):
        items = [[["new york"], ["york city"]]]
        report = judge_agreement(items, depth=1, mode="unigram")
        assert report.percentage == pytest.approx(50.0)

    def test_unigram_min_denominator(self):
        items = [[["big red stapler"], ["red"]]]
        report = judge_agreement(items, depth=1, mode="unigram")
        assert report.percentage == pytest.approx(100.0)

    def test_exact_normalizes_phrases(self):
        items = [[["Heavy Duty"], ["heavy  duty"]]]
        report = judge_agreement(items, depth=1, mode="exact")
        assert report.percentage == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            judge_agreement([], depth=0)
        with pytest.raises(ValueError):
            judge_agreement([[["a"], ["b"]]], depth=1, mode="cosine")
        with pytest.raises(ValueError, match="pairs"):
            judge_agreement([[["a"]]], depth=1)


class TestPermutationTest:
    def test_identical_scores_p_one(self):
        scores = np.full(10, 0.4)
        result = permutation_test(scores, scores, resamples=500)
        assert result.defined
        assert result.p_value == pytest.approx(1.0)
        assert result.significant is False

    def test_strong_difference_significant(self):
        a = np.ones(20)
        b = np.zeros(20)
        result = permutation_test(a, b, resamples=2000, seed=1)
        assert result.p_value < 0.001
        assert result.significant is True
        assert result.observed == pytest.approx(1.0)

    def test_too_few_pairs_undefined(self):
        result = permutation_test(np.ones(4), np.zeros(4))
        assert not result.defined
        assert result.p_value is None
        assert "undefined" in result.summary()

    def test_seed_reproducible(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(12), rng.random(12)
        r1 = permutation_test(a, b, resamples=800, seed=5)
        r2 = permutation_test(a, b, resamples=800, seed=5)
        r3 = permutation_test(a, b, resamples=800, seed=6)
        assert r1.p_value == r2.p_value
        assert r1.p_value != r3.p_value or r1.observed == r3.observed

    def test_matches_exact_enumeration(self):
        # with 5 pairs all 32 sign patterns are enumerable, giving the exact
        # tail probability the sampler should approach
        diffs = np.array([0.6, -0.2, 0.3, 0.1, 0.5])
        a = diffs
        b = np.zeros(5)
        observed = abs(diffs.mean())
        tail = 0
        for signs in product((-1.0, 1.0), repeat=5):
            if abs((diffs * signs).mean()) >= observed - 1e-12:
                tail += 1
        q = tail / 32
        resamples = 6000
        result = permutation_test(a, b, resamples=resamples, seed=3)
        sigma = math.sqrt(q * (1 - q) / resamples)
        assert result.p_value == pytest.approx(q, abs=4 * sigma + 2 / resamples)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(10), rng.random(10)
        r_ab = permutation_test(a, b, resamples=1000, seed=9)
        r_ba = permutation_test(b, a, resamples=1000, seed=9)
        assert r_ab.p_value == pytest.approx(r_ba.p_value)
        assert r_ab.observed == pytest.approx(-r_ba.observed)

    def test_validation(self):
        with pytest.raises(ValueError):
            permutation_test(np.ones(5), np.ones(4))
        with pytest.raises(ValueError):
            permutation_test(np.ones(5), np.ones(5), resamples=0)

    def test_summary_strings(self):
        result = permutation_test(np.ones(8), np.zeros(8), resamples=400)
        text = result.summary()
        assert "p =" in text and "+1.0000" in text
