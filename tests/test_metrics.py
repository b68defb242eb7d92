"""Ranked evaluation and judge agreement."""

import numpy as np
import pytest

from kpex.metrics import evaluate, judge_agreement


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
