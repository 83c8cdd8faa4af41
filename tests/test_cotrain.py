"""Decision-list co-training."""

import random
from collections import Counter

import pytest

from dictforge.classifier import SeedSet
from dictforge.cotrain import (
    DecisionListState,
    Rule,
    dictionary_from_rules,
    dl_cotrain,
    rule_strength,
)
from dictforge.views import BOUNDARY, CandidateOccurrence, Locator


def occ(phrase, left, right, row):
    left = tuple(left) if len(left) == 3 else (BOUNDARY,) * (3 - len(left)) + tuple(left)
    right = tuple(right) if len(right) == 3 else tuple(right) + (BOUNDARY,) * (3 - len(right))
    return CandidateOccurrence(
        phrase_lower=phrase,
        surface=tuple(phrase.split(" ")),
        left_context=left,
        right_context=right,
        locator=Locator("d", row, 0, 1),
    )


class TestRuleStrength:
    def test_plain_precision(self):
        assert rule_strength(95, 100) == pytest.approx(0.95)

    def test_one_of_one(self):
        assert rule_strength(1, 1) == 1.0
        assert rule_strength(1, 1, smoothing="add-alpha") < 1.0
        assert rule_strength(1, 1, smoothing="add-alpha", alpha=0.1) == pytest.approx(
            1.1 / 1.2
        )

    def test_zero_total_undefined(self):
        with pytest.raises(ValueError):
            rule_strength(0, 0)

    def test_unknown_smoothing(self):
        with pytest.raises(ValueError):
            rule_strength(1, 2, smoothing="laplace-ish")


def clean_collection():
    """Positives always appear before 'virus spreads fast', negatives
    before 'protein binds here'; two labeled and two unlabeled phrases
    per class."""
    rows = []
    r = 0
    for phrase in ("ebola", "zika", "lassa", "dengue"):
        for _ in range(3):
            rows.append(occ(phrase, ["we", "saw", "the"], ["virus", "spreads", "fast"], r))
            r += 1
    for phrase in ("mutant", "same", "new", "other"):
        for _ in range(3):
            rows.append(occ(phrase, ["we", "saw", "the"], ["protein", "binds", "here"], r))
            r += 1
    return rows


SEEDS = SeedSet.make(["ebola"], ["mutant"])


class TestDlCotrain:
    def test_perfect_predictor_joins_context_list_in_iteration_one(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=20, epsilon=0.95)
        first = state.trace[0]
        added = {tuple(r["condition"]) for r in first["added_context"]}
        assert ("bigram", (1, "virus"), (2, "spreads")) in added

    def test_bootstraps_unlabeled_phrases(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=5, epsilon=0.9)
        dic = dictionary_from_rules(state, theta=0.9)
        assert set(dic.scores) == {"ebola", "zika", "lassa", "dengue"}

    def test_terminates_and_labels_everything_on_clean_data(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=5, epsilon=0.9)
        assert len(state.labeled) == 24
        assert state.trace[-1]["added_context"] == []
        assert state.trace[-1]["added_spelling"] == []

    def test_counts_match_counting_oracle(self):
        rows = clean_collection()
        state = dl_cotrain(rows, SEEDS, m=20, epsilon=0.5)
        # oracle: recount every admitted context rule of iteration 1
        # against the seed labeling that produced it
        label_of = {"ebola": "positive", "mutant": "negative"}
        oracle_total = Counter()
        oracle_match = Counter()
        for o in rows:
            label = label_of.get(o.phrase_lower)
            if label is None:
                continue
            items = list(zip((-3, -2, -1), o.left_context)) + list(
                zip((1, 2, 3), o.right_context)
            )
            for a in range(len(items)):
                for b in range(a + 1, len(items)):
                    bg = ("bigram", items[a], items[b])
                    oracle_total[bg] += 1
                    oracle_match[bg, label] += 1
        for r in state.trace[0]["added_context"]:
            cond = tuple(r["condition"])
            assert r["count_total"] == oracle_total[cond]
            assert r["count_match"] == oracle_match[cond, r["label"]]
            assert r["strength"] == pytest.approx(
                oracle_match[cond, r["label"]] / oracle_total[cond]
            )

    def test_near_one_epsilon_stalls_early_on_noisy_data(self):
        rng = random.Random(0)
        rows = []
        for r in range(200):
            phrase = rng.choice(["ebola", "mutant", "zika", "same"])
            right = rng.choice(
                [["virus", "spreads", "fast"], ["protein", "binds", "here"]]
            )
            rows.append(occ(phrase, ["we", "saw", "the"], right, r))
        state = dl_cotrain(rows, SEEDS, m=5, epsilon=1 - 1e-12)
        assert state.iteration <= 3
        assert len(state.spelling_rules) <= 6

    def test_recovers_planted_positives_under_noise(self):
        rng = random.Random(7)
        pos = [f"p{i}" for i in range(8)]
        neg = [f"n{i}" for i in range(8)]
        pos_ctx = [
            ["virus", "was", "isolated"],
            ["virus", "spread", "fast"],
            ["outbreak", "began", "there"],
        ]
        neg_ctx = [
            ["protein", "was", "stable"],
            ["enzyme", "bound", "it"],
            ["sample", "sat", "still"],
        ]
        lefts = [["we", "saw", "the"], ["they", "found", "a"], ["it", "was", "the"]]
        rows = []
        r = 0
        for phrase in pos + neg:
            for _ in range(25):
                own = pos_ctx if phrase in pos else neg_ctx
                other = neg_ctx if phrase in pos else pos_ctx
                pool = own if rng.random() < 0.9 else other
                rows.append(occ(phrase, rng.choice(lefts), rng.choice(pool), r))
                r += 1
        seeds = SeedSet.make(pos[:2], neg[:2])
        state = dl_cotrain(rows, seeds, m=5, epsilon=0.75)
        dic = dictionary_from_rules(state, theta=0.75)
        got = set(dic.scores)
        tp = len(got & set(pos))
        p = tp / len(got) if got else 0.0
        rcl = tp / len(pos)
        f1 = 2 * p * rcl / (p + rcl) if p + rcl else 0.0
        assert f1 >= 0.8

    def test_monotone_rule_growth(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=2, epsilon=0.9)
        sp = [t["spelling_rules"] for t in state.trace]
        cx = [t["context_rules"] for t in state.trace]
        assert sp == sorted(sp)
        assert cx == sorted(cx)

    def test_label_provenance(self):
        rows = clean_collection()
        state = dl_cotrain(rows, SEEDS, m=5, epsilon=0.9)
        spelling_label = {
            r.condition[1]: r.label for r in state.spelling_rules
        }
        context_rules = state.context_rules
        for row, label in state.labeled.items():
            o = rows[row]
            if o.phrase_lower in spelling_label:
                assert spelling_label[o.phrase_lower] == label
                continue
            items = set(
                zip((-3, -2, -1), o.left_context)
            ) | set(zip((1, 2, 3), o.right_context))
            matching = [
                r
                for r in context_rules
                if set(r.condition[1:]) <= items and r.label == label
            ]
            assert matching

    def test_deterministic(self):
        # row order does not matter: the pipeline feeds the views' row
        # order, the corpus stream order would give the same rules
        rows = clean_collection()
        shuffled = list(rows)
        random.Random(0).shuffle(shuffled)
        a = dl_cotrain(rows, SEEDS, m=3, epsilon=0.9)
        for other in (rows, shuffled):
            b = dl_cotrain(other, SEEDS, m=3, epsilon=0.9)
            assert a.spelling_rules == b.spelling_rules
            assert a.context_rules == b.context_rules
            assert a.trace == b.trace

    def test_unresolvable_seed_fails(self):
        with pytest.raises(ValueError, match="smallpox"):
            dl_cotrain(clean_collection(), SeedSet.make(["smallpox"], ["mutant"]), m=1, epsilon=0.9)

    def test_parameter_validation(self):
        rows = clean_collection()
        with pytest.raises(ValueError):
            dl_cotrain(rows, SEEDS, m=0, epsilon=0.9)
        with pytest.raises(ValueError):
            dl_cotrain(rows, SEEDS, m=1, epsilon=1.0)

    def test_max_iters_cap(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=1, epsilon=0.9, max_iters=1)
        assert state.iteration == 1


class TestDictionaryFromRules:
    def state_with(self, *rules):
        return DecisionListState(
            spelling_rules=list(rules),
            context_rules=[],
            labeled={},
            iteration=1,
            m=5,
            epsilon=0.95,
        )

    def rule(self, phrase, label, strength):
        return Rule("spelling", ("full-string", phrase), label, 1, 1, strength)

    def test_theta_one_keeps_only_perfect_rules(self):
        state = self.state_with(
            self.rule("ebola", "positive", 1.0),
            self.rule("zika", "positive", 0.97),
            self.rule("mutant", "negative", 1.0),
        )
        dic = dictionary_from_rules(state, theta=1.0)
        assert set(dic.scores) == {"ebola"}

    def test_theta_monotonicity(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=5, epsilon=0.9)
        low = set(dictionary_from_rules(state, theta=0.3).scores)
        high = set(dictionary_from_rules(state, theta=0.8).scores)
        assert high <= low

    def test_matches_filter_oracle_at_half(self):
        state = self.state_with(
            self.rule("a", "positive", 0.5),
            self.rule("b", "positive", 0.49),
            self.rule("c", "negative", 0.99),
            self.rule("d", "positive", 0.8),
        )
        dic = dictionary_from_rules(state, theta=0.5)
        oracle = {
            r.condition[1]
            for r in state.spelling_rules
            if r.label == "positive" and r.strength >= 0.5
        }
        assert set(dic.scores) == oracle == {"a", "d"}

    def test_metadata_recorded(self):
        state = dl_cotrain(clean_collection(), SEEDS, m=5, epsilon=0.9)
        dic = dictionary_from_rules(state, theta=0.4)
        assert dic.provenance == "cotrain"
        assert dic.metadata["theta"] == "0.4"
        assert dic.metadata["epsilon"] == "0.9"

    def test_theta_validation(self):
        state = self.state_with()
        with pytest.raises(ValueError):
            dictionary_from_rules(state, theta=0.0)
        with pytest.raises(ValueError):
            dictionary_from_rules(state, theta=1.5)
