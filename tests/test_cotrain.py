"""Decision-list co-training."""

import heapq
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictforge import cotrain
from dictforge.classifier import SeedSet
from dictforge.cotrain import (
    DecisionListState,
    Rule,
    dictionary_from_rules,
    dl_cotrain,
)
from dictforge.views import BOUNDARY, CONTEXT_POSITIONS, intern_occurrences


def occ(phrase, left, right, row):
    """A :func:`~dictforge.views.collect_occurrences` row; short context
    sides are padded."""
    left = (BOUNDARY,) * (3 - len(left)) + tuple(left)
    right = tuple(right) + (BOUNDARY,) * (3 - len(right))
    return ("d", row, 0, 1, phrase, phrase, *left, *right)


def table(rows):
    return intern_occurrences(rows)


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
        state = dl_cotrain(table(clean_collection()), SEEDS, m=20, epsilon=0.95)
        first = state.trace[0]
        added = {tuple(r["condition"]) for r in first["added_context"]}
        assert ("bigram", (1, "virus"), (2, "spreads")) in added

    def test_bootstraps_unlabeled_phrases(self):
        state = dl_cotrain(table(clean_collection()), SEEDS, m=5, epsilon=0.9)
        dic = dictionary_from_rules(state, theta=0.9)
        assert set(dic.scores) == {"ebola", "zika", "lassa", "dengue"}

    def test_terminates_and_labels_everything_on_clean_data(self):
        state = dl_cotrain(table(clean_collection()), SEEDS, m=5, epsilon=0.9)
        assert state.labels.dtype == np.int8
        assert state.labels.shape == (24,)
        assert (state.labels != cotrain._UNLABELED).sum() == 24
        assert state.trace[-1]["added_context"] == []
        assert state.trace[-1]["added_spelling"] == []

    def test_counts_match_counting_oracle(self):
        rows = clean_collection()
        state = dl_cotrain(table(rows), SEEDS, m=20, epsilon=0.5)
        # oracle: recount every admitted context rule of iteration 1
        # against the seed labeling that produced it
        label_of = {"ebola": "positive", "mutant": "negative"}
        oracle_total = Counter()
        oracle_match = Counter()
        for o in rows:
            label = label_of.get(o[4])
            if label is None:
                continue
            items = list(zip(CONTEXT_POSITIONS, o[6:]))
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
        state = dl_cotrain(table(rows), SEEDS, m=5, epsilon=1 - 1e-12)
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
        state = dl_cotrain(table(rows), seeds, m=5, epsilon=0.75)
        dic = dictionary_from_rules(state, theta=0.75)
        got = set(dic.scores)
        tp = len(got & set(pos))
        p = tp / len(got) if got else 0.0
        rcl = tp / len(pos)
        f1 = 2 * p * rcl / (p + rcl) if p + rcl else 0.0
        assert f1 >= 0.8

    def test_monotone_rule_growth(self):
        state = dl_cotrain(table(clean_collection()), SEEDS, m=2, epsilon=0.9)
        sp = [t["spelling_rules"] for t in state.trace]
        cx = [t["context_rules"] for t in state.trace]
        assert sp == sorted(sp)
        assert cx == sorted(cx)

    def test_label_provenance(self):
        rows = clean_collection()
        state = dl_cotrain(table(rows), SEEDS, m=5, epsilon=0.9)
        spelling_label = {
            r.condition[1]: r.label for r in state.spelling_rules
        }
        context_rules = state.context_rules
        for row in np.flatnonzero(state.labels != cotrain._UNLABELED).tolist():
            label = cotrain._LABEL_NAMES[int(state.labels[row])]
            o = rows[row]
            if o[4] in spelling_label:
                assert spelling_label[o[4]] == label
                continue
            items = set(zip(CONTEXT_POSITIONS, o[6:]))
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
        a = dl_cotrain(table(rows), SEEDS, m=3, epsilon=0.9)
        for other in (rows, shuffled):
            b = dl_cotrain(table(other), SEEDS, m=3, epsilon=0.9)
            assert a.spelling_rules == b.spelling_rules
            assert a.context_rules == b.context_rules
            assert a.trace == b.trace

    def test_unresolvable_seed_fails(self):
        with pytest.raises(ValueError, match="smallpox"):
            dl_cotrain(table(clean_collection()), SeedSet.make(["smallpox"], ["mutant"]), m=1, epsilon=0.9)

    def test_parameter_validation(self):
        rows = clean_collection()
        with pytest.raises(ValueError):
            dl_cotrain(table(rows), SEEDS, m=0, epsilon=0.9)
        with pytest.raises(ValueError):
            dl_cotrain(table(rows), SEEDS, m=1, epsilon=1.0)


class TestDictionaryFromRules:
    def state_with(self, *rules):
        return DecisionListState(
            spelling_rules=list(rules),
            context_rules=[],
            labels=np.zeros(0, dtype=np.int8),
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
        state = dl_cotrain(table(clean_collection()), SEEDS, m=5, epsilon=0.9)
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
        state = dl_cotrain(table(clean_collection()), SEEDS, m=5, epsilon=0.9)
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


# -- the heap selection and argmin labeling the rank-based ones replaced,
# kept as the oracle of rule choice: conditions are ordered by their keys
# themselves

def heap_select(dl, labels, limit, epsilon):
    unlabeled = cotrain._UNLABELED
    match = {
        label: np.bincount(dl.ids[:, labels == label].ravel(), minlength=len(dl.conditions))
        for label in (cotrain._POS, cotrain._NEG)
    }
    total = match[cotrain._POS] + match[cotrain._NEG]
    added = []
    for label in (cotrain._POS, cotrain._NEG):
        strength = np.where(total >= 1, match[label] / np.maximum(total, 1), -1.0)
        qualifying = np.flatnonzero(
            (total >= 1) & (strength > epsilon) & (dl.label == unlabeled)
        )
        picked = [
            (-int(match[label][cid]), -float(strength[cid]), dl.conditions[cid], int(cid))
            for cid in qualifying
        ]
        added += [
            dl.admit(cid, label, -nm, int(total[cid]), -ns)
            for nm, ns, _, cid in heapq.nsmallest(limit, picked)
        ]
    return added


def argmin_label_rows(dl):
    ids = dl.ids.T
    n = len(ids)
    s = dl.strength[ids]
    best = s.max(axis=1)
    labels = np.full(n, cotrain._UNLABELED, dtype=np.int64)
    hit = np.isfinite(best)
    if not hit.any():
        return labels
    order = dl.order[ids].astype(np.float64)
    order[s < best[:, None]] = np.inf
    pick = order.argmin(axis=1)
    chosen = ids[np.arange(n), pick]
    labels[hit] = dl.label[chosen[hit]]
    return labels


@st.composite
def tied_collections(draw):
    """Few phrases and few context words, so many rules tie in count and
    in strength; both seeds occur."""
    words = ["a", "b", "c"]
    phrases = ["ebola", "mutant", "zika", "same", "lassa"]
    rows = []
    for r in range(draw(st.integers(6, 50))):
        phrase = {0: "ebola", 1: "mutant"}.get(r) or draw(st.sampled_from(phrases))
        context = draw(st.lists(st.sampled_from(words), min_size=6, max_size=6))
        rows.append(occ(phrase, context[:3], context[3:], r))
    return rows


class TestRuleChoiceByRank:
    @settings(max_examples=120, deadline=None)
    @given(
        tied_collections(),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.5, 0.6, 0.95]),
    )
    def test_state_equals_heap_and_argmin_oracle(self, rows, m, epsilon):
        state = dl_cotrain(table(rows), SEEDS, m=m, epsilon=epsilon)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cotrain._DecisionList, "select", heap_select)
            mp.setattr(cotrain._DecisionList, "label_rows", argmin_label_rows)
            oracle = dl_cotrain(table(rows), SEEDS, m=m, epsilon=epsilon)
        assert state == oracle
        assert state.labels.tolist() == oracle.labels.tolist()

    @settings(max_examples=30, deadline=None)
    @given(tied_collections())
    def test_ranks_order_keys_lexicographically(self, rows):
        for dl in cotrain._decision_lists(table(rows)):
            order = np.argsort(dl.rank)
            assert [dl.conditions[i] for i in order] == sorted(dl.conditions)

    @settings(max_examples=60, deadline=None)
    @given(tied_collections(), st.data())
    def test_spelling_labels_are_the_phrase_rule_gather(self, rows, data):
        t = table(rows)
        spelling, _ = cotrain._decision_lists(t)
        for cid in data.draw(st.permutations(range(len(t.phrases)))):
            if data.draw(st.booleans()):
                label = data.draw(st.sampled_from([cotrain._POS, cotrain._NEG]))
                strength = data.draw(st.sampled_from([0.5, 0.75, 1.0]))
                spelling.admit(cid, label, 1, 1, strength)
        assert spelling.label_rows().tolist() == spelling.label[t.phrase_ids].tolist()


# -- the kept counts: after each selection, a list's (condition, label)
# counts are a full recount over the labels it was given

def recount(dl, labels):
    counted = labels != cotrain._UNLABELED
    codes = dl.ids[:, counted] * 2 + labels[counted]
    return np.bincount(codes.ravel(), minlength=2 * len(dl.conditions)).reshape(-1, 2)


def cotrain_with_recounts(rows, m, epsilon):
    """Run ``dl_cotrain`` and record, after each selection, its view, the
    row labels counted before and after it, the kept counts and their
    recount."""
    select = cotrain._DecisionList.select
    checks = []

    def checked(dl, labels, limit, epsilon):
        before = dl.counted.copy()
        added = select(dl, labels, limit, epsilon)
        checks.append((dl.view, before, labels.copy(), dl.counts.copy(), recount(dl, labels)))
        return added

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cotrain._DecisionList, "select", checked)
        dl_cotrain(table(rows), SEEDS, m=m, epsilon=epsilon)
    return checks


def relabeled(before, after):
    """Whether a row labeled before is labeled otherwise after."""
    return bool(((before != cotrain._UNLABELED) & (after != before)).any())


class TestKeptCounts:
    @settings(max_examples=120, deadline=None)
    @given(
        tied_collections(),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.5, 0.6, 0.95]),
    )
    def test_kept_counts_equal_a_full_recount(self, rows, m, epsilon):
        for _, _, _, kept, full in cotrain_with_recounts(rows, m, epsilon):
            assert kept.tolist() == full.tolist()

    def test_a_relabeled_row_moves_its_counts(self):
        # row 1 is first labeled positive by the context rule
        # ((-3, c), (1, c)) of strength 2/3, then negative once a stronger
        # negative context rule matches it: its counts move between labels
        contexts = [
            ("ebola", "ccc", "cab"),
            ("mutant", "cbb", "cac"),
            ("same", "bbc", "bba"),
            ("zika", "abb", "bbc"),
            ("mutant", "acc", "cba"),
            ("ebola", "caa", "cba"),
        ]
        rows = [occ(p, list(left), list(right), r) for r, (p, left, right) in enumerate(contexts)]
        checks = cotrain_with_recounts(rows, m=1, epsilon=0.5)
        moved = [view for view, before, after, _, _ in checks if relabeled(before, after)]
        assert moved == ["spelling"]
        for _, _, _, kept, full in checks:
            assert kept.tolist() == full.tolist()
