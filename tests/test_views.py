"""Occurrence collection and two-view featurization."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictforge.corpus import segment_sentences
from dictforge.extraction import CandidatePhrase
from dictforge.views import (
    BOUNDARY,
    CONTEXT_POSITIONS,
    CandidateOccurrence,
    Locator,
    audit_dense_columns,
    build_design_matrices,
    collect_occurrences,
    intern_occurrences,
    majority_caps_bits,
    read_occurrences,
    read_triplets,
    write_occurrences,
    write_triplets,
)


def cands(*lowers):
    return [CandidatePhrase(tuple(l.split(" ")), l, 1) for l in lowers]


def sents(*texts, doc="d"):
    out = []
    for i, t in enumerate(texts):
        (s,) = segment_sentences(t)
        out.append(type(s)(doc, i, s.tokens))
    return out


class TestCollect:
    def test_boundary_padding(self):
        (occ,) = collect_occurrences(sents("chronic hepatitis b infection"), cands("hepatitis b"))
        assert occ.left_context == (BOUNDARY, BOUNDARY, "chronic")
        assert occ.right_context == ("infection", BOUNDARY, BOUNDARY)
        assert occ.locator == Locator("d", 0, 1, 3)

    def test_longest_match_wins(self):
        got = list(
            collect_occurrences(
                sents("chronic hepatitis b infection"), cands("hepatitis", "hepatitis b")
            )
        )
        assert [o.phrase_lower for o in got] == ["hepatitis b"]

    def test_nonoverlapping_leftmost(self):
        got = list(collect_occurrences(sents("flu flu flu"), cands("flu", "flu flu")))
        assert [(o.locator.start, o.locator.end) for o in got] == [(0, 2), (2, 3)]

    def test_match_counts_equal_plant_counts(self):
        rng = random.Random(3)
        names = ["ebola", "zika", "lassa"]
        planted = {n: 0 for n in names}
        corpus = []
        for i in range(120):
            n = rng.choice(names)
            planted[n] += 1
            corpus.append(f"the {n} virus appeared again")
        got = list(collect_occurrences(sents(*corpus), cands(*names)))
        seen = {}
        for o in got:
            seen[o.phrase_lower] = seen.get(o.phrase_lower, 0) + 1
        assert seen == planted

    def test_nested_and_overlapping_candidates(self):
        got = list(
            collect_occurrences(
                sents("chronic hepatitis b virus , Hepatitis spread", "the b virus"),
                cands("hepatitis", "hepatitis b", "b virus"),
            )
        )
        assert [(o.locator, o.phrase_lower, o.surface) for o in got] == [
            (Locator("d", 0, 1, 3), "hepatitis b", ("hepatitis", "b")),
            (Locator("d", 0, 5, 6), "hepatitis", ("Hepatitis",)),
            (Locator("d", 1, 1, 3), "b virus", ("b", "virus")),
        ]
        assert [o.left_context + o.right_context for o in got] == [
            (BOUNDARY, BOUNDARY, "chronic", "virus", ",", "hepatitis"),
            ("b", "virus", ",", "spread", BOUNDARY, BOUNDARY),
            (BOUNDARY, BOUNDARY, "the", BOUNDARY, BOUNDARY, BOUNDARY),
        ]

    def test_case_insensitive_matching_preserves_surface(self):
        (occ,) = collect_occurrences(sents("Ebola spread fast"), cands("ebola"))
        assert occ.surface == ("Ebola",)
        assert occ.phrase_lower == "ebola"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            list(collect_occurrences(sents("a b"), []))


def build_fixture():
    corpus = sents("the flu spread fast", "Flu and ebola are here", "no matches here")
    occs = list(collect_occurrences(corpus, cands("flu", "ebola")))
    return build_design_matrices(occs), occs


def window(occ):
    return occ.left_context + occ.right_context


def oracle_views(occs):
    """Per-row featurization by named columns: identities then the caps
    column for the spelling view, (position, word) slots for the context
    view, each in order of first appearance over locator-sorted rows."""
    occs = sorted(occs, key=lambda o: o.locator)
    upper, total = Counter(), Counter(o.phrase_lower for o in occs)
    for o in occs:
        upper[o.phrase_lower] += bool(o.surface and o.surface[0][:1].isupper())
    spelling, context = {}, {}
    for o in occs:
        spelling.setdefault(("id", o.phrase_lower), len(spelling))
        for item in zip(CONTEXT_POSITIONS, window(o)):
            context.setdefault(("ctx", *item), len(context))
    spelling[("caps",)] = len(spelling)
    X = np.zeros((len(occs), len(spelling)))
    Z = np.zeros((len(occs), len(context)))
    for r, o in enumerate(occs):
        X[r, spelling[("id", o.phrase_lower)]] = 1.0
        if 2 * upper[o.phrase_lower] > total[o.phrase_lower]:
            X[r, spelling[("caps",)]] = 1.0
        for item in zip(CONTEXT_POSITIONS, window(o)):
            Z[r, context[("ctx", *item)]] = 1.0
    return X, Z, spelling, context, occs


def assert_tables_equal(a, b):
    np.testing.assert_array_equal(a.phrase_ids, b.phrase_ids)
    np.testing.assert_array_equal(a.context_ids, b.context_ids)
    assert a.phrases == b.phrases
    assert a.contexts == b.contexts


words = st.sampled_from(["the", "flu", "spread", "a", ",", BOUNDARY])
occurrence_lists = st.lists(
    st.builds(
        lambda phrase, upper, left, right, doc, sent, start: CandidateOccurrence(
            phrase,
            tuple(((w[:1].upper() + w[1:]) if upper and i == 0 else w)
                  for i, w in enumerate(phrase.split(" "))),
            left,
            right,
            Locator(doc, sent, start, start + len(phrase.split(" "))),
        ),
        st.sampled_from(["flu", "ebola", "hepatitis b", "zika"]),
        st.booleans(),
        st.tuples(words, words, words),
        st.tuples(words, words, words),
        st.sampled_from(["a", "b", "a:10", "a:2"]),
        st.integers(0, 3),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=30,
)


class TestInterned:
    @given(occurrence_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_oracle(self, occs):
        X, Z, spelling, context, rows = oracle_views(occs)
        vm = build_design_matrices(occs)
        np.testing.assert_array_equal(vm.X.toarray(), X)
        np.testing.assert_array_equal(vm.Z.toarray(), Z)
        assert vm.X.has_canonical_format and vm.Z.has_canonical_format
        table = vm.table
        assert table.phrases == [name[1] for name in spelling if name[0] == "id"]
        assert table.contexts == [name[1:] for name in context if name[0] == "ctx"]
        assert [table.phrases[i] for i in table.phrase_ids] == [o.phrase_lower for o in rows]
        assert [[table.contexts[i] for i in ids] for ids in table.context_ids] == [
            list(zip(CONTEXT_POSITIONS, window(o))) for o in rows
        ]
        assert_tables_equal(
            table, intern_occurrences([o.phrase_lower for o in rows], map(window, rows))
        )

    def test_first_rows(self):
        vm, _ = build_fixture()
        assert vm.table.first_rows() == {"flu": 0, "ebola": 2}

    def test_window_must_have_six_words(self):
        with pytest.raises(ValueError):
            intern_occurrences(["flu"], [("the", "a", "b", "c", "d")])


class TestFeaturize:
    def test_spelling_identity_plus_caps(self):
        corpus = sents("Flu spread", "the Flu", "flu again", "the ebola")
        vm = build_design_matrices(collect_occurrences(corpus, cands("flu", "ebola")))
        flu, ebola = vm.table.phrases.index("flu"), vm.table.phrases.index("ebola")
        caps = vm.X.shape[1] - 1
        for row, phrase in enumerate(vm.table.phrase_ids):
            want = [flu, caps] if phrase == flu else [ebola]
            assert vm.X[row].indices.tolist() == want

    def test_context_has_six_positions(self):
        vm, _ = build_fixture()
        assert np.diff(vm.Z.indptr).tolist() == [6] * vm.n
        assert (vm.Z.data == 1.0).all()

    def test_majority_caps_ties_give_zero(self):
        vm, occs = build_fixture()
        # "flu" seen once lowercase, once capitalized: tie, bit stays 0
        assert majority_caps_bits(occs) == {"flu": 0, "ebola": 0}
        assert vm.X[:, -1].nnz == 0
        bits = majority_caps_bits(
            occs + [CandidateOccurrence("flu", ("FLU",), occs[0].left_context, occs[0].right_context, Locator("e", 0, 0, 1))]
        )
        assert bits["flu"] == 1


class TestDesignMatrices:
    def test_shapes_match_hand_count(self):
        vm, _ = build_fixture()
        # 3 occurrences; spelling = 2 identities + caps; context = the 14
        # realized (position, word) pairs
        assert vm.X.shape == (3, 3)
        assert vm.Z.shape == (3, 14)

    def test_shapes_match_set_oracle(self):
        vm, occs = build_fixture()
        pairs = set()
        for o in occs:
            pairs.update(zip((-3, -2, -1), o.left_context))
            pairs.update(zip((1, 2, 3), o.right_context))
        assert vm.Z.shape[1] == len(pairs)
        assert vm.X.shape[1] == len({o.phrase_lower for o in occs}) + 1

    def test_same_phrase_same_spelling_row(self):
        vm, _ = build_fixture()
        # rows 0 and 1 are both "flu" (with differing casing in the corpus)
        assert vm.occurrences[0].phrase_lower == vm.occurrences[1].phrase_lower
        np.testing.assert_array_equal(vm.X[0].toarray(), vm.X[1].toarray())
        assert (vm.Z[0] != vm.Z[1]).nnz > 0

    def test_rows_sorted_by_locator(self):
        vm, _ = build_fixture()
        locs = [o.locator for o in vm.occurrences]
        assert locs == sorted(locs)

    def test_order_independent(self):
        _, occs = build_fixture()
        shuffled = list(occs)
        random.Random(0).shuffle(shuffled)
        a = build_design_matrices(occs)
        b = build_design_matrices(shuffled)
        assert (a.X != b.X).nnz == 0
        assert (a.Z != b.Z).nnz == 0
        assert_tables_equal(a.table, b.table)

    def test_empty_stream_fails(self):
        with pytest.raises(ValueError):
            build_design_matrices([])

    def test_word_mode_dimension(self):
        corpus = sents("alpha beta gamma", "beta gamma delta")
        vocab_words = ["alpha", "beta", "gamma", "delta"]
        occs = list(collect_occurrences(corpus, cands(*vocab_words)))
        vm = build_design_matrices(occs)
        assert vm.X.shape == (6, len(vocab_words) + 1)

    def test_dense_columns_modulo_reserved(self):
        vm, _ = build_fixture()
        # no phrase of the fixture is majority-capitalized, so only the
        # caps column is unset; every context column is set by some row
        caps = vm.X.shape[1] - 1
        assert audit_dense_columns(vm.X) == [caps]
        assert audit_dense_columns(vm.X, exempt={caps}) == []
        assert audit_dense_columns(vm.Z) == []


class TestViewIO:
    def test_triplet_roundtrip(self, tmp_path):
        vm, _ = build_fixture()
        p = tmp_path / "X.npz"
        with open(p, "wb") as fh:
            write_triplets(vm.X, fh)
        back = read_triplets(p)
        assert (back != vm.X).nnz == 0

    def test_locator_roundtrip(self, tmp_path):
        corpus = sents("the flu spread fast", "Flu and ebola are here", "chronic Hepatitis B")
        vm = build_design_matrices(
            collect_occurrences(corpus, cands("flu", "ebola", "hepatitis b"))
        )
        assert ("Hepatitis", "B") in [o.surface for o in vm.occurrences]
        assert any(BOUNDARY in window(o) for o in vm.occurrences)
        p = tmp_path / "rows.tsv"
        with open(p, "w", encoding="utf-8") as fh:
            write_occurrences(vm.occurrences, fh)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert [tuple(line.split("\t")[:4]) for line in lines] == [
            (o.locator.doc_id, str(o.locator.sentence_index), str(o.locator.start),
             str(o.locator.end)) for o in vm.occurrences
        ]
        assert_tables_equal(read_occurrences(p), vm.table)

    def test_short_occurrence_row_rejected(self, tmp_path):
        p = tmp_path / "rows.tsv"
        p.write_text("d\t0\t1\t2\tflu\tFlu\tthe\t⊥\t⊥\tspread\tfast\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            read_occurrences(p)
