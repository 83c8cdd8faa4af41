"""Occurrence collection and two-view featurization."""

import io
import random

import numpy as np
import pytest

from dictforge.corpus import segment_sentences
from dictforge.extraction import CandidatePhrase
from dictforge.views import (
    BOUNDARY,
    CandidateOccurrence,
    FeatureIndex,
    Locator,
    SparseVector,
    audit_dense_columns,
    build_design_matrices,
    collect_occurrences,
    featurize_context,
    featurize_spelling,
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
        assert occ.context_items() == (
            (-3, BOUNDARY), (-2, BOUNDARY), (-1, "chronic"),
            (1, "infection"), (2, BOUNDARY), (3, BOUNDARY),
        )

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

    def test_case_insensitive_matching_preserves_surface(self):
        (occ,) = collect_occurrences(sents("Ebola spread fast"), cands("ebola"))
        assert occ.surface == ("Ebola",)
        assert occ.phrase_lower == "ebola"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            list(collect_occurrences(sents("a b"), []))


class TestSparseVector:
    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            SparseVector(((3, 1.0), (1, 1.0)))

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            SparseVector(((1, 1.0), (1, 1.0)))

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError):
            SparseVector(((0, 0.0),))


class TestFeatureIndex:
    def test_bidirectional(self):
        idx = FeatureIndex()
        c = idx.add(("id", "flu"))
        assert idx.col(("id", "flu")) == c
        assert idx.name(c) == ("id", "flu")

    def test_frozen_rejects_new_features(self):
        idx = FeatureIndex()
        idx.add(("id", "flu"))
        idx.freeze()
        with pytest.raises(KeyError):
            idx.add(("id", "ebola"))
        with pytest.raises(KeyError):
            idx.col(("id", "ebola"))


def build_fixture():
    corpus = sents("the flu spread fast", "Flu and ebola are here", "no matches here")
    occs = list(collect_occurrences(corpus, cands("flu", "ebola")))
    return build_design_matrices(occs), occs


class TestFeaturize:
    def test_spelling_identity_plus_caps(self):
        vm, _ = build_fixture()
        occ = vm.occurrences[0]
        vec = featurize_spelling(occ, vm.spelling_index, {"flu": 1})
        assert vec.columns() == sorted(
            [vm.spelling_index.col(("id", "flu")), vm.spelling_index.col(("caps",))]
        )
        vec0 = featurize_spelling(occ, vm.spelling_index, {"flu": 0})
        assert vec0.columns() == [vm.spelling_index.col(("id", "flu"))]

    def test_unknown_phrase_fails(self):
        vm, _ = build_fixture()
        stranger = CandidateOccurrence(
            "smallpox", ("smallpox",), (BOUNDARY,) * 3, (BOUNDARY,) * 3, Locator("x", 0, 0, 1)
        )
        with pytest.raises(KeyError):
            featurize_spelling(stranger, vm.spelling_index, {})

    def test_context_has_six_positions(self):
        vm, _ = build_fixture()
        vec = featurize_context(vm.occurrences[0], vm.context_index)
        assert len(vec.entries) == 6
        assert all(v == 1.0 for _, v in vec.entries)

    def test_unseen_word_maps_to_position_oov(self):
        vm, _ = build_fixture()
        occ = CandidateOccurrence(
            "flu",
            ("flu",),
            (BOUNDARY, BOUNDARY, "zzz"),
            ("spread", "fast", BOUNDARY),
            Locator("x", 0, 1, 2),
        )
        vec = featurize_context(occ, vm.context_index)
        assert vm.context_index.col(("oov", -1)) in vec.columns()
        assert vm.context_index.col(("ctx", 1, "spread")) in vec.columns()

    def test_majority_caps_ties_give_zero(self):
        vm, occs = build_fixture()
        # "flu" seen once lowercase, once capitalized: tie, bit stays 0
        assert vm.caps_bit["flu"] == 0
        assert vm.caps_bit["ebola"] == 0
        bits = majority_caps_bits(
            occs + [CandidateOccurrence("flu", ("FLU",), occs[0].left_context, occs[0].right_context, Locator("e", 0, 0, 1))]
        )
        assert bits["flu"] == 1


class TestDesignMatrices:
    def test_shapes_match_hand_count(self):
        vm, _ = build_fixture()
        # 3 occurrences; spelling = 2 identities + caps; context = 14
        # realized (position, word) pairs + 6 reserved OOV columns
        assert vm.X.shape == (3, 3)
        assert vm.Z.shape == (3, 20)

    def test_shapes_match_set_oracle(self):
        vm, occs = build_fixture()
        pairs = set()
        for o in occs:
            pairs.update(zip((-3, -2, -1), o.left_context))
            pairs.update(zip((1, 2, 3), o.right_context))
        assert vm.Z.shape[1] == len(pairs) + 6
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
        assert audit_dense_columns(vm.X, exempt=vm.spelling_index.reserved) == []
        assert audit_dense_columns(vm.Z, exempt=vm.context_index.reserved) == []
        # without the exemption the unrealized reserved columns do surface
        assert audit_dense_columns(vm.Z) == sorted(vm.context_index.reserved)


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
        occs = list(collect_occurrences(corpus, cands("flu", "ebola", "hepatitis b")))
        assert ("Hepatitis", "B") in [o.surface for o in occs]
        assert any(BOUNDARY in o.left_context + o.right_context for o in occs)
        p = tmp_path / "rows.tsv"
        with open(p, "w", encoding="utf-8") as fh:
            write_occurrences(occs, fh)
        assert read_occurrences(p) == occs

    def test_short_occurrence_row_rejected(self, tmp_path):
        p = tmp_path / "rows.tsv"
        p.write_text("d\t0\t1\t2\tflu\tFlu\tthe\t⊥\t⊥\tspread\tfast\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            read_occurrences(p)
