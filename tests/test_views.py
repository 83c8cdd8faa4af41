"""Occurrence collection and two-view featurization."""

import random
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dictforge.corpus import Corpus, Sentence, intern_corpus, iter_sentences, segment_sentences
from dictforge.extraction import CandidatePhrase
from dictforge.views import (
    BOUNDARY,
    CONTEXT_POSITIONS,
    OccurrenceTable,
    ViewMatrices,
    build_design_matrices,
    collect_occurrences,
    intern_occurrences,
    read_triplets,
    write_triplets,
)


def cands(*lowers):
    return [CandidatePhrase(l, 1) for l in lowers]


def sents(*texts, doc="d"):
    out = []
    for i, t in enumerate(texts):
        (s,) = segment_sentences(t)
        out.append(type(s)(doc, i, s.tokens))
    return out


class TestCollect:
    def test_boundary_padding(self):
        (row,) = collect_occurrences(sents("chronic hepatitis b infection"), cands("hepatitis b"))
        assert row == ("d", 0, 1, 3, "hepatitis b", "hepatitis b",
                       BOUNDARY, BOUNDARY, "chronic", "infection", BOUNDARY, BOUNDARY)

    def test_longest_match_wins(self):
        got = list(
            collect_occurrences(
                sents("chronic hepatitis b infection"), cands("hepatitis", "hepatitis b")
            )
        )
        assert [row[4] for row in got] == ["hepatitis b"]

    def test_nonoverlapping_leftmost(self):
        got = list(collect_occurrences(sents("flu flu flu"), cands("flu", "flu flu")))
        assert [row[2:4] for row in got] == [(0, 2), (2, 3)]

    def test_match_counts_equal_plant_counts(self):
        rng = random.Random(3)
        names = ["ebola", "zika", "lassa"]
        planted = {n: 0 for n in names}
        corpus = []
        for i in range(120):
            n = rng.choice(names)
            planted[n] += 1
            corpus.append(f"the {n} virus appeared again")
        got = collect_occurrences(sents(*corpus), cands(*names))
        assert Counter(row[4] for row in got) == planted

    def test_nested_and_overlapping_candidates(self):
        got = list(
            collect_occurrences(
                sents("chronic hepatitis b virus , Hepatitis spread", "the b virus"),
                cands("hepatitis", "hepatitis b", "b virus"),
            )
        )
        assert [row[:6] for row in got] == [
            ("d", 0, 1, 3, "hepatitis b", "hepatitis b"),
            ("d", 0, 5, 6, "hepatitis", "Hepatitis"),
            ("d", 1, 1, 3, "b virus", "b virus"),
        ]
        assert [row[6:] for row in got] == [
            (BOUNDARY, BOUNDARY, "chronic", "virus", ",", "hepatitis"),
            ("b", "virus", ",", "spread", BOUNDARY, BOUNDARY),
            (BOUNDARY, BOUNDARY, "the", BOUNDARY, BOUNDARY, BOUNDARY),
        ]

    def test_case_insensitive_matching_preserves_surface(self):
        (row,) = collect_occurrences(sents("Ebola spread fast"), cands("ebola"))
        assert row[4:6] == ("ebola", "Ebola")

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            list(collect_occurrences(sents("a b"), []))


def build_fixture():
    corpus = sents("the flu spread fast", "Flu and ebola are here", "no matches here")
    rows = list(collect_occurrences(corpus, cands("flu", "ebola")))
    return build_design_matrices(rows), rows


def oracle_views(rows):
    """Per-row featurization by named columns: identities then the caps
    column for the spelling view, (position, word) slots for the context
    view, each in order of first appearance over locator-sorted rows."""
    rows = sorted(rows, key=lambda row: row[:4])
    upper, total = Counter(), Counter(row[4] for row in rows)
    for row in rows:
        upper[row[4]] += row[5][0].isupper()
    spelling, context = {}, {}
    for row in rows:
        spelling.setdefault(("id", row[4]), len(spelling))
        for item in zip(CONTEXT_POSITIONS, row[6:]):
            context.setdefault(("ctx", *item), len(context))
    spelling[("caps",)] = len(spelling)
    X = np.zeros((len(rows), len(spelling)))
    Z = np.zeros((len(rows), len(context)))
    for r, row in enumerate(rows):
        X[r, spelling[("id", row[4])]] = 1.0
        if 2 * upper[row[4]] > total[row[4]]:
            X[r, spelling[("caps",)]] = 1.0
        for item in zip(CONTEXT_POSITIONS, row[6:]):
            Z[r, context[("ctx", *item)]] = 1.0
    return X, Z, spelling, context, rows


def assert_tables_equal(a, b):
    for name in ("phrase_ids", "context_ids", "caps"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want)
    assert a.phrases == b.phrases
    assert a.contexts == b.contexts


def audit_dense_columns(matrix: sp.spmatrix, exempt: set[int] = frozenset()) -> list[int]:
    """Columns no row touches, minus exempt ones (such as a caps column no
    phrase sets).  A healthy build returns []."""
    counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    return [int(c) for c in np.flatnonzero(counts == 0) if int(c) not in exempt]


words = st.sampled_from(["the", "flu", "spread", "a", ",", BOUNDARY])
occurrence_lists = st.lists(
    st.builds(
        lambda phrase, upper, left, right, doc, sent, start: (
            doc, sent, start, start + len(phrase.split(" ")),
            phrase, phrase[:1].upper() + phrase[1:] if upper else phrase,
            *left, *right,
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
    def test_matches_per_row_oracle(self, rows):
        X, Z, spelling, context, ordered = oracle_views(rows)
        vm = build_design_matrices(rows)
        np.testing.assert_array_equal(vm.X.toarray(), X)
        np.testing.assert_array_equal(vm.Z.toarray(), Z)
        assert vm.X.has_canonical_format and vm.Z.has_canonical_format
        table = vm.table
        assert table.phrases == [name[1] for name in spelling if name[0] == "id"]
        assert table.contexts == [name[1:] for name in context if name[0] == "ctx"]
        assert [table.phrases[i] for i in table.phrase_ids] == [row[4] for row in ordered]
        assert [[table.contexts[i] for i in ids] for ids in table.context_ids] == [
            list(zip(CONTEXT_POSITIONS, row[6:])) for row in ordered
        ]
        assert_tables_equal(table, intern_occurrences(ordered))

    def test_first_rows(self):
        vm, _ = build_fixture()
        assert vm.table.first_rows() == {"flu": 0, "ebola": 2}

    def test_window_must_have_six_words(self):
        with pytest.raises(ValueError):
            intern_occurrences([("d", 0, 0, 1, "flu", "flu", "the", "a", "b", "c", "d")])


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
        vm, rows = build_fixture()
        # "flu" seen once lowercase, once capitalized: tie, bit stays 0
        assert vm.X[:, -1].nnz == 0
        vm = build_design_matrices(rows + [("e", 0, 0, 1, "flu", "FLU", *rows[0][6:])])
        flu = vm.table.phrases.index("flu")
        caps = vm.X[:, -1].toarray().ravel()
        assert caps.tolist() == [float(p == flu) for p in vm.table.phrase_ids]


class TestDesignMatrices:
    def test_shapes_match_hand_count(self):
        vm, _ = build_fixture()
        # 3 occurrences; spelling = 2 identities + caps; context = the 14
        # realized (position, word) pairs
        assert vm.X.shape == (3, 3)
        assert vm.Z.shape == (3, 14)

    def test_shapes_match_set_oracle(self):
        vm, rows = build_fixture()
        pairs = {item for row in rows for item in zip(CONTEXT_POSITIONS, row[6:])}
        assert vm.Z.shape[1] == len(pairs)
        assert vm.X.shape[1] == len({row[4] for row in rows}) + 1

    def test_same_phrase_same_spelling_row(self):
        vm, _ = build_fixture()
        # rows 0 and 1 are both "flu" (with differing casing in the corpus)
        assert vm.table.phrase_ids[0] == vm.table.phrase_ids[1]
        np.testing.assert_array_equal(vm.X[0].toarray(), vm.X[1].toarray())
        assert (vm.Z[0] != vm.Z[1]).nnz > 0

    def test_rows_sorted_by_locator(self):
        _, rows = build_fixture()
        vm = build_design_matrices(reversed(rows))
        ordered = sorted(rows, key=lambda row: row[:4])
        table = vm.table
        assert [table.phrases[i] for i in table.phrase_ids] == [row[4] for row in ordered]
        assert [table.contexts[i][1] for i in table.context_ids[:, -1]] == [
            row[-1] for row in ordered
        ]

    def test_matrices_built_once_on_first_access(self, monkeypatch):
        calls = []
        build = OccurrenceTable.design_matrices
        monkeypatch.setattr(
            OccurrenceTable, "design_matrices", lambda table: calls.append(1) or build(table)
        )
        vm, _ = build_fixture()
        assert calls == []
        assert vm.X is vm.X and vm.X.shape == (3, 3) and vm.Z.shape == (3, 14)
        assert len(calls) == 1

    def test_order_independent(self):
        _, rows = build_fixture()
        shuffled = list(rows)
        random.Random(0).shuffle(shuffled)
        a = build_design_matrices(rows)
        b = build_design_matrices(shuffled)
        assert (a.X != b.X).nnz == 0
        assert (a.Z != b.Z).nnz == 0
        assert_tables_equal(a.table, b.table)

    def test_empty_stream_fails(self):
        with pytest.raises(ValueError):
            build_design_matrices([])

    def test_single_word_candidates_dimension(self):
        corpus = sents("alpha beta gamma", "beta gamma delta")
        words = ["alpha", "beta", "gamma", "delta"]
        vm = build_design_matrices(collect_occurrences(corpus, cands(*words)))
        assert vm.X.shape == (6, len(words) + 1)

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

    def test_table_roundtrip(self, tmp_path):
        corpus = sents("the flu spread fast", "Flu and ebola are here", "chronic Hepatitis B")
        vm = build_design_matrices(
            collect_occurrences(corpus, cands("flu", "ebola", "hepatitis b"))
        )
        assert "hepatitis b" in vm.table.phrases
        assert (3, BOUNDARY) in vm.table.contexts
        p = tmp_path / "views.table.npz"
        vm.table.save(p)
        with np.load(p, allow_pickle=False) as data:
            assert data["phrase_ids"].dtype == data["context_ids"].dtype == np.int32
        back = OccurrenceTable.load(p)
        # int64, so arithmetic on ids (cotrain's bigram codes) cannot wrap
        assert back.phrase_ids.dtype == back.context_ids.dtype == np.int64
        assert_tables_equal(back, vm.table)
        rebuilt = ViewMatrices(back)
        for a, b in ((rebuilt.X, vm.X), (rebuilt.Z, vm.Z)):
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize(
        "key, edit, problem",
        [
            ("phrase_ids", lambda a: a[:-1], "six per row"),
            ("phrase_ids", lambda a: a.reshape(-1, 1), "phrase_ids is not one row"),
            ("phrase_ids", lambda a: a[0], "phrase_ids is not one row"),
            ("caps", lambda a: a[:-1], "caps and phrases"),
            ("words", lambda a: a[:-1], "positions and words"),
            ("phrase_ids", lambda a: a + 5, "phrase id is out of range"),
            ("context_ids", lambda a: a - 1, "context id is out of range"),
        ],
        ids=["short-phrase-ids", "2d-phrase-ids", "0d-phrase-ids", "short-caps", "short-words", "phrase-id-range", "context-id-range"],
    )
    def test_inconsistent_table_rejected(self, tmp_path, key, edit, problem):
        vm, _ = build_fixture()
        p = tmp_path / "views.table.npz"
        vm.table.save(p)
        with np.load(p) as data:
            arrays = dict(data)
        arrays[key] = edit(arrays[key])
        with open(p, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=rf"views\.table\.npz: .*{problem}"):
            OccurrenceTable.load(p)

    def test_load_names_file_for_missing_array(self, tmp_path):
        vm, _ = build_fixture()
        p = tmp_path / "views.table.npz"
        with open(p, "wb") as fh:
            np.savez(fh, phrase_ids=vm.table.phrase_ids)
        with pytest.raises(ValueError) as err:
            OccurrenceTable.load(p)
        assert str(err.value) == (
            f"{p}: missing array(s) context_ids, caps, phrases, positions, words"
        )

    def test_pickled_names_rejected(self, tmp_path):
        vm, _ = build_fixture()
        p = tmp_path / "views.table.npz"
        vm.table.save(p)
        with np.load(p) as data:
            arrays = dict(data)
        arrays["phrases"] = np.array(vm.table.phrases, dtype=object)
        with open(p, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="allow_pickle"):
            OccurrenceTable.load(p)


def _oracle_rows(sentences, candidates):
    """Occurrence rows by the per-sentence string matcher the id path
    replaced: longest candidate first at each position, left to right,
    never overlapping, on lowercased tokens."""
    phrases = {tuple(c.lower.split(" ")) for c in candidates}
    max_len = max(map(len, phrases))
    rows = []
    for sentence in sentences:
        low = [t.lower() for t in sentence.tokens]
        n, i = len(low), 0
        while i < n:
            for length in range(min(max_len, n - i), 0, -1):
                if tuple(low[i : i + length]) in phrases:
                    j = i + length
                    rows.append((
                        sentence.doc_id, sentence.index, i, j,
                        " ".join(low[i:j]), " ".join(sentence.tokens[i:j]),
                        *[BOUNDARY] * (3 - min(3, i)), *low[max(0, i - 3) : i],
                        *low[j : j + 3], *[BOUNDARY] * (3 - min(3, n - j)),
                    ))
                    i = j
                    break
            else:
                i += 1
    return rows


class TestIdPathOracle:
    """Occurrences matched on the interned corpus against the string
    matcher: nested and overlapping candidates, candidate words outside the
    vocabulary, a corpus token equal to BOUNDARY, and doc ids that sort
    apart from corpus order ("c:10" before "c:2")."""

    @given(
        lines=st.lists(
            st.lists(st.sampled_from(["the", "Flu", "flu", "hepatitis", "B", "b", "virus", ",",
                                      ".", "The", BOUNDARY, "x"]), max_size=10),
            min_size=1, max_size=12,
        ),
        names=st.lists(
            st.lists(st.sampled_from(["flu", "hepatitis", "b", "virus", "the", ",", "nowhere"]),
                     min_size=1, max_size=3).map(" ".join),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_string_oracle(self, tmp_path_factory, lines, names):
        path = tmp_path_factory.mktemp("views") / "c"
        path.write_text("".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
        candidates = cands(*names)
        rows = _oracle_rows(iter_sentences(path), candidates)
        occurrences = collect_occurrences(intern_corpus(path), candidates)
        assert list(occurrences) == rows
        if not rows:
            with pytest.raises(ValueError):
                build_design_matrices(occurrences)
            return
        X, Z, spelling, context, ordered = oracle_views(rows)
        vm = build_design_matrices(occurrences)
        np.testing.assert_array_equal(vm.X.toarray(), X)
        np.testing.assert_array_equal(vm.Z.toarray(), Z)
        assert vm.table.phrases == [name[1] for name in spelling if name[0] == "id"]
        assert vm.table.contexts == [name[1:] for name in context if name[0] == "ctx"]
        assert_tables_equal(vm.table, intern_occurrences(ordered))


class TestDocRanks:
    """Doc ids rank as strings, whatever kind of corpus holds them."""

    @staticmethod
    def string_ranks(corpus, docs):
        names = [corpus.doc_id(d) for d in docs]
        return [sorted(names).index(name) for name in names]

    def test_file_lines_rank_as_strings(self, tmp_path):
        path = tmp_path / "c"
        path.write_text("".join(f"flu {i}\n" for i in range(1, 13)), encoding="utf-8")
        corpus = intern_corpus(path)
        docs = np.unique(corpus.doc)
        assert corpus.doc_ranks(docs).tolist() == self.string_ranks(corpus, docs.tolist())
        assert corpus.doc_ranks(np.array([2, 10])).tolist() == [1, 0]  # "c:10" < "c:2"

    def test_file_table_puts_line_10_before_line_2(self, tmp_path):
        path = tmp_path / "c"
        lines = ["x"] * 10
        lines[1], lines[9] = "the flu", "the zika"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = collect_occurrences(intern_corpus(path), cands("flu", "zika")).table()
        assert table.phrases == ["zika", "flu"]

    def test_directory_names_rank_as_strings(self, tmp_path):
        for name in ("b", "a10", "a2", "B", "a"):
            (tmp_path / name).write_text("flu\n", encoding="utf-8")
        corpus = intern_corpus(tmp_path)
        docs = np.unique(corpus.doc)
        assert len(docs) == 5
        assert corpus.doc_ranks(docs).tolist() == self.string_ranks(corpus, docs.tolist())

    def test_in_memory_doc_ids_rank_as_strings(self):
        ids = ["x", "c:2", "c:10", "b"]
        corpus = Corpus.of(Sentence(doc, 0, ("flu",)) for doc in ids)
        assert corpus.doc_ranks(np.arange(4)).tolist() == [3, 2, 1, 0]
