"""Dictionary tagger, BIO handling, and phrase-level evaluation."""

import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dictforge.tagging
from dictforge.corpus import Corpus, PhraseTrie
from dictforge.tagging import (
    BIO,
    Dictionary,
    EvalReport,
    PhraseMatches,
    conll_text,
    dictionary_codes,
    dictionary_scorer,
    evaluate,
    read_conll,
    read_dictionary,
    tag_with_dictionary,
    validate_bio,
    write_conll,
    write_dictionary,
)
from dictforge.tagging import _entity_spans
from oracles import DictTrie, PhraseSet, bio_spans, match_phrase_spans, phrase_set, string_tags


def d(*phrases, provenance="manual"):
    return Dictionary({p: 1.0 for p in phrases}, provenance=provenance)


def longest_leftmost_oracle(tokens, phrases):
    """Brute force: at each position compare every phrase, keep the longest
    hit and resume after it."""
    words = [t.lower() for t in tokens]
    spans, i = [], 0
    while i < len(words):
        hits = [p for p in phrases if p and tuple(words[i : i + len(p)]) == p]
        if hits:
            best = max(hits, key=len)
            spans.append((i, i + len(best), best))
            i += len(best)
        else:
            i += 1
    return spans


_WORDS = st.sampled_from(["flu", "Flu", "swine", "virus", "b", "the"])


class TestTagger:
    def test_single_match(self):
        tags = tag_with_dictionary(
            "the human immunodeficiency virus".split(), d("human immunodeficiency")
        )
        assert tags == ["O", "B", "I", "O"]

    def test_longest_match_wins(self):
        tags = tag_with_dictionary(
            "chronic hepatitis b".split(), d("hepatitis", "hepatitis b")
        )
        assert tags == ["O", "B", "I"]

    def test_empty_dictionary(self):
        assert tag_with_dictionary("a b c".split(), d()) == ["O", "O", "O"]

    def test_case_insensitive_default(self):
        assert tag_with_dictionary(["Influenza"], d("influenza")) == ["B"]

    def test_nonoverlapping_leftmost(self):
        tags = tag_with_dictionary("flu flu flu".split(), d("flu flu"))
        assert tags == ["B", "I", "O"]

    def test_adjacent_matches_stay_separate_entities(self):
        tags = tag_with_dictionary("ebola zika".split(), d("ebola", "zika"))
        assert tags == ["B", "B"]

    def test_idempotent(self):
        tokens = "the flu and the swine flu spread".split()
        dic = d("flu", "swine flu")
        assert tag_with_dictionary(tokens, dic) == tag_with_dictionary(tokens, dic)

    @given(
        st.lists(st.sampled_from(["flu", "swine", "virus", "the"]), min_size=1, max_size=12)
    )
    def test_output_always_well_formed(self, tokens):
        tags = tag_with_dictionary(tokens, d("flu", "swine flu", "virus"))
        validate_bio(tags)
        assert len(tags) == len(tokens)


class TestPhraseSet:
    """The string matcher of tests/oracles.py against brute force."""

    def test_reports_longest_phrase_length(self):
        phrases = PhraseSet([["flu"], ["hepatitis", "b", "virus"], ["b", "virus"]])
        assert phrases.max_len == 3
        assert ("b", "virus") in phrases
        assert PhraseSet().max_len == 0

    def test_reports_first_tokens(self):
        phrases = PhraseSet([["flu"], ["hepatitis", "b", "virus"], ["b", "virus"]])
        assert phrases.starts == {"flu", "hepatitis", "b"}
        assert PhraseSet().starts == frozenset()

    @given(
        st.lists(_WORDS, max_size=15),
        st.lists(st.lists(_WORDS, min_size=1, max_size=4), max_size=6),
    )
    def test_spans_match_brute_force_oracle(self, tokens, phrases):
        phrase_set = PhraseSet(phrases)
        assert match_phrase_spans(tokens, phrase_set) == longest_leftmost_oracle(tokens, phrase_set)


def per_sentence_codes(sentences, dictionary):
    return [BIO.index(t) for tokens in sentences for t in string_tags(tokens, dictionary)]


# "İ" lowercases to two characters, "i̇" among the phrase words
_CORPUS_WORDS = ["flu", "Flu", "swine", "virus", "b", "B", "the", "x", "İ", ","]
_PHRASE_WORDS = ["flu", "swine", "virus", "b", "the", "i̇", ",", "nowhere"]


def all_occurrences_oracle(sentences, phrases):
    """Brute force: every (start, end, first listing) of a phrase inside a
    sentence, by start and then longest first, in corpus positions."""
    out, first = [], 0
    for tokens in sentences:
        words = [t.lower() for t in tokens]
        for i in range(len(words)):
            for j in range(len(words), i, -1):
                if (key := " ".join(words[i:j])) in phrases:
                    out.append((first + i, first + j, phrases.index(key)))
        first += len(words)
    return out


class TestDictionaryCodes:
    """The trie matcher over an interned corpus against the per-sentence
    string matcher of tests/oracles.py, string_tags and match_phrase_spans."""

    @settings(max_examples=200, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=8), max_size=6
        ),
        phrases=st.lists(
            st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=3).map(" ".join),
            max_size=6,
        ),
    )
    def test_equals_per_sentence_tagging(self, sentences, phrases):
        dictionary = d(*phrases)
        corpus = Corpus.of_tokens(sentences)
        codes = dictionary_codes(corpus, dictionary)
        assert codes.tolist() == per_sentence_codes(sentences, dictionary)
        # a phrase listed twice matches as its first listing
        start, end, phrase = PhraseTrie(phrases).match(corpus)
        want = [
            (first + s, first + e, phrases.index(" ".join(key)))
            for first, tokens in zip(corpus.starts.tolist(), sentences)
            for s, e, key in match_phrase_spans(tokens, phrase_set(phrases))
        ]
        assert list(zip(start.tolist(), end.tolist(), phrase.tolist())) == want

    @pytest.mark.parametrize(
        "sentences, phrases, tags",
        [
            # nested: the longest phrase wins
            ([["chronic", "hepatitis", "b"]], ["hepatitis", "hepatitis b"], "OBI"),
            # overlapping: the leftmost wins and the next starts after it
            ([["a", "b", "c", "d"]], ["a b", "b c", "c d"], "BIBI"),
            ([["a", "b", "c"]], ["b c", "a b"], "BIO"),
            # a word outside the corpus vocabulary never matches
            ([["flu", "virus"]], ["flu zzz", "virus"], "OB"),
            # a phrase never crosses a sentence end
            ([["a", "b"], ["c"]], ["b c"], "OOO"),
            ([["a", "b", "c"]], ["b c"], "OBI"),
            # an empty dictionary tags everything O
            ([["a", "b"], ["c"]], [], "OOO"),
            ([], [], ""),
        ],
    )
    def test_cases(self, sentences, phrases, tags):
        codes = dictionary_codes(Corpus.of_tokens(sentences), d(*phrases))
        assert "".join(BIO[c] for c in codes.tolist()) == tags

    @settings(max_examples=200, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=8), max_size=6
        ),
        phrases=st.lists(
            st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=3).map(" ".join),
            max_size=8,
        ),
    )
    # nested ("flu" in "swine flu" in "swine flu virus"), overlapping
    # ("swine flu", "flu virus") and duplicated phrases, and one ("virus
    # swine") that would only occur across a sentence end
    @example(
        [["Swine", "flu", "virus", "swine", "flu"], ["swine", "x"]],
        ["flu", "swine flu", "swine flu virus", "flu virus", "flu", "flu swine", "flu virus"],
    )
    @example([["the", "virus"], ["swine", "flu"]], ["virus swine", "virus", "the virus"])
    def test_occurrences_equal_brute_force(self, sentences, phrases):
        start, end, phrase = PhraseTrie(phrases).occurrences(Corpus.of_tokens(sentences))
        got = list(zip(start.tolist(), end.tolist(), phrase.tolist()))
        assert got == all_occurrences_oracle(sentences, phrases)

    def test_trie_built_once_per_dictionary(self):
        dictionary = d("flu", "swine flu")
        assert dictionary.trie is dictionary.trie

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=5), max_size=5
        ),
        st.lists(st.sampled_from(_PHRASE_WORDS), max_size=3),
    )
    def test_conll_text_equals_write_conll(self, sentences, phrases):
        dictionary = d(*phrases)
        corpus = Corpus.of_tokens(sentences)
        out = io.StringIO()
        write_conll(((t, tag_with_dictionary(t, dictionary)) for t in sentences), out)
        text = conll_text(corpus, dictionary_codes(corpus, dictionary))
        assert text == out.getvalue()


class TestPhraseTrieBuild:
    """The level-by-level trie against the word-by-word dict builder of
    tests/oracles.py: the same word ids and the same occurrences."""

    @settings(max_examples=200, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=8), max_size=6
        ),
        phrases=st.lists(
            st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=4).map(" ".join),
            max_size=10,
        ),
    )
    # duplicates, shared prefixes, phrases that are prefixes of others, an
    # empty word, and no phrase at all
    @example(
        [["swine", "flu", "virus", "flu"], ["flu", "swine"]],
        ["swine flu virus", "flu", "swine", "swine flu", "flu", "swine flu virus", "flu swine"],
    )
    @example([["the", "", "b"]], ["the", "the  b", "", "b"])
    @example([["flu"]], [])
    def test_occurrences_equal_dict_trie(self, sentences, phrases):
        trie, oracle = PhraseTrie(phrases), DictTrie(phrases)
        assert list(trie.words.items()) == list(oracle.words.items())
        assert trie.width == oracle.width
        corpus = Corpus.of_tokens(sentences)
        for got, want in zip(trie.occurrences(corpus), oracle.occurrences(corpus)):
            assert got.tolist() == want.tolist()


class TestBioSpans:
    def test_basic(self):
        assert bio_spans(["O", "B", "I", "O", "B"]) == {(1, 3), (4, 5)}

    def test_ill_formed_i_opens_entity(self):
        assert bio_spans(["O", "I", "I", "O"]) == {(1, 3)}

    def test_b_after_entity_starts_new(self):
        assert bio_spans(["B", "B", "I"]) == {(0, 1), (1, 3)}

    def test_validate_rejects_ill_formed(self):
        with pytest.raises(ValueError):
            validate_bio(["O", "I"])
        with pytest.raises(ValueError):
            validate_bio(["B", "X"])
        validate_bio(["B", "I", "O", "B"])


def count_spans_oracle(predicted, gold):
    """Per-sentence comparison of :func:`bio_spans` by list membership."""
    tp = fp = fn = 0
    for p, g in zip(predicted, gold):
        ps, gs = list(bio_spans(p)), list(bio_spans(g))
        tp += sum(span in gs for span in ps)
        fp += sum(span not in gs for span in ps)
        fn += sum(span not in ps for span in gs)
    return EvalReport.from_counts(tp, fp, fn)


_TAGS = st.lists(st.sampled_from(["B", "I", "O", "X"]), max_size=10)


class TestEvaluate:
    @given(st.lists(st.tuples(_TAGS, _TAGS), max_size=8))
    # an empty sentence between others, an entity open over an unknown tag
    # in either sequence, and no sentence at all
    @example([(["B", "I"], ["B", "I"]), ([], []), (["X", "B", "X", "I"], ["I", "B", "I", "I"])])
    @example([(["O", "I", "X"], ["B", "X", "O"]), ([], [])])
    @example([])
    def test_matches_count_oracle(self, pairs):
        # predicted and gold tags may be ill-formed or unknown
        pairs = [(p[: len(g)] + ["O"] * (len(g) - len(p)), g) for p, g in pairs]
        predicted = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        assert evaluate(predicted, gold) == count_spans_oracle(predicted, gold)

    def test_perfect(self):
        report = evaluate([["O", "B", "I"]], [["O", "B", "I"]])
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_mixed_counts(self):
        pred = [["O", "B", "I", "O", "B", "O", "O", "O"]]
        gold = [["O", "B", "I", "O", "O", "O", "B", "I"]]
        report = evaluate(pred, gold)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_boundary_mismatch_is_both_fp_and_fn(self):
        report = evaluate([["B", "I", "O"]], [["B", "I", "I"]])
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)
        assert report.f1 == 0.0

    def test_zero_denominators(self):
        report = evaluate([["O"]], [["O"]])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_f1_identity(self):
        report = evaluate(
            [["B", "O", "B", "O"], ["B", "O", "O", "O"]],
            [["B", "O", "O", "B"], ["B", "O", "O", "O"]],
        )
        p, r = report.precision, report.recall
        assert report.f1 == pytest.approx(2 * p * r / (p + r))

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError, match="sentence count mismatch: 1 predicted vs 2 gold"):
            evaluate([["O"]], [["O"], ["O"]])

    def test_token_count_mismatch(self):
        with pytest.raises(ValueError, match="token count mismatch in sentence 0"):
            evaluate([["O", "O"]], [["O"]])
        # equal totals, so only the sentence-by-sentence count tells
        with pytest.raises(ValueError, match="token count mismatch in sentence 1"):
            evaluate([["B"], ["O", "O"], ["O"]], [["B"], ["O"], ["O", "O"]])

    def test_counts_add_over_sentences(self):
        one = evaluate([["B", "O"]], [["B", "O"]])
        two = evaluate([["B", "O"], ["B", "O"]], [["B", "O"], ["O", "B"]])
        assert one.tp == 1
        assert (two.tp, two.fp, two.fn) == (1, 1, 1)


class TestDictionaryScorer:
    """One occurrence list per labeled split against tagging each sentence
    with the string matcher and scoring each dictionary afresh."""

    @settings(max_examples=200, deadline=None)
    @given(
        split=st.lists(
            st.lists(
                st.tuples(st.sampled_from(_CORPUS_WORDS), st.sampled_from(BIO)),
                min_size=1,
                max_size=8,
            ),
            max_size=6,
        ),
        universe=st.lists(
            st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=3).map(" ".join),
            max_size=8,
        ),
        picks=st.lists(st.integers(0, 7)),
    )
    def test_equals_evaluate_of_tagging(self, split, universe, picks):
        labeled = [([t for t, _ in s], [g for _, g in s]) for s in split]
        score = dictionary_scorer(labeled, universe)
        dictionary = d(*(universe[i] for i in picks if i < len(universe)))
        pred = [string_tags(tokens, dictionary) for tokens, _ in labeled]
        assert score(dictionary) == evaluate(pred, [tags for _, tags in labeled])

    @settings(max_examples=200, deadline=None)
    @given(
        split=st.lists(
            st.lists(
                st.tuples(st.sampled_from(_CORPUS_WORDS), st.sampled_from(BIO)),
                min_size=1,
                max_size=8,
            ),
            max_size=6,
        ),
        universe=st.lists(
            st.lists(st.sampled_from(_PHRASE_WORDS), min_size=1, max_size=3).map(" ".join),
            max_size=8,
        ),
        picks=st.lists(st.integers(0, 7)),
    )
    def test_mask_scores_as_its_dictionary(self, split, universe, picks):
        # a mask over the distinct phrases, in their first-listed order, and
        # a dictionary of the same phrases score the same report
        labeled = [([t for t, _ in s], [g for _, g in s]) for s in split]
        score = dictionary_scorer(labeled, universe)
        dictionary = d(*(universe[i] for i in picks if i < len(universe)))
        mask = np.array([p in dictionary.scores for p in dict.fromkeys(universe)], dtype=bool)
        assert score(mask) == score(dictionary)

    def test_mask_must_be_boolean_over_the_universe(self):
        score = dictionary_scorer([(["flu"], ["B"])], ["flu", "swine flu", "flu"])
        assert score(np.array([True, False])).f1 == 1.0
        for bad in (np.array([True]), np.array([True, False, True]), np.array([1, 0])):
            with pytest.raises(ValueError, match="boolean mask over 2 phrases"):
                score(bad)

    def test_scores_several_dictionaries(self):
        labeled = [(["Swine", "flu", "spread"], ["B", "I", "O"]), (["flu"], ["B"])]
        score = dictionary_scorer(labeled, ["flu", "swine flu", "flu spread"])
        assert (score(d("swine flu")).tp, score(d("swine flu")).fn) == (1, 1)
        assert (score(d("flu", "flu spread")).tp, score(d("flu", "flu spread")).fp) == (1, 1)
        assert score(d("flu", "swine flu")).f1 == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(["B", "I", "O", "X"]), max_size=7), max_size=6),
        st.lists(st.integers(0, 5)),
    )
    # I first, I after O, B after B, I after an unknown tag, an empty sentence
    @example([["I", "I", "O", "I"], ["O", "I", "B", "B", "I"], [], ["X", "I", "B", "X", "I"]], [])
    def test_gold_spans_and_hits_equal_bio_spans(self, tag_lists, picks):
        # ill-formed and unknown tags: each entity is bio_spans' of its sentence
        sentences = [["flu", "swine"][: len(tags)] + ["flu"] * (len(tags) - 2) for tags in tag_lists]
        corpus = Corpus.of_tokens(sentences)
        start, end = _entity_spans(corpus.starts, tag_lists)
        want = sorted(
            (first + s, first + e)
            for first, tags in zip(corpus.starts.tolist(), tag_lists)
            for s, e in bio_spans(tags)
        )
        assert list(zip(start.tolist(), end.tolist())) == want
        # a hit is an occurrence that is a gold entity, as evaluate counts it
        labeled = list(zip(sentences, tag_lists))
        universe = ["flu", "swine", "flu flu", "flu swine", "swine flu", "flu flu flu"]
        dictionary = d(*(universe[i] for i in picks))
        pred = [string_tags(tokens, dictionary) for tokens in sentences]
        assert dictionary_scorer(labeled, universe)(dictionary) == evaluate(pred, tag_lists)

    def test_tags_must_align_with_tokens(self):
        with pytest.raises(ValueError, match="one tag per token"):
            dictionary_scorer([(["flu", "virus"], ["B"])], ["flu"])

    def test_phrase_outside_the_universe_rejected(self):
        score = dictionary_scorer([(["flu"], ["B"])], ["flu"])
        with pytest.raises(ValueError, match="'swine flu'"):
            score(d("flu", "swine flu"))


_NESTED = ["hepatitis", "hepatitis b", "b virus", "b", "virus"]


class TestPhraseMatches:
    """A split's saved matches of a phrase list against scoring each mask
    afresh with ``dictionary_scorer``."""

    @settings(max_examples=200, deadline=None)
    @given(
        split=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["hepatitis", "Hepatitis", "b", "B", "virus", "x"]),
                    st.sampled_from("BIO"),
                ),
                min_size=1,
                max_size=8,
            ),
            max_size=6,
        ),
        mask=st.lists(st.booleans(), min_size=len(_NESTED), max_size=len(_NESTED)),
    )
    # nested ("hepatitis" in "hepatitis b") and overlapping ("hepatitis b",
    # "b virus") occurrences, one at a sentence end
    @example(
        [[("Hepatitis", "B"), ("b", "I"), ("virus", "O")], [("x", "O"), ("b", "B"), ("virus", "I")]],
        [True, True, True, False, False],
    )
    def test_saved_matches_score_as_the_scorer(self, tmp_path_factory, split, mask):
        labeled = [([t for t, _ in s], [g for _, g in s]) for s in split]
        path = tmp_path_factory.mktemp("matches") / "dev.matches.npz"
        PhraseMatches.find(labeled, _NESTED).save(path)
        loaded = PhraseMatches.load(path)
        mask = np.array(mask)
        assert loaded.score(mask) == dictionary_scorer(labeled, _NESTED)(mask)

    def test_round_trip(self, tmp_path):
        labeled = [(["Hepatitis", "b", "virus"], ["B", "I", "O"]), (["b", "virus"], ["B", "I"])]
        found = PhraseMatches.find(labeled, _NESTED)
        found.save(tmp_path / "m.npz")
        loaded = PhraseMatches.load(tmp_path / "m.npz")
        for name in ("start", "end", "phrase", "hit"):
            got, want = getattr(loaded, name), getattr(found, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
        assert (loaded.gold, loaded.n_phrases) == (found.gold, found.n_phrases) == (2, 5)
        # by start, then longest first: hepatitis b, hepatitis, b virus, b, virus, ...
        assert [_NESTED[p] for p in loaded.phrase.tolist()[:3]] == [
            "hepatitis b", "hepatitis", "b virus"
        ]

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda arrays: arrays.pop("hit"), "missing array"),
            (lambda arrays: arrays.update(end=arrays["end"][:-1]), "not one row each"),
            (lambda arrays: arrays.update(phrase=arrays["phrase"] + 5), "phrase id is out of range"),
            (lambda arrays: arrays.update(phrase=arrays["phrase"] - 1), "phrase id is out of range"),
        ],
        ids=["missing", "ragged", "id-past-the-list", "negative-id"],
    )
    def test_load_names_the_file(self, tmp_path, damage, problem):
        path = tmp_path / "dev.matches.npz"
        PhraseMatches.find([(["hepatitis", "b"], ["B", "I"])], _NESTED).save(path)
        with np.load(path) as data:
            arrays = dict(data)
        damage(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{problem}"):
            PhraseMatches.load(path)


class TestDictionaryIO:
    def test_roundtrip_with_metadata(self, tmp_path):
        dic = Dictionary(
            {"influenza": 1.5, "hepatitis b": 0.25},
            provenance="cca",
            metadata={"k": "20", "C": "0.1"},
        )
        buf = io.StringIO()
        write_dictionary(dic, buf)
        p = tmp_path / "dict.tsv"
        p.write_text(buf.getvalue(), encoding="utf-8")
        back = read_dictionary(p)
        assert back.scores == dic.scores
        assert list(back.scores) == ["influenza", "hepatitis b"]
        assert back.provenance == "cca"
        assert back.metadata == dic.metadata

    def test_header_format(self):
        buf = io.StringIO()
        write_dictionary(d("flu", provenance="cotrain"), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# provenance: cotrain"
        assert lines[-1] == "flu\t1.0"

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError):
            Dictionary({"flu": 1.0}, provenance="wishful")

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            Dictionary({" ": 1.0})

    def test_phrase_with_capitals_rejected(self, tmp_path):
        # lookups lowercase the tokens, so "HIV" would silently never match
        with pytest.raises(ValueError, match="'HIV' is not lowercase"):
            Dictionary({"flu": 1.0, "HIV": 1.0})
        path = tmp_path / "hand.dict.tsv"
        path.write_text("yellow Fever\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'yellow Fever'"):
            read_dictionary(path)

    @pytest.mark.parametrize("phrase", ["flu ", " flu", "yellow  fever", "yellow\tfever", "flu\n"])
    def test_phrase_not_joined_by_single_spaces_rejected(self, phrase):
        # a phrase is its tokens joined by one space, and no token holds
        # whitespace, so such a phrase would load and then never match
        with pytest.raises(ValueError, match=re.escape(f"{phrase!r} is not words joined")):
            Dictionary({"flu": 1.0, phrase: 1.0})

    @pytest.mark.parametrize("phrase", ["flu ", " flu", "yellow  fever"])
    def test_read_names_file_and_line_of_badly_spaced_phrase(self, tmp_path, phrase):
        path = tmp_path / "hand.dict.tsv"
        path.write_text(f"# provenance: manual\nfever\t2.0\n{phrase}\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_dictionary(path)
        assert str(err.value) == (
            f"{path}, line 3: dictionary phrase {phrase!r} is not words joined by single spaces"
        )

    @pytest.mark.parametrize(
        "row", ["flu", "flu\t1.0\t2.0", "flu\tmany", "flu 1.0", "\t"]
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.dict.tsv"
        path.write_text(f"# provenance: manual\nfever\t2.0\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line 4: "):
            read_dictionary(path)

    def test_repeated_phrase_names_file_and_line(self, tmp_path):
        # a second score would replace the first but keep its rank
        path = tmp_path / "twice.dict.tsv"
        path.write_text("# provenance: manual\nflu\t1.0\nebola\t0.8\nflu\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_dictionary(path)
        assert str(err.value) == f"{path}, line 4: duplicate phrase 'flu'"

    def test_read_checks_the_phrases_in_one_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "hand.dict.tsv"
        path.write_text("# provenance: manual\nflu\t1.0\nyellow fever\t0.5\nhiv\t0.2\n",
                        encoding="utf-8")
        passes = []
        real = dictforge.tagging.check_phrases

        def counted(phrases, kind):
            passes.append(list(phrases))
            return real(passes[-1], kind)

        monkeypatch.setattr("dictforge.tagging.check_phrases", counted)
        assert list(read_dictionary(path).scores) == ["flu", "yellow fever", "hiv"]
        assert passes == [["flu", "yellow fever", "hiv"]]

    @pytest.mark.parametrize("later", ["flu\t0.5", "fever", "# provenance: wishful"])
    def test_read_names_the_first_bad_line(self, tmp_path, later):
        # a bad phrase is found before a duplicate, a malformed row or an
        # unknown provenance on a later line
        path = tmp_path / "hand.dict.tsv"
        path.write_text(f"flu\t1.0\nHIV\t0.8\n{later}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_dictionary(path)
        assert str(err.value) == f"{path}, line 2: dictionary phrase 'HIV' is not lowercase"

    def test_membership_api(self):
        dic = d("hepatitis b")
        assert "hepatitis b" in dic
        assert ("hepatitis", "b") in dic
        assert "Hepatitis B" in dic
        assert "hepatitis" not in dic


class TestConllIO:
    def test_roundtrip(self, tmp_path):
        sentences = [
            (["the", "flu", "spread"], ["O", "B", "O"]),
            (["done"], ["O"]),
        ]
        buf = io.StringIO()
        write_conll(sentences, buf)
        p = tmp_path / "gold.conll"
        p.write_text(buf.getvalue(), encoding="utf-8")
        assert read_conll(p) == sentences

    def test_strict_rejects_ill_formed_gold(self, tmp_path):
        p = tmp_path / "bad.conll"
        p.write_text("the\tO\nflu\tI\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_conll(p, strict=True)
        assert read_conll(p, strict=False) == [(["the", "flu"], ["O", "I"])]

    @pytest.mark.parametrize("text,line,message", [
        ("a\tO\nb\tX\n", 2, "unknown tag 'X'"),
        ("a\tB\nb\tI\n\n\nc\tO\nd\tI\n", 6, "I tag without a preceding B or I"),
        ("a\tI\n", 1, "I tag without a preceding B or I"),
        ("a\tB\nb\tI\nc\tB\nd\tO\ne\tO\nf\tb\n", 6, "unknown tag 'b'"),
    ])
    def test_strict_error_names_file_and_offending_line(self, tmp_path, text, line, message):
        p = tmp_path / "bad.conll"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_conll(p, strict=True)
        assert str(err.value) == f"{p}, line {line}: {message}"
        # without strict the tags are read as written
        assert [tag for _, tags in read_conll(p) for tag in tags] == re.findall(r"\t(\w+)", text)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("row, message", [
        ("\tO", "empty token"),
        ("x y\tO", "token 'x y' holds whitespace"),
        ("x\xa0y\tB", "token 'x\\xa0y' holds whitespace"),
    ])
    def test_token_no_corpus_holds_rejected(self, tmp_path, strict, row, message):
        # the corpus reader never yields an empty token or one holding
        # whitespace, so no dictionary phrase could match it
        p = tmp_path / "bad.conll"
        p.write_text(f"the\tO\nflu\tB\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_conll(p, strict=strict)
        assert str(err.value) == f"{p}, line 4: {message}"

    def test_unprintable_token_without_whitespace_accepted(self, tmp_path):
        # a soft hyphen, a zero-width space and NUL are no whitespace
        tokens = ["soft\xadhyphen", "zero\u200bwidth", "\x00"]
        p = tmp_path / "gold.conll"
        p.write_text("".join(f"{t}\tO\n" for t in tokens), encoding="utf-8")
        assert read_conll(p, strict=True) == [(tokens, ["O"] * 3)]

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("row", ["a B", "a\tB\tx", "a\t\tB"])
    def test_row_without_exactly_one_tab_rejected(self, tmp_path, strict, row):
        p = tmp_path / "bad.conll"
        p.write_text(f"x\tO\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_conll(p, strict=strict)
        assert str(err.value) == f"{p}, line 3: expected token TAB tag, got {row!r}"
