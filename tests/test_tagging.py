"""Dictionary tagger, BIO handling, and phrase-level evaluation."""

import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dictforge.corpus import Corpus, PhraseTrie
from dictforge.tagging import (
    BIO,
    Dictionary,
    EvalReport,
    bio_spans,
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
from oracles import PhraseSet, match_phrase_spans, phrase_set, string_tags


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
    """Per-sentence span comparison by list membership."""
    tp = fp = fn = 0
    for p, g in zip(predicted, gold):
        ps, gs = list(bio_spans(p)), list(bio_spans(g))
        tp += sum(span in gs for span in ps)
        fp += sum(span not in gs for span in ps)
        fn += sum(span not in ps for span in gs)
    return EvalReport.from_counts(tp, fp, fn)


_TAGS = st.lists(st.sampled_from(["B", "I", "O"]), max_size=10)


class TestEvaluate:
    @given(st.lists(st.tuples(_TAGS, _TAGS), max_size=8))
    def test_matches_count_oracle(self, pairs):
        # predicted tags may be ill-formed
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
        with pytest.raises(ValueError, match="sentence count"):
            evaluate([["O"]], [["O"], ["O"]])

    def test_token_count_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([["O", "O"]], [["O"]])

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

    def test_scores_several_dictionaries(self):
        labeled = [(["Swine", "flu", "spread"], ["B", "I", "O"]), (["flu"], ["B"])]
        score = dictionary_scorer(labeled, ["flu", "swine flu", "flu spread"])
        assert (score(d("swine flu")).tp, score(d("swine flu")).fn) == (1, 1)
        assert (score(d("flu", "flu spread")).tp, score(d("flu", "flu spread")).fp) == (1, 1)
        assert score(d("flu", "swine flu")).f1 == 1.0

    def test_phrase_outside_the_universe_rejected(self):
        score = dictionary_scorer([(["flu"], ["B"])], ["flu"])
        with pytest.raises(ValueError, match="'swine flu'"):
            score(d("flu", "swine flu"))


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

    @pytest.mark.parametrize(
        "row", ["flu", "flu\t1.0\t2.0", "flu\tmany", "flu 1.0", "\t"]
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.dict.tsv"
        path.write_text(f"# provenance: manual\nfever\t2.0\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line 4: "):
            read_dictionary(path)

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
    @pytest.mark.parametrize("row", ["a B", "a\tB\tx", "a\t\tB"])
    def test_row_without_exactly_one_tab_rejected(self, tmp_path, strict, row):
        p = tmp_path / "bad.conll"
        p.write_text(f"x\tO\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_conll(p, strict=strict)
        assert str(err.value) == f"{p}, line 3: expected token TAB tag, got {row!r}"
