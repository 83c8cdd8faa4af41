"""Pattern-based candidate extraction."""

import io
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictforge.corpus import intern_corpus, iter_sentences, segment_sentences
from dictforge.extraction import (
    STOPWORDS,
    CandidatePhrase,
    ExtractionPattern,
    aggregate_candidates,
    extract_candidates,
    load_patterns,
    parse_patterns,
    read_candidates,
    write_candidates,
)
from oracles import extract_after_trigger, extract_between

THE_VIRUS = ExtractionPattern("between", left=("the",), right=("virus",))


def sent(text):
    (s,) = segment_sentences(text)
    return s


class TestBetween:
    def test_single_word_gap(self):
        got = extract_between(sent("we studied the influenza virus in mice"), THE_VIRUS)
        assert got == ["influenza"]

    def test_multiword_gap(self):
        got = extract_between(sent("the human immunodeficiency virus replicates"), THE_VIRUS)
        assert got == ["human immunodeficiency"]

    def test_empty_gap_excluded(self):
        assert extract_between(sent("the virus mutates"), THE_VIRUS) == []

    def test_gap_with_punctuation_excluded(self):
        got = extract_between(sent("the so-called, novel virus spread"), THE_VIRUS)
        assert got == []

    def test_gap_over_max_len_excluded(self):
        p = ExtractionPattern("between", left=("the",), right=("virus",), max_phrase_len=2)
        got = extract_between(sent("the very large new avian virus spread"), p)
        assert got == []

    def test_nearest_right_literal_wins(self):
        got = extract_between(sent("the influenza virus and the measles virus"), THE_VIRUS)
        assert got == ["influenza", "measles"]

    def test_case_insensitive_by_default(self):
        got = extract_between(sent("The Influenza Virus spread"), THE_VIRUS)
        assert got == ["influenza"]

    def test_mixed_case_literals_match_lowercase_text(self):
        p = ExtractionPattern("between", left=("The",), right=("VIRUS",))
        assert extract_between(sent("the flu virus"), p) == ["flu"]

    def test_case_sensitive_mode(self):
        p = ExtractionPattern(
            "between", left=("the",), right=("virus",), case_sensitive=True
        )
        assert extract_between(sent("The Influenza Virus spread"), p) == []
        assert extract_between(sent("it is the influenza virus"), p) == ["influenza"]

    def test_hyphenated_phrase_is_one_lowercase_token(self):
        got = extract_between(sent("we found the Epstein-Barr virus there"), THE_VIRUS)
        assert got == ["epstein-barr"]


DIAGNOSED = ExtractionPattern("after_trigger", trigger=("diagnosed", "with"))
PATIENTS = ExtractionPattern("after_trigger", trigger=("patients", "with"))
SUCH_AS = ExtractionPattern("after_trigger", trigger=("diseases", "such", "as"))


class TestAfterTrigger:
    def test_simple_np(self):
        got = extract_after_trigger(sent("patients with cystic fibrosis were enrolled"), PATIENTS)
        assert got == ["cystic fibrosis"]

    def test_coordination_splits_conjuncts(self):
        got = extract_after_trigger(sent("diseases such as measles, mumps and rubella"), SUCH_AS)
        assert got == ["measles", "mumps", "rubella"]

    def test_stopword_only_span_excluded(self):
        assert extract_after_trigger(sent("patients with the"), PATIENTS) == []

    def test_leading_determiner_skipped(self):
        got = extract_after_trigger(sent("patients with the flu were rare"), PATIENTS)
        assert got == ["flu"]

    def test_period_stops_the_list(self):
        got = extract_after_trigger(sent("he was diagnosed with malaria."), DIAGNOSED)
        assert got == ["malaria"]

    def test_max_len_truncates(self):
        p = ExtractionPattern("after_trigger", trigger=("diagnosed", "with"), max_phrase_len=2)
        got = extract_after_trigger(sent("diagnosed with acute viral hemorrhagic fever"), p)
        assert got == ["acute viral"]

    def test_multiple_trigger_occurrences(self):
        got = extract_after_trigger(
            sent("patients with malaria were seen and patients with cholera were seen"),
            PATIENTS,
        )
        assert got == ["malaria", "cholera"]

    def test_overlapping_trigger_occurrences_each_match(self):
        of_of = ExtractionPattern("after_trigger", trigger=("of", "of"))
        s = sent("cases of of of measles rose")
        assert extract_after_trigger(s, of_of) == ["measles rose", "measles rose"]
        (c,) = extract_candidates([s], [of_of])
        assert (c.lower, c.freq) == ("measles rose", 2)


class TestAggregate:
    def test_case_merge(self):
        sentences = [sent("the influenza virus spread"), sent("the Influenza virus spread")]
        assert extract_candidates(sentences, [THE_VIRUS]) == [CandidatePhrase("influenza", 2)]

    def test_empty_stream(self):
        assert aggregate_candidates([]) == []

    def test_sorted_by_freq_then_lower(self):
        merged = aggregate_candidates(["b", "a", "b", "c", "a"])
        assert merged == [("a", 2), ("b", 2), ("c", 1)]

    @given(st.permutations(["a", "b", "b", "c", "c", "c", "a", "a"]))
    def test_order_independent(self, words):
        base = aggregate_candidates(["a", "b", "b", "c", "c", "c", "a", "a"])
        assert aggregate_candidates(words) == base


class TestDriver:
    def test_position_faithful(self):
        text = "the influenza virus infects patients with cystic fibrosis"
        s = sent(text)
        got = extract_candidates([s], [THE_VIRUS, PATIENTS])
        for c in got:
            assert c.lower in " ".join(t.lower() for t in s.tokens)

    def test_high_recall_on_planted_entities(self):
        rng = random.Random(7)
        planted = ["ebola", "zika", "dengue", "lassa", "marburg"]
        sentences = []
        counts = {p: 0 for p in planted}
        for i in range(200):
            name = rng.choice(planted)
            counts[name] += 1
            filler = rng.choice(["spread fast", "was contained", "reached town"])
            sentences.extend(segment_sentences(f"the {name} virus {filler}", doc_id=str(i)))
        got = extract_candidates(sentences, [THE_VIRUS])
        merged = {c.lower: c.freq for c in got}
        for name in planted:
            assert merged[name] == counts[name]


class TestPatternParsing:
    def test_between_and_after(self):
        pats = parse_patterns(
            [
                "# viruses",
                "between the ... virus",
                "after diagnosed with | max_len=4",
                "",
                "after_trigger suffering from",
            ]
        )
        assert pats[0] == ExtractionPattern("between", left=("the",), right=("virus",))
        assert pats[1].trigger == ("diagnosed", "with")
        assert pats[1].max_phrase_len == 4
        assert pats[2].kind == "after_trigger"

    def test_literals_tokenized_like_the_corpus(self):
        (after, between) = parse_patterns(["after viruses, e.g.", "between (the ... virus)"])
        assert after.trigger == ("viruses", ",", "e.g", ".")
        assert extract_after_trigger(sent("viruses, e.g. measles rose"), after) == ["measles rose"]
        assert (between.left, between.right) == (("(", "the"), ("virus", ")"))
        assert extract_between(sent("a strain (the zika virus) spread"), between) == ["zika"]

    def test_multiword_literals(self):
        (p,) = parse_patterns(["between a strain of ... virus family"])
        assert p.left == ("a", "strain", "of")
        assert p.right == ("virus", "family")

    def test_case_sensitive_option(self):
        (p,) = parse_patterns(["between the ... virus | case_sensitive"])
        assert p.case_sensitive

    def test_rejects_bad_lines(self):
        for line in [
            "between the virus",  # missing ...
            "between the ... ... virus",  # a second ...
            "between ... virus",  # no left literal
            "between the ...",  # no right literal
            "after",  # no trigger
            "blorp the ... virus",
            "after x | shiny",
            "| max_len=3",  # no pattern kind
            "after x | max_len=abc",
            "after x | max_len=0",
        ]:
            with pytest.raises(ValueError, match=r"^line 2: "):
                parse_patterns(["# first", line])
        with pytest.raises(ValueError, match="no patterns declared"):
            parse_patterns(["# nothing declared"])

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text("between the virus\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_patterns(path)
        assert str(err.value) == f"{path}, line 1: between pattern needs exactly one '...'"
        path.write_text("# nothing declared\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_patterns(path)
        assert str(err.value) == f"{path}: no patterns declared"


class TestCandidateIO:
    def test_roundtrip(self):
        cands = aggregate_candidates(["epstein-barr", "influenza", "influenza"])
        buf = io.StringIO()
        write_candidates(cands, buf)
        assert buf.getvalue() == "influenza\t2\nepstein-barr\t1\n"

    def test_read_back(self, tmp_path):
        p = tmp_path / "candidates.tsv"
        p.write_text("influenza\t2\nhepatitis b\t1\n", encoding="utf-8")
        got = read_candidates(p)
        assert got == [CandidatePhrase("influenza", 2), CandidatePhrase("hepatitis b", 1)]

    @pytest.mark.parametrize("row", ["influenza", "a\t1\t2", "influenza\tmany", "flu\t2.5", "\t"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        p = tmp_path / "candidates.tsv"
        p.write_text(f"influenza\t2\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}, line 3: "):
            read_candidates(p)


# The per-sentence string matchers the id path replaced, kept as the oracle.
def _oracle_find_literal(words, literal):
    for i in range(len(words) - len(literal) + 1):
        if tuple(words[i : i + len(literal)]) == literal:
            yield i


def _oracle_is_punct(text):
    return not any(c.isalnum() for c in text)


def _oracle_between(tokens, lower, pattern):
    words = tokens if pattern.case_sensitive else lower
    left, right = pattern.left, pattern.right
    out = []
    for i in _oracle_find_literal(words, left):
        gap_start = i + len(left)
        for gap in range(1, pattern.max_phrase_len + 1):
            j = gap_start + gap
            if j + len(right) > len(words):
                break
            if tuple(words[j : j + len(right)]) == right:
                if not any(_oracle_is_punct(t) for t in tokens[gap_start:j]):
                    out.append(" ".join(lower[gap_start:j]))
                break
    return out


def _oracle_after_trigger(tokens, lower, pattern):
    words = tokens if pattern.case_sensitive else lower
    coordinators = {",", "and", "or"}
    out = []
    for t in _oracle_find_literal(words, pattern.trigger):
        i, n = t + len(pattern.trigger), len(lower)
        while i < n:
            while i < n and lower[i] in STOPWORDS and lower[i] not in coordinators:
                i += 1
            s = i
            while (i < n and lower[i] not in STOPWORDS and not _oracle_is_punct(tokens[i])
                   and i - s < pattern.max_phrase_len):
                i += 1
            if i > s:
                out.append(" ".join(lower[s:i]))
            if i < n and lower[i] in coordinators:
                i += 1
                continue
            break
    return out


_WORDS = ["the", "The", "virus", "VIRUS", "of", "and", "or", ",", ".", "(", "flu", "Flu",
          "hepatitis", "b", "with", "patients", "a", "zika"]
# literal words include some no corpus token has
_LITERAL_WORDS = st.sampled_from(["the", "The", "virus", "of", "and", ",", "with", "b", "nowhere"])
_PATTERNS = st.lists(
    st.builds(
        lambda kind, first, second, max_len, case_sensitive: ExtractionPattern(
            kind, max_phrase_len=max_len, case_sensitive=case_sensitive,
            **({"left": first, "right": second} if kind == "between" else {"trigger": first}),
        ),
        st.sampled_from(["between", "after_trigger"]),
        st.lists(_LITERAL_WORDS, min_size=1, max_size=2).map(tuple),
        st.lists(_LITERAL_WORDS, min_size=1, max_size=2).map(tuple),
        st.integers(1, 4),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


class TestIdPathOracle:
    """Extraction on the interned corpus against the per-sentence string
    matchers: between and case-sensitive patterns, overlapping triggers
    ("of of of"), literal words outside the vocabulary, punctuation in
    gaps, and matches that would cross a sentence boundary."""

    @given(
        lines=st.lists(st.lists(st.sampled_from(_WORDS), max_size=14), min_size=1, max_size=12),
        patterns=_PATTERNS,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sentence_oracle(self, tmp_path_factory, lines, patterns):
        path = tmp_path_factory.mktemp("extract") / "corpus.txt"
        path.write_text("".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
        sentences = list(iter_sentences(path))
        matches = Counter()
        for sentence in sentences:
            tokens = sentence.tokens
            lower = [t.lower() for t in tokens]
            for p in patterns:
                if p.kind == "between":
                    want = _oracle_between(tokens, lower, p)
                    assert extract_between(sentence, p) == want
                else:
                    want = _oracle_after_trigger(tokens, lower, p)
                    assert extract_after_trigger(sentence, p) == want
                matches.update(want)
        want = sorted(matches.items(), key=lambda item: (-item[1], item[0]))
        assert extract_candidates(intern_corpus(path), patterns) == want
        assert extract_candidates(sentences, patterns) == want

    def test_literals_never_cross_a_sentence_boundary(self, tmp_path):
        # "virus of" spans two lines here, so the right literal never follows
        # "the flu"; and a trigger split across lines starts no span
        path = tmp_path / "corpus.txt"
        path.write_text("the flu virus\nof measles . The zika virus of\nnote\n", encoding="utf-8")
        between = ExtractionPattern("between", left=("the",), right=("virus", "of"))
        after = ExtractionPattern("after_trigger", trigger=("virus", "of"))
        corpus = intern_corpus(path)
        assert extract_candidates(corpus, [between]) == [CandidatePhrase("zika", 1)]
        assert extract_candidates(corpus, [after]) == []
