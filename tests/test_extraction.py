"""Pattern-based candidate extraction."""

import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dictforge.corpus import segment_sentences
from dictforge.extraction import (
    CandidatePhrase,
    ExtractionPattern,
    aggregate_candidates,
    extract_after_trigger,
    extract_between,
    extract_candidates,
    parse_patterns,
    read_candidates,
    write_candidates,
)

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
            assert c.lower in " ".join(s.lowers())

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
