"""Segmentation and tokenization."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictforge.corpus import (
    read_corpus,
    segment_sentences,
    tokenize,
    word_shape,
)


# Beyond ASCII: underscore (a word character that is not alphanumeric),
# letters and digits outside ASCII (é, circled Ⓐ, Arabic-Indic ٣, titlecase
# ǅ), and whitespace that is not ASCII (\x1c, no-break space, line separator).
_EXOTIC = "_éⒶ٣ǅ\x1c\xa0\u2028"


class TestWordShape:
    @pytest.mark.parametrize(
        "word,shape",
        [
            ("virus", "allLower"),
            ("Influenza", "initCap"),
            ("HIV", "allCaps"),
            ("pH", "mixed"),
            ("Epstein-Barr", "mixed"),
            ("McDonald", "mixed"),
            ("3.5", "nonAlpha"),
            ("(", "nonAlpha"),
            ("A", "allCaps"),
            ("x", "allLower"),
        ],
    )
    def test_table(self, word, shape):
        assert word_shape(word) == shape


class TestTokenize:
    def test_detaches_edge_punctuation(self):
        got = tokenize("the (well-known) Epstein-Barr virus.")
        assert got == ["the", "(", "well-known", ")", "Epstein-Barr", "virus", "."]

    def test_keeps_interior_periods_and_hyphens(self):
        assert tokenize("pH 3.5 rises") == ["pH", "3.5", "rises"]
        assert tokenize("state-of-the-art") == ["state-of-the-art"]

    def test_comma_lists(self):
        got = tokenize("measles, mumps, and rubella")
        assert got == ["measles", ",", "mumps", ",", "and", "rubella"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    # Oracle: tokens partition the non-whitespace characters in order.
    @given(st.text(alphabet="ab.?!,-() \tAB3" + _EXOTIC, max_size=60))
    def test_covers_nonspace_chars(self, doc):
        assert "".join(tokenize(doc)) == "".join(c for c in doc if not c.isspace())

    # Oracle: a full characterization.  Each whitespace chunk splits into
    # single non-alphanumeric characters around at most one token that
    # starts and ends with an alphanumeric character.
    @given(st.text(alphabet="ab.?!,-() \tAB3" + _EXOTIC, max_size=60))
    def test_characterization(self, doc):
        toks = tokenize(doc)
        assert "".join(toks) == "".join(c for c in doc if not c.isspace())
        for tok in toks:
            assert (len(tok) == 1 and not tok.isalnum()) or (
                tok[0].isalnum() and tok[-1].isalnum()
            )
        rest = iter(toks)
        for chunk in doc.split():
            chunk_toks, size = [], 0
            while size < len(chunk):
                chunk_toks.append(next(rest))
                size += len(chunk_toks[-1])
            assert "".join(chunk_toks) == chunk
            assert sum(any(c.isalnum() for c in t) for t in chunk_toks) <= 1
        assert next(rest, None) is None

    @given(st.text(alphabet="ab.?!,-() AB3" + _EXOTIC, max_size=60))
    def test_idempotent_on_rejoined_tokens(self, doc):
        once = tokenize(doc)
        again = tokenize(" ".join(once))
        assert again == once

    def test_regex_classes_match_str_predicates(self):
        alnum = re.compile(r"[^\W_]")
        space = re.compile(r"\s")
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            assert bool(alnum.match(ch)) == ch.isalnum(), hex(cp)
            assert bool(space.match(ch)) == ch.isspace(), hex(cp)


class TestSegmentation:
    def test_basic_split(self):
        sents = segment_sentences("Viruses mutate. HIV is one.")
        assert [list(s.tokens) for s in sents] == [
            ["Viruses", "mutate", "."],
            ["HIV", "is", "one", "."],
        ]
        assert [s.index for s in sents] == [0, 1]

    def test_abbreviation_suppresses_split(self):
        sents = segment_sentences("Dr. Smith studied measles.")
        assert len(sents) == 1
        assert list(sents[0].tokens)[:3] == ["Dr", ".", "Smith"]

    def test_single_initial_suppresses_split(self):
        sents = segment_sentences("J. Smith wrote it. B. Jones read it.")
        assert len(sents) == 2

    def test_et_al_suppresses_split(self):
        sents = segment_sentences("See Smith et al. Nature has the details.")
        assert len(sents) == 1

    def test_split_before_digit(self):
        sents = segment_sentences("It ended. 4 remained.")
        assert len(sents) == 2

    def test_abbreviation_before_digit(self):
        sents = segment_sentences("It took approx. 3 days.")
        assert len(sents) == 1

    def test_no_split_before_lowercase(self):
        sents = segment_sentences("It spread. then stopped.")
        assert len(sents) == 1

    def test_question_and_exclamation(self):
        sents = segment_sentences("Did it mutate? Yes! It spread fast!!! Then stopped.")
        assert [list(s.tokens) for s in sents] == [
            ["Did", "it", "mutate", "?"],
            ["Yes", "!"],
            ["It", "spread", "fast", "!", "!", "!"],
            ["Then", "stopped", "."],
        ]

    def test_interior_decimal_not_a_boundary(self):
        sents = segment_sentences("Version 2.0 shipped. Next came 3.0.")
        assert len(sents) == 2
        assert "2.0" in list(sents[0].tokens)

    def test_empty_document(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n  ") == []

    # Oracle: segmenting never invents or drops tokens.
    @given(st.text(alphabet="ab .?!AB3x" + _EXOTIC, max_size=80))
    @settings(max_examples=60)
    def test_token_stream_matches_whole_document(self, doc):
        from_sentences = [t for s in segment_sentences(doc) for t in s.tokens]
        assert from_sentences == tokenize(doc)


class TestCorpusIO:
    def test_file_is_one_document_per_line(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("First doc here.\n\nThird line doc.\n", encoding="utf-8")
        docs = list(read_corpus(p))
        assert [d for d, _ in docs] == ["corpus.txt:1", "corpus.txt:3"]

    def test_directory_is_one_document_per_file(self, tmp_path):
        (tmp_path / "b.txt").write_text("Beta.", encoding="utf-8")
        (tmp_path / "a.txt").write_text("Alpha.", encoding="utf-8")
        docs = list(read_corpus(tmp_path))
        assert [d for d, _ in docs] == ["a.txt", "b.txt"]
        assert [t for _, t in docs] == ["Alpha.", "Beta."]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_corpus(tmp_path / "nope"))

    def test_nfc_normalization(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("café menu\n", encoding="utf-8")  # decomposed accent
        (_, text), = read_corpus(p)
        assert "café" in text
