"""Segmentation, tokenization and the chunked corpus reader."""

import collections
import re
import string
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictforge.corpus
from dictforge.corpus import (
    _TOKEN,
    Corpus,
    Sentence,
    intern_corpus,
    iter_chunks,
    iter_sentences,
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

    # every str.isspace character, all of them below U+3001
    SEPARATORS = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())

    # Oracle: the token regex over the whole text.  tokenize takes a piece
    # that starts and ends alphanumeric whole; the alphabet has edge
    # punctuation, "_" (a word character that is not alphanumeric),
    # combining marks (not alphanumeric), digits that are not ASCII or not
    # decimal (٣ ² ½ Ⅷ), letters beyond ASCII and every separator.
    @given(st.text(alphabet="aZ7.,()-'_\u0301\u20ddéßΣǅ٣²½Ⅷ€" + SEPARATORS, max_size=80))
    @settings(max_examples=300)
    def test_whole_pieces_equal_token_regex(self, doc):
        assert tokenize(doc) == _TOKEN.findall(doc)

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_every_separator_splits(self, sep):
        doc = f"a{sep}b.{sep}(c{sep}"
        assert tokenize(doc) == _TOKEN.findall(doc) == ["a", "b", ".", "(", "c"]

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
        assert [s.doc_id for s in iter_sentences(p)] == ["corpus.txt:1", "corpus.txt:3"]
        assert _interned(intern_corpus(p)) == _triples(iter_sentences(p))

    def test_directory_is_one_document_per_file(self, tmp_path):
        (tmp_path / "b.txt").write_text("Beta.", encoding="utf-8")
        (tmp_path / "a.txt").write_text("Alpha.", encoding="utf-8")
        got = list(iter_sentences(tmp_path))
        assert [s.doc_id for s in got] == ["a.txt", "b.txt"]
        assert [s.tokens for s in got] == [("Alpha", "."), ("Beta", ".")]
        assert _interned(intern_corpus(tmp_path)) == _triples(got)

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_sentences(tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            intern_corpus(tmp_path / "nope")

    def test_nfc_normalization(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("cafe\u0301 menu\n", encoding="utf-8")  # decomposed accent
        (s,) = iter_sentences(p)
        assert s.tokens == ("café", "menu")

    def test_given_tokens_are_never_split(self):
        # CoNLL tokens such as "(HIV" are interned as they stand
        corpus = Corpus.of_tokens([["(HIV", "x."], ["x.", "a b"]])
        assert list(corpus.vocab) == ["(HIV", "x.", "a b"]
        assert corpus.ids.tolist() == [0, 1, 1, 2]
        assert corpus.starts.tolist() == [0, 2, 4]
        corpus = Corpus.of([Sentence("d", 0, ("(HIV", "x."))])
        assert list(corpus.vocab) == ["(HIV", "x."]
        assert corpus.ids.tolist() == [0, 1]


def _triples(sentences):
    return [(s.doc_id, s.index, s.tokens) for s in sentences]


def _check_order(corpus, want):
    """Type and lowercase ids follow first appearance in the oracle's
    token stream."""
    stream = [t for _, _, tokens in want for t in tokens]
    assert list(corpus.vocab.items()) == [(t, i) for i, t in enumerate(dict.fromkeys(stream))]
    lowers = dict.fromkeys(t.lower() for t in stream)
    assert list(corpus.lowers.items()) == [(t, i) for i, t in enumerate(lowers)]


def _check_reader(path, want):
    """``intern_corpus`` and each ``iter_chunks`` chunk against the oracle's
    sentences: the same sentences, and ids in order of first appearance."""
    corpus = intern_corpus(path)
    assert _interned(corpus) == want
    _check_order(corpus, want)
    chunked = []
    for chunk in iter_chunks(path):
        # a chunk holds whole documents
        docs = {chunk.doc_id(d) for d in chunk.doc.tolist()}
        own = [w for w in want if w[0] in docs]
        assert _interned(chunk) == own
        _check_order(chunk, own)
        chunked += own
    assert chunked == want


def _interned(corpus):
    """(doc_id, index, tokens) of each sentence of an interned corpus, after
    checking that each type's lowercase id names its lowercase form."""
    types, lowers = list(corpus.vocab), list(corpus.lowers)
    assert [lowers[i] for i in corpus.lower.tolist()] == [t.lower() for t in types]
    starts = corpus.starts.tolist()
    return [
        (corpus.doc_id(d), k, tuple(types[t] for t in corpus.ids[a:b].tolist()))
        for d, k, a, b in zip(corpus.doc.tolist(), corpus.index.tolist(), starts, starts[1:])
    ]


# The reader before chunking: one regex call per document and sentence,
# each line normalized on its own.  Kept here as the oracle.
_ORACLE_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")
_ORACLE_TERMINATOR_RUN = re.compile(r"[.?!]+(?=\s+(\S))")
_ORACLE_ABBREVIATIONS = frozenset(
    {
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
        "fig.", "figs.", "eq.", "eqs.", "ref.", "refs.", "no.", "nos.",
        "e.g.", "i.e.", "al.", "etc.", "vs.", "cf.", "ca.", "approx.",
        "spp.", "sp.", "var.",
    }
    | {f"{c}." for c in string.ascii_lowercase}
)


def _oracle_segment(document, doc_id):
    boundaries = [0]
    for m in _ORACLE_TERMINATOR_RUN.finditer(document):
        after = m.group(1)
        if not (after.isupper() or after.isdigit()):
            continue
        run = m.group()
        i = m.end()
        while i > 0 and not document[i - 1].isspace():
            i -= 1
        if "?" in run or "!" in run or document[i : m.end()].lower() not in _ORACLE_ABBREVIATIONS:
            boundaries.append(m.end())
    boundaries.append(len(document))
    sentences = []
    for start, end in zip(boundaries, boundaries[1:]):
        tokens = tuple(_ORACLE_TOKEN.findall(document, start, end))
        if tokens:
            sentences.append((doc_id, len(sentences), tokens))
    return sentences


def _oracle_read(path):
    path = Path(path)
    if path.is_dir():
        for p in sorted(path.iterdir()):
            yield from _oracle_segment(
                unicodedata.normalize("NFC", p.read_text(encoding="utf-8")), p.name
            )
        return
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            if text.strip():
                yield from _oracle_segment(
                    unicodedata.normalize("NFC", text), f"{path.name}:{lineno}"
                )


# Pieces that decide sentence ends: mixed and inner terminator runs,
# capitalized abbreviations, and openers outside ASCII (an uppercase letter,
# a superscript digit, an Arabic-Indic digit).
_END_PIECES = ["x?.", "A.!", "a.b", "Fig.", "ETC.", "No.", "É", "²", "٣"]

# Pieces of a line: abbreviations and terminator runs, combining marks
# (acute accent, Hangul jamo that NFC composes into syllables), whitespace
# that ends no line (\x1c, \u2028, no-break space, tab) and blanks.
_PIECES = st.sampled_from([
    "a", "B", "3", "x", " ", " ", "\t", ".", "?", "!", "?!", "...", "Dr.", "e.g.", "J.",
    "et al.", "e", "\u0301", "\u1100", "\u1161", "\u11a8", "\uac00", "\x1c", "\u2028",
    "\xa0", "_", "(", ",", "(a),", "B.", "x-3)", *_END_PIECES,
])
_LINES = st.lists(
    st.tuples(st.lists(_PIECES, max_size=12).map("".join), st.sampled_from(["\n", "\r\n", "\r"])),
    max_size=12,
).map(lambda lines: "".join(text + end for text, end in lines))


class TestChunkedReader:
    """The chunked reader against the per-line oracle, with a chunk budget
    small enough that lines straddle chunks."""

    @given(text=_LINES, last=st.sampled_from(["", "A.", "tail"]), chunk=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_file_matches_per_line_oracle(self, tmp_path_factory, text, last, chunk):
        p = tmp_path_factory.mktemp("reader") / "corpus.txt"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + last)  # newline="": \r\n and lone \r reach the file as written
        want = list(_oracle_read(p))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dictforge.corpus, "_CHUNK_CHARS", chunk)
            assert _triples(iter_sentences(p)) == want
            _check_reader(p, want)

    @given(texts=st.lists(_LINES, min_size=1, max_size=3), chunk=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_directory_matches_per_file_oracle(self, tmp_path_factory, texts, chunk):
        root = tmp_path_factory.mktemp("reader")
        for i, text in enumerate(texts):
            with open(root / f"doc{i}.txt", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        want = list(_oracle_read(root))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dictforge.corpus, "_CHUNK_CHARS", chunk)
            assert _triples(iter_sentences(root)) == want
            _check_reader(root, want)

    def test_period_line_then_uppercase_line(self, tmp_path):
        # a terminator at a line's end sees the next line's capital, but the
        # line still ends the document: no sentence spans the newline
        p = tmp_path / "corpus.txt"
        p.write_text("It spread.\nThen stopped. Dr.\nSmith came\n", encoding="utf-8")
        assert _triples(iter_sentences(p)) == list(_oracle_read(p)) == [
            ("corpus.txt:1", 0, ("It", "spread", ".")),
            ("corpus.txt:2", 0, ("Then", "stopped", ".")),
            ("corpus.txt:2", 1, ("Dr", ".")),
            ("corpus.txt:3", 0, ("Smith", "came")),
        ]

    def test_each_distinct_piece_tokenized_once_per_chunk(self, tmp_path, monkeypatch):
        line = "(a), B. x-3) flu (a), B. flu x-3) flu.\n"
        p = tmp_path / "corpus.txt"
        p.write_text(line * 6, encoding="utf-8")
        size = 2 * len(tokenize(line))
        # readlines stops once its lines exceed the hint: two lines a chunk
        monkeypatch.setattr(dictforge.corpus, "_CHUNK_CHARS", 2 * len(line) - 1)
        calls = collections.Counter()

        class CountingToken:
            def findall(self, piece):
                calls[piece] += 1
                return _TOKEN.findall(piece)

        monkeypatch.setattr(dictforge.corpus, "_TOKEN", CountingToken())
        # pieces that start and end alphanumeric ("flu") never reach the regex
        once = {"(a),": 1, "B.": 1, "x-3)": 1, "flu.": 1}
        for n, chunk in enumerate(iter_chunks(p), 1):
            assert calls == once
            assert len(chunk.ids) == size
            calls.clear()
        assert n == 3
        intern_corpus(p)
        assert calls == {piece: 3 for piece in once}

    def test_each_distinct_piece_judged_once_per_chunk(self, tmp_path, monkeypatch):
        line = "It spread. Dr. Smith came! It spread. No. 3 x?. É flu.\n"
        p = tmp_path / "corpus.txt"
        p.write_text(line * 6, encoding="utf-8")
        # two lines a chunk, as above
        monkeypatch.setattr(dictforge.corpus, "_CHUNK_CHARS", 2 * len(line) - 1)
        want = list(_oracle_read(p))
        calls = collections.Counter()
        rule = dictforge.corpus._ends_sentence

        def counting(piece):
            calls[piece] += 1
            return rule(piece)

        monkeypatch.setattr(dictforge.corpus, "_ends_sentence", counting)
        once = dict.fromkeys(line.split(), 1)
        sentences = []
        for n, chunk in enumerate(iter_chunks(p), 1):
            assert calls == once
            sentences += _interned(chunk)
            calls.clear()
        assert n == 3
        assert sentences == want
        intern_corpus(p)
        assert calls == {piece: 3 for piece in once}

    @given(st.lists(st.sampled_from([*"ab .?!AB3x\n" + _EXOTIC, *_END_PIECES]), max_size=60).map("".join))
    @settings(max_examples=60)
    def test_segment_sentences_matches_oracle(self, doc):
        assert _triples(segment_sentences(doc, "d")) == _oracle_segment(doc, "d")
