"""Generator bookkeeping: the planted truth must match what the corpus
actually contains, or every downstream score is meaningless."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dictforge.corpus import iter_sentences
from dictforge.extraction import extract_candidates, load_patterns
from dictforge.synth import _BLOCK, TRIGGERS, SynthCorpus, SynthSpec, _Draws, generate
from dictforge.tagging import read_conll, validate_bio
from oracles import NumpyDraws, bio_spans

SMALL = SynthSpec(n_sentences=2500, n_entities=12, n_distractors=30, seed=5)


@pytest.fixture(scope="module")
def small():
    return generate(SMALL)


class TestSpecValidation:
    def test_defaults_accepted(self):
        SynthSpec()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_sentences": 1999},
            {"n_entities": 5, "seeds_per_class": 10},
            {"n_distractors": 5, "seeds_per_class": 10},
            {"context_fidelity": 0.5},
            {"context_fidelity": 1.01},
            {"mention_rate": 0.0},
            {"mention_rate": 1.0},
            {"entity_share": 0.0},
            {"cap_distractor_rate": 1.0},
            {"seeds_per_class": -1},
            {"seeds_per_class": 0},
            {"min_mentions": 0},
            {"min_mentions": -3},
            {"trigger_rate": -0.1},
            {"trigger_rate": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            SynthSpec(**kw)

    def test_mention_schedule_overflow_rejected(self):
        # guaranteed mentions alone exceed the sentence budget
        spec = SynthSpec(
            n_sentences=2000, n_entities=60, n_distractors=220, min_mentions=10
        )
        with pytest.raises(ValueError, match="budget"):
            generate(spec)


# ranges like generate's (2 and 3: word and tail counts, 5: class context
# pools, 22: GLUE, 30: syllables, 1600: a large pool of surfaces), plus one
# that rejects about half of its 32-bit words
_POOLS = (1, 2, 3, 5, 22, 30, 1600, 2**31 + 7)


class TestDraws:
    """``_Draws`` returns what the ``Generator``'s own calls would, and
    leaves the bit generator where they would."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        # runs of one kind of call: (None = random(), pool size), repeats
        runs=st.lists(
            st.tuples(st.sampled_from((None,) + _POOLS), st.integers(1, 600)),
            max_size=10,
        ),
    )
    @example(seed=0, runs=[(None, _BLOCK - 1), (5, 3), (None, 2), (2**31 + 7, 900)])
    @example(seed=1, runs=[(30, 2 * _BLOCK + 1)])
    @example(seed=2, runs=[])
    def test_matches_twin_generator(self, seed, runs):
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        draws = _Draws(rng)
        for n, repeats in runs:
            for _ in range(repeats):
                if n is None:
                    assert draws.random() == float(twin.random())
                else:
                    assert draws.integers(n) == int(twin.integers(n))
        draws.settle()
        # drawing on after a settle, and settling again, stays in step
        assert draws.integers(22) == int(twin.integers(22))
        assert draws.random() == float(twin.random())
        draws.settle()
        state, want = rng.bit_generator.state, twin.bit_generator.state
        if not want["has_uint32"]:
            # numpy leaves a used half behind in uinteger; nothing reads it
            want["uinteger"] = state["uinteger"]
        assert state == want
        assert (rng.permutation(50) == twin.permutation(50)).all()
        assert (rng.integers(1000, size=5) == twin.integers(1000, size=5)).all()


# corpora on which _Draws must give what one Generator call per draw gives:
# SMALL, the default spec, and the benchmark's demo and wide shapes
_ORACLE_SPECS = [SMALL, SynthSpec()] + [
    replace(spec, seed=seed)
    for spec in (
        SynthSpec(n_sentences=8000, n_entities=30, n_distractors=90),
        SynthSpec(
            n_sentences=5500,
            n_entities=320,
            n_distractors=1280,
            min_mentions=3,
            mention_rate=0.9,
        ),
    )
    for seed in range(4)
]


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_generate_draws_as_the_generator_calls_do(spec, tmp_path, monkeypatch):
    got = generate(spec)
    monkeypatch.setattr("dictforge.synth._Draws", NumpyDraws)
    want = generate(spec)
    assert got == want
    got_paths = got.write(tmp_path / "draws")
    want_paths = want.write(tmp_path / "numpy")
    assert got_paths.keys() == want_paths.keys()
    for name, path in got_paths.items():
        assert path.read_bytes() == want_paths[name].read_bytes(), name


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.sentences == b.sentences
        assert a.tags == b.tags
        assert a.entities == b.entities
        assert a.distractors == b.distractors

    def test_different_seed_different_corpus(self):
        a = generate(SMALL)
        b = generate(SynthSpec(**{**SMALL.__dict__, "seed": 6}))
        assert a.sentences != b.sentences
        assert a.entities != b.entities


class TestTruthBookkeeping:
    def test_shapes_and_bio(self, small):
        assert len(small.sentences) == SMALL.n_sentences
        assert len(small.tags) == SMALL.n_sentences
        for toks, tags in zip(small.sentences, small.tags):
            assert len(toks) == len(tags)
            validate_bio(tags)

    def test_phrase_lists_disjoint_and_sized(self, small):
        assert len(small.entities) == SMALL.n_entities
        assert len(small.distractors) == SMALL.n_distractors
        assert not set(small.entities) & set(small.distractors)

    def test_nonce_words_globally_unique(self, small):
        words = []
        for phrase in small.entities + small.distractors:
            words.extend(phrase.split(" "))
        assert len(words) == len(set(words))

    def test_gold_spans_are_exactly_the_entities(self, small):
        truth = set(small.entities)
        seen = set()
        for toks, tags in zip(small.sentences, small.tags):
            for start, end in bio_spans(tags):
                phrase = " ".join(toks[start:end]).lower()
                assert phrase in truth
                seen.add(phrase)
        assert seen == truth

    def test_entities_always_capitalized(self, small):
        for toks, tags in zip(small.sentences, small.tags):
            for start, end in bio_spans(tags):
                assert all(t[0].isupper() for t in toks[start:end])

    def test_distractors_never_tagged(self, small):
        lowered = set(small.distractors)
        for toks, tags in zip(small.sentences, small.tags):
            spans = {
                " ".join(toks[s:e]).lower() for s, e in bio_spans(tags)
            }
            assert not spans & lowered

    def test_min_trigger_mentions_per_phrase(self, small):
        trigger_set = {tuple(t) for t in TRIGGERS}
        counts = {p: 0 for p in small.entities + small.distractors}
        surfaces = {p: p.split(" ") for p in counts}
        for toks in small.sentences:
            low = [t.lower() for t in toks]
            for phrase, surface in surfaces.items():
                n = len(surface)
                for i in range(2, len(low) - n + 1):
                    if (
                        low[i : i + n] == surface
                        and (low[i - 2], low[i - 1]) in trigger_set
                    ):
                        counts[phrase] += 1
        assert all(c >= SMALL.min_mentions for c in counts.values())

    def test_extraction_recovers_every_planted_phrase(self, small, tmp_path):
        paths = small.write(tmp_path)
        sents = list(iter_sentences(paths["corpus"]))
        cands = extract_candidates(sents, load_patterns(paths["patterns"]))
        got = {c.lower for c in cands}
        planted = set(small.entities) | set(small.distractors)
        assert planted <= got

    def test_capitalized_distractor_share_near_knob(self):
        spec = SynthSpec(
            n_sentences=2500, n_entities=12, n_distractors=200,
            cap_distractor_rate=0.3, seed=9,
        )
        sc = generate(spec)
        capped = 0
        for d in sc.distractors:
            # find the surface form in some sentence
            surface = d.split(" ")
            for toks in sc.sentences:
                low = [t.lower() for t in toks]
                for i in range(len(low) - len(surface) + 1):
                    if low[i : i + len(surface)] == surface:
                        capped += toks[i][0].isupper()
                        break
                else:
                    continue
                break
        assert 0.3 * 200 * 0.5 < capped < 0.3 * 200 * 1.5


class TestSplits:
    def test_sizes_and_disjointness(self, small):
        splits = small.splits()
        assert len(splits["train"]) == 400
        assert len(splits["dev"]) == 300
        assert len(splits["test"]) == 500
        tails = splits["train"] + splits["dev"] + splits["test"]
        assert tails == list(zip(small.sentences, small.tags))[-1200:]

    def test_conll_round_trip(self, small, tmp_path):
        paths = small.write(tmp_path)
        for name in ("train", "dev", "test"):
            rows = read_conll(paths[name], strict=True)
            assert [(list(s), list(t)) for s, t in rows] == [
                (list(s), list(t)) for s, t in small.splits()[name]
            ]


class TestWrite:
    def test_corpus_round_trips_token_for_token(self, small, tmp_path):
        paths = small.write(tmp_path)
        with open(paths["corpus"], encoding="utf-8") as fh:
            lines = [line.rstrip("\n").split(" ") for line in fh]
        assert lines == small.sentences

    def test_truth_and_seed_files(self, small, tmp_path):
        paths = small.write(tmp_path)
        ents = paths["entities"].read_text(encoding="utf-8").splitlines()
        assert ents == small.entities
        seeds = paths["seeds"].read_text(encoding="utf-8").splitlines()
        k = SMALL.seeds_per_class
        assert seeds[0] == "[positive]"
        assert seeds[1 : 1 + k] == small.entities[:k]
        assert seeds[1 + k] == "[negative]"
        assert seeds[2 + k :] == small.distractors[:k]

    def test_patterns_file_loads(self, small, tmp_path):
        paths = small.write(tmp_path)
        pats = load_patterns(paths["patterns"])
        assert len(pats) == len(TRIGGERS)
