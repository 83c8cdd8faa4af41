"""Synthetic benchmark corpus with planted entities and distractors.

The generator invents nonce entity names (capitalized) and distractor
phrases (lowercase), then writes sentences where both appear after the
same trigger bigrams so pattern extraction recovers them all.  Class
membership leaks only through the surrounding context words, which are
drawn from class-specific pools with a configurable fidelity (an
occurrence gets the other class's context with probability
1 - context_fidelity), and through capitalization.  The generator keeps
the planted truth, so downstream dictionaries and taggers can be scored
exactly.

Every draw before the final shuffle goes through :class:`_Draws`, which
computes numpy's own answers in Python from the PCG64 bit generator's raw
64-bit outputs, fetched ``_BLOCK`` at a time with ``random_raw``; a scalar
``Generator`` call costs microseconds of overhead, and a corpus makes tens
of thousands of them.  ``integers(n)`` is numpy's bounded method for a range
below 2**32, Lemire's multiply-and-reject on 32-bit words (the low half of a
raw output first, the high half kept for the next 32-bit draw), and
``random()`` is the top 53 bits of one whole raw output, the kept half left
in place.  Before the shuffle, ``settle`` puts the bit generator where
numpy's calls would have left it: the start state advanced by the raw
outputs used, with the kept half in ``has_uint32``/``uinteger``.  So a seed
gives the same corpus bytes as drawing from the ``Generator`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SynthSpec", "SynthCorpus", "generate"]

TRIGGERS = (("cases", "of"), ("reports", "of"), ("patients", "with"))
STOP_AFTER = ("were", "are", "was", "is", "has", "had")
ENTITY_LEFT = ("contagious", "spreading", "deadly", "virulent", "untreated")
ENTITY_RIGHT = ("outbreaks", "infections", "symptoms", "quarantines", "fevers")
DISTRACTOR_LEFT = ("quarterly", "routine", "scheduled", "internal", "archived")
DISTRACTOR_RIGHT = ("budgets", "meetings", "audits", "invoices", "spreadsheets")
GLUE = (
    "the", "a", "team", "office", "regional", "staff", "noted", "review",
    "during", "process", "before", "after", "local", "group", "board",
    "later", "again", "also", "update", "summary", "early", "final",
)

_SYLLABLES = (
    "ba", "ce", "da", "fe", "gi", "ho", "ka", "le", "mi", "no", "pa", "qui",
    "ra", "se", "ta", "vu", "we", "xi", "yo", "zu", "lor", "ven", "dra",
    "mek", "sil", "tor", "nar", "bel", "cru", "fen",
)

# words a nonce phrase must not reuse
_RESERVED = frozenset(
    GLUE + STOP_AFTER + ENTITY_LEFT + ENTITY_RIGHT + DISTRACTOR_LEFT
    + DISTRACTOR_RIGHT + tuple(w for t in TRIGGERS for w in t)
)

# raw 64-bit outputs fetched per random_raw call
_BLOCK = 1024


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs; one seed drives every random choice."""

    n_sentences: int = 20000
    n_entities: int = 60
    n_distractors: int = 220
    context_fidelity: float = 0.92
    mention_rate: float = 0.65
    trigger_rate: float = 0.85
    entity_share: float = 0.4
    cap_distractor_rate: float = 0.3
    min_mentions: int = 5
    seeds_per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_sentences < 2000:
            raise ValueError("need at least 2000 sentences for the labeled tail")
        if self.seeds_per_class < 1:
            raise ValueError("seeds_per_class must be at least 1")
        if self.min_mentions < 1:
            raise ValueError("min_mentions must be at least 1")
        if self.n_entities < self.seeds_per_class:
            raise ValueError("fewer entities than seeds")
        if self.n_distractors < self.seeds_per_class:
            raise ValueError("fewer distractors than seeds")
        if not 0.5 < self.context_fidelity <= 1.0:
            raise ValueError("context_fidelity must be in (0.5, 1]")
        if not 0.0 < self.mention_rate < 1.0:
            raise ValueError("mention_rate must be in (0, 1)")
        if not 0.0 <= self.trigger_rate <= 1.0:
            raise ValueError("trigger_rate must be in [0, 1]")
        if not 0.0 < self.entity_share < 1.0:
            raise ValueError("entity_share must be in (0, 1)")
        if not 0.0 <= self.cap_distractor_rate < 1.0:
            raise ValueError("cap_distractor_rate must be in [0, 1)")


@dataclass
class SynthCorpus:
    """Generated sentences with gold tags and the planted truth."""

    sentences: list[list[str]]
    tags: list[list[str]]
    entities: list[str]
    distractors: list[str]
    spec: SynthSpec

    def splits(self) -> dict[str, list[tuple[list[str], list[str]]]]:
        """Labeled tail: 400 tagger-training, 300 dev, 500 test sentences."""
        paired = list(zip(self.sentences, self.tags))
        return {
            "train": paired[-1200:-800],
            "dev": paired[-800:-500],
            "test": paired[-500:],
        }

    def write(self, outdir: str | Path) -> dict[str, Path]:
        """Corpus text, CoNLL splits, truth lists, seeds, and patterns."""
        from .tagging import write_conll

        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}

        paths["corpus"] = outdir / "corpus.txt"
        with open(paths["corpus"], "w", encoding="utf-8") as fh:
            for toks in self.sentences:
                fh.write(" ".join(toks) + "\n")

        for name, rows in self.splits().items():
            paths[name] = outdir / f"{name}.conll"
            with open(paths[name], "w", encoding="utf-8") as fh:
                write_conll(rows, fh)

        for name, phrases in (
            ("entities", self.entities),
            ("distractors", self.distractors),
        ):
            paths[name] = outdir / f"{name}.txt"
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("\n".join(phrases) + "\n")

        k = self.spec.seeds_per_class
        paths["seeds"] = outdir / "seeds.txt"
        with open(paths["seeds"], "w", encoding="utf-8") as fh:
            fh.write("[positive]\n")
            fh.write("\n".join(self.entities[:k]) + "\n")
            fh.write("[negative]\n")
            fh.write("\n".join(self.distractors[:k]) + "\n")

        paths["patterns"] = outdir / "patterns.txt"
        with open(paths["patterns"], "w", encoding="utf-8") as fh:
            for trigger in TRIGGERS:
                fh.write(f"after {' '.join(trigger)}\n")
        return paths


class _Draws:
    """``int(rng.integers(n))`` and ``float(rng.random())`` of a PCG64
    ``Generator``, bit for bit, from its raw outputs (see the module
    docstring).  Draw only through this object until :meth:`settle`."""

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._mark()

    def _mark(self) -> None:
        state = self._bitgen.state
        self._start = state
        self._fetched = 0
        self._raw: list[int] = []  # the block's unused outputs, last first
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> int:
        """The next raw output, from a new block."""
        self._raw = self._bitgen.random_raw(_BLOCK).tolist()[::-1]
        self._fetched += _BLOCK
        return self._raw.pop()

    def integers(self, n: int) -> int:
        """A draw from ``range(n)``, for 1 <= n <= 2**32."""
        if n == 1:
            return 0
        threshold = (0x100000000 - n) % n
        while True:
            half = self._half
            if half is None:
                raw = self._raw
                word = raw.pop() if raw else self._refill()
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def random(self) -> float:
        raw = self._raw
        word = raw.pop() if raw else self._refill()
        return (word >> 11) * (1.0 / 9007199254740992.0)

    def settle(self) -> None:
        """Leave the bit generator as numpy's own calls would have."""
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self._fetched - len(self._raw))
        state = bitgen.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._half or 0
        bitgen.state = state
        self._mark()


def _pick(draws: _Draws, pool):
    return pool[draws.integers(len(pool))]


def _nonce_word(draws: _Draws, taken: set[str]) -> str:
    while True:
        word = "".join(
            _pick(draws, _SYLLABLES) for _ in range(2 + draws.integers(2))
        )
        if word not in taken and word not in _RESERVED:
            taken.add(word)
            return word


def _invent_phrases(
    draws: _Draws, count: int, cap_rate: float, taken: set[str]
) -> list[str]:
    phrases = []
    for _ in range(count):
        words = [
            _nonce_word(draws, taken)
            for _ in range(1 if draws.random() < 0.6 else 2)
        ]
        if draws.random() < cap_rate:
            words = [w.capitalize() for w in words]
        phrases.append(" ".join(words))
    return phrases


def _mention_sentence(
    draws: _Draws,
    surface: list[str],
    is_entity: bool,
    with_trigger: bool,
    fidelity: float,
) -> tuple[list[str], list[str]]:
    # one fidelity draw per occurrence: a contaminated mention takes the
    # other class's context on both sides
    matched = draws.random() < fidelity
    if is_entity == matched:
        left_pool, right_pool = ENTITY_LEFT, ENTITY_RIGHT
    else:
        left_pool, right_pool = DISTRACTOR_LEFT, DISTRACTOR_RIGHT
    toks = [_pick(draws, GLUE) for _ in range(draws.integers(4))]
    if with_trigger:
        toks.append(_pick(draws, left_pool))
        toks.extend(_pick(draws, TRIGGERS))
    else:
        # fill the whole left window with class words so untriggered
        # mentions carry as much signal as triggered ones
        toks.extend(_pick(draws, left_pool) for _ in range(3))
    start = len(toks)
    toks.extend(surface)
    end = len(toks)
    toks.append(_pick(draws, STOP_AFTER))
    toks.append(_pick(draws, right_pool))
    toks.append(_pick(draws, right_pool))
    toks.extend(_pick(draws, GLUE) for _ in range(draws.integers(3)))
    tags = ["O"] * len(toks)
    if is_entity:
        tags[start] = "B"
        for i in range(start + 1, end):
            tags[i] = "I"
    return toks, tags


def _filler_sentence(draws: _Draws) -> tuple[list[str], list[str]]:
    toks = [_pick(draws, GLUE) for _ in range(5 + draws.integers(6))]
    return toks, ["O"] * len(toks)


def generate(spec: SynthSpec = SynthSpec()) -> SynthCorpus:
    rng = np.random.default_rng(spec.seed)
    draws = _Draws(rng)
    taken: set[str] = set()
    entities = _invent_phrases(draws, spec.n_entities, 1.0, taken)
    distractors = _invent_phrases(
        draws, spec.n_distractors, spec.cap_distractor_rate, taken
    )

    # every planted phrase gets min_mentions guaranteed trigger mentions
    # so extraction recall over the truth is exactly 1
    entity_surfaces = [p.split(" ") for p in entities]
    distractor_surfaces = [p.split(" ") for p in distractors]
    schedule: list[tuple[list[str], bool, bool]] = [
        (surface, is_entity, True)
        for surfaces, is_entity in (
            (entity_surfaces, True),
            (distractor_surfaces, False),
        )
        for surface in surfaces
        for _ in range(spec.min_mentions)
    ]
    n_mentions = max(
        int(round(spec.mention_rate * spec.n_sentences)), len(schedule)
    )
    if n_mentions > spec.n_sentences:
        raise ValueError("mention schedule exceeds sentence budget")
    while len(schedule) < n_mentions:
        if draws.random() < spec.entity_share:
            pool, is_entity = entity_surfaces, True
        else:
            pool, is_entity = distractor_surfaces, False
        surface = _pick(draws, pool)
        schedule.append((surface, is_entity, draws.random() < spec.trigger_rate))

    rows = [
        _mention_sentence(draws, surface, is_entity, with_trigger, spec.context_fidelity)
        for surface, is_entity, with_trigger in schedule
    ]
    rows.extend(_filler_sentence(draws) for _ in range(spec.n_sentences - len(rows)))
    draws.settle()
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    sentences = [toks for toks, _ in rows]
    tags = [t for _, t in rows]
    return SynthCorpus(
        sentences=sentences,
        tags=tags,
        entities=[p.lower() for p in entities],
        distractors=[p.lower() for p in distractors],
        spec=spec,
    )
