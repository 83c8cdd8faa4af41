"""Linear-chain conditional tagger over {B, I, O}.

Emission features are label-independent observations conjoined with the
label at scoring time; transitions are label-bigram indicators, plus
label-trigram indicators with prev2.  The chain's states are the label
histories the transitions read, (label,) or (previous label, label), so
one state space serves both orders and inference stays exact.  Training
maximizes the L2-regularized conditional log-likelihood with exact
gradients from the forward-backward recursions, run in log space.

A sentence list is compiled once into a sparse token×observation matrix
X, so the emissions of every token are one product X @ W and the emission
gradient is one product X.T @ (label marginals - gold one-hot).  One
featurizer, _columns, builds the rows of X, build_model's index, and the
named features extract_features gives one step of one sentence.  It
interns the batch once as a Corpus, looks up each token type's lexical
columns once, takes the window columns from the neighbours' types and the
five-token shape pattern from a base-6 code, and matches each dictionary
and the embedding phrases in it with one PhraseTrie match each.  The
per-token string specification of those rows is kept as a test oracle in
``tests/oracles.py``.  A λ grid compiles its training set and its dev split
once for every fit.
Forward, backward and Viterbi run over the whole batch at once: sentences
are padded longest first, and each step updates the prefix still running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from .corpus import (
    Corpus,
    PhraseTrie,
    _Ids,
    SHAPE_ALL_CAPS,
    SHAPE_ALL_LOWER,
    SHAPE_INIT_CAP,
    SHAPE_MIXED,
    SHAPE_NON_ALPHA,
    word_shape,
)
from .tagging import (
    BIO,
    Dictionary,
    check_phrases,
    dictionary_codes,
    evaluate,
    span_codes,
    validate_bio,
)
# not called here: perfbench/tracer.py's WRAPS wraps it under this module
from .tagging import tag_with_dictionary  # noqa: F401
from .views import BOUNDARY, _first_appearance

__all__ = [
    "LABELS",
    "FeatureConfig",
    "SentinelEmbeddings",
    "CrfModel",
    "CurveVariant",
    "extract_features",
    "build_model",
    "train_crf",
    "train_crf_grid",
    "log_likelihood_and_gradient",
    "viterbi_decode",
    "compile_tagger",
    "tag_sentences",
    "learning_curve",
    "standard_variants",
    "write_curve_tsv",
]

LABELS = BIO
START = "^"

_LABEL_IDX = {lab: i for i, lab in enumerate(LABELS)}


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature families the tagger extracts.

    baseline is the lexical families (lowercased word, capitalization
    shape, prefixes and suffixes up to four characters, the words two either
    side and the five-token shape pattern) plus label bigrams.  dict_match
    and embedding consume external artifacts.  prev2 adds label trigrams by
    widening the chain's states to (previous label, label) pairs, so it
    needs baseline's label bigrams.
    """

    baseline: bool = True
    prev2: bool = False
    dict_match: bool = False
    embedding: bool = False

    def __post_init__(self):
        if self.prev2 and not self.baseline:
            raise ValueError("feature flag 'prev2' needs 'baseline' (its label bigrams)")

    @classmethod
    def from_flags(cls, flags: str) -> "FeatureConfig":
        """Parse a comma-separated flag list such as "baseline,dict,emb";
        each flag turns on one field (see _FLAGS) and the rest are off.  A
        list without any flag is rejected: it would build a model with no
        features."""
        on = set()
        for flag in filter(None, (f.strip() for f in flags.split(","))):
            if flag not in _FLAGS:
                raise ValueError(f"unknown feature flag {flag!r}")
            on.add(_FLAGS[flag])
        if not on:
            raise ValueError(f"no feature flag given (one of {', '.join(_FLAGS)})")
        return cls(**{name: name in on for name in cls.__dataclass_fields__})


# feature flag -> the FeatureConfig field it turns on
_FLAGS = {"baseline": "baseline", "dict": "dict_match", "emb": "embedding", "prev2": "prev2"}


class SentinelEmbeddings:
    """Phrase embedding table plus the sentinel constants derived from it.

    x is the largest absolute component over the whole table, frozen when
    the table is loaded.  A token starting a known phrase carries that
    phrase's vector; later tokens of the phrase carry the constant 2*x in
    every dimension, and tokens outside any known phrase carry 4*x, so the
    three token roles stay linearly separable even when components are
    negative.  ``trie`` matches the phrases in an interned corpus, its
    phrase index the row of ``matrix``.  Two tables compare equal only when
    they are the same object.
    """

    def __init__(self, table: Mapping[str, np.ndarray]):
        if not table:
            raise ValueError("embedding table is empty")
        self.phrases = tuple(table)
        check_phrases(self.phrases, "embedding")
        self.matrix = np.vstack([np.asarray(table[p], dtype=float) for p in self.phrases])
        if self.matrix.ndim != 2:
            raise ValueError("embedding vectors must share one dimension")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("non-finite embedding component")
        self.k = self.matrix.shape[1]
        self.x = float(np.max(np.abs(self.matrix)))
        self.trie = PhraseTrie(self.phrases)


def _named_dicts(
    dictionaries: Iterable,
) -> tuple[tuple[str, Dictionary], ...]:
    """Normalize to (name, Dictionary) pairs, naming by provenance and
    suffixing a taken name with #2, #3, ... until it is unique, so every
    dictionary has its own dict: columns."""
    out: list[tuple[str, Dictionary]] = []
    taken: set[str] = set()
    for item in dictionaries:
        if isinstance(item, Dictionary):
            base, d = item.provenance, item
        else:
            base, d = item
        name, k = base, 1
        while name in taken:
            k += 1
            name = f"{base}#{k}"
        taken.add(name)
        out.append((name, d))
    return tuple(out)


# the key of the last sentence _sentence_rows featurized, and its rows
_last_sentence: tuple = (None, [])


def _sentence_rows(
    tokens: Sequence[str],
    config: FeatureConfig,
    dictionaries: tuple[tuple[str, Dictionary], ...],
    embeddings: SentinelEmbeddings | None,
) -> list[list[tuple[str, float]]]:
    """Each token's observations as (name, value) pairs, in _columns' slot
    order: the row of X a model indexing every name would hold.

    Path scoring asks for every position of one sentence in turn, so the
    rows of the last sentence are kept for the next call.  Its key holds
    the tokens, the config and the very dictionary and table objects, so
    no object id is reused while it stands, and compares with ==: a
    Dictionary by value, a SentinelEmbeddings by identity.
    """
    global _last_sentence
    key = (tuple(tokens), config, dictionaries, embeddings)
    # read once: a call in another thread may replace the slot meanwhile
    last_key, rows = _last_sentence
    if last_key != key:
        names = _Ids()
        ids, vals, _ = _columns([tokens], names.__getitem__, config, dictionaries, embeddings)
        looked_up = list(names)
        rows = [
            [(looked_up[i], v) for i, v in zip(row, values) if i >= 0]
            for row, values in zip(ids.tolist(), vals.tolist())
        ]
        _last_sentence = key, rows
    return rows


def extract_features(
    tokens: Sequence[str],
    position: int,
    prev_label,
    label: str,
    config: FeatureConfig,
    dictionaries: Iterable = (),
    embeddings: SentinelEmbeddings | None = None,
) -> dict[str, float]:
    """All model features firing at one (position, history, label) step.

    prev_label is the previous tag (START before the first token); with
    prev2 it is the (tag two back, previous tag) pair instead.  Emission
    names carry the label conjunction explicitly so the mapping can be
    scored against a weight vector by name.
    """
    if not 0 <= position < len(tokens):
        raise IndexError(f"position {position} outside sentence")
    obs = _sentence_rows(tokens, config, _named_dicts(dictionaries), embeddings)
    out = {f"{name}|y={label}": v for name, v in obs[position]}
    if config.baseline:
        if config.prev2:
            two_back, prev_label = prev_label
            if position >= 1:
                out[f"t2|{two_back}>{prev_label}>{label}"] = 1.0
        out[f"t|{prev_label}>{label}"] = 1.0
    return out


@dataclass
class CrfModel:
    """Frozen feature index plus one weight per (observation, label) pair
    and per transition indicator.  Observations unseen at training time are
    ignored at inference.  solver holds the L-BFGS status (converged, nit,
    nfev, message) of the fit that produced the weights; save and load
    leave it out."""

    config: FeatureConfig
    obs_names: list[str]
    trans_names: list[str]
    weights: np.ndarray
    regularizer: float
    dictionaries: tuple[tuple[str, Dictionary], ...] = ()
    embeddings: SentinelEmbeddings | None = None
    obs_index: dict[str, int] = field(default_factory=dict, repr=False)
    trans_index: dict[str, int] = field(default_factory=dict, repr=False)
    solver: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.obs_index:
            self.obs_index = {n: i for i, n in enumerate(self.obs_names)}
        if not self.trans_index:
            self.trans_index = {n: i for i, n in enumerate(self.trans_names)}
        expect = len(self.obs_names) * len(LABELS) + len(self.trans_names)
        if self.weights.shape != (expect,):
            raise ValueError(
                f"weight vector has {self.weights.shape}, expected ({expect},)"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weight")
        if self.regularizer < 0:
            raise ValueError("regularizer must be nonnegative")

    def feature_id(self, name: str) -> int | None:
        """Weight index for a feature name from extract_features, or None
        when the feature was never indexed."""
        head, sep, label = name.rpartition("|y=")
        if sep and label in _LABEL_IDX:
            col = self.obs_index.get(head)
            if col is None:
                return None
            return col * len(LABELS) + _LABEL_IDX[label]
        tid = self.trans_index.get(name)
        if tid is None:
            return None
        return len(self.obs_names) * len(LABELS) + tid

    def score_step(self, features: Mapping[str, float]) -> float:
        """Dot product of a named feature mapping with the weights."""
        total = 0.0
        for name, value in features.items():
            fid = self.feature_id(name)
            if fid is not None:
                total += self.weights[fid] * value
        return total

    def save(self, path: str | Path) -> None:
        meta = {
            "config": {
                f: getattr(self.config, f) for f in FeatureConfig.__dataclass_fields__
            },
            "obs_names": self.obs_names,
            "trans_names": self.trans_names,
            "regularizer": self.regularizer,
            "dictionaries": [
                {
                    "name": name,
                    "provenance": d.provenance,
                    "metadata": d.metadata,
                    "scores": list(d.scores.items()),
                }
                for name, d in self.dictionaries
            ],
            "embedding_phrases": list(self.embeddings.phrases)
            if self.embeddings
            else None,
        }
        arrays = {"weights": self.weights, "meta": np.array(json.dumps(meta))}
        if self.embeddings is not None:
            arrays["emb_matrix"] = self.embeddings.matrix
        # write to the exact path given; np.savez appends .npz to bare names
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "CrfModel":
        """A :meth:`save` file.  A missing array, or arrays that do not make
        a valid model (weights that disagree with the feature index, say),
        raise ``ValueError`` naming the file."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"])) if "meta" in data.files else {}
            keys = ["meta", "weights"]
            if meta.get("embedding_phrases") is not None:
                keys.append("emb_matrix")
            if missing := [key for key in keys if key not in data.files]:
                raise ValueError(f"{path}: missing array(s) {', '.join(missing)}")
            weights = np.array(data["weights"])
            emb = None
            if meta["embedding_phrases"] is not None:
                matrix = np.array(data["emb_matrix"])
                emb = SentinelEmbeddings(
                    dict(zip(meta["embedding_phrases"], matrix))
                )
        dicts = tuple(
            (
                entry["name"],
                Dictionary(
                    scores=dict(entry["scores"]),
                    provenance=entry["provenance"],
                    metadata=entry["metadata"],
                ),
            )
            for entry in meta["dictionaries"]
        )
        if unknown := sorted(set(meta["config"]) - set(FeatureConfig.__dataclass_fields__)):
            raise ValueError(
                f"{path}: unknown feature config keys {', '.join(unknown)}; retrain the model"
            )
        try:
            return cls(
                config=FeatureConfig(**meta["config"]),
                obs_names=list(meta["obs_names"]),
                trans_names=list(meta["trans_names"]),
                weights=weights,
                regularizer=float(meta["regularizer"]),
                dictionaries=dicts,
                embeddings=emb,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _trans_names(config: FeatureConfig) -> list[str]:
    if not config.baseline:
        return []
    prevs = (START,) + LABELS
    names = [f"t|{p}>{c}" for p, c in product(prevs, LABELS)]
    if config.prev2:
        names += [f"t2|{a}>{b}>{c}" for a, b, c in product(prevs, LABELS, LABELS)]
    return names


class _Chain:
    """State space of the label chain plus weight-to-score plumbing.

    A state is the label history the transitions read: (label,) in first
    order, (previous label, label) with prev2.  States are ordered by their
    last label, so first-index argmax tie-breaking still prefers B over I
    over O in the decoded sequence.  A move a -> b is valid when b's
    history is a's shifted by one label, and a sentence begins in a state
    whose history is all START.
    """

    def __init__(self, model: CrfModel):
        cfg = model.config
        self.n_obs = len(model.obs_names)
        self.offset = self.n_obs * len(LABELS)
        history = [(START,) + LABELS] if cfg.prev2 else []
        self.states = sorted(product(*history, LABELS), key=lambda s: _LABEL_IDX[s[-1]])
        self.index = {s: i for i, s in enumerate(self.states)}
        self.state_label = np.array([_LABEL_IDX[s[-1]] for s in self.states])
        # state -> label one-hot, so state marginals @ to_label are label marginals
        self.to_label = np.eye(len(LABELS))[self.state_label]

        def tid(name: str) -> int:
            return self.offset + model.trans_index[name]

        # start_fids[s] and pair_fid_map[a, b]: the weight ids firing when
        # a sentence begins in s and on the valid move a -> b
        self.start_valid = np.array([all(p == START for p in s[:-1]) for s in self.states])
        self.start_fids = [
            [tid(f"t|{START}>{s[-1]}")] if ok and cfg.baseline else []
            for s, ok in zip(self.states, self.start_valid)
        ]
        self.valid = np.array([[b[:-1] == a[1:] for b in self.states] for a in self.states])
        self.pair_fid_map: dict[tuple[int, int], list[int]] = {}
        for (i, a), (j, b) in product(enumerate(self.states), repeat=2):
            if not (self.valid[i, j] and cfg.baseline):
                continue
            fids = [tid(f"t|{a[-1]}>{b[-1]}")]
            if cfg.prev2:
                fids.append(tid(f"t2|{a[0]}>{a[-1]}>{b[-1]}"))
            self.pair_fid_map[i, j] = fids
        pairs = [(i, j, f) for (i, j), fids in self.pair_fid_map.items() for f in fids]
        self.pair_rows, self.pair_cols, self.pair_fids = np.array(pairs, dtype=int).reshape(-1, 3).T

    def scores(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start vector, transition matrix) in log space; invalid moves
        are -inf."""
        start = np.where(self.start_valid, 0.0, -np.inf)
        for si, fids in enumerate(self.start_fids):
            for fid in fids:
                start[si] += weights[fid]
        trans = np.where(self.valid, 0.0, -np.inf)
        if self.pair_fids.size:
            np.add.at(trans, (self.pair_rows, self.pair_cols), weights[self.pair_fids])
        return start, trans

    def state_path(self, labels: Sequence[str]) -> list[int]:
        """State index sequence realizing a label sequence."""
        state = (START,) * len(self.states[0])
        path = []
        for lab in labels:
            state = state[1:] + (lab,)
            path.append(self.index[state])
        return path


@dataclass
class _Compiled:
    """A list of nonempty sentences reduced to arrays.

    Rows of X are the tokens of all sentences, concatenated in input order.
    The batch layout pads sentences to T×B, longest first: sentence
    order[r] sits in column r, active[t] sentences are still running at
    step t (always a prefix of the columns), and token i sits at flat
    index slot[i] of the T×B grid.
    """

    X: sp.csr_matrix
    lengths: np.ndarray
    order: np.ndarray
    active: np.ndarray
    slot: np.ndarray
    gold: np.ndarray | None
    gold_fids: np.ndarray | None

    def padded(self, token_rows: np.ndarray) -> np.ndarray:
        """Scatter per-token rows into a T×B×m array, zero elsewhere."""
        T, B = len(self.active), len(self.order)
        out = np.zeros((T * B, token_rows.shape[1]))
        out[self.slot] = token_rows
        return out.reshape(T, B, -1)


def _compile(
    model: CrfModel,
    chain: _Chain,
    sentences: Sequence[tuple[Sequence[str], Sequence[str] | None]],
    with_gold: bool,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> _Compiled:
    """Reduce sentences to X, the batch layout and (with_gold) the gold
    labels and gold transition ids.

    X is _columns' matrix (``columns``, when the pass that built the index
    made it), with -1 where a name is not in the index, masked row by row
    into the CSR arrays: each row lists its indexed columns in slot order.
    """
    texts: list[Sequence[str]] = []
    gold: list[int] = []
    gold_fids: list[int] = []
    for tokens, tags in sentences:
        if not tokens:
            raise ValueError("empty sentence")
        texts.append(tokens)
        if with_gold:
            validate_bio(tags)
            if len(tags) != len(tokens):
                raise ValueError("token/tag length mismatch")
            gold.extend(_LABEL_IDX[t] for t in tags)
            path = chain.state_path(tags)
            gold_fids.extend(chain.start_fids[path[0]])
            for a, b in zip(path, path[1:]):
                gold_fids.extend(chain.pair_fid_map.get((a, b), ()))
    if not texts:
        raise ValueError("no sentences")
    index = model.obs_index
    ids, vals, step = columns or _columns(
        texts, lambda name: index.get(name, -1), model.config, model.dictionaries, model.embeddings
    )
    keep = ids >= 0
    X = sp.csr_matrix(
        (vals[keep], ids[keep], np.concatenate(([0], np.cumsum(keep.sum(axis=1))))),
        shape=(step.size, chain.n_obs),
    )
    lengths = np.array([len(tokens) for tokens in texts], dtype=int)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    T, B = int(lengths.max()), order.size
    active = (lengths[order][None, :] > np.arange(T)[:, None]).sum(axis=1)
    slot = step * B + np.repeat(rank, lengths)
    return _Compiled(
        X,
        lengths,
        order,
        active,
        slot,
        np.array(gold, dtype=int) if with_gold else None,
        np.array(gold_fids, dtype=int) if with_gold else None,
    )


def _columns(
    texts: Sequence[Sequence[str]], lookup: Callable[[str], int], config: FeatureConfig,
    dictionaries: tuple[tuple[str, Dictionary], ...], emb: SentinelEmbeddings | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The featurizer: a token×slot matrix of column ids, their values, and
    each token's position in its sentence.  Row i holds ``lookup(name)`` of
    token i's observation names, in the order extract_features gives them,
    and -1 in a pre/suf slot past the token's length; each family is one
    block of slots, computed over the whole batch.
    """
    lengths = np.array([len(tokens) for tokens in texts], dtype=int)
    step = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    n = step.size
    # the empty block keeps hstack defined when no family is on
    blocks = [np.empty((n, 0), dtype=np.int64)]
    corpus = Corpus.of_tokens(texts)
    if config.baseline:
        blocks.append(_lexical_ids(lookup, corpus, step, np.repeat(lengths, lengths)))
    if config.dict_match:
        for name, dictionary in dictionaries:
            cols = np.array([lookup(f"dict:{name}={t}") for t in LABELS])
            blocks.append(cols[dictionary_codes(corpus, dictionary)][:, None])
    vals = np.ones((n, sum(block.shape[1] for block in blocks)))
    if config.embedding:
        if emb is None:
            raise ValueError("embedding features enabled without a table")
        # each token's row of `table`: its phrase's vector where it starts
        # a known phrase, then the 2x (inside) and 4x (outside) sentinels
        table = np.vstack([emb.matrix, np.full((2, emb.k), [[2.0 * emb.x], [4.0 * emb.x]])])
        start, end, phrase = emb.trie.match(corpus)
        # the 2x row inside a phrase and the 4x row outside, its own at its start
        role = len(emb.phrases) + (span_codes(n, start, end) == BIO.index("O"))
        role[start] = phrase
        vals = np.hstack([vals, table[role]])
        cols = np.array([lookup(f"emb{j}") for j in range(emb.k)])
        blocks.append(np.broadcast_to(cols, (n, emb.k)))
    return np.hstack(blocks), vals, step


# word_shape's classes plus BOUNDARY: the digits of a wshape= code
_SHAPES = (SHAPE_ALL_LOWER, SHAPE_INIT_CAP, SHAPE_ALL_CAPS, SHAPE_MIXED, SHAPE_NON_ALPHA, BOUNDARY)
_SHAPE_IDX = {s: i for i, s in enumerate(_SHAPES)}
_WINDOW = (-2, -1, 1, 2)


def _lexical_ids(
    lookup: Callable[[str], int],
    corpus: Corpus,
    step: np.ndarray,
    size: np.ndarray,
) -> np.ndarray:
    """Column ids of the baseline family, one row per token: w=, caps=,
    pre1/suf1 .. pre4/suf4 (-1 past the token's length), win-2 .. win+2
    and wshape=.  step and size are each token's position in its sentence
    and that sentence's length.

    Each token type's own names and its window name per offset are looked
    up once; BOUNDARY is one more type.
    Windows index the neighbours' types, and the five-token shape pattern
    is a base-6 code over _SHAPES, named once per distinct code.
    """
    types, tok_type = corpus.vocab, corpus.ids
    n = step.size
    bound = len(types)
    own = np.full((bound + 1, 10), -1, dtype=np.int64)
    win = np.empty((bound + 1, len(_WINDOW)), dtype=np.int64)
    shape = np.empty(bound + 1, dtype=np.int64)
    for text, t in types.items():
        low = text.lower()
        caps = word_shape(text)
        names = [f"w={low}", f"caps={caps}"]
        for length in range(1, min(4, len(low)) + 1):
            names += (f"pre{length}={low[:length]}", f"suf{length}={low[-length:]}")
        own[t, : len(names)] = [lookup(name) for name in names]
        win[t] = [lookup(f"win{off:+d}={low}") for off in _WINDOW]
        shape[t] = _SHAPE_IDX[caps]
    win[bound] = [lookup(f"win{off:+d}={BOUNDARY}") for off in _WINDOW]
    shape[bound] = _SHAPE_IDX[BOUNDARY]
    # the types at offsets -2 .. +2 of every token, BOUNDARY past its sentence
    near = np.full((n, 5), bound)
    for k, off in enumerate(range(-2, 3)):
        inside = (step + off >= 0) & (step + off < size)
        near[inside, k] = tok_type[np.flatnonzero(inside) + off]
    digits = len(_SHAPES) ** np.arange(5)
    codes, code_of = np.unique(shape[near] @ digits, return_inverse=True)
    pattern = np.array(
        [
            lookup("wshape=" + "|".join(_SHAPES[c // d % len(_SHAPES)] for d in digits))
            for c in codes.tolist()
        ],
        dtype=np.int64,
    )
    return np.hstack(
        [
            own[tok_type],
            win[near[:, [off + 2 for off in _WINDOW]], np.arange(len(_WINDOW))],
            pattern[code_of][:, None],
        ]
    )


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis; an all -inf slice gives -inf without a
    floating-point warning."""
    peak = np.max(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    total = np.exp(x - peak).sum(axis=axis)
    out = np.full_like(total, -np.inf)
    np.log(total, out=out, where=total > 0)
    return out + np.squeeze(peak, axis=axis)


def _neg_objective(
    weights: np.ndarray,
    model: CrfModel,
    chain: _Chain,
    comp: _Compiled,
) -> tuple[float, np.ndarray]:
    """Negative (log-likelihood - lambda * ||w||^2) and its gradient.

    Forward and backward run over the whole batch at once, one step per
    position, on the prefix of sentences still active at that step."""
    n_lab = len(LABELS)
    w_obs = weights[: chain.offset].reshape(chain.n_obs, n_lab)
    start, trans = chain.scores(weights)
    E = comp.X @ w_obs
    estate = E[:, chain.state_label]
    S = comp.padded(estate)
    T, B, m = S.shape
    alpha = np.full_like(S, -np.inf)
    beta = np.zeros_like(S)
    alpha[0] = start + S[0]
    for t in range(1, T):
        a = comp.active[t]
        alpha[t, :a] = _logsumexp(alpha[t - 1, :a, :, None] + trans, axis=1) + S[t, :a]
    log_z = _logsumexp(alpha[comp.lengths[comp.order] - 1, np.arange(B)], axis=1)
    pair_expect = np.zeros((m, m))
    for t in range(T - 1, 0, -1):
        a = comp.active[t]
        ahead = trans + (S[t, :a] + beta[t, :a])[:, None, :]
        beta[t - 1, :a] = _logsumexp(ahead, axis=2)
        pair_expect += np.exp(
            alpha[t - 1, :a, :, None] + ahead - log_z[:a, None, None]
        ).sum(axis=0)
    start_expect = np.exp(alpha[0] + beta[0] - log_z[:, None]).sum(axis=0)
    # state marginals of every token, in token order
    node = np.exp(
        alpha.reshape(T * B, m)[comp.slot]
        + beta.reshape(T * B, m)[comp.slot]
        - log_z[comp.slot % B, None]
    )

    gold_onehot = np.zeros((E.shape[0], n_lab))
    gold_onehot[np.arange(E.shape[0]), comp.gold] = 1.0
    grad = np.zeros_like(weights)
    grad[: chain.offset] = (comp.X.T @ (node @ chain.to_label - gold_onehot)).ravel()
    gold_score = float(E[np.arange(E.shape[0]), comp.gold].sum())
    gold_score += float(weights[comp.gold_fids].sum())
    ll = gold_score - float(log_z.sum())
    np.subtract.at(grad, comp.gold_fids, 1.0)
    if chain.pair_fids.size:
        np.add.at(
            grad,
            chain.pair_fids,
            pair_expect[chain.pair_rows, chain.pair_cols],
        )
    for si, fids in enumerate(chain.start_fids):
        for fid in fids:
            grad[fid] += start_expect[si]
    lam = model.regularizer
    value = -(ll - lam * float(weights @ weights))
    grad += 2.0 * lam * weights
    if not np.isfinite(value):
        raise ValueError(
            f"objective diverged: value={value}, |w|={np.linalg.norm(weights):.3g}"
        )
    return value, grad


def build_model(
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
    config: FeatureConfig = FeatureConfig(),
    *,
    dictionaries: Iterable = (),
    embeddings: SentinelEmbeddings | None = None,
    regularizer: float = 1.0,
) -> CrfModel:
    """Zero-weight model with the feature index frozen from the data: the
    names _columns looks up, in order of first appearance in its row-major
    id matrix: the order in which extract_features, token after token, first
    gives them."""
    return _indexed(sentences, config, dictionaries, embeddings, regularizer)[0]


def _indexed(
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]], config: FeatureConfig,
    dictionaries: Iterable, embeddings: SentinelEmbeddings | None, regularizer: float = 1.0,
) -> tuple[CrfModel, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """build_model's model and its featurizer pass, ids renumbered: _compile's columns."""
    named = _named_dicts(dictionaries)
    names = _Ids()
    columns = _columns([t for t, _ in sentences], names.__getitem__, config, named, embeddings)
    ids, looked_up = columns[0], list(names)
    first, ids[ids >= 0] = _first_appearance(ids[ids >= 0])
    obs_names = [looked_up[i] for i in first.tolist()]
    trans_names = _trans_names(config)
    weights = np.zeros(len(obs_names) * len(LABELS) + len(trans_names))
    return CrfModel(
        config=config,
        obs_names=obs_names,
        trans_names=trans_names,
        weights=weights,
        regularizer=regularizer,
        dictionaries=named,
        embeddings=embeddings,
    ), columns


def _fit(
    model: CrfModel,
    chain: _Chain,
    compiled: _Compiled,
    init: np.ndarray | None,
    max_iters: int,
) -> CrfModel:
    """Quasi-Newton fit of the weights on a compiled training set; returns
    a new model carrying the solver status."""
    x0 = np.zeros_like(model.weights) if init is None else np.asarray(init, dtype=float)
    if x0.shape != model.weights.shape:
        raise ValueError("init shape mismatch")
    result = minimize(
        _neg_objective,
        x0,
        args=(model, chain, compiled),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-5, "maxiter": max_iters},
    )
    if not np.all(np.isfinite(result.x)) or not np.isfinite(result.fun):
        raise RuntimeError(
            f"training diverged: objective={result.fun}, message={result.message}"
        )
    solver = {
        "converged": bool(result.success),
        "nit": int(result.nit),
        "nfev": int(result.nfev),
        "message": str(result.message),
    }
    return replace(model, weights=result.x, solver=solver)


def train_crf(
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
    config: FeatureConfig = FeatureConfig(),
    *,
    dictionaries: Iterable = (),
    embeddings: SentinelEmbeddings | None = None,
    regularizer: float = 1.0,
    max_iters: int = 500,
) -> CrfModel:
    """The one-point :func:`train_crf_grid`."""
    (model,) = train_crf_grid(
        sentences, config, [regularizer],
        dictionaries=dictionaries, embeddings=embeddings, max_iters=max_iters,
    )
    return model


def train_crf_grid(
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
    config: FeatureConfig,
    regularizers: Iterable[float],
    *,
    dictionaries: Iterable = (),
    embeddings: SentinelEmbeddings | None = None,
    max_iters: int = 500,
) -> Iterator[CrfModel]:
    """Fit one model per regularizer, in turn, from zero weights, with the
    feature index built and the training set compiled once for all of them,
    from one featurizer pass.  Every model shares that index, so one
    :func:`compile_tagger` of a dev split decodes each of them."""
    if not sentences:
        raise ValueError("empty training set")
    model, columns = _indexed(sentences, config, dictionaries, embeddings)
    chain = _Chain(model)
    compiled = _compile(model, chain, sentences, True, columns)
    for lam in regularizers:
        yield _fit(replace(model, regularizer=lam), chain, compiled, None, max_iters)


def log_likelihood_and_gradient(
    model: CrfModel,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> tuple[float, np.ndarray]:
    """Regularized conditional log-likelihood of the gold tags and its
    exact gradient with respect to the weights."""
    chain = _Chain(model)
    compiled = _compile(model, chain, sentences, with_gold=True)
    value, grad = _neg_objective(model.weights, model, chain, compiled)
    return -value, -grad


def _viterbi(
    comp: _Compiled, estate: np.ndarray, start: np.ndarray, trans: np.ndarray
) -> np.ndarray:
    """Best state of every token, in token order; ties take the first
    state index."""
    S = comp.padded(estate)
    T, B, m = S.shape
    delta = np.empty_like(S)
    back = np.zeros((T, B, m), dtype=np.intp)
    delta[0] = start + S[0]
    for t in range(1, T):
        a = comp.active[t]
        cand = delta[t - 1, :a, :, None] + trans
        back[t, :a] = np.argmax(cand, axis=1)
        delta[t, :a] = cand.max(axis=1) + S[t, :a]
    best = np.empty((T, B), dtype=np.intp)
    cur = np.zeros(B, dtype=np.intp)
    for t in range(T - 1, -1, -1):
        a = comp.active[t]
        # columns [ending, a) hold the sentences whose last token is at t
        ending = comp.active[t + 1] if t + 1 < T else 0
        cur[ending:a] = np.argmax(delta[t, ending:a], axis=1)
        best[t, :a] = cur[:a]
        if t:
            cur[:a] = back[t, np.arange(a), cur[:a]]
    return best.reshape(-1)[comp.slot]


# sentences per batched decode, which bounds the back-pointer array
_DECODE_CHUNK = 1024


def compile_tagger(
    model: CrfModel, sentences: Iterable[Sequence[str]]
) -> Callable[[np.ndarray], list[list[str]]]:
    """Compile the sentences once for model's feature index, longest first
    in batches of _DECODE_CHUNK, and return their decoder: weights of that
    index (any fit of one :func:`train_crf_grid`) -> the exact argmax tag
    sequence of each sentence, in input order; ties prefer B over I over O."""
    sentences = list(sentences)
    chain = _Chain(model)
    state_tag = np.array(LABELS)[chain.state_label]
    todo = sorted(
        (i for i, tokens in enumerate(sentences) if len(tokens)),
        key=lambda i: -len(sentences[i]),
    )
    batches = [
        (ids, _compile(model, chain, [(sentences[i], None) for i in ids], False))
        for ids in (todo[lo : lo + _DECODE_CHUNK] for lo in range(0, len(todo), _DECODE_CHUNK))
    ]

    def decode(weights: np.ndarray) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in sentences]
        start, trans = chain.scores(weights)
        w_obs = weights[: chain.offset].reshape(chain.n_obs, len(LABELS))
        for ids, comp in batches:
            states = _viterbi(comp, (comp.X @ w_obs)[:, chain.state_label], start, trans)
            tags = state_tag[states].tolist()
            for i, end in zip(ids, np.cumsum(comp.lengths)):
                out[i] = tags[end - len(sentences[i]) : end]
        return out

    return decode


def tag_sentences(model: CrfModel, sentences: Iterable[Sequence[str]]) -> list[list[str]]:
    """:func:`compile_tagger`'s decoder of the sentences, run on the model's
    own weights."""
    return compile_tagger(model, sentences)(model.weights)


def viterbi_decode(model: CrfModel, tokens: Sequence[str]) -> list[str]:
    """Exact argmax tag sequence; ties prefer B over I over O."""
    return tag_sentences(model, [tokens])[0]


@dataclass(frozen=True)
class CurveVariant:
    """One feature configuration to trace across training sizes."""

    name: str
    config: FeatureConfig
    dictionaries: tuple = ()
    embeddings: SentinelEmbeddings | None = None


def standard_variants(
    config: FeatureConfig = FeatureConfig(),
    dictionaries: Iterable = (),
    word_embeddings: SentinelEmbeddings | None = None,
    phrase_embeddings: SentinelEmbeddings | None = None,
) -> list[CurveVariant]:
    """Baseline plus one variant per dictionary and per embedding table.

    Dictionary variants are named dict-<name>; the embedding variants are
    cca-word (single-word vectors) and cca-phrase (candidate phrase
    vectors)."""
    out = [CurveVariant("baseline", config)]
    for name, d in _named_dicts(dictionaries):
        out.append(CurveVariant(f"dict-{name}", replace(config, dict_match=True), ((name, d),)))
    for name, table in (("cca-word", word_embeddings), ("cca-phrase", phrase_embeddings)):
        if table is not None:
            out.append(CurveVariant(name, replace(config, embedding=True), (), table))
    return out


def learning_curve(
    train: Sequence[tuple[Sequence[str], Sequence[str]]],
    test: Sequence[tuple[Sequence[str], Sequence[str]]],
    sizes: Sequence[int],
    variants: Sequence[CurveVariant],
    *,
    regularizer: float = 0.1,
    max_iters: int = 500,
) -> list[dict]:
    """Train each variant at each training-set prefix size and score it on
    the held-out sentences; rows are plot-ready."""
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if sizes and sizes[0] < 1:
        raise ValueError(f"size {sizes[0]} is below 1")
    if sizes and sizes[-1] > len(train):
        raise ValueError(f"size {sizes[-1]} exceeds training set of {len(train)}")
    rows = []
    texts, gold = [tokens for tokens, _ in test], [tags for _, tags in test]
    for size in sizes:
        for variant in variants:
            model = train_crf(
                train[:size], variant.config, dictionaries=variant.dictionaries,
                embeddings=variant.embeddings, regularizer=regularizer, max_iters=max_iters,
            )
            report = evaluate(tag_sentences(model, texts), gold)
            rows.append({"size": size, "variant": variant.name, **report.as_dict()})
    return rows


def write_curve_tsv(rows: Sequence[dict], fh) -> None:
    fh.write("size\tvariant\ttp\tfp\tfn\tprecision\trecall\tf1\n")
    for row in rows:
        fh.write(
            f"{row['size']}\t{row['variant']}\t{row['tp']}\t{row['fp']}\t"
            f"{row['fn']}\t{row['precision']:.6f}\t{row['recall']:.6f}\t{row['f1']:.6f}\n"
        )
