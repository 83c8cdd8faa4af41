"""One-config orchestration of the dictionary workflow.

A run reads a declarative config (INI sections or the same structure as
JSON), executes the stages extract → views → cca → match → classify → embed |
cotrain → tag → crf in dependency order, and records a manifest once per
run, also when a stage fails.  Each ``_STAGES`` row
declares what its stage reads (config inputs and earlier artifacts, by name)
and which package modules its body calls.  A body reads only through its
row: it gets the row's resolved reads by name, shared with every later
stage.  A read the run itself wrote is the value its stage handed on, equal
to what its ``_READERS`` entry would read back; any other is loaded by that
entry once per run.  A rerun serves a stage from the manifest when the
content hashes of its reads, its parameters, its code (``pipeline.py`` plus
the import closure of its modules) and the numpy and scipy versions are
unchanged, so a moved output directory stays cached and a module edit
re-executes only the stages that import it.  An executed stage's record
also holds the Python version, the BLAS numpy reports and the BLAS thread
variables, recorded but outside the signature.  A run hashes each file
once.  Grid points are scored on the dev split, classify's and cotrain's as
masks over the table's phrases on the match stage's ``dev.matches.npz``,
which a seed edit leaves cached, and the winner is chosen by
``model_select``; only the winner is built as a dictionary, and everything a
later reader needs to reproduce the run lands next to the artifacts.  The
tag stage scores its dictionaries the same way, as masks over their phrases
on one ``PhraseMatches`` of the test split.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import platform
import re
import shutil
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy

from . import __version__
from .cca import (
    CcaModel,
    accumulate_covariance,
    embed_phrases,
    read_embeddings,
    solve_cca,
    write_embeddings,
)
from .classifier import (
    SeedSet,
    build_dictionary,
    rank_candidates,
    read_seeds,
    resolve_seeds,
    threshold_prefix,
    train_svm,
)
from .corpus import intern_corpus, open_text
from .cotrain import DecisionListState, dictionary_from_rules, dl_cotrain, rule_strengths
from .crf import (
    CrfModel,
    FeatureConfig,
    SentinelEmbeddings,
    compile_tagger,
    tag_sentences,
    train_crf_grid,
)
from .extraction import (
    extract_candidates,
    load_patterns,
    read_candidates,
    write_candidates,
)
from .tagging import (
    PhraseMatches,
    check_phrases,
    evaluate,
    read_conll,
    read_dictionary,
    write_dictionary,
)
from .views import OccurrenceTable, build_design_matrices, collect_occurrences
# not called here: perfbench/tracer.py's WRAPS wraps them under this module
from .corpus import iter_sentences  # noqa: F401
from .crf import train_crf  # noqa: F401
from .tagging import tag_with_dictionary  # noqa: F401
from .views import read_triplets, write_triplets  # noqa: F401

__all__ = [
    "PipelineConfig",
    "PipelineConfigError",
    "RunManifest",
    "StageError",
    "STAGES",
    "validate_config",
    "run_pipeline",
    "model_select",
    "select_crf",
]


class _Stage(NamedTuple):
    outputs: tuple[str, ...]  # artifacts it must leave in the output directory
    reads: tuple[str, ...]  # [inputs] keys and earlier artifacts, all its body reads (see _inputs)
    modules: tuple[str, ...]  # package modules its body calls (see _closure)
    section: str | None = None  # config section recorded as its manifest params
    needs: str | None = None  # optional [inputs] key it cannot run without


# in dependency order
_STAGES = {
    "extract": _Stage(("candidates.tsv",), ("corpus", "patterns"), ("corpus", "extraction")),
    "views": _Stage(("views.table.npz",), ("corpus", "candidates.tsv"),
                    ("corpus", "extraction", "views")),
    "cca": _Stage(("cca.model.npz",), ("views.table.npz",), ("views", "cca"), "cca"),
    # served from cache on a seed edit: neither of its reads moves with the seeds
    "match": _Stage(("dev.matches.npz",), ("dev", "views.table.npz"), ("views", "tagging"),
                    needs="dev"),
    "classify": _Stage(("dict.cca.tsv", "svm.json"),
                       ("seeds", "dev.matches.npz if dev", "cca.model.npz", "views.table.npz"),
                       ("views", "cca", "classifier", "tagging"), "svm"),
    # served from cache while the selection it reads from svm.json stays put
    "embed": _Stage(("embeddings.tsv",), ("svm.json", "cca.model.npz", "views.table.npz"),
                    ("views", "cca", "tagging")),
    "cotrain": _Stage(("dict.cotrain.tsv", "cotrain.json"),
                      ("views.table.npz", "seeds", "dev.matches.npz if dev"),
                      ("views", "classifier", "cotrain", "tagging"), "cotrain"),
    "tag": _Stage(("report.json",), ("test", "dict.cca.tsv?", "dict.cotrain.tsv?"),
                  ("tagging",), needs="test"),
    "crf": _Stage(("crf.model.npz", "crf.json"), ("train", "dev", "test",
                  "dict.cca.tsv if dict_match", "embeddings.tsv if embedding"),
                  ("crf", "cca", "tagging"), "crf", needs="train"),
}
STAGES = tuple(_STAGES)

# read name -> its loader; each looks its reader up here when called, so a patch applies
_READERS: dict[str, Callable[[Path], object]] = {
    "corpus": lambda path: intern_corpus(path),
    "patterns": lambda path: load_patterns(path),
    "seeds": lambda path: read_seeds(path),
    **dict.fromkeys(("train", "dev", "test"), lambda path: read_conll(path, strict=True)),
    "candidates.tsv": lambda path: read_candidates(path),
    "views.table.npz": lambda path: OccurrenceTable.load(path),
    "cca.model.npz": lambda path: CcaModel.load(path),
    "dev.matches.npz": lambda path: PhraseMatches.load(path),
    **dict.fromkeys(("dict.cca.tsv", "dict.cotrain.tsv"), lambda path: read_dictionary(path)),
    "embeddings.tsv": lambda path: SentinelEmbeddings(read_embeddings(path)),
    "svm.json": lambda path: _read_svm(path),
}


def _read_svm(path: Path) -> dict:
    """The classify stage's record; JSON that is not an object with a
    positive integer ``k`` raises ``ValueError`` naming the file."""
    with open_text(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not (isinstance(record, dict) and type(record.get("k")) is int and record["k"] > 0):
        raise ValueError(f"{path}: not an object with a positive integer k")
    return record


class PipelineConfigError(ValueError):
    """Carries one message per offending field."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("invalid pipeline config:\n  " + "\n  ".join(self.errors))


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed, defaulted, range-checked run description.

    ``train``/``dev``/``test`` are optional labeled CoNLL files; stages
    that need a missing one are skipped (or fail if explicitly
    requested).  Relative paths resolve against the config file's
    directory.
    """

    corpus: Path
    patterns: Path
    seeds: Path
    outdir: Path
    train: Path | None = None
    dev: Path | None = None
    test: Path | None = None
    # cca stage; kappa None means the per-view trace-scaled default
    cca_k: int = 30
    cca_kappa: float | None = 1e-4
    cca_seed: int = 0
    # classify grid; embedding dimensions are prefixes of one cca solve
    svm_c_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
    svm_k_grid: tuple[int, ...] = (10, 20, 30)
    svm_threshold_grid: tuple[float, ...] = (0.0,)
    # cotrain stage
    cotrain_m: int = 5
    cotrain_epsilon: float = 0.95
    cotrain_theta_grid: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    # crf stage
    crf_features: str = "baseline,dict"
    crf_lambda_grid: tuple[float, ...] = (1e-4, 1e-2, 1.0)
    crf_max_iters: int = 200


def _grid(conv: type) -> Callable[[str], tuple]:
    """Parser of a space- or comma-separated list of ``conv`` values."""

    def parse(text: str) -> tuple:
        values = tuple(conv(v) for v in text.replace(",", " ").split())
        if not values:
            raise ValueError("grid is empty")
        return values

    return parse


def _kappa(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else float(text)


def _features(text: str) -> str:
    FeatureConfig.from_flags(text)
    return text


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEG = (lambda v: v >= 0, "must be >= 0")
_FILE = (Path.is_file, "file not found")

# [section] key -> (parser, per-value check).  The parsed value sets the
# PipelineConfig field that ``_field`` names, and only that field holds a
# default.  Grid parsers return tuples, checked value by value.
_KEYS = {
    "inputs": dict.fromkeys(("corpus", "patterns", "seeds", "train", "dev", "test"), (Path, _FILE)),
    "output": {"dir": (Path, None)},
    "cca": {
        "k": (int, _POSITIVE),
        "kappa": (_kappa, _POSITIVE),
        "seed": (int, _NONNEG),
    },
    "svm": {
        "c_grid": (_grid(float), _POSITIVE),
        "k_grid": (_grid(int), _POSITIVE),
        "threshold_grid": (_grid(float), _NONNEG),
    },
    "cotrain": {
        "m": (int, _POSITIVE),
        "epsilon": (float, (lambda v: 0 < v < 1, "must be in (0, 1)")),
        "theta_grid": (_grid(float), (lambda v: 0 < v <= 1, "must be in (0, 1]")),
    },
    "crf": {
        "features": (_features, None),
        "lambda_grid": (_grid(float), _POSITIVE),
        "max_iters": (int, _POSITIVE),
    },
}


def _field(section: str, key: str) -> str:
    """The PipelineConfig field that ``[section] key`` sets."""
    return {"inputs": key, "output": "outdir"}.get(section, f"{section}_{key}")


def _violation(value, check: tuple | None) -> str | None:
    """Why one parsed value fails its key's check; None when it passes.
    ``None`` (``kappa = auto``) and unchecked keys always pass."""
    if value is None or check is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    ok, need = check
    return None if ok(value) else need


def _raw_sections(path: Path) -> dict[str, dict[str, str]]:
    """{section: {key: raw text}}, lowercased, from INI or JSON."""
    try:
        with open_text(path) as fh:
            text = fh.read()
    except ValueError as exc:
        raise PipelineConfigError([str(exc)]) from None
    try:
        if path.suffix != ".json" and text.lstrip()[:1] != "{":
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read_string(text)
            return {
                sec.lower(): {k.lower(): v for k, v in parser[sec].items()}
                for sec in parser.sections()
            }
        data = json.loads(text)
    except (configparser.Error, json.JSONDecodeError) as exc:
        raise PipelineConfigError([f"unparseable config: {exc}"]) from exc
    if not isinstance(data, dict):
        raise PipelineConfigError([f"config: top level is {type(data).__name__}, not an object"])
    errors = [f"{sec}: section is {type(body).__name__}, not an object"
              for sec, body in data.items() if not isinstance(body, dict)]
    if errors:
        raise PipelineConfigError(errors)
    return {
        sec.lower(): {
            k.lower(): " ".join(map(str, v)) if isinstance(v, list) else str(v)
            for k, v in body.items()
        }
        for sec, body in data.items()
    }


def validate_config(path: str | Path) -> PipelineConfig:
    """Parse and check a config file, collecting every field error."""
    path = Path(path)
    if not path.is_file():
        raise PipelineConfigError([f"config file not found: {path}"])
    sections = _raw_sections(path)

    errors: list[str] = []
    values: dict[str, object] = {}
    required = {f.name for f in fields(PipelineConfig) if f.default is MISSING}
    for sec, keys in _KEYS.items():
        for key, (parse, check) in keys.items():
            raw = sections.get(sec, {}).get(key)
            if raw is None:
                if _field(sec, key) in required:
                    errors.append(f"{sec}.{key}: required")
                continue
            try:
                value = parse(raw)
            except ValueError as exc:
                errors.append(f"{sec}.{key}: {exc}")
                continue
            if isinstance(value, Path) and not value.is_absolute():
                value = path.parent / value
            for v in value if isinstance(value, tuple) else (value,):
                if (why := _violation(v, check)) is not None:
                    errors.append(f"{sec}.{key}: {why} (got {v})")
                    break
            else:
                values[_field(sec, key)] = value
    for sec, body in sections.items():
        if sec not in _KEYS:
            errors.append(f"{sec}: unknown section")
            continue
        errors += [f"{sec}.{key}: unknown key" for key in body if key not in _KEYS[sec]]
    if errors:
        raise PipelineConfigError(errors)

    config = PipelineConfig(**values)
    if max(config.svm_k_grid) > config.cca_k:
        raise PipelineConfigError(
            [f"svm.k_grid: max entry {max(config.svm_k_grid)} exceeds cca.k = {config.cca_k}"]
        )
    return config


def model_select(reports: Iterable[Mapping]) -> dict:
    """Max dev F1; ties prefer smaller k, then smaller C/lambda, then
    smaller threshold/theta, then earliest report."""
    return _selection(reports)[0]


def _selection(reports: Iterable[Mapping]) -> tuple[dict, dict | None]:
    """``model_select``'s choice and the runner-up, the next report in its
    order (None for a one-point grid), so a reader can see the margin."""
    rows = [dict(r) for r in reports]
    if not rows:
        raise ValueError("no grid points were evaluated")
    def key(row):
        return (
            -row["f1"],
            row.get("k", 0),
            row.get("C", row.get("lambda", 0.0)),
            row.get("threshold", row.get("theta", 0.0)),
        )
    ranked = sorted(rows, key=key)
    return ranked[0], ranked[1] if len(ranked) > 1 else None


def select_crf(
    train: Sequence[tuple[list[str], list[str]]],
    features: FeatureConfig,
    lambdas: Iterable[float],
    dev: Sequence[tuple[list[str], list[str]]] | None,
    max_iters: int,
    dictionaries: tuple = (),
    embeddings: SentinelEmbeddings | None = None,
) -> tuple[CrfModel, dict, list[dict]]:
    """Train one CRF per lambda and keep the one ``model_select`` picks by
    dev F1 (0.0 without dev).  Returns (model, chosen row, every row); a
    row is the lambda, its F1 and the fit's L-BFGS status.  The fits share
    one feature index, so dev is compiled once and decoded per lambda."""
    models, reports, decode = {}, [], None
    for model in train_crf_grid(
        train, features, lambdas, dictionaries=dictionaries, embeddings=embeddings,
        max_iters=max_iters,
    ):
        lam = model.regularizer
        f1 = 0.0
        if dev is not None:
            decode = decode or compile_tagger(model, [toks for toks, _ in dev])
            f1 = evaluate(decode(model.weights), [tags for _, tags in dev]).f1
        models[lam] = model
        reports.append({"lambda": lam, "f1": f1, **model.solver})
    chosen = model_select(reports)
    return models[chosen["lambda"]], chosen, reports


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Digests(dict):
    """Path -> content hash, each file hashed once per run (outputs as moved in)."""

    def __missing__(self, path: Path) -> str:
        self[path] = digest = _sha256(path)
        return digest


# the thread counts of OpenMP, OpenBLAS and MKL, recorded with each stage
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _sources() -> dict[str, bytes]:
    """The package's modules by name, as their files hold them."""
    return {p.stem: p.read_bytes() for p in Path(__file__).parent.glob("*.py")}


def _imports(sources: Mapping[str, bytes]) -> dict[str, list[str]]:
    """Each module's ``from .x import`` targets, where only spaces or tabs
    precede the statement on its line.  The literal is searched for first
    and its line prefix tested after, which is cheaper than a multiline
    regex anchored at every line start."""
    pattern = re.compile(r"from \.(\w+) import")
    targets = {}
    for name, source in sources.items():
        text = source.decode()
        targets[name] = [
            m[1]
            for m in pattern.finditer(text)
            if not text[text.rfind("\n", 0, m.start()) + 1 : m.start()].strip(" \t")
        ]
    return targets


def _closure(modules: Iterable[str], imports: Mapping[str, list[str]]) -> list[str]:
    """``modules`` and all they import, transitively."""
    seen, todo = set(), list(modules)
    while todo:
        if (name := todo.pop()) not in seen:
            seen.add(name)
            todo += imports[name]
    return sorted(seen)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@dataclass
class RunManifest:
    """What a run did: hashes in, hashes out, timings, selections."""

    version: str
    config_hash: str
    stages: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        # a write cut short leaves the previous manifest in place
        tmp = path.with_name(path.name + ".tmp")
        # the fields as they are: ``asdict`` would deep-copy every stage record
        data = {"version": self.version, "config_hash": self.config_hash, "stages": self.stages}
        tmp.write_text(_json_text(data), encoding="utf-8")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        """A saved manifest; ``ValueError`` if the file does not hold one."""
        data = json.loads(path.read_text(encoding="utf-8"))
        if not (
            isinstance(data, dict)
            and data.keys() == {f.name for f in fields(cls)}
            and isinstance(data["stages"], dict)
            and all(isinstance(record, dict) for record in data["stages"].values())
        ):
            raise ValueError("not an object with the manifest fields")
        return cls(**data)


class _Reads(dict):
    """A stage's resolved reads (see ``_inputs``) by name, each loaded by its
    ``_READERS`` entry once per run into ``loaded`` and shared read-only with
    every stage that reads it; any other name raises ``StageError``.  A read
    some stage of the run wrote is not loaded: that stage handed its value
    on (``hand``)."""

    def __init__(self, stage: str, paths: Mapping[str, Path], loaded: dict):
        for name, path in paths.items():
            if name not in loaded:
                loaded[name] = _READERS[name](path)
        super().__init__({name: loaded[name] for name in paths})
        self.stage, self.loaded = stage, loaded

    def __missing__(self, name: str):
        raise StageError(self.stage, f"undeclared read {name!r}")

    def hand(self, name: str, value) -> None:
        """Give the later stages of the run ``value`` as the artifact ``name``
        this stage writes; it must equal what ``_READERS[name]`` reads back
        from the written file, types and dtypes included."""
        if name not in _STAGES[self.stage].outputs:
            raise StageError(self.stage, f"hands on {name!r}, which it does not write")
        self.loaded[name] = value

    def dev(self, points: int, name: str = "dev"):
        """The dev split, or the read ``name`` made from it; None without
        dev, which only a one-point grid allows."""
        if points > 1 and name not in self:
            raise StageError(self.stage, "grid has several points but inputs.dev is not set")
        return self.get(name)

    def dev_f1(self, points: int) -> Callable[[np.ndarray], float]:
        """Dev F1 (0.0 without dev) of a dictionary drawn from the table's
        phrases (classify ranks exactly these, cotrain's rules name some of
        them), given as a mask over them and scored on the match stage's
        ``dev.matches.npz``."""
        if (matches := self.dev(points, "dev.matches.npz")) is None:
            return lambda mask: 0.0
        return lambda mask: matches.score(mask).f1


# -- stage bodies, run_pipeline's _stage_<name>: write artifacts into tmp
# from the stage's reads, return manifest details


def _stage_extract(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    patterns = reads["patterns"]
    cands = extract_candidates(reads["corpus"], patterns)
    with open(tmp / "candidates.tsv", "w", encoding="utf-8") as fh:
        write_candidates(cands, fh)
    reads.hand("candidates.tsv", cands)
    return {"candidates": len(cands), "patterns": len(patterns)}


def _stage_views(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    occurrences = collect_occurrences(reads["corpus"], reads["candidates.tsv"])
    table = build_design_matrices(occurrences).table
    table.save(tmp / "views.table.npz")
    reads.hand("views.table.npz", table)
    return {
        "occurrences": table.n,
        "d_spelling": len(table.phrases) + 1,
        "d_context": len(table.contexts),
    }


def _stage_cca(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    X, Z = reads["views.table.npz"].design_matrices()
    summary = accumulate_covariance(X, Z)
    model = solve_cca(summary, k=cfg.cca_k, kappa=cfg.cca_kappa, seed=cfg.cca_seed)
    model.save(tmp / "cca.model.npz")
    # the solver report is not saved, so it is not handed on
    reads.hand("cca.model.npz", replace(model, solver=None))
    return {
        "k": model.k,
        "kappa": list(model.kappa),
        "top_singular_values": [round(float(s), 6) for s in model.singular_values[:5]],
        **model.solver,
    }


def _stage_match(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    matches = PhraseMatches.find(reads["dev"], reads["views.table.npz"].phrases)
    matches.save(tmp / "dev.matches.npz")
    reads.hand("dev.matches.npz", matches)
    return {"occurrences": len(matches.phrase), "hits": int(matches.hit.sum()),
            "gold": matches.gold}


def _svm_grid(
    cfg: PipelineConfig,
    names: Sequence[str],
    table_ids: np.ndarray,
    E: np.ndarray,
    seeds: SeedSet,
    dev_f1: Callable[[np.ndarray], float],
) -> tuple[list[dict], list[dict], dict]:
    """The classify grid: the fit report and the SVM of each (k, C), and
    each point's report.  Row r of ``E`` embeds ``names[r]``, the table's
    phrase ``table_ids[r]``.

    One fit and one ranking per (k, C) on the column prefix E[:, :k]; each
    threshold keeps a prefix of the ranking, scored by ``dev_f1`` as a mask
    over the table's phrases.
    """
    row_of = {p: i for i, p in enumerate(names)}
    lowest = min(cfg.svm_threshold_grid)
    fits, reports, fitted = [], [], {}
    for k in cfg.svm_k_grid:
        seed_rows = {p: E[row_of[p], :k] for p in (*seeds.positives, *seeds.negatives)}
        for C in cfg.svm_c_grid:
            svm = fitted[k, C] = train_svm(seed_rows, seeds, C=C)
            order, scores = rank_candidates(names, E[:, :k], svm, threshold=lowest)
            ranked = table_ids[order]
            fits.append({"k": k, "C": C, **svm.solver})
            for thr in cfg.svm_threshold_grid:
                mask = np.zeros(len(table_ids), dtype=bool)
                mask[ranked[: threshold_prefix(scores, thr)]] = True
                reports.append({"k": k, "C": C, "threshold": thr, "f1": dev_f1(mask)})
    return fits, reports, fitted


def _theta_grid(
    state: DecisionListState,
    phrases: Sequence[str],
    thetas: Iterable[float],
    dev_f1: Callable[[np.ndarray], float],
) -> list[dict]:
    """Each theta's report, its dictionary scored by ``dev_f1`` as a mask
    over ``phrases``, the table's."""
    strengths = rule_strengths(state, phrases)
    return [{"theta": theta, "f1": dev_f1(strengths >= theta)} for theta in thetas]


def _embedded(reads: _Reads) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The phrases of the occurrence table (the candidates that occur) in
    ascending order, their table ids, and E, their row-aligned embeddings: a
    phrase's embedding is its spelling row (identity, caps bit) times phi1."""
    table = reads["views.table.npz"]
    ids = table.ascending
    names = [table.phrases[i] for i in ids.tolist()]
    return names, ids, embed_phrases(reads["cca.model.npz"], table.spelling_rows(ids))


def _stage_classify(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    names, table_ids, E = _embedded(reads)
    seeds = reads["seeds"]
    if missing := resolve_seeds(seeds, set(names))[2]:
        raise StageError("classify", "seeds with no occurrence in views.table.npz: "
                         + ", ".join(sorted(missing)))
    points = len(cfg.svm_k_grid) * len(cfg.svm_c_grid) * len(cfg.svm_threshold_grid)
    fits, reports, fitted = _svm_grid(cfg, names, table_ids, E, seeds, reads.dev_f1(points))
    chosen, runner_up = _selection(reports)
    # only the chosen point becomes a dictionary
    k, C, thr = chosen["k"], chosen["C"], chosen["threshold"]
    svm = fitted[k, C]
    dictionary = build_dictionary(names, E[:, :k], svm, threshold=thr)
    with open(tmp / "dict.cca.tsv", "w", encoding="utf-8") as fh:
        write_dictionary(dictionary, fh)
    record = {
        "weights": [float(w) for w in svm.weights],
        "bias": float(svm.bias),
        "C": C,
        "k": k,
        "threshold": thr,
        "dev_f1": chosen["f1"],
        "solver": svm.solver,
    }
    (tmp / "svm.json").write_text(_json_text(record), encoding="utf-8")
    reads.hand("dict.cca.tsv", dictionary)
    reads.hand("svm.json", record)
    return {
        "selection": chosen,
        "runner_up": runner_up,
        "grid_points": points,
        "fits": fits,
        "dictionary_size": len(dictionary),
    }


def _stage_embed(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    names, _, E = _embedded(reads)
    # checked here, as embeddings.tsv writes every one of them out; the
    # dictionaries check only their own
    check_phrases(names, "candidate")
    k = reads["svm.json"]["k"]
    with open(tmp / "embeddings.tsv", "w", encoding="utf-8") as fh:
        write_embeddings(names, E[:, :k], fh)
    return {"phrases": len(names), "k": k}


def _stage_cotrain(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    dev_f1 = reads.dev_f1(len(cfg.cotrain_theta_grid))
    table, seeds = reads["views.table.npz"], reads["seeds"]
    state = dl_cotrain(table, seeds, m=cfg.cotrain_m, epsilon=cfg.cotrain_epsilon)
    reports = _theta_grid(state, table.phrases, cfg.cotrain_theta_grid, dev_f1)
    chosen, runner_up = _selection(reports)
    # only the chosen theta becomes a dictionary
    dictionary = dictionary_from_rules(state, theta=chosen["theta"])
    with open(tmp / "dict.cotrain.tsv", "w", encoding="utf-8") as fh:
        write_dictionary(dictionary, fh)
    record = {
        "iterations": len(state.trace),
        "spelling_rules": len(state.spelling_rules),
        "context_rules": len(state.context_rules),
        "selection": chosen,
    }
    (tmp / "cotrain.json").write_text(_json_text(record), encoding="utf-8")
    reads.hand("dict.cotrain.tsv", dictionary)
    return {"selection": chosen, "runner_up": runner_up, "dictionary_size": len(dictionary)}


def _stage_tag(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    dictionaries = {read.split(".")[1]: reads[read] for read in reads if read != "test"}
    if not dictionaries:
        raise StageError("tag", "no dictionary artifacts to evaluate")
    # every phrase either dictionary holds, matched once; each dictionary is
    # the mask of its own phrases over them
    phrases = dict.fromkeys(p for d in dictionaries.values() for p in d.scores)
    matches = PhraseMatches.find(reads["test"], phrases)
    results = {
        name: matches.score(np.fromiter(map(d.scores.__contains__, phrases), bool)).as_dict()
        for name, d in dictionaries.items()
    }
    (tmp / "report.json").write_text(_json_text(results), encoding="utf-8")
    return {"evaluated": sorted(results)}


def _stage_crf(cfg: PipelineConfig, tmp: Path, reads: _Reads) -> dict:
    dictionaries = (reads["dict.cca.tsv"],) if "dict.cca.tsv" in reads else ()
    model, chosen, reports = select_crf(
        reads["train"], FeatureConfig.from_flags(cfg.crf_features), cfg.crf_lambda_grid,
        reads.dev(len(cfg.crf_lambda_grid)), cfg.crf_max_iters,
        dictionaries, reads.get("embeddings.tsv"),
    )
    details = {"selection": chosen, "grid": reports, "features": cfg.crf_features}
    if (test := reads.get("test")) is not None:
        pred = tag_sentences(model, [toks for toks, _ in test])
        details["test"] = evaluate(pred, [tags for _, tags in test]).as_dict()
    model.save(tmp / "crf.model.npz")
    (tmp / "crf.json").write_text(_json_text(details), encoding="utf-8")
    return details


def _inputs(config: PipelineConfig, stage: str) -> dict[str, Path]:
    """The files a stage reads, by the names its row reads (and the manifest
    hashes) them under, so a moved output directory keeps its cache.  An unset
    [inputs] key is not read, ``name?`` only if the artifact exists, and
    ``name if key`` only when ``key`` is a set [inputs] key, or a
    FeatureConfig flag that crf.features sets."""
    # each key's truth: an [inputs] key's is whether it is set
    truth = {
        **asdict(FeatureConfig.from_flags(config.crf_features)),
        **{key: getattr(config, key) is not None for key in _KEYS["inputs"]},
    }
    paths = {}
    for read in _STAGES[stage].reads:
        read, _, key = read.partition(" if ")
        name = read.rstrip("?")
        path = getattr(config, name) if name in _KEYS["inputs"] else config.outdir / name
        if path is None or (key and not truth[key]) or (name != read and not path.is_file()):
            continue
        if not path.is_file():
            raise StageError(stage, f"missing input: {path}")
        paths[name] = path
    return paths


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] | None = None,
    jobs: int = 1,
    log: Callable[[str], None] = lambda s: None,
) -> RunManifest:
    """Execute the requested stages (default: every applicable one).

    A stage whose input hashes, parameters, code and recorded outputs
    all match the previous manifest is skipped; an unreadable manifest is
    logged and counts as none.  Grid points run serially: ``jobs`` must be
    1.  A failing stage moves its partial outputs to ``<outdir>/quarantine/``
    and aborts the run.  The manifest is written once, when the run ends or
    fails; a killed run leaves the previous one whole.
    """
    if jobs != 1:
        raise ValueError(f"grid points run serially; jobs must be 1, got {jobs}")
    unknown = [s for s in (stages or ()) if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {', '.join(unknown)}")
    requested = [s for s in STAGES if stages is None or s in stages]

    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    previous = {}
    if manifest_path.is_file():
        try:
            previous = RunManifest.load(manifest_path).stages
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
            log(f"{manifest_path}: unreadable manifest, every stage runs ({exc})")
    config_blob = _json_text(
        {
            f.name: (str(v) if isinstance(v := getattr(config, f.name), Path) else v)
            for f in fields(config)
        }
    )
    manifest = RunManifest(
        version=__version__,
        config_hash=hashlib.sha256(config_blob.encode()).hexdigest(),
        stages=dict(previous),
    )
    sources = _sources()
    imports = _imports(sources)
    # a numpy or scipy release may change the bytes a stage writes
    libraries = {"numpy": np.__version__, "scipy": scipy.__version__}
    # so may the BLAS and its thread count: recorded, not signed, as is the
    # Python version
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    environment = {
        "python": platform.python_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
    digests = _Digests()
    loaded: dict = {}  # read name -> its value, shared by the run's stages

    # saved once, also when a stage fails, so that the stages finished
    # before it are served from cache next time
    try:
        for stage in requested:
            needs = _STAGES[stage].needs
            if needs is not None and getattr(config, needs) is None:
                reason = f"inputs.{needs} is not set"
                if stages is not None:
                    raise StageError(stage, f"requested but not runnable: {reason}")
                manifest.stages[stage] = {"skipped": reason}
                log(f"{stage}: skipped ({reason})")
                continue

            paths = _inputs(config, stage)
            inputs = {name: digests[path] for name, path in paths.items()}
            section = _STAGES[stage].section
            params = {key: getattr(config, _field(section, key))
                      for key in _KEYS.get(section, ())}
            closure = ("__init__", "pipeline", *_closure(_STAGES[stage].modules, imports))
            code = hashlib.sha256(
                b"".join(m.encode() + sources[m] for m in closure)
            ).hexdigest()
            covered = {"inputs": inputs, "params": params, "code": code, "libraries": libraries}
            signature = hashlib.sha256(_json_text(covered).encode()).hexdigest()

            prev = previous.get(stage)
            if (
                prev
                and prev.get("signature") == signature
                and all(
                    (outdir / name).is_file() and digests[outdir / name] == digest
                    for name, digest in prev.get("outputs", {}).items()
                )
            ):
                manifest.stages[stage] = {**prev, "cached": True}
                log(f"{stage}: cached")
                continue

            tmp = outdir / f".{stage}.tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir()
            started = time.monotonic()
            try:
                details = globals()[f"_stage_{stage}"](config, tmp, _Reads(stage, paths, loaded))
                if missing := [n for n in _STAGES[stage].outputs if not (tmp / n).is_file()]:
                    raise StageError(stage, f"stage produced no {missing[0]}")
            except StageError:
                _quarantine(outdir, stage, tmp)
                raise
            except Exception as exc:
                _quarantine(outdir, stage, tmp)
                raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc
            elapsed = time.monotonic() - started

            outputs = {}
            for name in _STAGES[stage].outputs:
                shutil.move(str(tmp / name), str(outdir / name))
                outputs[name] = digests[outdir / name] = _sha256(outdir / name)
            shutil.rmtree(tmp)

            manifest.stages[stage] = {
                "signature": signature,
                **covered,
                "environment": environment,
                "outputs": outputs,
                "elapsed_s": round(elapsed, 3),
                "cached": False,
                "details": details,
            }
            log(f"{stage}: done in {elapsed:.1f}s")
    finally:
        manifest.save(manifest_path)
    return manifest


def _quarantine(outdir: Path, stage: str, tmp: Path) -> None:
    if not tmp.exists():
        return
    (outdir / "quarantine").mkdir(exist_ok=True)
    # mkdtemp makes a fresh directory, so a second failure keeps the first's
    tmp.replace(tempfile.mkdtemp(prefix=f"{stage}-{time.strftime('%Y%m%dT%H%M%S')}-",
                                 dir=outdir / "quarantine"))
