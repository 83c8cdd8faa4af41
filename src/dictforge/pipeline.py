"""One-config orchestration of the dictionary workflow.

A run reads a declarative config (INI sections or the same structure as
JSON), executes the stages extract → views → cca → classify | cotrain →
tag → crf in dependency order, and records a manifest with input/output
content hashes so stages with unchanged inputs, parameters and package
source are skipped on re-runs.  Only the extract and views stages read the
corpus; cca, classify and cotrain read the views artifacts (the design
matrices and the occurrence table in their row order).  Grid points are scored
on the dev split and the winner is chosen by ``model_select``; everything
a later reader needs to reproduce the run lands next to the artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .cca import (
    CcaModel,
    PhraseEmbedding,
    accumulate_covariance,
    embed_phrases,
    read_embeddings,
    solve_cca,
    write_embeddings,
)
from .classifier import (
    SeedSet,
    build_dictionary,
    read_seeds,
    resolve_seeds,
    train_svm,
)
from .corpus import iter_sentences
from .cotrain import dl_cotrain, dictionary_from_rules
from .crf import FeatureConfig, SentinelEmbeddings, tag_sentences, train_crf
from .extraction import (
    extract_candidates,
    load_patterns,
    read_candidates,
    write_candidates,
)
from .tagging import (
    Dictionary,
    evaluate,
    read_conll,
    read_dictionary,
    tag_with_dictionary,
    write_dictionary,
)
from .views import (SparseVector, build_design_matrices, collect_occurrences, read_occurrences,
                    read_triplets, write_occurrences, write_triplets)

__all__ = [
    "PipelineConfig",
    "PipelineConfigError",
    "RunManifest",
    "StageError",
    "STAGES",
    "validate_config",
    "run_pipeline",
    "model_select",
]

STAGES = ("extract", "views", "cca", "classify", "cotrain", "tag", "crf")

# artifacts each stage must leave behind in the output directory
_OUTPUTS = {
    "extract": ("candidates.tsv",),
    "views": ("views.X.npz", "views.Z.npz", "views.occurrences.tsv"),
    "cca": ("cca.model.npz",),
    "classify": ("dict.cca.tsv", "embeddings.tsv", "svm.json"),
    "cotrain": ("dict.cotrain.tsv", "cotrain.json"),
    "tag": ("report.json",),
    "crf": ("crf.model.npz", "crf.json"),
}

_PAPER_C_GRID = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)


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
    cca_oversample: int = 10
    cca_power_iters: int = 4
    # classify grid; embedding dimensions are prefixes of one cca solve
    svm_c_grid: tuple[float, ...] = _PAPER_C_GRID
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


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def _raw_sections(path: Path) -> dict[str, dict[str, str]]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json" or text.lstrip()[:1] == "{":
        data = json.loads(text)

        def flat(v):
            if isinstance(v, (list, tuple)):
                return " ".join(str(x) for x in v)
            return str(v)

        return {
            str(sec).lower(): {str(k).lower(): flat(v) for k, v in body.items()}
            for sec, body in data.items()
        }
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {
        sec.lower(): {k.lower(): v for k, v in parser[sec].items()}
        for sec in parser.sections()
    }


def validate_config(path: str | Path) -> PipelineConfig:
    """Parse and check a config file, collecting every field error."""
    path = Path(path)
    if not path.is_file():
        raise PipelineConfigError([f"config file not found: {path}"])
    try:
        sections = _raw_sections(path)
    except (configparser.Error, json.JSONDecodeError) as exc:
        raise PipelineConfigError([f"unparseable config: {exc}"]) from exc

    errors: list[str] = []
    base = path.parent

    def take(section: str, key: str, default: str | None = None) -> str | None:
        return sections.get(section, {}).get(key, default)

    def take_path(section: str, key: str, required: bool) -> Path | None:
        raw = take(section, key)
        if raw is None:
            if required:
                errors.append(f"{section}.{key}: required")
            return None
        p = Path(raw)
        if not p.is_absolute():
            p = base / p
        if key != "dir" and not p.is_file():
            errors.append(f"{section}.{key}: file not found: {p}")
            return None
        return p

    def take_num(section, key, default, conv, check, what):
        raw = take(section, key)
        if raw is None:
            return default
        try:
            val = conv(raw)
        except ValueError:
            errors.append(f"{section}.{key}: not {what}: {raw!r}")
            return default
        ok, msg = check(val)
        if not ok:
            errors.append(f"{section}.{key}: {msg} (got {raw})")
            return default
        return val

    positive = lambda v: (v > 0, "must be positive")
    nonneg = lambda v: (v >= 0, "must be >= 0")

    corpus = take_path("inputs", "corpus", required=True)
    patterns = take_path("inputs", "patterns", required=True)
    seeds = take_path("inputs", "seeds", required=True)
    train = take_path("inputs", "train", required=False)
    dev = take_path("inputs", "dev", required=False)
    test = take_path("inputs", "test", required=False)
    outdir_raw = take("output", "dir")
    if outdir_raw is None:
        errors.append("output.dir: required")
        outdir = Path(".")
    else:
        outdir = Path(outdir_raw)
        if not outdir.is_absolute():
            outdir = base / outdir

    cca_k = take_num("cca", "k", 30, int, positive, "an integer")
    kappa_raw = take("cca", "kappa", "1e-4")
    if kappa_raw.strip().lower() == "auto":
        cca_kappa: float | None = None
    else:
        cca_kappa = take_num("cca", "kappa", 1e-4, float, positive, "a number")
    cca_seed = take_num("cca", "seed", 0, int, nonneg, "an integer")
    cca_p = take_num("cca", "oversample", 10, int, positive, "an integer")
    cca_q = take_num("cca", "power_iters", 4, int, nonneg, "an integer")

    def take_grid(section, key, default, conv, check):
        raw = take(section, key)
        if raw is None:
            return default
        try:
            vals = conv(raw)
        except ValueError:
            errors.append(f"{section}.{key}: unparseable grid: {raw!r}")
            return default
        if not vals:
            errors.append(f"{section}.{key}: grid is empty")
            return default
        for v in vals:
            ok, msg = check(v)
            if not ok:
                errors.append(f"{section}.{key}: {msg} (got {v})")
                return default
        return vals

    c_grid = take_grid("svm", "c_grid", _PAPER_C_GRID, _parse_floats, positive)
    k_grid = take_grid("svm", "k_grid", (10, 20, 30), _parse_ints, positive)
    thr_grid = take_grid("svm", "threshold_grid", (0.0,), _parse_floats, nonneg)
    if not errors and max(k_grid) > cca_k:
        errors.append(
            f"svm.k_grid: max entry {max(k_grid)} exceeds cca.k = {cca_k}"
        )

    m = take_num("cotrain", "m", 5, int, positive, "an integer")
    epsilon = take_num(
        "cotrain", "epsilon", 0.95, float,
        lambda v: (0 < v < 1, "must be in (0, 1)"), "a number",
    )
    theta_grid = take_grid(
        "cotrain", "theta_grid", (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        _parse_floats, lambda v: (0 < v <= 1, "must be in (0, 1]"),
    )

    features = take("crf", "features", "baseline,dict")
    try:
        FeatureConfig.from_flags(features)
    except ValueError as exc:
        errors.append(f"crf.features: {exc}")
    lambda_grid = take_grid(
        "crf", "lambda_grid", (1e-4, 1e-2, 1.0), _parse_floats, positive
    )
    crf_iters = take_num("crf", "max_iters", 200, int, positive, "an integer")

    known = {
        "inputs": {"corpus", "patterns", "seeds", "train", "dev", "test"},
        "output": {"dir"},
        "cca": {"k", "kappa", "seed", "oversample", "power_iters"},
        "svm": {"c_grid", "k_grid", "threshold_grid"},
        "cotrain": {"m", "epsilon", "theta_grid"},
        "crf": {"features", "lambda_grid", "max_iters"},
    }
    for sec, body in sections.items():
        if sec not in known:
            errors.append(f"{sec}: unknown section")
            continue
        for key in body:
            if key not in known[sec]:
                errors.append(f"{sec}.{key}: unknown key")

    if errors:
        raise PipelineConfigError(errors)
    return PipelineConfig(
        corpus=corpus, patterns=patterns, seeds=seeds, outdir=outdir,
        train=train, dev=dev, test=test,
        cca_k=cca_k, cca_kappa=cca_kappa, cca_seed=cca_seed,
        cca_oversample=cca_p, cca_power_iters=cca_q,
        svm_c_grid=c_grid, svm_k_grid=k_grid, svm_threshold_grid=thr_grid,
        cotrain_m=m, cotrain_epsilon=epsilon, cotrain_theta_grid=theta_grid,
        crf_features=features, crf_lambda_grid=lambda_grid,
        crf_max_iters=crf_iters,
    )


def model_select(reports: Iterable[Mapping]) -> dict:
    """Max dev F1; ties prefer smaller k, then smaller C/lambda, then
    smaller threshold/theta, then earliest report."""
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
    return min(rows, key=key)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _code_digest() -> str:
    """Hash of the package's Python sources; a code edit invalidates every stage."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in files)).hexdigest()


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@dataclass
class RunManifest:
    """What a run did: hashes in, hashes out, timings, selections."""

    version: str
    config_hash: str
    stages: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        payload = {
            "version": self.version,
            "config_hash": self.config_hash,
            "stages": self.stages,
        }
        path.write_text(_json_text(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            version=data["version"],
            config_hash=data["config_hash"],
            stages=data["stages"],
        )


def _dev_f1(dictionary: Dictionary, dev: Sequence[tuple[list[str], list[str]]]) -> float:
    pred = [tag_with_dictionary(toks, dictionary) for toks, _ in dev]
    return evaluate(pred, [tags for _, tags in dev]).f1


class _Runner:
    """Holds one run's state: config, previous manifest, lazy inputs."""

    def __init__(self, config: PipelineConfig, jobs: int = 1):
        self.config = config
        self.jobs = max(1, jobs)
        self.outdir = config.outdir
        self._sentences = None

    # -- the corpus, tokenized once for extract and views ---------------

    def sentences(self):
        if self._sentences is None:
            self._sentences = list(iter_sentences(self.config.corpus))
        return self._sentences

    def dev_rows(self):
        return read_conll(self.config.dev, strict=True)

    # -- stage bodies: write artifacts into tmp, return manifest details

    def stage_extract(self, tmp: Path) -> dict:
        patterns = load_patterns(self.config.patterns)
        cands = extract_candidates(self.sentences(), patterns)
        cands = sorted(cands, key=lambda c: (-c.freq, c.lower))
        with open(tmp / "candidates.tsv", "w", encoding="utf-8") as fh:
            write_candidates(cands, fh)
        return {"candidates": len(cands), "patterns": len(patterns)}

    def stage_views(self, tmp: Path) -> dict:
        cands = read_candidates(self.outdir / "candidates.tsv")
        views = build_design_matrices(list(collect_occurrences(self.sentences(), cands)))
        with open(tmp / "views.X.npz", "wb") as fh:
            write_triplets(views.X, fh)
        with open(tmp / "views.Z.npz", "wb") as fh:
            write_triplets(views.Z, fh)
        with open(tmp / "views.occurrences.tsv", "w", encoding="utf-8") as fh:
            write_occurrences(views.occurrences, fh)
        return {
            "occurrences": views.n,
            "d_spelling": views.X.shape[1],
            "d_context": views.Z.shape[1],
        }

    def stage_cca(self, tmp: Path) -> dict:
        cfg = self.config
        X = read_triplets(self.outdir / "views.X.npz")
        Z = read_triplets(self.outdir / "views.Z.npz")
        summary = accumulate_covariance(X, Z)
        model = solve_cca(
            summary,
            k=cfg.cca_k,
            kappa=cfg.cca_kappa,
            oversample=cfg.cca_oversample,
            power_iters=cfg.cca_power_iters,
            seed=cfg.cca_seed,
        )
        model.save(tmp / "cca.model.npz")
        return {
            "k": model.k,
            "kappa": list(model.kappa),
            "top_singular_values": [round(float(s), 6) for s in model.singular_values[:5]],
        }

    def _candidate_embeddings(self, model: CcaModel) -> dict[str, np.ndarray]:
        """A phrase's spelling vector is the X row of its first occurrence."""
        X = read_triplets(self.outdir / "views.X.npz")
        first_row: dict[str, int] = {}
        for row, occ in enumerate(read_occurrences(self.outdir / "views.occurrences.tsv")):
            first_row.setdefault(occ.phrase_lower, row)
        vectors = {}
        for c in read_candidates(self.outdir / "candidates.tsv"):
            if c.lower not in first_row:
                raise StageError("classify", f"candidate {c.lower!r} has no occurrence row")
            span = slice(X.indptr[first_row[c.lower]], X.indptr[first_row[c.lower] + 1])
            vectors[c.lower] = SparseVector(tuple(zip(X.indices[span], X.data[span])))
        return {e.phrase: e.vector for e in embed_phrases(model, vectors)}

    def stage_classify(self, tmp: Path) -> dict:
        cfg = self.config
        model = CcaModel.load(self.outdir / "cca.model.npz")
        embeddings = self._candidate_embeddings(model)
        seeds = read_seeds(cfg.seeds)
        pos, neg, missing = resolve_seeds(seeds, embeddings)
        if missing:
            raise StageError(
                "classify",
                f"seeds missing from the candidate list: {', '.join(sorted(missing))}",
            )
        grid = [
            (k, C, thr)
            for k in cfg.svm_k_grid
            for C in cfg.svm_c_grid
            for thr in cfg.svm_threshold_grid
        ]
        if cfg.dev is None and len(grid) > 1:
            raise StageError(
                "classify", "grid has several points but inputs.dev is not set"
            )
        dev = self.dev_rows() if cfg.dev is not None else None

        def evaluate_point(point):
            k, C, thr = point
            sliced = {p: v[:k] for p, v in embeddings.items()}
            svm = train_svm(sliced, SeedSet.make(pos, neg), C=C)
            d = build_dictionary(sorted(sliced), sliced, svm, threshold=thr)
            f1 = _dev_f1(d, dev) if dev is not None else 0.0
            return {"k": k, "C": C, "threshold": thr, "f1": f1}

        if self.jobs > 1 and len(grid) > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                reports = list(pool.map(evaluate_point, grid))
        else:
            reports = [evaluate_point(p) for p in grid]
        chosen = model_select(reports)

        k, C, thr = chosen["k"], chosen["C"], chosen["threshold"]
        sliced = {p: v[:k] for p, v in embeddings.items()}
        svm = train_svm(sliced, SeedSet.make(pos, neg), C=C)
        dictionary = build_dictionary(sorted(sliced), sliced, svm, threshold=thr)
        with open(tmp / "dict.cca.tsv", "w", encoding="utf-8") as fh:
            write_dictionary(dictionary, fh)
        ranked = [PhraseEmbedding(p, sliced[p]) for p in sorted(sliced)]
        with open(tmp / "embeddings.tsv", "w", encoding="utf-8") as fh:
            write_embeddings(ranked, fh)
        (tmp / "svm.json").write_text(
            _json_text(
                {
                    "weights": [float(w) for w in svm.weights],
                    "bias": float(svm.bias),
                    "C": C,
                    "k": k,
                    "threshold": thr,
                    "dev_f1": chosen["f1"],
                }
            ),
            encoding="utf-8",
        )
        return {
            "selection": chosen,
            "grid_points": len(grid),
            "dictionary_size": len(dictionary),
        }

    def stage_cotrain(self, tmp: Path) -> dict:
        cfg = self.config
        seeds = read_seeds(cfg.seeds)
        state = dl_cotrain(
            read_occurrences(self.outdir / "views.occurrences.tsv"),
            seeds, m=cfg.cotrain_m, epsilon=cfg.cotrain_epsilon,
        )
        if cfg.dev is None and len(cfg.cotrain_theta_grid) > 1:
            raise StageError(
                "cotrain", "theta grid has several points but inputs.dev is not set"
            )
        dev = self.dev_rows() if cfg.dev is not None else None
        reports = []
        for theta in cfg.cotrain_theta_grid:
            d = dictionary_from_rules(state, theta=theta)
            f1 = _dev_f1(d, dev) if dev is not None else 0.0
            reports.append({"theta": theta, "f1": f1})
        chosen = model_select(reports)
        dictionary = dictionary_from_rules(state, theta=chosen["theta"])
        with open(tmp / "dict.cotrain.tsv", "w", encoding="utf-8") as fh:
            write_dictionary(dictionary, fh)
        (tmp / "cotrain.json").write_text(
            _json_text(
                {
                    "iterations": len(state.trace),
                    "spelling_rules": len(state.spelling_rules),
                    "context_rules": len(state.context_rules),
                    "selection": chosen,
                }
            ),
            encoding="utf-8",
        )
        return {"selection": chosen, "dictionary_size": len(dictionary)}

    def stage_tag(self, tmp: Path) -> dict:
        test = read_conll(self.config.test, strict=True)
        gold = [tags for _, tags in test]
        results = {}
        for name in ("cca", "cotrain"):
            path = self.outdir / f"dict.{name}.tsv"
            if not path.is_file():
                continue
            d = read_dictionary(path)
            pred = [tag_with_dictionary(toks, d) for toks, _ in test]
            results[name] = evaluate(pred, gold).as_dict()
        if not results:
            raise StageError("tag", "no dictionary artifacts to evaluate")
        (tmp / "report.json").write_text(_json_text(results), encoding="utf-8")
        return {"evaluated": sorted(results)}

    def stage_crf(self, tmp: Path) -> dict:
        cfg = self.config
        feats = FeatureConfig.from_flags(cfg.crf_features)
        train = read_conll(cfg.train, strict=True)
        dictionaries = []
        if feats.dict_match:
            dictionaries.append(read_dictionary(self.outdir / "dict.cca.tsv"))
        embeddings = None
        if feats.embedding:
            embeddings = SentinelEmbeddings(
                read_embeddings(self.outdir / "embeddings.tsv")
            )
        if cfg.dev is None and len(cfg.crf_lambda_grid) > 1:
            raise StageError(
                "crf", "lambda grid has several points but inputs.dev is not set"
            )
        dev = self.dev_rows() if cfg.dev is not None else None

        def evaluate_point(lam):
            model = train_crf(
                train,
                feats,
                dictionaries=tuple(dictionaries),
                embeddings=embeddings,
                regularizer=lam,
                max_iters=cfg.crf_max_iters,
            )
            f1 = 0.0
            if dev is not None:
                pred = tag_sentences(model, [toks for toks, _ in dev])
                f1 = evaluate(pred, [tags for _, tags in dev]).f1
            return model, {"lambda": lam, "f1": f1, **model.solver}

        if self.jobs > 1 and len(cfg.crf_lambda_grid) > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                pairs = list(pool.map(evaluate_point, cfg.crf_lambda_grid))
        else:
            pairs = [evaluate_point(lam) for lam in cfg.crf_lambda_grid]
        reports = [rep for _, rep in pairs]
        chosen = model_select(reports)
        model = next(m for m, rep in pairs if rep["lambda"] == chosen["lambda"])

        details = {"selection": chosen, "grid": reports, "features": cfg.crf_features}
        if cfg.test is not None:
            test = read_conll(cfg.test, strict=True)
            pred = tag_sentences(model, [toks for toks, _ in test])
            details["test"] = evaluate(pred, [tags for _, tags in test]).as_dict()
        model.save(tmp / "crf.model.npz")
        (tmp / "crf.json").write_text(_json_text(details), encoding="utf-8")
        return details


# stage -> (config inputs, artifact inputs from earlier stages)
def _stage_inputs(config: PipelineConfig, stage: str) -> list[Path]:
    out = config.outdir
    table = {
        "extract": [config.corpus, config.patterns],
        "views": [config.corpus, out / "candidates.tsv"],
        "cca": [out / "views.X.npz", out / "views.Z.npz"],
        "classify": [out / "candidates.tsv", config.seeds, out / "cca.model.npz",
                     out / "views.X.npz", out / "views.occurrences.tsv"],
        "cotrain": [out / "views.occurrences.tsv", config.seeds],
        "tag": [out / "dict.cca.tsv", out / "dict.cotrain.tsv", config.test],
        "crf": [config.train],
    }
    paths = list(table[stage])
    if stage in ("classify", "cotrain", "crf") and config.dev is not None:
        paths.append(config.dev)
    if stage == "crf":
        feats = FeatureConfig.from_flags(config.crf_features)
        if feats.dict_match:
            paths.append(config.outdir / "dict.cca.tsv")
        if feats.embedding:
            paths.append(config.outdir / "embeddings.tsv")
        if config.test is not None:
            paths.append(config.test)
    if stage == "tag":
        # either dictionary may be absent; hash whichever exists
        paths = [p for p in paths if p == config.test or p.is_file()]
    return paths


def _stage_params(config: PipelineConfig, stage: str) -> dict:
    if stage == "cca":
        return {
            "k": config.cca_k,
            "kappa": config.cca_kappa,
            "seed": config.cca_seed,
            "oversample": config.cca_oversample,
            "power_iters": config.cca_power_iters,
        }
    if stage == "classify":
        return {
            "c_grid": list(config.svm_c_grid),
            "k_grid": list(config.svm_k_grid),
            "threshold_grid": list(config.svm_threshold_grid),
        }
    if stage == "cotrain":
        return {
            "m": config.cotrain_m,
            "epsilon": config.cotrain_epsilon,
            "theta_grid": list(config.cotrain_theta_grid),
        }
    if stage == "crf":
        return {
            "features": config.crf_features,
            "lambda_grid": list(config.crf_lambda_grid),
            "max_iters": config.crf_max_iters,
        }
    return {}


def _applicable(config: PipelineConfig, stage: str) -> str | None:
    """None when the stage can run; otherwise the reason it cannot."""
    if stage == "tag" and config.test is None:
        return "inputs.test is not set"
    if stage == "crf" and config.train is None:
        return "inputs.train is not set"
    return None


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] | None = None,
    jobs: int = 1,
    log: Callable[[str], None] = lambda s: None,
) -> RunManifest:
    """Execute the requested stages (default: every applicable one).

    A stage whose input hashes, parameters, and recorded outputs all
    match the previous manifest is skipped.  A failing stage moves its
    partial outputs to ``<outdir>/quarantine/`` and aborts the run.
    """
    unknown = [s for s in (stages or ()) if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {', '.join(unknown)}")
    requested = [s for s in STAGES if stages is None or s in stages]

    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "manifest.json"
    previous = (
        RunManifest.load(manifest_path).stages if manifest_path.is_file() else {}
    )
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
    runner = _Runner(config, jobs=jobs)
    code = _code_digest()

    for stage in requested:
        reason = _applicable(config, stage)
        if reason is not None:
            if stages is not None:
                raise StageError(stage, f"requested but not runnable: {reason}")
            manifest.stages[stage] = {"skipped": reason}
            log(f"{stage}: skipped ({reason})")
            continue

        inputs = {}
        for p in _stage_inputs(config, stage):
            if p is None or not Path(p).is_file():
                raise StageError(stage, f"missing input: {p}")
            inputs[str(p)] = _sha256(Path(p))
        params = _stage_params(config, stage)
        signature = hashlib.sha256(
            _json_text({"inputs": inputs, "params": params, "code": code}).encode()
        ).hexdigest()

        prev = previous.get(stage)
        if (
            prev
            and prev.get("signature") == signature
            and all(
                (outdir / name).is_file() and _sha256(outdir / name) == digest
                for name, digest in prev.get("outputs", {}).items()
            )
        ):
            record = dict(prev)
            record["cached"] = True
            manifest.stages[stage] = record
            log(f"{stage}: cached")
            continue

        tmp = outdir / f".{stage}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        started = time.monotonic()
        try:
            details = getattr(runner, f"stage_{stage}")(tmp)
        except StageError:
            _quarantine(outdir, stage, tmp)
            raise
        except Exception as exc:
            _quarantine(outdir, stage, tmp)
            raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc
        elapsed = time.monotonic() - started

        outputs = {}
        for name in _OUTPUTS[stage]:
            src = tmp / name
            if not src.is_file():
                _quarantine(outdir, stage, tmp)
                raise StageError(stage, f"stage produced no {name}")
            shutil.move(str(src), str(outdir / name))
            outputs[name] = _sha256(outdir / name)
        shutil.rmtree(tmp)

        manifest.stages[stage] = {
            "signature": signature,
            "inputs": inputs,
            "params": params,
            "outputs": outputs,
            "elapsed_s": round(elapsed, 3),
            "cached": False,
            "details": details,
        }
        log(f"{stage}: done in {elapsed:.1f}s")
        manifest.save(manifest_path)

    manifest.save(manifest_path)
    return manifest


def _quarantine(outdir: Path, stage: str, tmp: Path) -> None:
    if not tmp.exists():
        return
    dest = outdir / "quarantine" / f"{stage}-{time.strftime('%Y%m%dT%H%M%S')}"
    dest.parent.mkdir(parents=True, exist_ok=True)
    if dest.exists():
        shutil.rmtree(dest)
    shutil.move(str(tmp), str(dest))
