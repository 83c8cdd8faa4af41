"""Config validation, model selection, and the cached stage runner."""

import ast
import collections
import dataclasses
import hashlib
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dictforge.cca import CcaModel, accumulate_covariance, embed_phrases
from dictforge.classifier import SeedSet, build_dictionary, read_seeds, train_svm
import dictforge.corpus
import dictforge.crf
import dictforge.pipeline
from dictforge.corpus import intern_corpus, iter_sentences
from dictforge.cotrain import dictionary_from_rules, dl_cotrain
from dictforge.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    RunManifest,
    STAGES,
    StageError,
    _KEYS,
    _STAGES,
    _READERS,
    _Reads,
    _closure,
    _field,
    _imports,
    _inputs,
    _json_text,
    _sha256,
    _sources,
    model_select,
    run_pipeline,
    validate_config,
)
from dictforge.synth import SynthSpec, generate
from dictforge.tagging import (
    Dictionary,
    dictionary_scorer,
    evaluate,
    read_conll,
    read_dictionary,
    tag_with_dictionary,
)
from dictforge.views import (
    CONTEXT_POSITIONS,
    OccurrenceTable,
    ViewMatrices,
    build_design_matrices,
    collect_occurrences,
)
from dictforge.extraction import CandidatePhrase, read_candidates
from oracles import string_tags


MINIMAL = """
[inputs]
corpus = {corpus}
patterns = {patterns}
seeds = {seeds}

[output]
dir = {out}
"""

FULL = """
[inputs]
corpus = data/corpus.txt
patterns = data/patterns.txt
seeds = data/seeds.txt
train = data/train.conll
dev = data/dev.conll
test = data/test.conll

[output]
dir = out

[cca]
k = 20

[svm]
c_grid = 0.1 1
k_grid = 10 20
threshold_grid = 0 0.2

[cotrain]
theta_grid = 0.5 0.9 1.0

[crf]
features = baseline,dict
lambda_grid = 0.05
max_iters = 30
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    sc = generate(
        SynthSpec(n_sentences=2500, n_entities=12, n_distractors=30, seed=7)
    )
    sc.write(root / "data")
    (root / "pipeline.cfg").write_text(FULL, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def finished_run(workdir):
    config = validate_config(workdir / "pipeline.cfg")
    manifest = run_pipeline(config)
    return workdir, config, manifest


def _edit_module(monkeypatch, module):
    """Make the run see a comment appended to ``module``'s source."""
    sources = _sources()
    edited = {**sources, module: sources[module] + b"\n# edited\n"}
    monkeypatch.setattr("dictforge.pipeline._sources", lambda: edited)


# the stage loading its reads or running its body, and (stage, path) of each
# file it opens for reading; an audit hook cannot be removed, so the one hook
# is installed on first use and records only while a stage runs
_BODY: list[str] = []
_OPENED: list[tuple[str, Path]] = []
_HOOKED: list = []


def _record_open(event, args):
    if event != "open" or not _BODY or not isinstance(args[0], (str, bytes, os.PathLike)):
        return
    path, mode, flags = args
    if mode is None:
        reading = flags & os.O_ACCMODE == os.O_RDONLY
    else:
        reading = not any(c in mode for c in "wax+")
    if reading:
        _OPENED.append((_BODY[-1], Path(os.fsdecode(path)).resolve()))


def _tracked(fn, stage=None):
    """``fn``, recording the files it opens under ``stage``, or under its
    second argument (``_Reads.__init__``'s stage) when none is given."""

    def run(*args):
        _BODY.append(stage or args[1])
        try:
            return fn(*args)
        finally:
            _BODY.pop()

    return run


def write_minimal(tmp_path, **overrides):
    data = tmp_path / "d"
    data.mkdir(exist_ok=True)
    names = {
        "corpus": data / "c.txt",
        "patterns": data / "p.txt",
        "seeds": data / "s.txt",
    }
    names["corpus"].write_text("a b c\n", encoding="utf-8")
    names["patterns"].write_text("after cases of\n", encoding="utf-8")
    names["seeds"].write_text("[positive]\nx\n[negative]\ny\n", encoding="utf-8")
    body = MINIMAL.format(
        corpus=names["corpus"], patterns=names["patterns"],
        seeds=names["seeds"], out=tmp_path / "out",
    )
    for section, lines in overrides.items():
        body += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return path


class TestValidateConfig:
    def test_minimal_gets_defaults(self, tmp_path):
        cfg = validate_config(write_minimal(tmp_path))
        assert cfg.cca_k == 30
        assert cfg.cca_kappa == 1e-4
        assert cfg.cotrain_m == 5
        assert cfg.cotrain_epsilon == 0.95
        assert cfg.svm_c_grid == (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
        assert cfg.svm_k_grid == (10, 20, 30)
        assert cfg.crf_features == "baseline,dict"
        assert cfg.train is None and cfg.dev is None and cfg.test is None

    def test_json_alternative(self, tmp_path):
        data = tmp_path / "d"
        data.mkdir()
        for name, text in (
            ("c.txt", "a\n"), ("p.txt", "after cases of\n"),
            ("s.txt", "[positive]\nx\n[negative]\ny\n"),
        ):
            (data / name).write_text(text, encoding="utf-8")
        blob = {
            "inputs": {"corpus": "d/c.txt", "patterns": "d/p.txt", "seeds": "d/s.txt"},
            "output": {"dir": "out"},
            "svm": {"c_grid": [0.5, 2], "k_grid": [5]},
            "cca": {"k": 8, "kappa": "auto"},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        cfg = validate_config(path)
        assert cfg.svm_c_grid == (0.5, 2.0)
        assert cfg.svm_k_grid == (5,)
        assert cfg.cca_k == 8
        assert cfg.cca_kappa is None
        assert cfg.corpus == data / "c.txt"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = write_minimal(tmp_path)
        cfg = validate_config(path)
        assert cfg.outdir == tmp_path / "out"
        assert cfg.corpus.is_absolute()

    def test_missing_seed_file_names_the_field(self, tmp_path):
        path = write_minimal(tmp_path)
        body = path.read_text(encoding="utf-8").replace("s.txt", "gone.txt")
        path.write_text(body, encoding="utf-8")
        with pytest.raises(PipelineConfigError, match="inputs.seeds"):
            validate_config(path)

    def test_epsilon_range_error(self, tmp_path):
        path = write_minimal(tmp_path, cotrain=["epsilon = 1.5"])
        with pytest.raises(PipelineConfigError, match="cotrain.epsilon"):
            validate_config(path)

    def test_empty_grid_rejected(self, tmp_path):
        path = write_minimal(tmp_path, svm=["c_grid = "])
        with pytest.raises(PipelineConfigError, match="svm.c_grid"):
            validate_config(path)

    def test_k_grid_capped_by_cca_k(self, tmp_path):
        path = write_minimal(tmp_path, cca=["k = 10"], svm=["k_grid = 10 20"])
        with pytest.raises(PipelineConfigError, match="k_grid"):
            validate_config(path)

    def test_unknown_key_reported(self, tmp_path):
        path = write_minimal(tmp_path, cca=["bogus = 3"])
        with pytest.raises(PipelineConfigError, match="cca.bogus"):
            validate_config(path)

    def test_bad_feature_flags(self, tmp_path):
        path = write_minimal(tmp_path, crf=["features = baseline,wat"])
        with pytest.raises(PipelineConfigError, match="crf.features"):
            validate_config(path)

    def test_errors_accumulate(self, tmp_path):
        path = write_minimal(
            tmp_path, cotrain=["epsilon = 2", "m = 0"], svm=["k_grid = -1"]
        )
        with pytest.raises(PipelineConfigError) as err:
            validate_config(path)
        assert len(err.value.errors) >= 3

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(PipelineConfigError, match="not found"):
            validate_config(tmp_path / "none.cfg")

    @pytest.mark.parametrize(
        "section, line, name",
        [
            ("cca", "kappa = inf", "cca.kappa"),
            ("cca", "kappa = nan", "cca.kappa"),
            ("svm", "c_grid = 0.1 inf", "svm.c_grid"),
            ("svm", "threshold_grid = 0 inf", "svm.threshold_grid"),
            ("cotrain", "theta_grid = nan", "cotrain.theta_grid"),
            ("crf", "lambda_grid = inf", "crf.lambda_grid"),
        ],
    )
    def test_nonfinite_numbers_rejected(self, tmp_path, section, line, name):
        path = write_minimal(tmp_path, **{section: [line]})
        with pytest.raises(PipelineConfigError, match=rf"{name}: must be finite"):
            validate_config(path)

    @pytest.mark.parametrize(
        "blob, name",
        [([1, 2], "top level is list"), ({"cca": 5}, "cca: section is int"),
         ({"output": {"dir": "out"}, "inputs": "x"}, "inputs: section is str")],
    )
    def test_non_object_json_rejected(self, tmp_path, blob, name):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(PipelineConfigError, match=name):
            validate_config(path)

    def test_every_field_set_by_exactly_one_key(self):
        reached = [_field(sec, key) for sec, keys in _KEYS.items() for key in keys]
        assert sorted(reached) == sorted(f.name for f in dataclasses.fields(PipelineConfig))

    def test_readme_key_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | accepts |\n", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"^\| `(\w+\.\w+)` \|", table, flags=re.M)
        assert listed == [f"{sec}.{key}" for sec, keys in _KEYS.items() for key in keys]

    def test_every_key_at_its_default_gives_the_defaults(self, tmp_path):
        path = write_minimal(
            tmp_path,
            cca=["k = 30", "kappa = 1e-4", "seed = 0"],
            svm=["c_grid = 1e-4 1e-3 1e-2 0.1 1 10 100", "k_grid = 10 20 30",
                 "threshold_grid = 0"],
            cotrain=["m = 5", "epsilon = 0.95", "theta_grid = 0.5 0.6 0.7 0.8 0.9 1"],
            crf=["features = baseline,dict", "lambda_grid = 1e-4 1e-2 1", "max_iters = 200"],
        )
        spelled = validate_config(path)
        for f in dataclasses.fields(PipelineConfig):
            if f.default is not dataclasses.MISSING:
                # the JSON text is what config_hash sees: 1 and 1.0 differ there
                assert json.dumps(getattr(spelled, f.name)) == json.dumps(f.default), f.name
        assert spelled == validate_config(write_minimal(tmp_path))


class TestModelSelect:
    def test_max_f1_wins(self):
        rows = [{"k": 10, "C": 1.0, "f1": 0.5}, {"k": 20, "C": 1.0, "f1": 0.8}]
        assert model_select(rows)["k"] == 20

    def test_tie_prefers_smaller_k(self):
        rows = [{"k": 20, "C": 1.0, "f1": 0.8}, {"k": 10, "C": 1.0, "f1": 0.8}]
        assert model_select(rows)["k"] == 10

    def test_tie_then_smaller_c(self):
        rows = [
            {"k": 10, "C": 10.0, "f1": 0.8},
            {"k": 10, "C": 0.1, "f1": 0.8},
            {"k": 10, "C": 1.0, "f1": 0.8},
        ]
        assert model_select(rows)["C"] == 0.1

    def test_lambda_rows(self):
        rows = [{"lambda": 1.0, "f1": 0.7}, {"lambda": 0.1, "f1": 0.7}]
        assert model_select(rows)["lambda"] == 0.1

    def test_threshold_breaks_last(self):
        rows = [
            {"k": 10, "C": 1.0, "threshold": 0.4, "f1": 0.8},
            {"k": 10, "C": 1.0, "threshold": 0.1, "f1": 0.8},
        ]
        assert model_select(rows)["threshold"] == 0.1

    def test_empty_stream_fails(self):
        with pytest.raises(ValueError):
            model_select([])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        rows = [
            {
                "k": int(rng.integers(1, 4)) * 10,
                "C": float(rng.choice([0.1, 1.0, 10.0])),
                "threshold": float(rng.choice([0.0, 0.2])),
                "f1": float(rng.integers(0, 5)) / 10,
            }
            for _ in range(40)
        ]
        got = model_select(rows)
        best = None
        for row in rows:
            if best is None:
                best = row
                continue
            a = (-row["f1"], row["k"], row["C"], row["threshold"])
            b = (-best["f1"], best["k"], best["C"], best["threshold"])
            if a < b:
                best = row
        assert got == best


_DEV_WORDS = st.sampled_from(["a", "b", "c", "A", "B"])


@st.composite
def _dev_split(draw):
    """Sentences of a few words, cased and not, with well-formed gold BIO
    tags (an I after O is turned into a B)."""
    dev = []
    for _ in range(draw(st.integers(0, 4))):
        toks = draw(st.lists(_DEV_WORDS, min_size=1, max_size=8))
        tags = draw(st.lists(st.sampled_from("BIO"), min_size=len(toks), max_size=len(toks)))
        tags = ["B" if t == "I" and (i == 0 or tags[i - 1] == "O") else t for i, t in enumerate(tags)]
        dev.append((toks, tags))
    return dev


def _tagged_f1(dev, dictionary):
    pred = [string_tags(toks, dictionary) for toks, _ in dev]
    return evaluate(pred, [tags for _, tags in dev]).f1


class TestDevScorer:
    """Dev F1 by ``dictionary_scorer`` against tagging with the string
    matcher and scoring afresh."""

    @settings(max_examples=200, deadline=None)
    @given(
        _dev_split(),
        st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(" ".join),
                 unique=True, max_size=8),
        st.lists(st.integers(0, 7)),
    )
    # nested ("a" in "a b" in "a b c") and overlapping ("a b", "b c") phrases
    @example([(["A", "b", "c", "a", "b"], ["B", "I", "O", "B", "I"])],
             ["a", "a b", "a b c", "b c"], [0, 1, 2, 3])
    @example([(["A", "b", "c", "a", "b"], ["B", "I", "O", "B", "I"])],
             ["a", "a b", "a b c", "b c"], [1, 3])
    def test_matches_tagging_oracle(self, dev, universe, picks):
        d = Dictionary({universe[i]: 1.0 for i in picks if i < len(universe)})
        assert dictionary_scorer(dev, universe)(d).f1 == _tagged_f1(dev, d)

    @pytest.mark.parametrize("kept", [("a b c",), ("a b", "b c"), ("a", "b c"), ("b c",), ()])
    def test_nested_overlapping_and_sentence_end(self, kept):
        # gold entities end each sentence; "b c" only matches at the end
        dev = [(["a", "b", "c"], ["O", "B", "I"]), (["x", "a", "b"], ["O", "B", "I"])]
        universe = ["a", "a b", "a b c", "b c", "b"]
        d = Dictionary(dict.fromkeys(kept, 1.0))
        assert dictionary_scorer(dev, universe)(d).f1 == _tagged_f1(dev, d)

    def test_sentence_end_match_counts(self):
        dev = [(["x", "Flu"], ["O", "B"]), (["flu", "x"], ["O", "O"])]
        d = Dictionary({"flu": 1.0})
        assert dictionary_scorer(dev, ["flu"])(d).f1 == pytest.approx(2 / 3) == _tagged_f1(dev, d)

    def test_empty_dictionary_scores_zero(self):
        dev = [(["flu"], ["B"])]
        assert dictionary_scorer(dev, ["flu"])(Dictionary({})).f1 == 0.0

    def test_phrase_outside_the_universe_rejected(self):
        score = dictionary_scorer([(["flu"], ["B"])], ["flu"])
        with pytest.raises(ValueError, match="swine flu"):
            score(Dictionary({"flu": 1.0, "swine flu": 0.5}))


class TestRunPipeline:
    def test_all_artifacts_present(self, finished_run):
        workdir, config, manifest = finished_run
        out = config.outdir
        for name in (
            "candidates.tsv", "views.table.npz", "cca.model.npz",
            "dict.cca.tsv", "embeddings.tsv", "svm.json",
            "dict.cotrain.tsv", "cotrain.json", "report.json",
            "crf.model.npz", "crf.json", "manifest.json",
        ):
            assert (out / name).is_file(), name
        assert set(manifest.stages["views"]["outputs"]) == {"views.table.npz"}

    def test_manifest_hashes_match_disk(self, finished_run):
        import hashlib

        workdir, config, manifest = finished_run
        for stage, record in manifest.stages.items():
            for name, digest in record.get("outputs", {}).items():
                blob = (config.outdir / name).read_bytes()
                assert hashlib.sha256(blob).hexdigest() == digest, (stage, name)

    def test_second_run_fully_cached(self, finished_run):
        workdir, config, _ = finished_run
        manifest = run_pipeline(config)
        assert all(rec.get("cached") for rec in manifest.stages.values())

    def test_reproducible_artifacts(self, finished_run):
        workdir, config, _ = finished_run
        fresh = dataclasses.replace(config, outdir=workdir / "out2")
        run_pipeline(
            fresh, stages=("extract", "views", "cca", "classify", "cotrain", "tag")
        )
        for name in (
            "views.table.npz", "dict.cca.tsv", "dict.cotrain.tsv", "report.json", "embeddings.tsv"
        ):
            assert (config.outdir / name).read_bytes() == (fresh.outdir / name).read_bytes()

    def test_stage_subset_reruns_only_what_changed(self, finished_run):
        workdir, config, _ = finished_run
        run_pipeline(config)  # ensure everything cached
        seeds = config.seeds.read_text(encoding="utf-8")
        sc_entities = (workdir / "data" / "entities.txt").read_text().splitlines()
        spare = next(e for e in sc_entities if f"\n{e}\n" not in "\n" + seeds)
        lines = seeds.splitlines()
        lines[1] = spare  # swap one positive seed
        config.seeds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            manifest = run_pipeline(config, stages=("cca", "classify"))
            assert manifest.stages["cca"]["cached"] is True
            assert manifest.stages["classify"]["cached"] is False
        finally:
            config.seeds.write_text(seeds, encoding="utf-8")
            run_pipeline(config, stages=("classify",))

    def test_locators_follow_view_row_order(self, finished_run):
        # doc ids "corpus.txt:10" < "corpus.txt:2" sort apart from stream order
        workdir, config, _ = finished_run
        out = config.outdir
        assert len(config.corpus.read_text(encoding="utf-8").splitlines()) >= 10
        cands = read_candidates(out / "candidates.tsv")
        rows = list(collect_occurrences(iter_sentences(config.corpus), cands))
        ordered = sorted(rows, key=lambda row: row[:4])
        assert ordered != rows
        table = OccurrenceTable.load(out / "views.table.npz")
        assert [table.phrases[i] for i in table.phrase_ids] == [row[4] for row in ordered]
        assert [[table.contexts[i] for i in ids] for ids in table.context_ids.tolist()] == [
            list(zip(CONTEXT_POSITIONS, row[6:])) for row in ordered
        ]
        X = ViewMatrices(table).X
        for i, row in enumerate(ordered):
            assert X[i, table.phrases.index(row[4])] == 1.0

    @pytest.mark.parametrize("stage", ["classify", "cotrain"])
    def test_classify_never_reads_the_corpus(self, finished_run, tmp_path, monkeypatch, stage):
        # classify and cotrain re-execute on a seed edit from the views
        # artifacts alone, with unchanged results
        workdir, config, _ = finished_run
        artifact = {"classify": "dict.cca.tsv", "cotrain": "dict.cotrain.tsv"}[stage]
        shutil.copytree(config.outdir, tmp_path / "out")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(
            config.seeds.read_text(encoding="utf-8") + "# a comment\n", encoding="utf-8"
        )
        copy = dataclasses.replace(config, seeds=seeds, outdir=tmp_path / "out")

        def no_corpus(*args, **kwargs):
            raise AssertionError(f"{stage} read the corpus")

        monkeypatch.setattr("dictforge.pipeline.intern_corpus", no_corpus)
        monkeypatch.setattr("dictforge.corpus._read", no_corpus)
        monkeypatch.setattr("dictforge.pipeline.collect_occurrences", no_corpus)
        manifest = run_pipeline(copy, stages=(stage,))
        assert manifest.stages[stage]["cached"] is False
        inputs = manifest.stages[stage]["inputs"]
        assert "corpus" not in inputs
        if stage == "cotrain":
            assert "candidates.tsv" not in inputs
        assert (copy.outdir / artifact).read_bytes() == (config.outdir / artifact).read_bytes()

    def test_candidate_without_occurrence_names_itself(self, finished_run, tmp_path):
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        with open(copy.outdir / "candidates.tsv", "a", encoding="utf-8") as fh:
            fh.write("zzyzx quux\t1\n")
        with pytest.raises(StageError, match=r"\[classify\].*'zzyzx quux'"):
            run_pipeline(copy, stages=("classify",))

    @pytest.mark.parametrize("stage", ["cca", "classify", "cotrain"])
    def test_inconsistent_table_names_stage_and_file(self, finished_run, tmp_path, stage):
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        path = copy.outdir / "views.table.npz"
        with np.load(path) as data:
            arrays = dict(data)
        arrays["phrase_ids"] = arrays["phrase_ids"][:-1]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(StageError, match=rf"\[{stage}\] .*views\.table\.npz: context_ids"):
            run_pipeline(copy, stages=(stage,))

    def test_copied_output_directory_stays_cached(self, finished_run, tmp_path):
        # inputs are recorded by the names the stage table reads them under,
        # so a finished run moved elsewhere re-executes nothing
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        manifest = run_pipeline(copy)
        assert all(rec["cached"] for rec in manifest.stages.values())
        # crf.features = baseline,dict: crf reads the cca dictionary, not the embeddings
        assert {stage: set(rec["inputs"]) for stage, rec in manifest.stages.items()} == {
            "extract": {"corpus", "patterns"},
            "views": {"corpus", "candidates.tsv"},
            "cca": {"views.table.npz"},
            "classify": {"candidates.tsv", "seeds", "dev", "cca.model.npz", "views.table.npz"},
            "cotrain": {"views.table.npz", "seeds", "dev"},
            "tag": {"test", "dict.cca.tsv", "dict.cotrain.tsv"},
            "crf": {"train", "dev", "test", "dict.cca.tsv"},
        }

    def test_code_change_invalidates_every_stage(self, finished_run, tmp_path, monkeypatch):
        # every stage's code fingerprint covers pipeline.py
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        _edit_module(monkeypatch, "pipeline")
        manifest = run_pipeline(copy)
        assert not any(rec["cached"] for rec in manifest.stages.values())

    @pytest.mark.parametrize(
        "module, rerun",
        [
            ("crf", {"crf"}),
            ("cotrain", {"cotrain"}),
            ("linalg", {"cca", "classify", "crf"}),
            ("synth", set()),
            ("cli", set()),
        ],
    )
    def test_module_edit_reexecutes_the_stages_that_import_it(
        self, finished_run, tmp_path, monkeypatch, module, rerun
    ):
        # a comment edit leaves every artifact as it was, so no stage
        # downstream of the edited ones re-executes
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        _edit_module(monkeypatch, module)
        manifest = run_pipeline(copy)
        assert {s for s, rec in manifest.stages.items() if not rec["cached"]} == rerun

    def test_cotrain_edit_reexecutes_tag_when_its_dictionary_changes(
        self, finished_run, tmp_path, monkeypatch
    ):
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        _edit_module(monkeypatch, "cotrain")
        real = dictionary_from_rules

        def one_phrase_fewer(state, theta):
            d = real(state, theta=theta)
            return dataclasses.replace(d, scores=dict(list(d.scores.items())[1:]))

        monkeypatch.setattr("dictforge.pipeline.dictionary_from_rules", one_phrase_fewer)
        manifest = run_pipeline(copy)
        assert {s for s, rec in manifest.stages.items() if not rec["cached"]} == {"cotrain", "tag"}
        changed = copy.outdir / "dict.cotrain.tsv"
        assert changed.read_bytes() != (config.outdir / "dict.cotrain.tsv").read_bytes()

    def test_selection_matches_exhaustive_reevaluation(self, finished_run):
        workdir, config, manifest = finished_run
        chosen = manifest.stages["classify"]["details"]["selection"]
        out = config.outdir

        sents = list(iter_sentences(config.corpus))
        cands = []
        for line in (out / "candidates.tsv").read_text(encoding="utf-8").splitlines():
            text, freq = line.split("\t")
            cands.append(CandidatePhrase(text, int(freq)))
        occs = list(collect_occurrences(sents, cands))
        views = build_design_matrices(occs)
        model = CcaModel.load(out / "cca.model.npz")
        first_row = views.table.first_rows()
        names = [c.lower for c in cands]
        embeddings = dict(zip(names, embed_phrases(model, views.X[[first_row[p] for p in names]])))
        dev = read_conll(config.dev, strict=True)

        from dictforge.classifier import resolve_seeds

        pos, neg, missing = resolve_seeds(read_seeds(config.seeds), embeddings)
        assert not missing
        rows = []
        for k in config.svm_k_grid:
            sliced = {p: v[:k] for p, v in embeddings.items()}
            ordered = sorted(sliced)
            matrix = np.array([sliced[p] for p in ordered])
            for C in config.svm_c_grid:
                svm = train_svm(sliced, SeedSet.make(pos, neg), C=C)
                for thr in config.svm_threshold_grid:
                    d = build_dictionary(ordered, matrix, svm, threshold=thr)
                    pred = [tag_with_dictionary(t, d) for t, _ in dev]
                    f1 = evaluate(pred, [g for _, g in dev]).f1
                    rows.append({"k": k, "C": C, "threshold": thr, "f1": f1})
        assert model_select(rows) == chosen
        rows.remove(chosen)
        assert model_select(rows) == manifest.stages["classify"]["details"]["runner_up"]

    def test_cotrain_runner_up_is_next_in_selection_order(self, finished_run, tmp_path):
        workdir, config, manifest = finished_run
        table = OccurrenceTable.load(config.outdir / "views.table.npz")
        state = dl_cotrain(
            table, read_seeds(config.seeds), m=config.cotrain_m, epsilon=config.cotrain_epsilon
        )
        dev = read_conll(config.dev, strict=True)
        rows = [
            {"theta": theta, "f1": _tagged_f1(dev, dictionary_from_rules(state, theta=theta))}
            for theta in config.cotrain_theta_grid
        ]
        details = manifest.stages["cotrain"]["details"]
        assert model_select(rows) == details["selection"]
        rows.remove(details["selection"])
        assert model_select(rows) == details["runner_up"]
        # the margin lives in the manifest only; the artifacts keep their bytes
        assert "runner_up" not in (config.outdir / "cotrain.json").read_text(encoding="utf-8")
        assert "runner_up" not in (config.outdir / "svm.json").read_text(encoding="utf-8")
        # a one-point grid has no runner-up
        shutil.copytree(config.outdir, tmp_path / "out")
        one = dataclasses.replace(config, outdir=tmp_path / "out", cotrain_theta_grid=(0.9,))
        one_point = run_pipeline(one, stages=("cotrain",)).stages["cotrain"]["details"]
        assert one_point["runner_up"] is None

    def test_failing_stage_quarantines_and_names_itself(self, workdir, tmp_path):
        config = validate_config(workdir / "pipeline.cfg")
        bad_seeds = tmp_path / "bad_seeds.txt"
        bad_seeds.write_text(
            "[positive]\nnot a real phrase\n[negative]\nalso missing\n",
            encoding="utf-8",
        )
        broken = dataclasses.replace(
            config, seeds=bad_seeds, outdir=tmp_path / "out"
        )
        run_pipeline(broken, stages=("extract", "views", "cca"))
        # back to back, within the same second: each failure keeps its own
        for _ in range(2):
            with pytest.raises(StageError, match=r"\[classify\]"):
                run_pipeline(broken, stages=("classify",))
        kept = list((broken.outdir / "quarantine").iterdir())
        assert len(kept) == 2 and all(p.name.startswith("classify-") for p in kept)

    def test_missing_dependency_artifact_fails(self, workdir, tmp_path):
        config = validate_config(workdir / "pipeline.cfg")
        fresh = dataclasses.replace(config, outdir=tmp_path / "empty")
        with pytest.raises(StageError, match="missing input"):
            run_pipeline(fresh, stages=("cca",))

    def test_unlabeled_config_skips_tag_and_crf(self, workdir, tmp_path):
        config = validate_config(workdir / "pipeline.cfg")
        unlabeled = dataclasses.replace(
            config,
            train=None, dev=None, test=None,
            outdir=tmp_path / "out",
            svm_c_grid=(1.0,), svm_k_grid=(10,), svm_threshold_grid=(0.0,),
            cotrain_theta_grid=(0.9,),
        )
        manifest = run_pipeline(unlabeled)
        assert "skipped" in manifest.stages["tag"]
        assert "skipped" in manifest.stages["crf"]
        assert (unlabeled.outdir / "dict.cca.tsv").is_file()
        with pytest.raises(StageError, match="not runnable"):
            run_pipeline(unlabeled, stages=("tag",))

    def test_grid_without_dev_fails(self, workdir, tmp_path):
        config = validate_config(workdir / "pipeline.cfg")
        nodev = dataclasses.replace(config, dev=None, outdir=tmp_path / "out")
        run_pipeline(nodev, stages=("extract", "views", "cca"))
        with pytest.raises(StageError, match="dev"):
            run_pipeline(nodev, stages=("classify",))

    def test_one_fit_and_one_ranking_per_k_and_c(self, finished_run, tmp_path, monkeypatch):
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        calls = {"train_svm": 0, "build_dictionary": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("train_svm", train_svm), ("build_dictionary", build_dictionary)):
            monkeypatch.setattr(f"dictforge.pipeline.{name}", counted(name, fn))
        (copy.outdir / "manifest.json").unlink()  # the copy would be served from cache
        manifest = run_pipeline(copy, stages=("classify",))
        assert manifest.stages["classify"]["cached"] is False
        fits = len(config.svm_k_grid) * len(config.svm_c_grid)
        assert calls == {"train_svm": fits, "build_dictionary": fits}
        for name in ("dict.cca.tsv", "embeddings.tsv"):
            assert (copy.outdir / name).read_bytes() == (config.outdir / name).read_bytes()

    def test_solver_reports_recorded(self, finished_run, cca_residual_oracle):
        workdir, config, _ = finished_run
        manifest = RunManifest.load(config.outdir / "manifest.json")
        details = manifest.stages["classify"]["details"]
        assert [(row["k"], row["C"]) for row in details["fits"]] == [
            (k, C) for k in config.svm_k_grid for C in config.svm_c_grid
        ]
        svm = json.loads((config.outdir / "svm.json").read_text(encoding="utf-8"))
        chosen = next(
            row for row in details["fits"] if (row["k"], row["C"]) == (svm["k"], svm["C"])
        )
        assert svm["solver"] == {key: chosen[key] for key in ("epochs", "gap", "converged")}
        for row in details["fits"]:
            assert row["converged"] is True
            assert row["epochs"] >= 1 and row["gap"] >= -1e-12
        cca = manifest.stages["cca"]["details"]
        assert cca["whitening"] == {"spelling": "cholesky", "context": "full"}
        summary = accumulate_covariance(
            *OccurrenceTable.load(config.outdir / "views.table.npz").design_matrices()
        )
        oracle = cca_residual_oracle(summary, CcaModel.load(config.outdir / "cca.model.npz"))
        assert len(cca["svd_residuals"]) == config.cca_k
        np.testing.assert_allclose(cca["svd_residuals"], oracle, rtol=1e-6, atol=1e-9)

    def test_dev_scorer_matches_evaluate(self, finished_run):
        # the run's dev F1, one scorer over the table's phrases, equals
        # tagging and scoring each dictionary afresh
        _, config, _ = finished_run
        dev = read_conll(config.dev, strict=True)
        ranked = list(read_dictionary(config.outdir / "dict.cca.tsv").scores)
        rng = np.random.default_rng(0)
        dev_f1 = _Reads("classify", _inputs(config, "classify"), {}).dev_f1(2)
        for size in (0, 1, len(ranked) // 2, len(ranked)):
            picked = rng.permutation(ranked)[:size]
            d = Dictionary({p: 1.0 for p in picked}, provenance="cca")
            pred = [tag_with_dictionary(toks, d) for toks, _ in dev]
            assert dev_f1(d) == evaluate(pred, [tags for _, tags in dev]).f1
        assert _Reads("cotrain", {}, {}).dev_f1(1)(Dictionary({"flu": 1.0})) == 0.0

    def test_report_equals_evaluate_of_tagging(self, finished_run):
        # each dictionary's test scores equal tagging the test split one
        # sentence at a time and scoring it with evaluate
        _, config, _ = finished_run
        report = json.loads((config.outdir / "report.json").read_text(encoding="utf-8"))
        test = read_conll(config.test, strict=True)
        assert sorted(report) == ["cca", "cotrain"]
        for name, entry in report.items():
            d = read_dictionary(config.outdir / f"dict.{name}.tsv")
            pred = [tag_with_dictionary(toks, d) for toks, _ in test]
            assert entry == evaluate(pred, [tags for _, tags in test]).as_dict()
            assert entry["tp"] > 0

    def test_views_table_is_the_written_table(self, finished_run, tmp_path):
        # cca, classify and cotrain load the table the views stage built,
        # and the design matrices rebuilt from it are the built ones
        _, config, _ = finished_run
        reads = _Reads("views", _inputs(config, "views"), {})
        dictforge.pipeline._stage_views(config, tmp_path, reads)
        assert [p.name for p in tmp_path.iterdir()] == ["views.table.npz"]
        cands = read_candidates(config.outdir / "candidates.tsv")
        built = build_design_matrices(collect_occurrences(iter_sentences(config.corpus), cands))
        loaded = ViewMatrices(OccurrenceTable.load(tmp_path / "views.table.npz"))
        for name in ("phrase_ids", "context_ids", "caps"):
            np.testing.assert_array_equal(getattr(loaded.table, name), getattr(built.table, name))
        assert loaded.table.phrases == built.table.phrases
        assert loaded.table.contexts == built.table.contexts
        for got, want in ((loaded.X, built.X), (loaded.Z, built.Z)):
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_cold_run_parses_neither_occurrences_nor_dev_twice(
        self, finished_run, tmp_path, monkeypatch
    ):
        # the corpus is read and tokenized once (for extract and views) and
        # matched once (by views), the candidates are read once (for views
        # and classify), the table is loaded once (for cca, classify and
        # cotrain), X and Z are built once (by cca), and the dev split is
        # read once for classify, cotrain and crf and scored by one scorer
        # for classify and cotrain
        _, config, _ = finished_run
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        calls = collections.Counter()
        dev = read_conll(config.dev, strict=True)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                key = None
                if name == "read_conll":
                    key = args[0]
                elif name == "dictionary_scorer":
                    key = "dev" if args[0] == dev else "test"
                calls[name, key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (
            ("intern_corpus", intern_corpus),
            ("collect_occurrences", collect_occurrences),
            ("read_conll", read_conll),
            ("read_candidates", read_candidates),
            ("dictionary_scorer", dictionary_scorer),
        ):
            monkeypatch.setattr(f"dictforge.pipeline.{name}", counted(name, fn))
        monkeypatch.setattr("dictforge.corpus._read", counted("_read", dictforge.corpus._read))
        for name in ("load", "design_matrices"):
            monkeypatch.setattr(
                OccurrenceTable, name, counted(name, getattr(OccurrenceTable, name))
            )
        manifest = run_pipeline(copy)
        assert not any(record.get("cached") for record in manifest.stages.values())
        assert calls["intern_corpus", None] == calls["_read", None] == 1
        assert calls["collect_occurrences", None] == 1
        assert calls["read_candidates", None] == 1
        assert calls["load", None] == 1
        assert calls["design_matrices", None] == 1
        assert calls["read_conll", config.dev] == 1
        assert calls["dictionary_scorer", "dev"] == 1
        for name in ("dict.cca.tsv", "dict.cotrain.tsv", "crf.json"):
            assert (copy.outdir / name).read_bytes() == (config.outdir / name).read_bytes()

    def test_cold_run_reads_each_split_once(self, finished_run, tmp_path, monkeypatch):
        # dev is shared by classify, cotrain and crf, test by tag and crf
        _, config, _ = finished_run
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        reads = collections.Counter()

        def counted(path, *args, **kwargs):
            reads[path] += 1
            return read_conll(path, *args, **kwargs)

        monkeypatch.setattr("dictforge.pipeline.read_conll", counted)
        manifest = run_pipeline(copy)
        assert not any(record.get("cached") for record in manifest.stages.values())
        assert reads == {config.train: 1, config.dev: 1, config.test: 1}
        for name in ("report.json", "crf.json", "crf.model.npz"):
            assert (copy.outdir / name).read_bytes() == (config.outdir / name).read_bytes()

    def test_cold_run_compiles_each_split_once(self, finished_run, tmp_path, monkeypatch):
        # with two lambdas, both fits decode one compile of dev; the training
        # split's index and X come from one featurizer pass
        _, config, _ = finished_run
        copy = dataclasses.replace(config, outdir=tmp_path / "out", crf_lambda_grid=(0.05, 0.5))
        compiled, featurized = collections.Counter(), collections.Counter()
        real_compile, real_columns = dictforge.crf._compile, dictforge.crf._columns

        def split_key(texts):
            return tuple(sorted(tuple(tokens) for tokens in texts))

        def counted_compile(model, chain, sentences, *args):
            compiled[split_key(tokens for tokens, _ in sentences)] += 1
            return real_compile(model, chain, sentences, *args)

        def counted_columns(texts, *args):
            featurized[split_key(texts)] += 1
            return real_columns(texts, *args)

        monkeypatch.setattr("dictforge.crf._compile", counted_compile)
        monkeypatch.setattr("dictforge.crf._columns", counted_columns)
        manifest = run_pipeline(copy)
        assert [row["lambda"] for row in manifest.stages["crf"]["details"]["grid"]] == [0.05, 0.5]
        splits = (config.train, config.dev, config.test)
        once = {split_key(tokens for tokens, _ in read_conll(path)): 1 for path in splits}
        assert compiled == featurized == once

    def test_stages_open_only_their_resolved_reads(self, finished_run, tmp_path, monkeypatch):
        # every file a stage opens, loading its reads or in its body, under
        # the output directory or among the config's inputs is one of its
        # resolved reads, and a cold run opens each resolved read once, in
        # the first stage that reads it
        _, config, _ = finished_run
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        if _record_open not in _HOOKED:
            sys.addaudithook(_record_open)
            _HOOKED.append(_record_open)
        _OPENED.clear()
        for stage in STAGES:
            body = getattr(dictforge.pipeline, f"_stage_{stage}")
            monkeypatch.setattr(dictforge.pipeline, f"_stage_{stage}", _tracked(body, stage))
        monkeypatch.setattr(_Reads, "__init__", _tracked(_Reads.__init__))
        manifest = run_pipeline(copy)
        assert not any(record["cached"] for record in manifest.stages.values())
        out = copy.outdir.resolve()
        inputs = {getattr(copy, name).resolve() for name in _KEYS["inputs"]}
        opened = [(s, p) for s, p in _OPENED if p in inputs or p.is_relative_to(out)]
        resolved = {
            stage: {path.resolve() for path in _inputs(copy, stage).values() if path is not None}
            for stage in STAGES
        }
        for stage, path in opened:
            assert path in resolved[stage], (stage, path)
        assert collections.Counter(path for _, path in opened) == dict.fromkeys(
            set().union(*resolved.values()), 1
        )

    def test_undeclared_read_raises(self, finished_run, tmp_path, monkeypatch):
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        # crf.features = baseline,dict: crf declares the embeddings, and they
        # are absent; seeds it does not declare
        reads = _Reads("crf", _inputs(copy, "crf"), {})
        assert list(reads) == ["train", "dev", "test", "dict.cca.tsv"]
        assert "embeddings.tsv" not in reads and reads.get("embeddings.tsv") is None
        with pytest.raises(StageError, match=r"^\[crf\] undeclared read 'seeds'$"):
            reads["seeds"]
        monkeypatch.setattr("dictforge.pipeline._stage_cca", lambda cfg, tmp, reads: reads["seeds"])
        (copy.outdir / "manifest.json").unlink()
        with pytest.raises(StageError, match=r"^\[cca\] undeclared read 'seeds'$"):
            run_pipeline(copy, stages=("cca",))

    def test_no_file_hashed_twice_in_a_run(self, finished_run, tmp_path, monkeypatch):
        _, config, _ = finished_run
        seeds = tmp_path / "seeds.txt"
        shutil.copy(config.seeds, seeds)
        copy = dataclasses.replace(config, seeds=seeds, outdir=tmp_path / "out")
        hashed = collections.Counter()
        real = _sha256

        def counted(path):
            hashed[path] += 1
            return real(path)

        monkeypatch.setattr("dictforge.pipeline._sha256", counted)
        cold = run_pipeline(copy)
        assert not any(record["cached"] for record in cold.stages.values())
        assert max(hashed.values()) == 1
        hashed.clear()
        with open(seeds, "a", encoding="utf-8") as fh:
            fh.write("# a comment\n")
        rerun = run_pipeline(copy)
        ran = {stage for stage, record in rerun.stages.items() if not record["cached"]}
        assert ran == {"classify", "cotrain"}
        assert max(hashed.values()) == 1
        assert config.corpus in hashed and copy.outdir / "views.table.npz" in hashed

    def test_interrupted_manifest_write_keeps_the_previous(
        self, finished_run, tmp_path, monkeypatch
    ):
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        path = copy.outdir / "manifest.json"
        before = path.read_bytes()
        manifest = RunManifest.load(path)
        manifest.stages["extract"] = {"skipped": "edited"}
        write_text = Path.write_text

        def cut_short(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError):
            manifest.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert all(record["cached"] for record in run_pipeline(copy).stages.values())

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "[]",
            lambda text: '{"version": "0", "stages": {}}',
            lambda text: '{"version": "0", "config_hash": "", "stages": {"extract": 1}}',
        ],
        ids=["halved", "a-list", "missing-field", "stage-not-an-object"],
    )
    def test_damaged_manifest_counts_as_no_cache(self, finished_run, tmp_path, damage):
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        path = copy.outdir / "manifest.json"
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        lines = []
        manifest = run_pipeline(copy, log=lines.append)
        assert not any(record["cached"] for record in manifest.stages.values())
        assert set(manifest.stages) == set(STAGES)
        assert lines[0].startswith(f"{path}: unreadable manifest")
        assert RunManifest.load(path).stages.keys() == manifest.stages.keys()
        for record in manifest.stages.values():
            for name in record["outputs"]:
                assert (copy.outdir / name).read_bytes() == (config.outdir / name).read_bytes()

    def test_pinned_extract_and_views_content(self, finished_run):
        # sha256 of the spec's candidates and of the table's arrays and names,
        # as written before extraction and matching ran on interned ids
        _, config, _ = finished_run
        out = config.outdir
        candidates = hashlib.sha256((out / "candidates.tsv").read_bytes()).hexdigest()
        assert candidates == "c3e7716c88725cf5fc21f0d2be994d3019f9c557a2d20d510906b31bc998ea78"
        table = OccurrenceTable.load(out / "views.table.npz")
        h = hashlib.sha256()
        for array in (table.phrase_ids, table.context_ids, table.caps.astype(np.uint8)):
            h.update(array.astype(array.dtype.newbyteorder("<")).tobytes())
        h.update("\n".join(table.phrases).encode())
        h.update("\n".join(f"{position} {word}" for position, word in table.contexts).encode())
        assert (table.n, len(table.phrases), len(table.contexts)) == (1625, 42, 61)
        assert h.hexdigest() == "6e2cd264c39fc937c89a0089eeb5610f12adcbb56eba8bec4a79f4ce205ac8c1"

    def test_jobs_other_than_one_rejected(self, finished_run):
        _, config, _ = finished_run
        with pytest.raises(ValueError, match="jobs"):
            run_pipeline(config, jobs=2)

    def test_unknown_stage_name_rejected(self, finished_run):
        _, config, _ = finished_run
        with pytest.raises(ValueError, match="unknown stages"):
            run_pipeline(config, stages=("polish",))

    def test_stage_params_are_their_config_section(self, finished_run):
        workdir, config, manifest = finished_run
        sections = {"cca": "cca", "classify": "svm", "cotrain": "cotrain", "crf": "crf"}
        assert set(manifest.stages) == set(STAGES)
        for stage, record in manifest.stages.items():
            section = sections.get(stage)
            expected = {
                f.name.removeprefix(f"{section}_"): getattr(config, f.name)
                for f in dataclasses.fields(PipelineConfig)
                if section and f.name.startswith(f"{section}_")
            }
            assert record["params"] == expected, stage

    def test_manifest_round_trip(self, finished_run):
        workdir, config, manifest = finished_run
        loaded = RunManifest.load(config.outdir / "manifest.json")
        assert loaded.config_hash == manifest.config_hash
        assert set(loaded.stages) == set(manifest.stages)

    def test_manifest_text_is_the_dataclass_as_json(self, finished_run, tmp_path):
        # save writes the fields directly; the text is what asdict gave
        _, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        manifest = run_pipeline(copy)
        text = (copy.outdir / "manifest.json").read_text(encoding="utf-8")
        assert text == _json_text(dataclasses.asdict(manifest))

    def test_crf_solver_status_recorded(self, finished_run, tmp_path):
        # one L-BFGS iteration cannot converge; every grid point says so in
        # crf.json and in the manifest details
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        capped = dataclasses.replace(
            config, outdir=tmp_path / "out", crf_max_iters=1, crf_lambda_grid=(0.05, 0.5)
        )
        manifest = run_pipeline(capped, stages=("crf",))
        details = manifest.stages["crf"]["details"]
        on_disk = json.loads((capped.outdir / "crf.json").read_text(encoding="utf-8"))
        assert on_disk["grid"] == details["grid"]
        assert [row["lambda"] for row in details["grid"]] == [0.05, 0.5]
        for row in details["grid"]:
            assert row["converged"] is False
            assert row["nit"] == 1 and row["nfev"] >= 1
            assert isinstance(row["message"], str)
        assert details["selection"] in details["grid"]
        assert "test" in on_disk


def _ast_imports(module):
    """The package modules ``module`` imports, by its parsed ``from .x import`` nodes."""
    tree = ast.parse(_sources()[module])
    return {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


class TestStageTable:
    CLOSURES = {
        "extract": {"corpus", "extraction"},
        "views": {"corpus", "extraction", "views"},
        "cca": {"cca", "linalg", "views", "extraction", "corpus"},
        "classify": {"cca", "linalg", "classifier", "tagging", "extraction", "corpus", "views"},
        "cotrain": {"cotrain", "classifier", "tagging", "views", "extraction", "corpus"},
        "tag": {"tagging", "corpus"},
        "crf": {"crf", "corpus", "tagging", "views", "extraction", "cca", "linalg"},
    }

    def test_reads_name_config_paths_or_earlier_outputs(self):
        paths = {f.name for f in dataclasses.fields(PipelineConfig) if "Path" in f.type}
        written = set()
        for stage, row in _STAGES.items():
            names = [read.partition(" if ")[0].rstrip("?") for read in row.reads]
            for name in names:
                assert name in written or name in paths - {"outdir"}, (stage, name)
            assert row.needs is None or row.needs in names, stage
            assert set(names) <= _READERS.keys(), stage
            written.update(row.outputs)

    def test_each_reader_is_in_its_stages_closure(self):
        # so an edit to a reader's module re-executes every stage reading through it
        imports = _imports(_sources())
        namespace = vars(dictforge.pipeline)
        for stage, row in _STAGES.items():
            closure = set(_closure(row.modules, imports))
            for read in row.reads:
                reader = _READERS[read.partition(" if ")[0].rstrip("?")]
                called = [namespace[n] for n in reader.__code__.co_names if n in namespace]
                modules = {f.__module__.removeprefix("dictforge.") for f in called}
                assert called and modules <= closure, (stage, read, modules)

    def test_closure_matches_an_ast_import_walk(self):
        for stage, row in _STAGES.items():
            seen, todo = set(), list(row.modules)
            while todo:
                if (name := todo.pop()) not in seen:
                    seen.add(name)
                    todo += _ast_imports(name)
            closure = set(_closure(row.modules, _imports(_sources())))
            assert closure == seen == self.CLOSURES[stage], stage
