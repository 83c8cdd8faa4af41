"""Config validation, model selection, and the cached stage runner."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dictforge.cca import CcaModel, embed_phrases
from dictforge.classifier import SeedSet, build_dictionary, train_svm
from dictforge.corpus import iter_sentences
from dictforge.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    RunManifest,
    StageError,
    model_select,
    run_pipeline,
    validate_config,
)
from dictforge.synth import SynthSpec, generate
from dictforge.tagging import evaluate, read_conll, read_dictionary, tag_with_dictionary
from dictforge.views import (
    build_design_matrices,
    collect_occurrences,
    read_occurrences,
    read_triplets,
    spelling_vector,
)
from dictforge.extraction import CandidatePhrase, read_candidates


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


class TestRunPipeline:
    def test_all_artifacts_present(self, finished_run):
        workdir, config, manifest = finished_run
        out = config.outdir
        for name in (
            "candidates.tsv", "views.X.npz", "views.Z.npz", "views.occurrences.tsv",
            "cca.model.npz", "dict.cca.tsv", "embeddings.tsv", "svm.json",
            "dict.cotrain.tsv", "cotrain.json", "report.json",
            "crf.model.npz", "crf.json", "manifest.json",
        ):
            assert (out / name).is_file(), name

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
        for name in ("dict.cca.tsv", "dict.cotrain.tsv", "report.json", "embeddings.tsv"):
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
        views = build_design_matrices(
            collect_occurrences(iter_sentences(config.corpus), cands)
        )
        X = read_triplets(out / "views.X.npz")
        rows = read_occurrences(out / "views.occurrences.tsv")
        assert rows == views.occurrences
        assert X.shape[0] == len(rows)
        for i, occ in enumerate(rows):
            assert X[i, views.spelling_index.col(("id", occ.phrase_lower))] == 1.0

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

        monkeypatch.setattr("dictforge.pipeline.iter_sentences", no_corpus)
        monkeypatch.setattr("dictforge.pipeline.collect_occurrences", no_corpus)
        manifest = run_pipeline(copy, stages=(stage,))
        assert manifest.stages[stage]["cached"] is False
        inputs = manifest.stages[stage]["inputs"]
        assert str(config.corpus) not in inputs
        if stage == "cotrain":
            assert str(copy.outdir / "candidates.tsv") not in inputs
        assert (copy.outdir / artifact).read_bytes() == (config.outdir / artifact).read_bytes()

    def test_candidate_without_occurrence_names_itself(self, finished_run, tmp_path):
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        with open(copy.outdir / "candidates.tsv", "a", encoding="utf-8") as fh:
            fh.write("zzyzx quux\t1\n")
        with pytest.raises(StageError, match=r"\[classify\].*'zzyzx quux'"):
            run_pipeline(copy, stages=("classify",))

    def test_code_change_invalidates_every_stage(self, finished_run, tmp_path, monkeypatch):
        workdir, config, _ = finished_run
        shutil.copytree(config.outdir, tmp_path / "out")
        copy = dataclasses.replace(config, outdir=tmp_path / "out")
        run_pipeline(copy)  # artifact inputs now live under the copy's paths
        manifest = run_pipeline(copy)
        assert all(rec["cached"] for rec in manifest.stages.values())
        monkeypatch.setattr("dictforge.pipeline._code_digest", lambda: "edited")
        manifest = run_pipeline(copy)
        assert not any(rec["cached"] for rec in manifest.stages.values())

    def test_selection_matches_exhaustive_reevaluation(self, finished_run):
        workdir, config, manifest = finished_run
        chosen = manifest.stages["classify"]["details"]["selection"]
        out = config.outdir

        sents = list(iter_sentences(config.corpus))
        cands = []
        for line in (out / "candidates.tsv").read_text(encoding="utf-8").splitlines():
            text, freq = line.split("\t")
            cands.append(CandidatePhrase.from_tokens(text.split(" "), int(freq)))
        occs = list(collect_occurrences(sents, cands))
        views = build_design_matrices(occs)
        model = CcaModel.load(out / "cca.model.npz")
        vectors = {
            c.lower: spelling_vector(c.lower, views.spelling_index, views.caps_bit)
            for c in cands
        }
        embeddings = {e.phrase: e.vector for e in embed_phrases(model, vectors)}
        dev = read_conll(config.dev, strict=True)

        from dictforge.classifier import read_seeds, resolve_seeds

        pos, neg, missing = resolve_seeds(read_seeds(config.seeds), embeddings)
        assert not missing
        rows = []
        for k in config.svm_k_grid:
            sliced = {p: v[:k] for p, v in embeddings.items()}
            for C in config.svm_c_grid:
                svm = train_svm(sliced, SeedSet.make(pos, neg), C=C)
                for thr in config.svm_threshold_grid:
                    d = build_dictionary(sorted(sliced), sliced, svm, threshold=thr)
                    pred = [tag_with_dictionary(t, d) for t, _ in dev]
                    f1 = evaluate(pred, [g for _, g in dev]).f1
                    rows.append({"k": k, "C": C, "threshold": thr, "f1": f1})
        assert model_select(rows) == chosen

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
        with pytest.raises(StageError, match=r"\[classify\]"):
            run_pipeline(broken, stages=("classify",))
        quarantine = broken.outdir / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

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

    def test_parallel_grid_matches_serial(self, finished_run, tmp_path):
        workdir, config, _ = finished_run
        par = dataclasses.replace(config, outdir=tmp_path / "par")
        run_pipeline(par, stages=("extract", "views", "cca", "classify"), jobs=4)
        assert (par.outdir / "dict.cca.tsv").read_bytes() == (
            config.outdir / "dict.cca.tsv"
        ).read_bytes()

    def test_unknown_stage_name_rejected(self, finished_run):
        _, config, _ = finished_run
        with pytest.raises(ValueError, match="unknown stages"):
            run_pipeline(config, stages=("polish",))

    def test_manifest_round_trip(self, finished_run):
        workdir, config, manifest = finished_run
        loaded = RunManifest.load(config.outdir / "manifest.json")
        assert loaded.config_hash == manifest.config_hash
        assert set(loaded.stages) == set(manifest.stages)

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
