"""The ``forge`` entry point: argument plumbing and exit codes."""

import json
from pathlib import Path

import pytest

import dictforge.cli
from dictforge.cli import _parse_lambda_grid, main
from dictforge.crf import CrfModel
from dictforge.synth import SynthSpec, generate
from dictforge.tagging import bio_spans, read_conll, write_conll


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    sc = generate(SynthSpec(n_sentences=2500, n_entities=12, n_distractors=30, seed=9))
    paths = sc.write(root / "data")
    train = read_conll(paths["train"], strict=True)
    with open(root / "tiny.conll", "w", encoding="utf-8") as fh:
        write_conll(train[:40], fh)
    with open(root / "tiny.txt", "w", encoding="utf-8") as fh:
        for toks, _ in train[:15]:
            fh.write(" ".join(toks) + "\n")
    with open(root / "hand.dict.tsv", "w", encoding="utf-8") as fh:
        fh.write("# provenance: manual\n")
        for phrase in sc.entities:
            fh.write(f"{phrase}\t1.0\n")
    return root, sc, paths


def output_before_second_sentence(monkeypatch, capsys, argv):
    """Run ``forge`` on stdout and return what it had written when it asked
    the corpus reader for the second sentence."""
    real = dictforge.cli.iter_sentences
    seen = []

    def spy(path):
        for i, sentence in enumerate(real(path)):
            if i == 1:
                seen.append(capsys.readouterr().out)
            yield sentence

    monkeypatch.setattr("dictforge.cli.iter_sentences", spy)
    assert main(argv) == 0
    return seen[0]


class TestLambdaGrid:
    def test_decade_range(self):
        grid = _parse_lambda_grid("1e-4..10")
        assert len(grid) == 6
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(10.0)

    def test_comma_list(self):
        assert _parse_lambda_grid("0.01,0.1,1") == (0.01, 0.1, 1.0)

    def test_space_list(self):
        assert _parse_lambda_grid("0.1 1") == (0.1, 1.0)

    def test_single_value(self):
        assert _parse_lambda_grid("0.5") == (0.5,)

    @pytest.mark.parametrize("text", ["10..1", "0..1", "", "x"])
    def test_rejects_bad_grids(self, text):
        with pytest.raises(ValueError):
            _parse_lambda_grid(text)


class TestRunCommand:
    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[inputs]\ncorpus = nope.txt\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "inputs" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_stage_error_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {paths['patterns']}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--stages", "cca", "--quiet"]) == 1
        assert "missing input" in capsys.readouterr().err

    def test_partial_run_writes_manifest(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {paths['patterns']}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {out}\n",
            encoding="utf-8",
        )
        code = main(
            ["run", "--config", str(cfg), "--stages", "extract,views", "--quiet"]
        )
        assert code == 0
        assert (out / "candidates.tsv").is_file()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["stages"]) == {"extract", "views"}


class TestSynthCommand:
    def test_writes_corpus_files(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--out", str(tmp_path / "bench"),
                "--sentences", "2200", "--entities", "12",
                "--distractors", "25", "--seed", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = {line.split("\t")[0] for line in lines}
        assert {"corpus", "seeds", "patterns", "entities", "train", "dev", "test"} <= names
        for line in lines:
            assert Path(line.split("\t")[1]).is_file()


class TestTagCommand:
    def test_tags_known_spans(self, bench, tmp_path):
        root, sc, paths = bench
        out = tmp_path / "tagged.conll"
        code = main(
            [
                "tag", "--dict", str(root / "hand.dict.tsv"),
                "--input", str(root / "tiny.txt"), "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_conll(out, strict=True)
        assert len(rows) == 15
        entity_set = set(sc.entities)
        for toks, tags in rows:
            for start, end in bio_spans(tags):
                assert " ".join(toks[start:end]).lower() in entity_set

    def test_writes_to_stdout_by_default(self, bench, capsys):
        root, sc, paths = bench
        code = main(
            ["tag", "--dict", str(root / "hand.dict.tsv"), "--input", str(root / "tiny.txt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n\n") >= 14  # blank line between sentences

    def test_streams_sentence_by_sentence(self, bench, monkeypatch, capsys):
        root, sc, paths = bench
        argv = ["tag", "--dict", str(root / "hand.dict.tsv"), "--input", str(root / "tiny.txt")]
        first = output_before_second_sentence(monkeypatch, capsys, argv)
        n_tokens = len((root / "tiny.txt").read_text().splitlines()[0].split())
        assert first.count("\n") == n_tokens + 1 and first.endswith("\n\n")

    def test_missing_dictionary_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        code = main(
            ["tag", "--dict", str(tmp_path / "no.tsv"), "--input", str(root / "tiny.txt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCrfCommands:
    def test_train_then_tag_round_trip(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "crf", "train", "--data", str(root / "tiny.conll"),
                "--features", "baseline", "--max-iters", "40",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.is_file()
        assert "lambda=0.1" in capsys.readouterr().err

        out = tmp_path / "tagged.conll"
        code = main(
            ["crf", "tag", "--model", str(model_path), "--input", str(root / "tiny.txt"), "--out", str(out)]
        )
        assert code == 0
        rows = read_conll(out, strict=True)
        assert [len(t) for t, _ in rows] == [
            len(line.split()) for line in (root / "tiny.txt").read_text().splitlines()
        ]

    def test_tag_decodes_in_chunks(self, bench, tmp_path, monkeypatch, capsys):
        root, sc, paths = bench
        model_path = tmp_path / "model.npz"
        argv = ["crf", "train", "--data", str(root / "tiny.conll"), "--max-iters", "5",
                "--out", str(model_path)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr("dictforge.cli._TAG_CHUNK", 1)
        argv = ["crf", "tag", "--model", str(model_path), "--input", str(root / "tiny.txt")]
        first = output_before_second_sentence(monkeypatch, capsys, argv)
        n_tokens = len((root / "tiny.txt").read_text().splitlines()[0].split())
        assert first.count("\n") == n_tokens + 1 and first.endswith("\n\n")

    def test_grid_needs_dev(self, bench, tmp_path):
        root, sc, paths = bench
        with pytest.raises(SystemExit, match="--dev"):
            main(
                [
                    "crf", "train", "--data", str(root / "tiny.conll"),
                    "--lambda-grid", "0.1,1", "--out", str(tmp_path / "m.npz"),
                ]
            )

    def test_dict_feature_needs_dict_flag(self, bench, tmp_path):
        root, sc, paths = bench
        with pytest.raises(SystemExit, match="--dict"):
            main(
                [
                    "crf", "train", "--data", str(root / "tiny.conll"),
                    "--features", "baseline,dict", "--out", str(tmp_path / "m.npz"),
                ]
            )

    def test_grid_selects_on_dev(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "crf", "train", "--data", str(root / "tiny.conll"),
                "--dev", str(root / "tiny.conll"),
                "--lambda-grid", "0.1,1", "--max-iters", "30",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("dev_f1=") == 2
        assert model_path.is_file()

    def test_curve_writes_table(self, bench, tmp_path):
        root, sc, paths = bench
        out = tmp_path / "curve.tsv"
        code = main(
            [
                "crf", "curve", "--train", str(root / "tiny.conll"),
                "--test", str(root / "tiny.conll"),
                "--sizes", "5,10", "--max-iters", "25", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("size\tvariant")
        assert len(lines) == 3  # header + two sizes, baseline only
        assert lines[1].split("\t")[:2] == ["5", "baseline"]

    def test_curve_with_dictionary_variant(self, bench, tmp_path):
        root, sc, paths = bench
        out = tmp_path / "curve.tsv"
        code = main(
            [
                "crf", "curve", "--train", str(root / "tiny.conll"),
                "--test", str(root / "tiny.conll"),
                "--sizes", "5", "--max-iters", "25",
                "--dict", str(root / "hand.dict.tsv"), "--out", str(out),
            ]
        )
        assert code == 0
        variants = [
            line.split("\t")[1]
            for line in out.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert variants[0] == "baseline"
        assert any(v.startswith("dict-") for v in variants[1:])

    def test_grid_tie_saves_smaller_lambda(self, bench, tmp_path, capsys):
        # a descending grid whose points tie on dev F1 still saves the
        # smaller lambda, as the pipeline's model_select does
        root, sc, paths = bench
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "crf", "train", "--data", str(root / "tiny.conll"),
                "--dev", str(root / "tiny.conll"), "--features", "baseline",
                "--lambda-grid", "1,0.1", "--max-iters", "30",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        scores = [line.split("dev_f1=")[1] for line in err.splitlines() if "dev_f1=" in line]
        assert len(scores) == 2 and scores[0] == scores[1]
        assert "(lambda=0.1)" in err
        assert CrfModel.load(model_path).regularizer == 0.1
