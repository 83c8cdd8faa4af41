"""The ``forge`` entry point: argument plumbing and exit codes."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictforge.cli
import dictforge.corpus
from dictforge.cli import _parse_lambda_grid, main
from dictforge.corpus import iter_sentences
from dictforge.crf import CrfModel
from dictforge.synth import SynthSpec, generate
from dictforge.tagging import read_conll, read_dictionary, tag_with_dictionary, write_conll
from oracles import bio_spans


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


def output_before_second_item(monkeypatch, capsys, argv, reader="iter_sentences"):
    """Run ``forge`` on stdout and return what it had written when it asked
    the corpus reader ``dictforge.cli.<reader>`` for its second item (a
    sentence, or a chunk for ``iter_chunks``)."""
    real = getattr(dictforge.cli, reader)
    seen = []

    def spy(path):
        for i, item in enumerate(real(path)):
            if i == 1:
                seen.append(capsys.readouterr().out)
            yield item

    monkeypatch.setattr(f"dictforge.cli.{reader}", spy)
    assert main(argv) == 0
    return seen[0]


class TestLambdaGrid:
    def test_decade_range(self):
        grid = _parse_lambda_grid("1e-4..10")
        assert len(grid) == 6
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(10.0)

    def test_decade_range_steps_exact_decades(self):
        # repeated multiplication by 10 would give 0.00030000000000000003
        assert _parse_lambda_grid("3e-5..3") == (3e-05, 0.0003, 0.003, 0.03, 0.3, 3.0)
        assert _parse_lambda_grid("1e-4..10") == (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

    def test_comma_list(self):
        assert _parse_lambda_grid("0.01,0.1,1") == (0.01, 0.1, 1.0)

    def test_space_list(self):
        assert _parse_lambda_grid("0.1 1") == (0.1, 1.0)

    def test_single_value(self):
        assert _parse_lambda_grid("0.5") == (0.5,)

    @pytest.mark.parametrize(
        "text", ["10..1", "0..1", "", "x", "0", "-1", "nan", "1e-4..inf"]
    )
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

    @pytest.mark.parametrize("blob", ["[1, 2]", '{"cca": 5}'])
    def test_non_object_json_config_exits_2(self, tmp_path, capsys, blob):
        cfg = tmp_path / "bad.json"
        cfg.write_text(blob, encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "not an object" in capsys.readouterr().err

    def test_nonfinite_kappa_exits_2(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {paths['patterns']}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
            "[cca]\nkappa = inf\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "cca.kappa: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_prev2_without_baseline_exits_2(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {paths['patterns']}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
            "[crf]\nfeatures = dict,prev2\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "crf.features: feature flag 'prev2' needs 'baseline'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_feature_list_exits_2(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {paths['patterns']}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
            "[crf]\nfeatures =\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "crf.features: no feature flag given" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_stage_error_names_the_malformed_file(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("between the virus\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[inputs]\n"
            f"corpus = {paths['corpus']}\n"
            f"patterns = {patterns}\n"
            f"seeds = {paths['seeds']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg), "--stages", "extract", "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"[extract] ValueError: {patterns}, line 1: between pattern needs exactly one '...'\n"
        )

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
        # every line is a chunk of its own
        monkeypatch.setattr("dictforge.corpus._CHUNK_CHARS", 1)
        argv = ["tag", "--dict", str(root / "hand.dict.tsv"), "--input", str(root / "tiny.txt")]
        first = output_before_second_item(monkeypatch, capsys, argv, "iter_chunks")
        n_tokens = len((root / "tiny.txt").read_text(encoding="utf-8").splitlines()[0].split())
        assert first.count("\n") == n_tokens + 1 and first.endswith("\n\n")

    @staticmethod
    def per_sentence_tag(dict_path, input_path) -> str:
        """The output of the per-sentence ``forge tag``: one Sentence and one
        tag_with_dictionary call per sentence, one write per line."""
        dictionary = read_dictionary(dict_path)
        rows = (
            (list(s.tokens), tag_with_dictionary(list(s.tokens), dictionary))
            for s in iter_sentences(input_path)
        )
        out = io.StringIO()
        write_conll(rows, out)
        return out.getvalue()

    @given(
        lines=st.lists(
            st.lists(
                st.sampled_from(["the", "flu", "Flu", "swine", "b", "B", ".", "?", "Dr.",
                                 ",", "(x)", "3", "İ", "e\u0301"]),
                max_size=8,
            ),
            max_size=10,
        ),
        seps=st.sampled_from([" ", "\t", "\u2028 ", "\xa0"]),
        phrases=st.lists(
            st.lists(st.sampled_from(["the", "flu", "swine", "b", ".", "x", "i̇"]),
                     min_size=1, max_size=3).map(" ".join),
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_equals_per_sentence_tagging(self, tmp_path_factory, lines, seps, phrases):
        root = tmp_path_factory.mktemp("tag")
        corpus = root / "corpus.txt"
        corpus.write_text("".join(seps.join(line) + "\n" for line in lines), encoding="utf-8")
        dict_path = root / "dict.tsv"
        dict_path.write_text(
            "# provenance: manual\n" + "".join(f"{p}\t1.0\n" for p in dict.fromkeys(phrases)),
            encoding="utf-8",
        )
        want = self.per_sentence_tag(dict_path, corpus)
        out = root / "tagged.conll"
        for chunk in (1, 16, 1 << 20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dictforge.corpus, "_CHUNK_CHARS", chunk)
                assert main(["tag", "--dict", str(dict_path), "--input", str(corpus),
                             "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == want, chunk

    def test_empty_dictionary_tags_everything_o(self, bench, tmp_path):
        root, sc, paths = bench
        empty = tmp_path / "empty.tsv"
        empty.write_text("# provenance: manual\n", encoding="utf-8")
        out = tmp_path / "tagged.conll"
        assert main(["tag", "--dict", str(empty), "--input", str(root / "tiny.txt"),
                     "--out", str(out)]) == 0
        rows = read_conll(out)
        assert len(rows) == 15 and all(set(tags) == {"O"} for _, tags in rows)

    def test_missing_dictionary_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        code = main(
            ["tag", "--dict", str(tmp_path / "no.tsv"), "--input", str(root / "tiny.txt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_dictionary_row_exits_1_naming_file_and_line(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        bad = tmp_path / "bad.tsv"
        bad.write_text("# provenance: manual\nflu\t1.0\nswine flu\n", encoding="utf-8")
        code = main(["tag", "--dict", str(bad), "--input", str(root / "tiny.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}, line 3: ")

    @pytest.mark.parametrize("row,message", [
        ("HIV\t1.0", "dictionary phrase 'HIV' is not lowercase"),
        (" \t1.0", "empty dictionary phrase ' '"),
    ])
    def test_bad_dictionary_phrase_exits_1_naming_file_and_line(
        self, bench, tmp_path, capsys, row, message
    ):
        root, sc, paths = bench
        bad = tmp_path / "cased.tsv"
        bad.write_text(f"# provenance: manual\nflu\t1.0\n{row}\n", encoding="utf-8")
        code = main(["tag", "--dict", str(bad), "--input", str(root / "tiny.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}, line 3: {message}\n"


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
            len(line.split()) for line in (root / "tiny.txt").read_text(encoding="utf-8").splitlines()
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
        first = output_before_second_item(monkeypatch, capsys, argv)
        n_tokens = len((root / "tiny.txt").read_text(encoding="utf-8").splitlines()[0].split())
        assert first.count("\n") == n_tokens + 1 and first.endswith("\n\n")

    @pytest.mark.parametrize("damage", ["truncated", "meta-without-embedding-phrases"])
    def test_tag_with_a_damaged_model_exits_1(self, bench, tiny_model, tmp_path, capsys, damage):
        root, sc, paths = bench
        model = tmp_path / "damaged.model.npz"
        if damage == "truncated":
            model.write_bytes(tiny_model.read_bytes()[:-40])
        else:
            with np.load(tiny_model, allow_pickle=False) as data:
                arrays = dict(data)
            meta = json.loads(str(arrays["meta"]))
            del meta["embedding_phrases"]
            np.savez(model, **{**arrays, "meta": np.array(json.dumps(meta))})
        argv = ["crf", "tag", "--model", str(model), "--input", str(root / "tiny.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: ")

    def test_grid_needs_dev(self, bench, tmp_path):
        root, sc, paths = bench
        with pytest.raises(SystemExit, match="--dev"):
            main(
                [
                    "crf", "train", "--data", str(root / "tiny.conll"),
                    "--lambda-grid", "0.1,1", "--out", str(tmp_path / "m.npz"),
                ]
            )

    def test_prev2_without_baseline_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        model = tmp_path / "m.npz"
        argv = ["crf", "train", "--data", str(root / "tiny.conll"),
                "--features", "prev2", "--out", str(model)]
        assert main(argv) == 1
        assert "'prev2' needs 'baseline'" in capsys.readouterr().err
        assert not model.exists()

    def test_empty_feature_list_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        model = tmp_path / "m.npz"
        argv = ["crf", "train", "--data", str(root / "tiny.conll"),
                "--features", "", "--out", str(model)]
        assert main(argv) == 1
        assert "no feature flag given" in capsys.readouterr().err
        assert not model.exists()

    def test_model_file_with_old_config_keys_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        model_path = tmp_path / "old.model.npz"
        argv = ["crf", "train", "--data", str(root / "tiny.conll"), "--max-iters", "5",
                "--out", str(model_path)]
        assert main(argv) == 0
        # model files once held nine feature flags, six of them folded into baseline
        with np.load(model_path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        old = ["caps_lexical", "prefix_suffix", "prev_tags", "window_caps_pattern",
               "window_words", "word_identity"]
        meta["config"] = dict.fromkeys(old, True) | {
            "prev2": False, "dict_match": False, "embedding": False
        }
        arrays["meta"] = np.array(json.dumps(meta))
        with open(model_path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ValueError, match=", ".join(old)):
            CrfModel.load(model_path)
        capsys.readouterr()
        argv = ["crf", "tag", "--model", str(model_path), "--input", str(root / "tiny.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "word_identity" in captured.err
        assert captured.out == ""

    def test_non_numeric_embedding_component_exits_1_naming_file_and_line(
        self, bench, tmp_path, capsys
    ):
        root, sc, paths = bench
        emb = tmp_path / "emb.tsv"
        emb.write_text("measles\t0.1\t0.2\nflu\t0.5\tx\n", encoding="utf-8")
        model = tmp_path / "m.npz"
        argv = ["crf", "train", "--data", str(root / "tiny.conll"), "--features", "baseline,emb",
                "--emb", str(emb), "--lambda-grid", "0.1", "--out", str(model)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}, line 2: 'flu': ") and "'x'" in err
        assert not model.exists()

    @pytest.mark.parametrize("rows,line,message", [
        ("a\tO\nb\tX\n", 2, "unknown tag 'X'"),
        ("a\tO\n\nb\tB\nc\tO\nd\tI\n", 5, "I tag without a preceding B or I"),
        ("a\tO\na B\n", 2, "expected token TAB tag, got 'a B'"),
    ])
    def test_bad_conll_row_exits_1_naming_file_and_line(
        self, tmp_path, capsys, rows, line, message
    ):
        bad = tmp_path / "bad.conll"
        bad.write_text(rows, encoding="utf-8")
        model = tmp_path / "m.npz"
        argv = ["crf", "train", "--data", str(bad), "--lambda-grid", "0.1", "--out", str(model)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}, line {line}: {message}\n"
        assert not model.exists()

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

    def test_curve_size_below_one_exits_1(self, bench, tmp_path, capsys):
        root, sc, paths = bench
        out = tmp_path / "curve.tsv"
        argv = ["crf", "curve", "--train", str(root / "tiny.conll"),
                "--test", str(root / "tiny.conll"), "--sizes=-20,5", "--out", str(out)]
        assert main(argv) == 1
        assert "size -20 is below 1" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_dict_feature_needs_dict_flag(self, bench, tmp_path):
        root, sc, paths = bench
        out = tmp_path / "curve.tsv"
        with pytest.raises(SystemExit, match="--dict"):
            main(
                [
                    "crf", "curve", "--train", str(root / "tiny.conll"),
                    "--test", str(root / "tiny.conll"), "--sizes", "5",
                    "--features", "baseline,dict", "--out", str(out),
                ]
            )
        assert not out.exists()

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


@pytest.fixture(scope="module")
def tiny_model(bench):
    root, sc, paths = bench
    model = root / "tiny.model.npz"
    argv = ["crf", "train", "--data", str(root / "tiny.conll"), "--max-iters", "5",
            "--out", str(model)]
    assert main(argv) == 0
    return model


# one command line per subcommand and text input flag, BAD standing for the
# file that is not UTF-8 and MODEL for a trained model
_TEXT_INPUTS = {
    "tag --dict": ["tag", "--dict", "BAD", "--input", "tiny.txt"],
    "tag --input": ["tag", "--dict", "hand.dict.tsv", "--input", "BAD"],
    "crf train --data": ["crf", "train", "--data", "BAD"],
    "crf train --dev": ["crf", "train", "--data", "tiny.conll", "--dev", "BAD"],
    "crf train --dict": ["crf", "train", "--data", "tiny.conll", "--features", "baseline,dict",
                         "--dict", "BAD"],
    "crf train --emb": ["crf", "train", "--data", "tiny.conll", "--features", "baseline,emb",
                        "--emb", "BAD"],
    "crf tag --input": ["crf", "tag", "--model", "MODEL", "--input", "BAD"],
    "crf curve --train": ["crf", "curve", "--train", "BAD", "--test", "tiny.conll"],
    "crf curve --test": ["crf", "curve", "--train", "tiny.conll", "--test", "BAD"],
    "crf curve --dict": ["crf", "curve", "--train", "tiny.conll", "--test", "tiny.conll",
                         "--dict", "BAD"],
    "crf curve --word-emb": ["crf", "curve", "--train", "tiny.conll", "--test", "tiny.conll",
                             "--word-emb", "BAD"],
    "crf curve --phrase-emb": ["crf", "curve", "--train", "tiny.conll", "--test", "tiny.conll",
                               "--phrase-emb", "BAD"],
}


class TestNotUtf8Input:
    @pytest.mark.parametrize("command", list(_TEXT_INPUTS))
    def test_names_the_file(self, bench, tiny_model, tmp_path, capsys, command):
        # the message the pipeline gives for its own reads, not the codec's
        root, sc, paths = bench
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"flu\t1.0\nab\xff\n")
        files = {"BAD": str(bad), "MODEL": str(tiny_model)}
        argv = [
            files.get(arg, str(root / arg) if arg.endswith((".txt", ".tsv", ".conll")) else arg)
            for arg in _TEXT_INPUTS[command]
        ]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"
        if command.startswith(("crf train", "crf curve")):
            assert not out.exists()


def test_tag_names_the_file_inside_a_corpus_directory(bench, tmp_path, capsys):
    # the file that is not UTF-8, not the directory given
    root, sc, paths = bench
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("The flu spread.\n", encoding="utf-8")
    (docs / "b.txt").write_bytes(b"ab\xff\n")
    argv = ["tag", "--dict", str(root / "hand.dict.tsv"), "--input", str(docs),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {docs / 'b.txt'}: not UTF-8 text (invalid start byte)\n"
    )
