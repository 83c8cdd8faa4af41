"""The benchmark's layer tracer still wraps names the program defines.

``perfbench/tracer.py`` patches module attributes by name, so a rename in
the program breaks only traced benchmark runs.  This loads the tracer from
its file, without changing it, and checks its wrap list against the code.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer_module):
    for module_name, attr, _, _ in tracer_module.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_install_then_uninstall_restores_originals(tracer_module):
    originals = {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _, _ in tracer_module.WRAPS
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            assert getattr(importlib.import_module(module_name), attr) is not original
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is original


def test_sentence_counters(tracer_module, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Flu spreads. It mutates.\nEbola too.\n", encoding="utf-8")
    import dictforge.pipeline

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        sentences = list(dictforge.pipeline.iter_sentences(corpus))
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert counts["corpus.sentences"] == len(sentences) == 3
    assert counts["corpus.tokens"] == sum(len(s.tokens) for s in sentences) == 9


def test_view_counters(tracer_module, tmp_path):
    import dictforge.pipeline
    from dictforge.corpus import segment_sentences
    from dictforge.extraction import CandidatePhrase

    sentences = segment_sentences("The flu spread. Ebola and flu are here.")
    cands = [CandidatePhrase(w, 1) for w in ("flu", "ebola")]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        views = dictforge.pipeline.build_design_matrices(
            dictforge.pipeline.collect_occurrences(sentences, cands)
        )
        with open(tmp_path / "X.npz", "wb") as fh:
            dictforge.pipeline.write_triplets(views.X, fh)
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert counts["views.occurrences"] == views.n == 3
    assert counts["views.d_spelling"] == views.X.shape[1] == 3
    assert counts["views.d_context"] == views.Z.shape[1]
    assert counts["views.nnz"] == views.X.nnz + views.Z.nnz
    assert counts["views.triplet_bytes"] == (tmp_path / "X.npz").stat().st_size > 0
