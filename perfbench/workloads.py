"""Workload definitions and input set-up for the dictforge benchmark.

Every workload uses the pipeline config of ``demos/synthetic_benchmark.py``
(cca.k=20, a 2x2x6 SVM grid, 4 co-training thetas, CRF baseline,dict with
lambda in {0.01, 0.1} and max_iters=150).  The synthetic specs are scaled so
that a pass (cold run, seed-comment reruns, ``forge tag``) takes about ten
seconds on a 2-core machine, so a run of warm-up plus timed passes stays
within the benchmark's time budget; the comments give each shape's reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from dictforge.synth import SynthSpec, generate
from dictforge.tagging import write_conll

CONFIG = """\
[inputs]
corpus = data/corpus.txt
patterns = data/patterns.txt
seeds = data/seeds.txt
{train}dev = data/dev.conll
test = data/test.conll

[output]
dir = out

[cca]
k = 20

[svm]
c_grid = 0.1 1
k_grid = 10 20
threshold_grid = 0 0.1 0.2 0.3 0.4 0.5

[cotrain]
theta_grid = 0.5 0.7 0.9 1.0

[crf]
features = baseline,dict
lambda_grid = 0.01 0.1
max_iters = 150
"""


@dataclass(frozen=True)
class Workload:
    spec: SynthSpec
    # tagger-training sentences kept from the synth train split; None
    # leaves inputs.train out of the config, so the crf stage is skipped
    crf_train: int | None


WORKLOADS = {
    # The demo spec.  The CRF trains on the first 25 of the 400 labeled
    # training sentences so that one pass fits the run budget while the
    # CRF still dominates run_s.
    "demo": Workload(SynthSpec(n_sentences=8000, n_entities=30, n_distractors=90), 25),
    # 1600 candidates with only 3 guaranteed mentions each: dense whitening
    # at d1 = 1601, a grid scoring large dictionaries and a tagger that
    # slows with dictionary size.
    "wide": Workload(
        SynthSpec(
            n_sentences=5500,
            n_entities=320,
            n_distractors=1280,
            min_mentions=3,
            mention_rate=0.9,
        ),
        None,
    ),
}


# The discarded warm-up pass of a run: a small corpus, enough to bring the
# program, its libraries and the generator into the page cache.  Every pass
# imports all of the program before its timed phases, so the crf stage, which
# only adds compute, is left out.
WARMUP = Workload(SynthSpec(n_sentences=2000, n_entities=30, n_distractors=90), None)


def setup(name: str, seed: int, dest: Path) -> int:
    """Generate the inputs of workload ``name`` (or of the warm-up pass, for
    ``"warmup"``) under ``dest`` and write its config.

    Returns the number of corpus tokens, which ``forge tag`` must reproduce.
    """
    workload = WARMUP if name == "warmup" else WORKLOADS[name]
    corpus = generate(replace(workload.spec, seed=seed))
    paths = corpus.write(dest / "data")
    if workload.crf_train is not None:
        with open(paths["train"], "w", encoding="utf-8") as fh:
            write_conll(corpus.splits()["train"][: workload.crf_train], fh)
    train_line = "train = data/train.conll\n" if workload.crf_train is not None else ""
    (dest / "pipeline.cfg").write_text(CONFIG.format(train=train_line), encoding="utf-8")
    return sum(len(s) for s in corpus.sentences)
