"""The ``forge`` command: one-shot pipeline runs plus direct access to
the tagger, the benchmark generator, and the sequence model."""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager, nullcontext
from decimal import Decimal
from itertools import count, islice, takewhile
from typing import Iterator

from .corpus import iter_chunks, iter_sentences
from .crf import (
    CrfModel,
    FeatureConfig,
    SentinelEmbeddings,
    learning_curve,
    standard_variants,
    tag_sentences,
    write_curve_tsv,
)
from .cca import read_embeddings
from .pipeline import (
    _KEYS,
    PipelineConfigError,
    StageError,
    run_pipeline,
    select_crf,
    validate_config,
    _violation,
)
from .synth import SynthSpec, generate
from .tagging import (
    conll_text,
    dictionary_codes,
    read_conll,
    read_dictionary,
    write_conll,
)
# not called here: perfbench/tracer.py's WRAPS wraps it under this module
from .tagging import tag_with_dictionary  # noqa: F401

__all__ = ["main"]


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    """Either an explicit list ("0.01,0.1,1"), parsed and checked like the
    ``crf.lambda_grid`` config key, or a decade range ("1e-4..10") of
    finite positive bounds expanded one exact decade at a time, so
    "3e-5..3" gives 3e-05, 0.0003, ... 3.0."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        if not 0 < float(lo_s) <= float(hi_s) < math.inf:
            raise ValueError(f"bad grid range: {text!r}")
        lo, hi = Decimal(lo_s.strip()), Decimal(hi_s.strip())
        decades = (lo.scaleb(i) for i in count())
        return tuple(map(float, takewhile(lambda v: v <= hi, decades)))
    parse, check = _KEYS["crf"]["lambda_grid"]
    vals = parse(text)
    for v in vals:
        if (why := _violation(v, check)) is not None:
            raise ValueError(f"bad grid value: {why} (got {v})")
    return vals


@contextmanager
def _utf8(path: str):
    """A decode error of the reads inside the block names ``path``, as the
    pipeline names the files it reads."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read(reader, path: str, **kwargs):
    """``reader(path)``, a decode error naming ``path``."""
    with _utf8(path):
        return reader(path, **kwargs)


def _features_and_dicts(args) -> tuple[FeatureConfig, tuple]:
    """The --features config and the --dict dictionaries it needs."""
    config = FeatureConfig.from_flags(args.features)
    dictionaries = tuple(_read(read_dictionary, p) for p in args.dict or ())
    if config.dict_match and not dictionaries:
        raise SystemExit("--features includes dict but no --dict given")
    return config, dictionaries


def _load_crf_extras(args) -> tuple[FeatureConfig, tuple, SentinelEmbeddings | None]:
    config, dictionaries = _features_and_dicts(args)
    embeddings = None
    if config.embedding:
        if not args.emb:
            raise SystemExit("--features includes emb but no --emb given")
        embeddings = SentinelEmbeddings(_read(read_embeddings, args.emb))
    return config, dictionaries, embeddings


# sentences `forge crf tag` reads ahead and decodes in one batch
_TAG_CHUNK = 1024


def _read_tokens(path: str) -> Iterator[list[str]]:
    """Token texts of each corpus sentence, streamed."""
    return (list(s.tokens) for s in iter_sentences(path))


def _open_out(path: str | None):
    """The ``--out`` file, or stdout (left open) when none is given."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _cmd_run(args) -> int:
    config = validate_config(args.config)
    stages = args.stages.split(",") if args.stages else None
    log = (lambda s: None) if args.quiet else lambda s: print(s, file=sys.stderr)
    run_pipeline(config, stages=stages, log=log)
    if not args.quiet:
        print(f"manifest: {config.outdir / 'manifest.json'}", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_sentences=args.sentences,
        n_entities=args.entities,
        n_distractors=args.distractors,
        seed=args.seed,
    )
    paths = generate(spec).write(args.out)
    for name in sorted(paths):
        print(f"{name}\t{paths[name]}")
    return 0


def _cmd_tag(args) -> int:
    dictionary = _read(read_dictionary, args.dict)
    with _open_out(args.out) as out, _utf8(args.input):
        for corpus in iter_chunks(args.input):
            out.write(conll_text(corpus, dictionary_codes(corpus, dictionary)))
    return 0


def _cmd_crf_train(args) -> int:
    config, dictionaries, embeddings = _load_crf_extras(args)
    train = _read(read_conll, args.data, strict=True)
    grid = _parse_lambda_grid(args.lambda_grid)
    if len(grid) > 1 and not args.dev:
        raise SystemExit("--lambda-grid has several points; --dev is required")
    dev = _read(read_conll, args.dev, strict=True) if args.dev else None
    model, chosen, reports = select_crf(
        train, config, grid, dev, args.max_iters, dictionaries, embeddings
    )
    for row in reports:
        print(f"lambda={row['lambda']:g}\tdev_f1={row['f1']:.4f}", file=sys.stderr)
    model.save(args.out)
    print(f"saved {args.out} (lambda={chosen['lambda']:g})", file=sys.stderr)
    return 0


def _cmd_crf_tag(args) -> int:
    model = CrfModel.load(args.model)
    sentences = _read_tokens(args.input)
    with _open_out(args.out) as out, _utf8(args.input):
        while chunk := list(islice(sentences, _TAG_CHUNK)):
            write_conll(zip(chunk, tag_sentences(model, chunk)), out)
    return 0


def _cmd_crf_curve(args) -> int:
    config, dictionaries = _features_and_dicts(args)
    word_emb = SentinelEmbeddings(_read(read_embeddings, args.word_emb)) if args.word_emb else None
    phrase_emb = (
        SentinelEmbeddings(_read(read_embeddings, args.phrase_emb)) if args.phrase_emb else None
    )
    variants = standard_variants(config, dictionaries, word_emb, phrase_emb)
    train = _read(read_conll, args.train, strict=True)
    test = _read(read_conll, args.test, strict=True)
    sizes = [int(v) for v in args.sizes.replace(",", " ").split()]
    rows = learning_curve(
        train, test, sizes, variants,
        regularizer=args.regularizer, max_iters=args.max_iters,
    )
    with _open_out(args.out) as out:
        write_curve_tsv(rows, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Build entity dictionaries from raw text and seed examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute the pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", help="comma-separated subset to run")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("synth", help="write the synthetic benchmark corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sentences", type=int, default=20000)
    p.add_argument("--entities", type=int, default=60)
    p.add_argument("--distractors", type=int, default=220)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("tag", help="tag raw text with a dictionary")
    p.add_argument("--dict", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tag)

    crf = sub.add_parser("crf", help="sequence model commands")
    crf_sub = crf.add_subparsers(dest="crf_command", required=True)

    p = crf_sub.add_parser("train", help="train a tagger, selecting lambda on dev")
    p.add_argument("--data", required=True)
    p.add_argument("--dev")
    p.add_argument("--features", default="baseline")
    p.add_argument("--dict", action="append")
    p.add_argument("--emb")
    p.add_argument("--lambda-grid", default="0.1", dest="lambda_grid")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_crf_train)

    p = crf_sub.add_parser("tag", help="tag raw text with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_crf_tag)

    p = crf_sub.add_parser("curve", help="learning curve across training sizes")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--sizes", default="10,50,200")
    p.add_argument("--features", default="baseline")
    p.add_argument("--dict", action="append")
    p.add_argument("--word-emb", dest="word_emb")
    p.add_argument("--phrase-emb", dest="phrase_emb")
    p.add_argument("--regularizer", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_crf_curve)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
