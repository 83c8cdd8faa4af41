"""One benchmark pass in a fresh process, so its peak RSS is its own.

    python3 perfbench/onepass.py --dir PASS_DIR --tokens N [--trace]

PASS_DIR holds ``pipeline.cfg`` and its ``data/`` as written by
``workloads.setup``.  The pass times three phases through public entry
points and checks their outputs:

1. cold ``run_pipeline`` of every applicable stage into an empty ``out/``;
2. the seed-comment rerun: a ``#`` comment appended to ``seeds.txt`` changes
   its hash but not its meaning, so exactly classify and cotrain re-execute
   and every artifact stays byte-identical;
3. ``forge tag`` of the whole corpus with the ``dict.cca.tsv`` just built,
   whose output must hold all N corpus tokens.

Times are corrected for the host's share of the CPU with
``speed.SpeedClock``; the raw times are kept alongside.  The samples are
written to ``PASS_DIR/result.json``; a pass that raises still writes one,
with the error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path

import dictforge.cli
from dictforge.pipeline import run_pipeline, validate_config
from speed import SpeedClock
from tracer import Tracer

# seconds between the speed marks taken inside untraced phases
MARK_EVERY_S = 0.25


def _digests(outdir: Path) -> dict[str, str]:
    """Content hash of every artifact; the manifest records timings and
    cache flags, so it is left out."""
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _stage_status(manifest) -> dict[str, list[str]]:
    """Stages by outcome.  A skipped stage is recorded as ``{"skipped": why}``
    with no ``cached`` key, so it must be told apart before testing
    ``cached``."""
    status = {"run": [], "cached": [], "skipped": []}
    for stage, record in manifest.stages.items():
        if "skipped" in record:
            status["skipped"].append(stage)
        elif record.get("cached"):
            status["cached"].append(stage)
        else:
            status["run"].append(stage)
    return status


class _StageClock:
    """Stage spans from the log callback: each stage ends at its log line
    and starts where the previous one ended.  Every log line is also a
    speed mark; the kernel runs are left out of the spans."""

    def __init__(self, tracer: Tracer | None, speed: SpeedClock):
        self.tracer = tracer
        self.speed = speed
        self.events: list[tuple[str, float, int]] = []  # (message, outer span time, mark)

    def _outer_s(self) -> float:
        return self.tracer.outer_s if self.tracer else 0.0

    def start(self) -> None:
        self.events = []
        self._outer = self._outer_s()
        self.first = self.speed.mark()

    def log(self, message: str) -> None:
        self.events.append((message, self._outer_s(), self.speed.mark()))

    def stop(self) -> tuple[float, float]:
        """Corrected and raw seconds since ``start``."""
        last = self.speed.mark()
        return self.speed.corrected(self.first, last), self.speed.raw(self.first, last)

    def done_at(self, stage: str) -> float:
        """Corrected seconds from ``start`` to the stage's done line."""
        for message, _, mark in self.events:
            if message.startswith(f"{stage}: done"):
                return self.speed.corrected(self.first, mark)
        raise RuntimeError(f"log never reported {stage} done")

    def stage_metrics(self, prefix: str) -> dict[str, float]:
        """Raw wall, self and coverage of each stage; self time is the stage
        span minus the outermost layer spans inside it."""
        out = {}
        begin, outer_before = self.first, self._outer
        for message, outer, mark in self.events:
            stage = message.split(":", 1)[0]
            wall = self.speed.raw(begin, mark)
            covered = outer - outer_before
            out[f"{prefix}pipeline.stage.{stage}_s"] = wall
            out[f"{prefix}pipeline.stage.{stage}_self_s"] = wall - covered
            out[f"{prefix}trace.coverage.{stage}"] = covered / wall if wall > 0 else 0.0
            begin, outer_before = mark, outer
        return out


def _rerun(config, clock: _StageClock, cold: dict, before: dict, errors: list[str]):
    """Append a seed comment and run again; returns (corrected seconds, raw
    seconds, stage status)."""
    with open(config.seeds, "a", encoding="utf-8") as fh:
        fh.write("# benchmark rerun marker\n")
    clock.start()
    manifest = run_pipeline(config, jobs=1, log=clock.log)
    seconds, raw = clock.stop()
    status = _stage_status(manifest)
    if sorted(status["run"]) != ["classify", "cotrain"]:
        errors.append(f"rerun executed {status['run']}, not exactly classify and cotrain")
    if status["skipped"] != cold["skipped"]:
        errors.append(f"rerun skipped {status['skipped']}, cold run {cold['skipped']}")
    if _digests(config.outdir) != before:
        errors.append("rerun changed artifact bytes")
    return seconds, raw, status


def _tag(config, passdir: Path, tokens: int, speed: SpeedClock, errors: list[str]):
    """``forge tag`` of the whole corpus; returns (corrected, raw) seconds."""
    tagged = passdir / "tagged.conll"
    argv = ["tag", "--dict", str(config.outdir / "dict.cca.tsv"),
            "--input", str(config.corpus), "--out", str(tagged)]
    first = speed.mark()
    code = dictforge.cli.main(argv)
    last = speed.mark()
    with open(tagged, encoding="utf-8") as fh:
        tagged_tokens = sum(1 for line in fh if line.strip())
    if code != 0:
        errors.append(f"forge tag exited {code}")
    if tagged_tokens != tokens:
        errors.append(f"forge tag wrote {tagged_tokens} tokens, corpus has {tokens}")
    return speed.corrected(first, last), speed.raw(first, last)


def run_pass(passdir: Path, tokens: int, tracer: Tracer | None, speed: SpeedClock) -> dict:
    """Cold run, seed-comment rerun and tag, each once."""
    errors: list[str] = []
    metrics: dict[str, list[float]] = {}  # corrected samples of each end-to-end metric
    raw: dict[str, list[float]] = {}  # the same samples uncorrected
    config = validate_config(passdir / "pipeline.cfg")
    clock = _StageClock(tracer, speed)

    # 1. cold run
    clock.start()
    manifest = run_pipeline(config, jobs=1, log=clock.log)
    run_s, raw_run_s = clock.stop()
    metrics["run_s"], raw["run_s"] = [run_s], [raw_run_s]
    metrics["dict_s"] = [clock.done_at("classify")]
    cold = _stage_status(manifest)
    if cold["cached"]:
        errors.append(f"cold run served cached stages {cold['cached']}")
    stage_metrics = clock.stage_metrics("")
    before = _digests(config.outdir)

    # 2. seed-comment rerun
    if tracer:
        tracer.phase = "rerun."
    seconds, raw_seconds, rerun = _rerun(config, clock, cold, before, errors)
    metrics["rerun_s"], raw["rerun_s"] = [seconds], [raw_seconds]
    stage_metrics.update(clock.stage_metrics("rerun."))
    for prefix, status in (("", cold), ("rerun.", rerun)):
        for outcome, stages in status.items():
            stage_metrics[f"{prefix}pipeline.stages_{outcome}"] = len(stages)

    # 3. forge tag of the whole corpus
    if tracer:
        tracer.phase = "tag."
    seconds, raw_seconds = _tag(config, passdir, tokens, speed, errors)
    metrics["tag_tok_per_s"], raw["tag_tok_per_s"] = [tokens / seconds], [tokens / raw_seconds]

    report = json.loads((config.outdir / "report.json").read_text(encoding="utf-8"))
    f1 = {"f1_cca": report["cca"]["f1"], "f1_cotrain": report["cotrain"]["f1"]}
    metrics.update({name: [value] for name, value in f1.items()})
    crf_json = config.outdir / "crf.json"
    if crf_json.is_file():
        f1["f1_crf"] = json.loads(crf_json.read_text(encoding="utf-8"))["test"]["f1"]
    result = {"metrics": metrics, "raw": raw, "f1": f1, "errors": errors, "digests": before}
    if tracer:
        result["layers"] = {**tracer.metrics(), **stage_metrics}
        if "f1_crf" in f1:
            result["layers"]["crf.test_f1"] = f1["f1_crf"]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--tokens", required=True, type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    speed = SpeedClock()
    if tracer:
        tracer.install()
    else:
        # the timer's kernels would land inside traced layer spans, so a
        # traced pass is corrected only at stage and phase boundaries
        speed.start_timer(MARK_EVERY_S)
    try:
        result = run_pass(args.dir, args.tokens, tracer, speed)
    except Exception:
        result = {"errors": [traceback.format_exc()]}
    finally:
        speed.stop_timer()
        if tracer:
            tracer.uninstall()
    if "metrics" in result:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    if tracer:
        with open(args.dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
