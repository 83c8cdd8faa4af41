"""dictforge benchmark: time to dictionary, rerun, tagging and memory.

    python3 perfbench/run.py --workload demo|wide --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  A run generates ``CORPORA`` synthetic corpora, from the synth
seeds ``N*CORPORA`` to ``N*CORPORA+CORPORA-1``, and its passes cycle through
them.  Each pass sets up its corpus's inputs ``SETUP_REPS`` times
(``setup_s``), then runs ``onepass.py`` in a fresh child process.  The first
pass is a discarded warm-up on a small corpus; timed passes follow until
about ``--seconds`` have been measured, and at least ``MIN_PASSES`` of them.
Load is one process with ``jobs=1``, BLAS/OpenMP pinned to one thread and
the process pinned to one CPU.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: each is
the mean over the run's corpora of the median of the corpus's samples, but
``setup_s`` is the median of all its samples.  Times are corrected for the
host's share of the CPU (``speed.py``); the same figure of the uncorrected
times is printed alongside.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, medians over the traced passes;
its ``trace.overhead_s`` is traced minus untraced ``run_s``.

A pass fails when it raises, when its rerun or ``forge tag`` check fails,
when its F1 differs from the value pinned for its corpus seed in
``expected_f1.json``, or when its artifacts differ from those of an earlier
pass on the same corpus.  Human-readable lines, the machine description
first, go before the JSON result on the last line of stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# corpora per run, each timed at least once: a run's figures average over
# them (see _over_corpora)
CORPORA = 4
MIN_PASSES = CORPORA
SETUP_REPS = 2
DEADLINE_S = 170.0


def prepare() -> bool:
    """Import the program from this checkout's ``src/`` in this process and
    its children, with BLAS/OpenMP pinned; False if there is no source."""
    if not (SRC / "dictforge" / "__init__.py").is_file():
        print(f"error: no dictforge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # one CPU for this process and the passes it starts: migrations between
    # CPUs of a shared host widen the spread of pass times
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC)]
    return True


def _machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def corpus_seeds(seed: int) -> list[int]:
    """The synth seeds of the corpora a run with ``--seed seed`` uses."""
    return [seed * CORPORA + i for i in range(CORPORA)]


def run_pass(workload: str, seed: int, passdir: Path, trace: bool, deadline: float) -> dict:
    """Set up ``SETUP_REPS`` times, run one pass and read back its samples."""
    from onepass import MARK_EVERY_S
    from speed import SpeedClock
    from workloads import setup

    speed = SpeedClock()
    speed.start_timer(MARK_EVERY_S)
    setup_s, setup_raw = [], []
    try:
        for _ in range(SETUP_REPS):
            shutil.rmtree(passdir, ignore_errors=True)
            first = speed.mark()
            tokens = setup(workload, seed, passdir)
            last = speed.mark()
            setup_s.append(speed.corrected(first, last))
            setup_raw.append(speed.raw(first, last))
    finally:
        speed.stop_timer()
    cmd = [sys.executable, str(HERE / "onepass.py"), "--dir", str(passdir), "--tokens", str(tokens)]
    if trace:
        cmd.append("--trace")
    try:
        subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()),
                       stdout=subprocess.DEVNULL)
        result = json.loads((passdir / "result.json").read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        result = {"errors": [f"pass did not complete: {exc}"]}
    if "metrics" in result:
        result["metrics"]["setup_s"] = setup_s
        result["raw"]["setup_s"] = setup_raw
    return result


def _check(result: dict, pinned: dict | None, reference: dict | None) -> list[str]:
    errors = list(result.get("errors", []))
    if "metrics" not in result:
        return errors or ["pass produced no metrics"]
    if pinned is not None and result["f1"] != pinned:
        errors.append(f"F1 {result['f1']} differs from pinned {pinned}")
    if reference is not None and result["digests"] != reference:
        errors.append("artifacts differ from an earlier pass on the same corpus")
    return errors


def _over_corpora(good: list, key: str, name: str) -> tuple[float, list[float]]:
    """A run's figure for one metric: the mean over its corpora of each
    corpus's median sample, and all the samples.  Corrected times of one
    corpus repeat within a few percent, while the SVM's epochs to converge
    make classify up to three times slower on some corpora than on others,
    so a median over passes would jump between the two groups from run to
    run.  0 if no pass has samples under ``key``."""
    by_corpus: dict[int, list[float]] = {}
    for _, corpus, result in good:
        by_corpus.setdefault(corpus, []).extend(result.get(key, {}).get(name, []))
    medians = [statistics.median(v) for v in by_corpus.values() if v]
    return (statistics.fmean(medians) if medians else 0.0), [x for v in by_corpus.values() for x in v]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not prepare():
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pins = json.loads((HERE / "expected_f1.json").read_text(encoding="utf-8"))[args.workload]
    machine = _machine()
    print("machine:", json.dumps(machine))
    corpora = corpus_seeds(args.seed)
    unpinned = [c for c in corpora if str(c) not in pins]
    if unpinned:
        print(f"note: no F1 pinned for {args.workload} corpus seeds {unpinned}", file=sys.stderr)

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    passes: list[tuple[bool, int, dict]] = []  # (traced, corpus seed, result), warm-up excluded
    references: dict[int, dict] = {}  # corpus seed -> artifact digests of its first good pass
    failed = 0
    measured = 0.0
    # pass 0 is the warm-up (workloads.WARMUP); the timed passes after it
    # cycle through the corpora
    for index in itertools.count():
        warmup = index == 0
        traced = bool(args.trace) and not warmup and index % 2 == 0
        if not warmup:
            # stop at the pass boundary nearest to --seconds
            per_pass = measured / len(passes) if passes else 0.0
            done = len(passes) >= MIN_PASSES and measured + per_pass / 2 >= args.seconds
            if done or time.monotonic() > deadline - 2 * max(per_pass, 1.0):
                break
        corpus = corpora[index % len(corpora)]
        started = time.perf_counter()
        if warmup:
            result = run_pass("warmup", corpus, workdir / "warmup", False, deadline)
            errors = _check(result, None, None)
        else:
            result = run_pass(args.workload, corpus, workdir / f"pass-{index}", traced, deadline)
            errors = _check(result, pins.get(str(corpus)), references.get(corpus))
        elapsed = time.perf_counter() - started
        failed += bool(errors)
        for e in errors:
            print(f"pass {index} (corpus seed {corpus}) failed: {e}", file=sys.stderr)
        if not warmup:
            if not errors:
                references.setdefault(corpus, result["digests"])
            measured += elapsed
            passes.append((traced, corpus, result if not errors else {}))
    attempted = len(passes) + 1

    good = [(t, c, r) for t, c, r in passes if r]
    metrics = {}
    if args.trace:
        untraced = [r for t, _, r in good if not t]
        traced = [r for t, _, r in good if t]
        if not untraced or not traced:
            print("error: no successful traced and untraced pass", file=sys.stderr)
            return 1
        # traced passes are corrected only at stage boundaries (see onepass)
        overhead = statistics.median(r["metrics"]["run_s"][0] for r in traced) - statistics.median(
            r["metrics"]["run_s"][0] for r in untraced)
        for m in bench["per_layer"]:
            values = [r["layers"].get(m["name"], 0.0) for r in traced]
            if m["name"] == "trace.overhead_s":
                values = [overhead]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
            print(f"{m['name']}: median {statistics.median(values):.6g} {m['unit']} (n={len(values)})")
    else:
        if not good:
            print("error: no successful timed pass", file=sys.stderr)
            return 1
        for m in bench["end_to_end"]:
            if m["name"] == "ok_frac":
                value = (attempted - failed) / attempted
            elif m["name"] == "setup_s":
                # generation does the same work for every corpus of a spec
                values = [v for _, _, r in good for v in r["metrics"]["setup_s"]]
                value = statistics.median(values)
                print(f"setup_s: median {value:.6g} s (samples {len(values)}, min {min(values):.6g}, "
                      f"max {max(values):.6g})")
            else:
                value, values = _over_corpora(good, "metrics", m["name"])
                raw, _ = _over_corpora(good, "raw", m["name"])
                print(f"{m['name']}: {value:.6g} {m['unit']} (samples {len(values)}, min {min(values):.6g}, "
                      f"max {max(values):.6g}" + (f"; uncorrected {raw:.6g})" if raw else ")"))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
