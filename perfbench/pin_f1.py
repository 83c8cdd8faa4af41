"""Record the test-split F1 each workload reaches for a range of run seeds.

    python3 perfbench/pin_f1.py --seeds 0-31

Runs one untraced pass per workload and corpus seed of each run seed (see
``run.corpus_seeds``) that ``expected_f1.json`` does not pin yet, and adds
its F1 values to the file, which ``run.py`` checks every pass against.  Run
it on the commit whose outputs are the reference, and only there; after a
change to a workload, delete the file first.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORK, corpus_seeds, prepare, run_pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0-31", help="inclusive range FIRST-LAST of run seeds")
    args = ap.parse_args()
    if not prepare():
        return 2
    from workloads import WORKLOADS

    first, last = map(int, args.seeds.split("-"))
    path = HERE / "expected_f1.json"
    pinned = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in WORKLOADS:
        pins = pinned.setdefault(name, {})
        for seed in (c for s in range(first, last + 1) for c in corpus_seeds(s)):
            if str(seed) in pins:
                continue
            result = run_pass(name, seed, WORK / "pin" / name, False, float("inf"))
            if result.get("errors") or "f1" not in result:
                print(f"{name} seed {seed}: pass failed: {result.get('errors')}", file=sys.stderr)
                return 1
            pins[str(seed)] = result["f1"]
            print(name, seed, result["f1"])
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
