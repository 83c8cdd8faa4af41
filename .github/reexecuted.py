"""Check which stages a pipeline run re-executed.

    python .github/reexecuted.py OUTDIR/manifest.json [STAGE ...]

Prints the stages of the manifest that re-executed, that were served from
the stage cache and that were skipped, and exits 1 unless the re-executed
stages are exactly the STAGEs named; with none named, no stage may
re-execute.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    skipped = sorted(s for s, record in stages.items() if "skipped" in record)
    cached = sorted(s for s, record in stages.items() if record.get("cached") is True)
    ran = sorted(set(stages) - set(skipped) - set(cached))
    print(f"re-executed: {ran}; cached: {cached}; skipped: {skipped}")
    if ran != sorted(argv[1:]):
        print(f"expected re-executed: {sorted(argv[1:])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
