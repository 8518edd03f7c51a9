"""Record the result digest of every operation for the committed seeds.

    python3 perfbench/record.py

Runs one pass of each workload at seeds.DEFAULT and seeds.HELD_OUT, checks
it (validations and cross-checks must all pass), and writes
perfbench/expected/<workload>.json. Record on the commit whose outputs are
the reference: the repository freezes its outputs, so a later commit that
changes any digest has changed an answer.
"""

from __future__ import annotations

import json
import random
import sys

import run
import seeds
import workloads


def main() -> int:
    problem = run.use_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    out = run.HERE / "expected"
    out.mkdir(exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        table = {}
        for seed in (seeds.DEFAULT, seeds.HELD_OUT):
            ep = workloads.load_epivote()
            wl = build(ep, seed, run.ROOT)
            checker = run.Checker(None)
            try:
                run.run_phase(wl, ep, 0, checker)  # a budget of 0 s runs one pass
                for msg in wl.cross_check(random.Random(seed), checker.first_results()):
                    checker.fail("cross-check: " + msg)
            finally:
                wl.close()
            if checker.failed:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            table[str(seed)] = {str(k): d for k, d in sorted(checker.seen.items())}
            print(f"{name} seed {seed}: {len(wl.ops)} operations recorded")
        (out / f"{name}.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
