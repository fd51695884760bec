"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record.py [--seeds 0-10] [--workload NAME ...]

Run on the commit the benchmark is anchored to. For each workload it runs
one untraced pass per seed and stores the seed-independent outputs once
(they must agree across seeds), the Monte Carlo and oracle outputs per
seed, and the names of the operations that fail on this commit as the
known-failure baseline. Entries of workloads not named are kept.
"""

import argparse
import json
import sys
import time

import run
from checks import SEEDED_KINDS, check

REFERENCE = run.HERE / "reference.json"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload, seeds):
    fixed, seeded = None, {}
    for seed in seeds:
        outputs = run.run_pass(workload, seed, 0, time.monotonic() + 3600)["outputs"]
        this = {k: v for k, v in outputs.items() if v.get("kind") not in SEEDED_KINDS}
        if fixed is None:
            fixed = this
        elif this != fixed:
            changed = sorted(k for k in set(this) | set(fixed)
                             if this.get(k) != fixed.get(k))
            sys.exit(f"{workload}: seed {seed} changed seed-independent "
                     f"outputs {changed[:5]}")
        seeded[str(seed)] = {k: v for k, v in outputs.items()
                             if v.get("kind") in SEEDED_KINDS}
        print(f"{workload} seed {seed} recorded", file=sys.stderr)
    entry = {"outputs": fixed, "seeded": seeded, "known_failures": []}
    ops, _, _ = check(outputs, entry, seeds[-1])
    entry["known_failures"] = sorted({name for name, ok, _ in ops if not ok})
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-10"))
    parser.add_argument("--workload", action="append",
                        choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    reference = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
                 else {"workloads": {}})
    for workload in args.workload or sorted(run.WORKLOADS):
        reference["workloads"][workload] = record(workload, args.seeds)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
