"""Make reference_hashes.json anew from the current checkout.

    python3 perfbench/make_reference.py [SEED...]

Runs one checked pass of toy_batch (its outputs do not depend on the seed)
and one of variance and single_large for each SEED (default 0-19), and
writes the sha256 of every output file to perfbench/reference_hashes.json.
Benchmark runs compare their outputs with these and report any mismatch.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(20))
    jobs = [("toy_batch", 0)] + [(w, s) for w in ("variance", "single_large") for s in seeds]
    reference = {}
    for name, seed in jobs:
        bench = run.Run(name, seed, time.perf_counter() + run.RUN_BUDGET_S)
        bench.prepare()
        if bench.bagkit_pass() is None or bench.problems:
            print(f"{name} seed {seed}: pass failed or outputs wrong: {bench.problems}")
            return 1
        reference[bench.workload.reference_key(seed)] = bench.hashes
        print(f"{name} seed {seed}: {bench.hashes}", flush=True)
    text = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    run.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
