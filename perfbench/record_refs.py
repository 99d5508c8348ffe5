"""Record the reference outputs the benchmark checks against.

Usage, from the root of a checkout of the commit whose outputs are the
reference (the seed commit for the files in perfbench/refs/):

    python3 perfbench/record_refs.py [workload ...]

Writes perfbench/refs/<workload>.json for every pool seed and the held-out
seed.  Re-recording against changed code would hide the change, so do it
only when the reference commit itself changes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(name: str) -> dict:
    cls = workloads.WORKLOADS[name]
    out = {"recorded_from": _commit(), "pool_seeds": list(workloads.POOL_SEEDS),
           "holdout_seed": workloads.HOLDOUT_SEED}
    if name == "decompose_catalog":
        out["outputs"] = cls(0).run_pass()["outputs"]
        return out
    out["seeds"] = {}
    for seed in workloads.POOL_SEEDS + (workloads.HOLDOUT_SEED,):
        wl = cls(seed)
        wl.setup()
        out["seeds"][str(seed)] = wl.run_pass()["outputs"]
        print(f"{name}: seed {seed} recorded", file=sys.stderr, flush=True)
    return out


def main() -> int:
    workloads.import_program()
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        data = record(name)
        with open(workloads.REFS_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
