#!/usr/bin/env python3
"""Record ``reference.json``: the final mean regret and the artifact hashes of
each workload for the replication seeds of benchmark seeds
0..REFERENCE_SEEDS-1, run on the current source. The benchmark fails a run
whose final mean regret differs from the recorded one, and reports artifact
hashes that differ.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the root of a source checkout. Re-record only when a change of
behaviour is intended, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from checks import artifact_hashes, check_run
from run import HERE, WORK_ROOT, run_child
from workloads import REFERENCE_SEEDS, WORKLOADS, seeds_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli = [sys.executable, "-m", "seqtest.cli"]
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        work = root / WORK_ROOT / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        deadline = time.monotonic() + 3600.0
        rc, _, _ = run_child(cli + wl.gen_argv(), work, env, work / "log", deadline)
        if rc != 0:
            print(f"{name}: gen exited {rc}", file=sys.stderr)
            return 2
        entries = {}
        for seed in range(REFERENCE_SEEDS):
            seeds = wl.replication_seeds(seed)
            key = seeds_key(seeds)
            if key in entries:
                continue
            out = f"out{seed}"
            rc, wall, _ = run_child(cli + wl.simulate_argv(seed, out), work, env, work / "log",
                                    deadline)
            failures, final_mean = (check_run(work / out, wl.horizon, seeds, wl.emit_dataset)
                                    if rc == 0 else ([f"exit code {rc}"], None))
            if failures:
                print(f"{name} seeds {key}: {failures}", file=sys.stderr)
                return 2
            entries[key] = {"final_mean_regret": final_mean,
                            "artifacts": artifact_hashes(work / out)}
            shutil.rmtree(work / out)
            print(f"{name} seeds {key}: {final_mean!r} ({wall:.1f} s)", flush=True)
        shutil.rmtree(work)
        reference["workloads"][name] = entries
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
