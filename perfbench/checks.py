"""Output checks and artifact hashes for one ``seqtest simulate`` run directory."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Relative tolerance of recomputed columns and of the final mean regret
# against its recorded reference.
RTOL = 1e-9


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_hashes(out_dir) -> dict:
    """File name -> sha256 of every file the run wrote."""
    return {name: sha256_file(Path(out_dir) / name) for name in sorted(os.listdir(out_dir))}


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=RTOL, atol=RTOL))


def check_run(out_dir, horizon: int, seeds, emit_dataset: bool):
    """(failures, final mean cumulative regret) of a finished run directory.

    Each trace has ``horizon`` rows; cumulative_regret is the running sum of
    simple_regret; aggregate.csv holds the per-episode mean and population sd
    of the seed traces' cumulative regret; a dataset row has as many observed
    (non-``NA``) cells as the trace row's tests_performed.
    """
    out = Path(out_dir)
    failures = []
    expected = {"effective-config.json", "aggregate.csv"}
    expected |= {f"trace_seed{s}.csv" for s in seeds}
    if emit_dataset:
        expected |= {f"dataset_seed{s}.csv" for s in seeds}
    present = set(os.listdir(out)) if out.is_dir() else set()
    if present != expected:
        return [f"artifacts {sorted(present)} != expected {sorted(expected)}"], None

    config = json.loads((out / "effective-config.json").read_text())
    if config["horizon"] != horizon or config["seeds"] != list(seeds):
        failures.append("effective-config.json does not echo the horizon and seeds")

    cumulative = []
    episodes = np.arange(1, horizon + 1)
    for seed in seeds:
        name = f"trace_seed{seed}.csv"
        # episode, tests_performed, simple_regret, cumulative_regret
        cols = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=(0, 2, 6, 7), ndmin=2)
        if cols.shape[0] != horizon or not np.array_equal(cols[:, 0], episodes):
            failures.append(f"{name}: {cols.shape[0]} rows, expected episodes 1..{horizon}")
            continue
        if not _close(np.cumsum(cols[:, 2]), cols[:, 3]):
            failures.append(f"{name}: cumulative_regret is not the running sum of simple_regret")
        cumulative.append(cols[:, 3])
        if emit_dataset:
            failures += _check_dataset(out / f"dataset_seed{seed}.csv", cols[:, 1])

    agg = np.loadtxt(out / "aggregate.csv", delimiter=",", skiprows=1, ndmin=2)
    final_mean = float(agg[-1, 1]) if agg.shape[0] else None
    if agg.shape[0] != horizon or not np.array_equal(agg[:, 0], episodes):
        failures.append(f"aggregate.csv: {agg.shape[0]} rows, expected episodes 1..{horizon}")
    elif len(cumulative) == len(seeds):
        stacked = np.vstack(cumulative)
        if not _close(stacked.mean(axis=0), agg[:, 1]):
            failures.append("aggregate.csv: mean_cumulative_regret is not the mean over seeds")
        if not _close(stacked.std(axis=0, ddof=0), agg[:, 2]):
            failures.append("aggregate.csv: sd_cumulative_regret is not the population sd")
    return failures, final_mean


def _check_dataset(path, tests_performed) -> list:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        observed = [sum(cell != "NA" for cell in line.rstrip("\n").split(",")[1:]) for line in fh]
    if len(observed) != len(tests_performed):
        return [f"{path.name}: {len(observed)} rows, expected {len(tests_performed)}"]
    bad = int(np.count_nonzero(np.array(observed) != tests_performed))
    if bad:
        return [f"{path.name}: {bad} rows whose observed cells != tests_performed"]
    return []


def regret_matches(final_mean: float, reference: float) -> bool:
    return abs(final_mean - reference) <= RTOL * max(1.0, abs(reference))
