#!/usr/bin/env python3
"""seqtest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is run from ``src/`` as
``python3 -m seqtest.cli``. Each run of a workload:

1. set-up: runs the workload's ``seqtest gen`` several times (``setup_s`` is
   the median wall time) and checks that every call wrote the same instance;
2. closed loop: runs ``seqtest simulate`` back to back until ``S`` seconds of
   simulate wall time are measured (at least one call). Every call's outputs
   are checked and hashed; a call that exits non-zero or fails a check counts
   all its seeds as failed;
3. with ``--trace 1``, runs gen and simulate once more in one process with
   every layer wrapped in a timing span (``traced_main.py``), checks that the
   traced artifacts are byte-identical to the untraced ones, and reports the
   per-layer metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``, with
the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``; ``attempted``/``failed`` count replication seeds. The line
before it is a record of the run: machine, per-call figures, artifact hashes,
failures, and hash drift against ``reference.json``. Records are also kept in
``.bench_build/perfbench/results``. Artifact hashes are kept per source tree
in ``.bench_build/perfbench/ledger.json``; a later run of the same source and
commands whose artifacts differ fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from checks import artifact_hashes, check_run, regret_matches, sha256_file
from tracer import layer_metrics, load_spans
from workloads import INSTANCE_FILE, LAYER_METRICS, WORKLOADS, seeds_key

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_build") / "perfbench"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # every child is killed past this point of the run


class SetupError(RuntimeError):
    pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(cmd, cwd, env, log_path, deadline):
    """(exit code, wall seconds, peak RSS in MB) of one child process.

    The peak RSS comes from the child's own rusage (``wait4``): the larger of
    the child's peak and that of the descendants it waited for, such as pool
    workers. The child runs in its own session, killed whole at ``deadline``.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # descendants the child left behind, if any
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path, lines=5) -> str:
    text = Path(path).read_text(errors="replace").splitlines()
    return " | ".join(text[-lines:])


def checked_run(wl, seeds, out_dir):
    """``check_run`` with unreadable artifacts reported as a failure."""
    try:
        return check_run(out_dir, wl.horizon, seeds, wl.emit_dataset)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc!r}"], None


def source_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def machine(root: Path, source_sha256: str) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source_sha256,
    }


def _update_ledger(key: str, hashes: dict):
    """Hashes recorded earlier under ``key`` (the source and the commands run),
    or None; records ``hashes`` when there are none."""
    path = WORK_ROOT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = hashes
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return earlier


def run_workload(wl, seed: int, seconds: int, trace: bool, root: Path, work: Path, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cli = [sys.executable, "-m", "seqtest.cli"]
    seeds = wl.replication_seeds(seed)
    run_failures = []

    setup_walls = []
    instance_hashes = set()
    for _ in range(SETUP_REPEATS):
        rc, wall, _ = run_child(cli + wl.gen_argv(), work, env, work / "gen.log", deadline)
        if rc != 0:
            raise SetupError(f"seqtest gen exited {rc}: {_tail(work / 'gen.log')}")
        setup_walls.append(wall)
        instance_hashes.add(sha256_file(work / INSTANCE_FILE))
    if len(instance_hashes) != 1:
        run_failures.append("repeated gen calls wrote different instances")

    reference = json.loads((HERE / "reference.json").read_text())["workloads"]
    ref = reference.get(wl.name, {}).get(seeds_key(seeds))
    if ref is None:
        run_failures.append("no reference recorded for these replication seeds")

    def simulate(cmd, out, log):
        rc, wall, rss = run_child(cmd, work, env, work / log, deadline)
        call = {"wall_s": wall, "peak_rss_mb": rss, "failures": [], "hashes": {}}
        if rc != 0:
            call["failures"].append(f"exit code {rc}: {_tail(work / log)}")
            return call
        call["failures"], call["final_mean_regret"] = checked_run(wl, seeds, work / out)
        if ref is not None and call["final_mean_regret"] is not None and not regret_matches(
                call["final_mean_regret"], ref["final_mean_regret"]):
            call["failures"].append(
                f"final mean regret {call['final_mean_regret']!r} != reference "
                f"{ref['final_mean_regret']!r}")
        call["hashes"] = artifact_hashes(work / out)
        shutil.rmtree(work / out)
        return call

    calls = []
    measured = 0.0
    while True:
        out = f"out{len(calls)}"
        calls.append(simulate(cli + wl.simulate_argv(seed, out), out, "simulate.log"))
        measured += calls[-1]["wall_s"]
        if measured >= seconds or time.monotonic() + 2 * calls[-1]["wall_s"] > deadline:
            break
    hashes = calls[0]["hashes"]
    if any(c["hashes"] != hashes for c in calls):
        run_failures.append("repeated simulate calls wrote different artifacts")
    fingerprint = source_fingerprint(root)
    if hashes:
        commands = " ".join(wl.gen_argv() + wl.simulate_argv(seed, "out"))
        earlier = _update_ledger(f"{fingerprint} {commands}", hashes)
        if earlier is not None and earlier != hashes:
            run_failures.append("artifacts differ from an earlier run of the same source and seeds")
    drift = sorted(name for name in set(hashes) | set(ref["artifacts"] if ref else {})
                   if ref and ref["artifacts"].get(name) != hashes.get(name))

    sim_median = statistics.median(c["wall_s"] for c in calls)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "replication_seeds": seeds,
        "horizon": wl.horizon,
        "trace": int(trace),
        "machine": machine(root, fingerprint),
        "setup_walls_s": setup_walls,
        "simulate_calls": [{k: v for k, v in c.items() if k != "hashes"} for c in calls],
        "artifact_sha256": hashes,
        "drift_from_reference": drift,
    }

    if trace:
        traced = traced_run(wl, seed, work, env, deadline, sim_median)
        calls.append(traced["call"])
        if traced["call"]["hashes"] and traced["call"]["hashes"] != hashes:
            traced["call"]["failures"].append("traced artifacts differ from untraced ones")
        record["traced_call"] = {k: v for k, v in traced["call"].items() if k != "hashes"}
        record["layer_map"] = {name: {"moves": e2e, "on": list(on)}
                               for name, _, e2e, on in LAYER_METRICS}
        metrics = traced["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "simulate_s": {"value": sim_median, "unit": "s"},
            "episodes_per_s": {"value": wl.horizon * len(seeds) / sim_median, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in calls),
                            "unit": "MB"},
        }

    failed_calls = len(calls) if run_failures else sum(bool(c["failures"]) for c in calls)
    record["failures"] = run_failures + [f for c in calls for f in c["failures"]]
    result = {
        "correct": not record["failures"],
        "attempted": len(calls) * len(seeds),
        "failed": failed_calls * len(seeds),
        "metrics": metrics,
    }
    record["failed_seeds_frac"] = result["failed"] / result["attempted"]
    return record, result


def traced_run(wl, seed, work, env, deadline, untraced_simulate_s):
    """Gen and simulate in one traced process; its call record and per-layer metrics."""
    out = "traced_out"
    workers = work / "workers"
    workers.mkdir()
    commands = [wl.gen_argv(), wl.simulate_argv(seed, out)]
    cmd = [sys.executable, str(HERE / "traced_main.py"), "--run-id", f"{wl.name}/seed{seed}",
           "--spans", "spans.json", "--worker-dir", "workers", "--commands", json.dumps(commands)]
    rc, wall, rss = run_child(cmd, work, env, work / "traced.log", deadline)
    call = {"wall_s": wall, "peak_rss_mb": rss, "failures": [], "hashes": {}}
    names = [name for name, *_ in LAYER_METRICS]
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    if rc != 0:
        call["failures"].append(f"traced run exit code {rc}: {_tail(work / 'traced.log')}")
        values = dict.fromkeys(names, 0)
    else:
        seeds = wl.replication_seeds(seed)
        call["failures"], call["final_mean_regret"] = checked_run(wl, seeds, work / out)
        call["hashes"] = artifact_hashes(work / out)
        spans, counters, main = load_spans(work / "spans.json", workers)
        simulate_wall = main["commands"][1]["wall_s"]
        call["cli_main_wall_s"] = simulate_wall
        call["spans"] = len(spans)
        values = layer_metrics(spans, counters, names, simulate_wall, untraced_simulate_s)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    return {"call": call, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "seqtest" / "cli.py").is_file():
        print("error: run from the root of a seqtest source checkout (src/seqtest missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = root / WORK_ROOT / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record, result = run_workload(wl, args.seed, args.seconds, bool(args.trace), root, work,
                                      deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = root / WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
