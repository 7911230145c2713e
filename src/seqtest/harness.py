"""Replication management: run an agent over seeds, write traces and
aggregates, and summarize finished runs.

Every replication owns its environment and RNG stream (keyed by its seed), so
replications can run in any order or in parallel and still produce
byte-identical artifacts. A replication writes its own trace (and dataset)
file, block by block as its agent plays, and hands back only its cumulative
regret column; the aggregate is a deterministic reduce over those columns,
in seed order, after all replications complete. A run always writes to its
output directory; ``run_seed`` gives a library caller one whole trace.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .models import InstanceError, ParameterError, ProblemInstance, _atomic_open, instance_hash

# agent -> (instance kinds it runs on: discrete or gaussian-<reward kind>, the
# module and name of its runner). The runner's module is imported, and the name
# looked up, when a seed runs: a run loads only its agent's module, and the call
# goes to what that module binds then.
_AGENTS = {
    "etc-discrete": (("discrete",), "agents", "run_etc_discrete"),
    "etc-gaussian": (("gaussian-quadratic",), "agents", "run_etc_gaussian"),
    "etc-doubling": (("discrete", "gaussian-quadratic"), "agents", "run_etc_doubling"),
    "ocmesp": (("gaussian-entropy",), "elimination", "run_ocmesp"),
    "clairvoyant": (("discrete", "gaussian-quadratic"), "agents", "run_clairvoyant"),
}
AGENTS = tuple(_AGENTS)

# every agent parameter a run takes: those resolved_agent_params gives a
# default, the instance-derived hints, and override_n, which has none
AGENT_PARAMS = (
    "delta", "bernstein_c", "nodes_per_test", "max_depth", "assume_zero_mean",
    "state_cap", "sigma_hint", "support_hint", "override_n",
)
# a typed-config field -> the agent parameter it is built from, where the names differ
_PARAM_OF_FIELD = {
    "support_size_hint": "support_hint", "condition_number": "sigma_hint", "sigma": "sigma_hint",
}


@dataclass
class ExperimentConfig:
    """One experiment: an instance, an agent with its parameters, a horizon and
    the replication seeds. Building one resolves the parameters once (``params``)
    and builds the agent's typed config (``agent_config``) from them, so a run
    outside the agent's domain fails before any replication starts; a
    ``ParameterError`` then names the parameter as ``params`` does, or the
    field (``seeds``, ``jobs``)."""

    instance: ProblemInstance
    agent: str
    horizon: int
    seeds: tuple
    out_dir: Optional[Path] = None
    jobs: int = 1
    agent_params: dict = field(default_factory=dict)
    emit_dataset: bool = False
    instance_source: str = ""
    params: dict = field(init=False)
    agent_config: object = field(init=False)  # EtcConfig, or OcmespConfig for ocmesp

    def __post_init__(self):
        if self.agent not in AGENTS:
            raise ValueError(f"unknown agent {self.agent!r}; choose from {AGENTS}")
        kind = "discrete" if self.instance.is_discrete else f"gaussian-{self.instance.reward.kind}"
        if kind not in _AGENTS[self.agent][0]:
            runs_on = " or ".join(_AGENTS[self.agent][0])
            raise InstanceError(f"agent {self.agent!r} runs on {runs_on} instances, not {kind}")
        if self.agent == "etc-doubling" and self.agent_params.get("override_n") is not None:
            raise ParameterError("override_n", "does not apply to etc-doubling: each batch finds its N")
        seeds = tuple(int(s) for s in self.seeds)
        if len(set(seeds)) != len(seeds) or not seeds:
            raise ParameterError("seeds", f"must be nonempty and distinct, got {list(seeds)}")
        self.seeds = seeds
        if self.jobs < 1:
            raise ParameterError("jobs", f"must be >= 1, got {self.jobs}")
        self.params = resolved_agent_params(self)
        try:
            self.agent_config = _agent_config(self)
        except ParameterError as exc:
            name, rule = exc.args
            exc.args = (_PARAM_OF_FIELD.get(name, name), rule)
            raise


def resolved_agent_params(config: ExperimentConfig) -> dict:
    """Every agent parameter of the run: those ``agent_params`` sets, and the
    default of each one it leaves out (echoed for provenance). The defaults
    are written here only; the CLI passes on just the flags it is given. A
    name outside ``AGENT_PARAMS`` is refused, not silently ignored."""
    unknown = sorted(set(config.agent_params) - set(AGENT_PARAMS))
    if unknown:
        raise ValueError(
            f"unknown agent parameters {unknown}; known: {', '.join(AGENT_PARAMS)}"
        )
    from .dp import DEFAULT_STATE_CAP, QuadratureSpec

    instance = config.instance
    params = {
        "delta": 0.1,
        "bernstein_c": 1.0,
        "nodes_per_test": QuadratureSpec.nodes_per_test,
        "max_depth": QuadratureSpec.max_depth,
        "assume_zero_mean": False,
        "state_cap": DEFAULT_STATE_CAP,
    }
    if not instance.is_discrete:
        params["sigma_hint"] = float(instance.model.condition_number)
    elif config.agent in ("etc-discrete", "etc-doubling"):
        params["support_hint"] = instance.model.support_size
    params.update(config.agent_params)
    return params


def _agent_config(config: ExperimentConfig):
    """The typed config of the run's agent, built from ``config.params``, whose
    constructor checks every value; a Gaussian tree's budget is checked here."""
    instance, params = config.instance, config.params
    if config.agent == "ocmesp":
        from .elimination import OcmespConfig

        return OcmespConfig(
            sigma=params["sigma_hint"], d=instance.d, delta=params["delta"],
            lam=instance.reward.lam, costs=instance.costs, horizon=config.horizon,
            bernstein_c=params["bernstein_c"], state_cap=params["state_cap"],
        )
    from .agents import EtcConfig
    from .dp import QuadratureSpec, check_tree_budget

    etc_config = EtcConfig(
        horizon=config.horizon, support_size_hint=params.get("support_hint"),
        condition_number=params.get("sigma_hint"), override_n=params.get("override_n"),
        assume_zero_mean=params["assume_zero_mean"],
        quadrature=QuadratureSpec(params["nodes_per_test"], params["max_depth"]),
        state_cap=params["state_cap"],
    )
    if not instance.is_discrete:
        check_tree_budget(instance.d, etc_config.quadrature, etc_config.state_cap)
    return etc_config


def run_seed(config: ExperimentConfig, seed: int, sink=None) -> RegretTrace:
    """Run one replication of the configured agent. Its trace is returned
    whole, unless ``sink`` (an ``envs.TraceSink``) takes its blocks."""
    from .envs import DiscreteEnvironment, GaussianEnvironment

    instance = config.instance
    env = (DiscreteEnvironment if instance.is_discrete else GaussianEnvironment)(instance, seed)
    _, module, name = _AGENTS[config.agent]
    run = getattr(importlib.import_module(f".{module}", __package__), name)
    return run(env, config.agent_config, config.emit_dataset, sink).trace


def _worker(payload):
    """Run one seed. Its trace (and dataset) file is written block by block
    as the agent plays, and only its cumulative regret and metadata come
    back; a seed that fails leaves no file."""
    config, seed = payload
    try:
        from .envs import TraceSink

        out = Path(config.out_dir)
        with ExitStack() as files:
            trace_fh = files.enter_context(_atomic_open(out / f"trace_seed{seed}.csv"))
            dataset_fh = None
            if config.emit_dataset:
                dataset_fh = files.enter_context(_atomic_open(out / f"dataset_seed{seed}.csv"))
            trace = run_seed(config, seed, TraceSink(trace_fh, dataset_fh, config.horizon))
        return seed, "ok", trace
    except Exception:
        import traceback  # only a failed seed needs it
        return seed, "error", traceback.format_exc()


@dataclass
class ReplicationReport:
    """What a run hands back: each successful seed's ``envs.StreamedTrace``
    (cumulative regret and metadata) and each failed seed's traceback. The
    rows are in the run's files, and the aggregate in aggregate.csv alone."""

    traces: dict  # seed -> envs.StreamedTrace
    failures: dict  # seed -> traceback string


def effective_config_dict(config: ExperimentConfig) -> dict:
    return {
        "agent": config.agent,
        "horizon": config.horizon,
        "seeds": list(config.seeds),
        "jobs": config.jobs,
        "emit_dataset": config.emit_dataset,
        "instance_source": config.instance_source,
        "instance_hash": instance_hash(config.instance),
        "agent_params": config.params,
    }


def run_replications(config: ExperimentConfig) -> ReplicationReport:
    """Run every seed (in parallel when jobs > 1), write artifacts, aggregate.

    The config must name an ``out_dir``: each seed's worker writes its own
    trace and dataset files there, and the run writes effective-config.json
    and aggregate.csv. A failed seed is reported in the returned ``failures``
    map; the aggregate is produced only when every replication succeeded.
    ``run_seed`` returns one replication's whole trace instead.
    """
    if config.out_dir is None:
        raise ValueError("run_replications writes its artifacts to config.out_dir, which is None")
    from .envs import aggregate_cumulative_regret, episode_blocks, write_aggregate_rows

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payloads = [(config, seed) for seed in config.seeds]
    if config.jobs > 1:
        # imported here: loading the pool machinery costs a serial run 20-40 ms
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches every worker up front
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(config.seeds))) as pool:
            results = list(pool.map(_worker, payloads))
    else:
        results = [_worker(p) for p in payloads]
    traces = {seed: value for seed, status, value in results if status == "ok"}
    failures = {seed: value for seed, status, value in results if status == "error"}
    with _atomic_open(out / "effective-config.json") as fh:
        json.dump(effective_config_dict(config), fh, indent=1, sort_keys=True)
        fh.write("\n")
    if not failures:
        # reduced and written one block of episodes at a time
        ordered = [traces[s] for s in sorted(traces)]
        with _atomic_open(out / "aggregate.csv") as fh:
            for a, b in episode_blocks(config.horizon):
                write_aggregate_rows(fh, aggregate_cumulative_regret(ordered, a, b), a)
    return ReplicationReport(traces=traces, failures=failures)


# ---------------------------------------------------------------------------
# Run summaries and dyadic scaling report
# ---------------------------------------------------------------------------


# bytes read per step when seeking back from the end of a file for its last line
_TAIL_BLOCK = 1 << 12


def _last_line(path) -> str:
    """The last line of a text file, read in blocks back from its end until
    they hold the newline before it (not the whole of a long aggregate.csv)."""
    with open(path, "rb") as fh:
        pos, tail = fh.seek(0, os.SEEK_END), b""
        while pos and tail.rfind(b"\n", 0, len(tail) - 1) < 0:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
    return tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode("utf-8")


def collect_run_summaries(root) -> list:
    """One summary per finished run directory under ``root`` (a run directory
    holds aggregate.csv next to effective-config.json)."""
    summaries = []
    for dirpath, _, filenames in sorted(os.walk(root)):
        if "aggregate.csv" not in filenames or "effective-config.json" not in filenames:
            continue
        with open(Path(dirpath) / "effective-config.json", encoding="utf-8") as fh:
            cfg = json.load(fh)
        last = _last_line(Path(dirpath) / "aggregate.csv").split(",")
        summaries.append(
            {
                "path": dirpath,
                "agent": cfg["agent"],
                "horizon": int(cfg["horizon"]),
                "instance_hash": cfg["instance_hash"],
                "seeds": len(cfg["seeds"]),
                "final_mean": float(last[1]),
                "final_sd": float(last[2]),
            }
        )
    return summaries


def scaling_ratios(summaries: list) -> list:
    """R(2T)/R(T) between runs of the same instance and agent at dyadic
    horizons."""
    ratios = []
    by_key = {}
    for s in summaries:
        by_key.setdefault((s["instance_hash"], s["agent"]), []).append(s)
    for (ih, agent), group in sorted(by_key.items()):
        group = sorted(group, key=lambda s: s["horizon"])
        for lo in group:
            for hi in group:
                if hi["horizon"] == 2 * lo["horizon"] and lo["final_mean"] != 0.0:
                    ratios.append(
                        {
                            "agent": agent,
                            "instance_hash": ih,
                            "T": lo["horizon"],
                            "ratio": hi["final_mean"] / lo["final_mean"],
                        }
                    )
    return ratios


def format_report(summaries: list, ratios: list) -> str:
    lines = ["path,agent,horizon,seeds,final_mean,final_sd"]
    for s in summaries:
        lines.append(
            f"{s['path']},{s['agent']},{s['horizon']},{s['seeds']},"
            f"{s['final_mean']!r},{s['final_sd']!r}"
        )
    if ratios:
        lines.append("")
        lines.append("agent,T,2T,ratio R(2T)/R(T)")
        for r in ratios:
            lines.append(f"{r['agent']},{r['T']},{2 * r['T']},{r['ratio']!r}")
    return "\n".join(lines) + "\n"
