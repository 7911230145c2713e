"""Replication management: run an agent over seeds, write traces and
aggregates, and summarize finished runs.

Every replication owns its environment and RNG stream (keyed by its seed), so
replications can run in any order or in parallel and still produce
byte-identical artifacts; aggregation is a deterministic reduce over the
seed-sorted traces after all replications complete.
"""

from __future__ import annotations

import importlib
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .models import InstanceError, ParameterError, ProblemInstance, instance_hash

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
    ``ParameterError`` then names the parameter as ``params`` does."""

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
            raise ValueError("override_n does not apply to etc-doubling: each batch finds its N")
        seeds = tuple(int(s) for s in self.seeds)
        if len(set(seeds)) != len(seeds) or not seeds:
            raise ValueError("seeds must be nonempty and distinct")
        self.seeds = seeds
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
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


def run_seed(config: ExperimentConfig, seed: int) -> RegretTrace:
    """Run one replication of the configured agent."""
    from .envs import DiscreteEnvironment, GaussianEnvironment

    instance = config.instance
    env = (DiscreteEnvironment if instance.is_discrete else GaussianEnvironment)(instance, seed)
    _, module, name = _AGENTS[config.agent]
    run = getattr(importlib.import_module(f".{module}", __package__), name)
    return run(env, config.agent_config, config.emit_dataset).trace


def _worker(payload):
    config, seed = payload
    try:
        return seed, "ok", run_seed(config, seed)
    except Exception:
        return seed, "error", traceback.format_exc()


@dataclass
class ReplicationReport:
    traces: dict  # seed -> RegretTrace
    failures: dict  # seed -> traceback string
    mean_cumulative: Optional[np.ndarray] = None
    sd_cumulative: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        return not self.failures


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

    A failed seed is reported in the returned ``failures`` map; the aggregate
    is produced only when every replication succeeded.
    """
    from .envs import (
        _atomic_open,
        aggregate_cumulative_regret,
        write_aggregate_csv,
        write_dataset_csv,
        write_trace_csv,
    )

    payloads = [(config, seed) for seed in config.seeds]
    if config.jobs > 1:
        # imported here: loading the pool machinery costs a serial run 20-40 ms
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches every worker up front
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(config.seeds))) as pool:
            results = list(pool.map(_worker, payloads))
    else:
        results = [_worker(p) for p in payloads]
    traces = {seed: out for seed, status, out in results if status == "ok"}
    failures = {seed: out for seed, status, out in results if status == "error"}

    report = ReplicationReport(traces=traces, failures=failures)
    if not failures:
        ordered = [traces[s] for s in sorted(traces)]
        report.mean_cumulative, report.sd_cumulative = aggregate_cumulative_regret(ordered)

    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with _atomic_open(out / "effective-config.json") as fh:
            json.dump(effective_config_dict(config), fh, indent=1, sort_keys=True)
            fh.write("\n")
        for seed in sorted(traces):
            write_trace_csv(traces[seed], out / f"trace_seed{seed}.csv")
            if config.emit_dataset:
                write_dataset_csv(traces[seed], config.instance.d, out / f"dataset_seed{seed}.csv")
        if not failures:
            write_aggregate_csv((report.mean_cumulative, report.sd_cumulative), out / "aggregate.csv")
    return report


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
