"""Workloads and metric definitions of the seqtest benchmark.

Each workload is one closed-loop client: a ``seqtest gen`` call that writes the
instance, then ``seqtest simulate`` calls run back to back, the next starting
only after the previous one has ended. Every simulate flag that changes
behaviour is passed explicitly, so a change of a CLI default does not change
the workload.

The benchmark's ``--seed`` selects the replication seeds. Seeds are taken
modulo ``REFERENCE_SEEDS``, the number of seeds whose final regret and
artifact hashes are recorded in ``reference.json``, so that every run is
checked against a recorded reference. A workload whose work depends strongly
on the replication seed pins its seeds instead (``fixed_seeds``).
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple  # ``seqtest gen`` arguments, without --out
    simulate: tuple  # ``seqtest simulate`` arguments, without instance/horizon/seeds/out
    horizon: int
    seeds_per_run: int
    smoke_horizon: int  # self-test horizon; the discrete ETC agents commit only past T = |P|
    emit_dataset: bool = False
    fixed_seeds: tuple = ()  # replication seeds used whatever the benchmark seed

    def replication_seeds(self, seed: int) -> list:
        if self.fixed_seeds:
            return list(self.fixed_seeds)
        base = (seed % REFERENCE_SEEDS) * self.seeds_per_run
        return [base + i for i in range(self.seeds_per_run)]

    def simulate_argv(self, seed: int, out: str, horizon: int = None) -> list:
        argv = ["simulate", "--instance", INSTANCE_FILE, "--out", out,
                "--horizon", str(horizon or self.horizon),
                "--seeds", seeds_key(self.replication_seeds(seed))]
        argv += list(self.simulate)
        if self.emit_dataset:
            argv.append("--emit-dataset")
        return argv

    def gen_argv(self) -> list:
        return ["gen"] + list(self.gen) + ["--out", INSTANCE_FILE]


def seeds_key(seeds) -> str:
    """Key of a replication-seed set in ``reference.json`` and the ledger."""
    return ",".join(str(s) for s in seeds)


# Instance path as the CLI sees it; subprocesses run inside the work directory,
# so effective-config.json records the same path on every run.
INSTANCE_FILE = "instance.json"

_COMMON = ("--delta", "0.1", "--nodes-per-test", "16", "--max-depth", "6",
           "--state-cap", "10000000")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="etc-known-d10",
            why="etc-discrete, T=2^18 on Pareto d=10: two discrete DP solves on "
                "1,024-point supports, then the trace and aggregate CSV writers",
            gen=("pareto", "--d", "10", "--seed", "0", "--cost", "0.05"),
            simulate=("--agent", "etc-discrete", "--jobs", "1",
                      "--bernstein-c", "1.0") + _COMMON,
            horizon=2**18,
            seeds_per_run=1,
            smoke_horizon=2048,
        ),
        Workload(
            name="etc-doubling-d10",
            why="etc-doubling, T=2^11, 2 seeds on 2 pool workers: every batch explores, "
                "so one clairvoyant DP solve per seed does nearly all the work",
            gen=("pareto", "--d", "10", "--seed", "0", "--cost", "0.05"),
            simulate=("--agent", "etc-doubling", "--jobs", "2",
                      "--bernstein-c", "1.0") + _COMMON,
            horizon=2**11,
            seeds_per_run=2,
            smoke_horizon=4096,
        ),
        Workload(
            name="etc-gauss-d2",
            why="etc-gaussian, T=2^11 on the d=2 quadratic instance: tree-policy "
                "rollouts and Gaussian posteriors; the policy memo grows with T",
            gen=("gaussian-quadratic", "--d", "2", "--seed", "0", "--cost", "0.1",
                 "--grid-points", "5", "--grid-span", "2.0"),
            simulate=("--agent", "etc-gaussian", "--jobs", "1",
                      "--bernstein-c", "1.0") + _COMMON,
            horizon=2**11,
            seeds_per_run=1,
            smoke_horizon=64,
        ),
        Workload(
            name="ocmesp-d11",
            why="ocmesp, T=2^7 from 2,048 candidates, pinned seed 0: elimination "
                "bookkeeping and candidate objectives on large sets, the dataset writer",
            gen=("gaussian-lowrank", "--d", "11", "--seed", "0", "--lambda", "1.0",
                 "--cost", "2.0"),
            simulate=("--agent", "ocmesp", "--jobs", "1",
                      "--bernstein-c", "5e10") + _COMMON,
            horizon=2**7,
            seeds_per_run=1,
            smoke_horizon=64,
            emit_dataset=True,
            # elimination rounds that drop candidates, and so the work, vary
            # about 3x between replication seeds
            fixed_seeds=(0,),
        ),
    )
}

ALL = tuple(WORKLOADS)
DISCRETE = ("etc-known-d10", "etc-doubling-d10")

# Per-layer metrics, each with the end-to-end metric and the workloads it
# should move. Reported by every traced run, 0 where the layer does not run.
LAYER_METRICS = (
    ("dp.solve_dp_discrete.calls", "count", "simulate_s", DISCRETE),
    ("dp.solve_dp_discrete.self_s", "s", "simulate_s", DISCRETE),
    ("dp.solve_dp_discrete.states", "count", "simulate_s", DISCRETE),
    ("dp.DiscretePolicy.trace.calls", "count", "simulate_s", DISCRETE),
    ("dp.DiscretePolicy.trace.self_s", "s", "simulate_s", DISCRETE),
    ("envs.write_trace_csv.self_s", "s", "simulate_s", ("etc-known-d10",)),
    ("envs.write_trace_csv.bytes", "B", "simulate_s", ("etc-known-d10",)),
    ("envs.write_aggregate_csv.self_s", "s", "simulate_s", ("etc-known-d10",)),
    ("envs.write_aggregate_csv.bytes", "B", "simulate_s", ("etc-known-d10",)),
    ("envs.trace_rows_per_s", "1/s", "simulate_s", ("etc-known-d10",)),
    ("envs.write_dataset_csv.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("envs.write_dataset_csv.bytes", "B", "simulate_s", ("ocmesp-d11",)),
    ("envs.DiscreteEnvironment.clairvoyant.self_s", "s", "simulate_s", DISCRETE),
    ("envs.aggregate_cumulative_regret.self_s", "s", "simulate_s", DISCRETE),
    ("dp.GaussianTreePolicy.trace.calls", "count", "simulate_s", ("etc-gauss-d2",)),
    ("dp.GaussianTreePolicy.trace.self_s", "s", "simulate_s", ("etc-gauss-d2",)),
    ("dp.solve_dp_gaussian.calls", "count", "simulate_s", ("etc-gauss-d2",)),
    ("dp.solve_dp_gaussian.self_s", "s", "simulate_s", ("etc-gauss-d2",)),
    ("models.posterior_gaussian.calls", "count", "simulate_s", ("etc-gauss-d2",)),
    ("models.posterior_gaussian.self_s", "s", "simulate_s", ("etc-gauss-d2",)),
    ("dp.gaussian_memo_entries", "count", "peak_rss_mb", ("etc-gauss-d2",)),
    ("elimination.eliminate.calls", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.eliminate.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.candidate_objectives.calls", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.candidate_objectives.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.candidates_evaluated", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.CandidateSet.refresh_pairs.calls", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.CandidateSet.refresh_pairs.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.select_next_subset.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.update_estimates.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.entropy_objective.calls", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.entropy_objective.self_s", "s", "simulate_s", ("ocmesp-d11",)),
    ("elimination.pd_skips", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.final_candidates", "count", "simulate_s", ("ocmesp-d11",)),
    ("elimination.useful_eliminate_ratio", "ratio", "simulate_s", ("ocmesp-d11",)),
    ("agents.run_etc_discrete.calls", "count", "simulate_s", DISCRETE),
    ("agents.run_etc_discrete.self_s", "s", "simulate_s", DISCRETE),
    ("agents.run_etc_gaussian.self_s", "s", "simulate_s", ("etc-gauss-d2",)),
    ("agents.run_etc_doubling.self_s", "s", "simulate_s", ("etc-doubling-d10",)),
    ("agents.n_explore", "count", "simulate_s", DISCRETE + ("etc-gauss-d2",)),
    ("agents.fallback_episodes", "count", "simulate_s", DISCRETE),
    ("harness.run_replications.self_s", "s", "simulate_s", ("etc-doubling-d10",)),
    ("harness.run_seed.s", "s", "peak_rss_mb", ("etc-doubling-d10",)),
    ("generators.gen.s", "s", "setup_s", ALL),
    ("trace.overhead_frac", "ratio", "simulate_s", ALL),
)

# Per-layer metrics for which a higher value is better; lower for the rest.
HIGHER_IS_BETTER = {"envs.trace_rows_per_s", "elimination.useful_eliminate_ratio"}

# The time bounds are the largest allowed: on a shared 2-CPU machine the
# median of a 25 s run still moves 9-21% (quartile spread over 10 runs) with
# the machine's load, although the work per run is fixed.
END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("episodes_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Spans that must be recorded (count > 0) on a workload, and must be absent
# elsewhere. A parent -> child pair shows that the name the parent's module
# binds was re-bound to the traced wrapper.
EXPECTED_SPANS = {
    "cli.main": ALL,
    "harness.run_replications": ALL,
    "harness.run_seed": ALL,
    "dp.solve_dp_discrete": DISCRETE,
    "dp.DiscretePolicy.trace": DISCRETE,
    "dp.GaussianTreePolicy.trace": ("etc-gauss-d2",),
    "dp.solve_dp_gaussian": ("etc-gauss-d2",),
    "models.posterior_gaussian": ("etc-gauss-d2",),
    "agents.run_etc_discrete": DISCRETE,
    "agents.run_etc_gaussian": ("etc-gauss-d2",),
    "agents.run_etc_doubling": ("etc-doubling-d10",),
    "elimination.run_ocmesp": ("ocmesp-d11",),
    "elimination.eliminate": ("ocmesp-d11",),
    "elimination.candidate_objectives": ("ocmesp-d11",),
    "elimination.CandidateSet.refresh_pairs": ("ocmesp-d11",),
    "envs.write_dataset_csv": ("ocmesp-d11",),
    "envs.DiscreteEnvironment.clairvoyant": DISCRETE,
    "generators.gen_discrete_pareto": DISCRETE,
    "generators.gen_gaussian_quadratic": ("etc-gauss-d2",),
    "generators.gen_gaussian_lowrank": ("ocmesp-d11",),
}

EXPECTED_EDGES = {
    ("cli.main", "generators.gen_discrete_pareto"): DISCRETE,
    ("cli.main", "models.save_instance"): ALL,
    ("cli.main", "models.load_instance"): ALL,
    ("cli.main", "harness.run_replications"): ALL,
    ("harness.run_replications", "harness.run_seed"): ALL,
    ("harness.run_replications", "envs.write_trace_csv"): ALL,
    ("harness.run_replications", "envs.write_aggregate_csv"): ALL,
    ("harness.run_replications", "envs.aggregate_cumulative_regret"): ALL,
    ("harness.run_replications", "envs.write_dataset_csv"): ("ocmesp-d11",),
    ("harness.run_seed", "agents.run_etc_discrete"): ("etc-known-d10",),
    ("harness.run_seed", "agents.run_etc_doubling"): ("etc-doubling-d10",),
    ("harness.run_seed", "agents.run_etc_gaussian"): ("etc-gauss-d2",),
    ("harness.run_seed", "elimination.run_ocmesp"): ("ocmesp-d11",),
    ("agents.run_doubling", "agents.run_etc_discrete"): ("etc-doubling-d10",),
    ("agents.run_etc_discrete", "dp.solve_dp_discrete"): DISCRETE,
    ("agents.run_etc_discrete", "envs.DiscreteEnvironment.clairvoyant"): DISCRETE,
    ("agents.run_etc_discrete", "dp.DiscretePolicy.trace"): DISCRETE,
    ("envs.DiscreteEnvironment.clairvoyant", "dp.solve_dp_discrete"): DISCRETE,
    ("envs.DiscreteEnvironment.clairvoyant", "dp.DiscretePolicy.trace"): DISCRETE,
    ("agents.run_etc_gaussian", "envs.GaussianEnvironment.clairvoyant_policy"): ("etc-gauss-d2",),
    ("envs.GaussianEnvironment.clairvoyant_policy", "dp.solve_dp_gaussian"): ("etc-gauss-d2",),
    ("agents.run_etc_gaussian", "dp.GaussianTreePolicy.trace"): ("etc-gauss-d2",),
    ("dp.GaussianTreePolicy.trace", "models.posterior_gaussian"): ("etc-gauss-d2",),
    ("elimination.run_ocmesp", "elimination.entropy_objective"): ("ocmesp-d11",),
    ("elimination.run_ocmesp", "elimination.select_next_subset"): ("ocmesp-d11",),
    ("elimination.run_ocmesp", "elimination.update_estimates"): ("ocmesp-d11",),
    ("elimination.run_ocmesp", "elimination.eliminate"): ("ocmesp-d11",),
    ("elimination.eliminate", "elimination.candidate_objectives"): ("ocmesp-d11",),
    ("elimination.eliminate", "elimination.CandidateSet.refresh_pairs"): ("ocmesp-d11",),
}
