"""Online learning of optimal sequential testing policies: clairvoyant DP,
Explore-Then-Commit agents, iterative elimination for cost-sensitive maximum
entropy sampling, and a seeded simulation harness.

The names below are exported lazily: ``from seqtest import solve_dp_discrete``
imports ``seqtest.dp`` when the name is first asked for, so ``import seqtest``
(and the CLI, which imports each command's modules itself) loads no submodule
it does not use."""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "models": (
        "DiscreteOutcomeModel",
        "GaussianOutcomeModel",
        "IllConditionedError",
        "ImpossibleStateError",
        "InstanceError",
        "ParameterError",
        "ProblemInstance",
        "RewardSpec",
        "TestState",
        "apply_observation",
        "consistent",
        "initial_state",
        "instance_from_dict",
        "instance_hash",
        "instance_to_dict",
        "load_instance",
        "marginal_over_test",
        "posterior_discrete",
        "posterior_gaussian",
        "sample",
        "save_instance",
    ),
    "dp": (
        "DiscretePolicy",
        "GaussianTreePolicy",
        "PolicyValue",
        "QuadratureSpec",
        "Rollout",
        "StateSpaceError",
        "ValueTable",
        "decision_reward",
        "evaluate_policy",
        "policy_records",
        "q_value",
        "solve_dp_discrete",
        "solve_dp_gaussian",
    ),
    "agents": (
        "EtcConfig",
        "doubling_batches",
        "run_clairvoyant",
        "run_etc_discrete",
        "run_etc_doubling",
        "run_etc_gaussian",
    ),
    "elimination": (
        "CandidateSet",
        "OcmespConfig",
        "confidence_width",
        "eliminate",
        "entropy_objective",
        "run_ocmesp",
        "select_next_subset",
        "solve_mesp_offline",
        "update_estimates",
    ),
    "envs": (
        "DiscreteEnvironment",
        "GaussianEnvironment",
        "RegretTrace",
    ),
    "generators": (
        "brute_force_policy_oracle",
        "gen_discrete_pareto",
        "gen_gaussian_lowrank",
        "gen_gaussian_quadratic",
        "gen_lower_bound_single",
        "gen_lower_bound_stacked",
    ),
    "harness": ("ExperimentConfig", "run_replications", "run_seed"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
