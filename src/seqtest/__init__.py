"""Online learning of optimal sequential testing policies: clairvoyant DP,
Explore-Then-Commit agents, iterative elimination for cost-sensitive maximum
entropy sampling, and a seeded simulation harness."""

from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    IllConditionedError,
    ImpossibleStateError,
    InstanceError,
    ParameterError,
    ProblemInstance,
    RewardSpec,
    TestState,
    apply_observation,
    consistent,
    initial_state,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    load_instance,
    marginal_over_test,
    posterior_discrete,
    posterior_gaussian,
    sample,
    save_instance,
)
from .dp import (
    DiscretePolicy,
    GaussianTreePolicy,
    PolicyValue,
    QuadratureSpec,
    Rollout,
    StateSpaceError,
    ValueTable,
    decision_reward,
    evaluate_policy,
    policy_records,
    q_value,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .agents import (
    EmpiricalModel,
    EtcConfig,
    doubling_batches,
    run_clairvoyant,
    run_doubling,
    run_etc_discrete,
    run_etc_doubling,
    run_etc_gaussian,
)
from .elimination import (
    CandidateSet,
    OcmespConfig,
    confidence_width,
    eliminate,
    entropy_objective,
    run_ocmesp,
    select_next_subset,
    solve_mesp_offline,
    update_estimates,
)
from .envs import (
    DiscreteEnvironment,
    GaussianEnvironment,
    RegretTrace,
    simple_regret,
)
from .generators import (
    brute_force_policy_oracle,
    gen_discrete_pareto,
    gen_gaussian_lowrank,
    gen_gaussian_quadratic,
    gen_lower_bound_single,
    gen_lower_bound_stacked,
)
from .harness import ExperimentConfig, run_replications, run_seed

__version__ = "0.1.0"
