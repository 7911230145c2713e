"""Explore-Then-Commit agents, the doubling-trick wrapper, and the
clairvoyant reference agent.

Both agents explore by performing every test for the first N episodes (so the
logged exploration data has no missingness and the plug-in estimates are
unbiased), then solve the clairvoyant DP on the estimated model and play the
resulting policy to the horizon. The schedule is N = floor(|P|^(1/3) T^(2/3))
for discrete outcome models and N = floor(sigma^2 T^(2/3)) for Gaussian ones,
clamped to [1, T].

Every episode is a rollout priced by ``rollout_net_rewards``, as the
clairvoyant's are: explore episodes, and the episodes after a Gaussian
estimation failure, are ``full_information_rollouts``. So regret is exactly 0
wherever the agent plays as the clairvoyant does (tests in the same order,
same decision).

The doubling wrapper restarts a fresh known-horizon agent on episode batches
of length 2^0, 2^1, 2^2, ... (final batch truncated), carrying no state across
batches, which turns the fixed-horizon agent into an anytime one.

Every agent runs as ``run_<agent>(env, config, collect_observations, sink)``
and plays its horizon in blocks of ``envs.episode_blocks``: per block it draws
the outcomes, rolls out, prices, and hands the block's trace to ``sink`` (an
``envs.TraceSink``; a new one, which keeps the whole trace, when None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dp import (
    DEFAULT_STATE_CAP,
    QuadratureSpec,
    check_state_cap,
    full_information_rollouts,
    rollout_net_rewards,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .envs import (
    DiscreteEnvironment,
    GaussianEnvironment,
    RegretTrace,
    TraceSink,
    episode_blocks,
    rollout_trace,
)
from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ParameterError,
    ProblemInstance,
    RewardSpec,
    SINGULARITY_CONDITION_CAP,
)


@dataclass(frozen=True)
class EtcConfig:
    """Explore-Then-Commit schedule parameters.

    ``support_size_hint`` feeds the discrete schedule (the |P| the formula
    assumes known); ``condition_number`` feeds the Gaussian one. ``override_n``
    replaces the derived N (still clamped to T). The schedules are defined for
    |P| >= 1 and sigma >= 1, so other values are refused when the config is built.
    """

    horizon: int
    support_size_hint: Optional[int] = None
    condition_number: Optional[float] = None
    override_n: Optional[int] = None
    assume_zero_mean: bool = False
    quadrature: QuadratureSpec = QuadratureSpec()
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        for name in ("horizon", "support_size_hint", "condition_number", "override_n"):
            value = getattr(self, name)
            if value is not None and not value >= 1:
                raise ParameterError(name, f"must be >= 1, got {value}")
        check_state_cap(self.state_cap)


def _int_cbrt(x: int) -> int:
    """Largest n with n^3 <= x (float pow under-floors exact powers)."""
    n = int(round(x ** (1.0 / 3.0)))
    while n > 0 and n**3 > x:
        n -= 1
    while (n + 1) ** 3 <= x:
        n += 1
    return n


def discrete_exploration_episodes(config: EtcConfig) -> int:
    if config.override_n is not None:
        return min(int(config.override_n), config.horizon)
    if config.support_size_hint is None:
        raise ValueError("the discrete ETC schedule requires support_size_hint (|P|)")
    n = _int_cbrt(int(config.support_size_hint) * config.horizon**2)
    return min(max(n, 1), config.horizon)


def gaussian_exploration_episodes(config: EtcConfig) -> int:
    if config.override_n is not None:
        return min(int(config.override_n), config.horizon)
    if config.condition_number is None:
        raise ValueError("the Gaussian ETC schedule requires condition_number (sigma)")
    sigma = float(config.condition_number)
    n = int(math.floor(sigma * sigma * float(np.cbrt(float(config.horizon) ** 2))))
    return min(max(n, 1), config.horizon)


# ---------------------------------------------------------------------------
# Empirical models
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalModel:
    """Plug-in estimate built from fully observed exploration episodes."""

    vectors: np.ndarray  # distinct observed outcome vectors, lexicographic
    counts: np.ndarray
    support_index: np.ndarray  # each vector's index in the true support

    @property
    def episodes(self) -> int:
        return int(self.counts.sum())

    def to_outcome_model(self) -> DiscreteOutcomeModel:
        return DiscreteOutcomeModel(
            support=self.vectors, probs=self.counts / self.counts.sum()
        )


@dataclass
class GaussianEstimate:
    mean: np.ndarray
    covariance: np.ndarray
    estimator: str  # "uncentered" (paper's formula) or "centered"
    episodes: int


def _empirical_discrete(support: np.ndarray, sampled: np.ndarray) -> EmpiricalModel:
    """The support points at indices ``sampled``, counted (see
    ``_empirical_from_counts``)."""
    return _empirical_from_counts(support, np.bincount(sampled, minlength=len(support)))


def _empirical_from_counts(support: np.ndarray, counts: np.ndarray) -> EmpiricalModel:
    """The support points with nonzero ``counts``: the distinct ones in
    lexicographic row order (as ``np.unique(axis=0)`` orders distinct rows)
    with their counts."""
    seen = np.flatnonzero(counts)
    seen = seen[np.lexsort(support[seen].T[::-1])]
    return EmpiricalModel(vectors=support[seen], counts=counts[seen], support_index=seen)


def _empirical_instance(instance: ProblemInstance, empirical: EmpiricalModel) -> ProblemInstance:
    """The agent-side instance: estimated model, true costs/decisions/reward."""
    reward = instance.reward
    if reward.kind == "table":
        # f is known a priori as a function; its table is re-keyed to the
        # empirical support
        reward = RewardSpec(kind="table", table=reward.table[empirical.support_index])
    return ProblemInstance(
        model=empirical.to_outcome_model(), costs=instance.costs,
        decisions=instance.decisions, reward=reward,
    )


@dataclass
class EtcRunResult:
    trace: RegretTrace
    policy: object  # committed policy; None when the run never committed
    empirical: object
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Discrete ETC
# ---------------------------------------------------------------------------


def run_etc_discrete(
    env: DiscreteEnvironment,
    config: EtcConfig,
    collect_observations: bool = False,
    sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Algorithm: explore N episodes doing every test, build the empirical
    pmf over observed complete vectors, commit to the DP policy on it.
    Episodes are played block by block: the explore counts are summed until
    N, the policy is solved once, then the commit episodes follow."""
    instance = env.instance
    model = instance.model
    T, K = config.horizon, model.support_size
    n_explore = discrete_exploration_episodes(config)
    _, (_, _, _, clair_net) = env.clairvoyant(config.state_cap)
    out = TraceSink() if sink is None else sink

    # rollouts tabulated per support point and gathered through the sampled
    # indices: full information first, then the committed policy's from
    # episode n_explore on
    explore = full_information_rollouts(instance, model.support, np.arange(K))
    if not collect_observations:
        explore = (explore[0], explore[1], None, explore[3])
    counts = np.zeros(K, dtype=np.int64)
    policy = empirical = None
    fallback_count = 0
    for a, b in episode_blocks(T):
        idx = env.outcome_indices(b - a)
        n = min(max(n_explore - a, 0), b - a)  # this block's explore episodes
        counts += np.bincount(idx[:n], minlength=K)
        rollout = [None if col is None else col[idx] for col in explore]
        if n < b - a:
            if policy is None:  # exploration is over: solve once
                empirical = _empirical_from_counts(model.support, counts)
                emp_instance = _empirical_instance(instance, empirical)
                policy, _ = solve_dp_discrete(emp_instance, state_cap=config.state_cap)
                tests, dec, order, fallback = policy.rollouts(model.support)
                net = rollout_net_rewards(instance, model.support, order, dec, np.arange(K))
                commit = (tests, dec, order, net)
            commit_idx = idx[n:]
            for col, table in zip(rollout, commit):
                if col is not None:
                    col[n:] = table[commit_idx]
            fallback_count += int(fallback[commit_idx].sum())
        xs = model.support[idx] if collect_observations else None
        out.add(rollout_trace("etc-discrete", env, n, rollout, clair_net[idx], xs))

    metadata = {"n_explore": n_explore, "fallback_episodes": fallback_count}
    trace = out.finish("etc-discrete", metadata)
    return EtcRunResult(trace=trace, policy=policy, empirical=empirical, metadata=metadata)


# ---------------------------------------------------------------------------
# Gaussian ETC
# ---------------------------------------------------------------------------


def _estimate_gaussian(draws: np.ndarray, assume_zero_mean: bool) -> GaussianEstimate:
    n = draws.shape[0]
    mu = draws.mean(axis=0)
    second = draws.T @ draws / n
    if assume_zero_mean:
        cov = second
    else:
        cov = second - np.outer(mu, mu)
    cov = (cov + cov.T) / 2.0
    return GaussianEstimate(
        mean=mu,
        covariance=cov,
        estimator="uncentered" if assume_zero_mean else "centered",
        episodes=n,
    )


def _well_conditioned(matrix: np.ndarray) -> bool:
    """Positive definite with a condition number within the cap Gaussian
    conditioning enforces, so an estimate that is singular up to rounding
    (smallest eigenvalue a few ulps above 0) is refused too."""
    try:
        eigenvalues = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError:
        return False
    return eigenvalues[0] > 0.0 and eigenvalues[-1] <= SINGULARITY_CONDITION_CAP * eigenvalues[0]


def run_etc_gaussian(
    env: GaussianEnvironment,
    config: EtcConfig,
    collect_observations: bool = False,
    sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Gaussian ETC with the plug-in mean/second-moment estimator.

    If the estimated covariance is not positive definite at commit time, or
    its condition number exceeds ``SINGULARITY_CONDITION_CAP``, exploration
    is extended episode by episode up to 2N; past that the run records an
    estimation failure and tests everything for the remainder. Only the
    first min(2N, T) outcomes, those the estimate may read, are held
    throughout; the episodes are played block by block.
    """
    instance = env.instance
    T = config.horizon
    n0 = gaussian_exploration_episodes(config)
    head = env.outcomes(min(2 * n0, T))
    clair = env.clairvoyant_policy(config.quadrature, config.state_cap)

    estimate = None
    estimation_failure = False
    n_explore = n0
    while True:
        candidate = _estimate_gaussian(head[:n_explore], config.assume_zero_mean)
        if _well_conditioned(candidate.covariance):
            estimate = candidate
            break
        if n_explore >= len(head):
            estimation_failure = True
            break
        n_explore += 1

    policy = None
    if estimate is not None and n_explore < T:
        emp_instance = ProblemInstance(
            model=GaussianOutcomeModel(mean=estimate.mean, covariance=estimate.covariance),
            costs=instance.costs,
            decisions=instance.decisions,
            reward=instance.reward,
        )
        policy, _ = solve_dp_gaussian(emp_instance, config.quadrature, config.state_cap)

    out = TraceSink() if sink is None else sink
    for a, b in episode_blocks(T):
        # the block's held outcomes, then fresh draws for the rest of it
        fresh = min(b - a, max(b - len(head), 0))
        xs = np.concatenate((head[a:b], env.outcomes(fresh)))
        n = min(max(n_explore - a, 0), b - a)  # this block's explore episodes
        # explore episodes, then the committed policy's rollouts or, after an
        # estimation failure, full testing to the horizon
        explore = full_information_rollouts(instance, xs[:n])
        xs_commit = xs[n:]
        if policy is not None:
            c_tests, c_dec, c_order = policy.rollouts(xs_commit)
            commit = (c_tests, c_dec, c_order, rollout_net_rewards(instance, xs_commit, c_order, c_dec))
        else:
            commit = full_information_rollouts(instance, xs_commit)
        rollout = tuple(np.concatenate(pair) for pair in zip(explore, commit))
        _, clair_dec, clair_order = clair.rollouts(xs)
        clair_net = rollout_net_rewards(instance, xs, clair_order, clair_dec)
        out.add(rollout_trace(
            "etc-gaussian", env, n, rollout, clair_net, xs if collect_observations else None,
        ))

    metadata = {
        "n_explore": n_explore,
        "schedule_n": n0,
        "estimator": estimate.estimator if estimate is not None else None,
        "estimation_failure": estimation_failure,
    }
    trace = out.finish("etc-gaussian", metadata)
    return EtcRunResult(trace=trace, policy=policy, empirical=estimate, metadata=metadata)


def run_clairvoyant(
    env, config: EtcConfig, collect_observations: bool = False, sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """The clairvoyant policy, solved on the true model under the config's
    budget, played every episode (its regret is 0 by definition)."""
    collect = collect_observations
    discrete = isinstance(env, DiscreteEnvironment)
    if discrete:
        # tabulated per support point, gathered per episode
        policy, table = env.clairvoyant(config.state_cap)
    else:
        policy = env.clairvoyant_policy(config.quadrature, config.state_cap)
    out = TraceSink() if sink is None else sink
    for a, b in episode_blocks(config.horizon):
        if discrete:
            idx = env.outcome_indices(b - a)
            xs = env.instance.model.support[idx] if collect else None
            tests, dec, order, net = table
            rollout = (tests[idx], dec[idx], order[idx] if collect else None, net[idx])
        else:
            xs = env.outcomes(b - a)
            tests, dec, order = policy.rollouts(xs)
            rollout = (tests, dec, order, rollout_net_rewards(env.instance, xs, order, dec))
        out.add(rollout_trace("clairvoyant", env, 0, rollout, rollout[3], xs if collect else None))
    trace = out.finish("clairvoyant", {})
    return EtcRunResult(trace=trace, policy=policy, empirical=None, metadata={})


# ---------------------------------------------------------------------------
# Doubling trick
# ---------------------------------------------------------------------------


def doubling_batches(total_T: int) -> list:
    """Batch lengths 1, 2, 4, ... truncated to sum exactly to total_T."""
    if total_T < 1:
        raise ValueError("total_T must be >= 1")
    batches = []
    width, remaining = 1, total_T
    while remaining > 0:
        b = min(width, remaining)
        batches.append(b)
        remaining -= b
        width *= 2
    return batches


class _BatchSink:
    """A doubling batch's sink: it hands the batch's blocks on to the run's
    sink, which the run, not the batch, finishes."""

    def __init__(self, sink: TraceSink):
        self.add = sink.add

    def finish(self, agent: str, metadata: dict) -> None:
        return None


def run_etc_doubling(
    env, config: EtcConfig, collect_observations: bool = False, sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Doubling-trick ETC on the same environment stream as known-T ETC: a
    fresh known-horizon agent per batch, each batch's blocks handed on as it
    plays them."""
    discrete = isinstance(env, DiscreteEnvironment)
    runner = run_etc_discrete if discrete else run_etc_gaussian
    out = TraceSink() if sink is None else sink
    batches = [
        runner(
            env, replace(config, horizon=batch_T, override_n=None), collect_observations,
            _BatchSink(out),
        ).metadata
        for batch_T in doubling_batches(config.horizon)
    ]
    agent = ("etc-discrete" if discrete else "etc-gaussian") + "-doubling"
    metadata = {"batches": batches}
    trace = out.finish(agent, metadata)
    return EtcRunResult(trace=trace, policy=None, empirical=None, metadata=metadata)
