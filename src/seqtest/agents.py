"""Explore-Then-Commit agents, the doubling-trick wrapper, and the
clairvoyant reference agent.

Both agents explore by performing every test for the first N episodes (so the
logged exploration data has no missingness and the plug-in estimates are
unbiased), then solve the clairvoyant DP on the plug-in model they fit and
play the resulting policy to the horizon. Each fit returns that model, a
``DiscreteOutcomeModel`` of the empirical pmf (``_empirical_instance``) or a
``GaussianOutcomeModel`` of the sample moments (``_estimate_gaussian``), and
the model's constructor (with the condition-number cap, for a Gaussian one)
is the only check on the estimate. The schedule is N = floor(|P|^(1/3) T^(2/3))
for discrete outcome models and N = floor(sigma^2 T^(2/3)) for Gaussian ones,
clamped to [1, T].

Every episode is a rollout priced by ``rollout_net_rewards``, as the
clairvoyant's are: explore episodes, and the episodes after a Gaussian
estimation failure, play full information (``dp._priced_rollouts`` with no
policy: every test, then the best decision). So regret is exactly 0
wherever the agent plays as the clairvoyant does (tests in the same order,
same decision).

The doubling wrapper restarts a fresh known-horizon agent on episode batches
of length 2^0, 2^1, 2^2, ... (final batch truncated), carrying no state across
batches, which turns the fixed-horizon agent into an anytime one.

Every agent runs as ``run_<agent>(env, config, collect_observations, sink)``.
An ETC agent fits on a look-ahead of its explore episodes before it plays
(``envs._look_ahead``); then one loop, ``_play``, plays ETC and the clairvoyant
alike in blocks of ``envs.episode_blocks``: per block it draws the outcomes,
rolls out, prices, and hands the block's trace to ``sink`` (an
``envs.TraceSink``; a new one, which keeps the whole trace, when None). A
discrete block's rows are gathered from rollouts tabulated per support
point, so each row is keyed by its table row (``RegretTrace.row_key``),
which lets the writers format each key's cells once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dp import (
    DEFAULT_STATE_CAP,
    QuadratureSpec,
    _priced_rollouts,
    check_state_cap,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .envs import (
    DiscreteEnvironment,
    GaussianEnvironment,
    RegretTrace,
    TraceSink,
    _look_ahead,
    episode_blocks,
    rollout_trace,
)
from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    InstanceError,
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


def _exploration_episodes(config: EtcConfig, hint, missing: str, schedule) -> int:
    """N: ``config.override_n`` when set, else ``schedule(hint)`` (refused
    with ``missing`` when the hint is None), clamped to [1, T]."""
    if config.override_n is None and hint is None:
        raise ValueError(missing)
    n = config.override_n if config.override_n is not None else schedule(hint)
    return min(max(int(n), 1), config.horizon)


def discrete_exploration_episodes(config: EtcConfig) -> int:
    return _exploration_episodes(
        config, config.support_size_hint, "the discrete ETC schedule requires support_size_hint (|P|)",
        lambda p: _int_cbrt(int(p) * config.horizon**2),
    )


def gaussian_exploration_episodes(config: EtcConfig) -> int:
    return _exploration_episodes(
        config, config.condition_number, "the Gaussian ETC schedule requires condition_number (sigma)",
        lambda sigma: math.floor(float(sigma) * float(sigma) * float(np.cbrt(float(config.horizon) ** 2))),
    )


@dataclass
class EtcRunResult:
    """A run's trace, the policy it committed to, and the plug-in model it
    fitted (``empirical``: a ``DiscreteOutcomeModel`` or a
    ``GaussianOutcomeModel``, the model the policy was solved on); each is
    None where the run has none (no commit, a refused Gaussian fit, the
    clairvoyant, the doubling wrapper)."""

    trace: RegretTrace
    policy: object  # committed policy; None when the run never committed
    empirical: object
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Play
# ---------------------------------------------------------------------------


def _play(env, config: EtcConfig, n_explore: int, policy, collect: bool, sink: TraceSink) -> int:
    """Play the horizon block by block: the first ``n_explore`` episodes by
    full information, the rest by ``policy`` (full information too when
    None), each priced against the clairvoyant's rollout on the same
    outcome; the clairvoyant's own play (``policy`` its policy) explores
    nothing. Returns the number of episodes that fell back."""
    instance = env.instance
    if isinstance(env, DiscreteEnvironment):
        # rollouts tabulated per support point and gathered per episode, the
        # order column only when observations are collected
        support = instance.model.support
        clair, clair_table = env.clairvoyant(config.state_cap)
        tables = {clair: clair_table}
        draw, outcomes = env.outcome_indices, lambda idx: support[idx]
        clair_nets = lambda idx: clair_table[3][idx]

        def rollouts(p, idx):
            if p not in tables:
                tables[p] = _priced_rollouts(instance, p, support, np.arange(len(support)))
            return [None if k == 2 and not collect else col[idx] for k, col in enumerate(tables[p])]

        def row_keys(idx, n):
            # a row gathered from its table's row k is keyed k when it
            # explores and |P| + k when it plays the policy
            key = idx.astype(np.int32)
            key[n:] += len(support)
            return key
    else:
        clair = env.clairvoyant_policy(config.quadrature, config.state_cap)
        draw, outcomes = env.outcomes, lambda xs: xs
        clair_nets = lambda xs: _priced_rollouts(instance, clair, xs)[3]
        row_keys = lambda xs, n: None

        def rollouts(p, xs):
            return _priced_rollouts(instance, p, xs)

    fallbacks = 0
    for a, b in episode_blocks(config.horizon):
        rows = draw(b - a)
        n = min(max(n_explore - a, 0), b - a)  # this block's explore episodes
        tests, dec, order, net, fell = [
            None if e is None else np.concatenate((e, c))
            for e, c in zip(rollouts(None, rows[:n]), rollouts(policy, rows[n:]))
        ]
        clair_net = net if policy is clair else clair_nets(rows)
        fallbacks += int(fell.sum())
        xs = outcomes(rows) if collect else None
        sink.add(rollout_trace(env, n, (tests, dec, order, net), clair_net, xs, row_keys(rows, n)))
    return fallbacks


# ---------------------------------------------------------------------------
# Discrete ETC
# ---------------------------------------------------------------------------


def _empirical_instance(instance: ProblemInstance, blocks) -> ProblemInstance:
    """The agent-side instance: the true costs, decisions and reward on the
    plug-in pmf of the support points at the indices of ``blocks`` (an
    iterable of index arrays, counted one at a time). The seen points are
    kept in lexicographic row order (as ``np.unique(axis=0)`` orders distinct
    rows); a table reward, f known a priori as a function, is re-keyed to them."""
    support = instance.model.support
    counts = sum(np.bincount(block, minlength=len(support)) for block in blocks)
    seen = np.flatnonzero(counts)
    seen = seen[np.lexsort(support[seen].T[::-1])]
    reward = instance.reward
    if reward.kind == "table":
        reward = RewardSpec(kind="table", table=reward.table[seen])
    model = DiscreteOutcomeModel(support=support[seen], probs=counts[seen] / counts.sum())
    return replace(instance, model=model, reward=reward)


def run_etc_discrete(
    env: DiscreteEnvironment,
    config: EtcConfig,
    collect_observations: bool = False,
    sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Algorithm: explore N episodes doing every test, build the empirical
    pmf over observed complete vectors, commit to the DP policy on it. The
    pmf is counted, block by block, on a look-ahead of the explore episodes,
    so the policy is solved before the first episode is played."""
    n_explore = discrete_exploration_episodes(config)
    policy = empirical = None
    if n_explore < config.horizon:
        with _look_ahead(env):
            blocks = (env.outcome_indices(b - a) for a, b in episode_blocks(n_explore))
            fitted = _empirical_instance(env.instance, blocks)
        policy, _ = solve_dp_discrete(fitted, state_cap=config.state_cap)
        empirical = fitted.model
    out = TraceSink() if sink is None else sink
    fallbacks = _play(env, config, n_explore, policy, collect_observations, out)
    metadata = {"n_explore": n_explore, "fallback_episodes": fallbacks}
    return EtcRunResult(trace=out.finish(metadata), policy=policy, empirical=empirical, metadata=metadata)


# ---------------------------------------------------------------------------
# Gaussian ETC
# ---------------------------------------------------------------------------


def _estimate_gaussian(draws: np.ndarray, assume_zero_mean: bool) -> Optional[GaussianOutcomeModel]:
    """The plug-in model: the sample mean, and the second moment about 0
    (the paper's formula) when ``assume_zero_mean``, else the centered one.
    None when the model refuses the covariance (not positive definite) or
    its condition number exceeds ``SINGULARITY_CONDITION_CAP``, so an
    estimate that is singular up to rounding (smallest eigenvalue a few ulps
    above 0) is refused too."""
    mu = draws.mean(axis=0)
    cov = draws.T @ draws / draws.shape[0]
    if not assume_zero_mean:
        cov = cov - np.outer(mu, mu)
    try:
        model = GaussianOutcomeModel(mean=mu, covariance=(cov + cov.T) / 2.0)
    except (InstanceError, np.linalg.LinAlgError):
        return None
    return model if model.condition_number <= SINGULARITY_CONDITION_CAP else None


def _fit_gaussian(head: np.ndarray, n_explore: int, assume_zero_mean: bool):
    """(model, explore episodes): the plug-in model on the first
    ``n_explore`` rows of ``head``, taking one more row while it is refused;
    None once every row was read."""
    while True:
        model = _estimate_gaussian(head[:n_explore], assume_zero_mean)
        if model is not None or n_explore >= len(head):
            return model, n_explore
        n_explore += 1


def run_etc_gaussian(
    env: GaussianEnvironment,
    config: EtcConfig,
    collect_observations: bool = False,
    sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Gaussian ETC with the plug-in mean/second-moment estimator: it
    commits to the clairvoyant policy of the ``GaussianOutcomeModel`` it fits.

    While that model refuses the estimated covariance (not positive
    definite), or its condition number exceeds ``SINGULARITY_CONDITION_CAP``,
    exploration is extended episode by episode up to 2N; past that the run
    records an estimation failure and tests everything for the remainder.
    The model is fitted on a look-ahead of the first min(2N, T) outcomes,
    those it may read, before the first episode is played.
    """
    T = config.horizon
    n0 = gaussian_exploration_episodes(config)
    with _look_ahead(env):
        model, n_explore = _fit_gaussian(env.outcomes(min(2 * n0, T)), n0, config.assume_zero_mean)
    policy = None
    if model is not None and n_explore < T:
        policy, _ = solve_dp_gaussian(replace(env.instance, model=model), config.quadrature, config.state_cap)

    out = TraceSink() if sink is None else sink
    _play(env, config, n_explore, policy, collect_observations, out)
    metadata = {
        "n_explore": n_explore,
        "schedule_n": n0,
        "estimator": None if model is None else "uncentered" if config.assume_zero_mean else "centered",
        "estimation_failure": model is None,
    }
    return EtcRunResult(trace=out.finish(metadata), policy=policy, empirical=model, metadata=metadata)


def run_clairvoyant(
    env, config: EtcConfig, collect_observations: bool = False, sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """The clairvoyant policy, solved on the true model under the config's
    budget, played every episode with no exploration (its regret is 0 by
    definition)."""
    if isinstance(env, DiscreteEnvironment):
        policy = env.clairvoyant(config.state_cap)[0]
    else:
        policy = env.clairvoyant_policy(config.quadrature, config.state_cap)
    out = TraceSink() if sink is None else sink
    _play(env, config, 0, policy, collect_observations, out)
    return EtcRunResult(trace=out.finish({}), policy=policy, empirical=None, metadata={})


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

    def finish(self, metadata: dict) -> None:
        return None


def run_etc_doubling(
    env, config: EtcConfig, collect_observations: bool = False, sink: Optional[TraceSink] = None,
) -> EtcRunResult:
    """Doubling-trick ETC on the same environment stream as known-T ETC: a
    fresh known-horizon agent per batch, each batch's blocks handed on as it
    plays them."""
    runner = run_etc_discrete if isinstance(env, DiscreteEnvironment) else run_etc_gaussian
    out = TraceSink() if sink is None else sink
    batches = [
        runner(
            env, replace(config, horizon=batch_T, override_n=None), collect_observations,
            _BatchSink(out),
        ).metadata
        for batch_T in doubling_batches(config.horizon)
    ]
    metadata = {"batches": batches}
    trace = out.finish(metadata)
    return EtcRunResult(trace=trace, policy=None, empirical=None, metadata=metadata)
