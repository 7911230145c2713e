"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest

from seqtest.dp import Rollout
from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    RewardSpec,
    SINGULARITY_CONDITION_CAP,
    neg_sq_dist,
)


def random_discrete_instance(rng, d_max=3, k_max=8, n_decisions=None, values=(0.0, 1.0, 2.0)):
    """Random small discrete instance with a bounded reward table and costs
    in [0, 1] (the regime of the DP-vs-oracle checks)."""
    d = int(rng.integers(1, d_max + 1))
    k = int(rng.integers(2, k_max + 1))
    seen = set()
    rows = []
    guard = 0
    while len(rows) < k:
        row = tuple(float(values[v]) for v in rng.integers(0, len(values), d))
        guard += 1
        if row not in seen:
            seen.add(row)
            rows.append(row)
        if guard > 200:  # small coordinate alphabets can run out of rows
            k = len(rows)
            break
    weights = rng.random(k) + 0.05
    probs = weights / weights.sum()
    n_y = int(rng.integers(2, 5)) if n_decisions is None else n_decisions
    table = rng.uniform(-1.0, 1.0, size=(k, n_y))
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=np.array(rows), probs=probs),
        costs=rng.uniform(0.0, 1.0, size=d),
        decisions=tuple(range(n_y)),
        reward=RewardSpec(kind="table", table=table),
    )


def single_test_instance(values, probs, cost=0.01):
    """One test whose outcome is the label to predict (indicator-match reward,
    decisions 0, 1 and 2), so testing is worth its small cost."""
    return ProblemInstance(
        model=DiscreteOutcomeModel(
            support=np.array([[v] for v in values]), probs=np.array(probs)
        ),
        costs=np.array([cost]),
        decisions=((0.0,), (1.0,), (2.0,)),
        reward=RewardSpec(kind="indicator-match"),
    )


class PerRowPolicyWalk:
    """The scalar walk that ``DiscretePolicy.rollouts`` replaced, kept as an
    oracle: one outcome row at a time, a dict per test maps each observed
    value to its slot, and the policy's child tables give the next state."""

    def __init__(self, policy):
        self.policy = policy
        self.slots = [{v: slot for slot, v in enumerate(vals.tolist())} for vals in policy._values]

    def advance(self, state: int, test: int, value: float) -> int:
        """State after observing ``value`` on ``test``; -1 if impossible."""
        slot = self.slots[test].get(float(value))
        return -1 if slot is None else int(self.policy._child[test][state, slot])

    def state_of(self, s) -> int:
        """The state a ``TestState``'s observations lead to from the root."""
        state = 0
        for i in s.observed_indices:
            state = self.advance(state, i, s.entries[i])
            assert state >= 0, "no support point is consistent with the state"
        return state

    def trace(self, x) -> Rollout:
        """The policy's rollout on outcome vector ``x``: at a value the model
        never saw, the best decision at the deepest consistent state."""
        table, state, tests = self.policy.table, 0, []
        while True:
            which = int(table.action[state])
            if which < 0:
                return Rollout(tests=tuple(tests), decision=int(table.decision[state]))
            tests.append(which)
            child = self.advance(state, which, x[which])
            if child < 0:
                return Rollout(tests=tuple(tests), decision=int(table.decision[state]), fallback=True)
            state = child


def reward_value(instance, x, decision_index, support_index=None) -> float:
    """Realized reward f(x, y) of one fully observed outcome ``x``; a table
    reward finds ``x``'s support index by exact match when none is given."""
    kind = instance.reward.kind
    if kind == "table":
        if support_index is None:
            key = tuple(float(v) for v in x)
            support_index = [tuple(row) for row in instance.model.support.tolist()].index(key)
        return float(instance.reward.table[support_index, decision_index])
    if kind == "indicator-match":
        return 1.0 if tuple(float(v) for v in x) == instance.decisions[decision_index] else 0.0
    assert kind == "quadratic", kind
    return float(neg_sq_dist(x, instance.decisions[decision_index]))


def rollout_net_reward(instance, x, rollout, support_index=None) -> float:
    """One episode's realized reward minus the costs of its tests, added in
    test order: the scalar price ``rollout_net_rewards`` must equal bit for bit."""
    test_cost = 0.0
    for i in rollout.tests:
        test_cost += float(instance.costs[i])
    return reward_value(instance, x, rollout.decision, support_index) - test_cost


def gaussian_estimate_accepted(draws, assume_zero_mean) -> bool:
    """The Gaussian ETC fit's acceptance rule as its own check, kept as a
    reference for the model constructor that replaced it: the plug-in
    covariance's eigenvalues satisfy lambda_0 > 0 and
    lambda_max <= CAP * lambda_0; a ``LinAlgError`` is a refusal."""
    mu = draws.mean(axis=0)
    cov = draws.T @ draws / draws.shape[0]
    if not assume_zero_mean:
        cov = cov - np.outer(mu, mu)
    try:
        eigenvalues = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    except np.linalg.LinAlgError:
        return False
    return eigenvalues[0] > 0.0 and eigenvalues[-1] <= SINGULARITY_CONDITION_CAP * eigenvalues[0]


def random_gaussian_model(rng, d):
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    cov = (cov + cov.T) / 2.0
    return GaussianOutcomeModel(mean=rng.standard_normal(d), covariance=cov)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
