"""Shared fixtures and instance builders for the test suite."""

import numpy as np
import pytest

from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    RewardSpec,
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


def random_gaussian_model(rng, d):
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    cov = (cov + cov.T) / 2.0
    return GaussianOutcomeModel(mean=rng.standard_normal(d), covariance=cov)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
