"""Instance generators for the benchmark experiments and hard-instance
constructions, plus the exhaustive policy oracle used to validate the DP.

The single-test and stacked two-test instances use the loss-form reward table
(0 for a correct prediction of the first coordinate, -1 for a wrong one), so
their DP values equal the negated expected action costs of the construction:
predicting 0 costs 1-p0, predicting 1 costs p0, testing costs 3/4.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    InstanceError,
    ProblemInstance,
    RewardSpec,
)

PARETO_SHAPE_DEFAULT = math.log(5.0) / math.log(4.0)  # log_4(5)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def binary_support(d: int) -> np.ndarray:
    """All of {0,1}^d as float rows, counting order with test 0 as the MSB."""
    codes = np.arange(1 << d)
    return ((codes[:, None] >> np.arange(d)[::-1]) & 1).astype(float)


def gen_discrete_pareto(
    d: int = 10,
    shape: float = PARETO_SHAPE_DEFAULT,
    seed: int = 0,
    cost: float = 0.05,
) -> ProblemInstance:
    """Binary-outcome instance with Pareto-weighted realization probabilities
    and the exact-imputation indicator reward over Y = {0,1}^d."""
    if not 1 <= d <= 20:
        raise InstanceError(f"d must lie in [1, 20] (the support is all 2^d points), got {d}")
    support = binary_support(d)
    weights = _rng(seed).pareto(shape, 1 << d) + 1.0  # classical Pareto, scale 1
    probs = weights / weights.sum()
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=support, probs=probs),
        costs=np.full(d, float(cost)),
        decisions=tuple(tuple(row) for row in support),
        reward=RewardSpec(kind="indicator-match"),
    )


def gen_gaussian_lowrank(
    d: int = 15,
    seed: int = 0,
    lam: float = 1.0,
    cost: float = 0.0,
) -> ProblemInstance:
    """Zero-mean Gaussian with Sigma = L L^T + I, L entries Uniform[0, 1);
    entropy reward with weight lam (an OCMESP instance, empty decision set)."""
    ell = _rng(seed).random((d, d))
    cov = ell @ ell.T + np.eye(d)
    cov = (cov + cov.T) / 2.0
    return ProblemInstance(
        model=GaussianOutcomeModel(mean=np.zeros(d), covariance=cov),
        costs=np.full(d, float(cost)),
        decisions=(),
        reward=RewardSpec(kind="entropy", lam=float(lam)),
    )


def _loss_table(support: np.ndarray, predicted_coordinate: int = 0) -> np.ndarray:
    """0 when the decision matches the predicted coordinate, -1 otherwise."""
    col = support[:, predicted_coordinate]
    return np.stack([-(col != 0.0).astype(float), -(col != 1.0).astype(float)], axis=1)


def gen_lower_bound_single(eps: float, which: int) -> ProblemInstance:
    """Single binary test with cost 3/4; instance 1 has P(x=0) = (1+eps)/2,
    instance 2 has P(x=0) = (1-eps)/2."""
    if not 0.0 < eps < 1.0:
        raise InstanceError("eps must lie in (0, 1)")
    if which not in (1, 2):
        raise InstanceError("which must be 1 or 2")
    p0 = (1.0 + eps) / 2.0 if which == 1 else (1.0 - eps) / 2.0
    support = np.array([[0.0], [1.0]])
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=support, probs=np.array([p0, 1.0 - p0])),
        costs=np.array([0.75]),
        decisions=(0, 1),
        reward=RewardSpec(kind="table", table=_loss_table(support)),
    )


def gen_lower_bound_stacked(eps: float, support_size: int, pattern: str) -> ProblemInstance:
    """Two tests: the second is free and uniform on support_size/2 values, and
    the conditional law of the first given x2 = i is instance 1 or instance 2
    per pattern bit i ('1' -> (1+eps)/2, '0' -> (1-eps)/2)."""
    if not 0.0 < eps < 1.0:
        raise InstanceError("eps must lie in (0, 1)")
    if support_size < 2 or support_size % 2 != 0:
        raise InstanceError("support_size must be even and >= 2")
    m = support_size // 2
    if len(pattern) != m or set(pattern) - {"0", "1"}:
        raise InstanceError(f"pattern must be a bit string of length {m}")
    rows, probs = [], []
    for i in range(m):
        p0 = (1.0 + eps) / 2.0 if pattern[i] == "1" else (1.0 - eps) / 2.0
        rows.append([0.0, float(i + 1)])
        probs.append(p0 / m)
        rows.append([1.0, float(i + 1)])
        probs.append((1.0 - p0) / m)
    support = np.array(rows)
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=support, probs=np.array(probs)),
        costs=np.array([0.75, 0.0]),
        decisions=(0, 1),
        reward=RewardSpec(kind="table", table=_loss_table(support)),
    )


def gen_gaussian_quadratic(
    d: int = 2,
    seed: int = 0,
    cost: float = 0.1,
    grid_points: int = 5,
    grid_span: float = 2.0,
) -> ProblemInstance:
    """Gaussian instance with quadratic loss over a lattice of vector decisions
    (the continuous decision set discretized coordinate-wise)."""
    if grid_points**d > 4096:
        raise InstanceError("decision lattice capped at 4096 points")
    rng = _rng(seed)
    a = rng.random((d, d)) - 0.5
    cov = a @ a.T + 0.5 * np.eye(d)
    cov = (cov + cov.T) / 2.0
    axis = np.linspace(-grid_span, grid_span, grid_points)
    decisions = tuple(itertools.product(axis.tolist(), repeat=d))
    return ProblemInstance(
        model=GaussianOutcomeModel(mean=np.zeros(d), covariance=cov),
        costs=np.full(d, float(cost)),
        decisions=decisions,
        reward=RewardSpec(kind="quadratic"),
    )


# ---------------------------------------------------------------------------
# Exhaustive policy oracle
# ---------------------------------------------------------------------------


def brute_force_policy_oracle(instance: ProblemInstance):
    """Maximum expected episode reward over all deterministic
    history-dependent policies, by exhaustive recursion over every reachable
    information set and every legal action assignment.

    Evaluation is by forward enumeration over filtered support lists,
    independent of the DP's canonical-state machinery. Subtree independence
    lets the per-information-set maxima combine into the global policy
    maximum. Capped at d <= 3, K <= 8.
    """
    model = instance.model
    if not isinstance(model, DiscreteOutcomeModel):
        raise InstanceError("the policy oracle handles discrete instances only")
    d, K = model.d, model.support_size
    if d > 3 or K > 8:
        raise ValueError(f"oracle capped at d <= 3, K <= 8; got d={d}, K={K}")
    support, probs, costs = model.support, model.probs, instance.costs
    if instance.reward.kind == "table":
        table = instance.reward.table
    elif instance.reward.kind == "indicator-match":
        # f(x, y) = 1 for every decision equal to x, repeated vectors included
        table = np.zeros((K, len(instance.decisions)))
        for k in range(K):
            for j, y in enumerate(instance.decisions):
                if tuple(support[k]) == y:
                    table[k, j] = 1.0
    else:
        raise InstanceError(f"oracle does not handle {instance.reward.kind!r} rewards")

    memo = {}
    policy = {}

    def best(observed_mask: int, idxs: tuple) -> float:
        key = (observed_mask, idxs)
        if key in memo:
            return memo[key]
        mass = 0.0
        for k in idxs:
            mass += probs[k]
        idx_arr = np.asarray(idxs, dtype=np.intp)
        w = probs[idx_arr] / mass
        exp = w @ table[idx_arr]
        j = int(np.argmax(exp))
        best_val, best_act = float(exp[j]), ("decide", j)
        for i in range(d):
            if observed_mask & (1 << i):
                continue
            partition = {}
            for k in idxs:
                partition.setdefault(float(support[k, i]), []).append(k)
            q = -costs[i]
            for v in sorted(partition):
                child = tuple(partition[v])
                child_mass = 0.0
                for k in child:
                    child_mass += probs[k]
                q += (child_mass / mass) * best(observed_mask | (1 << i), child)
            if q > best_val:
                best_val, best_act = q, ("test", i)
        memo[key] = best_val
        policy[key] = best_act
        return best_val

    value = best(0, tuple(range(K)))
    return value, policy
