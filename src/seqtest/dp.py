"""Clairvoyant dynamic programming over partially observed test states.

Discrete instances are solved exactly by recursing forward from the all-missing
state and memoizing on the canonical state key: the set of support points
consistent with the observations so far. Two states with the same consistent
set induce the same posterior, hence the same value; tests whose outcome is
already determined by the consistent set are dominated (nonnegative cost, zero
information) and are excluded from the action max, which keeps every stored
best action legal regardless of which coordinates produced the key. Each
state carries its ascending list of consistent support indices and its mass
through the recursion; a child's list is filtered from its parent's, and only
when the child is not yet memoized. Masses are summed sequentially in
ascending index order (``m += p_k``), the order independent implementations
use, so values agree bitwise. Neither ``np.sum`` (pairwise summation) nor the
built-in ``sum`` (compensated from Python 3.12) may replace that loop.

Gaussian instances are solved approximately on a scenario tree: each tested
coordinate's conditional law is discretized into Gauss-Hermite nodes of its 1-d
posterior marginal, and the returned policy re-runs the same backward induction
from whatever real-valued state it is queried at. A Gaussian's conditional
covariance depends only on which entries are observed, not on their values, so
the gain Sigma_ab Sigma_bb^-1, the conditional covariance and its trace are
computed once per observed mask; states sharing a mask are then evaluated
together as numpy batches (the gain gives the posterior means of all of them
in one pass). Rollouts advance all episodes level by level, grouped by
their current mask, in batches of bounded size, and keep no per-state memo, so
memory does not grow with the number of episodes. The full tree has
sum_k d!/(d-k)! n^k nodes for n nodes per test; a solve whose tree exceeds the
state cap fails before evaluating anything.

Tie-breaking everywhere: a decision beats an equal-valued test, lower test
index beats higher, lower decision index beats higher. Value comparisons are
exact float comparisons; the tie rules make results deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    InstanceError,
    ProblemInstance,
    ScalarPmf,
    TestState,
    apply_observation,
    conditional_means,
    consistent_support_indices,
    gaussian_conditioning,
    marginal_over_test,
    posterior_gaussian,
    sample,
)

# action = ("test", test_index) or ("decide", decision_index)
Action = Tuple[str, int]


class StateSpaceError(RuntimeError):
    """The number of canonical states exceeded the configured cap."""


class QuadratureCapError(ValueError):
    """Scenario-tree depth/width cap exceeded."""


class PolicyUndefinedError(RuntimeError):
    """A rollout reached a state the policy's model cannot represent."""


@dataclass
class ValueTable:
    """Memoized value function: canonical state key -> (value, best action)."""

    entries: dict
    root_key: object

    @property
    def root_value(self) -> float:
        return self.entries[self.root_key][0]

    @property
    def root_action(self) -> Action:
        return self.entries[self.root_key][1]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Rollout:
    """One policy rollout on a realized outcome vector."""

    tests: tuple
    decision: int
    fallback: bool = False


@dataclass(frozen=True)
class PolicyValue:
    value: float
    stderr: float = 0.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite discretization parameters for the Gaussian DP."""

    nodes_per_test: int = 16
    max_depth: int = 6

    def __post_init__(self):
        if self.nodes_per_test < 1:
            raise QuadratureCapError("nodes_per_test must be >= 1")
        if self.max_depth < 1:
            raise QuadratureCapError("max_depth must be >= 1")

    @classmethod
    def from_params(cls, params: dict) -> "QuadratureSpec":
        """Spec from the ``nodes_per_test``/``max_depth`` entries of
        ``params``; fields it does not set keep their defaults."""
        return cls(**{k: int(params[k]) for k in ("nodes_per_test", "max_depth") if k in params})


def _bits(mask: int) -> list:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _reward_table(instance: ProblemInstance) -> Optional[np.ndarray]:
    """Materialize a (K, |Y|) reward matrix for discrete table/quadratic kinds."""
    kind = instance.reward.kind
    if kind == "table":
        return instance.reward.table
    if kind == "quadratic":
        support = instance.model.support
        dec = np.array([list(y) for y in instance.decisions], dtype=float)
        diff = support[:, None, :] - dec[None, :, :]
        return -np.einsum("kjd,kjd->kj", diff, diff)
    return None


# ---------------------------------------------------------------------------
# Discrete DP
# ---------------------------------------------------------------------------


class DiscretePolicy:
    """Deterministic policy over canonical discrete states.

    States are keyed by the bitmask (over the policy model's support indices)
    of points consistent with the observations so far. ``trace`` rolls the
    policy out on a realized outcome vector; when an observed value is
    impossible under the policy's model the rollout falls back to the best
    decision at the deepest consistent state.
    """

    def __init__(self, instance: ProblemInstance, table: ValueTable, value_masks: list):
        self.instance = instance
        self.table = table
        self._value_masks = value_masks  # per test: {float value -> bitmask}

    @property
    def root_key(self) -> int:
        return self.table.root_key

    def action(self, key: int) -> Action:
        return self.table.entries[key][1]

    def value(self, key: int) -> float:
        return self.table.entries[key][0]

    def fallback_decision(self, key: int) -> int:
        return self.table.entries[key][2]

    def key_for_state(self, s: TestState) -> int:
        idx = consistent_support_indices(self.instance.model, s)
        key = 0
        for k in idx:
            key |= 1 << int(k)
        return key

    def action_for_state(self, s: TestState) -> Action:
        return self.action(self.key_for_state(s))

    def advance(self, key: int, test: int, value: float) -> int:
        """New key after observing ``value`` on ``test``; 0 if impossible."""
        return key & self._value_masks[test].get(float(value), 0)

    def rollouts(self, xs: np.ndarray, on_missing: str = "fallback"):
        """Roll the policy out on every outcome row of ``xs`` (n, d).

        Returns (tests performed, decision, test order, fallback): the arrays
        of :meth:`GaussianTreePolicy.rollouts` plus an (n,) bool array marking
        the rollouts that fell back (see :meth:`trace`).
        """
        xs = np.asarray(xs, dtype=float)
        order = np.full(xs.shape, -1)
        decision = np.empty(len(xs), dtype=int)
        fallback = np.zeros(len(xs), dtype=bool)
        for t, x in enumerate(xs):
            roll = self.trace(x, on_missing)
            order[t, : len(roll.tests)] = roll.tests
            decision[t], fallback[t] = roll.decision, roll.fallback
        return (order >= 0).sum(axis=1), decision, order, fallback

    def trace(self, x: Sequence[float], on_missing: str = "fallback") -> Rollout:
        """Roll the policy out on outcome vector ``x``."""
        key = self.root_key
        tests = []
        while True:
            kind, which = self.action(key)
            if kind == "decide":
                return Rollout(tests=tuple(tests), decision=which)
            tests.append(which)
            child = self.advance(key, which, float(x[which]))
            if child == 0:
                if on_missing == "error":
                    raise PolicyUndefinedError(
                        f"observed value {x[which]!r} on test {which} is outside "
                        "the policy model's support"
                    )
                return Rollout(tests=tuple(tests), decision=self.fallback_decision(key), fallback=True)
            key = child


def _best_decision_discrete(probs, idxs, mass, table, ranking):
    """(value, decision index) of the best immediate decision at a state.

    ``idxs`` ascending. With a reward table, expectations are computed as
    (probs[idxs]/mass) dot table rows so that independent implementations of
    the same contraction agree bitwise. For indicator-match rewards the best
    decision is the posterior mode among support points in the decision set,
    lower decision index first on ties. ``ranking`` is ``(rank, ranked)``:
    ``rank[k]`` is support point k's position in that order (``len(rank)``
    when k is outside the decision set), ``ranked[r]`` the (probability,
    decision) at position r.
    """
    if table is not None:
        idx_arr = np.asarray(idxs, dtype=np.intp)
        w = probs[idx_arr] / mass
        exp = w @ table[idx_arr]
        j = int(np.argmax(exp))
        return float(exp[j]), j
    rank, ranked = ranking
    r = min(map(rank.__getitem__, idxs))
    if r == len(rank):
        return 0.0, 0
    p, j = ranked[r]
    return p / mass, j


def solve_dp_discrete(instance: ProblemInstance, state_cap: int = 10**7):
    """Exact optimal policy and value table for a discrete instance.

    Raises :class:`StateSpaceError` when the number of canonical states would
    exceed ``state_cap``.
    """
    model = instance.model
    if not isinstance(model, DiscreteOutcomeModel):
        raise InstanceError("solve_dp_discrete requires a discrete model")
    support = model.support
    K, d = model.support_size, model.d
    table = _reward_table(instance)
    plist = model.probs.tolist()
    ranking = None
    if instance.reward.kind == "indicator-match":
        # support points in the decision set, by probability then decision
        dec_index = {y: j for j, y in enumerate(instance.decisions)}
        point_decision = [dec_index.get(tuple(y), -1) for y in support.tolist()]
        order = sorted(
            (k for k in range(K) if point_decision[k] >= 0),
            key=lambda k: (-plist[k], point_decision[k]),
        )
        rank = [K] * K
        for r, k in enumerate(order):
            rank[k] = r
        ranking = (rank, [(plist[k], point_decision[k]) for k in order])
    elif table is None:
        raise InstanceError(
            f"reward kind {instance.reward.kind!r} is not supported by the discrete DP"
        )
    neg_costs = [-c for c in instance.costs.tolist()]

    # per (test, value) consistency masks over support indices, and each
    # test's column with one float object per distinct value (the columns
    # stay alive for the whole solve)
    value_masks, cols = [], []
    for col in support.T.tolist():
        masks: dict = {}
        for k, v in enumerate(col):
            masks[v] = masks.get(v, 0) | (1 << k)
        value_masks.append(masks)
        shared = {v: v for v in masks}
        cols.append([shared[v] for v in col])
    # (value, mask) pairs per test, in ascending value order
    test_values = [sorted(m.items()) for m in value_masks]
    # memo entries share one action tuple per test and per decision
    test_actions = [("test", i) for i in range(d)]
    decide_actions = [("decide", j) for j in range(len(instance.decisions))]

    memo: dict = {}
    mass_memo: dict = {}

    def solve(mask: int, idxs: list, mass_s: float) -> float:
        # evaluates a state not yet in the memo; ``idxs`` are its support
        # indices (ascending), ``mass_s`` their probability mass. Every state
        # but the root enters the mass memo when first reached, before it is
        # solved, so len(mass_memo) + 1 states have been reached here
        if len(mass_memo) >= state_cap:
            raise StateSpaceError(
                f"state-space blowup guard: more than {state_cap} canonical states"
            )
        dec_val, dec_j = _best_decision_discrete(model.probs, idxs, mass_s, table, ranking)
        best_val, best_act = dec_val, decide_actions[dec_j]
        for i in range(d):
            children = []
            for v, vmask in test_values[i]:
                child = mask & vmask
                if child:
                    children.append((child, v))
            if len(children) == 1:
                continue  # coordinate already determined by the consistent set
            col = cols[i]
            q = neg_costs[i]
            for child, v in children:
                entry = memo.get(child)
                if entry is not None:
                    q += (mass_memo[child] / mass_s) * entry[0]
                    continue
                child_idxs = [k for k in idxs if col[k] == v]
                m = 0.0
                for k in child_idxs:
                    m += plist[k]
                mass_memo[child] = m
                q += (m / mass_s) * solve(child, child_idxs, m)
            if q > best_val:
                best_val, best_act = q, test_actions[i]
        memo[mask] = (best_val, best_act, dec_j)
        return best_val

    root = (1 << K) - 1
    root_mass = 0.0
    for p in plist:
        root_mass += p
    solve(root, list(range(K)), root_mass)
    # the recursive closure references itself; unbinding it frees the solve's
    # scratch state (mass memo, closures) on return instead of at a later
    # cyclic garbage collection, which could come after the next solve
    solve = None
    vtable = ValueTable(entries=memo, root_key=root)
    return DiscretePolicy(instance, vtable, value_masks), vtable


def policy_records(policy: DiscretePolicy) -> list:
    """JSON-ready policy dump: one record per canonical discrete state."""
    records = []
    for mask in sorted(policy.table.entries):
        value, (kind, which), _ = policy.table.entries[mask]
        records.append(
            {
                "state_key": "|".join(str(k) for k in _bits(mask)),
                "action": f"{kind}:{which}",
                "value": value,
            }
        )
    return records


# ---------------------------------------------------------------------------
# Public one-step operations
# ---------------------------------------------------------------------------


def q_value(
    instance: ProblemInstance,
    s: TestState,
    test: int,
    value_lookup: Callable[[TestState], float],
    nodes_per_test: int = 16,
) -> float:
    """Expected remaining reward for performing ``test`` at state ``s``:
    -c_test plus the posterior-weighted value of the successor states."""
    if s.entries[test] is not None:
        raise ValueError(f"test {test} is already observed")
    marg = marginal_over_test(instance.model, s, test)
    q = -float(instance.costs[test])
    if isinstance(marg, ScalarPmf):
        for v, p in zip(marg.values, marg.probs):
            q += p * value_lookup(apply_observation(s, test, v))
        return q
    nodes, weights = _gauss_hermite(nodes_per_test)
    scale = math.sqrt(2.0 * marg.variance)
    for h, w in zip(nodes, weights):
        q += w * value_lookup(apply_observation(s, test, marg.mean + scale * h))
    return q


def _require_quadratic(instance: ProblemInstance) -> None:
    if instance.reward.kind != "quadratic":
        raise InstanceError(
            f"reward kind {instance.reward.kind!r} has no closed form for "
            "Gaussian models (only 'quadratic' is supported)"
        )


def _decision_matrix(instance: ProblemInstance) -> np.ndarray:
    return np.array([list(y) for y in instance.decisions], dtype=float)


def _quadratic_decision_values(dec, obs, miss, values, means, trace) -> np.ndarray:
    """E[f(x, y) | state] = -E||x - y||^2 per (state, decision) for n states
    observing ``obs`` with ``values`` (n, |obs|), whose posteriors over
    ``miss`` have means ``means`` (n, |miss|) and covariance trace ``trace``."""
    total = np.zeros((values.shape[0], dec.shape[0]))
    if obs:
        total += ((values[:, None, :] - dec[:, obs][None]) ** 2).sum(axis=2)
    if miss:
        total += ((means[:, None, :] - dec[:, miss][None]) ** 2).sum(axis=2)
        total += trace
    return -total


def _gaussian_decision_values(instance: ProblemInstance, s: TestState) -> np.ndarray:
    """Closed-form E[f(x, y) | s] per decision for Gaussian models."""
    _require_quadratic(instance)
    obs = list(s.observed_indices)
    miss = list(s.missing_indices)
    means, trace = None, 0.0
    if miss:
        post = posterior_gaussian(instance.model, s)
        means, trace = post.mean[None, :], float(np.trace(post.covariance))
    values = np.array([[s.entries[i] for i in obs]], dtype=float)
    return _quadratic_decision_values(_decision_matrix(instance), obs, miss, values, means, trace)[0]


def decision_reward(instance: ProblemInstance, s: TestState, decision_index: int) -> float:
    """Expected reward of deciding ``decision_index`` at state ``s``."""
    if s.terminal:
        raise ValueError("cannot decide in the terminal state")
    model = instance.model
    if isinstance(model, DiscreteOutcomeModel):
        idxs = [int(k) for k in consistent_support_indices(model, s)]
        if not idxs:
            raise InstanceError("no support point is consistent with the state")
        mass = 0.0
        for k in idxs:
            mass += model.probs[k]
        table = _reward_table(instance)
        if table is not None:
            idx_arr = np.asarray(idxs, dtype=np.intp)
            w = model.probs[idx_arr] / mass
            return float(w @ table[idx_arr, decision_index])
        y = instance.decisions[decision_index]
        p = 0.0
        for k in idxs:
            if tuple(model.support[k]) == y:
                p += model.probs[k]
        return p / mass
    return float(_gaussian_decision_values(instance, s)[decision_index])


# ---------------------------------------------------------------------------
# Gaussian scenario-tree DP
# ---------------------------------------------------------------------------

# Most states evaluated in one batch; larger batches are split. A batch's
# children number nodes_per_test * _CHUNK per missing test, so the memory of a
# tree evaluation or a rollout is bounded whatever the number of episodes.
_CHUNK = 256


def _gauss_hermite(n: int):
    """Probabilist-normalized Gauss-Hermite nodes and weights (sum to 1)."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    return nodes, weights / math.sqrt(math.pi)


def gaussian_tree_size(d: int, nodes_per_test: int) -> int:
    """Node count of the full scenario tree: sum_{k=0..d} d!/(d-k)! n^k."""
    total, level = 0, 1
    for k in range(d + 1):
        total += level
        level *= (d - k) * nodes_per_test
    return total


@dataclass(frozen=True)
class _MaskConditioning:
    """The part of the posterior given an observed mask that does not depend
    on the observed values (see ``models.gaussian_conditioning``): the gain
    that maps observed values to conditional means, and the conditional
    covariance's trace and per-index scales."""

    obs: list
    miss: list
    gain: Optional[np.ndarray]  # Sigma_ab Sigma_bb^-1; None unless obs and miss
    trace: float  # trace of the conditional covariance
    scales: tuple  # sqrt(2 * conditional variance) per missing index


class GaussianTreePolicy:
    """Backward-induction policy on a Gauss-Hermite scenario tree.

    The policy is evaluable at arbitrary real observations: querying an action
    recomputes the induction from the queried state as the root, so committed
    agents can follow it on outcomes that never coincide with tree nodes.
    States are evaluated in batches that share an observed mask; the
    conditioning for each mask is computed once, on first visit. Only the
    root's (value, action, decision) is kept; no other state is memoized.
    """

    def __init__(self, instance: ProblemInstance, quadrature: QuadratureSpec):
        if not isinstance(instance.model, GaussianOutcomeModel):
            raise InstanceError("GaussianTreePolicy requires a Gaussian model")
        if instance.d > quadrature.max_depth:
            raise QuadratureCapError(
                f"dimension {instance.d} exceeds max_depth {quadrature.max_depth}"
            )
        _require_quadratic(instance)
        self.instance = instance
        self.quadrature = quadrature
        self._nodes, self._weights = _gauss_hermite(quadrature.nodes_per_test)
        self._decisions = _decision_matrix(instance)
        self._masks: dict = {}  # observed mask -> _MaskConditioning
        self._root = None

    def _conditioning(self, mask: int) -> _MaskConditioning:
        cached = self._masks.get(mask)
        if cached is not None:
            return cached
        cov = self.instance.model.covariance
        obs = _bits(mask)
        miss = [i for i in range(self.instance.d) if not mask >> i & 1]
        gain = None
        if obs and miss:
            gain, cov = gaussian_conditioning(cov, obs, miss)
        cond = _MaskConditioning(
            obs=obs,
            miss=miss,
            gain=gain,
            trace=float(np.trace(cov)) if miss else 0.0,
            scales=tuple(math.sqrt(2.0 * float(cov[p, p])) for p in range(len(miss))),
        )
        self._masks[mask] = cond
        return cond

    def node_batch(self, obs_mask: int, values: np.ndarray):
        """(value, action, best decision) arrays for the n states observing
        ``obs_mask``; ``values`` is (n, |mask|) in ascending index order. The
        action is the index of the test to perform, or -1 to decide."""
        n = values.shape[0]
        if n > _CHUNK:
            parts = [self.node_batch(obs_mask, values[s : s + _CHUNK]) for s in range(0, n, _CHUNK)]
            return tuple(np.concatenate(column) for column in zip(*parts))
        c = self._conditioning(obs_mask)
        mean = self.instance.model.mean
        means = None
        if c.gain is not None:
            means = conditional_means(mean, c.obs, c.miss, c.gain, values)
        elif c.miss:
            means = np.broadcast_to(mean, (n, len(c.miss)))
        dec_values = _quadratic_decision_values(
            self._decisions, c.obs, c.miss, values, means, c.trace
        )
        decision = np.argmax(dec_values, axis=1)
        best = dec_values[np.arange(n), decision]
        action = np.full(n, -1)
        k = len(c.obs)
        for pos, i in enumerate(c.miss):
            rank = sum(j < i for j in c.obs)
            child = np.empty((len(self._nodes), n, k + 1))
            child[:, :, :rank] = values[:, :rank]
            child[:, :, rank] = means[:, pos] + c.scales[pos] * self._nodes[:, None]
            child[:, :, rank + 1 :] = values[:, rank:]
            child_values = self.node_batch(obs_mask | (1 << i), child.reshape(-1, k + 1))[0]
            q = np.full(n, -float(self.instance.costs[i]))
            for w, v in zip(self._weights, child_values.reshape(len(self._nodes), n)):
                q += w * v
            better = q > best
            best = np.where(better, q, best)
            action[better] = i
        return best, action, decision

    def node(self, obs_mask: int, obs_values: tuple):
        """(value, action, best decision) at a (possibly off-tree) state."""
        if obs_mask == 0 and self._root is not None:
            return self._root
        value, action, decision = self.node_batch(obs_mask, np.array([obs_values], dtype=float))
        j = int(decision[0])
        entry = (
            float(value[0]),
            ("test", int(action[0])) if action[0] >= 0 else ("decide", j),
            j,
        )
        if obs_mask == 0:
            self._root = entry
        return entry

    @property
    def root_value(self) -> float:
        return self.node(0, ())[0]

    @property
    def root_action(self) -> Action:
        return self.node(0, ())[1]

    def action_for_state(self, s: TestState) -> Action:
        obs = s.observed_indices
        mask = 0
        for i in obs:
            mask |= 1 << i
        return self.node(mask, tuple(float(s.entries[i]) for i in obs))[1]

    def rollouts(self, xs: np.ndarray):
        """Roll the policy out on every outcome row of ``xs`` (n, d).

        Returns (tests performed, decision, test order): two (n,) arrays and
        an (n, d) array whose row t lists episode t's tests in the order
        performed, padded with -1. Episodes advance level by level, batched by
        their current observed mask; the root is evaluated once for all.
        """
        xs = np.asarray(xs, dtype=float)
        n = xs.shape[0]
        order = np.full((n, self.instance.d), -1)
        decision = np.empty(n, dtype=int)
        _, (kind, which), _ = self.node(0, ())
        if kind == "decide":
            decision[:] = which
            return np.zeros(n, dtype=int), decision, order
        masks = np.zeros(n, dtype=np.int64)
        active, pending = np.arange(n), np.full(n, which)
        level = 0
        while active.size:
            order[active, level] = pending
            masks[active] |= 1 << pending
            level += 1
            next_active, next_pending = [], []
            for mask in np.unique(masks[active]):
                rows = active[masks[active] == mask]
                mask = int(mask)
                _, action, dec = self.node_batch(mask, xs[np.ix_(rows, _bits(mask))])
                done = action < 0
                decision[rows[done]] = dec[done]
                next_active.append(rows[~done])
                next_pending.append(action[~done])
            active, pending = np.concatenate(next_active), np.concatenate(next_pending)
        return (order >= 0).sum(axis=1), decision, order

    def trace(self, x: Sequence[float], on_missing: str = "fallback") -> Rollout:
        tests, decision, order = self.rollouts(np.asarray(x, dtype=float)[None, :])
        return Rollout(
            tests=tuple(int(i) for i in order[0, : tests[0]]), decision=int(decision[0])
        )


def solve_dp_gaussian(
    instance: ProblemInstance,
    quadrature: Optional[QuadratureSpec] = None,
    state_cap: int = 10**7,
):
    """Approximate optimal policy for a Gaussian instance via the scenario tree.

    Raises :class:`StateSpaceError` before evaluating anything when the full
    tree has more than ``state_cap`` nodes. The returned table holds the root
    entry only; the policy re-evaluates every other state on demand.
    """
    quadrature = quadrature or QuadratureSpec()
    policy = GaussianTreePolicy(instance, quadrature)
    size = gaussian_tree_size(instance.d, quadrature.nodes_per_test)
    if size > state_cap:
        raise StateSpaceError(
            f"scenario-tree budget: {size} nodes (d={instance.d}, "
            f"{quadrature.nodes_per_test} nodes per test) exceed the state cap {state_cap}"
        )
    root_key = (0, ())
    table = ValueTable(entries={root_key: policy.node(*root_key)}, root_key=root_key)
    return policy, table


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


def rollout_net_reward(instance: ProblemInstance, x, rollout: Rollout, support_index=None) -> float:
    """Realized episode reward f(x, y) minus the costs of the tests performed."""
    test_cost = 0.0
    for i in rollout.tests:
        test_cost += float(instance.costs[i])
    return instance.reward_value(x, rollout.decision, support_index=support_index) - test_cost


def rollout_net_rewards(instance: ProblemInstance, xs, order, decisions, support_index=None) -> np.ndarray:
    """:func:`rollout_net_reward` of every episode of a batched rollout
    (``order`` and ``decisions`` as returned by a policy's ``rollouts``);
    ``support_index`` gives each row's support index for table rewards."""
    test_cost = np.zeros(len(xs))
    for k in range(order.shape[1]):
        took = order[:, k] >= 0
        test_cost[took] += instance.costs[order[took, k]]
    ks = [None] * len(xs) if support_index is None else support_index
    reward = [instance.reward_value(x, int(j), k) for x, j, k in zip(xs, decisions, ks)]
    return np.array(reward) - test_cost


def full_information_rollouts(instance: ProblemInstance, xs, support_index=None):
    """(tests, decision, order, net) of episodes that test 0..d-1 in order and
    then take the best decision for the fully observed outcome, lowest index
    first on ties; ``net`` is priced by :func:`rollout_net_rewards`. Discrete
    table and quadratic rewards read row ``support_index`` (required) of
    :func:`_reward_table`; an indicator-match decision is the one equal to x,
    else decision 0."""
    xs = np.asarray(xs, dtype=float)
    n, d = xs.shape
    if instance.reward.kind == "indicator-match":
        dec_index = {y: j for j, y in enumerate(instance.decisions)}
        decision = np.array([dec_index.get(tuple(x), 0) for x in xs.tolist()], dtype=int)
    else:
        if isinstance(instance.model, GaussianOutcomeModel):
            values = _quadratic_decision_values(
                _decision_matrix(instance), list(range(d)), [], xs, None, 0.0
            )
        else:
            values = _reward_table(instance)[np.asarray(support_index, dtype=np.intp)]
        decision = np.argmax(values, axis=1)
    order = np.tile(np.arange(d), (n, 1))
    net = rollout_net_rewards(instance, xs, order, decision, support_index)
    return np.full(n, d), decision, order, net


def rollout_observations(xs: np.ndarray, order: np.ndarray) -> list:
    """Per-episode {test index -> observed value} of a batched rollout."""
    return [{int(i): float(x[i]) for i in row if i >= 0} for x, row in zip(xs, order)]


def evaluate_policy(
    instance: ProblemInstance,
    policy,
    mc_episodes: int = 4096,
    rng: Optional[np.random.Generator] = None,
) -> PolicyValue:
    """Expected episode reward of a policy: exact support enumeration for
    discrete instances, Monte Carlo with a reported standard error otherwise."""
    if instance.is_discrete:
        model = instance.model
        total = 0.0
        for k in range(model.support_size):
            roll = policy.trace(model.support[k], on_missing="error")
            total += model.probs[k] * rollout_net_reward(
                instance, model.support[k], roll, support_index=k
            )
        return PolicyValue(value=float(total), stderr=0.0)
    if rng is None:
        rng = np.random.default_rng(0)
    draws = sample(instance.model, rng, mc_episodes)
    _, decisions, order = policy.rollouts(draws)
    rewards = rollout_net_rewards(instance, draws, order, decisions)
    return PolicyValue(
        value=float(rewards.mean()),
        stderr=float(rewards.std(ddof=1) / math.sqrt(mc_episodes)),
    )
